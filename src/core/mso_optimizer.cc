#include "core/mso_optimizer.h"

#include <cmath>

#include "tensor/grad.h"
#include "util/arena.h"
#include "util/health.h"
#include "util/logging.h"

namespace msopds {
namespace {

double Norm(const Tensor& t) {
  double total = 0.0;
  for (int64_t i = 0; i < t.size(); ++i) total += t.data()[i] * t.data()[i];
  return std::sqrt(total);
}

}  // namespace

MsoOptimizer::MsoOptimizer(const MsoConfig& config) : config_(config) {
  MSOPDS_CHECK_GT(config.leader_step, 0.0);
  // Algorithm 1's assert: 0 < eta^p < eta^q (push-pull condition).
  MSOPDS_CHECK_LT(config.leader_step, config.follower_step)
      << "MSO requires the leader step size below the follower step size";
  MSOPDS_CHECK_GT(config.outer_iterations, 0);
}

std::vector<MsoIterationStats> MsoOptimizer::Optimize(
    const LossFn& losses, const std::vector<ImportanceVector*>& players,
    const std::vector<Budget>& budgets) const {
  MSOPDS_CHECK_GE(players.size(), 1u);
  MSOPDS_CHECK_EQ(players.size(), budgets.size());
  const size_t num_players = players.size();

  std::vector<MsoIterationStats> history;
  history.reserve(static_cast<size_t>(config_.outer_iterations));

  // One arena region per MSO run: surrogate tapes and CG temporaries
  // recycle across iterations, trimmed in bulk at the end.
  ArenaRegion region;
  for (int iteration = 0; iteration < config_.outer_iterations; ++iteration) {
    // Step 4: binarize all importance vectors.
    std::vector<Variable> xhats;
    xhats.reserve(num_players);
    for (size_t p = 0; p < num_players; ++p) {
      xhats.push_back(players[p]->BinarizedParam(budgets[p]));
    }

    // Steps 5-7: evaluate all players' losses through the surrogate.
    const std::vector<Variable> loss_values = losses(xhats);
    MSOPDS_CHECK_EQ(loss_values.size(), num_players);

    MsoIterationStats stats;
    stats.leader_loss = loss_values[0].value().item();
    for (size_t q = 1; q < num_players; ++q) {
      stats.follower_losses.push_back(loss_values[q].value().item());
    }

    // Step 8: first-order partials. The leader needs dL^p/dXhat^p and
    // dL^p/dXhat^{q_i} by value only; each follower needs
    // dL^{q_i}/dXhat^{q_i} with the graph retained for second-order
    // products.
    const std::vector<Tensor> leader_grads = GradValues(loss_values[0], xhats);
    Tensor leader_total = leader_grads[0].Clone();

    std::vector<Tensor> follower_updates(num_players);  // [q] for q >= 1
    for (size_t q = 1; q < num_players; ++q) {
      Variable follower_grad = Grad(loss_values[q], {xhats[q]})[0];
      follower_updates[q] = follower_grad.value().Clone();

      // Step 9: solve xi * d^2L^q/dXhat^q^2 = dL^p/dXhat^q by CG over
      // exact Hessian-vector products (double backward). A non-finite
      // right-hand side or follower gradient (e.g. an injected NaN in
      // the surrogate inner loop) skips the implicit term for this
      // iteration instead of poisoning the leader update.
      const Tensor& rhs = leader_grads[q];
      if (!AllFinite(rhs) || !AllFinite(follower_updates[q])) {
        ++stats.non_finite_events;
        continue;
      }
      if (rhs.MaxAbs() > 0.0 && follower_grad.requires_grad()) {
        LinearOperator hvp = [&](const Tensor& v) {
          return HessianVectorProduct(follower_grad, xhats[q], v);
        };
        const CgResult solve = ConjugateGradient(hvp, rhs, config_.cg);
        stats.cg_iterations += solve.iterations;
        stats.cg_breakdowns += solve.breakdowns;
        if (solve.outcome == CgOutcome::kDenseFallback) ++stats.cg_fallbacks;
        if (solve.outcome == CgOutcome::kBreakdown) {
          // Unrecovered solve: fall back to the first-order leader step.
          continue;
        }

        // Step 10's implicit term: xi * d^2 L^q / (dXhat^p dXhat^q).
        const Tensor implicit =
            MixedVectorJacobian(follower_grad, xhats[0], solve.solution);
        if (!AllFinite(implicit)) {
          ++stats.non_finite_events;
          continue;
        }
        stats.implicit_term_norm += Norm(implicit);
        for (int64_t i = 0; i < leader_total.size(); ++i) {
          leader_total.data()[i] -= implicit.data()[i];
        }
      }
    }

    stats.leader_grad_norm = Norm(leader_total);

    // Step 10: leader update with the total derivative. Step 11:
    // follower updates with their partial derivatives. A non-finite
    // step is dropped (the player keeps its last healthy iterate) so
    // one poisoned evaluation cannot destroy the whole optimization.
    if (AllFinite(leader_total)) {
      players[0]->ApplyUpdate(leader_total, config_.leader_step);
    } else {
      ++stats.skipped_updates;
      MSOPDS_LOG(Warning) << "MSO iteration " << iteration
                          << ": leader update non-finite, skipped";
    }
    for (size_t q = 1; q < num_players; ++q) {
      if (AllFinite(follower_updates[q])) {
        players[q]->ApplyUpdate(follower_updates[q], config_.follower_step);
      } else {
        ++stats.skipped_updates;
        MSOPDS_LOG(Warning) << "MSO iteration " << iteration << ": follower "
                            << q << " update non-finite, skipped";
      }
    }
    history.push_back(std::move(stats));
  }
  return history;
}

}  // namespace msopds
