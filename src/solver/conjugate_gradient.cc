#include "solver/conjugate_gradient.h"

#include <cmath>
#include <limits>
#include <utility>

#include "solver/dense_solver.h"
#include "util/fault.h"
#include "util/health.h"
#include "util/logging.h"

namespace msopds {
namespace {

// The breakdown recovery ladder (CgOptions): restarts after the first
// attempt, the damping factor of each restart, and the damping the first
// restart installs when the caller's damping is 0.
constexpr int kMaxDampingRetries = 2;
constexpr double kDampingEscalation = 10.0;
constexpr double kMinRecoveryDamping = 1e-8;

double DotProduct(const Tensor& a, const Tensor& b) {
  MSOPDS_CHECK_EQ(a.size(), b.size());
  double s = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) s += a.data()[i] * b.data()[i];
  return s;
}

void Axpy(double alpha, const Tensor& x, Tensor* y) {
  for (int64_t i = 0; i < y->size(); ++i)
    y->data()[i] += alpha * x.data()[i];
}

enum class AttemptEnd { kConverged, kMaxIterations, kBreakdown };

struct Attempt {
  AttemptEnd end = AttemptEnd::kMaxIterations;
  Tensor solution;
  int iterations = 0;
  double residual_norm = 0.0;
};

// One plain CG run at a fixed damping. Reports kBreakdown on a
// non-finite residual/curvature or an indefinite curvature p.Ap <= 0;
// the solution is then the last iterate before the breakdown.
Attempt RunAttempt(const LinearOperator& apply, const Tensor& b,
                   double damping, int max_iterations, double threshold) {
  auto apply_damped = [&](const Tensor& x) {
    Tensor y = apply(x);
    MSOPDS_CHECK(y.SameShape(x)) << "linear operator changed shape";
    if (damping != 0.0) Axpy(damping, x, &y);
    return y;
  };

  Attempt attempt;
  attempt.solution = Tensor::Zeros(b.shape());
  Tensor residual = b.Clone();
  Tensor direction = b.Clone();
  double rho = DotProduct(residual, residual);

  if (std::sqrt(rho) <= threshold) {
    attempt.end = AttemptEnd::kConverged;
    attempt.residual_norm = std::sqrt(rho);
    return attempt;
  }

  for (int iteration = 0; iteration < max_iterations; ++iteration) {
    const Tensor ad = apply_damped(direction);
    const double curvature = DotProduct(direction, ad);
    if (!std::isfinite(curvature) || curvature < 0.0) {
      attempt.end = AttemptEnd::kBreakdown;
      break;
    }
    if (!(curvature > 1e-300)) {
      // Numerically zero curvature: return the best iterate so far.
      break;
    }
    const double alpha = rho / curvature;
    Axpy(alpha, direction, &attempt.solution);
    Axpy(-alpha, ad, &residual);
    const double rho_next = DotProduct(residual, residual);
    attempt.iterations = iteration + 1;
    if (!std::isfinite(rho_next)) {
      attempt.end = AttemptEnd::kBreakdown;
      rho = rho_next;
      break;
    }
    if (std::sqrt(rho_next) <= threshold) {
      attempt.end = AttemptEnd::kConverged;
      rho = rho_next;
      break;
    }
    const double beta = rho_next / rho;
    rho = rho_next;
    for (int64_t i = 0; i < direction.size(); ++i) {
      direction.data()[i] = residual.data()[i] + beta * direction.data()[i];
    }
  }
  attempt.residual_norm = std::sqrt(rho);
  return attempt;
}

}  // namespace

CgResult ConjugateGradient(const LinearOperator& apply, const Tensor& b,
                           const CgOptions& options) {
  MSOPDS_CHECK_EQ(b.rank(), 1);
  MSOPDS_CHECK_GT(options.max_iterations, 0);

  CgResult result;
  result.solution = Tensor::Zeros(b.shape());
  result.damping_used = options.damping;
  if (!AllFinite(b)) {
    // Nothing downstream of a non-finite right-hand side is salvageable;
    // surface the breakdown instead of iterating on NaNs.
    result.outcome = CgOutcome::kBreakdown;
    result.breakdowns = 1;
    result.residual_norm = std::numeric_limits<double>::quiet_NaN();
    MSOPDS_LOG(Warning) << "CG: non-finite right-hand side rejected";
    return result;
  }

  // Simulated operator breakdown (resilience drills): the first operator
  // application of this solve returns NaNs; recovery then proceeds
  // against the real operator.
  const bool inject_breakdown = FaultInjector::Global().ShouldBreakSolver();
  bool injected = false;
  LinearOperator effective = apply;
  if (inject_breakdown) {
    effective = [&apply, &injected](const Tensor& x) {
      if (!injected) {
        injected = true;
        Tensor y = Tensor::Zeros(x.shape());
        for (int64_t i = 0; i < y.size(); ++i) {
          y.data()[i] = std::numeric_limits<double>::quiet_NaN();
        }
        return y;
      }
      return apply(x);
    };
  }

  const double b_norm = std::sqrt(DotProduct(b, b));
  const double threshold =
      options.relative_tolerance * std::max(1.0, b_norm);

  double damping = options.damping;
  for (int attempt = 0; attempt <= kMaxDampingRetries; ++attempt) {
    if (attempt > 0) {
      damping = damping == 0.0 ? kMinRecoveryDamping
                               : damping * kDampingEscalation;
      ++result.damping_retries;
    }
    Attempt run = RunAttempt(effective, b, damping,
                             options.max_iterations, threshold);
    result.iterations += run.iterations;
    if (run.end != AttemptEnd::kBreakdown) {
      result.solution = std::move(run.solution);
      result.residual_norm = run.residual_norm;
      result.converged = run.end == AttemptEnd::kConverged;
      result.outcome = result.converged ? CgOutcome::kConverged
                                        : CgOutcome::kMaxIterations;
      result.damping_used = damping;
      if (result.breakdowns > 0) {
        MSOPDS_LOG(Warning)
            << "CG recovered from breakdown with damping " << damping
            << " after " << result.breakdowns << " failed attempt(s)";
      }
      return result;
    }
    ++result.breakdowns;
    if (AllFinite(run.solution)) {
      // Remember the best finite iterate in case every ladder rung fails.
      result.solution = std::move(run.solution);
      result.residual_norm = run.residual_norm;
      result.damping_used = damping;
    }
  }

  // Final fallback: materialize the damped operator and solve densely.
  // Only sensible for small systems (size applications of the operator).
  if (options.dense_fallback_size > 0 &&
      b.size() <= options.dense_fallback_size) {
    Tensor dense = Materialize(effective, b.size());
    if (options.damping != 0.0) {
      for (int64_t i = 0; i < b.size(); ++i) {
        dense.at(i, i) += options.damping;
      }
    }
    if (AllFinite(dense)) {
      auto solved = SolveDense(dense, b);
      if (solved.ok() && AllFinite(solved.value())) {
        result.solution = std::move(solved).value();
        // One extra application to report the true residual.
        Tensor residual = b.Clone();
        Tensor ax = effective(result.solution);
        if (options.damping != 0.0) {
          Axpy(options.damping, result.solution, &ax);
        }
        Axpy(-1.0, ax, &residual);
        result.residual_norm = std::sqrt(DotProduct(residual, residual));
        result.converged = result.residual_norm <= threshold;
        result.outcome = CgOutcome::kDenseFallback;
        result.damping_used = options.damping;
        MSOPDS_LOG(Warning)
            << "CG fell back to the dense solver (n = " << b.size()
            << ", residual " << result.residual_norm << ")";
        return result;
      }
    }
  }

  result.outcome = CgOutcome::kBreakdown;
  result.converged = false;
  MSOPDS_LOG(Warning) << "CG breakdown not recovered after "
                      << result.breakdowns
                      << " attempt(s); returning best finite iterate";
  return result;
}

}  // namespace msopds
