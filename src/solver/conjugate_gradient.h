#ifndef MSOPDS_SOLVER_CONJUGATE_GRADIENT_H_
#define MSOPDS_SOLVER_CONJUGATE_GRADIENT_H_

#include <functional>

#include "tensor/tensor.h"

namespace msopds {

/// A matrix-free linear operator y = A x over rank-1 tensors.
using LinearOperator = std::function<Tensor(const Tensor&)>;

/// Options for the conjugate gradient solve.
struct CgOptions {
  /// Maximum CG iterations (per attempt).
  int max_iterations = 32;
  /// Stop when ||r||_2 <= tolerance * max(1, ||b||_2).
  double relative_tolerance = 1e-6;
  /// Tikhonov damping: solves (A + damping I) x = b. MSO uses a small
  /// damping so the opponent Hessian solve (Algorithm 1 step 9) stays
  /// well-posed even when the Hessian is near-singular.
  double damping = 0.0;

  // --- Breakdown recovery ---
  // On breakdown — a non-finite residual/curvature or p·Ap <= 0, i.e.
  // the operator is not positive definite at this damping — the solve
  // restarts up to twice, each time with the damping escalated tenfold
  // (1e-8 when `damping` is 0).
  /// When every damped restart also breaks down and the system is at
  /// most this large, the (damped) operator is materialized column by
  /// column and handed to the dense Gaussian-elimination solver as a
  /// final fallback. 0 disables the fallback.
  int64_t dense_fallback_size = 256;
};

/// How a solve ended. Anything except kBreakdown yields a usable
/// (finite) solution; kBreakdown means even the recovery ladder failed
/// and the solution is the best finite iterate (possibly zero).
enum class CgOutcome {
  kConverged = 0,
  kMaxIterations = 1,
  kDenseFallback = 2,
  kBreakdown = 3,
};

/// Result of a conjugate gradient solve.
struct CgResult {
  Tensor solution;
  /// Total CG iterations across all attempts.
  int iterations = 0;
  double residual_norm = 0.0;
  bool converged = false;
  CgOutcome outcome = CgOutcome::kMaxIterations;
  /// Breakdown events observed across all attempts.
  int breakdowns = 0;
  /// Damping-escalation restarts performed.
  int damping_retries = 0;
  /// Effective damping of the attempt that produced `solution`.
  double damping_used = 0.0;
};

/// Solves (A + damping I) x = b for symmetric positive (semi-)definite A
/// given only matrix-vector products. This implements Algorithm 1 step 9
/// of the paper: solving xi * (d^2 L^q / dX^q^2) = dL^p / dX^q where the
/// Hessian is only available through Hessian-vector products.
///
/// Resilience: a breakdown (NaN from the operator, or an indefinite
/// curvature p·Ap <= 0) no longer returns garbage silently — the solve
/// escalates damping, then falls back to a dense solve for small
/// systems, and every outcome is reported in CgResult. A non-finite
/// right-hand side is rejected up front as kBreakdown with a zero
/// solution. The FaultInjector's solver hook can simulate an operator
/// breakdown on the first application to exercise this ladder.
CgResult ConjugateGradient(const LinearOperator& apply, const Tensor& b,
                           const CgOptions& options = CgOptions());

}  // namespace msopds

#endif  // MSOPDS_SOLVER_CONJUGATE_GRADIENT_H_
