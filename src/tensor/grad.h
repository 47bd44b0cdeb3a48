#ifndef MSOPDS_TENSOR_GRAD_H_
#define MSOPDS_TENSOR_GRAD_H_

#include <vector>

#include "tensor/ops.h"
#include "tensor/variable.h"

namespace msopds {

/// Reverse-mode gradients of `output` w.r.t. each of `inputs`.
///
/// `grad_output` seeds the backward pass (defaults to all-ones of the
/// output's shape). The returned gradients are Variables whose own graphs
/// reference `inputs`, so calling Grad on them again yields exact
/// higher-order derivatives (the mechanism behind the Hessian-vector
/// products in MSO). Inputs that the output does not depend on receive a
/// zero gradient of the input's shape.
///
/// The backward walk fires only the nodes on a path from `output` to a
/// requested input, in decreasing Node::seq order, which is one canonical
/// reverse-topological order: the order in which gradient contributions
/// are added up is fixed by the recording alone. A requested node whose
/// own inputs lead to no requested input is where the walk stops, so
/// Grad(loss_t, {theta_t}) in a recorded unroll costs one step, not every
/// step behind it. Each op backward gets a needs-gradient mask over its
/// inputs (Node::BackwardFn) and computes only the gradients the walk
/// needs. Pruning drops no contribution to a needed node, so the results
/// are those of the full walk, bit for bit.
std::vector<Variable> Grad(const Variable& output,
                           const std::vector<Variable>& inputs,
                           const Variable& grad_output = Variable());

/// Detached gradient tensors (first-order only). Runs the value-mode
/// walk directly, pruned and masked like Grad()'s: no gradient graph is
/// recorded, accumulation is in-place where refcounts allow, and
/// tape-walk temporaries go back to the arena eagerly. Bit-identical to
/// calling Grad() and reading each gradient's value.
std::vector<Tensor> GradValues(const Variable& output,
                               const std::vector<Variable>& inputs,
                               const Variable& grad_output = Variable());

/// Hessian-vector product: d/d(input) [ <Grad(output, input), v> ].
/// `grad` must be the (graph-carrying) gradient of a scalar output w.r.t.
/// `input`, as returned by Grad(). Exact (double backward), not a finite
/// difference.
Tensor HessianVectorProduct(const Variable& grad, const Variable& input,
                            const Tensor& v);

/// Mixed second-order vector-Jacobian product:
/// returns xi^T * d(grad)/d(other), i.e. d/d(other) [ <grad, xi> ].
/// Used for the xi * d^2 L^q / (dX^p dX^q) term of paper Eq. (13).
Tensor MixedVectorJacobian(const Variable& grad, const Variable& other,
                           const Tensor& xi);

}  // namespace msopds

#endif  // MSOPDS_TENSOR_GRAD_H_
