#ifndef MSOPDS_TENSOR_OPS_H_
#define MSOPDS_TENSOR_OPS_H_

#include <vector>

#include "tensor/index.h"
#include "tensor/variable.h"

namespace msopds {

// ---------------------------------------------------------------------------
// Elementwise arithmetic. Operands must have the same shape, or one operand
// may be a scalar (size() == 1), which broadcasts. Every op's backward is
// built from these same ops, so gradients are differentiable to any order.
// ---------------------------------------------------------------------------

Variable Add(const Variable& a, const Variable& b);
Variable Sub(const Variable& a, const Variable& b);
Variable Mul(const Variable& a, const Variable& b);
Variable Div(const Variable& a, const Variable& b);
Variable Neg(const Variable& a);

/// a * c for a compile-time-constant scalar c (no graph node for c).
Variable ScalarMul(const Variable& a, double c);
/// a + c elementwise.
Variable AddScalar(const Variable& a, double c);

Variable Exp(const Variable& a);
Variable Log(const Variable& a);
Variable Sqrt(const Variable& a);
/// Elementwise square (sugar for Mul(a, a)).
Variable Square(const Variable& a);

/// Size-preserving shape change (e.g. [1] <-> scalar, [N*M] <-> [N, M]).
Variable Reshape(const Variable& a, std::vector<int64_t> shape);

/// Elementwise select with a *constant* mask (1 -> a, 0 -> b). The mask is
/// treated as locally constant, which matches the a.e.-derivative of
/// piecewise functions such as SELU.
Variable Where(const Tensor& mask, const Variable& a, const Variable& b);

/// Constant {0,1} mask of x > 0 (by value).
Tensor GreaterZeroMask(const Tensor& x);

// ---------------------------------------------------------------------------
// Linear algebra and shape ops (rank-2 unless stated).
// ---------------------------------------------------------------------------

Variable MatMul(const Variable& a, const Variable& b);
/// A[n,k] · Bᵀ for B[m,k] -> [n,m]; reads B in its original layout
/// (row-dot kernel), so backward passes never materialize a transpose.
Variable MatMulNT(const Variable& a, const Variable& b);
/// Aᵀ · B[k,m] for A[k,n] -> [n,m]; reads A in its original layout.
Variable MatMulTN(const Variable& a, const Variable& b);
Variable Transpose(const Variable& a);

/// Sum of all elements -> scalar.
Variable Sum(const Variable& a);
/// Mean of all elements -> scalar.
Variable Mean(const Variable& a);
/// Row sums of an [N, M] matrix -> [N].
Variable RowSum(const Variable& a);
/// Tiles a vector [N] into an [N, M] matrix (adjoint of RowSum).
Variable TileCols(const Variable& v, int64_t cols);

/// Concatenates two matrices with equal row counts along columns.
Variable ConcatCols(const Variable& a, const Variable& b);
/// Columns [lo, hi) of a matrix.
Variable SliceCols(const Variable& a, int64_t lo, int64_t hi);

/// Concatenates two vectors.
Variable Concat1(const Variable& a, const Variable& b);
/// Elements [lo, hi) of a vector.
Variable Slice1(const Variable& a, int64_t lo, int64_t hi);

// ---------------------------------------------------------------------------
// Gather / scatter / sparse ops (the GNN kernels).
// ---------------------------------------------------------------------------

/// Rows of X ([N, D]) selected by idx -> [K, D]. Indices may repeat.
Variable GatherRows(const Variable& x, const IndexVec& idx);
/// Scatter-add of G ([K, D]) into a zero [rows, D] matrix at row idx[k].
Variable ScatterAddRows(const Variable& g, const IndexVec& idx, int64_t rows);

/// Elements of a vector selected by idx -> [K].
Variable Gather1(const Variable& x, const IndexVec& idx);
/// Scatter-add of g ([K]) into a zero [size] vector at idx[k]. This is also
/// the segment-sum primitive.
Variable ScatterAdd1(const Variable& g, const IndexVec& idx, int64_t size);

/// Weighted sparse aggregation: out[dst[e]] += w[e] * x[src[e]] over edges
/// e, with x of shape [num_src, D] and output [num_dst, D]. This is the
/// graph-convolution kernel of PDS Eq. (15); w carries the binarized
/// importance entries for candidate poison edges and is differentiable.
Variable SpMM(const IndexVec& dst, const IndexVec& src, const Variable& w,
              const Variable& x, int64_t num_dst);

/// Per-edge dot products: out[e] = dot(a[ai[e]], b[bi[e]]) -> [E].
Variable EdgeDot(const Variable& a, const Variable& b, const IndexVec& ai,
                 const IndexVec& bi);

// ---------------------------------------------------------------------------
// Composites (no new primitives; differentiable to any order).
// ---------------------------------------------------------------------------

/// Scaled exponential linear unit (Klambauer et al.), used by the
/// Comprehensive Attack loss (paper Eq. (5)).
Variable Selu(const Variable& x);

/// Logistic sigmoid.
Variable Sigmoid(const Variable& x);

/// Row-wise dot products of two [K, D] matrices -> [K].
Variable PairDot(const Variable& a, const Variable& b);

/// Inner product of two vectors -> scalar.
Variable Dot(const Variable& a, const Variable& b);

/// Softmax over segments: scores [E] grouped by seg[e] in [0, num_segments).
/// Stabilized by the per-segment max (treated as constant).
Variable SegmentSoftmax(const Variable& scores, const IndexVec& seg,
                        int64_t num_segments);

/// Sum of squares -> scalar (for L2 regularization).
Variable SquaredNorm(const Variable& x);

// Operator sugar for elementwise arithmetic.
inline Variable operator+(const Variable& a, const Variable& b) {
  return Add(a, b);
}
inline Variable operator-(const Variable& a, const Variable& b) {
  return Sub(a, b);
}
inline Variable operator*(const Variable& a, const Variable& b) {
  return Mul(a, b);
}
inline Variable operator-(const Variable& a) { return Neg(a); }

}  // namespace msopds

#endif  // MSOPDS_TENSOR_OPS_H_
