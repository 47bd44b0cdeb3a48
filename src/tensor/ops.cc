#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "tensor/simd.h"
#include "tensor/verify.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace msopds {
namespace {

bool IsScalarLike(const Tensor& t) { return t.size() == 1; }

// ---------------------------------------------------------------------------
// Parallel kernel plumbing. Every kernel partitions its work on a fixed
// chunk grid (a function of shapes only, never of the thread count) and
// each chunk writes a disjoint output region, so results are bit-identical
// at any MSOPDS_THREADS setting. See DESIGN.md "Parallel runtime".
// ---------------------------------------------------------------------------

// Elementwise / flat chunk size. Inputs at or below this size form a
// one-chunk grid and run inline on the calling thread.
constexpr int64_t kElementGrain = 4096;

// Row-partitioned kernels chunk rows so one chunk covers roughly
// kElementGrain scalars.
int64_t RowGrain(int64_t cols) {
  return std::max<int64_t>(1, kElementGrain / std::max<int64_t>(1, cols));
}

// Runs fn(begin, end) over the fixed elementwise grid.
template <typename Fn>
void ParallelChunks(int64_t total, int64_t grain, Fn&& fn) {
  ThreadPool::Global().ParallelFor(
      total, grain,
      [&fn](int64_t begin, int64_t end, int64_t) { fn(begin, end); });
}

// Clone-and-transform unary kernel.
template <typename Fn>
Tensor UnaryKernel(const Tensor& input, Fn&& fn) {
  Tensor out = input.Clone();
  double* po = out.data();
  ParallelChunks(out.size(), kElementGrain,
                 [po, &fn](int64_t begin, int64_t end) {
                   for (int64_t i = begin; i < end; ++i) po[i] = fn(po[i]);
                 });
  return out;
}

// Span-at-a-time unary kernel: `fn(in, out, n)` maps a contiguous chunk
// through one of the simd.h primitives. Same chunk grid as UnaryKernel,
// without the Clone's redundant copy of the input values.
template <typename Fn>
Tensor SpanKernel(const Tensor& input, Fn&& fn) {
  Tensor out(input.shape());
  const double* pa = input.data();
  double* po = out.data();
  ParallelChunks(out.size(), kElementGrain,
                 [pa, po, &fn](int64_t begin, int64_t end) {
                   fn(pa + begin, po + begin, end - begin);
                 });
  return out;
}

// Creates a recorded op node. `backward` may be empty when no input
// requires grad (the node then acts as a constant).
Variable MakeOp(const char* name, Tensor value, std::vector<Variable> inputs,
                internal::Node::BackwardFn backward) {
  bool requires_grad = false;
  for (const Variable& v : inputs) {
    MSOPDS_CHECK(v.defined()) << "undefined input to op " << name;
    requires_grad = requires_grad || v.requires_grad();
  }
  auto node = std::make_shared<internal::Node>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  node->op_name = name;
  if (requires_grad) {
    internal::AttachInputs(node.get(), std::move(inputs));
    node->backward = std::move(backward);
  }
  return Variable::FromNode(std::move(node));
}

// Reduces a gradient to match the (possibly scalar-broadcast) input,
// including the exact rank of size-1 tensors ([] vs [1]).
Variable ReduceLike(const Variable& grad, const Variable& input) {
  Variable reduced = grad;
  if (IsScalarLike(input.value()) && grad.value().size() > 1) {
    reduced = Sum(grad);
  }
  if (!reduced.value().SameShape(input.value())) {
    reduced = Reshape(reduced, input.value().shape());
  }
  return reduced;
}

// The input gradients of a two-input op: calls grad_a() and grad_b() in
// input order, each only when the walk needs that input's gradient, and
// leaves the other undefined.
template <typename GradA, typename GradB>
std::vector<Variable> BinaryGrads(const std::vector<bool>& needs,
                                  GradA&& grad_a, GradB&& grad_b) {
  std::vector<Variable> grads(2);
  if (needs[0]) grads[0] = grad_a();
  if (needs[1]) grads[1] = grad_b();
  return grads;
}

enum class BinaryKind { kAdd, kSub, kMul, kDiv };

Tensor EvalBinary(BinaryKind kind, const Tensor& a, const Tensor& b) {
  const bool a_scalar = IsScalarLike(a);
  const bool b_scalar = IsScalarLike(b);
  MSOPDS_CHECK(a.SameShape(b) || a_scalar || b_scalar)
      << "shape mismatch: " << a.DebugString(2) << " vs " << b.DebugString(2);
  // Output takes the non-scalar operand's shape; when both are size-1 the
  // higher-rank shape wins so [1] op [] keeps shape [1].
  const Tensor& shaped = !a_scalar ? a
                         : !b_scalar ? b
                         : (a.rank() >= b.rank() ? a : b);
  Tensor out(shaped.shape());
  const int64_t n = out.size();
  const double* pa = a.data();
  const double* pb = b.data();
  double* po = out.data();
  // Same-shape operands take the vectorized elementwise primitives
  // (bit-exact vs the scalar loop, DESIGN.md §14); the rarer
  // scalar-broadcast forms keep the reference loop below.
  if (!a_scalar && !b_scalar) {
    ParallelChunks(n, kElementGrain, [&](int64_t begin, int64_t end) {
      const int64_t len = end - begin;
      switch (kind) {
        case BinaryKind::kAdd:
          simd::Add(pa + begin, pb + begin, po + begin, len);
          break;
        case BinaryKind::kSub:
          simd::Sub(pa + begin, pb + begin, po + begin, len);
          break;
        case BinaryKind::kMul:
          simd::Mul(pa + begin, pb + begin, po + begin, len);
          break;
        case BinaryKind::kDiv:
          simd::Div(pa + begin, pb + begin, po + begin, len);
          break;
      }
    });
    return out;
  }
  ParallelChunks(n, kElementGrain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const double x = a_scalar ? pa[0] : pa[i];
      const double y = b_scalar ? pb[0] : pb[i];
      switch (kind) {
        case BinaryKind::kAdd:
          po[i] = x + y;
          break;
        case BinaryKind::kSub:
          po[i] = x - y;
          break;
        case BinaryKind::kMul:
          po[i] = x * y;
          break;
        case BinaryKind::kDiv:
          po[i] = x / y;
          break;
      }
    }
  });
  return out;
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  return MakeOp("Add", EvalBinary(BinaryKind::kAdd, a.value(), b.value()),
                {a, b},
                [](const Variable& g, const std::vector<Variable>& in,
                   const std::vector<bool>& needs) {
                  return BinaryGrads(
                      needs, [&] { return ReduceLike(g, in[0]); },
                      [&] { return ReduceLike(g, in[1]); });
                });
}

Variable Sub(const Variable& a, const Variable& b) {
  return MakeOp("Sub", EvalBinary(BinaryKind::kSub, a.value(), b.value()),
                {a, b},
                [](const Variable& g, const std::vector<Variable>& in,
                   const std::vector<bool>& needs) {
                  return BinaryGrads(
                      needs, [&] { return ReduceLike(g, in[0]); },
                      [&] { return ReduceLike(Neg(g), in[1]); });
                });
}

Variable Mul(const Variable& a, const Variable& b) {
  return MakeOp("Mul", EvalBinary(BinaryKind::kMul, a.value(), b.value()),
                {a, b},
                [](const Variable& g, const std::vector<Variable>& in,
                   const std::vector<bool>& needs) {
                  return BinaryGrads(
                      needs, [&] { return ReduceLike(Mul(g, in[1]), in[0]); },
                      [&] { return ReduceLike(Mul(g, in[0]), in[1]); });
                });
}

Variable Div(const Variable& a, const Variable& b) {
  return MakeOp(
      "Div", EvalBinary(BinaryKind::kDiv, a.value(), b.value()), {a, b},
      [](const Variable& g, const std::vector<Variable>& in,
         const std::vector<bool>& needs) {
        return BinaryGrads(
            needs, [&] { return ReduceLike(Div(g, in[1]), in[0]); },
            [&] {
              return ReduceLike(Neg(Mul(g, Div(in[0], Mul(in[1], in[1])))),
                                in[1]);
            });
      });
}

Variable Neg(const Variable& a) {
  Tensor out = SpanKernel(a.value(),
                          [](const double* in, double* po, int64_t n) {
                            simd::Neg(in, po, n);
                          });
  return MakeOp("Neg", std::move(out), {a},
                [](const Variable& g, const std::vector<Variable>&,
                   const std::vector<bool>&) {
                  return std::vector<Variable>{Neg(g)};
                });
}

Variable ScalarMul(const Variable& a, double c) {
  Tensor out = SpanKernel(a.value(),
                          [c](const double* in, double* po, int64_t n) {
                            simd::Scale(in, c, po, n);
                          });
  return MakeOp("ScalarMul", std::move(out), {a},
                [c](const Variable& g, const std::vector<Variable>&,
                    const std::vector<bool>&) {
                  return std::vector<Variable>{ScalarMul(g, c)};
                });
}

Variable AddScalar(const Variable& a, double c) {
  Tensor out = SpanKernel(a.value(),
                          [c](const double* in, double* po, int64_t n) {
                            simd::Offset(in, c, po, n);
                          });
  return MakeOp("AddScalar", std::move(out), {a},
                [](const Variable& g, const std::vector<Variable>&,
                   const std::vector<bool>&) {
                  return std::vector<Variable>{g};
                });
}

Variable Exp(const Variable& a) {
  Tensor out = UnaryKernel(a.value(), [](double x) { return std::exp(x); });
  return MakeOp("Exp", std::move(out), {a},
                [](const Variable& g, const std::vector<Variable>& in,
                   const std::vector<bool>&) {
                  // Recomputed so the gradient graph depends only on inputs.
                  return std::vector<Variable>{Mul(g, Exp(in[0]))};
                });
}

Variable Log(const Variable& a) {
  Tensor out = UnaryKernel(a.value(), [](double x) { return std::log(x); });
  return MakeOp("Log", std::move(out), {a},
                [](const Variable& g, const std::vector<Variable>& in,
                   const std::vector<bool>&) {
                  return std::vector<Variable>{Div(g, in[0])};
                });
}

Variable Sqrt(const Variable& a) {
  // IEEE sqrt is correctly rounded in every backend, so the vector path
  // stays bit-exact; Exp/Log above stay on scalar libm (§14).
  Tensor out = SpanKernel(a.value(),
                          [](const double* in, double* po, int64_t n) {
                            simd::Sqrt(in, po, n);
                          });
  return MakeOp("Sqrt", std::move(out), {a},
                [](const Variable& g, const std::vector<Variable>& in,
                   const std::vector<bool>&) {
                  return std::vector<Variable>{
                      Div(g, ScalarMul(Sqrt(in[0]), 2.0))};
                });
}

Variable Square(const Variable& a) { return Mul(a, a); }

Variable Reshape(const Variable& a, std::vector<int64_t> shape) {
  Tensor out(shape);
  MSOPDS_CHECK_EQ(out.size(), a.value().size()) << "Reshape must keep size";
  const double* pa = a.value().data();
  double* po = out.data();
  ParallelChunks(out.size(), kElementGrain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) po[i] = pa[i];
  });
  const std::vector<int64_t> original = a.value().shape();
  return MakeOp("Reshape", std::move(out), {a},
                [original](const Variable& g, const std::vector<Variable>&,
                           const std::vector<bool>&) {
                  return std::vector<Variable>{Reshape(g, original)};
                });
}

Variable Where(const Tensor& mask, const Variable& a, const Variable& b) {
  MSOPDS_CHECK(mask.SameShape(a.value()));
  MSOPDS_CHECK(mask.SameShape(b.value()));
  Tensor out(a.value().shape());
  const double* pm = mask.data();
  const double* pa = a.value().data();
  const double* pb = b.value().data();
  double* po = out.data();
  ParallelChunks(out.size(), kElementGrain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      po[i] = pm[i] != 0.0 ? pa[i] : pb[i];
    }
  });
  Tensor mask_copy = mask.Clone();
  return MakeOp(
      "Where", std::move(out), {a, b},
      [mask_copy](const Variable& g, const std::vector<Variable>&,
                  const std::vector<bool>& needs) {
        return BinaryGrads(
            needs, [&] { return Mul(g, Constant(mask_copy)); },
            [&] {
              Tensor inv = mask_copy.Clone();
              for (int64_t i = 0; i < inv.size(); ++i)
                inv.data()[i] = inv.data()[i] != 0.0 ? 0.0 : 1.0;
              return Mul(g, Constant(inv));
            });
      });
}

Tensor GreaterZeroMask(const Tensor& x) {
  Tensor mask(x.shape());
  const double* px = x.data();
  double* pm = mask.data();
  ParallelChunks(x.size(), kElementGrain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) pm[i] = px[i] > 0.0 ? 1.0 : 0.0;
  });
  return mask;
}

Variable MatMul(const Variable& a, const Variable& b) {
  const Tensor& ta = a.value();
  const Tensor& tb = b.value();
  MSOPDS_CHECK_EQ(ta.rank(), 2);
  MSOPDS_CHECK_EQ(tb.rank(), 2);
  MSOPDS_CHECK_EQ(ta.dim(1), tb.dim(0));
  const int64_t n = ta.dim(0), k = ta.dim(1), m = tb.dim(1);
  Tensor out({n, m});
  const double* pa = ta.data();
  const double* pb = tb.data();
  double* po = out.data();
  // Cache-tiled over k: a kKBlock-row slab of B stays hot while every row
  // of the chunk consumes it. k-blocks advance in order, so each output
  // element accumulates over kk in strictly increasing order — the exact
  // serial order, at any thread count. Output rows are chunk-disjoint.
  // Contributing k-steps are issued four at a time through simd::Axpy4
  // (same association as sequential Axpy calls, so bit-exact, but the
  // output row is loaded/stored once per four steps instead of per
  // step); stragglers at the block tail flush through plain Axpy.
  constexpr int64_t kKBlock = 32;
  ThreadPool::Global().ParallelFor(
      n, RowGrain(m), [&](int64_t row_begin, int64_t row_end, int64_t) {
        for (int64_t kb = 0; kb < k; kb += kKBlock) {
          const int64_t kb_end = std::min(kb + kKBlock, k);
          for (int64_t i = row_begin; i < row_end; ++i) {
            const double* arow = pa + i * k;
            double* orow = po + i * m;
            double coeff[4];
            const double* rows[4];
            int pending = 0;
            for (int64_t kk = kb; kk < kb_end; ++kk) {
              const double aik = arow[kk];
              if (aik == 0.0) continue;
              coeff[pending] = aik;
              rows[pending] = pb + kk * m;
              if (++pending == 4) {
                simd::Axpy4(coeff, rows[0], rows[1], rows[2], rows[3], orow,
                            m);
                pending = 0;
              }
            }
            for (int p = 0; p < pending; ++p) {
              simd::Axpy(coeff[p], rows[p], orow, m);
            }
          }
        }
      });
  // Transposed-layout kernels read A and B in their original layouts, so
  // the backward no longer materializes Transpose() copies per grad step.
  return MakeOp("MatMul", std::move(out), {a, b},
                [](const Variable& g, const std::vector<Variable>& in,
                   const std::vector<bool>& needs) {
                  return BinaryGrads(
                      needs, [&] { return MatMulNT(g, in[1]); },
                      [&] { return MatMulTN(in[0], g); });
                });
}

Variable MatMulNT(const Variable& a, const Variable& b) {
  const Tensor& ta = a.value();
  const Tensor& tb = b.value();
  MSOPDS_CHECK_EQ(ta.rank(), 2);
  MSOPDS_CHECK_EQ(tb.rank(), 2);
  MSOPDS_CHECK_EQ(ta.dim(1), tb.dim(1));
  const int64_t n = ta.dim(0), k = ta.dim(1), m = tb.dim(0);
  Tensor out({n, m});
  const double* pa = ta.data();
  const double* pb = tb.data();
  double* po = out.data();
  // A·Bᵀ with B in its original row-major layout: out[i][j] is the dot of
  // two contiguous rows. simd::RowDots computes a whole output row, each
  // element on simd::Dot's fixed 4-lane order (deterministic;
  // ULP-different from a serial sum, see §14). Output rows are
  // chunk-disjoint as in MatMul.
  ThreadPool::Global().ParallelFor(
      n, RowGrain(m), [&](int64_t row_begin, int64_t row_end, int64_t) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          simd::RowDots(pa + i * k, pb, k, m, po + i * m);
        }
      });
  return MakeOp("MatMulNT", std::move(out), {a, b},
                [](const Variable& g, const std::vector<Variable>& in,
                   const std::vector<bool>& needs) {
                  return BinaryGrads(
                      needs, [&] { return MatMul(g, in[1]); },
                      [&] { return MatMulTN(g, in[0]); });
                });
}

Variable MatMulTN(const Variable& a, const Variable& b) {
  const Tensor& ta = a.value();
  const Tensor& tb = b.value();
  MSOPDS_CHECK_EQ(ta.rank(), 2);
  MSOPDS_CHECK_EQ(tb.rank(), 2);
  MSOPDS_CHECK_EQ(ta.dim(0), tb.dim(0));
  const int64_t k = ta.dim(0), n = ta.dim(1), m = tb.dim(1);
  Tensor out({n, m});
  const double* pa = ta.data();
  const double* pb = tb.data();
  double* po = out.data();
  // Aᵀ·B with A in its original layout: out row i accumulates
  // A[kk][i] * B[kk][:] over kk in strictly increasing order — the same
  // accumulation order as MatMul on pre-transposed operands, so swapping
  // the backward to this kernel is bit-exact for this factor. k-blocked
  // like MatMul so a slab of B stays hot; rows are chunk-disjoint.
  // Contributing k-steps fuse four at a time via simd::Axpy4 as in
  // MatMul (bit-exact with sequential Axpy; quarter the orow traffic).
  constexpr int64_t kKBlock = 32;
  ThreadPool::Global().ParallelFor(
      n, RowGrain(m), [&](int64_t row_begin, int64_t row_end, int64_t) {
        for (int64_t kb = 0; kb < k; kb += kKBlock) {
          const int64_t kb_end = std::min(kb + kKBlock, k);
          for (int64_t i = row_begin; i < row_end; ++i) {
            double* orow = po + i * m;
            double coeff[4];
            const double* rows[4];
            int pending = 0;
            for (int64_t kk = kb; kk < kb_end; ++kk) {
              const double aik = pa[kk * n + i];
              if (aik == 0.0) continue;
              coeff[pending] = aik;
              rows[pending] = pb + kk * m;
              if (++pending == 4) {
                simd::Axpy4(coeff, rows[0], rows[1], rows[2], rows[3], orow,
                            m);
                pending = 0;
              }
            }
            for (int p = 0; p < pending; ++p) {
              simd::Axpy(coeff[p], rows[p], orow, m);
            }
          }
        }
      });
  return MakeOp("MatMulTN", std::move(out), {a, b},
                [](const Variable& g, const std::vector<Variable>& in,
                   const std::vector<bool>& needs) {
                  return BinaryGrads(
                      needs, [&] { return MatMulNT(in[1], g); },
                      [&] { return MatMul(in[0], g); });
                });
}

Variable Transpose(const Variable& a) {
  const Tensor& t = a.value();
  MSOPDS_CHECK_EQ(t.rank(), 2);
  const int64_t n = t.dim(0), m = t.dim(1);
  Tensor out({m, n});
  const double* pt = t.data();
  double* po = out.data();
  ThreadPool::Global().ParallelFor(
      m, RowGrain(n), [&](int64_t row_begin, int64_t row_end, int64_t) {
        for (int64_t j = row_begin; j < row_end; ++j) {
          double* orow = po + j * n;
          for (int64_t i = 0; i < n; ++i) orow[i] = pt[i * m + j];
        }
      });
  return MakeOp("Transpose", std::move(out), {a},
                [](const Variable& g, const std::vector<Variable>&,
                   const std::vector<bool>&) {
                  return std::vector<Variable>{Transpose(g)};
                });
}

Variable Sum(const Variable& a) {
  return MakeOp("Sum", Tensor::Scalar(a.value().Sum()), {a},
                [](const Variable& g, const std::vector<Variable>& in,
                   const std::vector<bool>&) {
                  return std::vector<Variable>{
                      Mul(Constant(Tensor::Ones(in[0].value().shape())), g)};
                });
}

Variable Mean(const Variable& a) {
  const int64_t n = a.value().size();
  MSOPDS_CHECK_GT(n, 0);
  return ScalarMul(Sum(a), 1.0 / static_cast<double>(n));
}

Variable RowSum(const Variable& a) {
  const Tensor& t = a.value();
  MSOPDS_CHECK_EQ(t.rank(), 2);
  const int64_t n = t.dim(0), m = t.dim(1);
  Tensor out({n});
  const double* pt = t.data();
  double* po = out.data();
  ThreadPool::Global().ParallelFor(
      n, RowGrain(m), [&](int64_t row_begin, int64_t row_end, int64_t) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          // Fixed 4-lane reduction (simd.h): deterministic at any thread
          // count and bit-equal across backends.
          po[i] = simd::Sum(pt + i * m, m);
        }
      });
  return MakeOp("RowSum", std::move(out), {a},
                [m](const Variable& g, const std::vector<Variable>&,
                    const std::vector<bool>&) {
                  return std::vector<Variable>{TileCols(g, m)};
                });
}

Variable TileCols(const Variable& v, int64_t cols) {
  const Tensor& t = v.value();
  MSOPDS_CHECK_EQ(t.rank(), 1);
  MSOPDS_CHECK_GT(cols, 0);
  const int64_t n = t.dim(0);
  Tensor out({n, cols});
  const double* pt = t.data();
  double* po = out.data();
  ThreadPool::Global().ParallelFor(
      n, RowGrain(cols), [&](int64_t row_begin, int64_t row_end, int64_t) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          double* orow = po + i * cols;
          const double value = pt[i];
          for (int64_t j = 0; j < cols; ++j) orow[j] = value;
        }
      });
  return MakeOp("TileCols", std::move(out), {v},
                [](const Variable& g, const std::vector<Variable>&,
                   const std::vector<bool>&) {
                  return std::vector<Variable>{RowSum(g)};
                });
}

namespace {

// Inserts a [N, width] block into a zero [N, total] matrix at column lo.
// Adjoint of SliceCols; internal because users only need the pair.
Variable PadCols(const Variable& a, int64_t lo, int64_t total);

}  // namespace

Variable ConcatCols(const Variable& a, const Variable& b) {
  const Tensor& ta = a.value();
  const Tensor& tb = b.value();
  MSOPDS_CHECK_EQ(ta.rank(), 2);
  MSOPDS_CHECK_EQ(tb.rank(), 2);
  MSOPDS_CHECK_EQ(ta.dim(0), tb.dim(0));
  const int64_t n = ta.dim(0), ca = ta.dim(1), cb = tb.dim(1);
  Tensor out({n, ca + cb});
  const double* pa = ta.data();
  const double* pb = tb.data();
  double* po = out.data();
  ThreadPool::Global().ParallelFor(
      n, RowGrain(ca + cb),
      [&](int64_t row_begin, int64_t row_end, int64_t) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          double* orow = po + i * (ca + cb);
          const double* arow = pa + i * ca;
          const double* brow = pb + i * cb;
          for (int64_t j = 0; j < ca; ++j) orow[j] = arow[j];
          for (int64_t j = 0; j < cb; ++j) orow[ca + j] = brow[j];
        }
      });
  return MakeOp("ConcatCols", std::move(out), {a, b},
                [ca, cb](const Variable& g, const std::vector<Variable>&,
                         const std::vector<bool>& needs) {
                  return BinaryGrads(
                      needs, [&] { return SliceCols(g, 0, ca); },
                      [&] { return SliceCols(g, ca, ca + cb); });
                });
}

Variable SliceCols(const Variable& a, int64_t lo, int64_t hi) {
  const Tensor& t = a.value();
  MSOPDS_CHECK_EQ(t.rank(), 2);
  MSOPDS_CHECK_GE(lo, 0);
  MSOPDS_CHECK_LE(lo, hi);
  MSOPDS_CHECK_LE(hi, t.dim(1));
  const int64_t n = t.dim(0), total = t.dim(1);
  const int64_t w = hi - lo;
  Tensor out({n, w});
  const double* pt = t.data();
  double* po = out.data();
  ThreadPool::Global().ParallelFor(
      n, RowGrain(w), [&](int64_t row_begin, int64_t row_end, int64_t) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          const double* row = pt + i * total + lo;
          double* orow = po + i * w;
          for (int64_t j = 0; j < w; ++j) orow[j] = row[j];
        }
      });
  return MakeOp("SliceCols", std::move(out), {a},
                [lo, total](const Variable& g, const std::vector<Variable>&,
                            const std::vector<bool>&) {
                  return std::vector<Variable>{PadCols(g, lo, total)};
                });
}

namespace {

Variable PadCols(const Variable& a, int64_t lo, int64_t total) {
  const Tensor& t = a.value();
  MSOPDS_CHECK_EQ(t.rank(), 2);
  MSOPDS_CHECK_LE(lo + t.dim(1), total);
  const int64_t n = t.dim(0), w = t.dim(1);
  Tensor out({n, total});
  const double* pt = t.data();
  double* po = out.data();
  ThreadPool::Global().ParallelFor(
      n, RowGrain(total), [&](int64_t row_begin, int64_t row_end, int64_t) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          const double* row = pt + i * w;
          double* orow = po + i * total + lo;
          for (int64_t j = 0; j < w; ++j) orow[j] = row[j];
        }
      });
  return MakeOp("PadCols", std::move(out), {a},
                [lo, w](const Variable& g, const std::vector<Variable>&,
                        const std::vector<bool>&) {
                  return std::vector<Variable>{SliceCols(g, lo, lo + w)};
                });
}

// Inserts a vector block into a zero [total] vector at offset lo.
Variable Pad1(const Variable& a, int64_t lo, int64_t total) {
  const Tensor& t = a.value();
  MSOPDS_CHECK_EQ(t.rank(), 1);
  MSOPDS_CHECK_LE(lo + t.dim(0), total);
  const int64_t w = t.dim(0);
  Tensor out({total});
  const ConstTensorSpan pt = t.span();
  const TensorSpan po = out.mutable_span();
  ParallelChunks(w, kElementGrain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) po[lo + i] = pt[i];
  });
  return MakeOp("Pad1", std::move(out), {a},
                [lo, w](const Variable& g, const std::vector<Variable>&,
                        const std::vector<bool>&) {
                  return std::vector<Variable>{Slice1(g, lo, lo + w)};
                });
}

}  // namespace

Variable Concat1(const Variable& a, const Variable& b) {
  const Tensor& ta = a.value();
  const Tensor& tb = b.value();
  MSOPDS_CHECK_EQ(ta.rank(), 1);
  MSOPDS_CHECK_EQ(tb.rank(), 1);
  const int64_t na = ta.dim(0), nb = tb.dim(0);
  Tensor out({na + nb});
  const ConstTensorSpan pa = ta.span();
  const ConstTensorSpan pb = tb.span();
  const TensorSpan po = out.mutable_span();
  ParallelChunks(na, kElementGrain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) po[i] = pa[i];
  });
  ParallelChunks(nb, kElementGrain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) po[na + i] = pb[i];
  });
  return MakeOp("Concat1", std::move(out), {a, b},
                [na, nb](const Variable& g, const std::vector<Variable>&,
                         const std::vector<bool>& needs) {
                  return BinaryGrads(
                      needs, [&] { return Slice1(g, 0, na); },
                      [&] { return Slice1(g, na, na + nb); });
                });
}

Variable Slice1(const Variable& a, int64_t lo, int64_t hi) {
  const Tensor& t = a.value();
  MSOPDS_CHECK_EQ(t.rank(), 1);
  MSOPDS_CHECK_GE(lo, 0);
  MSOPDS_CHECK_LE(lo, hi);
  MSOPDS_CHECK_LE(hi, t.dim(0));
  const int64_t total = t.dim(0);
  Tensor out({hi - lo});
  const ConstTensorSpan pt = t.span();
  const TensorSpan po = out.mutable_span();
  ParallelChunks(hi - lo, kElementGrain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) po[i] = pt[lo + i];
  });
  return MakeOp("Slice1", std::move(out), {a},
                [lo, total](const Variable& g, const std::vector<Variable>&,
                            const std::vector<bool>&) {
                  return std::vector<Variable>{Pad1(g, lo, total)};
                });
}

Variable GatherRows(const Variable& x, const IndexVec& idx) {
  const Tensor& t = x.value();
  MSOPDS_CHECK_EQ(t.rank(), 2);
  const int64_t n = t.dim(0), d = t.dim(1);
  const Index& rows = *idx;
  const int64_t k = rows.size();
  // Validate in index order (serial abort point), then copy in parallel.
  for (int64_t i = 0; i < k; ++i) {
    MSOPDS_CHECK_GE(rows[i], 0);
    MSOPDS_CHECK_LT(rows[i], n);
  }
  Tensor out({k, d});
  const double* pt = t.data();
  double* po = out.data();
  ThreadPool::Global().ParallelFor(
      k, RowGrain(d), [&](int64_t row_begin, int64_t row_end, int64_t) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          const double* row = pt + rows[i] * d;
          double* orow = po + i * d;
          for (int64_t j = 0; j < d; ++j) orow[j] = row[j];
        }
      });
  return MakeOp("GatherRows", std::move(out), {x},
                [idx, n](const Variable& g, const std::vector<Variable>&,
                         const std::vector<bool>&) {
                  return std::vector<Variable>{ScatterAddRows(g, idx, n)};
                });
}

Variable ScatterAddRows(const Variable& g, const IndexVec& idx, int64_t rows) {
  const Tensor& t = g.value();
  MSOPDS_CHECK_EQ(t.rank(), 2);
  MSOPDS_CHECK_EQ(t.dim(0), idx->size());
  const int64_t d = t.dim(1);
  const Index& dst = *idx;
  Tensor out({rows, d});
  const double* pt = t.data();
  double* po = out.data();
  // Destination-planned scatter: each chunk owns a disjoint row range
  // and applies its entries in index order, so no atomics and per-row
  // accumulation order equals the serial loop's.
  const int64_t grain = RowGrain(d);
  const ScatterPlan& plan = dst.Plan(rows, grain);
  ThreadPool::Global().ParallelFor(
      rows, grain, [&](int64_t, int64_t, int64_t chunk) {
        for (const int64_t i : plan.Chunk(chunk)) {
          simd::AddInPlace(po + dst[i] * d, pt + i * d, d);
        }
      });
  return MakeOp("ScatterAddRows", std::move(out), {g},
                [idx](const Variable& gg, const std::vector<Variable>&,
                      const std::vector<bool>&) {
                  return std::vector<Variable>{GatherRows(gg, idx)};
                });
}

Variable Gather1(const Variable& x, const IndexVec& idx) {
  const Tensor& t = x.value();
  MSOPDS_CHECK_EQ(t.rank(), 1);
  const int64_t n = t.dim(0);
  const Index& src = *idx;
  const int64_t k = src.size();
  for (int64_t i = 0; i < k; ++i) {
    MSOPDS_CHECK_GE(src[i], 0);
    MSOPDS_CHECK_LT(src[i], n);
  }
  Tensor out({k});
  const ConstTensorSpan pt = t.span();
  const TensorSpan po = out.mutable_span();
  ParallelChunks(k, kElementGrain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) po[i] = pt[src[i]];
  });
  return MakeOp("Gather1", std::move(out), {x},
                [idx, n](const Variable& g, const std::vector<Variable>&,
                         const std::vector<bool>&) {
                  return std::vector<Variable>{ScatterAdd1(g, idx, n)};
                });
}

Variable ScatterAdd1(const Variable& g, const IndexVec& idx, int64_t size) {
  const Tensor& t = g.value();
  MSOPDS_CHECK_EQ(t.rank(), 1);
  MSOPDS_CHECK_EQ(t.dim(0), idx->size());
  const Index& dst = *idx;
  Tensor out({size});
  const ConstTensorSpan pt = t.span();
  const TensorSpan po = out.mutable_span();
  const int64_t grain = kElementGrain;
  const ScatterPlan& plan = dst.Plan(size, grain);
  ThreadPool::Global().ParallelFor(
      size, grain, [&](int64_t, int64_t, int64_t chunk) {
        for (const int64_t i : plan.Chunk(chunk)) {
          po[dst[i]] += pt[i];
        }
      });
  return MakeOp("ScatterAdd1", std::move(out), {g},
                [idx](const Variable& gg, const std::vector<Variable>&,
                      const std::vector<bool>&) {
                  return std::vector<Variable>{Gather1(gg, idx)};
                });
}

Variable SpMM(const IndexVec& dst, const IndexVec& src, const Variable& w,
              const Variable& x, int64_t num_dst) {
  const Tensor& tw = w.value();
  const Tensor& tx = x.value();
  MSOPDS_CHECK_EQ(tw.rank(), 1);
  MSOPDS_CHECK_EQ(tx.rank(), 2);
  const int64_t e = tw.dim(0);
  MSOPDS_CHECK_EQ(e, dst->size());
  MSOPDS_CHECK_EQ(e, src->size());
  const int64_t num_src = tx.dim(0), d = tx.dim(1);
  const Index& dsti = *dst;
  const Index& srci = *src;
  for (int64_t k = 0; k < e; ++k) {
    MSOPDS_CHECK_GE(srci[k], 0);
    MSOPDS_CHECK_LT(srci[k], num_src);
  }
  Tensor out({num_dst, d});
  const double* pw = tw.data();
  const double* px = tx.data();
  double* po = out.data();
  // Row-partitioned destination-planned scatter (see ScatterAddRows):
  // each chunk of destination rows applies its edges in edge order.
  // Runs of consecutive edges into the same destination row fuse four
  // at a time through simd::Axpy4 — same association as sequential
  // Axpy calls (bit-exact), but the destination row is loaded/stored
  // once per four edges. Typical edge lists arrive grouped by
  // destination, so runs are long.
  const int64_t grain = RowGrain(d);
  const ScatterPlan& plan = dsti.Plan(num_dst, grain);
  ThreadPool::Global().ParallelFor(
      num_dst, grain, [&](int64_t, int64_t, int64_t chunk) {
        const std::span<const int64_t> bucket = plan.Chunk(chunk);
        const size_t bn = bucket.size();
        size_t t = 0;
        while (t < bn) {
          const int64_t row = dsti[bucket[t]];
          double* orow = po + row * d;
          double coeff[4];
          const double* rows[4];
          int pending = 0;
          while (t < bn && dsti[bucket[t]] == row) {
            const int64_t k = bucket[t];
            ++t;
            const double wk = pw[k];
            if (wk == 0.0) continue;
            coeff[pending] = wk;
            rows[pending] = px + srci[k] * d;
            if (++pending == 4) {
              simd::Axpy4(coeff, rows[0], rows[1], rows[2], rows[3], orow, d);
              pending = 0;
            }
          }
          for (int p = 0; p < pending; ++p) {
            simd::Axpy(coeff[p], rows[p], orow, d);
          }
        }
      });
  return MakeOp(
      "SpMM", std::move(out), {w, x},
      [dst, src, num_src](const Variable& g, const std::vector<Variable>& in,
                          const std::vector<bool>& needs) {
        return BinaryGrads(
            needs, [&] { return EdgeDot(g, in[1], dst, src); },
            [&] { return SpMM(src, dst, in[0], g, num_src); });
      });
}

Variable EdgeDot(const Variable& a, const Variable& b, const IndexVec& ai,
                 const IndexVec& bi) {
  const Tensor& ta = a.value();
  const Tensor& tb = b.value();
  MSOPDS_CHECK_EQ(ta.rank(), 2);
  MSOPDS_CHECK_EQ(tb.rank(), 2);
  MSOPDS_CHECK_EQ(ta.dim(1), tb.dim(1));
  MSOPDS_CHECK_EQ(ai->size(), bi->size());
  const int64_t e = ai->size();
  const int64_t na = ta.dim(0), nb = tb.dim(0), d = ta.dim(1);
  const Index& aii = *ai;
  const Index& bii = *bi;
  for (int64_t k = 0; k < e; ++k) {
    MSOPDS_CHECK_GE(aii[k], 0);
    MSOPDS_CHECK_LT(aii[k], na);
    MSOPDS_CHECK_GE(bii[k], 0);
    MSOPDS_CHECK_LT(bii[k], nb);
  }
  Tensor out({e});
  const double* pa = ta.data();
  const double* pb = tb.data();
  double* po = out.data();
  // Edge-partitioned: each edge owns its output element. The per-edge
  // dot uses simd::Dot's fixed 4-lane order — a pure function of the
  // edge, so still bit-identical at any thread count.
  ThreadPool::Global().ParallelFor(
      e, RowGrain(d), [&](int64_t edge_begin, int64_t edge_end, int64_t) {
        for (int64_t k = edge_begin; k < edge_end; ++k) {
          po[k] = simd::Dot(pa + aii[k] * d, pb + bii[k] * d, d);
        }
      });
  return MakeOp(
      "EdgeDot", std::move(out), {a, b},
      [ai, bi, na, nb](const Variable& g, const std::vector<Variable>& in,
                       const std::vector<bool>& needs) {
        return BinaryGrads(
            needs, [&] { return SpMM(ai, bi, g, in[1], na); },
            [&] { return SpMM(bi, ai, g, in[0], nb); });
      });
}

Variable Selu(const Variable& x) {
  // Constants from Klambauer et al. (2017).
  constexpr double kScale = 1.0507009873554805;
  constexpr double kAlpha = 1.6732632423543772;
  const Tensor mask = GreaterZeroMask(x.value());
  Variable negative = ScalarMul(AddScalar(Exp(x), -1.0), kAlpha);
  return ScalarMul(Where(mask, x, negative), kScale);
}

Variable Sigmoid(const Variable& x) {
  Variable one = Constant(Tensor::Ones(x.value().shape()));
  return Div(one, AddScalar(Exp(Neg(x)), 1.0));
}

Variable PairDot(const Variable& a, const Variable& b) {
  return RowSum(Mul(a, b));
}

Variable Dot(const Variable& a, const Variable& b) { return Sum(Mul(a, b)); }

Variable SegmentSoftmax(const Variable& scores, const IndexVec& seg,
                        int64_t num_segments) {
  const Tensor& t = scores.value();
  MSOPDS_CHECK_EQ(t.rank(), 1);
  const int64_t e = t.dim(0);
  MSOPDS_CHECK_EQ(e, seg->size());
  const Index& segi = *seg;
  const ConstTensorSpan pt = t.span();
  // Per-segment max as a constant shift for numerical stability.
  // Segment-partitioned like the scatter kernels: each chunk of segments
  // folds its planned edges. max is exact, so any order would do; the
  // plan is the one the ScatterAdd1 below reads.
  std::vector<double> seg_max(static_cast<size_t>(num_segments), -1e300);
  const int64_t grain = kElementGrain;
  const ScatterPlan& plan = segi.Plan(num_segments, grain);
  ThreadPool::Global().ParallelFor(
      num_segments, grain, [&](int64_t, int64_t, int64_t chunk) {
        for (const int64_t k : plan.Chunk(chunk)) {
          double& best = seg_max[static_cast<size_t>(segi[k])];
          best = std::max(best, pt[k]);
        }
      });
  Tensor shift({e});
  const TensorSpan ps = shift.mutable_span();
  ParallelChunks(e, kElementGrain, [&](int64_t begin, int64_t end) {
    for (int64_t k = begin; k < end; ++k) {
      ps[k] = seg_max[static_cast<size_t>(segi[k])];
    }
  });
  Variable exps = Exp(Sub(scores, Constant(shift)));
  Variable denom = ScatterAdd1(exps, seg, num_segments);
  return Div(exps, Gather1(denom, seg));
}

Variable SquaredNorm(const Variable& x) { return Sum(Mul(x, x)); }

// ---------------------------------------------------------------------------
// Shape-inference registry. One OpSpec per primitive recorded above; the
// GraphVerifier replays these checks over recorded graphs, and the
// gradcheck examples let registry_gradcheck_test sweep every op with
// first- and second-order finite-difference checks.
// ---------------------------------------------------------------------------

namespace {

std::string ShapeOf(const Tensor& t) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < t.shape().size(); ++i) {
    if (i > 0) out << ",";
    out << t.shape()[i];
  }
  out << "]";
  return out.str();
}

Status ShapeError(const char* what, const std::vector<const Tensor*>& inputs,
                  const Tensor& output) {
  std::ostringstream msg;
  msg << what << "; inputs";
  for (const Tensor* in : inputs) msg << " " << ShapeOf(*in);
  msg << " -> output " << ShapeOf(output);
  return Status::InvalidArgument(msg.str());
}

Status ExpectRank(const Tensor& t, int64_t rank, const char* what) {
  if (t.rank() != rank) {
    std::ostringstream msg;
    msg << what << " must have rank " << rank << ", got " << ShapeOf(t);
    return Status::InvalidArgument(msg.str());
  }
  return Status::Ok();
}

// Output shape of the scalar-broadcast elementwise rule (EvalBinary).
Status InferBinary(const std::vector<const Tensor*>& inputs,
                   const Tensor& output) {
  const Tensor& a = *inputs[0];
  const Tensor& b = *inputs[1];
  const bool a_scalar = IsScalarLike(a);
  const bool b_scalar = IsScalarLike(b);
  if (!(a.SameShape(b) || a_scalar || b_scalar)) {
    return ShapeError("operands neither same-shape nor scalar", inputs,
                      output);
  }
  const Tensor& shaped = !a_scalar ? a
                         : !b_scalar ? b
                         : (a.rank() >= b.rank() ? a : b);
  if (!output.SameShape(shaped)) {
    return ShapeError("output shape must match the non-scalar operand",
                      inputs, output);
  }
  return Status::Ok();
}

Status InferUnarySameShape(const std::vector<const Tensor*>& inputs,
                           const Tensor& output) {
  if (!output.SameShape(*inputs[0])) {
    return ShapeError("elementwise output must match input shape", inputs,
                      output);
  }
  return Status::Ok();
}

// Deterministic example operands (values chosen away from the kinks and
// poles of Log/Sqrt/Div).
Tensor ExA23() {
  return Tensor::FromMatrix(2, 3, {0.5, -1.2, 0.3, 1.1, 0.7, -0.4});
}
Tensor ExB23() {
  return Tensor::FromMatrix(2, 3, {0.9, 0.4, -0.8, 0.2, -1.5, 0.6});
}
Tensor ExPos23() {
  return Tensor::FromMatrix(2, 3, {0.7, 1.3, 0.5, 2.1, 0.9, 1.6});
}
Tensor ExV4() { return Tensor::FromVector({0.8, -0.3, 1.2, 0.4}); }
Tensor ExW4() { return Tensor::FromVector({-0.6, 1.1, 0.2, 0.9}); }
Tensor ExM32() {
  return Tensor::FromMatrix(3, 2, {0.3, -0.9, 1.4, 0.2, -0.5, 0.8});
}

// Scalar reduction with a nonzero Hessian so HVP checks are nontrivial.
Variable SumSq(const Variable& x) { return Sum(Mul(x, x)); }

GradcheckCase Case1(const char* description,
                    std::function<Variable(const Variable&)> build,
                    Tensor point) {
  GradcheckCase c;
  c.description = description;
  c.points = {std::move(point)};
  c.fn = [build = std::move(build)](const std::vector<Variable>& p) {
    return build(p[0]);
  };
  return c;
}

GradcheckCase Case2(const char* description,
                    std::function<Variable(const Variable&, const Variable&)>
                        build,
                    Tensor point0, Tensor point1, size_t hvp_arg = 0) {
  GradcheckCase c;
  c.description = description;
  c.points = {std::move(point0), std::move(point1)};
  c.hvp_arg = hvp_arg;
  c.fn = [build = std::move(build)](const std::vector<Variable>& p) {
    return build(p[0], p[1]);
  };
  return c;
}

// ---------------------------------------------------------------------------
// Static write plans. Each builder mirrors its kernel's ParallelFor /
// ParallelChunks grid above, sharing the same grain constants
// (kElementGrain / RowGrain / kReduceGrain), so plan and kernel cannot
// drift apart on grid shape. VerifyWritePlan then proves the per-chunk
// destination ranges disjoint — the invariant that makes the kernels
// bit-identical at every MSOPDS_THREADS setting.
// ---------------------------------------------------------------------------

int64_t ShapeElems(const std::vector<int64_t>& shape) {
  int64_t elems = 1;
  for (const int64_t dim : shape) elems *= dim;
  return elems;
}

// Grid over `units` units writing `width` contiguous output elements
// each: chunk c writes [c*grain*width, min((c+1)*grain, units)*width).
// Covers elementwise kernels (width 1) and full-row kernels (width =
// row length). `covers` is false for kernels whose destination is
// zero-filled first and only partially written (scatters, windows).
WritePlan UnitGridPlan(int64_t units, int64_t grain, int64_t width,
                       int64_t output_elems, bool covers = true) {
  WritePlan plan;
  plan.units = units;
  plan.grain = grain;
  plan.num_chunks = NumChunks(units, grain);
  plan.output_elems = output_elems;
  plan.covers_output = covers;
  plan.writes.reserve(static_cast<size_t>(plan.num_chunks));
  for (int64_t c = 0; c < plan.num_chunks; ++c) {
    const int64_t begin = c * grain;
    const int64_t end = std::min(begin + grain, units);
    plan.writes.push_back({c, begin * width, end * width});
  }
  return plan;
}

// Flat elementwise grid over the whole output.
WritePlan FlatPlan(const std::vector<int64_t>& out_shape) {
  const int64_t elems = ShapeElems(out_shape);
  return UnitGridPlan(elems, kElementGrain, 1, elems);
}

// Row-partitioned grid writing full rows of a [rows, cols] output.
WritePlan RowPlan(const std::vector<int64_t>& out_shape, bool covers = true) {
  const int64_t rows = out_shape[0];
  const int64_t cols = out_shape[1];
  return UnitGridPlan(rows, RowGrain(cols), cols, rows * cols, covers);
}

// Row-partitioned grid where each row write is a `width`-wide window of
// a `stride`-wide row (PadCols). Chunk ranges are the bounding
// intervals of their rows; disjoint across chunks because width never
// exceeds the stride. The window offset (pad lo) is data held in the
// kernel closure, but it shifts every chunk equally and is irrelevant
// to overlap, so the plan takes it as 0.
WritePlan RowWindowPlan(int64_t rows, int64_t width, int64_t stride) {
  const int64_t grain = RowGrain(stride);
  WritePlan plan;
  plan.units = rows;
  plan.grain = grain;
  plan.num_chunks = NumChunks(rows, grain);
  plan.output_elems = rows * stride;
  plan.covers_output = false;
  plan.writes.reserve(static_cast<size_t>(plan.num_chunks));
  for (int64_t c = 0; c < plan.num_chunks; ++c) {
    const int64_t begin = c * grain;
    const int64_t end = std::min(begin + grain, rows);
    plan.writes.push_back(
        {c, begin * stride, (end - 1) * stride + std::min(width, stride)});
  }
  return plan;
}

// Concat1 launches one elementwise grid per operand, back to back; the
// plan renumbers the second grid's chunks after the first and offsets
// its ranges by the first operand's length.
WritePlan Concat1Plan(int64_t na, int64_t nb) {
  WritePlan plan;
  plan.units = na + nb;
  plan.grain = kElementGrain;
  plan.grids = 2;
  plan.output_elems = na + nb;
  const int64_t chunks_a = NumChunks(na, kElementGrain);
  const int64_t chunks_b = NumChunks(nb, kElementGrain);
  plan.num_chunks = chunks_a + chunks_b;
  for (int64_t c = 0; c < chunks_a; ++c) {
    const int64_t begin = c * kElementGrain;
    plan.writes.push_back({c, begin, std::min(begin + kElementGrain, na)});
  }
  for (int64_t c = 0; c < chunks_b; ++c) {
    const int64_t begin = c * kElementGrain;
    plan.writes.push_back({chunks_a + c, na + begin,
                           na + std::min(begin + kElementGrain, nb)});
  }
  return plan;
}

// Sum reduces via ParallelReduceSum: each chunk writes its own partial
// slot, then a fixed pairwise tree folds the slots in ascending lane
// order on the calling thread.
WritePlan ReducePlan(int64_t input_elems) {
  WritePlan plan;
  plan.units = input_elems;
  plan.grain = kReduceGrain;
  plan.num_chunks = NumChunks(input_elems, kReduceGrain);
  plan.output_elems = plan.num_chunks;
  plan.reduction = true;
  for (int64_t c = 0; c < plan.num_chunks; ++c) {
    plan.writes.push_back({c, c, c + 1});
    plan.reduction_lanes.push_back(c);
  }
  return plan;
}

std::vector<OpSpec> BuildOpRegistry() {
  std::vector<OpSpec> registry;
  auto add = [&registry](const char* name, int arity,
                         std::function<Status(
                             const std::vector<const Tensor*>&, const Tensor&)>
                             infer,
                         std::function<GradcheckCase()> example) {
    OpSpec spec;
    spec.name = name;
    spec.arity = arity;
    spec.infer = std::move(infer);
    spec.example = std::move(example);
    registry.push_back(std::move(spec));
  };

  add("Add", 2, InferBinary, [] {
    return Case2("SumSq(Add(a, b))",
                 [](const Variable& a, const Variable& b) {
                   return SumSq(Add(a, b));
                 },
                 ExA23(), ExB23());
  });
  add("Sub", 2, InferBinary, [] {
    return Case2("SumSq(Sub(a, b))",
                 [](const Variable& a, const Variable& b) {
                   return SumSq(Sub(a, b));
                 },
                 ExA23(), ExB23(), /*hvp_arg=*/1);
  });
  add("Mul", 2, InferBinary, [] {
    return Case2("Sum(Mul(Mul(a, b), a))",
                 [](const Variable& a, const Variable& b) {
                   return Sum(Mul(Mul(a, b), a));
                 },
                 ExA23(), ExB23());
  });
  add("Div", 2, InferBinary, [] {
    return Case2("SumSq(Div(a, b))",
                 [](const Variable& a, const Variable& b) {
                   return SumSq(Div(a, b));
                 },
                 ExA23(), ExPos23(), /*hvp_arg=*/1);
  });
  add("Neg", 1, InferUnarySameShape, [] {
    return Case1("Sum(Mul(Neg(a), Exp(a)))",
                 [](const Variable& a) { return Sum(Mul(Neg(a), Exp(a))); },
                 ExA23());
  });
  add("ScalarMul", 1, InferUnarySameShape, [] {
    return Case1("SumSq(ScalarMul(a, 1.7))",
                 [](const Variable& a) { return SumSq(ScalarMul(a, 1.7)); },
                 ExA23());
  });
  add("AddScalar", 1, InferUnarySameShape, [] {
    return Case1("SumSq(AddScalar(a, 0.9))",
                 [](const Variable& a) { return SumSq(AddScalar(a, 0.9)); },
                 ExA23());
  });
  add("Exp", 1, InferUnarySameShape, [] {
    return Case1("Sum(Exp(a))",
                 [](const Variable& a) { return Sum(Exp(a)); }, ExA23());
  });
  add("Log", 1, InferUnarySameShape, [] {
    return Case1("Sum(Log(a))",
                 [](const Variable& a) { return Sum(Log(a)); }, ExPos23());
  });
  add("Sqrt", 1, InferUnarySameShape, [] {
    return Case1("Sum(Sqrt(a))",
                 [](const Variable& a) { return Sum(Sqrt(a)); }, ExPos23());
  });
  add("Reshape", 1,
      [](const std::vector<const Tensor*>& inputs, const Tensor& output) {
        if (output.size() != inputs[0]->size()) {
          return ShapeError("Reshape must preserve element count", inputs,
                            output);
        }
        return Status::Ok();
      },
      [] {
        return Case1("SumSq(Reshape(a, {3,2}))",
                     [](const Variable& a) {
                       return SumSq(Reshape(a, {3, 2}));
                     },
                     ExA23());
      });
  add("Where", 2,
      [](const std::vector<const Tensor*>& inputs, const Tensor& output) {
        if (!inputs[0]->SameShape(*inputs[1]) ||
            !output.SameShape(*inputs[0])) {
          return ShapeError("Where branches and output must share one shape",
                            inputs, output);
        }
        return Status::Ok();
      },
      [] {
        return Case2("SumSq(Where(mask, a, b))",
                     [](const Variable& a, const Variable& b) {
                       const Tensor mask = Tensor::FromMatrix(
                           2, 3, {1.0, 0.0, 1.0, 0.0, 1.0, 0.0});
                       return SumSq(Where(mask, a, b));
                     },
                     ExA23(), ExB23(), /*hvp_arg=*/1);
      });
  add("MatMul", 2,
      [](const std::vector<const Tensor*>& inputs, const Tensor& output) {
        const Tensor& a = *inputs[0];
        const Tensor& b = *inputs[1];
        MSOPDS_RETURN_IF_ERROR(ExpectRank(a, 2, "MatMul lhs"));
        MSOPDS_RETURN_IF_ERROR(ExpectRank(b, 2, "MatMul rhs"));
        if (a.dim(1) != b.dim(0) || output.rank() != 2 ||
            output.dim(0) != a.dim(0) || output.dim(1) != b.dim(1)) {
          return ShapeError("MatMul shapes must chain [n,k]x[k,m]->[n,m]",
                            inputs, output);
        }
        return Status::Ok();
      },
      [] {
        return Case2("SumSq(MatMul(a, b))",
                     [](const Variable& a, const Variable& b) {
                       return SumSq(MatMul(a, b));
                     },
                     ExA23(), ExM32());
      });
  add("MatMulNT", 2,
      [](const std::vector<const Tensor*>& inputs, const Tensor& output) {
        const Tensor& a = *inputs[0];
        const Tensor& b = *inputs[1];
        MSOPDS_RETURN_IF_ERROR(ExpectRank(a, 2, "MatMulNT lhs"));
        MSOPDS_RETURN_IF_ERROR(ExpectRank(b, 2, "MatMulNT rhs"));
        if (a.dim(1) != b.dim(1) || output.rank() != 2 ||
            output.dim(0) != a.dim(0) || output.dim(1) != b.dim(0)) {
          return ShapeError("MatMulNT shapes must chain [n,k]x[m,k]->[n,m]",
                            inputs, output);
        }
        return Status::Ok();
      },
      [] {
        return Case2("SumSq(MatMulNT(a, b))",
                     [](const Variable& a, const Variable& b) {
                       return SumSq(MatMulNT(a, b));
                     },
                     ExA23(), ExB23());
      });
  add("MatMulTN", 2,
      [](const std::vector<const Tensor*>& inputs, const Tensor& output) {
        const Tensor& a = *inputs[0];
        const Tensor& b = *inputs[1];
        MSOPDS_RETURN_IF_ERROR(ExpectRank(a, 2, "MatMulTN lhs"));
        MSOPDS_RETURN_IF_ERROR(ExpectRank(b, 2, "MatMulTN rhs"));
        if (a.dim(0) != b.dim(0) || output.rank() != 2 ||
            output.dim(0) != a.dim(1) || output.dim(1) != b.dim(1)) {
          return ShapeError("MatMulTN shapes must chain [k,n]x[k,m]->[n,m]",
                            inputs, output);
        }
        return Status::Ok();
      },
      [] {
        return Case2("SumSq(MatMulTN(a, b))",
                     [](const Variable& a, const Variable& b) {
                       return SumSq(MatMulTN(a, b));
                     },
                     ExA23(), ExB23(), /*hvp_arg=*/1);
      });
  add("Transpose", 1,
      [](const std::vector<const Tensor*>& inputs, const Tensor& output) {
        const Tensor& a = *inputs[0];
        MSOPDS_RETURN_IF_ERROR(ExpectRank(a, 2, "Transpose input"));
        if (output.rank() != 2 || output.dim(0) != a.dim(1) ||
            output.dim(1) != a.dim(0)) {
          return ShapeError("Transpose must swap dims", inputs, output);
        }
        return Status::Ok();
      },
      [] {
        return Case1("SumSq(Transpose(a))",
                     [](const Variable& a) { return SumSq(Transpose(a)); },
                     ExA23());
      });
  add("Sum", 1,
      [](const std::vector<const Tensor*>& inputs, const Tensor& output) {
        if (output.size() != 1 || output.rank() != 0) {
          return ShapeError("Sum output must be a scalar", inputs, output);
        }
        return Status::Ok();
      },
      [] {
        return Case1("Square(Sum(Mul(a, a)))",
                     [](const Variable& a) { return Square(Sum(Mul(a, a))); },
                     ExA23());
      });
  add("RowSum", 1,
      [](const std::vector<const Tensor*>& inputs, const Tensor& output) {
        const Tensor& a = *inputs[0];
        MSOPDS_RETURN_IF_ERROR(ExpectRank(a, 2, "RowSum input"));
        if (output.rank() != 1 || output.dim(0) != a.dim(0)) {
          return ShapeError("RowSum output must be [rows]", inputs, output);
        }
        return Status::Ok();
      },
      [] {
        return Case1("SumSq(RowSum(a))",
                     [](const Variable& a) { return SumSq(RowSum(a)); },
                     ExA23());
      });
  add("TileCols", 1,
      [](const std::vector<const Tensor*>& inputs, const Tensor& output) {
        const Tensor& a = *inputs[0];
        MSOPDS_RETURN_IF_ERROR(ExpectRank(a, 1, "TileCols input"));
        if (output.rank() != 2 || output.dim(0) != a.dim(0)) {
          return ShapeError("TileCols output must be [n, cols]", inputs,
                            output);
        }
        return Status::Ok();
      },
      [] {
        return Case1("SumSq(TileCols(a, 3))",
                     [](const Variable& a) { return SumSq(TileCols(a, 3)); },
                     ExV4());
      });
  add("ConcatCols", 2,
      [](const std::vector<const Tensor*>& inputs, const Tensor& output) {
        const Tensor& a = *inputs[0];
        const Tensor& b = *inputs[1];
        MSOPDS_RETURN_IF_ERROR(ExpectRank(a, 2, "ConcatCols lhs"));
        MSOPDS_RETURN_IF_ERROR(ExpectRank(b, 2, "ConcatCols rhs"));
        if (a.dim(0) != b.dim(0) || output.rank() != 2 ||
            output.dim(0) != a.dim(0) ||
            output.dim(1) != a.dim(1) + b.dim(1)) {
          return ShapeError("ConcatCols must stack columns of equal-row "
                            "matrices",
                            inputs, output);
        }
        return Status::Ok();
      },
      [] {
        return Case2("SumSq(ConcatCols(a, b))",
                     [](const Variable& a, const Variable& b) {
                       return SumSq(ConcatCols(a, b));
                     },
                     ExA23(), ExB23());
      });
  add("SliceCols", 1,
      [](const std::vector<const Tensor*>& inputs, const Tensor& output) {
        const Tensor& a = *inputs[0];
        MSOPDS_RETURN_IF_ERROR(ExpectRank(a, 2, "SliceCols input"));
        if (output.rank() != 2 || output.dim(0) != a.dim(0) ||
            output.dim(1) > a.dim(1)) {
          return ShapeError("SliceCols output must keep rows and narrow "
                            "columns",
                            inputs, output);
        }
        return Status::Ok();
      },
      [] {
        return Case1("SumSq(SliceCols(a, 1, 3))",
                     [](const Variable& a) {
                       return SumSq(SliceCols(a, 1, 3));
                     },
                     ExA23());
      });
  add("PadCols", 1,
      [](const std::vector<const Tensor*>& inputs, const Tensor& output) {
        const Tensor& a = *inputs[0];
        MSOPDS_RETURN_IF_ERROR(ExpectRank(a, 2, "PadCols input"));
        if (output.rank() != 2 || output.dim(0) != a.dim(0) ||
            output.dim(1) < a.dim(1)) {
          return ShapeError("PadCols output must keep rows and widen columns",
                            inputs, output);
        }
        return Status::Ok();
      },
      // Only reachable as the backward of SliceCols; exercised by that op's
      // second-order check.
      nullptr);
  add("Concat1", 2,
      [](const std::vector<const Tensor*>& inputs, const Tensor& output) {
        const Tensor& a = *inputs[0];
        const Tensor& b = *inputs[1];
        MSOPDS_RETURN_IF_ERROR(ExpectRank(a, 1, "Concat1 lhs"));
        MSOPDS_RETURN_IF_ERROR(ExpectRank(b, 1, "Concat1 rhs"));
        if (output.rank() != 1 || output.dim(0) != a.dim(0) + b.dim(0)) {
          return ShapeError("Concat1 output must be [na+nb]", inputs, output);
        }
        return Status::Ok();
      },
      [] {
        return Case2("SumSq(Concat1(a, b))",
                     [](const Variable& a, const Variable& b) {
                       return SumSq(Concat1(a, b));
                     },
                     ExV4(), ExW4(), /*hvp_arg=*/1);
      });
  add("Slice1", 1,
      [](const std::vector<const Tensor*>& inputs, const Tensor& output) {
        const Tensor& a = *inputs[0];
        MSOPDS_RETURN_IF_ERROR(ExpectRank(a, 1, "Slice1 input"));
        if (output.rank() != 1 || output.dim(0) > a.dim(0)) {
          return ShapeError("Slice1 output must be a narrower vector", inputs,
                            output);
        }
        return Status::Ok();
      },
      [] {
        return Case1("SumSq(Slice1(a, 1, 4))",
                     [](const Variable& a) { return SumSq(Slice1(a, 1, 4)); },
                     ExV4());
      });
  add("Pad1", 1,
      [](const std::vector<const Tensor*>& inputs, const Tensor& output) {
        const Tensor& a = *inputs[0];
        MSOPDS_RETURN_IF_ERROR(ExpectRank(a, 1, "Pad1 input"));
        if (output.rank() != 1 || output.dim(0) < a.dim(0)) {
          return ShapeError("Pad1 output must be a wider vector", inputs,
                            output);
        }
        return Status::Ok();
      },
      // Only reachable as the backward of Slice1.
      nullptr);
  add("GatherRows", 1,
      [](const std::vector<const Tensor*>& inputs, const Tensor& output) {
        const Tensor& a = *inputs[0];
        MSOPDS_RETURN_IF_ERROR(ExpectRank(a, 2, "GatherRows input"));
        if (output.rank() != 2 || output.dim(1) != a.dim(1)) {
          return ShapeError("GatherRows output must keep the column count",
                            inputs, output);
        }
        return Status::Ok();
      },
      [] {
        return Case1("SumSq(GatherRows(a, {0,2,1,2}))",
                     [](const Variable& a) {
                       return SumSq(GatherRows(a, MakeIndex({0, 2, 1, 2})));
                     },
                     ExM32());
      });
  add("ScatterAddRows", 1,
      [](const std::vector<const Tensor*>& inputs, const Tensor& output) {
        const Tensor& a = *inputs[0];
        MSOPDS_RETURN_IF_ERROR(ExpectRank(a, 2, "ScatterAddRows input"));
        if (output.rank() != 2 || output.dim(1) != a.dim(1)) {
          return ShapeError("ScatterAddRows output must keep the column "
                            "count",
                            inputs, output);
        }
        return Status::Ok();
      },
      [] {
        return Case1("SumSq(ScatterAddRows(a, {2,0,2}, 4))",
                     [](const Variable& a) {
                       return SumSq(
                           ScatterAddRows(a, MakeIndex({2, 0, 2}), 4));
                     },
                     ExM32());
      });
  add("Gather1", 1,
      [](const std::vector<const Tensor*>& inputs, const Tensor& output) {
        MSOPDS_RETURN_IF_ERROR(ExpectRank(*inputs[0], 1, "Gather1 input"));
        return ExpectRank(output, 1, "Gather1 output");
      },
      [] {
        return Case1("SumSq(Gather1(a, {3,0,0,2}))",
                     [](const Variable& a) {
                       return SumSq(Gather1(a, MakeIndex({3, 0, 0, 2})));
                     },
                     ExV4());
      });
  add("ScatterAdd1", 1,
      [](const std::vector<const Tensor*>& inputs, const Tensor& output) {
        MSOPDS_RETURN_IF_ERROR(
            ExpectRank(*inputs[0], 1, "ScatterAdd1 input"));
        return ExpectRank(output, 1, "ScatterAdd1 output");
      },
      [] {
        return Case1("SumSq(ScatterAdd1(a, {1,1,4,0}, 5))",
                     [](const Variable& a) {
                       return SumSq(
                           ScatterAdd1(a, MakeIndex({1, 1, 4, 0}), 5));
                     },
                     ExV4());
      });
  add("SpMM", 2,
      [](const std::vector<const Tensor*>& inputs, const Tensor& output) {
        const Tensor& w = *inputs[0];
        const Tensor& x = *inputs[1];
        MSOPDS_RETURN_IF_ERROR(ExpectRank(w, 1, "SpMM weights"));
        MSOPDS_RETURN_IF_ERROR(ExpectRank(x, 2, "SpMM features"));
        if (output.rank() != 2 || output.dim(1) != x.dim(1)) {
          return ShapeError("SpMM output must keep the feature width", inputs,
                            output);
        }
        return Status::Ok();
      },
      [] {
        return Case2("SumSq(SpMM(dst, src, w, x, 2))",
                     [](const Variable& w, const Variable& x) {
                       return SumSq(SpMM(MakeIndex({0, 1, 1, 0}),
                                         MakeIndex({0, 1, 2, 2}), w, x, 2));
                     },
                     ExV4(), ExM32());
  });
  add("EdgeDot", 2,
      [](const std::vector<const Tensor*>& inputs, const Tensor& output) {
        const Tensor& a = *inputs[0];
        const Tensor& b = *inputs[1];
        MSOPDS_RETURN_IF_ERROR(ExpectRank(a, 2, "EdgeDot lhs"));
        MSOPDS_RETURN_IF_ERROR(ExpectRank(b, 2, "EdgeDot rhs"));
        if (a.dim(1) != b.dim(1)) {
          return ShapeError("EdgeDot operands must share the feature width",
                            inputs, output);
        }
        return ExpectRank(output, 1, "EdgeDot output");
      },
      [] {
        return Case2("SumSq(EdgeDot(a, b, ai, bi))",
                     [](const Variable& a, const Variable& b) {
                       return SumSq(EdgeDot(a, b, MakeIndex({0, 1, 1, 2}),
                                            MakeIndex({1, 0, 2, 2})));
                     },
                     ExM32(), ExM32().Clone(), /*hvp_arg=*/1);
      });

  // Kernels scheduled on the ThreadPool chunk grid (see the kernel
  // plumbing at the top of this file). Sum/Mean reduce via the pool's
  // deterministic tree fold inside Tensor::Sum.
  const std::unordered_set<std::string> parallel_kernels = {
      "Add",        "Sub",       "Mul",        "Div",
      "Neg",        "ScalarMul", "AddScalar",  "Exp",
      "Log",        "Sqrt",      "Reshape",    "Where",
      "MatMul",     "MatMulNT",  "MatMulTN",   "Transpose",
      "Sum",        "RowSum",
      "TileCols",   "ConcatCols","SliceCols",  "PadCols",
      "Concat1",    "Slice1",    "Pad1",       "GatherRows",
      "ScatterAddRows",          "Gather1",    "ScatterAdd1",
      "SpMM",       "EdgeDot"};
  for (OpSpec& spec : registry) {
    spec.parallel_kernel = parallel_kernels.count(spec.name) > 0;
  }

  // Write plans, attached post-registration like the parallel_kernel
  // flag so the add() calls above stay readable. `in` carries the
  // recorded input shapes, `out` the output shape; both have already
  // passed the op's infer check when the verifier calls the plan.
  using Shapes = std::vector<std::vector<int64_t>>;
  using Shape = std::vector<int64_t>;
  auto plan = [&registry](const std::string& name,
                          std::function<WritePlan(const Shapes&, const Shape&)>
                              write_plan,
                          PlanExample example) {
    for (OpSpec& spec : registry) {
      if (spec.name != name) continue;
      spec.write_plan = std::move(write_plan);
      spec.plan_example = [example] { return example; };
      return;
    }
    MSOPDS_CHECK(false) << "write plan for unregistered op " << name;
  };
  const auto flat = [](const Shapes&, const Shape& out) {
    return FlatPlan(out);
  };
  const auto rows = [](const Shapes&, const Shape& out) {
    return RowPlan(out);
  };
  const auto scatter_rows = [](const Shapes&, const Shape& out) {
    return RowPlan(out, /*covers=*/false);
  };
  // Elementwise / flat kernels; examples sized for a 3-chunk grid.
  const Shape kFlat = {3, kElementGrain};
  for (const char* name : {"Neg", "ScalarMul", "AddScalar", "Exp", "Log",
                           "Sqrt"}) {
    plan(name, flat, {{kFlat}, kFlat});
  }
  for (const char* name : {"Add", "Sub", "Mul", "Div", "Where"}) {
    plan(name, flat, {{kFlat, kFlat}, kFlat});
  }
  plan("Reshape", flat, {{kFlat}, {3 * kElementGrain}});
  plan("Slice1", flat, {{{20000}}, {9000}});
  plan("Gather1", flat, {{{64}}, {9000}});
  // Row-partitioned kernels writing full output rows; examples use an
  // 8-wide output so RowGrain(8) = 512 rows/chunk over 9000 rows.
  plan("MatMul", rows, {{{9000, 16}, {16, 8}}, {9000, 8}});
  plan("MatMulNT", rows, {{{9000, 16}, {8, 16}}, {9000, 8}});
  plan("MatMulTN", rows, {{{16, 9000}, {16, 8}}, {9000, 8}});
  plan("Transpose", rows, {{{8, 9000}}, {9000, 8}});
  plan("TileCols", rows, {{{9000}}, {9000, 8}});
  plan("ConcatCols", rows, {{{9000, 3}, {9000, 5}}, {9000, 8}});
  plan("SliceCols", rows, {{{9000, 16}}, {9000, 8}});
  plan("GatherRows", rows, {{{64, 8}}, {9000, 8}});
  // Reductions to one scalar per row/graph.
  plan("RowSum",
       [](const Shapes& in, const Shape& out) {
         return UnitGridPlan(out[0], RowGrain(in[0][1]), 1, out[0]);
       },
       {{{9000, 8}}, {9000}});
  plan("EdgeDot",
       [](const Shapes& in, const Shape& out) {
         return UnitGridPlan(out[0], RowGrain(in[0][1]), 1, out[0]);
       },
       {{{9000, 8}, {9000, 8}}, {9000}});
  plan("Sum",
       [](const Shapes& in, const Shape&) {
         return ReducePlan(ShapeElems(in[0]));
       },
       {{{3, kReduceGrain}}, {}});
  // Window writes into a zero-filled destination.
  plan("PadCols",
       [](const Shapes& in, const Shape& out) {
         return RowWindowPlan(out[0], in[0][1], out[1]);
       },
       {{{9000, 5}}, {9000, 8}});
  plan("Pad1",
       [](const Shapes& in, const Shape& out) {
         const int64_t w = in[0][0];
         return UnitGridPlan(w, kElementGrain, 1, out[0],
                             /*covers=*/w == out[0]);
       },
       {{{9000}}, {20000}});
  plan("Concat1",
       [](const Shapes& in, const Shape&) {
         return Concat1Plan(in[0][0], in[1][0]);
       },
       {{{5000}, {4000}}, {9000}});
  // Destination-planned scatters: a chunk owns a disjoint slice of
  // destination rows/elements and applies its planned edges in edge
  // order, so the full owned range is the (conservative) write range.
  plan("ScatterAddRows", scatter_rows, {{{64, 8}}, {9000, 8}});
  plan("SpMM", scatter_rows, {{{12}, {64, 8}}, {9000, 8}});
  plan("ScatterAdd1",
       [](const Shapes&, const Shape& out) {
         return UnitGridPlan(out[0], kElementGrain, 1, out[0],
                             /*covers=*/false);
       },
       {{{64}}, {9000}});

  // Every parallel kernel must carry a plan (the overlap pass is only as
  // strong as its coverage), and only parallel kernels may carry one.
  for (const OpSpec& spec : registry) {
    MSOPDS_CHECK(spec.parallel_kernel == (spec.write_plan != nullptr))
        << "op " << spec.name
        << (spec.parallel_kernel ? " is a parallel kernel without a write plan"
                                 : " has a write plan but no parallel kernel");
  }
  return registry;
}

}  // namespace

const std::vector<OpSpec>& OpRegistry() {
  static const std::vector<OpSpec>* const registry =
      new std::vector<OpSpec>(BuildOpRegistry());
  return *registry;
}

const OpSpec* FindOpSpec(const std::string& name) {
  for (const OpSpec& spec : OpRegistry()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

}  // namespace msopds
