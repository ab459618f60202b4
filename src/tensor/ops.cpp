#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"
#include "tensor/gemm.hpp"
#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"

namespace edgellm::ops {

namespace {

void check_same_shape(const Tensor& a, const Tensor& b, const char* what) {
  check_arg(a.shape() == b.shape(), std::string(what) + ": shape mismatch " +
                                        shape_to_string(a.shape()) + " vs " +
                                        shape_to_string(b.shape()));
}

// Accumulating kernels assume their output starts at exactly zero; a future
// pooled/uninitialised allocation path handing them dirty memory would
// silently corrupt results. Debug builds assert the contract.
#ifndef NDEBUG
void debug_assert_zeroed(const Tensor& c, const char* what) {
  for (int64_t i = 0; i < c.numel(); ++i) {
    check_arg(c[i] == 0.0f, std::string(what) + ": output not zero-initialised");
  }
}
#else
void debug_assert_zeroed(const Tensor&, const char*) {}
#endif

// Chunk sizing: aim for at least this many scalar multiply-adds per chunk
// so fan-out overhead stays negligible. Chunk boundaries never affect
// results (kernels partition over disjoint output rows), only scheduling.
constexpr int64_t kGrainOps = 16384;

int64_t row_grain(int64_t ops_per_row) {
  return std::max<int64_t>(1, kGrainOps / std::max<int64_t>(1, ops_per_row));
}

// Inner GEMM kernel on raw pointers over an output-row range:
// C[i,n] += A[i,k] * B[k,n] for i in [lo, hi), with C assumed
// zero-initialised by the caller. Loop order (i,p,j) keeps the B and C
// accesses sequential and fixes the per-element accumulation order (over
// ascending p), so any row partition is bitwise identical to the serial
// pass.
void gemm_nn_rows(const float* a, const float* b, float* c, int64_t lo, int64_t hi, int64_t k,
                  int64_t n) {
  for (int64_t i = lo; i < hi; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      const float* brow = b + p * n;
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

Tensor matmul_impl(const Tensor& a, const Tensor& b, const char* what) {
  check_arg(a.ndim() == 2 && b.ndim() == 2, std::string(what) + ": operands must be 2-d");
  check_arg(a.dim(1) == b.dim(0), std::string(what) + ": inner dimensions differ");
  const obs::KernelSpan span("kernel/matmul");
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  debug_assert_zeroed(c, what);
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  parallel::parallel_for(0, m, row_grain(k * n), [=](int64_t lo, int64_t hi) {
    gemm_nn_rows(pa, pb, pc, lo, hi, k, n);
  });
  return c;
}

template <bool skip_zero_a>
Tensor bmm_tn_impl(const Tensor& a, const Tensor& b, const char* what) {
  check_arg(a.ndim() == 3 && b.ndim() == 3, std::string(what) + ": operands must be 3-d");
  check_arg(a.dim(0) == b.dim(0), std::string(what) + ": batch sizes differ");
  check_arg(a.dim(1) == b.dim(1), std::string(what) + ": inner dimensions differ");
  const obs::KernelSpan span("kernel/bmm");
  const int64_t bs = a.dim(0), k = a.dim(1), m = a.dim(2), n = b.dim(2);
  Tensor c({bs, m, n});
  debug_assert_zeroed(c, what);
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  // Partition over flattened output rows (t, i); each row accumulates over
  // ascending p exactly as the serial (p, i, j) loop did per element.
  parallel::parallel_for(0, bs * m, row_grain(k * n), [=](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const int64_t t = r / m, i = r % m;
      const float* ab = pa + t * k * m;
      const float* bb = pb + t * k * n;
      float* crow = pc + r * n;
      for (int64_t p = 0; p < k; ++p) {
        const float av = ab[p * m + i];
        if (skip_zero_a && av == 0.0f) continue;
        const float* brow = bb + p * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  });
  return c;
}

// Elementwise map over a flat range: y[i] = f(x[i]).
template <typename F>
Tensor map_elems(const Tensor& x, F f) {
  Tensor y(x.shape());
  const float* px = x.raw();
  float* py = y.raw();
  parallel::parallel_for(0, x.numel(), kGrainOps, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) py[i] = f(px[i]);
  });
  return y;
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  // Blocked dispatch is invisible to results: gemm.hpp's kernels are bitwise
  // identical to the naive loops (see the contract there), so only speed
  // depends on the shape cut-over and the registered schedule.
  if (a.ndim() == 2 && b.ndim() == 2 && a.dim(1) == b.dim(0) &&
      gemm::use_blocked(gemm::GemmKind::kNN, a.dim(0), a.dim(1), b.dim(1))) {
    const obs::KernelSpan span("kernel/matmul");
    return gemm::matmul_blocked(
        a, b, gemm::blocking_for(gemm::GemmKind::kNN, a.dim(0), a.dim(1), b.dim(1)));
  }
  return matmul_impl(a, b, "matmul");
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  check_arg(a.ndim() == 2 && b.ndim() == 2, "matmul_tn: operands must be 2-d");
  check_arg(a.dim(0) == b.dim(0), "matmul_tn: inner dimensions differ");
  const obs::KernelSpan span("kernel/matmul");
  const int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  debug_assert_zeroed(c, "matmul_tn");
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  // C[i,j] = sum_p A[p,i] * B[p,j], accumulated over ascending p per output
  // element — the same order at any row partition.
  parallel::parallel_for(0, m, row_grain(k * n), [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      float* crow = pc + i * n;
      for (int64_t p = 0; p < k; ++p) {
        const float av = pa[p * m + i];
        const float* brow = pb + p * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  });
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  check_arg(a.ndim() == 2 && b.ndim() == 2, "matmul_nt: operands must be 2-d");
  check_arg(a.dim(1) == b.dim(1), "matmul_nt: inner dimensions differ");
  const obs::KernelSpan span("kernel/matmul");
  if (gemm::use_blocked(gemm::GemmKind::kNT, a.dim(0), a.dim(1), b.dim(0))) {
    return gemm::matmul_nt_blocked(
        a, b, gemm::blocking_for(gemm::GemmKind::kNT, a.dim(0), a.dim(1), b.dim(0)));
  }
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor c({m, n});
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  parallel::parallel_for(0, m, row_grain(k * n), [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* arow = pa + i * k;
      float* crow = pc + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = pb + j * k;
        float acc = 0.0f;
        for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
        crow[j] = acc;
      }
    }
  });
  return c;
}

Tensor bmm(const Tensor& a, const Tensor& b) {
  check_arg(a.ndim() == 3 && b.ndim() == 3, "bmm: operands must be 3-d");
  check_arg(a.dim(0) == b.dim(0), "bmm: batch sizes differ");
  check_arg(a.dim(2) == b.dim(1), "bmm: inner dimensions differ");
  const obs::KernelSpan span("kernel/bmm");
  const int64_t bs = a.dim(0), m = a.dim(1), k = a.dim(2), n = b.dim(2);
  Tensor c({bs, m, n});
  debug_assert_zeroed(c, "bmm");
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  // Partition over flattened output rows (t, i) across the whole batch.
  parallel::parallel_for(0, bs * m, row_grain(k * n), [=](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const int64_t t = r / m, i = r % m;
      gemm_nn_rows(pa + t * m * k, pb + t * k * n, pc + t * m * n, i, i + 1, k, n);
    }
  });
  return c;
}

Tensor bmm_nt(const Tensor& a, const Tensor& b) {
  check_arg(a.ndim() == 3 && b.ndim() == 3, "bmm_nt: operands must be 3-d");
  check_arg(a.dim(0) == b.dim(0), "bmm_nt: batch sizes differ");
  check_arg(a.dim(2) == b.dim(2), "bmm_nt: inner dimensions differ");
  const obs::KernelSpan span("kernel/bmm");
  if (gemm::use_blocked(gemm::GemmKind::kNT, a.dim(1), a.dim(2), b.dim(1))) {
    return gemm::bmm_nt_blocked(
        a, b, gemm::blocking_for(gemm::GemmKind::kNT, a.dim(1), a.dim(2), b.dim(1)));
  }
  const int64_t bs = a.dim(0), m = a.dim(1), k = a.dim(2), n = b.dim(1);
  Tensor c({bs, m, n});
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  parallel::parallel_for(0, bs * m, row_grain(k * n), [=](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const int64_t t = r / m, i = r % m;
      const float* ab = pa + t * m * k;
      const float* bb = pb + t * n * k;
      float* crow = pc + r * n;
      for (int64_t j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (int64_t p = 0; p < k; ++p) acc += ab[i * k + p] * bb[j * k + p];
        crow[j] = acc;
      }
    }
  });
  return c;
}

Tensor bmm_tn(const Tensor& a, const Tensor& b) {
  return bmm_tn_impl<false>(a, b, "bmm_tn");
}

Tensor bmm_tn_skipzero(const Tensor& a, const Tensor& b) {
  return bmm_tn_impl<true>(a, b, "bmm_tn_skipzero");
}

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Tensor c(a.shape());
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  const auto add_kernel = simd::kernels().add;
  parallel::parallel_for(0, a.numel(), kGrainOps, [=](int64_t lo, int64_t hi) {
    add_kernel(pa + lo, pb + lo, pc + lo, hi - lo);
  });
  return c;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  Tensor c(a.shape());
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  parallel::parallel_for(0, a.numel(), kGrainOps, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pc[i] = pa[i] - pb[i];
  });
  return c;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  Tensor c(a.shape());
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  parallel::parallel_for(0, a.numel(), kGrainOps, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pc[i] = pa[i] * pb[i];
  });
  return c;
}

Tensor scale(const Tensor& a, float s) {
  return map_elems(a, [s](float v) { return v * s; });
}

void add_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add_inplace");
  float* pa = a.raw();
  const float* pb = b.raw();
  parallel::parallel_for(0, a.numel(), kGrainOps, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pa[i] += pb[i];
  });
}

void axpy_inplace(Tensor& a, float s, const Tensor& b) {
  check_same_shape(a, b, "axpy_inplace");
  float* pa = a.raw();
  const float* pb = b.raw();
  parallel::parallel_for(0, a.numel(), kGrainOps, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pa[i] += s * pb[i];
  });
}

Tensor add_bias(const Tensor& x, const Tensor& bias) {
  check_arg(bias.ndim() == 1, "add_bias: bias must be 1-d");
  const int64_t n = bias.dim(0);
  check_arg(x.numel() % n == 0 && x.dim(-1) == n, "add_bias: last dim mismatch");
  Tensor c(x.shape());
  const int64_t rows = x.numel() / n;
  const float* px = x.raw();
  const float* pbias = bias.raw();
  float* pc = c.raw();
  const auto add_kernel = simd::kernels().add;
  parallel::parallel_for(0, rows, row_grain(n), [=](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) add_kernel(px + r * n, pbias, pc + r * n, n);
  });
  return c;
}

Tensor relu(const Tensor& x) {
  return map_elems(x, [](float v) { return v > 0 ? v : 0.0f; });
}

Tensor relu_grad(const Tensor& x, const Tensor& grad_out) {
  check_same_shape(x, grad_out, "relu_grad");
  Tensor g(x.shape());
  const float* px = x.raw();
  const float* pg = grad_out.raw();
  float* po = g.raw();
  parallel::parallel_for(0, x.numel(), kGrainOps, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) po[i] = px[i] > 0 ? pg[i] : 0.0f;
  });
  return g;
}

namespace {
// tanh-approximation GELU, matching the variant common in LLM codebases.
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)

float gelu_scalar(float x) {
  const float u = kGeluC * (x + 0.044715f * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(u));
}

float gelu_grad_scalar(float x) {
  const float u = kGeluC * (x + 0.044715f * x * x * x);
  const float t = std::tanh(u);
  const float du = kGeluC * (1.0f + 3.0f * 0.044715f * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du;
}

// Transcendental elementwise work gets a finer grain than fused adds.
constexpr int64_t kTranscendentalGrain = 2048;
}  // namespace

Tensor gelu(const Tensor& x) {
  Tensor y(x.shape());
  const float* px = x.raw();
  float* py = y.raw();
  parallel::parallel_for(0, x.numel(), kTranscendentalGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) py[i] = gelu_scalar(px[i]);
  });
  return y;
}

Tensor gelu_grad(const Tensor& x, const Tensor& grad_out) {
  check_same_shape(x, grad_out, "gelu_grad");
  Tensor g(x.shape());
  const float* px = x.raw();
  const float* pg = grad_out.raw();
  float* po = g.raw();
  parallel::parallel_for(0, x.numel(), kTranscendentalGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) po[i] = pg[i] * gelu_grad_scalar(px[i]);
  });
  return g;
}

Tensor silu(const Tensor& x) {
  Tensor y(x.shape());
  const float* px = x.raw();
  float* py = y.raw();
  const auto silu_kernel = simd::kernels().silu;
  parallel::parallel_for(0, x.numel(), kTranscendentalGrain, [=](int64_t lo, int64_t hi) {
    silu_kernel(px + lo, py + lo, hi - lo);
  });
  return y;
}

Tensor silu_grad(const Tensor& x, const Tensor& grad_out) {
  check_same_shape(x, grad_out, "silu_grad");
  Tensor g(x.shape());
  const float* px = x.raw();
  const float* pg = grad_out.raw();
  float* po = g.raw();
  // simd::sigmoid_scalar keeps the gradient consistent with the forward
  // kernel's sigmoid (both use the shared polynomial exp).
  parallel::parallel_for(0, x.numel(), kTranscendentalGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float s = simd::sigmoid_scalar(px[i]);
      po[i] = pg[i] * (s + px[i] * s * (1.0f - s));
    }
  });
  return g;
}

Tensor swiglu(const Tensor& gate, const Tensor& up) {
  check_same_shape(gate, up, "swiglu");
  Tensor y(gate.shape());
  const float* pg = gate.raw();
  const float* pu = up.raw();
  float* py = y.raw();
  const auto swiglu_kernel = simd::kernels().swiglu;
  parallel::parallel_for(0, gate.numel(), kTranscendentalGrain, [=](int64_t lo, int64_t hi) {
    swiglu_kernel(pg + lo, pu + lo, py + lo, hi - lo);
  });
  return y;
}

Tensor softmax_lastdim(const Tensor& x) {
  check_arg(x.ndim() >= 1, "softmax_lastdim: needs at least 1-d");
  const int64_t n = x.dim(-1);
  check_arg(n > 0, "softmax_lastdim: empty last dimension");
  const obs::KernelSpan span("kernel/softmax");
  Tensor y(x.shape());
  const int64_t rows = x.numel() / n;
  const float* px = x.raw();
  float* py = y.raw();
  const simd::KernelTable& kt = simd::kernels();
  const auto exp_sub = kt.exp_sub;
  const auto scale_inplace = kt.scale_inplace;
  parallel::parallel_for(0, rows, row_grain(n), [=](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* xr = px + r * n;
      float* yr = py + r * n;
      float mx = xr[0];
      for (int64_t j = 1; j < n; ++j) mx = std::max(mx, xr[j]);
      exp_sub(xr, mx, yr, n);
      // The denominator stays a scalar ascending chain so normalisation is
      // identical at every dispatch choice.
      float denom = 0.0f;
      for (int64_t j = 0; j < n; ++j) denom += yr[j];
      scale_inplace(yr, 1.0f / denom, n);
    }
  });
  return y;
}

Tensor log_softmax_lastdim(const Tensor& x) {
  check_arg(x.ndim() >= 1, "log_softmax_lastdim: needs at least 1-d");
  const int64_t n = x.dim(-1);
  check_arg(n > 0, "log_softmax_lastdim: empty last dimension");
  const obs::KernelSpan span("kernel/softmax");
  Tensor y(x.shape());
  const int64_t rows = x.numel() / n;
  const float* px = x.raw();
  float* py = y.raw();
  parallel::parallel_for(0, rows, row_grain(n), [=](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* xr = px + r * n;
      float* yr = py + r * n;
      float mx = xr[0];
      for (int64_t j = 1; j < n; ++j) mx = std::max(mx, xr[j]);
      float denom = 0.0f;
      for (int64_t j = 0; j < n; ++j) denom += std::exp(xr[j] - mx);
      const float lse = mx + std::log(denom);
      for (int64_t j = 0; j < n; ++j) yr[j] = xr[j] - lse;
    }
  });
  return y;
}

Tensor softmax_lastdim_backward(const Tensor& y, const Tensor& grad_out) {
  check_same_shape(y, grad_out, "softmax_lastdim_backward");
  const int64_t n = y.dim(-1);
  Tensor g(y.shape());
  const int64_t rows = y.numel() / n;
  const float* py = y.raw();
  const float* pg = grad_out.raw();
  float* po = g.raw();
  parallel::parallel_for(0, rows, row_grain(n), [=](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* yr = py + r * n;
      const float* gr = pg + r * n;
      float* outr = po + r * n;
      float dot = 0.0f;
      for (int64_t j = 0; j < n; ++j) dot += yr[j] * gr[j];
      for (int64_t j = 0; j < n; ++j) outr[j] = yr[j] * (gr[j] - dot);
    }
  });
  return g;
}

Tensor rms_norm_lastdim(const Tensor& x, const Tensor& gain, float eps, std::vector<float>* inv_out) {
  check_arg(x.ndim() >= 1, "rms_norm_lastdim: needs at least 1-d");
  check_arg(gain.ndim() == 1, "rms_norm_lastdim: gain must be 1-d");
  const int64_t n = gain.dim(0);
  check_arg(x.dim(-1) == n, "rms_norm_lastdim: last dim mismatch");
  check_arg(eps > 0.0f, "rms_norm_lastdim: eps must be positive");
  Tensor y(x.shape());
  const int64_t rows = x.numel() / n;
  if (inv_out) inv_out->resize(static_cast<size_t>(rows));
  float* pinv = inv_out ? inv_out->data() : nullptr;
  const float* px = x.raw();
  const float* pgain = gain.raw();
  float* py = y.raw();
  const simd::KernelTable& kt = simd::kernels();
  const auto rms_apply = kt.rms_apply;
  // The sum-of-squares reduction stays a scalar ascending double chain by
  // default (the bitwise reference); fast_math swaps in the vector
  // multi-accumulator reduction, which regroups the additions.
  const auto sumsq_fast = gemm::fast_math_enabled() ? kt.sumsq_fast : nullptr;
  parallel::parallel_for(0, rows, row_grain(2 * n), [=](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* xr = px + r * n;
      double ss;
      if (sumsq_fast) {
        ss = sumsq_fast(xr, n);
      } else {
        ss = 0.0;
        for (int64_t d = 0; d < n; ++d) {
          const double v = xr[d];
          ss += v * v;
        }
      }
      const float inv = 1.0f / std::sqrt(static_cast<float>(ss / static_cast<double>(n)) + eps);
      if (pinv) pinv[r] = inv;
      rms_apply(xr, pgain, inv, py + r * n, n);
    }
  });
  return y;
}

// Scalar reductions stay serial: a parallel tree reduction would change
// the floating-point accumulation order and break the backend's
// bitwise-determinism guarantee for marginal gain (they are O(n), not
// O(n^2) like the matmuls).
float sum(const Tensor& x) {
  double acc = 0.0;
  for (int64_t i = 0; i < x.numel(); ++i) acc += x[i];
  return static_cast<float>(acc);
}

float mean(const Tensor& x) {
  check_arg(x.numel() > 0, "mean: empty tensor");
  return sum(x) / static_cast<float>(x.numel());
}

float max_value(const Tensor& x) {
  check_arg(x.numel() > 0, "max_value: empty tensor");
  float mx = x[0];
  for (int64_t i = 1; i < x.numel(); ++i) mx = std::max(mx, x[i]);
  return mx;
}

float min_value(const Tensor& x) {
  check_arg(x.numel() > 0, "min_value: empty tensor");
  float mn = x[0];
  for (int64_t i = 1; i < x.numel(); ++i) mn = std::min(mn, x[i]);
  return mn;
}

float l2_norm(const Tensor& x) {
  double acc = 0.0;
  for (int64_t i = 0; i < x.numel(); ++i) acc += static_cast<double>(x[i]) * x[i];
  return static_cast<float>(std::sqrt(acc));
}

float mse(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mse");
  check_arg(a.numel() > 0, "mse: empty tensor");
  double acc = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    acc += d * d;
  }
  return static_cast<float>(acc / static_cast<double>(a.numel()));
}

Tensor transpose2d(const Tensor& x) {
  check_arg(x.ndim() == 2, "transpose2d: needs a 2-d tensor");
  const int64_t m = x.dim(0), n = x.dim(1);
  Tensor y({n, m});
  const float* px = x.raw();
  float* py = y.raw();
  parallel::parallel_for(0, m, row_grain(n), [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      for (int64_t j = 0; j < n; ++j) py[j * m + i] = px[i * n + j];
    }
  });
  return y;
}

std::vector<int64_t> argmax_lastdim(const Tensor& x) {
  check_arg(x.ndim() >= 1, "argmax_lastdim: needs at least 1-d");
  const int64_t n = x.dim(-1);
  check_arg(n > 0, "argmax_lastdim: empty last dimension");
  const int64_t rows = x.numel() / n;
  std::vector<int64_t> out(static_cast<size_t>(rows));
  const float* px = x.raw();
  int64_t* po = out.data();
  parallel::parallel_for(0, rows, row_grain(n), [=](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* xr = px + r * n;
      int64_t best = 0;
      for (int64_t j = 1; j < n; ++j) {
        if (xr[j] > xr[best]) best = j;
      }
      po[r] = best;
    }
  });
  return out;
}

}  // namespace edgellm::ops
