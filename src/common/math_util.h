#ifndef PLP_COMMON_MATH_UTIL_H_
#define PLP_COMMON_MATH_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

namespace plp {

// ---------------------------------------------------------------------------
// Vectorized inner-loop kernels.
//
// These are the shared hot loops of the whole system: SGNS logits and
// backprop (sgns/loss.h), the bucket-delta reduction (sgns/sparse_delta.cc),
// and serving-side scoring (serve/model_snapshot.cc) all funnel through
// them. Double-precision calls dispatch (once, at load) to an AVX2
// implementation when the CPU has it, falling back to the portable scalar
// version otherwise. The two implementations are *bitwise identical*:
//
//   * The dot reduction follows one fixed 16-lane spec — partial sum s_j
//     accumulates elements i ≡ j (mod 16) over the largest multiple of 16,
//     lanes combine as u_l = (s_l + s_{l+4}) + (s_{l+8} + s_{l+12}),
//     result = ((u0+u1) + (u2+u3)) + tail — which is exactly the shape a
//     4×256-bit-register accumulation produces, and which the scalar
//     fallback reproduces term for term. Sixteen independent add chains
//     also keep the FP ports busy instead of serializing on add latency.
//   * Element-wise kernels (axpy/scale/sub) have no cross-element
//     dependency, so vector width cannot change their results at all.
//   * The AVX2 bodies use separate multiply and add instructions — never
//     FMA contraction, whose fused rounding would make results differ
//     from the scalar spec.
//
// Consequently results are deterministic regardless of CPU, dispatch
// choice, call site, or thread count, and the golden CRC pins are
// machine-independent. The *Reference functions are the strict
// left-to-right scalar versions, kept only so equivalence tests can bound
// the reassociation error; the *Portable functions are the dispatch
// fallbacks, exposed so tests can check the AVX2 path against them
// bitwise.
// ---------------------------------------------------------------------------

/// Portable dot product implementing the fixed 16-lane reduction spec
/// documented above. Deterministic for a given n; the AVX2 path matches it
/// bitwise.
template <typename T>
inline T DotKernelPortable(const T* a, const T* b, size_t n) {
  T s[16] = {};
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (size_t j = 0; j < 16; ++j) s[j] += a[i + j] * b[i + j];
  }
  T tail{};
  for (; i < n; ++i) tail += a[i] * b[i];
  const T u0 = (s[0] + s[4]) + (s[8] + s[12]);
  const T u1 = (s[1] + s[5]) + (s[9] + s[13]);
  const T u2 = (s[2] + s[6]) + (s[10] + s[14]);
  const T u3 = (s[3] + s[7]) + (s[11] + s[15]);
  return ((u0 + u1) + (u2 + u3)) + tail;
}

/// Portable y[i] += alpha * x[i] (dispatch fallback).
template <typename T>
inline void AxpyKernelPortable(T alpha, const T* x, T* y, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    y[i] += alpha * x[i];
    y[i + 1] += alpha * x[i + 1];
    y[i + 2] += alpha * x[i + 2];
    y[i + 3] += alpha * x[i + 3];
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

/// Portable x[i] *= alpha (dispatch fallback).
template <typename T>
inline void ScaleKernelPortable(T alpha, T* x, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    x[i] *= alpha;
    x[i + 1] *= alpha;
    x[i + 2] *= alpha;
    x[i + 3] *= alpha;
  }
  for (; i < n; ++i) x[i] *= alpha;
}

/// Portable out[i] = a[i] - b[i] (dispatch fallback).
template <typename T>
inline void SubKernelPortable(const T* a, const T* b, T* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    out[i] = a[i] - b[i];
    out[i + 1] = a[i + 1] - b[i + 1];
    out[i + 2] = a[i + 2] - b[i + 2];
    out[i + 3] = a[i + 3] - b[i + 3];
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

namespace internal_simd {

/// Double-precision kernel entry points, bound at static-initialization
/// time to the AVX2 bodies when the CPU supports them. Statically
/// initialized to the portable implementations, so a call from any other
/// translation unit's static initializer is safe (and, because both
/// implementations are bitwise identical, still correct).
extern double (*dot)(const double*, const double*, size_t);
extern void (*axpy)(double, const double*, double*, size_t);
extern void (*scale)(double, double*, size_t);
extern void (*sub)(const double*, const double*, double*, size_t);

/// Quantized-serving kernel (see "Quantized dot kernel" below): the mixed
/// fp16·f32 dot, dispatched like the double kernels.
extern float (*dot_f16)(const uint16_t*, const float*, size_t);

/// True when the AVX2 bodies are the active dispatch targets (for tests
/// and diagnostics).
bool Avx2Active();

/// True when the F16C-accelerated fp16 dot is the active dispatch target.
bool F16cActive();

}  // namespace internal_simd

/// Dot product over raw arrays under the fixed 16-lane reduction spec.
/// Doubles run the dispatched (AVX2 where available) implementation.
template <typename T>
inline T DotKernel(const T* a, const T* b, size_t n) {
  if constexpr (std::is_same_v<T, double>) {
    return internal_simd::dot(a, b, n);
  } else {
    return DotKernelPortable(a, b, n);
  }
}

/// Sum of squares with the same accumulation shape as DotKernel.
template <typename T>
inline T SumSquaresKernel(const T* x, size_t n) {
  return DotKernel(x, x, n);
}

/// y[i] += alpha * x[i]. Element-independent, so bitwise identical to the
/// scalar loop at any unroll or vector width.
template <typename T>
inline void AxpyKernel(T alpha, const T* x, T* y, size_t n) {
  if constexpr (std::is_same_v<T, double>) {
    internal_simd::axpy(alpha, x, y, n);
  } else {
    AxpyKernelPortable(alpha, x, y, n);
  }
}

/// x[i] *= alpha. Element-independent.
template <typename T>
inline void ScaleKernel(T alpha, T* x, size_t n) {
  if constexpr (std::is_same_v<T, double>) {
    internal_simd::scale(alpha, x, n);
  } else {
    ScaleKernelPortable(alpha, x, n);
  }
}

/// out[i] = a[i] - b[i]. Element-independent; out == a aliasing is allowed
/// (each slot is read before it is written). Used by the delta-extraction
/// paths (LocalModel::ExtractDelta, DiffModels).
template <typename T>
inline void SubKernel(const T* a, const T* b, T* out, size_t n) {
  if constexpr (std::is_same_v<T, double>) {
    internal_simd::sub(a, b, out, n);
  } else {
    SubKernelPortable(a, b, out, n);
  }
}

/// Strict left-to-right scalar dot (equivalence-test oracle).
template <typename T>
inline T DotReference(const T* a, const T* b, size_t n) {
  T s{};
  for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

/// Strict left-to-right scalar sum of squares (equivalence-test oracle).
template <typename T>
inline T SumSquaresReference(const T* x, size_t n) {
  return DotReference(x, x, n);
}

/// Scalar y[i] += alpha * x[i] (equivalence-test oracle).
template <typename T>
inline void AxpyReference(T alpha, const T* x, T* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

/// Scalar out[i] = a[i] - b[i] (equivalence-test oracle).
template <typename T>
inline void SubReference(const T* a, const T* b, T* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

// ---------------------------------------------------------------------------
// Quantized dot kernel (serving-side snapshot scoring).
//
// Published snapshots can store their embedding rows as IEEE fp16 instead
// of float32; scoring then needs a mixed-precision dot of a half row
// against a float32 profile. The kernel below follows the same discipline
// as the double kernels above: one fixed 16-lane float32 accumulation
// spec (identical lane shape and combine order), the portable body as the
// dispatch default, and an AVX2+F16C body bound at static initialization
// that reproduces the portable result bitwise — half→float conversion is
// exact in both paths, multiplies and adds stay separate instructions,
// and the per-lane add order matches term for term. Scores therefore do
// not depend on which body the dispatcher picked, and the fp16 error
// bound pinned by tests is machine-independent.
// ---------------------------------------------------------------------------

/// float → IEEE 754 binary16 bit pattern, round-to-nearest-even. Handles
/// normals, subnormals, overflow (→ ±inf) and NaN. This is the *build*
/// path (snapshot quantization), so it is pure portable code — the
/// scoring path never converts in this direction.
inline uint16_t FloatToHalf(float value) {
  uint32_t f;
  std::memcpy(&f, &value, sizeof(f));
  const uint32_t sign = (f >> 16) & 0x8000u;
  f &= 0x7fffffffu;
  if (f > 0x7f800000u) return static_cast<uint16_t>(sign | 0x7e00u);  // NaN
  if (f >= 0x47800000u) {  // >= 2^16 after rounding: overflow to inf
    return static_cast<uint16_t>(sign | 0x7c00u);
  }
  if (f >= 0x38800000u) {  // normal half range [2^-14, 65504]
    const uint32_t mant = f & 0x7fffffu;
    const uint32_t exp = (f >> 23) - 112u;  // rebias 127 → 15
    uint32_t half = (exp << 10) | (mant >> 13);
    const uint32_t rem = mant & 0x1fffu;  // dropped low 13 bits
    half += (rem > 0x1000u) || (rem == 0x1000u && (half & 1u));
    return static_cast<uint16_t>(sign | half);
  }
  if (f < 0x32000000u) return static_cast<uint16_t>(sign);  // < 2^-27 → ±0
  // Subnormal half: value = m_h · 2^-24; shift the implicit-bit mantissa
  // down and round to nearest even. A carry out of m_h == 1023 lands on
  // the smallest normal bit pattern, which is exactly right.
  const uint32_t mant = (f & 0x7fffffu) | 0x800000u;
  const uint32_t shift = 126u - (f >> 23);  // in [14, 27]
  uint32_t half = mant >> shift;
  const uint32_t rem = mant & ((1u << shift) - 1u);
  const uint32_t halfway = 1u << (shift - 1);
  half += (rem > halfway) || (rem == halfway && (half & 1u));
  return static_cast<uint16_t>(sign | half);
}

/// IEEE 754 binary16 bit pattern → float. Exact (every half value is
/// representable in float), so software and F16C hardware conversion
/// agree bitwise — the property the dispatch equivalence tests pin.
inline float HalfToFloat(uint16_t h) {
  const uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  const uint32_t exp = (h >> 10) & 0x1fu;
  uint32_t mant = h & 0x3ffu;
  uint32_t f;
  if (exp == 0) {
    if (mant == 0) {
      f = sign;  // ±0
    } else {
      // Subnormal: normalize the mantissa into the implicit-bit position.
      uint32_t e = 0;
      while (!(mant & 0x400u)) {
        mant <<= 1;
        ++e;
      }
      f = sign | ((113u - e) << 23) | ((mant & 0x3ffu) << 13);
    }
  } else if (exp == 31) {
    f = sign | 0x7f800000u | (mant << 13);  // inf / NaN
  } else {
    f = sign | ((exp + 112u) << 23) | (mant << 13);
  }
  float out;
  std::memcpy(&out, &f, sizeof(out));
  return out;
}

/// Portable fp16·f32 dot under the fixed 16-lane float32 reduction spec.
inline float DotF16KernelPortable(const uint16_t* a, const float* b,
                                  size_t n) {
  float s[16] = {};
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (size_t j = 0; j < 16; ++j) s[j] += HalfToFloat(a[i + j]) * b[i + j];
  }
  float tail = 0.0f;
  for (; i < n; ++i) tail += HalfToFloat(a[i]) * b[i];
  const float u0 = (s[0] + s[4]) + (s[8] + s[12]);
  const float u1 = (s[1] + s[5]) + (s[9] + s[13]);
  const float u2 = (s[2] + s[6]) + (s[10] + s[14]);
  const float u3 = (s[3] + s[7]) + (s[11] + s[15]);
  return ((u0 + u1) + (u2 + u3)) + tail;
}

/// Dispatched fp16·f32 dot (AVX2+F16C where available).
inline float DotF16Kernel(const uint16_t* a, const float* b, size_t n) {
  return internal_simd::dot_f16(a, b, n);
}

// ---------------------------------------------------------------------------
// Bounded transcendental lookup tables (word2vec's expTable idiom).
//
// The SGNS local update evaluates exp/sigmoid once per candidate per pair —
// by far the most expensive scalar math on the training hot path. These
// tables replace libm calls with one load and a linear interpolation over a
// fixed grid. The grid step is a power of two (1/256) and the bounds are
// integers, so grid-node arguments (notably x = 0, the shifted-softmax
// maximum) index the table exactly and reproduce the node value bitwise.
// Both tables are pure functions of their input: results are independent of
// thread count, call site, and evaluation order, which keeps the trainer's
// bitwise determinism contract intact.
//
// The *Reference functions are the libm versions kept as test oracles: the
// LUT accuracy suite bounds |lut - reference| over the bounded domain, and
// the finite-difference gradient test runs the loss under the reference
// policy (a piecewise-linear interpolant's slope differs from its value by
// O(step), which a numeric-vs-analytic gradient comparison would see).
// ---------------------------------------------------------------------------

/// σ(x) on [-kBound, kBound] by linear interpolation over 4096 intervals;
/// saturates to exactly 0.0 / 1.0 at and beyond the bounds (the gradient
/// is numerically saturated there anyway). Max abs error in-domain is
/// bounded by step²/8 · max|σ''| < 2e-7 (pinned by tests/common).
class SigmoidLut {
 public:
  static constexpr double kBound = 8.0;
  static constexpr double kInvStep = 256.0;  // 1/step; step = 2^-8
  static constexpr size_t kNumIntervals =
      static_cast<size_t>(2 * kBound * kInvStep);  // 4096

  /// The process-wide table (built on first use, immutable after).
  static const SigmoidLut& Get();

  double operator()(double x) const {
    if (x <= -kBound) return 0.0;
    if (x >= kBound) return 1.0;
    const double pos = (x + kBound) * kInvStep;
    const size_t k = static_cast<size_t>(pos);
    const double r = pos - static_cast<double>(k);
    return table_[k] + r * (table_[k + 1] - table_[k]);
  }

 private:
  SigmoidLut();
  double table_[kNumIntervals + 1];
};

/// exp(x) for x <= 0 on [-kBound, 0] by linear interpolation over 4096
/// intervals; exactly 1.0 at x >= 0 and exactly 0.0 at and below -kBound
/// (exp(-16) ≈ 1.1e-7 — a candidate that far under the max contributes
/// nothing to the sampled softmax). Max abs error in-domain < 2e-6.
class ExpNegLut {
 public:
  static constexpr double kBound = 16.0;
  static constexpr double kInvStep = 256.0;
  static constexpr size_t kNumIntervals =
      static_cast<size_t>(kBound * kInvStep);  // 4096

  static const ExpNegLut& Get();

  double operator()(double x) const {
    if (x >= 0.0) return 1.0;
    if (x <= -kBound) return 0.0;
    const double pos = (x + kBound) * kInvStep;
    const size_t k = static_cast<size_t>(pos);
    const double r = pos - static_cast<double>(k);
    return table_[k] + r * (table_[k + 1] - table_[k]);
  }

 private:
  ExpNegLut();
  double table_[kNumIntervals + 1];
};

/// Convenience wrapper over SigmoidLut::Get() for cold call sites. Hot
/// loops should hoist `const SigmoidLut& lut = SigmoidLut::Get()` instead.
double FastSigmoid(double x);

/// Builds both tables now instead of on first lookup, so the first timed
/// training step doesn't pay table construction.
void WarmFastMathTables();

/// libm sigmoid 1/(1+exp(-x)) — the LUT accuracy oracle.
double SigmoidReference(double x);

/// libm exp(x) for the ExpNegLut domain (callers pass x <= 0) — the LUT
/// accuracy oracle.
double ExpNegReference(double x);

/// Numerically stable log(exp(a) + exp(b)). Handles -inf inputs.
double LogAdd(double a, double b);

/// Numerically stable log(sum_i exp(x_i)). Returns -inf for empty input.
double LogSumExp(std::span<const double> xs);

/// log of the binomial coefficient C(n, k) via lgamma. Requires 0 <= k <= n.
double LogBinomial(int n, int k);

/// Standard normal CDF.
double NormalCdf(double x);

/// Regularized incomplete beta function I_x(a, b) via the continued-fraction
/// expansion (Lentz's method). Requires a > 0, b > 0, x in [0, 1]. Used for
/// Student-t tail probabilities in the paired t-test.
double RegularizedIncompleteBeta(double a, double b, double x);

/// Regularized lower incomplete gamma function P(a, x) = γ(a, x)/Γ(a),
/// series expansion for x < a + 1, continued fraction otherwise. Requires
/// a > 0, x >= 0. P(k/2, x/2) is the chi-square CDF with k degrees of
/// freedom at x.
double RegularizedLowerIncompleteGamma(double a, double x);

/// Regularized upper incomplete gamma function Q(a, x) = 1 - P(a, x).
double RegularizedUpperIncompleteGamma(double a, double x);

/// Complementary CDF of the Kolmogorov distribution,
/// Q(t) = 2 Σ_{k>=1} (−1)^{k−1} exp(−2 k² t²): the asymptotic null law of
/// √n·D_n for the one-sample Kolmogorov–Smirnov statistic. Requires t >= 0.
double KolmogorovComplementaryCdf(double t);

/// Two-sided p-value of a Student-t statistic with `df` degrees of freedom.
double StudentTTwoSidedPValue(double t, double df);

/// Euclidean (l2) norm of a vector. Uses SumSquaresKernel.
double L2Norm(std::span<const double> xs);

/// Dot product. Requires equal sizes. Uses DotKernel.
double Dot(std::span<const double> a, std::span<const double> b);

/// Scales every element so the vector has unit l2 norm; zero vectors are
/// left unchanged.
void NormalizeL2(std::span<double> xs);

/// Clamps x into [lo, hi].
double Clamp(double x, double lo, double hi);

}  // namespace plp

#endif  // PLP_COMMON_MATH_UTIL_H_
