#include "common/math_util.h"

#include <algorithm>
#include <cmath>
#include <limits>

#if defined(__x86_64__) && defined(__GNUC__)
#define PLP_SIMD_X86 1
#include <immintrin.h>
#endif

#include "common/check.h"

namespace plp {

double LogAdd(double a, double b) {
  if (std::isinf(a) && a < 0) return b;
  if (std::isinf(b) && b < 0) return a;
  const double m = std::max(a, b);
  return m + std::log(std::exp(a - m) + std::exp(b - m));
}

double LogSumExp(std::span<const double> xs) {
  if (xs.empty()) return -std::numeric_limits<double>::infinity();
  double m = -std::numeric_limits<double>::infinity();
  for (double x : xs) m = std::max(m, x);
  if (std::isinf(m) && m < 0) return m;
  double sum = 0.0;
  for (double x : xs) sum += std::exp(x - m);
  return m + std::log(sum);
}

double LogBinomial(int n, int k) {
  PLP_CHECK(k >= 0 && k <= n);
  return std::lgamma(n + 1.0) - std::lgamma(k + 1.0) -
         std::lgamma(n - k + 1.0);
}

double NormalCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

namespace {

// Continued fraction for the incomplete beta function (Numerical Recipes'
// betacf, modified Lentz).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3.0e-14;
  constexpr double kFpMin = 1.0e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double RegularizedIncompleteBeta(double a, double b, double x) {
  PLP_CHECK_GT(a, 0.0);
  PLP_CHECK_GT(b, 0.0);
  PLP_CHECK(x >= 0.0 && x <= 1.0);
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  const double ln_front = std::lgamma(a + b) - std::lgamma(a) -
                          std::lgamma(b) + a * std::log(x) +
                          b * std::log1p(-x);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return std::exp(ln_front) * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - std::exp(ln_front) * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

namespace {

// Series expansion of P(a, x), converges fast for x < a + 1 (Numerical
// Recipes' gser).
double LowerGammaSeries(double a, double x) {
  constexpr int kMaxIter = 500;
  constexpr double kEps = 3.0e-14;
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int i = 0; i < kMaxIter; ++i) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * kEps) break;
  }
  return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

// Continued fraction of Q(a, x), converges fast for x >= a + 1 (Numerical
// Recipes' gcf, modified Lentz).
double UpperGammaContinuedFraction(double a, double x) {
  constexpr int kMaxIter = 500;
  constexpr double kEps = 3.0e-14;
  constexpr double kFpMin = 1.0e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kFpMin;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIter; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = b + an / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

}  // namespace

double RegularizedLowerIncompleteGamma(double a, double x) {
  PLP_CHECK_GT(a, 0.0);
  PLP_CHECK(x >= 0.0);
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return LowerGammaSeries(a, x);
  return 1.0 - UpperGammaContinuedFraction(a, x);
}

double RegularizedUpperIncompleteGamma(double a, double x) {
  PLP_CHECK_GT(a, 0.0);
  PLP_CHECK(x >= 0.0);
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - LowerGammaSeries(a, x);
  return UpperGammaContinuedFraction(a, x);
}

double KolmogorovComplementaryCdf(double t) {
  PLP_CHECK(t >= 0.0);
  // The series alternates and its terms decay like exp(-2k²t²); for tiny t
  // it converges slowly and Q(t) -> 1, so short-circuit.
  if (t < 1e-3) return 1.0;
  double sum = 0.0;
  double sign = 1.0;
  for (int k = 1; k <= 100; ++k) {
    const double term = std::exp(-2.0 * k * k * t * t);
    sum += sign * term;
    if (term < 1e-16) break;
    sign = -sign;
  }
  return Clamp(2.0 * sum, 0.0, 1.0);
}

double StudentTTwoSidedPValue(double t, double df) {
  PLP_CHECK_GT(df, 0.0);
  const double x = df / (df + t * t);
  return RegularizedIncompleteBeta(df / 2.0, 0.5, x);
}

// ---------------------------------------------------------------------------
// Dispatched double-precision kernels.
//
// The AVX2 bodies implement exactly the portable spec: the dot's four
// 256-bit accumulators hold lanes s_{4k}..s_{4k+3}, the two vaddpd
// combines produce lanes u_l = (s_l + s_{l+4}) + (s_{l+8} + s_{l+12}),
// and the final scalar combine is ((u0+u1) + (u2+u3)) + tail. Multiplies
// and adds stay separate instructions (the target below enables AVX2 but
// not FMA, so the compiler cannot contract them), which keeps every
// rounding step identical to the scalar fallback.
// ---------------------------------------------------------------------------

namespace internal_simd {
namespace {

#if PLP_SIMD_X86

__attribute__((target("avx2"))) double DotAvx2(const double* a,
                                               const double* b, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_add_pd(
        acc0, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(a + i + 4),
                                             _mm256_loadu_pd(b + i + 4)));
    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(_mm256_loadu_pd(a + i + 8),
                                             _mm256_loadu_pd(b + i + 8)));
    acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(_mm256_loadu_pd(a + i + 12),
                                             _mm256_loadu_pd(b + i + 12)));
  }
  // Lane l of `u` is (s_l + s_{l+4}) + (s_{l+8} + s_{l+12}).
  const __m256d u =
      _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, u);
  double tail = 0.0;
  for (; i < n; ++i) tail += a[i] * b[i];
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail;
}

__attribute__((target("avx2"))) void AxpyAvx2(double alpha, const double* x,
                                              double* y, size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(va, _mm256_loadu_pd(x + i))));
    _mm256_storeu_pd(
        y + i + 4,
        _mm256_add_pd(_mm256_loadu_pd(y + i + 4),
                      _mm256_mul_pd(va, _mm256_loadu_pd(x + i + 4))));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(va, _mm256_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2"))) void ScaleAvx2(double alpha, double* x,
                                               size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(va, _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

__attribute__((target("avx2"))) void SubAvx2(const double* a, const double* b,
                                             double* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i, _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

// The float32 16-lane spec mapped onto two 8-float registers: acc0 holds
// lanes s_0..s_7, acc1 holds s_8..s_15. low(acc)+high(acc) produces
// (s_l + s_{l+4}) per register, and adding the two 128-bit halves yields
// u_l = (s_l + s_{l+4}) + (s_{l+8} + s_{l+12}) — exactly the portable
// combine, term for term.
__attribute__((target("avx2"))) inline float CombineF32Spec(__m256 acc0,
                                                            __m256 acc1,
                                                            float tail) {
  const __m128 u = _mm_add_ps(
      _mm_add_ps(_mm256_castps256_ps128(acc0), _mm256_extractf128_ps(acc0, 1)),
      _mm_add_ps(_mm256_castps256_ps128(acc1),
                 _mm256_extractf128_ps(acc1, 1)));
  alignas(16) float lanes[4];
  _mm_store_ps(lanes, u);
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail;
}

// F16C vcvtph2ps is the exact conversion HalfToFloat implements, and the
// target enables f16c + avx2 but not fma, so mul/add cannot contract:
// every rounding step matches DotF16KernelPortable.
__attribute__((target("avx2,f16c"))) float DotF16Avx2(const uint16_t* a,
                                                      const float* b,
                                                      size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 a0 = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    const __m256 a1 = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i + 8)));
    acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(a0, _mm256_loadu_ps(b + i)));
    acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(a1, _mm256_loadu_ps(b + i + 8)));
  }
  float tail = 0.0f;
  for (; i < n; ++i) tail += HalfToFloat(a[i]) * b[i];
  return CombineF32Spec(acc0, acc1, tail);
}

#endif  // PLP_SIMD_X86

}  // namespace

// Constant-initialized to the portable bodies so calls during other
// translation units' static initialization are always safe.
double (*dot)(const double*, const double*, size_t) = &DotKernelPortable<double>;
void (*axpy)(double, const double*, double*, size_t) =
    &AxpyKernelPortable<double>;
void (*scale)(double, double*, size_t) = &ScaleKernelPortable<double>;
void (*sub)(const double*, const double*, double*, size_t) =
    &SubKernelPortable<double>;
float (*dot_f16)(const uint16_t*, const float*, size_t) =
    &DotF16KernelPortable;

namespace {

bool avx2_active = false;
bool f16c_active = false;

#if PLP_SIMD_X86
/// Rebinds the dispatch pointers to the AVX2 bodies when the CPU has
/// them. Runs during this translation unit's static initialization —
/// before main and before any thread exists, so the writes are unsynced
/// but unobservable mid-flight; and because both bodies are bitwise
/// identical, even an earlier initializer that already called through the
/// portable default got the same answer.
const bool simd_init = [] {
  if (__builtin_cpu_supports("avx2")) {
    dot = &DotAvx2;
    axpy = &AxpyAvx2;
    scale = &ScaleAvx2;
    sub = &SubAvx2;
    avx2_active = true;
    if (__builtin_cpu_supports("f16c")) {
      dot_f16 = &DotF16Avx2;
      f16c_active = true;
    }
  }
  return true;
}();
#endif  // PLP_SIMD_X86

}  // namespace

bool Avx2Active() { return avx2_active; }

bool F16cActive() { return f16c_active; }

}  // namespace internal_simd

SigmoidLut::SigmoidLut() {
  for (size_t k = 0; k <= kNumIntervals; ++k) {
    const double x = -kBound + static_cast<double>(k) / kInvStep;
    table_[k] = 1.0 / (1.0 + std::exp(-x));
  }
}

const SigmoidLut& SigmoidLut::Get() {
  static const SigmoidLut lut;
  return lut;
}

ExpNegLut::ExpNegLut() {
  for (size_t k = 0; k <= kNumIntervals; ++k) {
    const double x = -kBound + static_cast<double>(k) / kInvStep;
    table_[k] = std::exp(x);
  }
}

const ExpNegLut& ExpNegLut::Get() {
  static const ExpNegLut lut;
  return lut;
}

double FastSigmoid(double x) { return SigmoidLut::Get()(x); }

void WarmFastMathTables() {
  SigmoidLut::Get();
  ExpNegLut::Get();
}

double SigmoidReference(double x) { return 1.0 / (1.0 + std::exp(-x)); }

double ExpNegReference(double x) { return std::exp(x); }

double L2Norm(std::span<const double> xs) {
  return std::sqrt(SumSquaresKernel(xs.data(), xs.size()));
}

double Dot(std::span<const double> a, std::span<const double> b) {
  PLP_CHECK_EQ(a.size(), b.size());
  return DotKernel(a.data(), b.data(), a.size());
}

void NormalizeL2(std::span<double> xs) {
  const double norm = L2Norm(xs);
  if (norm == 0.0) return;
  for (double& x : xs) x /= norm;
}

double Clamp(double x, double lo, double hi) {
  return std::min(std::max(x, lo), hi);
}

}  // namespace plp
