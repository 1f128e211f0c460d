#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "common/math_util.h"
#include "common/rng.h"
#include "serve/model_snapshot.h"
#include "sgns/model.h"

namespace plp::serve {
namespace {

sgns::SgnsModel MakeModel(uint64_t seed, int32_t locations = 50,
                          int32_t dim = 10) {
  Rng rng(seed);
  sgns::SgnsConfig config;
  config.embedding_dim = dim;
  config.init_scale = 1.0;
  auto model = sgns::SgnsModel::Create(locations, config, rng);
  EXPECT_TRUE(model.ok());
  return std::move(model).value();
}

std::shared_ptr<const ModelSnapshot> MakeSnapshot(uint64_t seed,
                                                  SnapshotFormat format,
                                                  int32_t locations = 50,
                                                  int32_t dim = 10) {
  SnapshotOptions options;
  options.format = format;
  auto snapshot =
      ModelSnapshot::FromModel(MakeModel(seed, locations, dim), 1, options);
  EXPECT_TRUE(snapshot.ok());
  return std::move(snapshot).value();
}

float L1Norm(std::span<const float> v) {
  float sum = 0.0f;
  for (float x : v) sum += std::fabs(x);
  return sum;
}

// ---------------------------------------------------------------------------
// Half conversion: FloatToHalf/HalfToFloat are the software model of F16C
// vcvtps2ph/vcvtph2ps, so the dispatched and portable fp16 kernels see the
// same bits. These tests pin the conversion itself.

TEST(HalfConversionTest, RoundTripsExactHalfValues) {
  // Every value exactly representable in binary16 must survive the
  // float → half → float round trip bit-for-bit.
  const float exact[] = {0.0f,    -0.0f,  1.0f,     -1.0f,   0.5f,
                         2.0f,    1024.0f, 65504.0f, -65504.0f,
                         0.000030517578125f /* smallest normal 2^-15 */,
                         5.9604644775390625e-08f /* smallest subnormal */};
  for (float v : exact) {
    EXPECT_EQ(HalfToFloat(FloatToHalf(v)), v) << "value " << v;
  }
}

TEST(HalfConversionTest, RoundsToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and the next half
  // (1 + 2^-10); round-to-nearest-even keeps 1.0 (even mantissa).
  EXPECT_EQ(HalfToFloat(FloatToHalf(1.0f + 0x1p-11f)), 1.0f);
  // Just above the midpoint rounds up.
  EXPECT_EQ(HalfToFloat(FloatToHalf(1.0f + 0x1p-11f + 0x1p-20f)),
            1.0f + 0x1p-10f);
  // 1 + 3·2^-11 is halfway between 1+2^-10 and 1+2^-9; the even
  // neighbour is 1+2^-9 (mantissa ..10).
  EXPECT_EQ(HalfToFloat(FloatToHalf(1.0f + 3 * 0x1p-11f)), 1.0f + 0x1p-9f);
}

TEST(HalfConversionTest, HandlesOverflowAndNan) {
  EXPECT_EQ(FloatToHalf(1.0e6f), 0x7c00u);   // +inf
  EXPECT_EQ(FloatToHalf(-1.0e6f), 0xfc00u);  // -inf
  EXPECT_EQ(FloatToHalf(std::numeric_limits<float>::infinity()), 0x7c00u);
  EXPECT_EQ(FloatToHalf(std::numeric_limits<float>::quiet_NaN()), 0x7e00u);
  // Below half the smallest subnormal flushes to signed zero.
  EXPECT_EQ(FloatToHalf(1.0e-9f), 0x0000u);
  EXPECT_EQ(FloatToHalf(-1.0e-9f), 0x8000u);
}

TEST(HalfConversionTest, RelativeErrorWithinHalfUlp) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    const float v = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
    const float back = HalfToFloat(FloatToHalf(v));
    // binary16 has 11 significand bits → relative error ≤ 2^-12 + slack
    // for values in the normal range.
    EXPECT_LE(std::fabs(back - v), std::fabs(v) * 0x1p-11f + 1e-12f)
        << "value " << v;
  }
}

// ---------------------------------------------------------------------------
// Dispatched vs portable: the AVX2/F16C body implements the same fixed
// 16-lane reduction spec as the portable loop, and half→float conversion is
// exact in both, so results must be bitwise identical on every length
// (including tails of every residue mod 16).

TEST(QuantizedKernelTest, DispatchedF16MatchesPortableBitwise) {
  Rng rng(7);
  for (size_t n = 0; n <= 70; ++n) {
    std::vector<uint16_t> a(n);
    std::vector<float> b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = FloatToHalf(static_cast<float>(rng.Uniform() * 2.0 - 1.0));
      b[i] = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
    }
    const float dispatched = DotF16Kernel(a.data(), b.data(), n);
    const float portable = DotF16KernelPortable(a.data(), b.data(), n);
    EXPECT_EQ(dispatched, portable) << "length " << n;
  }
}

// ---------------------------------------------------------------------------
// Snapshot formats.

TEST(QuantizedSnapshotTest, FormatAndMemoryFootprint) {
  const auto f32 = MakeSnapshot(3, SnapshotFormat::kFloat32, 64, 16);
  const auto fp16 = MakeSnapshot(3, SnapshotFormat::kFloat16, 64, 16);

  EXPECT_EQ(f32->format(), SnapshotFormat::kFloat32);
  EXPECT_EQ(fp16->format(), SnapshotFormat::kFloat16);

  const size_t elems = 64u * 16u;
  EXPECT_EQ(f32->memory_bytes(), elems * sizeof(float));
  EXPECT_EQ(fp16->memory_bytes(), elems * sizeof(uint16_t));

  // fp16 snapshots drop the float matrix — that is the footprint win.
  EXPECT_TRUE(fp16->embeddings().empty());
}

TEST(QuantizedSnapshotTest, ChecksumsDifferAcrossFormats) {
  const auto f32 = MakeSnapshot(3, SnapshotFormat::kFloat32);
  const auto fp16 = MakeSnapshot(3, SnapshotFormat::kFloat16);
  EXPECT_NE(f32->checksum(), fp16->checksum());
  // Rebuilding from the same model reproduces the same checksum.
  EXPECT_EQ(MakeSnapshot(3, SnapshotFormat::kFloat16)->checksum(),
            fp16->checksum());
}

TEST(QuantizedSnapshotTest, Fp16ScoreErrorWithinBound) {
  const int32_t locations = 200;
  const int32_t dim = 32;
  const auto exact = MakeSnapshot(5, SnapshotFormat::kFloat32, locations, dim);
  const auto fp16 = MakeSnapshot(5, SnapshotFormat::kFloat16, locations, dim);

  const std::vector<int32_t> history = {1, 17, 42, 99};
  const std::vector<float> profile = exact->Profile(history);
  // Per element the binary16 representation error is ≤ 2^-11·|v| (unit-norm
  // rows keep every coordinate in [-1, 1], well inside the normal range),
  // so |score_fp16 - score_f32| ≤ 2^-11·Σ|profile_i| plus summation slack.
  const float bound = 0x1p-11f * L1Norm(profile) + 1e-5f;
  for (int32_t l = 0; l < locations; ++l) {
    const float s_exact = exact->ScoreRow(l, profile.data());
    const float s_fp16 = fp16->ScoreRow(l, profile.data());
    EXPECT_LE(std::fabs(s_fp16 - s_exact), bound) << "row " << l;
  }
}

TEST(QuantizedSnapshotTest, DequantizedRowsNearExactRows) {
  const int32_t dim = 16;
  const auto exact = MakeSnapshot(9, SnapshotFormat::kFloat32, 40, dim);
  const auto fp16 = MakeSnapshot(9, SnapshotFormat::kFloat16, 40, dim);
  std::vector<float> row(static_cast<size_t>(dim));
  for (int32_t l = 0; l < 40; ++l) {
    fp16->DequantizeRow(l, row);
    const std::span<const float> reference = exact->Row(l);
    for (int32_t d = 0; d < dim; ++d) {
      EXPECT_LE(std::fabs(row[static_cast<size_t>(d)] -
                          reference[static_cast<size_t>(d)]),
                0x1p-11f)
          << "row " << l << " dim " << d;
    }
  }
}

TEST(QuantizedSnapshotTest, TopKOnQuantizedFormatsIsSane) {
  const auto exact = MakeSnapshot(13, SnapshotFormat::kFloat32, 100, 16);
  const auto fp16 = MakeSnapshot(13, SnapshotFormat::kFloat16, 100, 16);

  const std::vector<int32_t> history = {3, 50, 77};
  const auto exact_top = TopKScores(*exact, exact->Profile(history), 10);
  const auto fp16_top = TopKScores(*fp16, fp16->Profile(history), 10);
  ASSERT_EQ(exact_top.size(), 10u);
  ASSERT_EQ(fp16_top.size(), 10u);
  // Quantization perturbs scores within the tested bound; the top-10 sets
  // should still overlap heavily on a 100-row vocabulary.
  int overlap = 0;
  for (const auto& q : fp16_top) {
    for (const auto& e : exact_top) {
      if (q.location == e.location) ++overlap;
    }
  }
  EXPECT_GE(overlap, 8) << "fp16 top-10 diverged from exact top-10";
}

TEST(QuantizedSnapshotTest, ReplicateIsDeepCopy) {
  const auto original = MakeSnapshot(21, SnapshotFormat::kFloat16, 30, 8);
  const auto replica = original->Replicate();
  ASSERT_NE(replica, nullptr);
  EXPECT_NE(replica.get(), original.get());
  EXPECT_EQ(replica->checksum(), original->checksum());
  EXPECT_EQ(replica->format(), original->format());
  EXPECT_EQ(replica->num_locations(), original->num_locations());

  // Same scores through independent storage.
  const std::vector<int32_t> history = {2, 9};
  const std::vector<float> profile = original->Profile(history);
  std::vector<float> row_a(8), row_b(8);
  for (int32_t l = 0; l < 30; ++l) {
    EXPECT_EQ(original->ScoreRow(l, profile.data()),
              replica->ScoreRow(l, profile.data()));
    original->DequantizeRow(l, row_a);
    replica->DequantizeRow(l, row_b);
    EXPECT_EQ(row_a, row_b);
  }
}

// ---------------------------------------------------------------------------
// Serving-bit pins: for one fixed-seed model and history, the checksum and
// the exact and IVF top-k answers (ids and score bit patterns) of f32 and
// fp16 snapshots, with and without the index. Any change to the build, the
// payload hash, the profile or the scan that moves a served bit fails here.

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string ScoreBits(const std::vector<ScoredLocation>& top) {
  std::string out;
  for (const ScoredLocation& s : top) {
    uint32_t bits = 0;
    std::memcpy(&bits, &s.score, sizeof(bits));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%d:%08x ", s.location, bits);
    out += buf;
  }
  return out;
}

struct ServingPin {
  SnapshotFormat format;
  bool ivf;
  const char* checksum;
  const char* top_k;
  const char* approx_top_k;
};

TEST(QuantizedSnapshotTest, ServingBitsPinned) {
  const sgns::SgnsModel model = MakeModel(31, 300, 24);
  const std::vector<int32_t> history = {4, 88, 150, 271};
  const std::vector<int32_t> exclude = {150};
  // The index never enters the checksum or the exact scan; without one,
  // ApproxTopKScores is the exact scan.
  const char* f32_exact =
      "33:3f04ae45 14:3f02c8d0 88:3efa81cc 81:3ef5b6df 171:3ef4640a "
      "199:3eed9106 271:3eea3670 187:3ed3ecf0 269:3ed2fa2c 32:3ed08f92 ";
  const char* fp16_exact =
      "33:3f04a8c1 14:3f02cbfc 88:3efa7824 81:3ef5af8a 171:3ef4617a "
      "199:3eed9508 271:3eea3069 187:3ed3e560 269:3ed2edac 32:3ed09695 ";
  const ServingPin pins[] = {
      {SnapshotFormat::kFloat32, false, "8aa24f715420d364", f32_exact,
       f32_exact},
      {SnapshotFormat::kFloat32, true, "8aa24f715420d364", f32_exact,
       "33:3f04ae45 14:3f02c8d0 88:3efa81cc 81:3ef5b6df 171:3ef4640a "
       "199:3eed9106 4:3ed0017e 292:3eccb8fc 168:3ebe76ba 255:3eb84748 "},
      {SnapshotFormat::kFloat16, false, "b70575597b58ccca", fp16_exact,
       fp16_exact},
      {SnapshotFormat::kFloat16, true, "b70575597b58ccca", fp16_exact,
       "33:3f04a8c1 14:3f02cbfc 88:3efa7824 81:3ef5af8a 171:3ef4617a "
       "199:3eed9508 4:3ed00dec 292:3eccbd4e 168:3ebe85ae 255:3eb8558f "},
  };
  for (const ServingPin& pin : pins) {
    SCOPED_TRACE(std::string(FormatName(pin.format)) +
                 (pin.ivf ? "+ivf" : ""));
    SnapshotOptions options;
    options.format = pin.format;
    options.build_ivf = pin.ivf;
    auto snapshot_or = ModelSnapshot::FromModel(model, 1, options);
    ASSERT_TRUE(snapshot_or.ok());
    const ModelSnapshot& snapshot = **snapshot_or;
    const std::vector<float> profile = snapshot.Profile(history);
    EXPECT_EQ(Hex64(snapshot.checksum()), pin.checksum);
    EXPECT_EQ(ScoreBits(TopKScores(snapshot, profile, 10, exclude)),
              pin.top_k);
    EXPECT_EQ(ScoreBits(ApproxTopKScores(snapshot, profile, 10,
                                         /*nprobe=*/0, exclude)),
              pin.approx_top_k);
  }
}

TEST(QuantizedSnapshotTest, ParseFormatSpellings) {
  EXPECT_EQ(ParseSnapshotFormat("f32").value(), SnapshotFormat::kFloat32);
  EXPECT_EQ(ParseSnapshotFormat("float32").value(), SnapshotFormat::kFloat32);
  EXPECT_EQ(ParseSnapshotFormat("fp16").value(), SnapshotFormat::kFloat16);
  EXPECT_EQ(ParseSnapshotFormat("float16").value(), SnapshotFormat::kFloat16);
  EXPECT_FALSE(ParseSnapshotFormat("bf16").ok());
  // Any other spelling, int8 included, is refused with the supported list.
  const auto refused = ParseSnapshotFormat("int8");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status().message().find("f32"), std::string::npos);
  EXPECT_NE(refused.status().message().find("fp16"), std::string::npos);
  EXPECT_STREQ(FormatName(SnapshotFormat::kFloat16), "fp16");
}

}  // namespace
}  // namespace plp::serve
