// SIMD/scalar parity for the sketch kernels (sketch/sketch_kernels).
//
// The kernels promise bit-identical results on every dispatch path; the
// engine-level determinism guarantees (serial == parallel, fused ==
// unfused, arena == direct oracle) and the docs' cross-machine
// reproducibility claim all inherit from it. Each test runs the same inputs
// through the forced-scalar path and the runtime-dispatched path (AVX2
// where the host supports it; on hosts without AVX2 or under
// -DCLIQUE_NO_SIMD both runs take the scalar path and the tests degrade to
// self-consistency checks).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sketch/l0_sketch.hpp"
#include "sketch/sketch_kernels.hpp"
#include "util/field.hpp"
#include "util/random.hpp"

namespace ccq {
namespace {

// Restore runtime dispatch even when an assertion bails out of a test.
struct ScalarGuard {
  explicit ScalarGuard(bool on) { kernels::force_scalar(on); }
  ~ScalarGuard() { kernels::force_scalar(false); }
};

struct Lanes {
  std::vector<std::int64_t> phi;
  std::vector<std::int64_t> iota;
  std::vector<std::uint64_t> tau;
};

Lanes random_lanes(std::size_t m, Rng& rng, double zero_bias) {
  Lanes l;
  l.phi.resize(m);
  l.iota.resize(m);
  l.tau.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    if (rng.next_bool(zero_bias)) continue;  // leave the cell zero
    // φ small and signed (detector counts), ι any signed value, τ a valid
    // field element — plus ±1 cells so the 1-sparse mask has hits.
    l.phi[i] = rng.next_bool(0.4) ? (rng.next_bool(0.5) ? 1 : -1)
                                  : rng.next_in(-1000, 1000);
    l.iota[i] = rng.next_in(-(1ll << 40), 1ll << 40);
    l.tau[i] = rng.next_below(field::kPrime);
  }
  return l;
}

TEST(SimdParity, AccumulateMatchesScalarBitForBit) {
  Rng rng{2024};
  // Odd sizes exercise the vector tail; 0 and 1..7 are all-tail.
  for (const std::size_t m : {0ul, 1ul, 3ul, 4ul, 7ul, 64ul, 257ul, 4096ul}) {
    const Lanes a = random_lanes(m, rng, 0.3);
    const Lanes b = random_lanes(m, rng, 0.3);
    Lanes scalar = a;
    {
      ScalarGuard g{true};
      kernels::sketch_accumulate(scalar.phi.data(), scalar.iota.data(),
                                 scalar.tau.data(), b.phi.data(),
                                 b.iota.data(), b.tau.data(), m);
    }
    Lanes dispatch = a;
    kernels::sketch_accumulate(dispatch.phi.data(), dispatch.iota.data(),
                               dispatch.tau.data(), b.phi.data(),
                               b.iota.data(), b.tau.data(), m);
    EXPECT_EQ(scalar.phi, dispatch.phi) << "m=" << m;
    EXPECT_EQ(scalar.iota, dispatch.iota) << "m=" << m;
    EXPECT_EQ(scalar.tau, dispatch.tau) << "m=" << m;
    // Field closure: every reduced τ stays canonical.
    for (const std::uint64_t t : dispatch.tau) EXPECT_LT(t, field::kPrime);
  }
}

TEST(SimdParity, AccumulateReducesTauAtTheBoundary) {
  // a + b == p must reduce to 0, p - 1 + 1 likewise; a + b == p - 1 must
  // not — the signed-compare trick in the AVX2 path has its edge exactly
  // here, at sums of p - 1, p, and p + 1.
  const std::uint64_t p = field::kPrime;
  std::vector<std::int64_t> phi(4, 0), iota(4, 0);
  std::vector<std::uint64_t> tau = {p - 1, p - 1, p - 1, 0};
  const std::vector<std::int64_t> zero(4, 0);
  const std::vector<std::uint64_t> add = {0, 1, 2, p - 1};
  std::vector<std::uint64_t> scalar_tau = tau;
  {
    ScalarGuard g{true};
    kernels::sketch_accumulate(phi.data(), iota.data(), scalar_tau.data(),
                               zero.data(), zero.data(), add.data(), 4);
  }
  std::vector<std::uint64_t> simd_tau = tau;
  kernels::sketch_accumulate(phi.data(), iota.data(), simd_tau.data(),
                             zero.data(), zero.data(), add.data(), 4);
  const std::vector<std::uint64_t> expect = {p - 1, 0, 1, p - 1};
  EXPECT_EQ(scalar_tau, expect);
  EXPECT_EQ(simd_tau, expect);
}

TEST(SimdParity, OneSparseMaskMatchesScalar) {
  Rng rng{31337};
  for (const std::size_t m : {0ul, 1ul, 5ul, 63ul, 64ul, 65ul, 1000ul}) {
    const Lanes l = random_lanes(m, rng, 0.5);
    const std::size_t words = (m + 63) / 64;
    std::vector<std::uint64_t> scalar_mask(words + 1, 0xDEADull);
    {
      ScalarGuard g{true};
      kernels::one_sparse_mask(l.phi.data(), m, scalar_mask.data());
    }
    std::vector<std::uint64_t> simd_mask(words + 1, 0xBEEFull);
    kernels::one_sparse_mask(l.phi.data(), m, simd_mask.data());
    for (std::size_t w = 0; w < words; ++w)
      EXPECT_EQ(scalar_mask[w], simd_mask[w]) << "m=" << m << " word " << w;
    // Semantics against the definition, including zeroed trailing bits.
    for (std::size_t i = 0; i < m; ++i) {
      const bool bit = (simd_mask[i / 64] >> (i % 64)) & 1;
      EXPECT_EQ(bit, l.phi[i] == 1 || l.phi[i] == -1) << "bit " << i;
    }
    if (m % 64 != 0 && words > 0) {
      EXPECT_EQ(simd_mask[words - 1] >> (m % 64), 0u) << "trailing bits";
    }
    // The word past the mask is never touched.
    EXPECT_EQ(scalar_mask[words], 0xDEADull);
    EXPECT_EQ(simd_mask[words], 0xBEEFull);
  }
}

TEST(SimdParity, AnyNonzeroMatchesScalar) {
  Rng rng{55};
  for (const std::size_t m : {0ul, 1ul, 4ul, 5ul, 128ul, 131ul}) {
    // All-zero lanes: both paths must agree on false.
    Lanes zero;
    zero.phi.assign(m, 0);
    zero.iota.assign(m, 0);
    zero.tau.assign(m, 0);
    bool scalar_zero, simd_zero;
    {
      ScalarGuard g{true};
      scalar_zero = kernels::any_nonzero(zero.phi.data(), zero.iota.data(),
                                         zero.tau.data(), m);
    }
    simd_zero = kernels::any_nonzero(zero.phi.data(), zero.iota.data(),
                                     zero.tau.data(), m);
    EXPECT_FALSE(scalar_zero) << "m=" << m;
    EXPECT_FALSE(simd_zero) << "m=" << m;
    if (m == 0) continue;
    // A single nonzero planted in each lane and position class (vector
    // body vs tail) must flip both paths to true.
    for (const std::size_t pos : {std::size_t{0}, m - 1}) {
      for (int lane = 0; lane < 3; ++lane) {
        Lanes l = zero;
        if (lane == 0) l.phi[pos] = -7;
        if (lane == 1) l.iota[pos] = 1;
        if (lane == 2) l.tau[pos] = 42;
        bool scalar_hit, simd_hit;
        {
          ScalarGuard g{true};
          scalar_hit = kernels::any_nonzero(l.phi.data(), l.iota.data(),
                                            l.tau.data(), m);
        }
        simd_hit = kernels::any_nonzero(l.phi.data(), l.iota.data(),
                                        l.tau.data(), m);
        EXPECT_TRUE(scalar_hit) << "m=" << m << " lane " << lane;
        EXPECT_TRUE(simd_hit) << "m=" << m << " lane " << lane;
      }
    }
  }
}

TEST(SimdParity, SketchLevelOperationsAgreeAcrossPaths) {
  // End-to-end: sum a pile of sketches and sample, once forced scalar and
  // once dispatched — the serialized words and the recovered sample must be
  // identical. This is the integration the engine-level determinism tests
  // assume.
  const SketchParams params = SketchParams::cormode_firmani(1 << 16, 3);
  std::vector<std::uint64_t> seed(sketch_seed_words(params));
  Rng rng{909};
  for (auto& w : seed) w = rng.next();
  const SketchFamily family{params, {seed.data(), seed.size()}};

  const auto build_sum = [&](bool scalar) {
    ScalarGuard g{scalar};
    L0Sketch sum{family};
    Rng updates{1717};
    for (int s = 0; s < 16; ++s) {
      L0Sketch part{family};
      for (int i = 0; i < 40; ++i)
        part.update(updates.next_below(1 << 16),
                    updates.next_bool(0.5) ? 1 : -1);
      sum += part;
    }
    return sum.to_words();
  };
  const auto scalar_words = build_sum(true);
  const auto simd_words = build_sum(false);
  EXPECT_EQ(scalar_words, simd_words);

  const L0Sketch restored =
      L0Sketch::from_words(family, {simd_words.data(), simd_words.size()});
  std::optional<L0Sample> scalar_sample, simd_sample;
  {
    ScalarGuard g{true};
    scalar_sample = restored.sample();
  }
  simd_sample = restored.sample();
  ASSERT_EQ(scalar_sample.has_value(), simd_sample.has_value());
  if (scalar_sample) {
    EXPECT_EQ(scalar_sample->index, simd_sample->index);
    EXPECT_EQ(scalar_sample->sign, simd_sample->sign);
  }
  bool scalar_zero, simd_zero;
  {
    ScalarGuard g{true};
    scalar_zero = restored.appears_zero();
  }
  simd_zero = restored.appears_zero();
  EXPECT_EQ(scalar_zero, simd_zero);
}

TEST(SimdParity, ActivePathReportsDispatch) {
  const std::string dispatched = kernels::active_path();
  EXPECT_TRUE(dispatched == "avx2" || dispatched == "scalar");
  ScalarGuard g{true};
  EXPECT_STREQ(kernels::active_path(), "scalar");
}

}  // namespace
}  // namespace ccq
