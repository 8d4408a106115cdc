// The wide-bandwidth variants across the stack: the engine budget knob must
// accelerate (never break) every algorithm, reproducing the paper's
// bandwidth statements (Theorems 4 and 7's O(log^5 n)-bit clauses and the
// Lotker et al. n^eps-bit extension quoted in Section 1.1).
#include <gtest/gtest.h>

#include "core/exact_mst.hpp"
#include "core/gc.hpp"
#include "kt1/boruvka_sketch_mst.hpp"
#include "graph/generators.hpp"
#include "graph/sequential.hpp"
#include "graph/verify.hpp"
#include "lotker/cc_mst.hpp"

namespace ccq {
namespace {

class BandwidthSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BandwidthSweep, CcMstStaysExact) {
  const std::uint32_t b = GetParam();
  Rng rng{b};
  const std::uint32_t n = 128;
  const auto g = random_weighted_clique(n, rng);
  CliqueEngine engine{{.n = n, .messages_per_link = b}};
  const auto state =
      cc_mst_full(engine, FiniteAdjacency{CliqueWeights::from_graph(g)});
  const auto check = verify_msf(g, state.tree_edges);
  EXPECT_TRUE(check.ok) << "B=" << b << ": " << check.message;
}

TEST_P(BandwidthSweep, GcStaysCorrect) {
  const std::uint32_t b = GetParam();
  Rng rng{b + 10};
  const std::uint32_t n = 96;
  const auto g = random_components(n, 2, 60, rng);
  CliqueEngine engine{{.n = n, .messages_per_link = b}};
  const auto r = gc_spanning_forest(engine, g, rng);
  EXPECT_TRUE(r.monte_carlo_ok);
  EXPECT_FALSE(r.connected);
  EXPECT_TRUE(verify_spanning_forest(g, r.forest).ok);
}

TEST_P(BandwidthSweep, ExactMstStaysExact) {
  const std::uint32_t b = GetParam();
  Rng rng{b + 20};
  const std::uint32_t n = 64;
  const auto g = random_weighted_clique(n, rng);
  CliqueEngine engine{{.n = n, .messages_per_link = b}};
  auto r = exact_mst(engine, CliqueWeights::from_graph(g), rng);
  EXPECT_TRUE(r.monte_carlo_ok);
  EXPECT_TRUE(verify_msf(g, r.mst).ok) << "B=" << b;
}

INSTANTIATE_TEST_SUITE_P(Budgets, BandwidthSweep,
                         ::testing::Values(1, 2, 4, 16, 64));

TEST_P(BandwidthSweep, BoruvkaSketchMstStaysExact) {
  const std::uint32_t b = GetParam();
  Rng rng{b + 30};
  const std::uint32_t n = 48;
  const auto g = random_weights(random_connected(n, 2 * n, rng), 1 << 18, rng);
  CliqueEngine engine{{.n = n, .messages_per_link = b}};
  const auto r = boruvka_sketch_mst(engine, g, rng);
  EXPECT_TRUE(r.monte_carlo_ok);
  EXPECT_EQ(r.mst, kruskal_msf(g)) << "B=" << b;
}

TEST(Bandwidth, WiderLinksNeverMorePhases) {
  Rng rng{7};
  const std::uint32_t n = 256;
  const auto g = random_weighted_clique(n, rng);
  const FiniteAdjacency input{CliqueWeights::from_graph(g)};
  std::uint32_t prev = ~0u;
  for (std::uint32_t b : {1u, 4u, 16u}) {
    CliqueEngine engine{{.n = n, .messages_per_link = b}};
    const auto state = cc_mst_full(engine, input);
    EXPECT_LE(state.phases_run, prev) << "B=" << b;
    prev = state.phases_run;
  }
}

TEST(Bandwidth, LargeBudgetCollapsesToFewPhases) {
  // With B >= n the quota covers every other cluster already in phase 1's
  // aftermath: full completion within 2 phases.
  Rng rng{9};
  const std::uint32_t n = 128;
  const auto g = random_weighted_clique(n, rng);
  CliqueEngine engine{{.n = n, .messages_per_link = n}};
  const auto state =
      cc_mst_full(engine, FiniteAdjacency{CliqueWeights::from_graph(g)});
  EXPECT_LE(state.phases_run, 2u);
  EXPECT_TRUE(verify_msf(g, state.tree_edges).ok);
}

}  // namespace
}  // namespace ccq
