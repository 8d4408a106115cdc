#include <gtest/gtest.h>

#include "comm/primitives.hpp"
#include "core/gc.hpp"
#include "graph/generators.hpp"
#include "graph/sequential.hpp"
#include "graph/verify.hpp"
#include "lotker/cc_mst.hpp"

namespace ccq {
namespace {

class VerifySeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VerifySeeds, AgreesWithGroundTruth) {
  Rng rng{GetParam()};
  for (std::uint32_t k : {1u, 2u, 4u}) {
    const std::uint32_t n = 96;
    const auto g = random_components(n, k, 60, rng);
    CliqueEngine engine{{.n = n}};
    const auto r = gc_verify_connectivity(engine, g, rng);
    EXPECT_TRUE(r.monte_carlo_ok);
    EXPECT_EQ(r.connected, k == 1) << "k=" << k;
  }
}

TEST_P(VerifySeeds, DisconnectedInputsExitEarly) {
  // Small components finish (become isolated in the component graph) within
  // a phase or two, triggering the Section 2.2 early exit before Phase 2.
  Rng rng{GetParam() + 10};
  const std::uint32_t n = 128;
  Graph g{n};
  const auto big = random_connected(n - 3, 80, rng);
  for (const auto& e : big.edges()) g.add_edge(e.u, e.v);
  // A 3-vertex island: finishes immediately and triggers the early exit.
  g.add_edge(n - 3, n - 2);
  g.add_edge(n - 2, n - 1);
  CliqueEngine engine{{.n = n}};
  const auto r = gc_verify_connectivity(engine, g, rng);
  EXPECT_FALSE(r.connected);
  EXPECT_TRUE(r.early_exit);
}

TEST_P(VerifySeeds, ConnectedInputsOftenExitEarlyToo) {
  // Once CC-MST collapses the graph to one cluster the verifier answers
  // "connected" without Phase 2.
  Rng rng{GetParam() + 20};
  const std::uint32_t n = 64;
  const auto g = random_connected(n, 3 * n, rng);
  CliqueEngine engine{{.n = n}};
  const auto r = gc_verify_connectivity(engine, g, rng);
  EXPECT_TRUE(r.connected);
  EXPECT_TRUE(r.early_exit);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifySeeds, ::testing::Values(1, 2, 3, 5, 8));

TEST(GcVerify, TrivialGraphs) {
  Rng rng{9};
  {
    CliqueEngine engine{{.n = 1}};
    EXPECT_TRUE(gc_verify_connectivity(engine, Graph{1}, rng).connected);
  }
  {
    CliqueEngine engine{{.n = 4}};
    const auto r = gc_verify_connectivity(engine, Graph{4}, rng);
    EXPECT_FALSE(r.connected);
    EXPECT_TRUE(r.early_exit);
  }
}

TEST(GcVerify, CheaperThanFullGcOnEarlyExit) {
  Rng rng{11};
  const std::uint32_t n = 96;
  const auto g = random_components(n, 4, 50, rng);
  CliqueEngine verify_engine{{.n = n}};
  Rng r1{1};
  const auto v = gc_verify_connectivity(verify_engine, g, r1);
  CliqueEngine full_engine{{.n = n}};
  Rng r2{1};
  gc_spanning_forest(full_engine, g, r2);
  EXPECT_TRUE(v.early_exit);
  EXPECT_LE(verify_engine.metrics().rounds, full_engine.metrics().rounds + 4);
}

TEST(GcKt0, BootstrapThenSolve) {
  Rng rng{13};
  const std::uint32_t n = 64;
  const auto g = random_components(n, 2, 40, rng);
  CliqueEngine engine{{.n = n, .knowledge = Knowledge::KT0}};
  const auto r = gc_spanning_forest_kt0(engine, g, rng);
  EXPECT_FALSE(r.connected);
  const auto check = verify_spanning_forest(g, r.forest);
  EXPECT_TRUE(check.ok) << check.message;
  // The KT0 bill includes the n(n-1)-message ID bootstrap.
  EXPECT_GE(engine.metrics().messages,
            static_cast<std::uint64_t>(n) * (n - 1));
}

TEST(GcKt0, RejectsKt1Engines) {
  Rng rng{15};
  CliqueEngine engine{{.n = 8}};  // KT1 by default
  EXPECT_THROW(gc_spanning_forest_kt0(engine, Graph{8}, rng),
               std::logic_error);
}

TEST(GcKt0, UnresolvedKt0Rejected) {
  Rng rng{17};
  CliqueEngine engine{{.n = 8, .knowledge = Knowledge::KT0}};
  EXPECT_THROW(gc_spanning_forest(engine, Graph{8}, rng), ProtocolError);
}

TEST(CcMstStep, IncrementalMatchesBatch) {
  Rng rng{19};
  const std::uint32_t n = 64;
  const auto g = random_weighted_clique(n, rng);
  const FiniteAdjacency input{CliqueWeights::from_graph(g)};
  CliqueEngine e1{{.n = n}};
  auto state = cc_mst_initial_state(n);
  cc_mst_step(e1, input, state);
  cc_mst_step(e1, input, state);
  CliqueEngine e2{{.n = n}};
  const auto batch = cc_mst_phases(e2, input, 2);
  EXPECT_EQ(state.cluster_of, batch.cluster_of);
  EXPECT_EQ(state.tree_edges, batch.tree_edges);
  EXPECT_EQ(e1.metrics().rounds, e2.metrics().rounds);
  EXPECT_EQ(e1.metrics().messages, e2.metrics().messages);
}

TEST(CcMstStep, ReturnsZeroWhenDone) {
  Rng rng{21};
  const std::uint32_t n = 16;
  const FiniteAdjacency input{
      CliqueWeights::from_graph(random_weighted_clique(n, rng))};
  CliqueEngine engine{{.n = n}};
  auto state = cc_mst_initial_state(n);
  while (cc_mst_step(engine, input, state) > 0) {
  }
  EXPECT_EQ(state.num_clusters(), 1u);
  EXPECT_EQ(cc_mst_step(engine, input, state), 0u);
}

}  // namespace
}  // namespace ccq
