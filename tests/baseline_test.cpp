#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "baseline/boruvka_clique.hpp"
#include "comm/primitives.hpp"
#include "graph/generators.hpp"
#include "graph/sequential.hpp"
#include "graph/verify.hpp"
#include "lotker/cc_mst.hpp"

namespace ccq {
namespace {

class BoruvkaCliqueSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoruvkaCliqueSeeds, MatchesKruskalOnCliques) {
  Rng rng{GetParam()};
  for (std::uint32_t n : {8u, 33u, 100u}) {
    const auto g = random_weighted_clique(n, rng);
    CliqueEngine engine{{.n = n}};
    const auto result =
        boruvka_clique_msf(
            engine, FiniteAdjacency{CliqueWeights::from_graph(g)});
    const auto check = verify_msf(g, result.msf);
    EXPECT_TRUE(check.ok) << "n=" << n << ": " << check.message;
  }
}

TEST_P(BoruvkaCliqueSeeds, MatchesKruskalOnSparseGraphs) {
  Rng rng{GetParam() + 30};
  const std::uint32_t n = 64;
  const auto g = random_weights(gnp(n, 0.2, rng), 1 << 20, rng);
  CliqueEngine engine{{.n = n}};
  auto result =
      boruvka_clique_msf(engine, FiniteAdjacency{CliqueWeights::from_graph(g)});
  std::sort(result.msf.begin(), result.msf.end(), weight_less);
  EXPECT_EQ(result.msf, kruskal_msf(g));
}

TEST_P(BoruvkaCliqueSeeds, DisconnectedInputsYieldForests) {
  Rng rng{GetParam() + 60};
  const std::uint32_t n = 48;
  const auto base = random_components(n, 3, 40, rng);
  const auto g = random_weights(base, 1 << 20, rng);
  CliqueEngine engine{{.n = n}};
  auto result =
      boruvka_clique_msf(engine, FiniteAdjacency{CliqueWeights::from_graph(g)});
  std::sort(result.msf.begin(), result.msf.end(), weight_less);
  EXPECT_EQ(result.msf, kruskal_msf(g));
  EXPECT_EQ(result.msf.size(), n - 3u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoruvkaCliqueSeeds,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

TEST(BoruvkaClique, PhaseCountIsLogarithmic) {
  Rng rng{42};
  for (std::uint32_t n : {16u, 64u, 256u}) {
    const auto g = random_weighted_clique(n, rng);
    CliqueEngine engine{{.n = n}};
    const auto result =
        boruvka_clique_msf(
            engine, FiniteAdjacency{CliqueWeights::from_graph(g)});
    const auto log_n = static_cast<std::uint32_t>(std::bit_width(n - 1));
    EXPECT_LE(result.phases, log_n) << "n=" << n;
    EXPECT_GE(result.phases, 2u) << "n=" << n;
  }
}

TEST(BoruvkaClique, TournamentCliqueForcesLogNPhases) {
  // The separation the paper's introduction describes: on the adversarial
  // tournament weights Borůvka needs exactly log2(n) phases where CC-MST
  // needs ~loglog(n).
  for (std::uint32_t n : {16u, 64u, 256u}) {
    const auto g = tournament_weighted_clique(n);
    const FiniteAdjacency input{CliqueWeights::from_graph(g)};
    CliqueEngine boruvka_engine{{.n = n}};
    const auto boruvka = boruvka_clique_msf(boruvka_engine, input);
    CliqueEngine lotker_engine{{.n = n}};
    const auto lotker = cc_mst_full(lotker_engine, input);
    const auto log_n = static_cast<std::uint32_t>(std::bit_width(n - 1));
    EXPECT_EQ(boruvka.phases, log_n) << "n=" << n;
    EXPECT_LT(lotker.phases_run, boruvka.phases) << "n=" << n;
    EXPECT_TRUE(verify_msf(g, boruvka.msf).ok);
    EXPECT_TRUE(verify_msf(g, lotker.tree_edges).ok);
  }
}

TEST(TournamentClique, StructureAndValidation) {
  EXPECT_THROW(tournament_weighted_clique(12), std::logic_error);
  EXPECT_THROW(tournament_weighted_clique(0), std::logic_error);
  const auto g = tournament_weighted_clique(8);
  EXPECT_EQ(g.num_edges(), 28u);
  // The lightest incident edge of x is to x^1 (level-0 partner).
  for (VertexId x = 0; x < 8; ++x) {
    Weight best = kInfiniteWeight;
    VertexId arg = x;
    for (const auto& nb : g.neighbors(x))
      if (nb.w < best) {
        best = nb.w;
        arg = nb.to;
      }
    EXPECT_EQ(arg, x ^ 1u) << "x=" << x;
  }
}

TEST(BoruvkaClique, TrivialInputs) {
  CliqueEngine e1{{.n = 1}};
  EXPECT_TRUE(boruvka_clique_msf(e1, FiniteAdjacency{Graph{1}}).msf.empty());
  CliqueEngine e2{{.n = 4}};
  EXPECT_TRUE(boruvka_clique_msf(e2, FiniteAdjacency{Graph{4}}).msf.empty());
}

TEST(Kt0Discipline, AlgorithmsRejectUnresolvedKt0) {
  Rng rng{3};
  const std::uint32_t n = 16;
  const auto g = random_weighted_clique(n, rng);
  const FiniteAdjacency input{CliqueWeights::from_graph(g)};
  CliqueEngine engine{{.n = n, .knowledge = Knowledge::KT0}};
  EXPECT_THROW(boruvka_clique_msf(engine, input), ProtocolError);
  EXPECT_THROW(cc_mst_full(engine, input), ProtocolError);
}

TEST(Kt0Discipline, ResolutionUnlocksAlgorithms) {
  Rng rng{5};
  const std::uint32_t n = 16;
  const auto g = random_weighted_clique(n, rng);
  CliqueEngine engine{{.n = n, .knowledge = Knowledge::KT0}};
  resolve_ids_kt0(engine);
  const auto result =
      boruvka_clique_msf(engine, FiniteAdjacency{CliqueWeights::from_graph(g)});
  const auto check = verify_msf(g, result.msf);
  EXPECT_TRUE(check.ok) << check.message;
  // The bootstrap round is part of the bill: n(n-1) messages up front.
  EXPECT_GE(engine.metrics().messages, static_cast<std::uint64_t>(n) * (n - 1));
}

}  // namespace
}  // namespace ccq
