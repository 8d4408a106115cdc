#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>

#include "core/bipartiteness.hpp"
#include "core/component_graph.hpp"
#include "core/exact_mst.hpp"
#include "core/gc.hpp"
#include "core/k_edge_connectivity.hpp"
#include "core/kkt.hpp"
#include "core/reduce_components.hpp"
#include "core/sketch_and_span.hpp"
#include "core/sq_mst.hpp"
#include "graph/generators.hpp"
#include "graph/sequential.hpp"
#include "graph/union_find.hpp"
#include "graph/verify.hpp"
#include "lotker/cc_mst.hpp"

namespace ccq {
namespace {

TEST(ComponentGraphBuild, MatchesBruteForce) {
  Rng rng{1};
  const std::uint32_t n = 40;
  const auto g = random_components(n, 4, 30, rng);
  const auto label = connected_components(g);
  CliqueEngine engine{{.n = n}};
  const auto cg = build_component_graph(engine, g, label);
  // Four components, no inter-component edges: everything finished.
  EXPECT_TRUE(cg.active_leaders.empty());
  EXPECT_EQ(cg.leaders.size(), 4u);
  EXPECT_EQ(engine.metrics().rounds, 1u);
  EXPECT_EQ(engine.metrics().messages, 0u);
}

TEST(ComponentGraphBuild, DetectsAdjacencies) {
  // Partition a path 0-1-2-3 into components {0,1} and {2,3}: one
  // component-graph edge with witness (1,2).
  Graph g{4};
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  std::vector<VertexId> label{0, 0, 2, 2};
  CliqueEngine engine{{.n = 4}};
  const auto cg = build_component_graph(engine, g, label);
  ASSERT_EQ(cg.witness.size(), 1u);
  const auto& [pair, witness] = *cg.witness.begin();
  EXPECT_EQ(pair, component_pair(0, 2));
  EXPECT_EQ(witness.edge(), (Edge{1, 2}));
  EXPECT_EQ(cg.active_leaders.size(), 2u);
}

TEST(ComponentGraphBuild, WeightedPicksLightestWitness) {
  WeightedGraph g{4};
  g.add_edge(0, 2, 50);
  g.add_edge(1, 3, 10);  // lighter inter-component edge
  g.add_edge(0, 1, 1);
  g.add_edge(2, 3, 1);
  std::vector<VertexId> label{0, 0, 2, 2};
  CliqueEngine engine{{.n = 4}};
  const auto cg =
      build_component_graph_weighted(engine, g.edges(), 4, label);
  ASSERT_EQ(cg.witness.size(), 1u);
  EXPECT_EQ(cg.witness.begin()->second, (WeightedEdge{1, 3, 10}));
}

// Golden pins for BUILDCOMPONENTGRAPH, captured before its rewrite onto
// flat arrays: the observer's message sequence, the charged counts, the
// witness map and the leader lists must stay identical bit for bit.
std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct ComponentGraphPin {
  std::uint64_t messages;
  std::uint64_t words;
  std::uint64_t observer_digest;
  std::uint64_t witness_count;
  std::uint64_t witness_digest;
  std::uint64_t active_count;
  std::uint64_t leader_digest;  // active_leaders, then leaders
};

template <typename Build>
void expect_component_graph_pin(std::uint32_t n, Build build,
                                const ComponentGraphPin& pin) {
  CliqueEngine engine{{.n = n}};
  std::uint64_t observed = 0xcbf29ce484222325ULL;
  engine.set_observer([&](VertexId s, VertexId d) {
    observed = fnv_mix(observed, (static_cast<std::uint64_t>(s) << 32) | d);
  });
  const ComponentGraph cg = build(engine);
  std::uint64_t witness = 0xcbf29ce484222325ULL;
  for (const auto& [pair, e] : cg.witness)
    for (std::uint64_t word : {std::uint64_t{pair.first},
                               std::uint64_t{pair.second},
                               std::uint64_t{e.u}, std::uint64_t{e.v}, e.w})
      witness = fnv_mix(witness, word);
  std::uint64_t leaders = 0xcbf29ce484222325ULL;
  for (VertexId v : cg.active_leaders) leaders = fnv_mix(leaders, v);
  for (VertexId v : cg.leaders) leaders = fnv_mix(leaders, v);
  EXPECT_EQ(engine.metrics().rounds, 1u);
  EXPECT_EQ(engine.metrics().messages, pin.messages);
  EXPECT_EQ(engine.metrics().words, pin.words);
  EXPECT_EQ(observed, pin.observer_digest);
  EXPECT_EQ(cg.witness.size(), pin.witness_count);
  EXPECT_EQ(witness, pin.witness_digest);
  EXPECT_EQ(cg.active_leaders.size(), pin.active_count);
  EXPECT_EQ(leaders, pin.leader_digest);
}

/// Leaders (minimum member ids) after uniting a random `fraction` of the
/// edges: a partial labelling with many inter-component edges.
std::vector<VertexId> partial_labelling(std::uint32_t n,
                                        const std::vector<Edge>& edges,
                                        double fraction, Rng& rng) {
  UnionFind uf{n};
  for (const Edge& e : edges)
    if (rng.next_double() < fraction) uf.unite(e.u, e.v);
  std::vector<VertexId> min_of(n, n);
  for (VertexId v = 0; v < n; ++v) {
    const auto root = uf.find(v);
    min_of[root] = std::min(min_of[root], v);
  }
  std::vector<VertexId> label(n);
  for (VertexId v = 0; v < n; ++v) label[v] = min_of[uf.find(v)];
  return label;
}

TEST(ComponentGraphGolden, UnweightedPartialLabelling) {
  Rng rng{61};
  const std::uint32_t n = 300;
  const auto g = random_connected(n, 900, rng);
  const auto label = partial_labelling(n, g.edges(), 0.1, rng);
  expect_component_graph_pin(
      n, [&](CliqueEngine& e) { return build_component_graph(e, g, label); },
      {2133, 6399, 8123929650575345577ULL, 1027, 15264005626215654520ULL,
       190, 17751270397102541793ULL});
}

TEST(ComponentGraphGolden, WeightedTiesAndDuplicates) {
  // Weights in [1, 4] make many equal weights; duplicated and reversed
  // edges give equal keys.
  Rng rng{62};
  const std::uint32_t n = 200;
  const auto g = gnp(n, 0.08, rng);
  std::vector<WeightedEdge> edges;
  for (const Edge& e : g.edges())
    edges.emplace_back(e.u, e.v, 1 + rng.next_below(4));
  const std::size_t m = edges.size();
  for (std::size_t i = 0; i < m; i += 7)
    edges.emplace_back(edges[i].v, edges[i].u, edges[i].w);
  std::vector<Edge> plain;
  for (const auto& e : edges) plain.push_back(e.edge());
  const auto label = partial_labelling(n, plain, 0.05, rng);
  expect_component_graph_pin(
      n,
      [&](CliqueEngine& e) {
        return build_component_graph_weighted(e, edges, n, label);
      },
      {2280, 6840, 6360632737387500521ULL, 786, 10577906656939526247ULL,
       95, 9506370679894209445ULL});
}

TEST(ComponentGraphGolden, CliqueAfterOneLotkerPhase) {
  // The EXACT-MST shape: a 512-clique contracted by one CC-MST phase.
  Rng rng{63};
  const std::uint32_t n = 512;
  const FiniteAdjacency input{
      CliqueWeights::from_graph(random_weighted_clique(n, rng))};
  CliqueEngine pre{{.n = n}};
  const auto state = cc_mst_phases(pre, input, 1);
  const auto edges = input.edges();
  expect_component_graph_pin(
      n,
      [&](CliqueEngine& e) {
        return build_component_graph_weighted(e, edges, n, state.cluster_of);
      },
      {88576, 265728, 7762465813773278695ULL, 15051,
       14889109889341827820ULL, 174, 192314802120847637ULL});
  // EXACT-MST's Step 2 reads the same edges straight from the arcs.
  expect_component_graph_pin(
      n,
      [&](CliqueEngine& e) {
        return build_component_graph_weighted(e, input, state.cluster_of);
      },
      {88576, 265728, 7762465813773278695ULL, 15051,
       14889109889341827820ULL, 174, 192314802120847637ULL});
}

class ReduceSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReduceSeeds, ForestIsValidAndFinite) {
  Rng rng{GetParam()};
  const std::uint32_t n = 120;
  const auto g = random_components(n, 2, 100, rng);
  CliqueEngine engine{{.n = n}};
  const auto result = reduce_components(engine, g);
  // Forest edges are real edges, acyclic; labels consistent with the forest.
  UnionFind uf{n};
  for (const auto& e : result.forest) {
    EXPECT_TRUE(g.has_edge(e.u, e.v));
    EXPECT_TRUE(uf.unite(e.u, e.v));
  }
  for (VertexId v = 0; v < n; ++v) {
    // The leader is the minimum-id member of v's forest component.
    EXPECT_EQ(uf.find(result.leader_of[v]), uf.find(v));
    EXPECT_LE(result.leader_of[v], v);
  }
  // Labels never cross true components.
  const auto truth = connected_components(g);
  for (VertexId a = 0; a < n; ++a)
    for (VertexId b = a + 1; b < n; ++b)
      if (result.leader_of[a] == result.leader_of[b]) {
        EXPECT_EQ(truth[a], truth[b]);
      }
}

TEST_P(ReduceSeeds, UnfinishedTreesShrinkWithPhases) {
  Rng rng{GetParam() + 10};
  const std::uint32_t n = 256;
  const auto g = random_connected(n, 2 * n, rng);
  std::size_t last = n;
  for (std::uint32_t phases : {1u, 2u, 3u}) {
    CliqueEngine engine{{.n = n}};
    const auto result = reduce_components(engine, g, phases);
    const auto unfinished = result.component_graph.active_leaders.size();
    EXPECT_LE(unfinished, last);
    last = unfinished;
  }
  EXPECT_LT(last, n / 8);  // 3 phases: clusters of size >= 6 at least
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReduceSeeds, ::testing::Values(1, 2, 3, 5, 8));

class GcCases
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t,
                                                 std::uint64_t>> {};

TEST_P(GcCases, MaximalSpanningForest) {
  const auto [n, k, seed] = GetParam();
  Rng rng{seed};
  const auto g = random_components(n, k, n / 2, rng);
  CliqueEngine engine{{.n = n}};
  auto result = gc_spanning_forest(engine, g, rng);
  EXPECT_TRUE(result.monte_carlo_ok);
  const auto check = verify_spanning_forest(g, result.forest);
  EXPECT_TRUE(check.ok) << check.message;
  EXPECT_EQ(result.forest.size(), n - num_components(g));
  EXPECT_EQ(result.connected, k == 1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GcCases,
    ::testing::Combine(::testing::Values(16u, 64u, 150u),
                       ::testing::Values(1u, 2u, 5u),
                       ::testing::Values(7u, 21u)));

TEST(Gc, ForcedShallowPhasesExerciseSketchPath) {
  // With only one Lotker phase the component graph is large and Phase 2
  // must do real sketch work.
  Rng rng{31};
  const std::uint32_t n = 200;
  const auto g = random_connected(n, n, rng);
  CliqueEngine engine{{.n = n}};
  auto result = gc_spanning_forest(engine, g, rng, /*phase_override=*/1);
  EXPECT_TRUE(result.monte_carlo_ok);
  EXPECT_GT(result.unfinished_trees_after_phase1, 1u);
  const auto check = verify_spanning_forest(g, result.forest);
  EXPECT_TRUE(check.ok) << check.message;
  EXPECT_TRUE(result.connected);
}

TEST(Gc, WideBandwidthVariant) {
  Rng rng{33};
  const std::uint32_t n = 100;
  const auto g = random_components(n, 3, 70, rng);
  CliqueEngine engine{
      {.n = n, .messages_per_link = wide_bandwidth_messages_per_link(n)}};
  auto result = gc_spanning_forest_wide(engine, g, rng);
  EXPECT_TRUE(result.monte_carlo_ok);
  const auto check = verify_spanning_forest(g, result.forest);
  EXPECT_TRUE(check.ok) << check.message;
  EXPECT_EQ(result.lotker_phases, 0u);
  // O(1) rounds: no Lotker phases, just shared randomness + routing +
  // dissemination.
  EXPECT_LE(engine.metrics().rounds, 40u);
}

TEST(Gc, EmptyGraph) {
  Rng rng{35};
  const Graph g{12};
  CliqueEngine engine{{.n = 12}};
  auto result = gc_spanning_forest(engine, g, rng);
  EXPECT_TRUE(result.forest.empty());
  EXPECT_FALSE(result.connected);
}

TEST(Kkt, SamplingLemmaBound) {
  // Lemma 6: #F-light edges <= ~ n/p w.h.p. (F = MSF of the sample).
  Rng rng{41};
  const std::uint32_t n = 128;
  const auto g = random_weighted_clique(n, rng);
  const double p = kkt_probability(n);
  for (int trial = 0; trial < 5; ++trial) {
    const auto sampled = kkt_sample(g.edges(), p, rng);
    const auto f = kruskal_msf(WeightedGraph::from_edges(n, sampled));
    const auto light = f_light_subset(n, f, g.edges());
    EXPECT_LE(light.size(), static_cast<std::size_t>(3.0 * n / p));
    // All MST edges of G must survive the filter.
    std::set<std::tuple<VertexId, VertexId, Weight>> light_set;
    for (const auto& e : light) light_set.insert({e.u, e.v, e.w});
    for (const auto& e : kruskal_msf(g))
      EXPECT_TRUE(light_set.contains({e.u, e.v, e.w}));
  }
}

TEST(Kkt, SampleSizeConcentrates) {
  Rng rng{43};
  const std::uint32_t n = 256;
  const auto g = random_weighted_clique(n, rng);
  const double p = kkt_probability(n);
  const auto sampled = kkt_sample(g.edges(), p, rng);
  const double expect = p * static_cast<double>(g.num_edges());
  EXPECT_NEAR(static_cast<double>(sampled.size()), expect,
              5 * std::sqrt(expect));
}

class SqMstSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SqMstSeeds, MatchesKruskal) {
  Rng rng{GetParam()};
  const std::uint32_t n = 64;
  const auto g = random_weights(gnp(n, 0.25, rng), 1 << 20, rng);
  if (g.num_edges() == 0) return;
  CliqueEngine engine{{.n = n}};
  auto result = sq_mst(engine, n, g.edges(), rng);
  EXPECT_TRUE(result.monte_carlo_ok);
  const auto check = verify_msf(g, result.mst);
  EXPECT_TRUE(check.ok) << check.message;
  EXPECT_EQ(result.mst, kruskal_msf(g));
}

TEST_P(SqMstSeeds, HandlesDisconnectedInputs) {
  Rng rng{GetParam() + 77};
  const std::uint32_t n = 48;
  const auto base = random_components(n, 3, 30, rng);
  const auto g = random_weights(base, 1 << 20, rng);
  CliqueEngine engine{{.n = n}};
  auto result = sq_mst(engine, n, g.edges(), rng);
  EXPECT_TRUE(result.monte_carlo_ok);
  EXPECT_EQ(result.mst, kruskal_msf(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqMstSeeds, ::testing::Values(1, 2, 3, 5, 8));

TEST(SqMst, EmptyEdgeSet) {
  Rng rng{51};
  CliqueEngine engine{{.n = 8}};
  auto result = sq_mst(engine, 8, {}, rng);
  EXPECT_TRUE(result.mst.empty());
  EXPECT_EQ(result.partitions, 0u);
}

TEST(SqMst, PartitionCountMatchesEdgeVolume) {
  Rng rng{53};
  const std::uint32_t n = 32;
  const auto g = random_weights(gnp(n, 0.9, rng), 1 << 20, rng);
  CliqueEngine engine{{.n = n}};
  auto result = sq_mst(engine, n, g.edges(), rng);
  EXPECT_EQ(result.partitions,
            (g.num_edges() + n - 1) / n);
  EXPECT_EQ(result.mst, kruskal_msf(g));
}

// Golden pins for SQ-MST, captured before its Steps 4-5 moved onto flat
// lanes and the engine's pool: the forest, the charged counts, every
// route's RouteStats and the observer's message sequence (whole run, and
// the sketch route on its own) must stay identical bit for bit.
struct RoutePin {
  std::uint64_t rounds;
  std::uint64_t color_batches;
  std::uint64_t max_send_load;
  std::uint64_t max_recv_load;
};

struct SqMstPin {
  std::uint32_t partitions;
  std::uint32_t boruvka_rounds;  // guardians' Borůvka: reads sketch content
  std::uint64_t forest_size;
  std::uint64_t forest_digest;
  std::uint64_t rounds;
  std::uint64_t messages;
  std::uint64_t words;
  RoutePin edge_route;
  RoutePin sketch_route;
  RoutePin mst_route;
  std::uint64_t observer_digest;
  std::uint64_t sketch_route_hops;
  std::uint64_t sketch_route_digest;
};

void expect_route_pin(const RouteStats& got, const RoutePin& want,
                      const char* which) {
  EXPECT_EQ(got.rounds, want.rounds) << which;
  EXPECT_EQ(got.color_batches, want.color_batches) << which;
  EXPECT_EQ(got.max_send_load, want.max_send_load) << which;
  EXPECT_EQ(got.max_recv_load, want.max_recv_load) << which;
}

void expect_sq_mst_pin_at(std::uint32_t threads, std::uint32_t n,
                          const std::vector<WeightedEdge>& edges,
                          std::uint64_t seed, const SqMstPin& pin) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  CliqueEngine engine{{.n = n, .threads = threads}};
  // The routes charge their rounds before replaying hops to the observer,
  // so every hop of one route sees the same round counter; the sketch
  // route is by far the largest such block.
  std::uint64_t observed = 0xcbf29ce484222325ULL;
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> blocks;
  engine.set_observer([&](VertexId s, VertexId d) {
    const std::uint64_t hop = (static_cast<std::uint64_t>(s) << 32) | d;
    observed = fnv_mix(observed, hop);
    const auto it = blocks
                        .try_emplace(engine.metrics().rounds, 0,
                                     0xcbf29ce484222325ULL)
                        .first;
    ++it->second.first;
    it->second.second = fnv_mix(it->second.second, hop);
  });
  Rng rng{seed};
  const SqMstResult result = sq_mst(engine, n, edges, rng);
  std::uint64_t forest = 0xcbf29ce484222325ULL;
  for (const WeightedEdge& e : result.mst)
    for (std::uint64_t word : {std::uint64_t{e.u}, std::uint64_t{e.v}, e.w})
      forest = fnv_mix(forest, word);
  std::pair<std::uint64_t, std::uint64_t> largest{0, 0};
  for (const auto& [round, block] : blocks)
    if (block.first > largest.first) largest = block;
  EXPECT_TRUE(result.monte_carlo_ok);
  EXPECT_EQ(result.partitions, pin.partitions);
  EXPECT_EQ(result.boruvka_rounds, pin.boruvka_rounds);
  EXPECT_EQ(result.mst.size(), pin.forest_size);
  EXPECT_EQ(forest, pin.forest_digest);
  EXPECT_EQ(engine.metrics().rounds, pin.rounds);
  EXPECT_EQ(engine.metrics().messages, pin.messages);
  EXPECT_EQ(engine.metrics().words, pin.words);
  expect_route_pin(result.edge_route, pin.edge_route, "edge route");
  expect_route_pin(result.sketch_route, pin.sketch_route, "sketch route");
  expect_route_pin(result.mst_route, pin.mst_route, "mst route");
  EXPECT_EQ(observed, pin.observer_digest);
  EXPECT_EQ(largest.first, pin.sketch_route_hops);
  EXPECT_EQ(largest.second, pin.sketch_route_digest);
}

void expect_sq_mst_pin(std::uint32_t n, const std::vector<WeightedEdge>& edges,
                       std::uint64_t seed, const SqMstPin& pin) {
  for (std::uint32_t threads : {1u, 4u})
    expect_sq_mst_pin_at(threads, n, edges, seed, pin);
}

TEST(SqMstGolden, SparseN64) {
  Rng gen{71};
  const std::uint32_t n = 64;
  const auto g = random_weights(gnp(n, 0.3, gen), 1 << 20, gen);
  expect_sq_mst_pin(n, g.edges(), 72,
                    {10, 60, 63, 13539940555760816714ULL, 521, 337154, 1224505,
                     {4, 1, 23, 64}, {476, 237, 2160, 15120}, {4, 1, 9, 11},
                     15608587384871951158ULL, 266880,
                     6587435737696053253ULL});
}

TEST(SqMstGolden, NonPowerOfTwoN100) {
  Rng gen{73};
  const std::uint32_t n = 100;
  const auto g = random_weights(gnp(n, 0.2, gen), 1 << 20, gen);
  expect_sq_mst_pin(n, g.edges(), 74,
                    {11, 67, 99, 4959324931182206742ULL, 568, 653044, 2503456,
                     {4, 1, 26, 100}, {526, 262, 2640, 26136}, {4, 1, 12, 13},
                     13242404861800965131ULL, 516384,
                     10179341490119322981ULL});
}

TEST(SqMstGolden, CliqueAfterOneLotkerPhase) {
  // The EXACT-MST shape: the component graph of a 512-clique after one
  // CC-MST phase, thinned to the size of EXACT-MST's second SQ-MST call.
  Rng gen{75};
  const std::uint32_t n = 512;
  const FiniteAdjacency input{
      CliqueWeights::from_graph(random_weighted_clique(n, gen))};
  CliqueEngine pre{{.n = n}};
  const auto state = cc_mst_phases(pre, input, 1);
  const ComponentGraph g1 = build_component_graph_weighted(
      pre, input.edges(), n, state.cluster_of);
  std::vector<WeightedEdge> g1_edges;
  for (const auto& [pair, witness] : g1.witness)
    g1_edges.emplace_back(pair.first, pair.second, witness.w);
  const auto edges = kkt_sample(g1_edges, 0.25, gen);
  expect_sq_mst_pin(n, edges, 76,
                    {8, 52, 178, 1704700958624241216ULL, 327, 2488016, 6545059,
                     {4, 1, 53, 508}, {292, 145, 2912, 74048}, {4, 1, 1, 1},
                     9941100932853620358ULL, 1035840,
                     10655736824020609529ULL});
}

class ExactMstCases : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactMstCases, MatchesKruskalOnCliques) {
  Rng rng{GetParam()};
  for (std::uint32_t n : {16u, 48u, 100u}) {
    const auto g = random_weighted_clique(n, rng);
    CliqueEngine engine{{.n = n}};
    auto result = exact_mst(engine, CliqueWeights::from_graph(g), rng);
    EXPECT_TRUE(result.monte_carlo_ok);
    const auto check = verify_msf(g, result.mst);
    EXPECT_TRUE(check.ok) << "n=" << n << ": " << check.message;
  }
}

TEST_P(ExactMstCases, ShallowPreprocessingStillExact) {
  // Forcing one phase leaves a big component graph: the KKT + SQ-MST main
  // phase carries the weight and must still be exact.
  Rng rng{GetParam() + 20};
  const std::uint32_t n = 80;
  const auto g = random_weighted_clique(n, rng);
  CliqueEngine engine{{.n = n}};
  auto result =
      exact_mst(engine, CliqueWeights::from_graph(g), rng, /*phases=*/1);
  EXPECT_TRUE(result.monte_carlo_ok);
  EXPECT_GT(result.g1_vertices, 4u);
  const auto check = verify_msf(g, result.mst);
  EXPECT_TRUE(check.ok) << check.message;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactMstCases, ::testing::Values(1, 2, 3, 5));

TEST(ExactMst, SparseDisconnectedInput) {
  Rng rng{61};
  const std::uint32_t n = 60;
  const auto base = random_components(n, 2, 50, rng);
  const auto g = random_weights(base, 1 << 20, rng);
  CliqueEngine engine{{.n = n}};
  auto result = exact_mst(engine, CliqueWeights::from_graph(g), rng);
  EXPECT_TRUE(result.monte_carlo_ok);
  const auto check = verify_msf(g, result.mst);
  EXPECT_TRUE(check.ok) << check.message;
  EXPECT_EQ(result.mst.size(), n - 2u);
}

TEST(ExactMst, WideBandwidthVariant) {
  Rng rng{63};
  const std::uint32_t n = 64;
  const auto g = random_weighted_clique(n, rng);
  CliqueEngine engine{
      {.n = n, .messages_per_link = wide_bandwidth_messages_per_link(n)}};
  auto result = exact_mst_wide(engine, CliqueWeights::from_graph(g), rng);
  EXPECT_TRUE(result.monte_carlo_ok);
  EXPECT_EQ(result.lotker_phases, 0u);
  const auto check = verify_msf(g, result.mst);
  EXPECT_TRUE(check.ok) << check.message;
}

class BipartiteCases : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BipartiteCases, PositiveAndNegative) {
  Rng rng{GetParam()};
  const std::uint32_t n = 60;
  {
    const auto g = random_bipartite_connected(n, 40, rng);
    CliqueEngine engine{{.n = n}};
    const auto r = gc_bipartiteness(engine, g, rng);
    EXPECT_TRUE(r.monte_carlo_ok);
    EXPECT_TRUE(r.bipartite);
  }
  {
    auto g = random_bipartite_connected(n, 40, rng);
    // Plant an odd cycle: an edge inside the left part.
    g.add_edge(0, 1);
    CliqueEngine engine{{.n = n}};
    const auto r = gc_bipartiteness(engine, g, rng);
    EXPECT_TRUE(r.monte_carlo_ok);
    EXPECT_EQ(r.bipartite, is_bipartite(g));
    EXPECT_FALSE(r.bipartite);
  }
}

TEST_P(BipartiteCases, MultiComponentMixtures) {
  Rng rng{GetParam() + 5};
  // Two bipartite components: bipartite overall. Adding an odd cycle
  // component flips the answer.
  const std::uint32_t n = 30;
  Graph g{n};
  for (VertexId v = 0; v + 1 < 10; ++v) g.add_edge(v, v + 1);  // path
  for (VertexId v = 10; v + 1 < 20; ++v) g.add_edge(v, v + 1);
  CliqueEngine e1{{.n = n}};
  EXPECT_TRUE(gc_bipartiteness(e1, g, rng).bipartite);
  for (VertexId v = 20; v + 1 < 25; ++v) g.add_edge(v, v + 1);
  g.add_edge(20, 24);  // 5-cycle
  CliqueEngine e2{{.n = n}};
  EXPECT_FALSE(gc_bipartiteness(e2, g, rng).bipartite);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BipartiteCases, ::testing::Values(1, 2, 3));

TEST(DoubleCover, ComponentArithmetic) {
  // A triangle's double cover is a 6-cycle: 1 component. A 4-cycle's double
  // cover is two 4-cycles: 2 components.
  const auto tri_cover = bipartite_double_cover(odd_cycle(3));
  EXPECT_EQ(num_components(tri_cover), 1u);
  const auto sq_cover = bipartite_double_cover(circulant(4, {1}));
  EXPECT_EQ(num_components(sq_cover), 2u);
}

class KEdgeCases : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(KEdgeCases, CirculantConnectivity) {
  // circulant(n, {1..d}) is 2d-edge-connected.
  Rng rng{71};
  const std::uint32_t k = GetParam();
  const auto g = circulant(36, {1, 2});
  CliqueEngine engine{{.n = 36}};
  const auto r = gc_k_edge_connectivity(engine, g, k, rng);
  EXPECT_TRUE(r.monte_carlo_ok);
  EXPECT_EQ(r.k_edge_connected, k <= 4) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(K, KEdgeCases, ::testing::Values(1, 2, 3, 4, 5));

TEST(KEdge, CertificateIsSparse) {
  Rng rng{73};
  const std::uint32_t n = 40;
  const auto g = circulant(n, {1, 2, 3});
  CliqueEngine engine{{.n = n}};
  const auto r = gc_k_edge_connectivity(engine, g, 2, rng);
  EXPECT_LE(r.certificate.size(), 2u * (n - 1));
  EXPECT_TRUE(r.k_edge_connected);
}

TEST(KEdge, BridgeBreaksTwoEdgeConnectivity) {
  Rng rng{75};
  Graph g{8};
  for (VertexId v : {0u, 1u, 2u}) g.add_edge(v, (v + 1) % 3);
  for (VertexId v : {4u, 5u, 6u}) g.add_edge(v, v == 6 ? 4 : v + 1);
  g.add_edge(2, 4);  // bridge
  g.add_edge(3, 0);
  g.add_edge(3, 1);  // attach vertex 3, keep 7 isolated... connect it:
  g.add_edge(7, 4);
  g.add_edge(7, 5);
  CliqueEngine engine{{.n = 8}};
  const auto r = gc_k_edge_connectivity(engine, g, 2, rng);
  EXPECT_FALSE(r.k_edge_connected);
  EXPECT_EQ(r.certificate_min_cut, 1u);
}

}  // namespace
}  // namespace ccq
