#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "core/gc.hpp"
#include "core/reduce_components.hpp"
#include "graph/generators.hpp"
#include "graph/sequential.hpp"
#include "graph/verify.hpp"
#include "lotker/cc_mst.hpp"

namespace ccq {
namespace {

TEST(CliqueWeightsType, SetAndGet) {
  CliqueWeights w{5};
  EXPECT_FALSE(w.finite(0, 1));
  EXPECT_EQ(w.at(0, 1), kInfiniteWeight);
  w.set(0, 1, 42);
  EXPECT_TRUE(w.finite(1, 0));
  EXPECT_EQ(w.at(1, 0), 42u);
  w.set(0, 1, kInfiniteWeight);
  EXPECT_FALSE(w.finite(0, 1));
  EXPECT_THROW(w.at(2, 2), std::logic_error);
}

TEST(CliqueWeightsType, FromGraphRoundTrip) {
  Rng rng{1};
  const auto g = random_weights(gnp(20, 0.4, rng), 1 << 16, rng);
  const auto w = CliqueWeights::from_graph(g);
  for (const auto& e : g.edges()) EXPECT_EQ(w.at(e.u, e.v), e.w);
  // The adjacency's edge list is the triangle's finite part in (u, v)
  // order.
  const auto edges = FiniteAdjacency{w}.edges();
  ASSERT_EQ(edges.size(), g.num_edges());
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end(),
                             [](const WeightedEdge& a, const WeightedEdge& b) {
                               return a.edge() < b.edge();
                             }));
  for (const auto& e : edges) EXPECT_EQ(w.at(e.u, e.v), e.w);
}

// Step 1 of REDUCECOMPONENTS as a weight triangle: weight 1 on E(G),
// infinity elsewhere.
CliqueWeights unit_triangle(const Graph& g) {
  CliqueWeights w{g.num_vertices()};
  for (const auto& e : g.edges()) w.set(e.u, e.v, 1);
  return w;
}

class LotkerSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LotkerSeeds, FullRunMatchesKruskal) {
  Rng rng{GetParam()};
  for (std::uint32_t n : {8u, 33u, 100u}) {
    const auto g = random_weighted_clique(n, rng);
    CliqueEngine engine{{.n = n}};
    const auto state =
        cc_mst_full(engine, FiniteAdjacency{CliqueWeights::from_graph(g)});
    const auto check = verify_msf(g, state.tree_edges);
    EXPECT_TRUE(check.ok) << "n=" << n << ": " << check.message;
    EXPECT_EQ(state.num_clusters(), 1u);
  }
}

TEST_P(LotkerSeeds, ClusterSizeInvariant) {
  // Theorem 2(i): after phase k every cluster has size >= 2^(2^(k-1)).
  Rng rng{GetParam() + 50};
  const std::uint32_t n = 256;
  const auto g = random_weighted_clique(n, rng);
  const FiniteAdjacency input{CliqueWeights::from_graph(g)};
  for (std::uint32_t k = 1; k <= 4; ++k) {
    CliqueEngine engine{{.n = n}};
    const auto state = cc_mst_phases(engine, input, k);
    if (state.num_clusters() <= 1) break;  // finished early: vacuous
    const double bound = std::pow(2.0, std::pow(2.0, k - 1));
    EXPECT_GE(state.min_cluster_size(), static_cast<std::uint32_t>(bound))
        << "phase " << k;
  }
}

TEST_P(LotkerSeeds, PartialPhasesSelectOnlyMstEdges) {
  Rng rng{GetParam() + 150};
  const std::uint32_t n = 64;
  const auto g = random_weighted_clique(n, rng);
  CliqueEngine engine{{.n = n}};
  const auto state =
      cc_mst_phases(engine, FiniteAdjacency{CliqueWeights::from_graph(g)}, 2);
  const auto mst = kruskal_msf(g);
  std::map<Edge, Weight> mst_set;
  for (const auto& e : mst) mst_set[e.edge()] = e.w;
  for (const auto& e : state.tree_edges) {
    const auto it = mst_set.find(e.edge());
    ASSERT_NE(it, mst_set.end()) << "non-MST edge selected";
    EXPECT_EQ(it->second, e.w);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LotkerSeeds,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

TEST(Lotker, RoundsPerPhaseAreConstant) {
  Rng rng{77};
  const std::uint32_t n = 128;
  const auto g = random_weighted_clique(n, rng);
  const FiniteAdjacency input{CliqueWeights::from_graph(g)};
  std::uint64_t prev_rounds = 0;
  for (std::uint32_t k = 1; k <= 3; ++k) {
    CliqueEngine engine{{.n = n}};
    cc_mst_phases(engine, input, k);
    const std::uint64_t delta = engine.metrics().rounds - prev_rounds;
    EXPECT_LE(delta, 5u) << "phase " << k;
    prev_rounds = engine.metrics().rounds;
  }
}

TEST(Lotker, PhaseCountIsLogLog) {
  Rng rng{88};
  std::uint32_t last_phases = 0;
  for (std::uint32_t n : {16u, 64u, 256u, 512u}) {
    const auto g = random_weighted_clique(n, rng);
    CliqueEngine engine{{.n = n}};
    const auto state =
        cc_mst_full(engine, FiniteAdjacency{CliqueWeights::from_graph(g)});
    // Doubly-exponential growth: ceil(log2 log2 n) + O(1) phases.
    const auto bound = static_cast<std::uint32_t>(
        std::ceil(std::log2(std::log2(static_cast<double>(n)))) + 2);
    EXPECT_LE(state.phases_run, bound) << "n=" << n;
    EXPECT_GE(state.phases_run, last_phases) << "n=" << n;
    last_phases = state.phases_run;
  }
}

TEST(Lotker, DisconnectedInputUsesInfiniteEdges) {
  // CC-MST on the clique completion of a disconnected graph still finishes
  // (infinite-weight padding edges glue the halves) and the finite tree
  // edges form a spanning forest of the real graph.
  Rng rng{99};
  auto base = random_components(40, 2, 30, rng);
  CliqueEngine engine{{.n = 40}};
  const auto state = cc_mst_full(engine, FiniteAdjacency{base});
  EXPECT_EQ(state.num_clusters(), 1u);
  std::size_t infinite = 0;
  std::vector<Edge> finite;
  for (const auto& e : state.tree_edges) {
    if (e.w == kInfiniteWeight)
      ++infinite;
    else
      finite.emplace_back(e.u, e.v);
  }
  EXPECT_EQ(infinite, 1u);  // exactly one gluing edge for two components
  const auto check = verify_spanning_forest(base, finite);
  EXPECT_TRUE(check.ok) << check.message;
}

TEST(Lotker, ReduceComponentsPhaseFormula) {
  EXPECT_EQ(reduce_components_phases(16), 4u);     // lll(16) = 1
  EXPECT_EQ(reduce_components_phases(1 << 16), 5u);  // lll(65536) = 2
  EXPECT_GE(reduce_components_phases(4), 3u);
}

TEST(Lotker, EveryNodeKnowsTheTree) {
  // The state returned is the shared knowledge; all tree edges must be
  // real clique edges with correct weights.
  Rng rng{111};
  const auto g = random_weighted_clique(30, rng);
  CliqueEngine engine{{.n = 30}};
  const auto state =
      cc_mst_full(engine, FiniteAdjacency{CliqueWeights::from_graph(g)});
  for (const auto& e : state.tree_edges)
    EXPECT_EQ(g.edge_weight(e.u, e.v), std::optional<Weight>{e.w});
}

// A random partition of 0..n-1 into at most k clusters, each labelled by
// its minimum member (the labels CC-MST itself maintains).
std::vector<VertexId> min_labelled_partition(std::uint32_t n, std::uint32_t k,
                                             Rng& rng) {
  std::vector<VertexId> group(n);
  std::vector<VertexId> min_of(k, std::numeric_limits<VertexId>::max());
  for (VertexId v = 0; v < n; ++v) {
    group[v] = static_cast<VertexId>(rng.next_below(k));
    min_of[group[v]] = std::min(min_of[group[v]], v);
  }
  std::vector<VertexId> label(n);
  for (VertexId v = 0; v < n; ++v) label[v] = min_of[group[v]];
  return label;
}

TEST(LotkerPadding, LightestPairEdgeIsFiniteElsePadding) {
  // The rule R1 rests on: between clusters labelled a and b (their minimum
  // members) the lightest clique edge by key is the lightest finite edge
  // if they share one, else the padding edge (inf, min(a, b), max(a, b)).
  // Within a row, padding edges then sort by the other cluster's label.
  Rng rng{4242};
  for (const std::uint32_t n : {12u, 40u})
    for (const double density : {0.05, 0.3, 0.9})
      for (const std::uint32_t k : {2u, 5u, n / 2}) {
        const Graph g = gnp(n, density, rng);
        const CliqueWeights inputs[] = {
            unit_triangle(g),
            CliqueWeights::from_graph(random_weights(g, 1 << 16, rng))};
        const auto label = min_labelled_partition(n, k, rng);
        for (const CliqueWeights& w : inputs) {
          std::map<std::pair<VertexId, VertexId>, WeightedEdge> all, finite;
          auto relax = [](auto& table, std::pair<VertexId, VertexId> pair,
                          const WeightedEdge& e) {
            const auto [it, fresh] = table.emplace(pair, e);
            if (!fresh && weight_less(e, it->second)) it->second = e;
          };
          for (VertexId u = 0; u < n; ++u)
            for (VertexId x = u + 1; x < n; ++x) {
              if (label[u] == label[x]) continue;
              const std::pair pair{std::min(label[u], label[x]),
                                   std::max(label[u], label[x])};
              relax(all, pair, w.edge(u, x));
              if (w.finite(u, x)) relax(finite, pair, w.edge(u, x));
            }
          std::map<VertexId, std::vector<WeightedEdge>> padding_row;
          for (const auto& [pair, lightest] : all) {
            const auto it = finite.find(pair);
            const WeightedEdge rule =
                it != finite.end()
                    ? it->second
                    : WeightedEdge{pair.first, pair.second, kInfiniteWeight};
            EXPECT_EQ(lightest, rule)
                << "n=" << n << " clusters " << pair.first << ","
                << pair.second;
            if (it == finite.end()) {
              padding_row[pair.first].push_back(lightest);
              padding_row[pair.second].push_back(lightest);
            }
          }
          // Sorted by key, row a's padding edges name the other clusters in
          // ascending label order (roster order).
          for (auto& [a, row] : padding_row) {
            std::sort(row.begin(), row.end(), weight_less);
            std::vector<VertexId> others;
            for (const auto& e : row) others.push_back(e.u == a ? e.v : e.u);
            EXPECT_TRUE(std::is_sorted(others.begin(), others.end()))
                << "row " << a;
          }
        }
      }
}

TEST(LotkerPadding, LabelThatIsNotTheMinimumMemberThrows) {
  Rng rng{5};
  const FiniteAdjacency input{gnp(6, 0.5, rng)};
  CliqueEngine engine{{.n = 6}};
  LotkerState state = cc_mst_initial_state(6);
  state.cluster_of = {1, 1, 2, 3, 4, 5};  // cluster {0, 1} labelled 1
  EXPECT_THROW(cc_mst_step(engine, input, state), std::logic_error);
  state.cluster_of = {2, 2, 2, 3, 4, 5};  // cluster {0, 1, 2} labelled 2
  EXPECT_THROW(cc_mst_step(engine, input, state), std::logic_error);
}

// Golden pins for CC-MST phases. After phases 1 and 3, each case records
// the tree (count plus an order-sensitive FNV-1a digest of (u, v, w)), a
// digest of cluster_of, the engine Metrics and a digest of the observer's
// (src, dst) sequence. Inputs: a GC-shaped unit-weight graph (ties broken
// by endpoints, most pairs infinite) and a distinct-weight sparse graph.
// A rewrite of run_phase's R1 table or R2/R3 selection must keep these.
struct PhasePin {
  std::size_t tree_edges;
  std::uint64_t tree_digest;
  std::uint64_t cluster_digest;
  std::uint64_t rounds;
  std::uint64_t messages;
  std::uint64_t words;
  std::uint64_t max_messages_in_round;
  std::uint64_t observed_digest;
};

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Digest of the observer's (src, dst) sequence, hooked into `engine`.
void digest_observer(CliqueEngine& engine, std::uint64_t& observed) {
  observed = 0xcbf29ce484222325ULL;
  engine.set_observer([&observed](VertexId s, VertexId d) {
    observed = fnv_mix(observed, (static_cast<std::uint64_t>(s) << 32) | d);
  });
}

void expect_phase_pin(const LotkerState& state, const Metrics& m,
                      std::uint64_t observed, const PhasePin& pin) {
  std::uint64_t tree = 0xcbf29ce484222325ULL;
  for (const auto& e : state.tree_edges)
    tree = fnv_mix(fnv_mix(fnv_mix(tree, e.u), e.v), e.w);
  std::uint64_t clusters = 0xcbf29ce484222325ULL;
  for (VertexId c : state.cluster_of) clusters = fnv_mix(clusters, c);
  EXPECT_EQ(state.tree_edges.size(), pin.tree_edges);
  EXPECT_EQ(tree, pin.tree_digest);
  EXPECT_EQ(clusters, pin.cluster_digest);
  EXPECT_EQ(m.rounds, pin.rounds);
  EXPECT_EQ(m.messages, pin.messages);
  EXPECT_EQ(m.words, pin.words);
  EXPECT_EQ(m.max_messages_in_round, pin.max_messages_in_round);
  EXPECT_EQ(observed, pin.observed_digest);
}

TEST(LotkerGolden, PhasesOneAndThree) {
  // In loop order: n, input, link width, then after phase 1 / phase 3.
  const PhasePin pins[] = {
      {53, 12365577859094167385ULL, 15600168671982107865ULL, 4,
       3455, 10428, 3339, 9337835798423586740ULL},
      {63, 7162709656997401444ULL, 9052592289448545061ULL, 14,
       4832, 14592, 3339, 13556990795070591640ULL},
      {59, 5969574952808626065ULL, 9703614768562726692ULL, 4,
       4028, 12336, 3717, 18334881202603889445ULL},
      {63, 13688423833001601412ULL, 9052592289448545061ULL, 9,
       4556, 13936, 3717, 3185326694966781024ULL},
      {63, 17490034940756800612ULL, 9052592289448545061ULL, 4,
       8001, 27972, 3969, 16451061935765017285ULL},
      {63, 17490034940756800612ULL, 9052592289448545061ULL, 4,
       8001, 27972, 3969, 16451061935765017285ULL},
      {39, 3201948384723504673ULL, 6032431891418750946ULL, 4,
       2559, 7740, 2457, 1143321465219448965ULL},
      {63, 5009645616273284229ULL, 9052592289448545061ULL, 14,
       5916, 17904, 2457, 885050907599866319ULL},
      {58, 18045438162189785933ULL, 12189517715973600939ULL, 4,
       3964, 12144, 3654, 16770863720908799150ULL},
      {63, 3585844221070779741ULL, 9052592289448545061ULL, 9,
       4636, 14192, 3654, 17385670839175797965ULL},
      {63, 4854327851897482961ULL, 9052592289448545061ULL, 4,
       8001, 27972, 3969, 16451061935765017285ULL},
      {63, 4854327851897482961ULL, 9052592289448545061ULL, 4,
       8001, 27972, 3969, 16451061935765017285ULL},
      {871, 2239023800747144372ULL, 9095606487156581431ULL, 4,
       892927, 2679804, 891033, 15795385693208993765ULL},
      {1023, 3819420889075046304ULL, 13389487554061181733ULL, 14,
       1222502, 3669400, 891033, 6511568226241114400ULL},
      {932, 6307484334868847745ULL, 7968953996872050129ULL, 4,
       958460, 2879472, 953436, 42276878050491492ULL},
      {1023, 11037658709677690820ULL, 13389487554061181733ULL, 14,
       1149161, 3454884, 953436, 13418258419525297554ULL},
      {1023, 9551048228250148696ULL, 13389487554061181733ULL, 4,
       2094081, 7328772, 1046529, 8162760885435529413ULL},
      {1023, 9551048228250148696ULL, 13389487554061181733ULL, 4,
       2094081, 7328772, 1046529, 8162760885435529413ULL},
      {697, 16576994707738702738ULL, 14202059496627754909ULL, 4,
       714751, 2145276, 713031, 9000043802376369620ULL},
      {1019, 16867265492591498810ULL, 3094488164932521806ULL, 14,
       1447737, 4346084, 713031, 2365135338702675206ULL},
      {924, 10821415953858470046ULL, 1560638796350375472ULL, 4,
       950268, 2854896, 945252, 11867745331442288108ULL},
      {1023, 14305839432790149720ULL, 13389487554061181733ULL, 9,
       1156616, 3477536, 945252, 8322160594286220017ULL},
      {1023, 9681141489925972784ULL, 13389487554061181733ULL, 4,
       2094081, 7328772, 1046529, 8162760885435529413ULL},
      {1023, 9681141489925972784ULL, 13389487554061181733ULL, 4,
       2094081, 7328772, 1046529, 8162760885435529413ULL},
  };
  const PhasePin* pin = pins;
  for (const std::uint32_t n : {64u, 1024u}) {
    Rng rng{700 + n};
    const Graph g = random_connected(n, 2 * n, rng);
    const FiniteAdjacency inputs[] = {
        FiniteAdjacency{g},
        FiniteAdjacency{CliqueWeights::from_graph(
            random_weights(random_connected(n, 4 * n, rng), 1 << 20, rng))}};
    for (const FiniteAdjacency& input : inputs) {
      // Standard links, B = 4 (quota s*B < m - 1 in phase 1) and the
      // paper's wide links (quota m - 1: one phase finishes).
      for (const std::uint32_t per_link :
           {1u, 4u, wide_bandwidth_messages_per_link(n)}) {
        CliqueEngine engine{{.n = n, .messages_per_link = per_link}};
        std::uint64_t observed = 0;
        digest_observer(engine, observed);
        LotkerState state = cc_mst_initial_state(n);
        for (std::uint32_t phase = 1; phase <= 3; ++phase) {
          cc_mst_step(engine, input, state);
          if (phase == 2) continue;
          SCOPED_TRACE(testing::Message() << "n=" << n << " per_link="
                                          << per_link << " phase=" << phase);
          expect_phase_pin(state, engine.metrics(), observed, *pin++);
        }
      }
    }
  }
  EXPECT_EQ(pin, std::end(pins));
}

TEST(LotkerGolden, DisconnectedSparseUnit) {
  // Six components of a unit-weight input: from phase 2 on most cluster
  // pairs share no finite edge, so padding candidates and infinite merges
  // dominate. Pinned after every phase, in loop order n, link width, phase.
  const PhasePin pins[] = {
      {50, 15097987133504692160ULL, 12149632225200674498ULL, 4,
       3263, 9852, 3150, 16554450120309149638ULL},
      {61, 474985085475791721ULL, 9441718903035369911ULL, 9,
       4840, 14624, 3150, 16896548416255097761ULL},
      {63, 17708658520601373838ULL, 9052592289448545061ULL, 14,
       5104, 15424, 3150, 14171702586648584640ULL},
      {56, 6809988475447002475ULL, 5162101008664599685ULL, 4,
       3836, 11760, 3528, 7619754100564584445ULL},
      {63, 1065256710050685614ULL, 9052592289448545061ULL, 9,
       4808, 14752, 3528, 14485779077600221311ULL},
      {63, 1065256710050685614ULL, 9052592289448545061ULL, 9,
       4808, 14752, 3528, 14485779077600221311ULL},
      {63, 9849927011722731534ULL, 9052592289448545061ULL, 4,
       8001, 27972, 3969, 16451061935765017285ULL},
      {63, 9849927011722731534ULL, 9052592289448545061ULL, 4,
       8001, 27972, 3969, 16451061935765017285ULL},
      {63, 9849927011722731534ULL, 9052592289448545061ULL, 4,
       8001, 27972, 3969, 16451061935765017285ULL},
      {772, 9958235357043445625ULL, 2072670921617435686ULL, 4,
       791551, 2375676, 789756, 9859554843302910308ULL},
      {982, 14987089814414180961ULL, 16329497733321484500ULL, 9,
       1264370, 3794888, 789756, 7869387669832290524ULL},
      {1022, 8785812233677304844ULL, 12166833125408960966ULL, 14,
       1347859, 4045900, 789756, 16774683084997697045ULL},
      {925, 9435175132148563090ULL, 3146128117182732227ULL, 4,
       951292, 2857968, 946275, 13730768558976762352ULL},
      {1023, 3556427557192889395ULL, 13389487554061181733ULL, 9,
       1155556, 3474320, 946275, 1018682893028018433ULL},
      {1023, 3556427557192889395ULL, 13389487554061181733ULL, 9,
       1155556, 3474320, 946275, 1018682893028018433ULL},
      {1023, 12252677718244636791ULL, 13389487554061181733ULL, 4,
       2094081, 7328772, 1046529, 8162760885435529413ULL},
      {1023, 12252677718244636791ULL, 13389487554061181733ULL, 4,
       2094081, 7328772, 1046529, 8162760885435529413ULL},
      {1023, 12252677718244636791ULL, 13389487554061181733ULL, 4,
       2094081, 7328772, 1046529, 8162760885435529413ULL},
  };
  const PhasePin* pin = pins;
  for (const std::uint32_t n : {64u, 1024u}) {
    Rng rng{900 + n};
    const FiniteAdjacency input{random_components(n, 6, n / 2, rng)};
    for (const std::uint32_t per_link :
         {1u, 4u, wide_bandwidth_messages_per_link(n)}) {
      CliqueEngine engine{{.n = n, .messages_per_link = per_link}};
      std::uint64_t observed = 0;
      digest_observer(engine, observed);
      LotkerState state = cc_mst_initial_state(n);
      for (std::uint32_t phase = 1; phase <= 3; ++phase) {
        cc_mst_step(engine, input, state);
        SCOPED_TRACE(testing::Message() << "n=" << n << " per_link="
                                        << per_link << " phase=" << phase);
        expect_phase_pin(state, engine.metrics(), observed, *pin++);
      }
    }
  }
  EXPECT_EQ(pin, std::end(pins));
}

TEST(LotkerGolden, DenseCliquePhaseOne) {
  // EXACT-MST's preprocessing shape: one phase from all singletons on a
  // 512-node distinct-weight clique.
  const PhasePin pin = {331, 12946802765973441899ULL, 13703865708744623800ULL,
                        4, 169983, 510460, 169141, 12336519766049315961ULL};
  Rng rng{512};
  const FiniteAdjacency input{
      CliqueWeights::from_graph(random_weighted_clique(512, rng))};
  CliqueEngine engine{{.n = 512}};
  std::uint64_t observed = 0;
  digest_observer(engine, observed);
  LotkerState state = cc_mst_initial_state(512);
  cc_mst_step(engine, input, state);
  expect_phase_pin(state, engine.metrics(), observed, pin);
}

TEST(LotkerGolden, GcVerifyConnectivity) {
  // gc_verify_connectivity calls cc_mst_step once per phase and builds a
  // component graph after each; pins its verdict and whole schedule on a
  // connected and a four-component input. In loop order n, input.
  struct VerifyPin {
    bool connected;
    bool early_exit;
    std::uint32_t phases_run;
    bool monte_carlo_ok;
    std::uint64_t rounds;
    std::uint64_t messages;
    std::uint64_t words;
    std::uint64_t observed_digest;
  };
  const VerifyPin pins[] = {
      {true, true, 3, true, 17, 75917, 228148, 16213253250117951899ULL},
      {false, true, 2, true, 11, 75699, 227483, 18076235022743043772ULL},
      {true, true, 3, true, 17, 1217591, 3654565, 11270789290741519768ULL},
      {false, true, 3, true, 17, 1311863, 3937967, 11830262286046760298ULL},
  };
  const VerifyPin* pin = pins;
  for (const std::uint32_t n : {256u, 1024u}) {
    Rng rng{1100 + n};
    const Graph inputs[] = {random_connected(n, 2 * n, rng),
                            random_components(n, 4, n, rng)};
    for (const Graph& g : inputs) {
      CliqueEngine engine{{.n = n}};
      std::uint64_t observed = 0;
      digest_observer(engine, observed);
      Rng sketch_rng{n};
      const GcVerifyResult r = gc_verify_connectivity(engine, g, sketch_rng);
      const Metrics& m = engine.metrics();
      SCOPED_TRACE(testing::Message() << "n=" << n);
      EXPECT_EQ(r.connected, pin->connected);
      EXPECT_EQ(r.early_exit, pin->early_exit);
      EXPECT_EQ(r.phases_run, pin->phases_run);
      EXPECT_EQ(r.monte_carlo_ok, pin->monte_carlo_ok);
      EXPECT_EQ(m.rounds, pin->rounds);
      EXPECT_EQ(m.messages, pin->messages);
      EXPECT_EQ(m.words, pin->words);
      EXPECT_EQ(observed, pin->observed_digest);
      ++pin;
    }
  }
  EXPECT_EQ(pin, std::end(pins));
}

// Golden pins for the three GC entry points on disconnected sparse unit
// inputs (most clique pairs are non-edges). Each pin is one line: the
// result's own fields, the forest or label digest, the engine Metrics and
// the observer digest, so a mismatch prints the whole new line.
struct GcInput {
  std::uint32_t n;
  Graph g;
};

std::vector<GcInput> disconnected_sparse_inputs() {
  std::vector<GcInput> out;
  for (const std::uint32_t n : {300u, 1024u}) {
    Rng rng{1300 + n};
    out.push_back({n, random_components(n, 3, n / 16, rng)});
  }
  return out;
}

std::string metrics_pin(const Metrics& m, std::uint64_t observed) {
  return "rounds=" + std::to_string(m.rounds) +
         " messages=" + std::to_string(m.messages) +
         " words=" + std::to_string(m.words) +
         " peak=" + std::to_string(m.max_messages_in_round) +
         " observed=" + std::to_string(observed);
}

std::uint64_t edge_digest(const std::vector<Edge>& edges) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& e : edges) h = fnv_mix(fnv_mix(h, e.u), e.v);
  return h;
}

TEST(GcGolden, ReduceComponentsDisconnectedSparse) {
  // In loop order n, phase count (default, then one phase: unfinished trees
  // remain and the component graph has edges).
  const char* const pins[] = {
      "phases=3 forest=297/12213616665496256552 labels=16167059774093591077 "
      "leaders=3 active=0 witness=14695981039346656037 rounds=15 "
      "messages=120180 words=361320 peak=64883 observed=4932310265418257661",
      "phases=1 forest=217/14522492519226280514 labels=12420750333379140204 "
      "leaders=83 active=83 witness=4090269942607311090 rounds=5 "
      "messages=65591 words=197072 peak=64883 observed=2292651345093453719",
      "phases=4 forest=1021/4622782435065356512 labels=16965992262849463200 "
      "leaders=3 active=0 witness=14695981039346656037 rounds=20 "
      "messages=1424955 words=4277484 peak=735537 "
      "observed=7860167052803363870",
      "phases=1 forest=719/14500052184066018181 labels=11764813256308211437 "
      "leaders=305 active=305 witness=1389057787515411355 rounds=5 "
      "messages=738003 words=2215032 peak=735537 "
      "observed=863177408574148957",
  };
  const char* const* pin = pins;
  for (const GcInput& in : disconnected_sparse_inputs())
    for (const std::uint32_t phases : {0u, 1u}) {
      CliqueEngine engine{{.n = in.n}};
      std::uint64_t observed = 0;
      digest_observer(engine, observed);
      const ReduceComponentsResult r = reduce_components(engine, in.g, phases);
      std::uint64_t labels = 0xcbf29ce484222325ULL;
      for (VertexId c : r.leader_of) labels = fnv_mix(labels, c);
      std::uint64_t witness = 0xcbf29ce484222325ULL;
      for (const auto& [pair, e] : r.component_graph.witness)
        witness = fnv_mix(fnv_mix(fnv_mix(witness, pair.first), pair.second),
                          (std::uint64_t{e.u} << 32) | e.v);
      const std::string line =
          "phases=" + std::to_string(r.lotker_phases) +
          " forest=" + std::to_string(r.forest.size()) + "/" +
          std::to_string(edge_digest(r.forest)) +
          " labels=" + std::to_string(labels) +
          " leaders=" + std::to_string(r.component_graph.leaders.size()) +
          " active=" +
          std::to_string(r.component_graph.active_leaders.size()) +
          " witness=" + std::to_string(witness) + " " +
          metrics_pin(engine.metrics(), observed);
      EXPECT_EQ(line, *pin++) << "n=" << in.n << " phases=" << phases;
    }
  EXPECT_EQ(pin, std::end(pins));
}

TEST(GcGolden, SpanningForestDisconnectedSparse) {
  // In loop order n, phase count (default, then one phase).
  const char* const pins[] = {
      "connected=0 monte_carlo_ok=1 phases=3 unfinished=0 "
      "forest=297/12213616665496256552 rounds=15 messages=120180 "
      "words=361320 peak=64883 observed=4932310265418257661",
      "connected=0 monte_carlo_ok=1 phases=1 unfinished=83 "
      "forest=297/9023405536212534277 rounds=234 messages=605275 "
      "words=996055 peak=89700 observed=11043843047704900145",
      "connected=0 monte_carlo_ok=1 phases=4 unfinished=0 "
      "forest=1021/4622782435065356512 rounds=20 messages=1424955 "
      "words=4277484 peak=735537 observed=7860167052803363870",
      "connected=0 monte_carlo_ok=1 phases=1 unfinished=305 "
      "forest=1021/13711465555314870222 rounds=317 messages=3582679 "
      "words=6700544 peak=1047552 observed=6919833158410467127",
  };
  const char* const* pin = pins;
  for (const GcInput& in : disconnected_sparse_inputs())
    for (const std::uint32_t phases : {0u, 1u}) {
      CliqueEngine engine{{.n = in.n}};
      std::uint64_t observed = 0;
      digest_observer(engine, observed);
      Rng rng{in.n};
      const GcResult r = gc_spanning_forest(engine, in.g, rng, phases);
      EXPECT_TRUE(verify_spanning_forest(in.g, r.forest).ok) << "n=" << in.n;
      const std::string line =
          "connected=" + std::to_string(r.connected) +
          " monte_carlo_ok=" + std::to_string(r.monte_carlo_ok) +
          " phases=" + std::to_string(r.lotker_phases) +
          " unfinished=" + std::to_string(r.unfinished_trees_after_phase1) +
          " forest=" + std::to_string(r.forest.size()) + "/" +
          std::to_string(edge_digest(r.forest)) + " " +
          metrics_pin(engine.metrics(), observed);
      EXPECT_EQ(line, *pin++) << "n=" << in.n << " phases=" << phases;
    }
  EXPECT_EQ(pin, std::end(pins));
}

TEST(GcGolden, VerifyConnectivityDisconnectedSparse) {
  const char* const pins[] = {
      "connected=0 early_exit=1 phases=3 monte_carlo_ok=1 rounds=17 "
      "messages=120419 words=362037 peak=64883 "
      "observed=12480786893440605695",
      "connected=0 early_exit=1 phases=3 monte_carlo_ok=1 rounds=17 "
      "messages=1417708 words=4255709 peak=735537 "
      "observed=18395202341760837334",
  };
  const char* const* pin = pins;
  for (const GcInput& in : disconnected_sparse_inputs()) {
    CliqueEngine engine{{.n = in.n}};
    std::uint64_t observed = 0;
    digest_observer(engine, observed);
    Rng rng{in.n};
    const GcVerifyResult r = gc_verify_connectivity(engine, in.g, rng);
    const std::string line =
        "connected=" + std::to_string(r.connected) +
        " early_exit=" + std::to_string(r.early_exit) +
        " phases=" + std::to_string(r.phases_run) +
        " monte_carlo_ok=" + std::to_string(r.monte_carlo_ok) + " " +
        metrics_pin(engine.metrics(), observed);
    EXPECT_EQ(line, *pin++) << "n=" << in.n;
  }
  EXPECT_EQ(pin, std::end(pins));
}

TEST(FiniteAdjacencyType, GraphBuiltMatchesTriangleBuilt) {
  // The unit input built from G in O(n + m), from the unit triangle, and
  // from G's edges in shuffled insertion order: the three hold the same
  // arcs in different orders, and CC-MST's state, Metrics and observer
  // sequence must agree after every phase.
  Rng rng{2};
  for (const std::uint32_t n : {15u, 300u}) {
    const Graph g = random_components(n, 3, n / 4, rng);
    std::vector<Edge> shuffled = g.edges();
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    const FiniteAdjacency inputs[] = {
        FiniteAdjacency{unit_triangle(g)}, FiniteAdjacency{g},
        FiniteAdjacency{Graph::from_edges(n, shuffled)}};
    for (const FiniteAdjacency& input : inputs) {
      EXPECT_EQ(input.n(), n);
      const auto edges = input.edges();
      EXPECT_EQ(edges.size(), g.num_edges());
      for (const auto& e : edges) {
        EXPECT_TRUE(g.has_edge(e.u, e.v));
        EXPECT_EQ(e.w, 1u);
      }
    }
    struct Run {
      explicit Run(std::uint32_t size)
          : engine{{.n = size}}, state{cc_mst_initial_state(size)} {
        digest_observer(engine, observed);
      }
      CliqueEngine engine;
      std::uint64_t observed{0};
      LotkerState state;
    };
    std::vector<std::unique_ptr<Run>> runs;
    for (std::size_t i = 0; i < std::size(inputs); ++i)
      runs.push_back(std::make_unique<Run>(n));
    for (std::uint32_t phase = 1; runs[0]->state.num_clusters() > 1;
         ++phase) {
      for (std::size_t i = 0; i < std::size(inputs); ++i)
        cc_mst_step(runs[i]->engine, inputs[i], runs[i]->state);
      for (std::size_t i = 1; i < std::size(inputs); ++i) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << n << " input=" << i << " phase=" << phase);
        EXPECT_EQ(runs[i]->state.cluster_of, runs[0]->state.cluster_of);
        EXPECT_EQ(runs[i]->state.tree_edges, runs[0]->state.tree_edges);
        EXPECT_EQ(runs[i]->state.phases_run, runs[0]->state.phases_run);
        const Metrics& m = runs[i]->engine.metrics();
        const Metrics& ref = runs[0]->engine.metrics();
        EXPECT_EQ(m.rounds, ref.rounds);
        EXPECT_EQ(m.messages, ref.messages);
        EXPECT_EQ(m.words, ref.words);
        EXPECT_EQ(m.max_messages_in_round, ref.max_messages_in_round);
        EXPECT_EQ(runs[i]->observed, runs[0]->observed);
      }
    }
  }
}

}  // namespace
}  // namespace ccq
