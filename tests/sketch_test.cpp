#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "comm/routing.hpp"
#include "graph/generators.hpp"
#include "graph/sequential.hpp"
#include "graph/union_find.hpp"
#include "sketch/graph_sketch.hpp"
#include "sketch/l0_sketch.hpp"
#include "sketch/wire.hpp"
#include "util/field.hpp"

namespace ccq {
namespace {

SketchFamily make_family(std::uint64_t universe, std::uint64_t seed) {
  Rng rng{seed};
  const auto params = SketchParams::for_universe(universe);
  const auto words = rng.words(sketch_seed_words(params));
  return SketchFamily{params, words};
}

TEST(L0, SingleItemRecovered) {
  const auto family = make_family(1000, 1);
  for (std::uint64_t i : {0ull, 1ull, 17ull, 999ull}) {
    for (int sign : {1, -1}) {
      L0Sketch s{family};
      s.update(i, sign);
      const auto sample = s.sample();
      ASSERT_TRUE(sample.has_value());
      EXPECT_EQ(sample->index, i);
      EXPECT_EQ(sample->sign, sign);
    }
  }
}

TEST(L0, ZeroSketchSamplesNothing) {
  const auto family = make_family(1000, 2);
  const L0Sketch s{family};
  EXPECT_TRUE(s.appears_zero());
  EXPECT_FALSE(s.sample().has_value());
}

TEST(L0, CancellationMakesZero) {
  const auto family = make_family(500, 3);
  L0Sketch a{family};
  L0Sketch b{family};
  for (std::uint64_t i : {3ull, 77ull, 421ull}) {
    a.update(i, 1);
    b.update(i, -1);
  }
  a += b;
  EXPECT_TRUE(a.appears_zero());
}

TEST(L0, LinearityEqualsDirectConstruction) {
  const auto family = make_family(2000, 4);
  Rng rng{5};
  L0Sketch sum{family};
  L0Sketch direct{family};
  std::map<std::uint64_t, int> net;
  for (int i = 0; i < 60; ++i) {
    const std::uint64_t idx = rng.next_below(2000);
    const int sign = rng.next_bool(0.5) ? 1 : -1;
    if (net[idx] + sign < -1 || net[idx] + sign > 1) continue;  // stay in ±1
    net[idx] += sign;
    L0Sketch part{family};
    part.update(idx, sign);
    sum += part;
    direct.update(idx, sign);
  }
  EXPECT_EQ(sum.to_words(), direct.to_words());
}

TEST(L0, NegatedCancels) {
  const auto family = make_family(300, 6);
  L0Sketch s{family};
  s.update(5, 1);
  s.update(100, -1);
  auto neg = s.negated();
  neg += s;
  EXPECT_TRUE(neg.appears_zero());
}

TEST(L0, SerializationRoundTrip) {
  const auto family = make_family(4096, 7);
  Rng rng{8};
  L0Sketch s{family};
  for (int i = 0; i < 40; ++i)
    s.update(rng.next_below(4096), rng.next_bool(0.5) ? 1 : -1);
  const auto words = s.to_words();
  EXPECT_EQ(words.size(), L0Sketch::word_size(family.params()));
  const auto back = L0Sketch::from_words(family, words);
  EXPECT_EQ(back.to_words(), words);
}

TEST(L0, FromWordsRejectsWrongSize) {
  const auto family = make_family(100, 9);
  std::vector<std::uint64_t> bad(3, 0);
  EXPECT_THROW(L0Sketch::from_words(family, bad), InvalidArgument);
}

TEST(L0, FingerprintTablesMatchFieldPow) {
  // Fingerprints multiply precomputed powers z^(2^b): the same field
  // element field::pow computes, at every level, over the whole universe.
  Rng rng{24};
  const auto params = SketchParams::cormode_firmani(512 * 512, 2);
  const auto words = rng.words(sketch_seed_words(params));
  const SketchFamily family{params, words};
  std::vector<std::uint64_t> coords{0, 1, 2, 255, 256, params.universe - 1};
  for (int k = 0; k < 200; ++k)
    coords.push_back(rng.next_below(params.universe));
  for (std::uint32_t level = 0; level < params.levels; ++level)
    for (const std::uint64_t i : coords)
      EXPECT_EQ(family.fingerprint(level, i),
                field::pow(family.z_of(level), i + 1))
          << "level " << level << " coord " << i;
}

TEST(L0, CrossFamilyAdditionRejected) {
  const auto f1 = make_family(100, 10);
  const auto f2 = make_family(100, 11);
  L0Sketch a{f1};
  const L0Sketch b{f2};
  EXPECT_THROW(a += b, std::logic_error);
}

TEST(L0, SampleReturnsGenuineNonzeroCoordinate) {
  Rng rng{12};
  int successes = 0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    const auto family = make_family(5000, 1000 + t);
    L0Sketch s{family};
    std::set<std::uint64_t> support;
    const int k = 1 + static_cast<int>(rng.next_below(200));
    for (int i = 0; i < k; ++i) {
      const std::uint64_t idx = rng.next_below(5000);
      if (support.insert(idx).second) s.update(idx, 1);
    }
    const auto sample = s.sample();
    if (sample) {
      ++successes;
      EXPECT_TRUE(support.contains(sample->index));
      EXPECT_EQ(sample->sign, 1);
    }
  }
  // The per-sketch success probability is a constant; with the slack levels
  // we use it is well above 1/2.
  EXPECT_GT(successes, trials / 2);
}

TEST(L0, SampleCoverageAcrossSupport) {
  // Over many independent families, every support element should be
  // sampled at least once (l0-sampling is near-uniform).
  const std::set<std::uint64_t> support{1, 50, 200, 777, 1234};
  std::set<std::uint64_t> seen;
  for (int t = 0; t < 400; ++t) {
    const auto family = make_family(2048, 5000 + t);
    L0Sketch s{family};
    for (auto idx : support) s.update(idx, 1);
    const auto sample = s.sample();
    if (sample) seen.insert(sample->index);
  }
  EXPECT_EQ(seen, support);
}

TEST(SketchSpaceTest, SeedSizingAndDeterminism) {
  Rng rng{13};
  const auto need = SketchSpace::seed_words_needed(64, 5);
  const auto words = rng.words(need);
  const SketchSpace s1{64, 5, words};
  const SketchSpace s2{64, 5, words};
  EXPECT_EQ(s1.copies(), 5u);
  for (std::uint32_t j = 0; j < 5; ++j)
    EXPECT_EQ(s1.family(j).family_id(), s2.family(j).family_id());
  EXPECT_THROW((SketchSpace{64, 5,
                            std::span<const std::uint64_t>{words.data(),
                                                           need - 1}}),
               InvalidArgument);
}

TEST(GraphSketch, ComponentCutSampling) {
  // Two triangles joined by a single edge: summing the sketches of one
  // triangle must cancel its internal edges and sample the bridge.
  Rng rng{14};
  const std::uint32_t n = 6;
  Graph g{n};
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(3, 5);
  g.add_edge(2, 3);  // the bridge
  const auto words = rng.words(SketchSpace::seed_words_needed(n, 4));
  const SketchSpace space{n, 4, words};
  auto incident = [&](VertexId v) {
    std::vector<Edge> out;
    for (VertexId w : g.neighbors(v)) out.emplace_back(v, w);
    return out;
  };
  for (std::uint32_t j = 0; j < 4; ++j) {
    L0Sketch sum{space.family(j)};
    for (VertexId v : {0u, 1u, 2u}) {
      const auto edges = incident(v);
      auto sketches = space.sketch_vertex(v, edges);
      sum += sketches[j];
    }
    const auto sample = sum.sample();
    ASSERT_TRUE(sample.has_value()) << "copy " << j;
    EXPECT_EQ(edge_from_index(sample->index, n), (Edge{2, 3}));
  }
}

class SketchForestSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SketchForestSeeds, MatchesTrueComponents) {
  Rng rng{GetParam()};
  const std::uint32_t n = 48;
  const auto g = random_components(n, 1 + GetParam() % 4, 40, rng);
  const std::uint32_t copies = default_sketch_copies(n);
  const auto words = rng.words(SketchSpace::seed_words_needed(n, copies));
  const SketchSpace space{n, copies, words};
  std::vector<VertexId> identity(n);
  SketchArena sketches;
  for (VertexId v = 0; v < n; ++v) {
    identity[v] = v;
    std::vector<Edge> incident;
    for (VertexId w : g.neighbors(v)) incident.emplace_back(v, w);
    sketches.append(space.sketch_vertex(v, incident));
  }
  const auto result =
      sketch_spanning_forest(space, identity, identity, sketches.view());
  EXPECT_FALSE(result.ran_out_of_sketches);
  UnionFind uf{n};
  for (const Edge& e : result.forest) {
    EXPECT_TRUE(g.has_edge(e.u, e.v));
    EXPECT_TRUE(uf.unite(e.u, e.v)) << "cycle in forest";
  }
  EXPECT_EQ(uf.num_components(), num_components(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SketchForestSeeds,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// Golden pins for sketch_spanning_forest. Each case records the forest
// edge list (count plus an order-sensitive FNV-1a digest), the Borůvka round
// count and the exhaustion flag. Any rewrite of the Borůvka loop must keep
// these constants: the sampler, the root order, the candidate order and the
// cursor/retry rules all feed them.
struct ForestPin {
  std::size_t edges;
  std::uint64_t digest;
  std::uint32_t rounds;
  bool ran_out;
};

std::uint64_t forest_digest(const std::vector<Edge>& forest) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&](std::uint32_t word) {
    for (int b = 0; b < 4; ++b) {
      h ^= (word >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const Edge& e : forest) {
    mix(e.u);
    mix(e.v);
  }
  return h;
}

void expect_pin(const SketchForestResult& result, const ForestPin& pin) {
  EXPECT_EQ(result.forest.size(), pin.edges);
  EXPECT_EQ(forest_digest(result.forest), pin.digest);
  EXPECT_EQ(result.boruvka_rounds, pin.rounds);
  EXPECT_EQ(result.ran_out_of_sketches, pin.ran_out);
}

std::vector<Edge> incident_edges(const Graph& g, VertexId v) {
  std::vector<Edge> out;
  for (VertexId w : g.neighbors(v)) out.emplace_back(v, w);
  return out;
}

/// Sketch Borůvka over g's plain vertices (identity component map).
SketchForestResult plain_forest(const Graph& g, std::uint32_t copies,
                                std::uint32_t buckets, Rng& rng) {
  const std::uint32_t n = g.num_vertices();
  const auto words =
      rng.words(SketchSpace::seed_words_needed(n, copies, buckets));
  const SketchSpace space{n, copies, words, buckets};
  std::vector<VertexId> identity(n);
  SketchArena sketches;
  for (VertexId v = 0; v < n; ++v) {
    identity[v] = v;
    sketches.append(space.sketch_vertex(v, incident_edges(g, v)));
  }
  return sketch_spanning_forest(space, identity, identity, sketches.view());
}

TEST(SketchForestGolden, SeededGrid) {
  const std::uint32_t ns[] = {64, 512};
  const std::uint32_t bucket_counts[] = {1, 3};
  const ForestPin pins[2][2] = {
      {{61, 5218104649872355864ULL, 6, false},
       {61, 2296502161111677363ULL, 4, false}},
      {{509, 8809477743494432824ULL, 8, false},
       {509, 12780643971630495242ULL, 5, false}},
  };
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      const std::uint32_t n = ns[a];
      Rng rng{900 + n + bucket_counts[b]};
      const Graph g = random_components(n, 3, n, rng);
      const auto result =
          plain_forest(g, default_sketch_copies(n), bucket_counts[b], rng);
      SCOPED_TRACE(testing::Message() << "n=" << n
                                      << " buckets=" << bucket_counts[b]);
      expect_pin(result, pins[a][b]);
    }
  }
}

TEST(SketchForestGolden, SupervertexComponentMap) {
  // Supervertices are groups of four scattered original vertices, named by
  // their smallest member and listed in descending id order; a group's
  // sketch is the sum of its members' (internal edges cancel), and sampled
  // edges come back in original-vertex coordinates.
  const std::uint32_t n = 128;
  Rng rng{931};
  const Graph g = random_components(n, 2, n, rng);
  const std::uint32_t copies = default_sketch_copies(n);
  const auto words = rng.words(SketchSpace::seed_words_needed(n, copies, 3));
  const SketchSpace space{n, copies, words, 3};
  std::vector<VertexId> component_of(n, n);
  for (VertexId v = 0; v < n; ++v) {
    const VertexId group = (v * 37 % n) / 4;
    for (VertexId w = 0; w < n; ++w)
      if ((w * 37 % n) / 4 == group) {
        component_of[v] = w;  // smallest member
        break;
      }
  }
  std::map<VertexId, std::vector<L0Sketch>, std::greater<>> sums;
  for (VertexId v = 0; v < n; ++v) {
    auto [it, fresh] = sums.try_emplace(component_of[v]);
    if (fresh) it->second = space.zero();
    const auto sketches = space.sketch_vertex(v, incident_edges(g, v));
    for (std::uint32_t j = 0; j < copies; ++j) it->second[j] += sketches[j];
  }
  std::vector<VertexId> vertices;
  SketchArena sketches;
  for (const auto& [leader, sum] : sums) {
    vertices.push_back(leader);
    sketches.append(sum);
  }
  const auto result = sketch_spanning_forest(space, vertices, component_of,
                                             sketches.view());
  for (const Edge& e : result.forest) EXPECT_TRUE(g.has_edge(e.u, e.v));
  expect_pin(result, {31, 16549872549513294568ULL, 4, false});
}

TEST(SketchForestGolden, TwoCopiesRunOut) {
  Rng rng{977};
  const Graph g = random_connected(64, 64, rng);
  const auto result = plain_forest(g, 2, 1, rng);
  EXPECT_TRUE(result.ran_out_of_sketches);
  expect_pin(result, {52, 1163947629719071934ULL, 3, true});
}

// One vertex's t copies in the lane layout the packetizer reads.
SketchArena lane_block(const SketchSpace& space, VertexId v,
                       const std::vector<Edge>& incident) {
  SketchArena block;
  block.append(space.sketch_vertex(v, incident));
  return block;
}

// The packets of one vertex's block, each delivered as its Message.
std::vector<Message> delivered(const SketchSpace& space, VertexId src,
                               std::uint32_t tag_base,
                               const SketchArena& block) {
  PacketArray packets{sketch_packet_count(space)};
  write_sketch_packets(packets.span(), src, 0, tag_base, space,
                       block.view());
  std::vector<Message> inbox;
  for (const Packet& p : packets.span()) {
    Message m = p.msg;
    m.src = p.src;
    m.dst = p.dst;
    inbox.push_back(m);
  }
  return inbox;
}

TEST(Wire, PacketizeAndReassemble) {
  Rng rng{15};
  const std::uint32_t n = 32;
  const auto words = rng.words(SketchSpace::seed_words_needed(n, 3));
  const SketchSpace space{n, 3, words};
  Graph g = random_connected(n, 20, rng);
  std::vector<Edge> incident;
  for (VertexId w : g.neighbors(5)) incident.emplace_back(5, w);
  const auto sketches = space.sketch_vertex(5, incident);
  const SketchArena block = lane_block(space, 5, incident);
  const auto inbox = delivered(space, 5, 0x00030000, block);
  ASSERT_EQ(inbox.size(), 3 * sketch_message_count(space));
  // Copy j's chunks carry exactly the words L0Sketch::to_words serializes.
  const std::size_t chunks = sketch_message_count(space);
  for (std::uint32_t j = 0; j < 3; ++j) {
    std::vector<std::uint64_t> wire;
    for (std::size_t c = 0; c < chunks; ++c) {
      const Message& m = inbox[j * chunks + c];
      EXPECT_EQ(m.tag, 0x00030000u | (j << 8) | c);
      wire.insert(wire.end(), m.payload().begin(), m.payload().end());
    }
    EXPECT_EQ(wire, sketches[j].to_words()) << "copy " << j;
  }
  SketchReassembler reassembler{space, 0x00030000};
  SketchArena arena;
  const std::vector<VertexId> senders{5};
  reassembler.decode(inbox, senders, arena);
  const std::size_t cells = space.cells();
  ASSERT_EQ(arena.phi.size(), 3 * cells);
  for (std::uint32_t j = 0; j < 3; ++j) {
    const SketchLanes got = arena.view().sketch(j, cells);
    const SketchLanes want = sketches[j].lanes();
    EXPECT_TRUE(std::ranges::equal(got.phi, want.phi)) << "copy " << j;
    EXPECT_TRUE(std::ranges::equal(got.iota, want.iota)) << "copy " << j;
    EXPECT_TRUE(std::ranges::equal(got.tau, want.tau)) << "copy " << j;
  }
  // The reassembler and the arena are reusable: a second inbox in reverse
  // order decodes to the same lanes.
  const std::vector<Message> reversed(inbox.rbegin(), inbox.rend());
  SketchArena again;
  reassembler.decode(reversed, senders, again);
  EXPECT_EQ(again.phi, arena.phi);
  EXPECT_EQ(again.iota, arena.iota);
  EXPECT_EQ(again.tau, arena.tau);
}

TEST(Wire, MissingOrUnlistedSenderRejected) {
  Rng rng{17};
  const auto words = rng.words(SketchSpace::seed_words_needed(16, 2));
  const SketchSpace space{16, 2, words};
  const auto inbox = delivered(space, 3, 0x00050000,
                               lane_block(space, 3, {{3, 4}}));
  SketchArena arena;
  SketchReassembler unlisted{space, 0x00050000};
  EXPECT_THROW(unlisted.decode(inbox, std::vector<VertexId>{}, arena),
               std::logic_error);
  SketchReassembler missing{space, 0x00050000};
  EXPECT_THROW(missing.decode(inbox, std::vector<VertexId>{4}, arena),
               std::logic_error);
}

TEST(Wire, IncompleteOrStrayCopyRejected) {
  Rng rng{18};
  const auto words = rng.words(SketchSpace::seed_words_needed(16, 2));
  const SketchSpace space{16, 2, words};
  const auto inbox = delivered(space, 3, 0x00050000,
                               lane_block(space, 3, {{3, 4}}));
  ASSERT_GT(inbox.size(), 2u);
  const std::vector<VertexId> listed{3};
  SketchArena arena;
  SketchReassembler reassembler{space, 0x00050000};
  EXPECT_NO_THROW(reassembler.decode(inbox, listed, arena));
  // One chunk of the last copy never arrives.
  const std::vector<Message> incomplete(inbox.begin(), inbox.end() - 1);
  EXPECT_THROW(reassembler.decode(incomplete, listed, arena),
               std::logic_error);
  // A third copy on a two-copy space.
  std::vector<Message> stray = inbox;
  stray.push_back(inbox[0]);
  stray.back().tag = 0x00050000 | (2u << 8);
  EXPECT_THROW(reassembler.decode(stray, listed, arena), std::logic_error);
  // A chunk index past the sketch's last word.
  std::vector<Message> outside{inbox[0]};
  outside[0].tag = 0x00050000 | 0xff;
  EXPECT_THROW(reassembler.decode(outside, listed, arena), std::logic_error);
}

TEST(Wire, ForeignTagsIgnored) {
  Rng rng{16};
  const auto words = rng.words(SketchSpace::seed_words_needed(16, 1));
  const SketchSpace space{16, 1, words};
  SketchReassembler reassembler{space, 0x00040000};
  Message foreign = msg1(0x00990000, 1);
  foreign.src = 2;
  SketchArena arena;
  EXPECT_NO_THROW(reassembler.decode(std::vector<Message>{foreign},
                                     std::vector<VertexId>{}, arena));
  EXPECT_TRUE(arena.phi.empty());
}

TEST(Signature, AppliedSignaturesMatchL0SketchUpdates) {
  // One signature per edge, applied +1 at u and -1 at v, gives both
  // endpoints exactly the lanes of t L0Sketch::update calls each. 19
  // copies span more than one block of interleaved hash chains.
  Rng rng{19};
  const std::uint32_t n = 40;
  for (const auto& [buckets, copies] :
       {std::pair{1u, 5u}, std::pair{3u, 5u}, std::pair{1u, 19u}}) {
    const auto words =
        rng.words(SketchSpace::seed_words_needed(n, copies, buckets));
    const SketchSpace space{n, copies, words, buckets};
    const Graph g = random_connected(n, 60, rng);
    const std::size_t block = space.copies() * space.cells();
    SketchArena lanes;
    lanes.phi.assign(n * block, 0);
    lanes.iota.assign(n * block, 0);
    lanes.tau.assign(n * block, 0);
    std::vector<SignatureEntry> signature;
    for (const Edge& e : g.edges()) {
      const std::uint64_t idx = edge_index(e.u, e.v, n);
      signature.clear();
      space.append_signature(idx, signature);
      for (const VertexId end : {e.u, e.v}) {
        const std::size_t at = end * block;
        apply_signature(signature, idx, incidence_sign(end, e),
                        lanes.phi.data() + at, lanes.iota.data() + at,
                        lanes.tau.data() + at);
      }
    }
    SketchArena want;
    for (VertexId v = 0; v < n; ++v)
      want.append(space.sketch_vertex(v, incident_edges(g, v)));
    EXPECT_EQ(lanes.phi, want.phi) << buckets << " buckets, t " << copies;
    EXPECT_EQ(lanes.iota, want.iota) << buckets << " buckets, t " << copies;
    EXPECT_EQ(lanes.tau, want.tau) << buckets << " buckets, t " << copies;
  }
}

TEST(CfBuckets, BucketedSingleItemRecovered) {
  Rng rng{20};
  const auto params = SketchParams::cormode_firmani(1000, 4);
  const auto words = rng.words(sketch_seed_words(params));
  const SketchFamily family{params, words};
  for (std::uint64_t i : {0ull, 17ull, 999ull}) {
    L0Sketch s{family};
    s.update(i, -1);
    const auto sample = s.sample();
    ASSERT_TRUE(sample.has_value());
    EXPECT_EQ(sample->index, i);
    EXPECT_EQ(sample->sign, -1);
  }
}

TEST(CfBuckets, LinearityHoldsAcrossBuckets) {
  Rng rng{21};
  const auto params = SketchParams::cormode_firmani(2000, 3);
  const auto words = rng.words(sketch_seed_words(params));
  const SketchFamily family{params, words};
  L0Sketch a{family};
  L0Sketch b{family};
  L0Sketch direct{family};
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t idx = rng.next_below(2000);
    a.update(idx, 1);
    direct.update(idx, 1);
    const std::uint64_t idx2 = rng.next_below(2000);
    b.update(idx2, -1);
    direct.update(idx2, -1);
  }
  a += b;
  EXPECT_EQ(a.to_words(), direct.to_words());
}

TEST(CfBuckets, WireSizeScalesWithBuckets) {
  const auto lean = SketchParams::for_universe(4096);
  const auto cf = SketchParams::cormode_firmani(4096, 4);
  EXPECT_EQ(L0Sketch::word_size(cf), 4 * L0Sketch::word_size(lean));
}

TEST(CfBuckets, SerializationRoundTripWithBuckets) {
  Rng rng{22};
  const auto params = SketchParams::cormode_firmani(512, 2);
  const auto words = rng.words(sketch_seed_words(params));
  const SketchFamily family{params, words};
  L0Sketch s{family};
  for (int i = 0; i < 30; ++i) s.update(rng.next_below(512), 1);
  const auto wire = s.to_words();
  EXPECT_EQ(L0Sketch::from_words(family, wire).to_words(), wire);
}

TEST(CfBuckets, MoreBucketsRaiseSuccessRate) {
  // The CF table layout spreads a level's survivors over buckets, so more
  // detectors are 1-sparse: the success rate must not drop (and typically
  // rises markedly for adversarial densities).
  Rng rng{23};
  auto success_rate = [&](std::uint32_t buckets) {
    int ok = 0;
    const int trials = 250;
    for (int t = 0; t < trials; ++t) {
      const auto params = SketchParams::cormode_firmani(5000, buckets);
      Rng seed_rng{static_cast<std::uint64_t>(t) * 977 + buckets};
      const auto words = seed_rng.words(sketch_seed_words(params));
      const SketchFamily family{params, words};
      L0Sketch s{family};
      std::set<std::uint64_t> support;
      for (int i = 0; i < 150; ++i) {
        const std::uint64_t idx = rng.next_below(5000);
        if (support.insert(idx).second) s.update(idx, 1);
      }
      if (s.sample()) ++ok;
    }
    return static_cast<double>(ok) / trials;
  };
  const double lean = success_rate(1);
  const double bucketed = success_rate(4);
  EXPECT_GT(bucketed, lean - 0.05);
  EXPECT_GT(bucketed, 0.85);
}

TEST(CfBuckets, SketchSpaceWithBuckets) {
  Rng rng{24};
  const std::uint32_t n = 32;
  const auto words = rng.words(SketchSpace::seed_words_needed(n, 3, 2));
  const SketchSpace space{n, 3, words, 2};
  EXPECT_EQ(space.params().buckets, 2u);
  const Graph g = random_connected(n, 20, rng);
  std::vector<Edge> incident;
  for (VertexId w : g.neighbors(3)) incident.emplace_back(3, w);
  const auto sketches = space.sketch_vertex(3, incident);
  ASSERT_EQ(sketches.size(), 3u);
  const auto sample = sketches[0].sample();
  if (sample.has_value()) {
    const Edge e = edge_from_index(sample->index, n);
    EXPECT_TRUE(e.u == 3 || e.v == 3);
  }
}

TEST(DefaultCopies, GrowsLogarithmically) {
  EXPECT_GE(default_sketch_copies(16), 2u * 4 + 8);
  EXPECT_LT(default_sketch_copies(1 << 16), 64u);
  EXPECT_GT(default_sketch_copies(1 << 16), default_sketch_copies(16));
}

}  // namespace
}  // namespace ccq
