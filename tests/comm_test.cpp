#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>

#include "comm/primitives.hpp"
#include "comm/routing.hpp"
#include "comm/shared_random.hpp"
#include "comm/sorting.hpp"

namespace ccq {
namespace {

TEST(Primitives, BroadcastFromCharges) {
  CliqueEngine engine{{.n = 8}};
  const std::vector<std::uint64_t> words{1, 2, 3, 4, 5};  // 2 messages/link
  const auto rounds = broadcast_from(engine, 0, words);
  EXPECT_EQ(rounds, 2u);
  EXPECT_EQ(engine.metrics().rounds, 2u);
  EXPECT_EQ(engine.metrics().messages, 2u * 7);
  EXPECT_EQ(engine.metrics().words, 5u * 7);
}

TEST(Primitives, BroadcastAllCharges) {
  CliqueEngine engine{{.n = 5}};
  std::vector<VertexId> senders{0, 2, 4};
  std::vector<std::vector<std::uint64_t>> values{{1}, {2}, {3}};
  const auto rounds = broadcast_all(engine, senders, values);
  EXPECT_EQ(rounds, 1u);
  EXPECT_EQ(engine.metrics().messages, 3u * 4);
  EXPECT_EQ(engine.metrics().words, 3u * 4);
}

TEST(Primitives, SprayBroadcastTwoRounds) {
  CliqueEngine engine{{.n = 6}};
  std::vector<std::vector<std::uint64_t>> items{{1, 2}, {3, 4}, {5, 6}};
  const auto rounds = spray_broadcast(engine, 2, items);
  EXPECT_EQ(rounds, 2u);
  EXPECT_EQ(engine.metrics().rounds, 2u);
  // Round 1: 3 messages owner->helpers; round 2: 3 helpers broadcast to 5.
  EXPECT_EQ(engine.metrics().messages, 3u + 3u * 5);
}

TEST(Primitives, SprayBroadcastLimits) {
  CliqueEngine engine{{.n = 3}};
  std::vector<std::vector<std::uint64_t>> too_many(3, {1});
  EXPECT_THROW(spray_broadcast(engine, 0, too_many), std::logic_error);
  std::vector<std::vector<std::uint64_t>> too_big{{1, 2, 3, 4, 5}};
  EXPECT_THROW(spray_broadcast(engine, 0, too_big), std::logic_error);
}

TEST(Primitives, ResolveIdsKt0CostsOneFullRound) {
  CliqueEngine engine{{.n = 10, .knowledge = Knowledge::KT0}};
  resolve_ids_kt0(engine);
  EXPECT_EQ(engine.metrics().rounds, 1u);
  EXPECT_EQ(engine.metrics().messages, 90u);
}

TEST(Coloring, ProperOnRandomMultigraphs) {
  Rng rng{5};
  for (int trial = 0; trial < 20; ++trial) {
    const auto left = static_cast<std::uint32_t>(1 + rng.next_below(12));
    const auto right = static_cast<std::uint32_t>(1 + rng.next_below(12));
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    const std::size_t m = rng.next_below(200);
    for (std::size_t i = 0; i < m; ++i)
      edges.emplace_back(rng.next_below(left), rng.next_below(right));
    const auto color = bipartite_edge_coloring(edges, left, right);
    ASSERT_EQ(color.size(), edges.size());
    // Properness: within a color no shared left or right endpoint.
    std::map<std::pair<std::uint32_t, std::uint32_t>, int> used;  // (color, v)
    for (std::size_t i = 0; i < edges.size(); ++i) {
      EXPECT_EQ((++used[{color[i], edges[i].first}]), 1);
      EXPECT_EQ((++used[{color[i], edges[i].second + left}]), 1);
    }
    // Color count within a constant factor of the max degree.
    std::map<std::uint32_t, std::size_t> degl, degr;
    for (const auto& [a, b] : edges) {
      ++degl[a];
      ++degr[b];
    }
    std::size_t delta = 1;
    for (const auto& [v, d] : degl) delta = std::max(delta, d);
    for (const auto& [v, d] : degr) delta = std::max(delta, d);
    if (!edges.empty()) {
      // Euler halving uses at most bit_ceil(delta) < 2*delta colors.
      const std::uint32_t colors =
          1 + *std::max_element(color.begin(), color.end());
      EXPECT_LE(colors, 2 * delta);
    }
  }
}

TEST(Routing, DeliversEverythingExactlyOnce) {
  Rng rng{7};
  CliqueEngine engine{{.n = 16}};
  std::vector<Packet> packets;
  std::multiset<std::tuple<VertexId, VertexId, std::uint64_t>> expect;
  for (int i = 0; i < 300; ++i) {
    const auto s = static_cast<VertexId>(rng.next_below(16));
    const auto d = static_cast<VertexId>(rng.next_below(16));
    packets.push_back({s, d, msg1(1, static_cast<std::uint64_t>(i))});
    expect.insert({s, d, static_cast<std::uint64_t>(i)});
  }
  RoundBuffer inbox;
  route_packets_into(engine, packets, inbox);
  std::multiset<std::tuple<VertexId, VertexId, std::uint64_t>> got;
  for (VertexId v = 0; v < 16; ++v)
    for (const auto& m : inbox.inbox(v)) got.insert({m.src, m.dst, m.word(0)});
  EXPECT_EQ(got, expect);
}

TEST(Routing, LocalPacketsAreFree) {
  CliqueEngine engine{{.n = 4}};
  std::vector<Packet> packets{{2, 2, msg1(0, 9)}};
  RoundBuffer inbox;
  route_packets_into(engine, packets, inbox);
  EXPECT_EQ(inbox.inbox(2).size(), 1u);
  EXPECT_EQ(engine.metrics().messages, 0u);
  EXPECT_EQ(engine.metrics().rounds, 0u);
}

TEST(Routing, TwoMessagesChargedPerRelayedPacket) {
  CliqueEngine engine{{.n = 8}};
  std::vector<Packet> packets;
  for (int i = 0; i < 5; ++i) packets.push_back({0, 7, msg1(0, 1)});
  RouteStats stats;
  RoundBuffer inbox;
  route_packets_into(engine, packets, inbox, &stats);
  EXPECT_EQ(engine.metrics().messages, 10u);
  EXPECT_EQ(stats.max_send_load, 5u);
  EXPECT_EQ(stats.max_recv_load, 5u);
}

TEST(Routing, ConstantRoundsWhenLoadAtMostN) {
  // Every node sends n-1 packets (one per destination): Lenzen's O(1)
  // regime; rounds must not grow with n.
  for (std::uint32_t n : {8u, 16u, 32u}) {
    CliqueEngine engine{{.n = n}};
    std::vector<Packet> packets;
    for (VertexId s = 0; s < n; ++s)
      for (VertexId d = 0; d < n; ++d)
        if (s != d) packets.push_back({s, d, msg1(0, 1)});
    RouteStats stats;
    RoundBuffer inbox;
    route_packets_into(engine, packets, inbox, &stats);
    EXPECT_LE(stats.rounds, 8u) << "n=" << n;
  }
}

TEST(Routing, RoundsScaleWithOverload) {
  // One receiver swallowing k*n packets needs Θ(k) rounds.
  CliqueEngine engine{{.n = 8}};
  std::vector<Packet> packets;
  for (int i = 0; i < 8 * 10; ++i)
    packets.push_back(
        {static_cast<VertexId>(i % 7 + 1), 0, msg1(0, 1)});
  RouteStats stats;
  RoundBuffer inbox;
  route_packets_into(engine, packets, inbox, &stats);
  EXPECT_GE(stats.rounds, 10u);
  EXPECT_LE(stats.rounds, 40u);
}

TEST(Routing, HeavyOverloadFinishesWithLinearWaves) {
  // Regression: a coordinator absorbing L >> n packets must be scheduled in
  // O(L/n) waves without the coloring pass blowing up (this once padded the
  // multigraph to side * bit_ceil(L) edges and effectively hung).
  const std::uint32_t n = 32;
  const std::uint64_t load = 64ull * n;  // L = 64n
  CliqueEngine engine{{.n = n}};
  std::vector<Packet> packets;
  for (std::uint64_t i = 0; i < load; ++i)
    packets.push_back(
        {static_cast<VertexId>(1 + i % (n - 1)), 0, msg1(0, i)});
  RouteStats stats;
  RoundBuffer inbox;
  route_packets_into(engine, packets, inbox, &stats);
  EXPECT_EQ(inbox.inbox(0).size(), load);
  // O(1 + L/n): about 2 rounds per wave of n packets, within a small factor.
  EXPECT_LE(stats.rounds, 2 * (load / (n - 1)) + 16);
  EXPECT_GE(stats.rounds, load / n);
}

TEST(Routing, ObserverSeesTwoHops) {
  CliqueEngine engine{{.n = 4}};
  std::uint64_t count = 0;
  engine.set_observer([&](VertexId, VertexId) { ++count; });
  std::vector<Packet> packets{{0, 3, msg1(0, 1)}, {1, 2, msg1(0, 2)}};
  RoundBuffer inbox;
  route_packets_into(engine, packets, inbox);
  EXPECT_EQ(count, 4u);
}

TEST(Routing, UniformBundlesUseExactlyMaxDegreeColors) {
  // Random uniform bundle sets: every relayed (src, dst) run has one
  // length k, runs may repeat a pair non-consecutively, and local runs mix
  // in. The route must use exactly delta = k * delta_S colours.
  Rng rng{71};
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<std::uint32_t>(3 + rng.next_below(62));
    const auto k = static_cast<std::uint32_t>(2 + rng.next_below(15));
    const std::uint32_t per_link = trial % 2 == 0 ? 1 : 4;
    auto subset = [&] {
      std::vector<VertexId> out;
      for (VertexId v = 0; v < n; ++v)
        if (rng.next_below(3) == 0) out.push_back(v);
      if (out.empty()) out.push_back(static_cast<VertexId>(rng.next_below(n)));
      return out;
    };
    const auto senders = subset();
    const auto receivers = subset();
    std::vector<std::uint32_t> send_runs(n, 0);
    std::vector<std::uint32_t> recv_runs(n, 0);
    std::vector<Packet> packets;
    std::pair<VertexId, VertexId> last_relayed{n, n};
    const std::size_t runs = 1 + rng.next_below(3 * n);
    for (std::size_t r = 0; r < runs; ++r) {
      const VertexId s = senders[rng.next_below(senders.size())];
      const VertexId d = receivers[rng.next_below(receivers.size())];
      if (s != d) {
        // Equal adjacent relayed runs would merge into one of length 2k;
        // delta_S stays <= n so the bundle colouring applies.
        if (std::pair{s, d} == last_relayed || send_runs[s] == n ||
            recv_runs[d] == n)
          continue;
        last_relayed = {s, d};
        ++send_runs[s];
        ++recv_runs[d];
      }
      for (std::uint32_t j = 0; j < k; ++j)
        packets.push_back({s, d, msg1(0, packets.size())});
    }
    std::vector<std::pair<std::uint32_t, std::uint32_t>> relayed;
    for (const Packet& p : packets)
      if (p.src != p.dst) relayed.emplace_back(p.src, p.dst);
    if (relayed.empty()) continue;
    const std::uint64_t delta =
        k * std::max(*std::max_element(send_runs.begin(), send_runs.end()),
                     *std::max_element(recv_runs.begin(), recv_runs.end()));

    const auto color = uniform_bundle_coloring(relayed, n);
    ASSERT_EQ(color.size(), relayed.size()) << "trial " << trial;
    EXPECT_EQ(1 + *std::max_element(color.begin(), color.end()), delta);
    std::set<std::pair<std::uint32_t, std::uint32_t>> src_used;
    std::set<std::pair<std::uint32_t, std::uint32_t>> dst_used;
    for (std::size_t i = 0; i < relayed.size(); ++i) {
      EXPECT_TRUE(src_used.insert({color[i], relayed[i].first}).second);
      EXPECT_TRUE(dst_used.insert({color[i], relayed[i].second}).second);
    }

    CliqueEngine engine{{.n = n, .messages_per_link = per_link}};
    RouteStats stats;
    RoundBuffer inbox;
    route_packets_into(engine, packets, inbox, &stats);
    const std::uint64_t per_batch = std::uint64_t{n} * per_link;
    EXPECT_EQ(stats.rounds,
              2 * ((delta + per_batch - 1) / per_batch) + kScheduleRounds)
        << "trial " << trial;
    std::vector<std::uint32_t> seen(packets.size(), 0);
    for (VertexId v = 0; v < n; ++v)
      for (const Message& m : inbox.inbox(v)) {
        ASSERT_LT(m.word(0), packets.size());
        EXPECT_EQ(packets[m.word(0)].src, m.src);
        EXPECT_EQ(packets[m.word(0)].dst, v);
        ++seen[m.word(0)];
      }
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 1u),
              static_cast<std::ptrdiff_t>(packets.size()));
  }
}

TEST(Routing, NonUniformPacketSetsKeepWaveColoring) {
  using Pairs = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
  // Runs of length 1, mixed run lengths, and delta_S > n all fall back.
  EXPECT_TRUE(uniform_bundle_coloring(Pairs{{0, 1}, {1, 2}}, 4).empty());
  EXPECT_TRUE(
      uniform_bundle_coloring(Pairs{{0, 1}, {0, 1}, {1, 2}}, 4).empty());
  Pairs star;
  for (std::uint32_t s = 0; s < 3; ++s)
    for (std::uint32_t d = 0; d < 3; ++d)
      for (int j = 0; j < 2; ++j) star.emplace_back(s, d);
  EXPECT_EQ(uniform_bundle_coloring(star, 3).size(), star.size());
  star.emplace_back(0, 1);
  star.emplace_back(0, 1);  // a fourth run into receiver 1: delta_S = 4 > n
  EXPECT_TRUE(uniform_bundle_coloring(star, 3).empty());
  EXPECT_TRUE(uniform_bundle_coloring(Pairs{}, 3).empty());
}

// Golden pins for the central schedules. Each constant is an
// order-sensitive FNV-1a digest (or an exact count) of what the colouring
// and the router produce today; a rewrite of bipartite_edge_coloring or of
// route_packets_into's wave split must reproduce them bit for bit, because
// relay choice feeds the observer, the load profile and every trace.
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(ColoringGolden, SmallRandomMultigraphs) {
  Rng rng{41};
  std::uint64_t h = kFnvBasis;
  for (int trial = 0; trial < 60; ++trial) {
    const auto left = static_cast<std::uint32_t>(1 + rng.next_below(16));
    const auto right = static_cast<std::uint32_t>(1 + rng.next_below(16));
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    const std::size_t m = rng.next_below(300);
    for (std::size_t i = 0; i < m; ++i)
      edges.emplace_back(rng.next_below(left), rng.next_below(right));
    for (std::uint32_t c : bipartite_edge_coloring(edges, left, right))
      h = fnv_mix(h, c);
  }
  EXPECT_EQ(h, 16183129888119745015ULL);
}

TEST(ColoringGolden, HotReceiversFarAboveN) {
  // n = 512 with 7/8 of 100k edges landing on four hot receivers: degree
  // ~22k >> n, the SQ-MST guardian shape.
  const std::uint32_t n = 512;
  const std::uint32_t hot[] = {5, 130, 257, 511};
  Rng rng{43};
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (int i = 0; i < 100000; ++i) {
    const auto src = static_cast<std::uint32_t>(rng.next_below(n));
    const auto dst = rng.next_below(8) == 0
                         ? static_cast<std::uint32_t>(rng.next_below(n))
                         : hot[rng.next_below(4)];
    edges.emplace_back(src, dst);
  }
  const auto color = bipartite_edge_coloring(edges, n, n);
  std::uint64_t h = kFnvBasis;
  for (std::uint32_t c : color) h = fnv_mix(h, c);
  EXPECT_EQ(1 + *std::max_element(color.begin(), color.end()), 32768u);
  EXPECT_EQ(h, 13374729968415102874ULL);
}

struct RoutePin {
  std::uint64_t rounds;
  std::uint64_t color_batches;
  std::uint64_t max_send_load;
  std::uint64_t max_recv_load;
  std::uint64_t engine_rounds;
  std::uint64_t messages;
  std::uint64_t words;
  std::uint64_t max_messages_in_round;
  std::uint64_t relay_digest;  // observer (src, dst) sequence
};

/// Payloads carry 0..3 words so the word accounting is exercised.
Packet pin_packet(VertexId src, VertexId dst, std::uint64_t i) {
  const std::uint64_t words[] = {i, i + 1, i + 2};
  return {src, dst, make_message(0, std::span{words, i % 4})};
}

void expect_packets_pin(std::uint32_t n, std::uint32_t messages_per_link,
                        const std::vector<Packet>& packets,
                        const RoutePin& pin) {
  CliqueEngine engine{{.n = n, .messages_per_link = messages_per_link}};
  std::uint64_t h = kFnvBasis;
  engine.set_observer([&](VertexId s, VertexId d) {
    h = fnv_mix(h, (static_cast<std::uint64_t>(s) << 32) | d);
  });
  RouteStats stats;
  RoundBuffer inbox;
  route_packets_into(engine, packets, inbox, &stats);
  const Metrics& m = engine.metrics();
  EXPECT_EQ(stats.rounds, pin.rounds);
  EXPECT_EQ(stats.color_batches, pin.color_batches);
  EXPECT_EQ(stats.max_send_load, pin.max_send_load);
  EXPECT_EQ(stats.max_recv_load, pin.max_recv_load);
  EXPECT_EQ(m.rounds, pin.engine_rounds);
  EXPECT_EQ(m.messages, pin.messages);
  EXPECT_EQ(m.words, pin.words);
  EXPECT_EQ(m.max_messages_in_round, pin.max_messages_in_round);
  EXPECT_EQ(h, pin.relay_digest);
}

/// Routes `count` packets on an n-node clique; a packet goes to one of
/// `hot` (if nonempty) with probability 7/8, else to a uniform receiver.
void expect_route_pin(std::uint32_t n, std::uint32_t messages_per_link,
                      std::size_t count, const std::vector<VertexId>& hot,
                      std::uint64_t seed, const RoutePin& pin) {
  Rng rng{seed};
  std::vector<Packet> packets;
  for (std::size_t i = 0; i < count; ++i) {
    const auto src = static_cast<VertexId>(rng.next_below(n));
    const auto dst =
        !hot.empty() && rng.next_below(8) != 0
            ? hot[rng.next_below(hot.size())]
            : static_cast<VertexId>(rng.next_below(n));
    packets.push_back(pin_packet(src, dst, i));
  }
  expect_packets_pin(n, messages_per_link, packets, pin);
}

/// The SQ-MST sketch shape: each of `senders` distinct vertices ships k
/// consecutive packets to each of 3 distinct guardians among ids
/// [0, guardians). Senders include guardians 0..5, so runs addressed to
/// the sender itself are local deliveries mixed into the relayed runs.
std::vector<Packet> uniform_bundle_packets(std::uint32_t n,
                                           std::uint32_t senders,
                                           std::uint32_t guardians,
                                           std::uint32_t k,
                                           std::uint64_t seed) {
  Rng rng{seed};
  std::vector<VertexId> from{0, 1, 2, 3, 4, 5};
  while (from.size() < senders) {
    const auto v = static_cast<VertexId>(rng.next_below(n));
    if (std::find(from.begin(), from.end(), v) == from.end())
      from.push_back(v);
  }
  std::vector<Packet> packets;
  for (VertexId src : from) {
    std::vector<VertexId> to;
    while (to.size() < 3) {
      const auto g = static_cast<VertexId>(rng.next_below(guardians));
      if (std::find(to.begin(), to.end(), g) == to.end()) to.push_back(g);
    }
    for (VertexId dst : to)
      for (std::uint32_t j = 0; j < k; ++j)
        packets.push_back(pin_packet(src, dst, packets.size()));
  }
  return packets;
}

TEST(RoutingGolden, Uniform) {
  expect_route_pin(64, 1, 6000, {}, 51,
                   {6, 2, 111, 120, 6, 11804, 23600, 4048,
                    1911567646807003174ULL});
}

TEST(RoutingGolden, HotGuardians) {
  // Load far above n on three guardians: many first-fit waves.
  expect_route_pin(128, 1, 20000, {3, 64, 127}, 52,
                   {94, 46, 187, 5836, 94, 39644, 79258, 2856,
                    8901003477503688953ULL});
}

TEST(RoutingGolden, WideLinks) {
  expect_route_pin(32, 4, 5000, {0, 17}, 53,
                   {36, 17, 174, 2149, 36, 9706, 19421, 827,
                    13798545821100346553ULL});
}

TEST(RoutingGolden, UniformBundles) {
  // 40 senders x 3 of 12 guardians x 24 copies: a guardian receives far
  // more than n = 120 packets, so the route needs several batches.
  expect_packets_pin(120, 1, uniform_bundle_packets(120, 40, 12, 24, 54),
                     {10, 4, 72, 408, 10, 5712, 11424, 845,
                      8782660606391672037ULL});
}

TEST(RoutingGolden, UniformBundlesWideLinks) {
  expect_packets_pin(120, 4, uniform_bundle_packets(120, 40, 12, 24, 54),
                     {4, 1, 72, 408, 4, 5712, 11424, 2856,
                      8782660606391672037ULL});
}

TEST(RoutingGolden, UniformBundlesOddN) {
  // n = 100 is no power of two: the wave path's per-wave Euler blocks (up
  // to 128 colours for a wave of degree <= n) took 6 batches; the bundle
  // colouring needs only ceil(408 / 100) = 5.
  expect_packets_pin(100, 1, uniform_bundle_packets(100, 40, 12, 24, 54),
                     {12, 5, 72, 408, 12, 5664, 11328, 706,
                      14976854510530559013ULL});
}

class SortSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SortSizes, RanksMatchStdSort) {
  Rng rng{101 + GetParam()};
  const std::uint32_t n = 12;
  std::vector<std::vector<std::uint64_t>> keys(n);
  std::vector<std::uint64_t> all;
  for (std::size_t i = 0; i < GetParam(); ++i) {
    const auto owner = static_cast<VertexId>(rng.next_below(n));
    const std::uint64_t key = rng.next_below(1 << 20);
    keys[owner].push_back(key);
    all.push_back(key);
  }
  CliqueEngine engine{{.n = n}};
  const auto ranks = distributed_sort_ranks(engine, keys, rng);
  // Every rank is used exactly once, and ranks are monotone in key value.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rank_key;
  for (VertexId v = 0; v < n; ++v)
    for (std::size_t i = 0; i < keys[v].size(); ++i)
      rank_key.push_back({ranks[v][i], keys[v][i]});
  std::sort(rank_key.begin(), rank_key.end());
  for (std::size_t i = 0; i < rank_key.size(); ++i)
    EXPECT_EQ(rank_key[i].first, i);
  for (std::size_t i = 1; i < rank_key.size(); ++i)
    EXPECT_LE(rank_key[i - 1].second, rank_key[i].second);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SortSizes,
                         ::testing::Values(0, 1, 2, 7, 50, 333, 1000));

TEST(Sorting, HandlesDuplicateKeys) {
  Rng rng{55};
  const std::uint32_t n = 6;
  std::vector<std::vector<std::uint64_t>> keys(n);
  for (VertexId v = 0; v < n; ++v) keys[v] = {42, 42, 42};
  CliqueEngine engine{{.n = n}};
  const auto ranks = distributed_sort_ranks(engine, keys, rng);
  std::set<std::uint64_t> seen;
  for (VertexId v = 0; v < n; ++v)
    for (auto r : ranks[v]) seen.insert(r);
  EXPECT_EQ(seen.size(), 18u);  // all distinct ranks 0..17
  EXPECT_EQ(*seen.rbegin(), 17u);
}

TEST(SharedRandom, LengthAndDeterminism) {
  Rng rng1{9};
  Rng rng2{9};
  CliqueEngine e1{{.n = 8}};
  CliqueEngine e2{{.n = 8}};
  const auto w1 = shared_random_words(e1, 20, rng1);
  const auto w2 = shared_random_words(e2, 20, rng2);
  EXPECT_EQ(w1.size(), 20u);
  EXPECT_EQ(w1, w2);
  // 20 words from 8 nodes: 3 waves of broadcast_all.
  EXPECT_EQ(e1.metrics().rounds, 3u);
}

}  // namespace
}  // namespace ccq
