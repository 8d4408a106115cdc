#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <span>

#include "clique/load_profile.hpp"
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

/// Reference first-fit waves: edge e joins the smallest wave where both of
/// its endpoints still have fewer than n edges. Returns each edge's wave
/// and each wave's max degree.
std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>
first_fit_waves(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
    std::uint32_t n) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> src_use;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> dst_use;
  std::vector<std::uint32_t> wave(edges.size());
  std::vector<std::uint32_t> delta;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    std::uint32_t w = 0;
    while (src_use[{edges[e].first, w}] >= n ||
           dst_use[{edges[e].second, w}] >= n)
      ++w;
    wave[e] = w;
    if (w >= delta.size()) delta.resize(w + 1, 0);
    delta[w] = std::max({delta[w], ++src_use[{edges[e].first, w}],
                         ++dst_use[{edges[e].second, w}]});
  }
  return {wave, delta};
}

/// Checks wave_edge_coloring on `edges`: proper (no shared src or dst
/// within a colour), and wave w of the reference first-fit takes exactly
/// the colour block [sum of earlier Delta, + Delta_w). Returns the total
/// colour count.
std::uint32_t expect_exact_waves(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
    std::uint32_t n) {
  const auto color = wave_edge_coloring(edges, n);
  EXPECT_EQ(color.size(), edges.size());
  std::set<std::pair<std::uint32_t, std::uint32_t>> src_used;
  std::set<std::pair<std::uint32_t, std::uint32_t>> dst_used;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_TRUE(src_used.insert({color[i], edges[i].first}).second);
    EXPECT_TRUE(dst_used.insert({color[i], edges[i].second}).second);
  }
  const auto [wave, delta] = first_fit_waves(edges, n);
  std::vector<std::uint32_t> base(delta.size() + 1, 0);
  for (std::size_t w = 0; w < delta.size(); ++w)
    base[w + 1] = base[w] + delta[w];
  std::vector<std::set<std::uint32_t>> used(delta.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_GE(color[i], base[wave[i]]);
    EXPECT_LT(color[i], base[wave[i] + 1]);
    used[wave[i]].insert(color[i]);
  }
  for (std::size_t w = 0; w < delta.size(); ++w)
    EXPECT_EQ(used[w].size(), delta[w]) << "wave " << w;
  return base.back();
}

TEST(Coloring, WavesUseExactlyTheirMaxDegree) {
  // Loads below and far above n, on sparse and dense multigraphs.
  Rng rng{5};
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<std::uint32_t>(1 + rng.next_below(24));
    const auto hot = static_cast<std::uint32_t>(rng.next_below(3));
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    const std::size_t m = rng.next_below(trial % 4 == 0 ? 2000 : 200);
    for (std::size_t i = 0; i < m; ++i) {
      const auto src = static_cast<std::uint32_t>(rng.next_below(n));
      const auto dst = static_cast<std::uint32_t>(
          hot > 0 && rng.next_below(4) != 0 ? rng.next_below(std::min(hot, n))
                                            : rng.next_below(n));
      edges.emplace_back(src, dst);
    }
    std::map<std::uint32_t, std::uint32_t> degl, degr;
    std::uint32_t delta = 0;
    for (const auto& [a, b] : edges)
      delta = std::max({delta, ++degl[a], ++degr[b]});
    const std::uint32_t colors = expect_exact_waves(edges, n);
    // One wave when Delta <= n: exactly Delta colours, König's bound.
    if (delta <= n) {
      EXPECT_EQ(colors, delta) << "trial " << trial;
    }
    EXPECT_GE(colors, delta);
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
// and the router produce today; a rewrite of wave_edge_coloring or of
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
    for (std::uint32_t c : wave_edge_coloring(edges, std::max(left, right)))
      h = fnv_mix(h, c);
  }
  EXPECT_EQ(h, 16058166577394321378ULL);
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
  const auto color = wave_edge_coloring(edges, n);
  std::uint64_t h = kFnvBasis;
  for (std::uint32_t c : color) h = fnv_mix(h, c);
  EXPECT_EQ(1 + *std::max_element(color.begin(), color.end()), 22047u);
  EXPECT_EQ(h, 8440243415635785208ULL);
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

void expect_packets_pin_at(std::uint32_t threads, std::uint32_t n,
                           std::uint32_t messages_per_link,
                           const std::vector<Packet>& packets,
                           const RoutePin& pin) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  CliqueEngine engine{{.n = n,
                       .messages_per_link = messages_per_link,
                       .threads = threads}};
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

/// Pins one route at engine threads 1 and 4.
void expect_packets_pin(std::uint32_t n, std::uint32_t messages_per_link,
                        const std::vector<Packet>& packets,
                        const RoutePin& pin) {
  for (std::uint32_t threads : {1u, 4u})
    expect_packets_pin_at(threads, n, messages_per_link, packets, pin);
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
                    3344220553560044790ULL});
}

TEST(RoutingGolden, HotGuardians) {
  // Load far above n on three guardians: many first-fit waves.
  expect_route_pin(128, 1, 20000, {3, 64, 127}, 52,
                   {94, 46, 187, 5836, 94, 39644, 79258, 2856,
                    4187362223543115561ULL});
}

TEST(RoutingGolden, WideLinks) {
  expect_route_pin(32, 4, 5000, {0, 17}, 53,
                   {36, 17, 174, 2149, 36, 9706, 19421, 827,
                    9678381634541608569ULL});
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

TEST(Routing, NonUniformSetsTakeExactWaveColours) {
  // A route that is not uniform bundles takes exactly the colours of its
  // first-fit waves, sum of Delta_w, in ceil(colours / (n * per_link))
  // batches; for Delta <= n that is ceil(Delta / (n * per_link)).
  Rng rng{73};
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<std::uint32_t>(2 + rng.next_below(40));
    const std::uint32_t per_link = trial % 3 == 0 ? 4 : 1;
    const std::size_t count = rng.next_below(trial % 2 == 0 ? 6 * n * n : n);
    std::vector<Packet> packets;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> relayed;
    for (std::size_t i = 0; i < count; ++i) {
      const auto src = static_cast<VertexId>(rng.next_below(n));
      const auto dst = static_cast<VertexId>(
          rng.next_below(4) == 0 ? 0 : rng.next_below(n));
      packets.push_back(pin_packet(src, dst, i));
      if (src != dst) relayed.emplace_back(src, dst);
    }
    if (relayed.empty() || !uniform_bundle_coloring(relayed, n).empty())
      continue;
    const std::uint32_t colors = expect_exact_waves(relayed, n);
    CliqueEngine engine{{.n = n, .messages_per_link = per_link}};
    RouteStats stats;
    RoundBuffer inbox;
    route_packets_into(engine, packets, inbox, &stats);
    const std::uint64_t per_batch = std::uint64_t{n} * per_link;
    EXPECT_EQ(stats.color_batches, (colors + per_batch - 1) / per_batch)
        << "trial " << trial;
    const std::uint64_t delta =
        std::max(stats.max_send_load, stats.max_recv_load);
    if (delta <= n) {
      EXPECT_EQ(colors, delta);
      EXPECT_EQ(stats.color_batches, (delta + per_batch - 1) / per_batch);
    }
    EXPECT_EQ(stats.rounds, 2 * stats.color_batches + kScheduleRounds);
  }
}

TEST(Routing, OddNWavesTakeCeilBatches) {
  // n = 100, Delta = 408: the SQ-MST sketch set of RoutingGolden's
  // UniformBundlesOddN with its runs interleaved, so it is not uniform
  // bundles and takes the wave colouring. Senders stay below n, so the
  // waves hold 100, 100, 100, 100 and 8 of the hottest receiver's packets:
  // 408 colours in ceil(408 / 100) = 5 batches. Euler halving gave each
  // wave up to bit_ceil(100) = 128 colours, 6 batches.
  auto packets = uniform_bundle_packets(100, 40, 12, 24, 54);
  std::vector<Packet> interleaved;
  for (std::size_t j = 0; j < 24; ++j)
    for (std::size_t r = 0; r * 24 < packets.size(); ++r)
      interleaved.push_back(packets[r * 24 + j]);
  CliqueEngine engine{{.n = 100}};
  RouteStats stats;
  RoundBuffer inbox;
  route_packets_into(engine, interleaved, inbox, &stats);
  EXPECT_EQ(stats.max_recv_load, 408u);
  EXPECT_EQ(stats.color_batches, 5u);
  EXPECT_EQ(stats.rounds, 2 * 5 + kScheduleRounds);
}

/// Everything one route leaves behind: inbox bytes, RouteStats, Metrics,
/// the observer's hop digest and the load profile.
struct RouteOutcome {
  std::vector<std::uint64_t> inbox_words;
  std::vector<std::uint64_t> round_messages;  // per charged round
  RouteStats stats;
  Metrics metrics;
  std::uint64_t relay_digest{kFnvBasis};
  std::vector<std::uint64_t> load_words;
};

RouteOutcome route_at(std::uint32_t threads, std::uint32_t n,
                      const std::vector<Packet>& packets) {
  CliqueEngine engine{{.n = n, .threads = threads}};
  RouteOutcome out;
  engine.set_observer([&](VertexId s, VertexId d) {
    out.relay_digest =
        fnv_mix(out.relay_digest, (static_cast<std::uint64_t>(s) << 32) | d);
  });
  LoadProfile load;
  engine.set_load_profile(&load);
  RoundBuffer inbox;
  route_packets_into(engine, packets, inbox, &out.stats);
  for (VertexId v = 0; v < n; ++v)
    for (const Message& m : inbox.inbox(v)) {
      out.inbox_words.insert(out.inbox_words.end(),
                             {v, m.src, m.dst, m.tag, m.count});
      out.inbox_words.insert(out.inbox_words.end(), m.words.begin(),
                             m.words.end());
    }
  out.metrics = engine.metrics();
  for (auto part : {load.sent_messages(), load.sent_words(),
                    load.recv_messages(), load.recv_words()})
    out.load_words.insert(out.load_words.end(), part.begin(), part.end());
  for (const LoadRound& r : load.records()) {
    out.load_words.insert(out.load_words.end(),
                          {r.round, r.span, r.messages, r.max_link});
    out.round_messages.push_back(r.messages);
  }
  out.load_words.push_back(load.max_link());
  return out;
}

void expect_same_route(const RouteOutcome& a, const RouteOutcome& b) {
  EXPECT_EQ(a.inbox_words, b.inbox_words);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.color_batches, b.stats.color_batches);
  EXPECT_EQ(a.stats.max_send_load, b.stats.max_send_load);
  EXPECT_EQ(a.stats.max_recv_load, b.stats.max_recv_load);
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds);
  EXPECT_EQ(a.metrics.messages, b.metrics.messages);
  EXPECT_EQ(a.metrics.words, b.metrics.words);
  EXPECT_EQ(a.metrics.max_messages_in_round, b.metrics.max_messages_in_round);
  EXPECT_EQ(a.relay_digest, b.relay_digest);
  EXPECT_EQ(a.load_words, b.load_words);
}

/// Checks `got` against a route computed by hand from the unchunked
/// colouring `color` of its relayed packets: each inbox holds its local
/// packets, then its relayed ones, both in packet order; relayed packet
/// i's relay is color[i] mod n and its batch color[i] / n, and each batch
/// charges its packets in each of its two rounds.
void expect_reference_route(std::uint32_t n,
                            const std::vector<Packet>& packets,
                            const std::vector<std::uint32_t>& color,
                            const RouteOutcome& got) {
  std::vector<std::vector<std::size_t>> local(n);
  std::vector<std::vector<std::size_t>> relayed(n);
  std::vector<std::uint64_t> batch(
      1 + *std::max_element(color.begin(), color.end()) / n, 0);
  for (std::uint32_t c : color) ++batch[c / n];
  std::vector<std::uint64_t> rounds;
  for (std::uint64_t b : batch) rounds.insert(rounds.end(), {b, b});
  rounds.resize(rounds.size() + kScheduleRounds, 0);
  EXPECT_EQ(got.round_messages, rounds);
  std::uint64_t h = kFnvBasis;
  std::size_t e = 0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const Packet& p = packets[i];
    if (p.src == p.dst) {
      local[p.dst].push_back(i);
      continue;
    }
    relayed[p.dst].push_back(i);
    const std::uint64_t relay = color[e++] % n;
    h = fnv_mix(h, (std::uint64_t{p.src} << 32) | relay);
    h = fnv_mix(h, (relay << 32) | p.dst);
  }
  std::vector<std::uint64_t> words;
  for (VertexId v = 0; v < n; ++v)
    for (const auto* part : {&local[v], &relayed[v]})
      for (std::size_t i : *part) {
        const Packet& p = packets[i];
        words.insert(words.end(), {v, p.src, p.dst, p.msg.tag, p.msg.count});
        words.insert(words.end(), p.msg.words.begin(), p.msg.words.end());
      }
  EXPECT_EQ(got.inbox_words, words);
  EXPECT_EQ(got.relay_digest, h);
}

TEST(Routing, ParallelDeliveryMatchesSerial) {
  // Packet sets several chunks long, where runs of relayed packets and
  // blocks of local packets straddle chunk boundaries.
  const auto near_boundary = [](std::size_t at) {
    return at % kRouteChunkPackets + 8 > kRouteChunkPackets;
  };
  // Uniform bundles: every sender ships k = 5 packets to every receiver,
  // receivers in a per-sender shuffled order. A block of 12 local packets
  // straddles the first chunk boundary and a relayed run the second.
  {
    const std::uint32_t n = 128;
    Rng rng{81};
    std::vector<Packet> packets;
    for (VertexId s = 0; s < n; ++s) {
      std::vector<VertexId> to(n);
      std::iota(to.begin(), to.end(), 0u);
      for (std::size_t i = n - 1; i > 0; --i)
        std::swap(to[i], to[rng.next_below(i + 1)]);
      for (VertexId d : to) {
        if (d == s) continue;
        if (near_boundary(packets.size()) &&
            packets.size() < 2 * kRouteChunkPackets - 8)
          for (int j = 0; j < 12; ++j)
            packets.push_back(pin_packet(d, d, packets.size()));
        for (int j = 0; j < 5; ++j)
          packets.push_back(pin_packet(s, d, packets.size()));
      }
    }
    ASSERT_GT(packets.size(), 2 * kRouteChunkPackets);
    const auto straddles = [&](std::size_t at) {
      const Packet& a = packets[at - 1];
      const Packet& b = packets[at];
      return a.src == b.src && a.dst == b.dst;
    };
    ASSERT_TRUE(straddles(kRouteChunkPackets));
    ASSERT_EQ(packets[kRouteChunkPackets].src,
              packets[kRouteChunkPackets].dst);
    ASSERT_TRUE(straddles(2 * kRouteChunkPackets));
    ASSERT_NE(packets[2 * kRouteChunkPackets].src,
              packets[2 * kRouteChunkPackets].dst);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> relayed;
    for (const Packet& p : packets)
      if (p.src != p.dst) relayed.emplace_back(p.src, p.dst);
    const auto color = uniform_bundle_coloring(relayed, n);
    ASSERT_FALSE(color.empty());
    const RouteOutcome serial = route_at(1, n, packets);
    EXPECT_EQ(serial.stats.color_batches, 5u);
    expect_reference_route(n, packets, color, serial);
    expect_same_route(serial, route_at(4, n, packets));
  }
  // Every other set: runs of 1 to 4 equal packets, one in eight local.
  {
    const std::uint32_t n = 64;
    Rng rng{82};
    std::vector<Packet> packets;
    while (packets.size() < 3 * kRouteChunkPackets + 1234) {
      const auto s = static_cast<VertexId>(rng.next_below(n));
      const auto d = rng.next_below(8) == 0
                         ? s
                         : static_cast<VertexId>(rng.next_below(n));
      const std::size_t len = 1 + rng.next_below(4);
      for (std::size_t j = 0; j < len; ++j)
        packets.push_back(pin_packet(s, d, packets.size()));
    }
    std::vector<std::pair<std::uint32_t, std::uint32_t>> relayed;
    for (const Packet& p : packets)
      if (p.src != p.dst) relayed.emplace_back(p.src, p.dst);
    ASSERT_TRUE(uniform_bundle_coloring(relayed, n).empty());
    const RouteOutcome serial = route_at(1, n, packets);
    expect_reference_route(n, packets, wave_edge_coloring(relayed, n), serial);
    expect_same_route(serial, route_at(4, n, packets));
  }
  // A bad endpoint in a later chunk throws the same error on every lane
  // count.
  std::vector<Packet> bad(2 * kRouteChunkPackets + 5, pin_packet(0, 1, 0));
  bad.back().dst = 9;
  for (std::uint32_t threads : {1u, 4u}) {
    CliqueEngine engine{{.n = 4, .threads = threads}};
    RoundBuffer inbox;
    EXPECT_THROW(route_packets_into(engine, bad, inbox), std::logic_error);
  }
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
