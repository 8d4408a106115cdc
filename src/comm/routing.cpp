#include "comm/routing.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <unordered_map>

#include "clique/load_profile.hpp"
#include "clique/trace.hpp"
#include "util/error.hpp"

namespace ccq {

namespace {

/// One Euler-halving level. The subset's odd-degree vertices are first
/// paired up with *dummy* edges (odd-left with odd-right; any leftover —
/// both sides have the same parity of odd counts in a bipartite multigraph
/// — pairs with a per-side dummy vertex), making every degree even. Euler
/// circuits of an all-even multigraph close, so alternating edges along
/// each circuit splits every vertex's (real+dummy) degree exactly in half;
/// discarding the dummies leaves real degrees split as floor/ceil of d/2.
/// Hence max degree drops to ceil(Δ/2) per level with only O(#odd) dummy
/// work — linear overall, no regularization padding.
void euler_halve(const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
                     edges,
                 const std::vector<std::size_t>& subset,
                 std::uint32_t left_size, std::uint32_t num_vertices,
                 std::vector<std::size_t>& part_a,
                 std::vector<std::size_t>& part_b) {
  // Working edge list: real subset entries first, then dummies. Entries are
  // (u, v, subset_index or SIZE_MAX for dummy).
  constexpr std::size_t kDummy = static_cast<std::size_t>(-1);
  const std::uint32_t dummy_left = num_vertices;
  const std::uint32_t dummy_right = num_vertices + 1;
  struct WorkEdge {
    std::uint32_t u;
    std::uint32_t v;
    std::size_t real;
  };
  std::vector<WorkEdge> work;
  work.reserve(subset.size() + 8);
  std::unordered_map<std::uint32_t, std::size_t> degree;
  for (std::size_t idx : subset) {
    work.push_back({edges[idx].first, edges[idx].second, idx});
    ++degree[edges[idx].first];
    ++degree[edges[idx].second];
  }
  std::vector<std::uint32_t> odd_left;
  std::vector<std::uint32_t> odd_right;
  // Walk endpoints in sorted order, not hash order: the odd-left/odd-right
  // pairing below decides which dummy edges exist, and that choice must not
  // depend on unordered_map iteration for replay to stay bit-identical.
  std::vector<std::uint32_t> endpoints;
  endpoints.reserve(work.size() * 2);
  for (const WorkEdge& e : work) {
    endpoints.push_back(e.u);
    endpoints.push_back(e.v);
  }
  std::sort(endpoints.begin(), endpoints.end());
  endpoints.erase(std::unique(endpoints.begin(), endpoints.end()),
                  endpoints.end());
  for (std::uint32_t v : endpoints)
    if (degree[v] % 2 == 1) (v < left_size ? odd_left : odd_right).push_back(v);
  std::size_t i = 0;
  for (; i < odd_left.size() && i < odd_right.size(); ++i)
    work.push_back({odd_left[i], odd_right[i], kDummy});
  for (std::size_t j = i; j < odd_left.size(); ++j)
    work.push_back({odd_left[j], dummy_right, kDummy});
  for (std::size_t j = i; j < odd_right.size(); ++j)
    work.push_back({dummy_left, odd_right[j], kDummy});
  // (dummy_left/right themselves end with even degree: the leftover counts
  // are even because the two sides' odd counts share parity.)

  // Incidence lists over compacted local ids.
  std::unordered_map<std::uint32_t, std::uint32_t> local;
  local.reserve(degree.size() + 2);
  auto local_id = [&](std::uint32_t v) {
    return local.emplace(v, static_cast<std::uint32_t>(local.size()))
        .first->second;
  };
  std::vector<std::vector<std::size_t>> incident;
  for (std::size_t w = 0; w < work.size(); ++w) {
    const auto lu = local_id(work[w].u);
    const auto lv = local_id(work[w].v);
    if (std::max(lu, lv) >= incident.size())
      incident.resize(std::max(lu, lv) + 1);
    incident[lu].push_back(w);
    incident[lv].push_back(w);
  }
  std::vector<bool> used(work.size(), false);
  std::vector<std::size_t> ptr(incident.size(), 0);
  auto next_unused = [&](std::uint32_t lv) -> std::size_t {
    auto& list = incident[lv];
    while (ptr[lv] < list.size() && used[list[ptr[lv]]]) ++ptr[lv];
    return ptr[lv] < list.size() ? list[ptr[lv]] : kDummy;
  };
  for (std::uint32_t start = 0; start < incident.size(); ++start) {
    while (next_unused(start) != kDummy) {
      // All degrees even: the trail from `start` closes into a circuit, and
      // circuits in bipartite graphs have even length, so strict
      // alternation splits every visit pair across the two parts.
      int parity = 0;
      std::uint32_t at = start;
      for (;;) {
        const std::size_t w = next_unused(at);
        if (w == kDummy) break;
        used[w] = true;
        if (work[w].real != kDummy)
          (parity == 0 ? part_a : part_b).push_back(work[w].real);
        parity ^= 1;
        const auto lu = local.at(work[w].u);
        const auto lv = local.at(work[w].v);
        at = lu == at ? lv : lu;
      }
    }
  }
}

}  // namespace

std::vector<std::uint32_t> bipartite_edge_coloring(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& raw_edges,
    std::uint32_t left_size, std::uint32_t right_size) {
  if (raw_edges.empty()) return {};
  // Recursive Euler halving with per-level even-degree padding: max degree
  // drops from Δ to ceil(Δ/2) per level, so after ceil(log2 Δ) levels every
  // leaf subset is a matching and gets one color — at most bit_ceil(Δ) <
  // 2Δ colors, each a proper matching, in O(m log Δ) work.
  std::size_t delta = 1;
  {
    std::vector<std::size_t> degl(left_size, 0);
    std::vector<std::size_t> degr(right_size, 0);
    for (const auto& [u, d] : raw_edges) {
      check(u < left_size && d < right_size,
            "bipartite_edge_coloring: endpoint out of range");
      delta = std::max(delta, ++degl[u]);
      delta = std::max(delta, ++degr[d]);
    }
  }
  const auto target = static_cast<std::uint32_t>(std::bit_ceil(delta));
  const std::uint32_t num_vertices = left_size + right_size;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(raw_edges.size());
  for (const auto& [u, d] : raw_edges)
    edges.emplace_back(u, left_size + d);  // right side offset by left_size
  std::vector<std::uint32_t> color(edges.size(), 0);
  std::vector<std::size_t> all(edges.size());
  std::iota(all.begin(), all.end(), 0);
  // stack entries: (edge subset, color offset, color budget of subset)
  std::vector<std::tuple<std::vector<std::size_t>, std::uint32_t,
                         std::uint32_t>>
      stack;
  stack.emplace_back(std::move(all), 0u, target);
  while (!stack.empty()) {
    auto [subset, offset, budget] = std::move(stack.back());
    stack.pop_back();
    if (subset.empty()) continue;
    if (budget <= 1) {
      for (std::size_t idx : subset) color[idx] = offset;
      continue;
    }
    std::vector<std::size_t> part_a;
    std::vector<std::size_t> part_b;
    part_a.reserve(subset.size() / 2 + 1);
    part_b.reserve(subset.size() / 2 + 1);
    euler_halve(edges, subset, left_size, num_vertices, part_a, part_b);
    check(part_a.size() + part_b.size() == subset.size(),
          "bipartite_edge_coloring: euler split lost edges");
    stack.emplace_back(std::move(part_a), offset, budget / 2);
    stack.emplace_back(std::move(part_b), offset + budget / 2, budget / 2);
  }
  return color;
}

void route_packets_into(CliqueEngine& engine,
                        const std::vector<Packet>& packets, RoundBuffer& out,
                        RouteStats* stats) {
  const std::uint32_t n = engine.n();
  TraceScope trace_scope{engine, "comm/route"};
  out.reset(n);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::vector<std::size_t> packet_of_edge;
  std::vector<std::uint64_t> send_load(n, 0);
  std::vector<std::uint64_t> recv_load(n, 0);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const Packet& p = packets[i];
    check(p.src < n && p.dst < n, "route_packets_into: endpoint out of range");
    out.add_count(p.dst);
    if (p.src == p.dst) continue;  // local delivery is free in the model
    edges.emplace_back(p.src, p.dst);
    packet_of_edge.push_back(i);
    ++send_load[p.src];
    ++recv_load[p.dst];
  }
  out.commit_counts();
  // Local deliveries land first in each inbox, in packet order.
  for (const Packet& p : packets) {
    if (p.src != p.dst) continue;
    Message& m = out.place(p.dst);
    m = p.msg;
    m.src = p.src;
    m.dst = p.dst;
  }
  RouteStats local{};
  local.max_send_load = *std::max_element(send_load.begin(), send_load.end());
  local.max_recv_load = *std::max_element(recv_load.begin(), recv_load.end());
  if (!edges.empty()) {
    // Overload pre-pass: the regularized coloring pads the multigraph to
    // (#vertices) * bit_ceil(max degree) edges, which is wasteful when a
    // few nodes carry load far above n (e.g. a coordinator absorbing
    // n*polylog sketches). First-fit the packets into waves of per-vertex
    // degree <= n — at most ceil(2L/n)+1 waves for max load L — and color
    // each wave independently; total rounds stay O(1 + L/n) and the
    // padding stays linear in the packet count.
    std::vector<std::uint32_t> wave_of(edges.size(), 0);
    std::uint32_t num_waves = 1;
    {
      // send_use[v][w] counts v's packets in wave w (and recv_use likewise);
      // first-fit over waves keeps both below n. Per-vertex full waves only
      // grow, so scanning can start at the larger of the two endpoints'
      // first-free hints.
      std::vector<std::vector<std::uint32_t>> send_use(n);
      std::vector<std::vector<std::uint32_t>> recv_use(n);
      std::vector<std::uint32_t> send_hint(n, 0);
      std::vector<std::uint32_t> recv_hint(n, 0);
      for (std::size_t e = 0; e < edges.size(); ++e) {
        const std::uint32_t s = edges[e].first;
        const std::uint32_t d = edges[e].second;
        std::uint32_t w = std::max(send_hint[s], recv_hint[d]);
        for (;; ++w) {
          if (send_use[s].size() <= w) send_use[s].resize(w + 1, 0);
          if (recv_use[d].size() <= w) recv_use[d].resize(w + 1, 0);
          if (send_use[s][w] < n && recv_use[d][w] < n) break;
        }
        ++send_use[s][w];
        ++recv_use[d][w];
        while (send_hint[s] < send_use[s].size() &&
               send_use[s][send_hint[s]] >= n)
          ++send_hint[s];
        while (recv_hint[d] < recv_use[d].size() &&
               recv_use[d][recv_hint[d]] >= n)
          ++recv_hint[d];
        wave_of[e] = w;
        num_waves = std::max(num_waves, w + 1);
      }
    }
    // Color each wave; give wave w a disjoint color block.
    std::vector<std::uint32_t> color(edges.size(), 0);
    std::uint32_t color_base = 0;
    for (std::uint32_t w = 0; w < num_waves; ++w) {
      std::vector<std::pair<std::uint32_t, std::uint32_t>> wave_edges;
      std::vector<std::size_t> wave_index;
      for (std::size_t e = 0; e < edges.size(); ++e)
        if (wave_of[e] == w) {
          wave_edges.push_back(edges[e]);
          wave_index.push_back(e);
        }
      const auto wave_color = bipartite_edge_coloring(wave_edges, n, n);
      std::uint32_t used = 0;
      for (std::size_t i = 0; i < wave_edges.size(); ++i) {
        color[wave_index[i]] = color_base + wave_color[i];
        used = std::max(used, wave_color[i] + 1);
      }
      color_base += used;
    }
    const std::uint32_t num_colors =
        1 + *std::max_element(color.begin(), color.end());
    // Colors are grouped into batches of up to `n * messages_per_link`
    // simultaneous relays; each batch is delivered in two rounds
    // (src -> relay, relay -> dst), bandwidth-legal because within one
    // color no two packets share a src or share a dst.
    const std::uint64_t colors_per_batch =
        static_cast<std::uint64_t>(n) * engine.messages_per_link();
    const std::uint64_t batches =
        (num_colors + colors_per_batch - 1) / colors_per_batch;
    // Group packet counts/words per batch for exact accounting.
    std::vector<std::uint64_t> batch_msgs(batches, 0);
    std::vector<std::uint64_t> batch_words(batches, 0);
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const std::uint64_t b = color[e] / colors_per_batch;
      batch_msgs[b] += 2;  // two hops
      // Relay hop carries the final destination alongside the payload: one
      // extra O(log n)-bit word.
      batch_words[b] += 2ull * packets[packet_of_edge[e]].msg.count + 1;
    }
    for (std::uint64_t b = 0; b < batches; ++b) {
      engine.charge_verified_round(batch_msgs[b] / 2 + batch_msgs[b] % 2,
                                   (batch_words[b] + 1) / 2);
      engine.charge_verified_round(batch_msgs[b] / 2, batch_words[b] / 2);
    }
    for (std::uint64_t r = 0; r < kScheduleRounds; ++r)
      engine.charge_verified_round(0, 0);
    if (engine.has_observer()) {
      for (std::size_t e = 0; e < edges.size(); ++e) {
        const VertexId relay =
            static_cast<VertexId>(color[e] % n);
        engine.observe(edges[e].first, relay);
        engine.observe(relay, edges[e].second);
      }
    }
    // Per-hop load attribution, mirroring the observer replay above: hop 1
    // carries the payload plus the one-word destination header, hop 2 the
    // payload alone, summing to the charged batch totals. The profile
    // pointer is hoisted out of the per-edge loop (this is the hot
    // attribution site that justifies src/comm's slot in CL006's
    // allowlist).
    if (LoadProfile* load = engine.load_profile()) {
      for (std::size_t e = 0; e < edges.size(); ++e) {
        const VertexId relay = static_cast<VertexId>(color[e] % n);
        const std::uint64_t payload = packets[packet_of_edge[e]].msg.count;
        load->add_flow(edges[e].first, relay, 1, payload + 1);
        load->add_flow(relay, edges[e].second, 1, payload);
      }
    }
    local.rounds = 2 * batches + kScheduleRounds;
    local.color_batches = batches;
    // Deliver.
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const Packet& p = packets[packet_of_edge[e]];
      Message& m = out.place(p.dst);
      m = p.msg;
      m.src = p.src;
      m.dst = p.dst;
    }
  }
  if (stats) *stats = local;
}

}  // namespace ccq
