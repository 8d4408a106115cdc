#include "comm/routing.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "clique/load_profile.hpp"
#include "clique/trace.hpp"
#include "util/error.hpp"

namespace ccq {

namespace {

constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

using Edges = std::span<const std::pair<std::uint32_t, std::uint32_t>>;

/// Proper colouring of a bipartite multigraph on left/right ids [0, n)
/// with exactly `delta` (its max degree) colours — König's line colouring
/// theorem, made constructive by alternating paths. Edges are coloured in
/// order, each with the smallest colour free at both endpoints. When no
/// colour is free at both, let a be the smallest free at u and b the
/// smallest free at v; flipping the a/b alternating path that starts at v
/// frees a at v (the path cannot reach u, which has no a-edge), and the
/// edge takes a.
///
/// A *hot* vertex, of degree above max(16, delta / 8), keeps a colour ->
/// edge table and a bitset of its used colours, so each lookup there is
/// O(1). Any other vertex scans its incidence list, at most that many
/// entries, into a scratch bitset. Fewer than 2m / max(16, floor(delta /
/// 8)) vertices are hot, so their tables hold fewer than 17m entries:
/// scratch is O(n + m) words for every delta.
std::vector<std::uint32_t> konig_edge_coloring(Edges edges, std::uint32_t n,
                                               std::uint32_t delta) {
  const std::size_t ids = 2 * std::size_t{n};
  // CSR incidence over 2n ids: left u is u, right v is n + v.
  std::vector<std::uint32_t> offsets(ids + 1, 0);
  for (const auto& [u, v] : edges) {
    ++offsets[u + 1];
    ++offsets[n + v + 1];
  }
  for (std::size_t x = 0; x < ids; ++x) offsets[x + 1] += offsets[x];
  std::vector<std::uint32_t> incident(2 * edges.size());
  {
    std::vector<std::uint32_t> next(offsets.begin(), offsets.end() - 1);
    for (std::uint32_t e = 0; e < edges.size(); ++e) {
      incident[next[edges[e].first]++] = e;
      incident[next[n + edges[e].second]++] = e;
    }
  }
  const std::uint32_t hot_degree = std::max(16u, delta / 8);
  std::vector<std::uint32_t> hot_slot(ids, kNone);
  std::size_t hot = 0;
  for (std::size_t x = 0; x < ids; ++x)
    if (offsets[x + 1] - offsets[x] > hot_degree)
      hot_slot[x] = static_cast<std::uint32_t>(hot++);
  const std::size_t words = (std::size_t{delta} + 63) / 64;
  std::vector<std::uint32_t> table(hot * delta, kNone);
  // Hot vertices' used-colour bitsets, then two scratch sets (u, v).
  std::vector<std::uint64_t> used((hot + 2) * words, 0);
  std::vector<std::uint32_t> color(edges.size(), kNone);

  auto edge_at = [&](std::size_t x, std::uint32_t c) {
    if (hot_slot[x] != kNone)
      return table[hot_slot[x] * std::size_t{delta} + c];
    for (std::uint32_t i = offsets[x]; i < offsets[x + 1]; ++i)
      if (color[incident[i]] == c) return incident[i];
    return kNone;
  };
  // x's used colours; a cold vertex's are gathered into scratch set `side`.
  auto used_of = [&](std::size_t x, std::size_t side) -> std::uint64_t* {
    if (hot_slot[x] != kNone) return &used[hot_slot[x] * words];
    std::uint64_t* bits = &used[(hot + side) * words];
    for (std::uint32_t i = offsets[x]; i < offsets[x + 1]; ++i) {
      const std::uint32_t c = color[incident[i]];
      if (c != kNone) bits[c / 64] |= std::uint64_t{1} << (c % 64);
    }
    return bits;
  };
  auto first_free = [&](const std::uint64_t* a, const std::uint64_t* b) {
    for (std::size_t w = 0; w < words; ++w)
      if (const std::uint64_t free = ~(a[w] | b[w]))
        return static_cast<std::uint32_t>(w * 64 + std::countr_zero(free));
    return delta;
  };
  // Records (set) or erases f's colour c at f's hot endpoints.
  auto mark = [&](std::uint32_t f, std::uint32_t c, bool set) {
    for (const std::size_t x :
         {std::size_t{edges[f].first}, n + std::size_t{edges[f].second}}) {
      const std::uint32_t slot = hot_slot[x];
      if (slot == kNone) continue;
      table[slot * std::size_t{delta} + c] = set ? f : kNone;
      std::uint64_t& w = used[slot * words + c / 64];
      const std::uint64_t bit = std::uint64_t{1} << (c % 64);
      w = set ? w | bit : w & ~bit;
    }
  };
  std::vector<std::uint32_t> path;
  for (std::uint32_t e = 0; e < edges.size(); ++e) {
    const std::size_t u = edges[e].first;
    const std::size_t v = n + std::size_t{edges[e].second};
    const std::uint64_t* used_u = used_of(u, 0);
    const std::uint64_t* used_v = used_of(v, 1);
    std::uint32_t c = first_free(used_u, used_v);
    if (c >= delta) {
      // a, b < delta: u and v each have fewer than delta coloured edges.
      const std::uint32_t a = first_free(used_u, used_u);
      const std::uint32_t b = first_free(used_v, used_v);
      path.clear();
      std::size_t at = v;
      for (std::uint32_t want = a;; want = want == a ? b : a) {
        const std::uint32_t f = edge_at(at, want);
        if (f == kNone) break;
        path.push_back(f);
        at = at == edges[f].first ? n + std::size_t{edges[f].second}
                                  : edges[f].first;
      }
      // Erase every old colour before recording the new ones: an inner
      // vertex of the path swaps its a- and b-edge.
      for (std::uint32_t f : path) mark(f, color[f], false);
      for (std::uint32_t f : path) {
        color[f] = color[f] == a ? b : a;
        mark(f, color[f], true);
      }
      c = a;
    }
    std::fill_n(&used[hot * words], 2 * words, 0);
    color[e] = c;
    mark(e, c, true);
  }
  return color;
}

/// A maximal stretch of consecutive relayed packets with one (src, dst).
struct Run {
  std::uint32_t src;
  std::uint32_t dst;
  std::size_t length;
};

/// The run graph of a relayed (src, dst) sequence, one edge per run, built
/// from runs in sequence order: a pushed run with the previous run's pair
/// continues it, so per-chunk run lists join at chunk boundaries. The
/// sequence is uniform bundles when every run has one length k >= 2 and
/// the run graph's max degree delta_S is at most n; coloring() then
/// colours the runs with exactly delta_S colours, and the j-th pair of run
/// r takes colour j * delta_S + c(r). Memory is O(runs).
class RunGraph {
 public:
  /// Appends `run`; returns the run it lands in and its packets before.
  std::pair<std::size_t, std::size_t> push(const Run& run) {
    if (!runs_.empty() && runs_.back() == std::pair{run.src, run.dst}) {
      const std::size_t before = length_.back();
      length_.back() += run.length;
      return {runs_.size() - 1, before};
    }
    runs_.emplace_back(run.src, run.dst);
    length_.push_back(run.length);
    return {runs_.size() - 1, 0};
  }

  /// The run colours (exactly delta_S of them) when the sequence is
  /// uniform bundles on an n-node clique, else empty.
  std::vector<std::uint32_t> coloring(std::uint32_t n) {
    if (runs_.empty()) return {};
    k_ = length_.front();
    if (k_ < 2 || std::any_of(length_.begin(), length_.end(),
                              [&](std::size_t len) { return len != k_; }))
      return {};
    std::vector<std::uint32_t> degl(n, 0);
    std::vector<std::uint32_t> degr(n, 0);
    delta_ = 0;
    for (const auto& [u, v] : runs_) {
      check(u < n && v < n, "uniform_bundle_coloring: endpoint out of range");
      delta_ = std::max({delta_, ++degl[u], ++degr[v]});
    }
    if (delta_ > n) return {};
    return konig_edge_coloring(runs_, n, delta_);
  }

  std::size_t k() const { return k_; }
  std::uint32_t delta() const { return delta_; }

 private:
  std::vector<std::pair<std::uint32_t, std::uint32_t>> runs_;
  std::vector<std::size_t> length_;
  std::size_t k_{0};
  std::uint32_t delta_{0};
};

/// One fixed chunk of route_packets_into's packets. The header pass fills
/// the per-vertex counts and the runs; the serial merge turns `local` and
/// `relayed` into the chunk's write cursors; the delivery pass advances
/// them and tallies the chunk's messages and words per batch.
struct RouteChunk {
  std::vector<std::size_t> local;    // per dst: local packets, then cursor
  std::vector<std::size_t> relayed;  // per dst: relayed packets, then cursor
  std::vector<std::uint32_t> sent;   // per src: relayed packets
  std::vector<Run> runs;             // relayed runs, in packet order
  std::size_t first_run{0};   // run of the chunk's first relayed packet
  std::size_t first_j{0};     // that packet's position in its run
  std::size_t first_edge{0};  // that packet's index among relayed packets
  std::vector<std::uint64_t> batch_msgs;
  std::vector<std::uint64_t> batch_words;
};

}  // namespace

// First-fit places an edge (s, d) at wave <= (#waves full for s) +
// (#waves full for d), and a full wave holds n of a vertex's edges, so
// every wave index is below `width`; send_use/recv_use are flat n x width
// tables (n * width <= n + 2 * #edges) of per-wave degrees. Per-vertex
// full waves only grow, so scanning starts at the larger of the two
// endpoints' first-free hints.
std::vector<std::uint32_t> wave_edge_coloring(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
    std::uint32_t n) {
  check(edges.size() < (std::size_t{1} << 31),
        "wave_edge_coloring: multigraph too large");
  std::uint64_t max_send_load = 0;
  std::uint64_t max_recv_load = 0;
  {
    std::vector<std::uint64_t> send(n, 0);
    std::vector<std::uint64_t> recv(n, 0);
    for (const auto& [u, v] : edges) {
      check(u < n && v < n, "wave_edge_coloring: endpoint out of range");
      max_send_load = std::max(max_send_load, ++send[u]);
      max_recv_load = std::max(max_recv_load, ++recv[v]);
    }
  }
  const std::uint64_t width = max_send_load / n + max_recv_load / n + 1;
  std::vector<std::uint32_t> wave_of(edges.size(), 0);
  std::vector<std::uint32_t> wave_delta(1, 0);
  {
    std::vector<std::uint32_t> send_use(n * width, 0);
    std::vector<std::uint32_t> recv_use(n * width, 0);
    std::vector<std::uint32_t> send_hint(n, 0);
    std::vector<std::uint32_t> recv_hint(n, 0);
    for (std::size_t e = 0; e < edges.size(); ++e) {
      std::uint32_t* send = &send_use[edges[e].first * width];
      std::uint32_t* recv = &recv_use[edges[e].second * width];
      std::uint32_t& s_hint = send_hint[edges[e].first];
      std::uint32_t& r_hint = recv_hint[edges[e].second];
      std::uint32_t w = std::max(s_hint, r_hint);
      while (send[w] >= n || recv[w] >= n) ++w;
      if (w >= wave_delta.size()) wave_delta.resize(w + 1, 0);
      wave_delta[w] = std::max({wave_delta[w], ++send[w], ++recv[w]});
      while (s_hint < width && send[s_hint] >= n) ++s_hint;
      while (r_hint < width && recv[r_hint] >= n) ++r_hint;
      wave_of[e] = w;
    }
  }
  const auto num_waves = static_cast<std::uint32_t>(wave_delta.size());
  // Bucket the edges by wave in one pass, edge order kept within a wave,
  // and give wave w the colour block of its wave_delta[w] colours.
  std::vector<std::size_t> wave_start(num_waves + 1, 0);
  for (std::uint32_t w : wave_of) ++wave_start[w + 1];
  for (std::uint32_t w = 0; w < num_waves; ++w)
    wave_start[w + 1] += wave_start[w];
  std::vector<std::size_t> by_wave(edges.size());
  {
    std::vector<std::size_t> next(wave_start.begin(), wave_start.end() - 1);
    for (std::size_t e = 0; e < edges.size(); ++e)
      by_wave[next[wave_of[e]]++] = e;
  }
  std::vector<std::uint32_t> color(edges.size(), 0);
  std::uint32_t color_base = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> wave_edges;
  for (std::uint32_t w = 0; w < num_waves; ++w) {
    wave_edges.clear();
    for (std::size_t i = wave_start[w]; i < wave_start[w + 1]; ++i)
      wave_edges.push_back(edges[by_wave[i]]);
    const auto wave_color = konig_edge_coloring(wave_edges, n, wave_delta[w]);
    for (std::size_t i = 0; i < wave_edges.size(); ++i)
      color[by_wave[wave_start[w] + i]] = color_base + wave_color[i];
    color_base += wave_delta[w];
  }
  return color;
}


std::vector<std::uint32_t> uniform_bundle_coloring(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
    std::uint32_t n) {
  RunGraph runs;
  for (const auto& [src, dst] : edges) runs.push({src, dst, 1});
  const auto run_color = runs.coloring(n);
  if (run_color.empty()) return {};
  // The j-th packet of a run takes colour j * delta + c(run): within one
  // colour the packets are the j-th of runs sharing c, a matching.
  std::vector<std::uint32_t> color(edges.size());
  for (std::size_t r = 0; r < run_color.size(); ++r)
    for (std::size_t j = 0; j < runs.k(); ++j)
      color[r * runs.k() + j] =
          static_cast<std::uint32_t>(j) * runs.delta() + run_color[r];
  return color;
}

void route_packets_into(CliqueEngine& engine,
                        std::span<const Packet> packets, RoundBuffer& out,
                        RouteStats* stats) {
  const std::uint32_t n = engine.n();
  TraceScope trace_scope{engine, "comm/route"};
  out.reset(n);
  std::vector<RouteChunk> chunks(
      (packets.size() + kRouteChunkPackets - 1) / kRouteChunkPackets);
  auto chunk_packets = [&](std::size_t c) {
    const std::size_t begin = c * kRouteChunkPackets;
    return packets.subspan(
        begin, std::min(kRouteChunkPackets, packets.size() - begin));
  };
  // Header pass: endpoint checks, per-vertex counts and relayed runs.
  engine.run_local(chunks.size(), [&](unsigned, std::size_t c) {
    RouteChunk& chunk = chunks[c];
    chunk.local.assign(n, 0);
    chunk.relayed.assign(n, 0);
    chunk.sent.assign(n, 0);
    for (const Packet& p : chunk_packets(c)) {
      check(p.src < n && p.dst < n,
            "route_packets_into: endpoint out of range");
      if (p.src == p.dst) {  // local delivery is free in the model
        ++chunk.local[p.dst];
        continue;
      }
      ++chunk.relayed[p.dst];
      ++chunk.sent[p.src];
      if (!chunk.runs.empty() && chunk.runs.back().src == p.src &&
          chunk.runs.back().dst == p.dst)
        ++chunk.runs.back().length;
      else
        chunk.runs.push_back({p.src, p.dst, 1});
    }
  });
  // Merge in chunk order: loads, inbox sizes, the joined run graph and
  // where each chunk's relayed packets start.
  std::vector<std::uint64_t> send_load(n, 0);
  std::vector<std::uint64_t> recv_load(n, 0);
  std::vector<std::size_t> local_at(n, 0);
  RunGraph runs;
  std::size_t relayed = 0;
  for (RouteChunk& chunk : chunks) {
    for (VertexId v = 0; v < n; ++v) {
      send_load[v] += chunk.sent[v];
      recv_load[v] += chunk.relayed[v];
      local_at[v] += chunk.local[v];
    }
    chunk.first_edge = relayed;
    for (std::size_t i = 0; i < chunk.runs.size(); ++i) {
      const auto [run, j] = runs.push(chunk.runs[i]);
      if (i == 0) {
        chunk.first_run = run;
        chunk.first_j = j;
      }
      relayed += chunk.runs[i].length;
    }
  }
  for (VertexId v = 0; v < n; ++v)
    out.add_count(v, local_at[v] + recv_load[v]);
  out.commit_counts();
  // Per-inbox order: local deliveries in packet order, then relayed ones
  // in packet order. Each chunk writes from cursors past the slots of the
  // chunks before it.
  std::vector<std::size_t> relayed_at(n);
  for (VertexId v = 0; v < n; ++v) {
    relayed_at[v] = out.offset(v) + local_at[v];
    local_at[v] = out.offset(v);
  }
  for (RouteChunk& chunk : chunks) {
    for (VertexId v = 0; v < n; ++v) {
      local_at[v] += std::exchange(chunk.local[v], local_at[v]);
      relayed_at[v] += std::exchange(chunk.relayed[v], relayed_at[v]);
    }
  }
  RouteStats local{};
  local.max_send_load = *std::max_element(send_load.begin(), send_load.end());
  local.max_recv_load = *std::max_element(recv_load.begin(), recv_load.end());

  // Uniform bundles (every run of equal consecutive pairs one length, the
  // SQ-MST and GC sketch shape) get the optimal k * delta_S colours from
  // one colouring of the small run graph, expanded per packet on the fly,
  // so their scratch is O(runs). Every other packet set takes the exact
  // per-wave colouring over a per-packet edge list.
  const std::vector<std::uint32_t> run_color =
      relayed > 0 ? runs.coloring(n) : std::vector<std::uint32_t>{};
  const bool bundles = !run_color.empty();
  std::vector<std::uint32_t> color;
  if (relayed > 0 && !bundles) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    edges.reserve(relayed);
    for (const Packet& p : packets)
      if (p.src != p.dst) edges.emplace_back(p.src, p.dst);
    color = wave_edge_coloring(edges, n);
  }
  std::uint64_t num_colors = 0;
  if (bundles)
    num_colors = std::uint64_t{runs.k()} * runs.delta();
  else if (relayed > 0)
    num_colors = 1 + *std::max_element(color.begin(), color.end());
  // Colors are grouped into batches of up to `n * messages_per_link`
  // simultaneous relays; each batch is delivered in two rounds
  // (src -> relay, relay -> dst), bandwidth-legal because within one
  // color no two packets share a src or share a dst.
  const std::uint64_t colors_per_batch =
      static_cast<std::uint64_t>(n) * engine.messages_per_link();
  const std::uint64_t batches =
      (num_colors + colors_per_batch - 1) / colors_per_batch;
  // Visits the packets of `part` in order, each relayed one with its
  // colour, starting from the colour position of its first relayed packet.
  const auto walk = [&](std::span<const Packet> part, std::size_t r,
                        std::size_t j, std::size_t e, auto&& on_local,
                        auto&& on_relayed) {
    for (const Packet& p : part) {
      if (p.src == p.dst) {
        on_local(p);
        continue;
      }
      if (bundles) {
        on_relayed(p, static_cast<std::uint32_t>(j) * runs.delta() +
                          run_color[r]);
        if (++j == runs.k()) {
          j = 0;
          ++r;
        }
      } else {
        on_relayed(p, color[e++]);
      }
    }
  };
  // Delivery pass: copy every packet to its slot and tally each batch's
  // messages and words for exact accounting.
  Message* const slots = out.data();
  engine.run_local(chunks.size(), [&](unsigned, std::size_t c) {
    RouteChunk& chunk = chunks[c];
    chunk.batch_msgs.assign(batches, 0);
    chunk.batch_words.assign(batches, 0);
    const auto deliver = [&](const Packet& p, std::size_t slot) {
      Message& m = slots[slot];
      m = p.msg;
      m.src = p.src;
      m.dst = p.dst;
    };
    walk(
        chunk_packets(c), chunk.first_run, chunk.first_j, chunk.first_edge,
        [&](const Packet& p) { deliver(p, chunk.local[p.dst]++); },
        [&](const Packet& p, std::uint32_t col) {
          const std::uint64_t b = col / colors_per_batch;
          chunk.batch_msgs[b] += 2;  // two hops
          // Relay hop carries the final destination alongside the payload:
          // one extra O(log n)-bit word.
          chunk.batch_words[b] += 2ull * p.msg.count + 1;
          deliver(p, chunk.relayed[p.dst]++);
        });
  });
  if (relayed > 0) {
    std::vector<std::uint64_t> batch_msgs(batches, 0);
    std::vector<std::uint64_t> batch_words(batches, 0);
    for (const RouteChunk& chunk : chunks)
      for (std::uint64_t b = 0; b < batches; ++b) {
        batch_msgs[b] += chunk.batch_msgs[b];
        batch_words[b] += chunk.batch_words[b];
      }
    for (std::uint64_t b = 0; b < batches; ++b) {
      engine.charge_verified_round(batch_msgs[b] / 2 + batch_msgs[b] % 2,
                                   (batch_words[b] + 1) / 2);
      engine.charge_verified_round(batch_msgs[b] / 2, batch_words[b] / 2);
    }
    for (std::uint64_t r = 0; r < kScheduleRounds; ++r)
      engine.charge_verified_round(0, 0);
    const auto skip_local = [](const Packet&) {};
    if (engine.has_observer()) {
      walk(packets, 0, 0, 0, skip_local,
           [&](const Packet& p, std::uint32_t col) {
             const auto relay = static_cast<VertexId>(col % n);
             engine.observe(p.src, relay);
             engine.observe(relay, p.dst);
           });
    }
    // Per-hop load attribution, mirroring the observer replay above: hop 1
    // carries the payload plus the one-word destination header, hop 2 the
    // payload alone, summing to the charged batch totals. The profile
    // pointer is hoisted out of the per-packet loop (this is the hot
    // attribution site that justifies src/comm's slot in CL006's
    // allowlist).
    if (LoadProfile* load = engine.load_profile()) {
      walk(packets, 0, 0, 0, skip_local,
           [&](const Packet& p, std::uint32_t col) {
             const auto relay = static_cast<VertexId>(col % n);
             load->add_flow(p.src, relay, 1, p.msg.count + 1);
             load->add_flow(relay, p.dst, 1, p.msg.count);
           });
    }
    local.rounds = 2 * batches + kScheduleRounds;
    local.color_batches = batches;
  }
  if (stats) *stats = local;
}

}  // namespace ccq
