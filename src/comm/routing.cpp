#include "comm/routing.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>

#include "clique/load_profile.hpp"
#include "clique/trace.hpp"
#include "util/error.hpp"

namespace ccq {

namespace {

/// Per-call scratch of bipartite_edge_coloring, reused by every
/// Euler-halving level. Per-vertex slots cover left + right vertices plus
/// the two dummies and are valid only where `stamp` equals the level's
/// `generation`, so a level costs O(subset), not O(#vertices).
class EulerHalver {
 public:
  EulerHalver(const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
                  edges,
              std::uint32_t left_size, std::uint32_t right_size)
      : edges_(edges),
        left_size_(left_size),
        dummy_left_(left_size + right_size),
        dummy_right_(left_size + right_size + 1),
        stamp_(left_size + right_size + 2, 0),
        degree_(stamp_.size(), 0),
        local_(stamp_.size(), 0) {}

  /// One Euler-halving level over `subset` (edge indices), rewritten in
  /// place as part_a followed by part_b; returns |part_a|. The subset's
  /// odd-degree vertices are first paired up with *dummy* edges (odd-left
  /// with odd-right; any leftover — both sides have the same parity of odd
  /// counts in a bipartite multigraph — pairs with a per-side dummy
  /// vertex), making every degree even. Euler circuits of an all-even
  /// multigraph close, so alternating edges along each circuit splits every
  /// vertex's (real+dummy) degree exactly in half; discarding the dummies
  /// leaves real degrees split as floor/ceil of d/2. Hence max degree drops
  /// to ceil(Δ/2) per level with only O(#odd) dummy work — linear overall,
  /// no regularization padding.
  std::size_t halve(std::span<std::uint32_t> subset) {
    ++generation_;
    // Working edge list: real subset entries in subset order, then dummies.
    work_.clear();
    touched_.clear();
    for (std::uint32_t idx : subset) {
      const std::uint32_t u = edges_[idx].first;
      const std::uint32_t v = left_size_ + edges_[idx].second;
      work_.push_back({u, v, idx});
      ++degree_[touch(u)];
      ++degree_[touch(v)];
    }
    // Dummy pairing follows the sorted odd endpoints (left ids sort before
    // the offset right ids), never first-touch order, so the dummy set is a
    // function of the subset's edge multiset.
    odd_.clear();
    for (std::uint32_t v : touched_)
      if (degree_[v] % 2 == 1) odd_.push_back(v);
    std::sort(odd_.begin(), odd_.end());
    const auto split = static_cast<std::size_t>(
        std::lower_bound(odd_.begin(), odd_.end(), left_size_) -
        odd_.begin());
    const std::size_t odd_right = odd_.size() - split;
    const std::size_t pairs = std::min(split, odd_right);
    for (std::size_t i = 0; i < pairs; ++i)
      work_.push_back({odd_[i], odd_[split + i], kDummy});
    for (std::size_t i = pairs; i < split; ++i)
      work_.push_back({odd_[i], touch(dummy_right_), kDummy});
    for (std::size_t i = pairs; i < odd_right; ++i)
      work_.push_back({touch(dummy_left_), odd_[split + i], kDummy});
    // (dummy_left/right themselves end with even degree: the leftover counts
    // are even because the two sides' odd counts share parity.)

    // CSR incidence over local ids numbered by first appearance in work
    // order; each list holds its work edges in ascending order (u's entry
    // then v's, edge by edge), the order the circuit walk consumes them.
    std::uint32_t num_local = 0;
    offsets_.assign(1, 0);
    for (WorkEdge& e : work_) {
      for (std::uint32_t* end : {&e.u, &e.v}) {
        std::uint32_t& id = local_[touch(*end)];
        if (id == kNone) {
          id = num_local++;
          offsets_.push_back(0);
        }
        ++offsets_[id + 1];
        *end = id;
      }
    }
    for (std::uint32_t lv = 0; lv < num_local; ++lv)
      offsets_[lv + 1] += offsets_[lv];
    incident_.resize(2 * work_.size());
    next_.assign(offsets_.begin(), offsets_.end() - 1);
    for (std::uint32_t w = 0; w < work_.size(); ++w) {
      incident_[next_[work_[w].u]++] = w;
      incident_[next_[work_[w].v]++] = w;
    }
    used_.assign(work_.size(), 0);
    next_.assign(offsets_.begin(), offsets_.end() - 1);
    auto next_unused = [&](std::uint32_t lv) -> std::uint32_t {
      std::uint32_t& ptr = next_[lv];
      while (ptr < offsets_[lv + 1] && used_[incident_[ptr]]) ++ptr;
      return ptr < offsets_[lv + 1] ? incident_[ptr] : kNone;
    };
    std::size_t size_a = 0;
    part_b_.clear();
    for (std::uint32_t start = 0; start < num_local; ++start) {
      while (next_unused(start) != kNone) {
        // All degrees even: the trail from `start` closes into a circuit,
        // and circuits in bipartite graphs have even length, so strict
        // alternation splits every visit pair across the two parts.
        int parity = 0;
        std::uint32_t at = start;
        for (;;) {
          const std::uint32_t w = next_unused(at);
          if (w == kNone) break;
          used_[w] = 1;
          if (work_[w].real != kDummy) {
            // `subset` was copied into work_, so part_a may overwrite it.
            if (parity == 0)
              subset[size_a++] = work_[w].real;
            else
              part_b_.push_back(work_[w].real);
          }
          parity ^= 1;
          at = work_[w].u == at ? work_[w].v : work_[w].u;
        }
      }
    }
    check(size_a + part_b_.size() == subset.size(),
          "bipartite_edge_coloring: euler split lost edges");
    std::copy(part_b_.begin(), part_b_.end(), subset.begin() + size_a);
    return size_a;
  }

 private:
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
  static constexpr std::uint32_t kDummy = kNone;

  struct WorkEdge {
    std::uint32_t u;  // vertex id; local id once the CSR is built
    std::uint32_t v;
    std::uint32_t real;  // edge index, or kDummy
  };

  /// Opens v's per-vertex slots for this level; returns v.
  std::uint32_t touch(std::uint32_t v) {
    if (stamp_[v] != generation_) {
      stamp_[v] = generation_;
      degree_[v] = 0;
      local_[v] = kNone;
      touched_.push_back(v);
    }
    return v;
  }

  const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges_;
  const std::uint32_t left_size_;
  const std::uint32_t dummy_left_;
  const std::uint32_t dummy_right_;
  std::uint32_t generation_ = 0;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> degree_;
  std::vector<std::uint32_t> local_;
  std::vector<std::uint32_t> touched_;
  std::vector<std::uint32_t> odd_;
  std::vector<WorkEdge> work_;
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> next_;
  std::vector<std::uint32_t> incident_;
  std::vector<std::uint8_t> used_;
  std::vector<std::uint32_t> part_b_;
};

/// Proper colouring of a bipartite multigraph on left/right ids [0, n)
/// with exactly `delta` (its max degree) colours — König's line colouring
/// theorem, made constructive by alternating paths. Edges are coloured in
/// order, each with the smallest colour free at both endpoints. When no
/// colour is free at both, let a be the smallest free at u and b the
/// smallest free at v; flipping the a/b alternating path that starts at v
/// frees a at v (the path cannot reach u, which has no a-edge), and the
/// edge takes a. Memory is O(n + m + delta): a vertex's colours are found
/// by scanning its incidence list, which is short for the run graphs this
/// colours.
std::vector<std::uint32_t> konig_edge_coloring(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
    std::uint32_t n, std::uint32_t delta) {
  constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
  // CSR incidence over 2n ids: left u is u, right v is n + v.
  std::vector<std::uint32_t> offsets(2 * std::size_t{n} + 1, 0);
  for (const auto& [u, v] : edges) {
    ++offsets[u + 1];
    ++offsets[n + v + 1];
  }
  for (std::size_t x = 0; x < 2 * std::size_t{n}; ++x)
    offsets[x + 1] += offsets[x];
  std::vector<std::uint32_t> incident(2 * edges.size());
  {
    std::vector<std::uint32_t> next(offsets.begin(), offsets.end() - 1);
    for (std::uint32_t e = 0; e < edges.size(); ++e) {
      incident[next[edges[e].first]++] = e;
      incident[next[n + edges[e].second]++] = e;
    }
  }
  std::vector<std::uint32_t> color(edges.size(), kNone);
  auto edge_at = [&](std::uint32_t x, std::uint32_t c) {
    for (std::uint32_t i = offsets[x]; i < offsets[x + 1]; ++i)
      if (color[incident[i]] == c) return incident[i];
    return kNone;
  };
  // used_u[c] / used_v[c] == e + 1 marks colour c as taken at edge e's
  // endpoints, so the marks never need clearing.
  std::vector<std::uint32_t> used_u(delta, 0);
  std::vector<std::uint32_t> used_v(delta, 0);
  std::vector<std::uint32_t> path;
  for (std::uint32_t e = 0; e < edges.size(); ++e) {
    const std::uint32_t u = edges[e].first;
    const std::uint32_t v = n + edges[e].second;
    for (std::uint32_t i = offsets[u]; i < offsets[u + 1]; ++i)
      if (color[incident[i]] != kNone) used_u[color[incident[i]]] = e + 1;
    for (std::uint32_t i = offsets[v]; i < offsets[v + 1]; ++i)
      if (color[incident[i]] != kNone) used_v[color[incident[i]]] = e + 1;
    std::uint32_t c = 0;
    while (c < delta && (used_u[c] == e + 1 || used_v[c] == e + 1)) ++c;
    if (c == delta) {
      std::uint32_t a = 0;
      while (used_u[a] == e + 1) ++a;
      std::uint32_t b = 0;
      while (used_v[b] == e + 1) ++b;
      // a, b < delta: u and v each have fewer than delta coloured edges.
      path.clear();
      std::uint32_t at = v;
      for (std::uint32_t want = a;; want = want == a ? b : a) {
        const std::uint32_t f = edge_at(at, want);
        if (f == kNone) break;
        path.push_back(f);
        at = at == edges[f].first ? n + edges[f].second : edges[f].first;
      }
      for (std::uint32_t f : path) color[f] = color[f] == a ? b : a;
      c = a;
    }
    color[e] = c;
  }
  return color;
}

/// The run graph of a relayed (src, dst) sequence, built one pair at a
/// time: one edge per *run*, a maximal stretch of equal consecutive pairs.
/// The sequence is uniform bundles when every run has one length k >= 2
/// and the run graph's max degree delta_S is at most n; coloring() then
/// colours the runs with exactly delta_S colours, and the j-th pair of run
/// r takes colour j * delta_S + c(r). Memory is O(runs).
class RunGraph {
 public:
  void push(std::uint32_t src, std::uint32_t dst) {
    if (!uniform_) return;  // nothing more to learn
    if (!runs_.empty() && runs_.back() == std::pair{src, dst}) {
      ++length_;
      return;
    }
    close_run();
    runs_.emplace_back(src, dst);
    length_ = 1;
  }

  /// The run colours (exactly delta_S of them) when the sequence is
  /// uniform bundles on an n-node clique, else empty.
  std::vector<std::uint32_t> coloring(std::uint32_t n) {
    close_run();
    length_ = 0;
    if (!uniform_ || k_ < 2) return {};
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
  void close_run() {
    if (length_ == 0) return;
    if (k_ == 0) k_ = length_;
    if (length_ != k_) uniform_ = false;
  }

  std::vector<std::pair<std::uint32_t, std::uint32_t>> runs_;
  std::size_t length_{0};  // pairs in the open run
  std::size_t k_{0};       // length of the first run
  bool uniform_{true};
  std::uint32_t delta_{0};
};

/// Colouring for packet sets that are not uniform bundles. Overload
/// pre-pass: when a few nodes carry load far above n (e.g. a coordinator
/// absorbing n*polylog sketches), one colouring of the whole multigraph
/// would need bit_ceil(L) colors for max load L. First-fit the packets
/// into waves of per-vertex degree <= n — at most ceil(2L/n)+1 waves — and
/// Euler-colour each wave independently in its own colour block; total
/// rounds stay O(1 + L/n).
///
/// First-fit places a packet of s at wave <= (#waves full for s) +
/// (#waves full for d), and a full wave holds n of a vertex's packets, so
/// every wave index is below `width`; send_use/recv_use are flat n x width
/// tables (n * width <= n + 2 * #packets) of per-wave degrees. Per-vertex
/// full waves only grow, so scanning starts at the larger of the two
/// endpoints' first-free hints.
std::vector<std::uint32_t> wave_edge_coloring(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
    std::uint32_t n, std::uint64_t max_send_load,
    std::uint64_t max_recv_load) {
  const std::uint64_t width = max_send_load / n + max_recv_load / n + 1;
  std::vector<std::uint32_t> wave_of(edges.size(), 0);
  std::uint32_t num_waves = 1;
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
      ++send[w];
      ++recv[w];
      while (s_hint < width && send[s_hint] >= n) ++s_hint;
      while (r_hint < width && recv[r_hint] >= n) ++r_hint;
      wave_of[e] = w;
      num_waves = std::max(num_waves, w + 1);
    }
  }
  // Bucket the edges by wave in one pass, edge order kept within a wave,
  // and give wave w a disjoint color block.
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
    const auto wave_color = bipartite_edge_coloring(wave_edges, n, n);
    std::uint32_t used = 0;
    for (std::size_t i = 0; i < wave_edges.size(); ++i) {
      color[by_wave[wave_start[w] + i]] = color_base + wave_color[i];
      used = std::max(used, wave_color[i] + 1);
    }
    color_base += used;
  }
  return color;
}

}  // namespace

std::vector<std::uint32_t> bipartite_edge_coloring(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
    std::uint32_t left_size, std::uint32_t right_size) {
  if (edges.empty()) return {};
  // Recursive Euler halving with per-level even-degree padding: max degree
  // drops from Δ to ceil(Δ/2) per level, so after ceil(log2 Δ) levels every
  // leaf subset is a matching and gets one color — at most bit_ceil(Δ) <
  // 2Δ colors, each a proper matching, in O(m log Δ) work.
  check(edges.size() < (std::size_t{1} << 31) &&
            std::uint64_t{left_size} + right_size + 2 <= UINT32_MAX,
        "bipartite_edge_coloring: multigraph too large");
  std::size_t delta = 1;
  {
    std::vector<std::size_t> degl(left_size, 0);
    std::vector<std::size_t> degr(right_size, 0);
    for (const auto& [u, d] : edges) {
      check(u < left_size && d < right_size,
            "bipartite_edge_coloring: endpoint out of range");
      delta = std::max(delta, ++degl[u]);
      delta = std::max(delta, ++degr[d]);
    }
  }
  const auto target = static_cast<std::uint32_t>(std::bit_ceil(delta));
  std::vector<std::uint32_t> color(edges.size(), 0);
  // Every subset is a contiguous range of `order`; halving rewrites its
  // range as part_a then part_b.
  std::vector<std::uint32_t> order(edges.size());
  std::iota(order.begin(), order.end(), 0u);
  struct Range {
    std::size_t begin;
    std::size_t end;
    std::uint32_t offset;  // first color of the range's budget
    std::uint32_t budget;
  };
  std::vector<Range> stack{{0, edges.size(), 0, target}};
  EulerHalver halver{edges, left_size, right_size};
  while (!stack.empty()) {
    const Range r = stack.back();
    stack.pop_back();
    if (r.begin == r.end) continue;
    if (r.budget <= 1) {
      for (std::size_t i = r.begin; i < r.end; ++i) color[order[i]] = r.offset;
      continue;
    }
    const std::size_t mid =
        r.begin + halver.halve({order.data() + r.begin, r.end - r.begin});
    stack.push_back({r.begin, mid, r.offset, r.budget / 2});
    stack.push_back({mid, r.end, r.offset + r.budget / 2, r.budget / 2});
  }
  return color;
}

std::vector<std::uint32_t> uniform_bundle_coloring(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
    std::uint32_t n) {
  RunGraph runs;
  for (const auto& [src, dst] : edges) runs.push(src, dst);
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
  std::vector<std::uint64_t> send_load(n, 0);
  std::vector<std::uint64_t> recv_load(n, 0);
  RunGraph runs;
  std::vector<std::size_t> local_packets;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const Packet& p = packets[i];
    check(p.src < n && p.dst < n, "route_packets_into: endpoint out of range");
    out.add_count(p.dst);
    if (p.src == p.dst) {  // local delivery is free in the model
      local_packets.push_back(i);
      continue;
    }
    runs.push(p.src, p.dst);
    ++send_load[p.src];
    ++recv_load[p.dst];
  }
  const std::size_t relayed = packets.size() - local_packets.size();
  out.commit_counts();
  // Local deliveries land first in each inbox, in packet order.
  for (const std::size_t i : local_packets) {
    const Packet& p = packets[i];
    Message& m = out.place(p.dst);
    m = p.msg;
    m.src = p.src;
    m.dst = p.dst;
  }
  RouteStats local{};
  local.max_send_load = *std::max_element(send_load.begin(), send_load.end());
  local.max_recv_load = *std::max_element(recv_load.begin(), recv_load.end());
  if (relayed > 0) {
    // Uniform bundles (every run of equal consecutive pairs one length,
    // the SQ-MST and GC sketch shape) get the optimal k * delta_S colours
    // from one colouring of the small run graph, expanded per packet on the
    // fly, so their scratch is O(runs). Every other packet set keeps the
    // wave + Euler colouring over a per-packet edge list.
    const std::vector<std::uint32_t> run_color = runs.coloring(n);
    std::vector<std::size_t> packet_of_edge;
    std::vector<std::uint32_t> color;
    if (run_color.empty()) {
      std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
      edges.reserve(relayed);
      packet_of_edge.reserve(relayed);
      for (std::size_t i = 0; i < packets.size(); ++i) {
        if (packets[i].src == packets[i].dst) continue;
        edges.emplace_back(packets[i].src, packets[i].dst);
        packet_of_edge.push_back(i);
      }
      color = wave_edge_coloring(edges, n, local.max_send_load,
                                 local.max_recv_load);
    }
    // Visit the relayed packets in packet order with their colours.
    const auto for_each_relayed = [&](auto&& visit) {
      if (run_color.empty()) {
        for (std::size_t e = 0; e < packet_of_edge.size(); ++e)
          visit(packets[packet_of_edge[e]], color[e]);
        return;
      }
      std::size_t r = 0;
      std::uint32_t j = 0;
      for (const Packet& p : packets) {
        if (p.src == p.dst) continue;
        visit(p, j * runs.delta() + run_color[r]);
        if (++j == runs.k()) {
          j = 0;
          ++r;
        }
      }
    };
    const std::uint32_t num_colors =
        run_color.empty()
            ? 1 + *std::max_element(color.begin(), color.end())
            : static_cast<std::uint32_t>(runs.k() - 1) * runs.delta() + 1 +
                  *std::max_element(run_color.begin(), run_color.end());
    // Colors are grouped into batches of up to `n * messages_per_link`
    // simultaneous relays; each batch is delivered in two rounds
    // (src -> relay, relay -> dst), bandwidth-legal because within one
    // color no two packets share a src or share a dst.
    const std::uint64_t colors_per_batch =
        static_cast<std::uint64_t>(n) * engine.messages_per_link();
    const std::uint64_t batches =
        (num_colors + colors_per_batch - 1) / colors_per_batch;
    // Deliver, in packet order, while grouping packet counts/words per
    // batch for exact accounting.
    std::vector<std::uint64_t> batch_msgs(batches, 0);
    std::vector<std::uint64_t> batch_words(batches, 0);
    for_each_relayed([&](const Packet& p, std::uint32_t c) {
      const std::uint64_t b = c / colors_per_batch;
      batch_msgs[b] += 2;  // two hops
      // Relay hop carries the final destination alongside the payload: one
      // extra O(log n)-bit word.
      batch_words[b] += 2ull * p.msg.count + 1;
      Message& m = out.place(p.dst);
      m = p.msg;
      m.src = p.src;
      m.dst = p.dst;
    });
    for (std::uint64_t b = 0; b < batches; ++b) {
      engine.charge_verified_round(batch_msgs[b] / 2 + batch_msgs[b] % 2,
                                   (batch_words[b] + 1) / 2);
      engine.charge_verified_round(batch_msgs[b] / 2, batch_words[b] / 2);
    }
    for (std::uint64_t r = 0; r < kScheduleRounds; ++r)
      engine.charge_verified_round(0, 0);
    if (engine.has_observer()) {
      for_each_relayed([&](const Packet& p, std::uint32_t c) {
        const auto relay = static_cast<VertexId>(c % n);
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
      for_each_relayed([&](const Packet& p, std::uint32_t c) {
        const auto relay = static_cast<VertexId>(c % n);
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
