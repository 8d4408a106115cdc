#include "lotker/cc_mst.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "clique/trace.hpp"
#include "comm/primitives.hpp"
#include "graph/union_find.hpp"
#include "util/error.hpp"

namespace ccq {

CliqueWeights::CliqueWeights(std::uint32_t n)
    : n_(n), w_(static_cast<std::size_t>(n) * (n - 1) / 2, kNoWeight) {
  check(n >= 1, "CliqueWeights: need n >= 1");
}

std::size_t CliqueWeights::slot(VertexId u, VertexId v) const {
  check(u != v && u < n_ && v < n_, "CliqueWeights: bad pair");
  if (u > v) std::swap(u, v);
  // Triangular index of (u, v), u < v.
  return static_cast<std::size_t>(u) * n_ -
         static_cast<std::size_t>(u) * (u + 1) / 2 + (v - u - 1);
}

CliqueWeights CliqueWeights::from_graph(const WeightedGraph& g) {
  CliqueWeights cw{g.num_vertices()};
  for (const auto& e : g.edges()) cw.set(e.u, e.v, e.w);
  return cw;
}

Weight CliqueWeights::at(VertexId u, VertexId v) const {
  const std::uint32_t stored = w_[slot(u, v)];
  return stored == kNoWeight ? kInfiniteWeight : stored;
}

bool CliqueWeights::finite(VertexId u, VertexId v) const {
  return w_[slot(u, v)] != kNoWeight;
}

void CliqueWeights::set(VertexId u, VertexId v, Weight w) {
  check(w < kNoWeight || w == kInfiniteWeight,
        "CliqueWeights::set: weight must fit 32 bits (or be infinite)");
  w_[slot(u, v)] = w == kInfiniteWeight
                       ? kNoWeight
                       : static_cast<std::uint32_t>(w);
}

WeightedEdge CliqueWeights::edge(VertexId u, VertexId v) const {
  return WeightedEdge{u, v, at(u, v)};
}

FiniteAdjacency::FiniteAdjacency(const Graph& g)
    : n_(g.num_vertices()), first_(n_ + 1, 0) {
  for (VertexId u = 0; u < n_; ++u) first_[u + 1] = first_[u] + g.degree(u);
  arcs_.reserve(first_[n_]);
  for (VertexId u = 0; u < n_; ++u)
    for (VertexId v : g.neighbors(u)) arcs_.push_back({v, 1});
}

FiniteAdjacency::FiniteAdjacency(const CliqueWeights& weights)
    : n_(weights.n()), first_(n_ + 1, 0) {
  // Two sequential walks of the triangle (slot(u, v), u < v, runs through
  // w_ in (u, v) order): the first counts every node's finite pairs, so the
  // arcs are allocated once at their exact size; the second places them.
  // Row v receives its arcs to lower nodes (u ascending) before its own
  // upward ones, so each row ascends by neighbour.
  weights.for_each_finite([&](VertexId u, VertexId v, std::uint32_t) {
    ++first_[u + 1];
    ++first_[v + 1];
  });
  for (VertexId u = 0; u < n_; ++u) first_[u + 1] += first_[u];
  arcs_.resize(first_[n_]);
  std::vector<std::size_t> next(first_.begin(), first_.end() - 1);
  weights.for_each_finite([&](VertexId u, VertexId v, std::uint32_t w) {
    arcs_[next[u]++] = {v, w};
    arcs_[next[v]++] = {u, w};
  });
}

std::vector<WeightedEdge> FiniteAdjacency::edges() const {
  std::vector<WeightedEdge> out;
  out.reserve(arcs_.size() / 2);
  for (VertexId u = 0; u < n_; ++u)
    for (const Arc& arc : arcs(u))
      if (arc.to > u) out.emplace_back(u, arc.to, arc.w);
  return out;
}

std::uint32_t LotkerState::num_clusters() const {
  std::uint32_t count = 0;
  for (VertexId v = 0; v < cluster_of.size(); ++v)
    if (cluster_of[v] == v) ++count;
  return count;
}

std::uint32_t LotkerState::min_cluster_size() const {
  std::vector<std::uint32_t> size(cluster_of.size(), 0);
  for (VertexId label : cluster_of) {
    check(label < size.size(), "LotkerState: cluster label out of range");
    ++size[label];
  }
  std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
  for (std::uint32_t s : size)
    if (s > 0) best = std::min(best, s);
  return cluster_of.empty() ? 0 : best;
}

namespace {

/// The clique-wide ordering used everywhere: infinite edges sort after all
/// finite ones, ties broken by endpoints. (WeightedEdge::key already does
/// this since kInfiniteWeight is the maximum Weight.)
bool lighter(const WeightedEdge& a, const WeightedEdge& b) {
  return a.key() < b.key();
}

struct Phase {
  std::vector<WeightedEdge> merge_edges;  // accepted MST edges
};

/// One CC-MST phase; mutates the `cluster_of` bookkeeping at every node (all
/// nodes track the same state, per Theorem 2(ii)).
Phase run_phase(CliqueEngine& engine, const FiniteAdjacency& input,
                std::vector<VertexId>& cluster_of) {
  const std::uint32_t n = input.n();
  // Cluster roster (known to every node): leaders ascending, pos_of[leader]
  // the leader's position, members(pos) the cluster's nodes ascending (one
  // flat array, bucketed by position).
  constexpr auto kNotLeader = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> pos_of(n, kNotLeader);
  for (VertexId v = 0; v < n; ++v) {
    check(cluster_of[v] < n, "cc_mst: cluster label out of range");
    pos_of[cluster_of[v]] = 0;
  }
  std::vector<VertexId> leaders;
  for (VertexId v = 0; v < n; ++v)
    if (pos_of[v] != kNotLeader) {
      pos_of[v] = static_cast<std::uint32_t>(leaders.size());
      leaders.push_back(v);
    }
  const std::size_t m = leaders.size();
  std::vector<std::uint32_t> pos(n);  // roster position of v's cluster
  std::vector<std::uint32_t> member_first(m + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    pos[v] = pos_of[cluster_of[v]];
    ++member_first[pos[v] + 1];
  }
  for (std::size_t p = 0; p < m; ++p) member_first[p + 1] += member_first[p];
  std::vector<VertexId> member_list(n);
  {
    std::vector<std::uint32_t> next(member_first.begin(),
                                    member_first.end() - 1);
    for (VertexId v = 0; v < n; ++v) member_list[next[pos[v]]++] = v;
  }
  const auto members = [&](std::size_t p) {
    return std::span<const VertexId>{member_list.data() + member_first[p],
                                     member_list.data() + member_first[p + 1]};
  };
  // The padding rule below needs every label to be its cluster's minimum
  // member, as the initial identity labels and the R4/R5 relabel make it.
  for (std::size_t p = 0; p < m; ++p)
    check(leaders[p] == members(p).front(),
          "cc_mst: a cluster's label must be its minimum member");
  Phase phase;
  if (m <= 1) return phase;
  std::size_t s = std::numeric_limits<std::size_t>::max();
  for (std::size_t p = 0; p < m; ++p) s = std::min(s, members(p).size());
  // Quota of candidates per leader. With standard links it is s (one
  // candidate per member relay); with B-message links each member carries
  // B candidates, so the quota is s*B and cluster sizes grow by
  // s*(quota+1) >= B*s^2 per phase — the "O(log 1/eps) rounds with
  // n^eps-bit messages" extension Lotker et al. note and the paper quotes
  // (Section 1.1).
  const std::size_t bandwidth = engine.messages_per_link();
  const std::size_t quota = std::min<std::size_t>(s * bandwidth, m - 1);

  // --- R1: every node reports its lightest edge into every other cluster
  // to that cluster's leader; leader p keeps, per cluster q, the lightest
  // edge between p and q, and selects its `quota` lightest (its candidates
  // for R2/R3). Edge keys do not depend on endpoint order, so row p is
  // computed here from p's own members. Only finite edges are visited: a
  // leader is its cluster's minimum member, so when p and q share no finite
  // edge their lightest edge is the padding edge (inf, min(a_p, a_q),
  // max(a_p, a_q)). Those sort after every finite edge and, within a row,
  // by a_q ascending, which is roster order.
  constexpr VertexId coordinator = 0;
  struct Candidate {
    std::uint32_t from;  // cluster positions
    std::uint32_t to;
    WeightedEdge e;
  };
  // Row p holds candidates [p * quota, (p + 1) * quota), lightest first.
  std::vector<Candidate> candidates;
  candidates.reserve(m * quota);
  {
    TraceScope r1{engine, "r1-lightest-exchange"};
    // Row scratch: row_of[q] == p marks cluster q as touched by row p, with
    // its lightest edge so far at row[slot[q]].
    std::vector<std::uint32_t> row_of(m, kNotLeader);
    std::vector<std::uint32_t> slot(m);
    struct Lightest {
      std::uint32_t to;
      WeightedEdge e;
    };
    std::vector<Lightest> row;
    for (std::uint32_t p = 0; p < m; ++p) {
      row.clear();
      for (VertexId u : members(p))
        for (const FiniteAdjacency::Arc arc : input.arcs(u)) {
          const std::uint32_t q = pos[arc.to];
          if (q == p) continue;
          const WeightedEdge e{u, arc.to, arc.w};
          if (row_of[q] != p) {
            row_of[q] = p;
            slot[q] = static_cast<std::uint32_t>(row.size());
            row.push_back({q, e});
          } else if (lighter(e, row[slot[q]].e)) {
            row[slot[q]].e = e;
          }
        }
      // Keys within a row are distinct, so the selection does not depend on
      // the order the arcs were visited in.
      const std::size_t keep = std::min(quota, row.size());
      std::partial_sort(row.begin(), row.begin() + keep, row.end(),
                        [](const Lightest& a, const Lightest& b) {
                          return lighter(a.e, b.e);
                        });
      for (std::size_t j = 0; j < keep; ++j)
        candidates.push_back({p, row[j].to, row[j].e});
      // Fewer finite edges than the quota: pad with the untouched clusters
      // in roster order.
      for (std::uint32_t q = 0; candidates.size() < (p + 1) * quota; ++q)
        if (q != p && row_of[q] != p)
          candidates.push_back(
              {p, q, WeightedEdge{leaders[p], leaders[q], kInfiniteWeight}});
    }
    const bool all_singletons = (s == 1 && m == n);
    if (!all_singletons) {
      // Node u sends one 3-word message to each of the m - 1 foreign
      // leaders (a node never leads a foreign cluster). Schedule validity:
      // u sends at most one message per (distinct) leader; each leader
      // receives at most one message per sender.
      const std::uint64_t r1_messages =
          static_cast<std::uint64_t>(n) * (m - 1);
      engine.charge_verified_round(r1_messages, r1_messages * 3);
      if (engine.has_observer())
        for (VertexId u = 0; u < n; ++u)
          for (VertexId leader : leaders)
            if (leader != cluster_of[u] && leader != u)
              engine.observe(u, leader);
      if (engine.wants_load())
        for (VertexId u = 0; u < n; ++u)
          for (VertexId leader : leaders)
            if (leader != cluster_of[u] && leader != u)
              engine.attribute_load(u, leader, 1, 3);
    }
    // (In the all-singleton phase each "leader" is the node itself and knows
    // its incident weights locally; R1 would be n(n-1) redundant messages.)
  }

  // --- R2/R3: each leader relays its candidates through its members to
  // v* = node 0. Leaders go in roster order: the candidate list decides
  // relay assignment and the coordinator's merge order.
  std::uint64_t relay_hops = 0;
  {
    TraceScope relay{engine, "r2r3-candidate-relay"};
    for (std::uint32_t p = 0; p < m; ++p) {
      const VertexId leader = leaders[p];
      for (std::size_t j = 0; j < quota; ++j) {
        // Hop 1: leader -> relay member (each member carries up to `bandwidth`
        // candidates; skipped when the leader is that member); hop 2:
        // member -> coordinator (skipped for the coordinator itself).
        const VertexId member = members(p)[j / bandwidth];
        if (member != leader) {
          ++relay_hops;
          engine.observe(leader, member);
          engine.attribute_load(leader, member, 1, 4);
        }
        if (member != coordinator) {
          ++relay_hops;
          engine.observe(member, coordinator);
          engine.attribute_load(member, coordinator, 1, 4);
        }
      }
    }
    check(candidates.size() <= static_cast<std::size_t>(n) * bandwidth,
          "cc_mst: candidate volume exceeds the coordinator's inbound budget");
    // Two rounds (leader->member, member->v*), each using every ordered link
    // at most once: members within a cluster are distinct, and candidate
    // senders to v* are distinct nodes (<= one candidate per member since
    // quota <= s <= cluster size... quota-many distinct members per cluster).
    engine.charge_verified_round(relay_hops / 2 + relay_hops % 2,
                                 (relay_hops / 2 + relay_hops % 2) * 4);
    engine.charge_verified_round(relay_hops / 2, (relay_hops / 2) * 4);
  }

  // --- L: constrained Borůvka at v* over the candidate cluster graph.
  {
    TraceScope local{engine, "local-boruvka"};
    UnionFind uf{m};
    std::vector<std::size_t> clusters_in(m, 1);  // clusters per component
    bool merged = true;
    while (merged) {
      merged = false;
      // Lightest outgoing candidate per small component.
      std::vector<std::optional<Candidate>> pick(m);
      for (const auto& c : candidates) {
        const std::size_t a = uf.find(c.from);
        const std::size_t b = uf.find(c.to);
        if (a == b) continue;
        for (std::size_t side : {a, b}) {
          // Merges stay provably-MST while the component holds at most
          // `quota` clusters (each contributed its quota lightest outgoing
          // edges, so the component's true min outgoing edge is available).
          if (clusters_in[side] > quota) continue;  // grown enough this phase
          if (!pick[side] || lighter(c.e, pick[side]->e)) pick[side] = c;
        }
      }
      for (std::size_t i = 0; i < m; ++i) {
        if (!pick[i] || uf.find(i) != i) continue;
        const Candidate& c = *pick[i];
        const std::size_t a = uf.find(c.from);
        const std::size_t b = uf.find(c.to);
        if (a == b) continue;
        const std::size_t total = clusters_in[a] + clusters_in[b];
        uf.unite(a, b);
        clusters_in[uf.find(a)] = total;
        phase.merge_edges.push_back(c.e);
        merged = true;
      }
    }
  }

  // --- R4/R5: v* spray-broadcasts the accepted merge edges; every node
  // updates the shared partition state.
  {
    TraceScope bcast{engine, "r4r5-merge-broadcast"};
    std::vector<std::vector<std::uint64_t>> items;
    items.reserve(phase.merge_edges.size());
    for (const auto& e : phase.merge_edges)
      items.push_back({e.u, e.v,
                       e.w == kInfiniteWeight
                           ? std::numeric_limits<std::uint64_t>::max()
                           : e.w});
    spray_broadcast(engine, coordinator, items);
  }

  // Local partition update (identical at every node).
  UnionFind global{n};
  for (VertexId v = 0; v < n; ++v) global.unite(v, cluster_of[v]);
  for (const auto& e : phase.merge_edges) global.unite(e.u, e.v);
  std::vector<VertexId> new_label(n, std::numeric_limits<VertexId>::max());
  for (VertexId v = 0; v < n; ++v) {
    const auto root = global.find(v);
    new_label[root] = std::min(new_label[root], v);
  }
  for (VertexId v = 0; v < n; ++v)
    cluster_of[v] = new_label[global.find(v)];
  return phase;
}

}  // namespace

LotkerState cc_mst_initial_state(std::uint32_t n) {
  LotkerState state;
  state.cluster_of.resize(n);
  for (VertexId v = 0; v < n; ++v) state.cluster_of[v] = v;
  return state;
}

std::size_t cc_mst_step(CliqueEngine& engine, const FiniteAdjacency& input,
                        LotkerState& state) {
  check(engine.n() == input.n() && state.cluster_of.size() == input.n(),
        "cc_mst_step: engine/input/state size mismatch");
  engine.require_id_knowledge("cc_mst");
  if (state.num_clusters() <= 1) return 0;
  TraceScope phase_scope{engine, "lotker/phase", state.phases_run + 1};
  Phase phase = run_phase(engine, input, state.cluster_of);
  state.tree_edges.insert(state.tree_edges.end(), phase.merge_edges.begin(),
                          phase.merge_edges.end());
  ++state.phases_run;
  return phase.merge_edges.size();
}

LotkerState cc_mst_phases(CliqueEngine& engine, const FiniteAdjacency& input,
                          std::uint32_t phases) {
  check(engine.n() == input.n(), "cc_mst: engine/input size mismatch");
  engine.require_id_knowledge("cc_mst");
  LotkerState state = cc_mst_initial_state(input.n());
  for (std::uint32_t k = 0; k < phases; ++k)
    if (cc_mst_step(engine, input, state) == 0) break;
  return state;
}

LotkerState cc_mst_full(CliqueEngine& engine, const FiniteAdjacency& input) {
  engine.require_id_knowledge("cc_mst");
  LotkerState state = cc_mst_initial_state(input.n());
  while (state.num_clusters() > 1)
    check(cc_mst_step(engine, input, state) > 0,
          "cc_mst_full: stalled phase");
  return state;
}

std::uint32_t reduce_components_phases(std::uint32_t n) {
  // ceil(log log log n) + 3 (Algorithm 1, Step 2), with floors so tiny
  // instances still run three phases.
  const double log_n = std::log2(std::max(4.0, static_cast<double>(n)));
  const double log_log_n = std::log2(std::max(1.0001, log_n));
  const double lll = std::log2(std::max(1.0001, log_log_n));
  return static_cast<std::uint32_t>(std::ceil(std::max(0.0, lll))) + 3;
}

}  // namespace ccq
