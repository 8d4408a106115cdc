#include "lotker/cc_mst.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "clique/trace.hpp"
#include "comm/primitives.hpp"
#include "graph/union_find.hpp"
#include "util/error.hpp"

namespace ccq {

namespace {
constexpr std::uint32_t kNoWeight = std::numeric_limits<std::uint32_t>::max();
}

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

CliqueWeights CliqueWeights::unit_from_graph(const Graph& g) {
  CliqueWeights cw{g.num_vertices()};
  for (const auto& e : g.edges()) cw.set(e.u, e.v, 1);
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

std::vector<WeightedEdge> CliqueWeights::finite_edges() const {
  std::vector<WeightedEdge> out;
  for (VertexId u = 0; u < n_; ++u)
    for (VertexId v = u + 1; v < n_; ++v)
      if (finite(u, v)) out.emplace_back(u, v, at(u, v));
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

/// One CC-MST phase; mutates `cluster_of` / `members` bookkeeping at every
/// node (all nodes track the same state, per Theorem 2(ii)).
Phase run_phase(CliqueEngine& engine, const CliqueWeights& w,
                std::vector<VertexId>& cluster_of) {
  const std::uint32_t n = w.n();
  // Cluster roster (known to every node): leaders ascending, pos_of[leader]
  // the leader's position, members[pos] the cluster's nodes ascending.
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
  std::vector<std::vector<VertexId>> members(m);
  for (VertexId v = 0; v < n; ++v) members[pos_of[cluster_of[v]]].push_back(v);
  Phase phase;
  if (m <= 1) return phase;
  std::size_t s = std::numeric_limits<std::size_t>::max();
  for (const auto& list : members) s = std::min(s, list.size());

  // --- R1: per-node lightest edge into every other cluster -> that
  // cluster's leader. Leaders aggregate the lightest inter-cluster edges.
  // best[p * m + q] is the lightest edge between clusters p and q
  // (positions). Edge keys do not depend on endpoint order, so row p, filled
  // here contiguously by p's own members, equals what leader p aggregates
  // from the reports of q's members. Only the diagonal keeps the
  // unreported sentinel, whose key exceeds every real edge's.
  WeightedEdge unreported;
  unreported.u = unreported.v = std::numeric_limits<VertexId>::max();
  unreported.w = kInfiniteWeight;
  std::vector<WeightedEdge> best(m * m, unreported);
  std::uint64_t r1_messages = 0;
  {
    TraceScope r1{engine, "r1-lightest-exchange"};
    for (VertexId u = 0; u < n; ++u) {
      const std::uint32_t cu = pos_of[cluster_of[u]];
      for (std::size_t q = 0; q < m; ++q) {
        if (q == cu) continue;
        // Lightest edge from u into cluster q (clique: always exists,
        // possibly infinite).
        const auto& list = members[q];
        WeightedEdge lightest = w.edge(u, list.front());
        for (std::size_t i = 1; i < list.size(); ++i) {
          const WeightedEdge cand = w.edge(u, list[i]);
          if (lighter(cand, lightest)) lightest = cand;
        }
        if (u != leaders[q]) ++r1_messages;  // message u -> leader (3 words)
        WeightedEdge& cell = best[cu * m + q];
        if (lighter(lightest, cell)) cell = lightest;
      }
    }
    const bool all_singletons = (s == 1 && m == n);
    if (!all_singletons) {
      // Schedule validity: node u sends at most one message per (distinct)
      // leader; each leader receives at most one message per sender.
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

  // --- R2/R3: each leader picks its quota of lightest outgoing edges to
  // distinct clusters and relays them through its members to v* = node 0.
  // With standard links the quota is s (one candidate per member relay);
  // with B-message links each member carries B candidates, so the quota is
  // s*B and cluster sizes grow by s*(quota+1) >= B*s^2 per phase — the
  // "O(log 1/eps) rounds with n^eps-bit messages" extension Lotker et al.
  // note and the paper quotes (Section 1.1).
  const VertexId coordinator = 0;
  const std::size_t bandwidth = engine.messages_per_link();
  const std::size_t quota = std::min<std::size_t>(s * bandwidth, m - 1);
  struct Candidate {
    std::uint32_t from;  // cluster positions
    std::uint32_t to;
    WeightedEdge e;
  };
  std::vector<Candidate> candidates;
  std::uint64_t relay_hops = 0;
  {
    TraceScope relay{engine, "r2r3-candidate-relay"};
    // Leaders go in roster order: the candidate list built here decides
    // relay assignment and the coordinator's merge order. A row's edges
    // join distinct cluster pairs, so their keys are distinct and the
    // lightest `quota` of them do not depend on the order they are listed.
    std::vector<std::pair<std::uint32_t, WeightedEdge>> outgoing;
    outgoing.reserve(m - 1);
    for (std::uint32_t p = 0; p < m; ++p) {
      outgoing.clear();
      for (std::uint32_t q = 0; q < m; ++q)
        if (q != p) outgoing.emplace_back(q, best[p * m + q]);
      const std::size_t take = std::min(quota, outgoing.size());
      std::partial_sort(outgoing.begin(), outgoing.begin() + take,
                        outgoing.end(), [](const auto& a, const auto& b) {
                          return lighter(a.second, b.second);
                        });
      const VertexId leader = leaders[p];
      for (std::size_t j = 0; j < take; ++j) {
        candidates.push_back({p, outgoing[j].first, outgoing[j].second});
        // Hop 1: leader -> relay member (each member carries up to `bandwidth`
        // candidates; skipped when the leader is that member); hop 2:
        // member -> coordinator (skipped for the coordinator itself).
        const VertexId member = members[p][j / bandwidth];
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

std::size_t cc_mst_step(CliqueEngine& engine, const CliqueWeights& weights,
                        LotkerState& state) {
  check(engine.n() == weights.n() &&
            state.cluster_of.size() == weights.n(),
        "cc_mst_step: engine/input/state size mismatch");
  engine.require_id_knowledge("cc_mst");
  if (state.num_clusters() <= 1) return 0;
  TraceScope phase_scope{engine, "lotker/phase", state.phases_run + 1};
  Phase phase = run_phase(engine, weights, state.cluster_of);
  state.tree_edges.insert(state.tree_edges.end(), phase.merge_edges.begin(),
                          phase.merge_edges.end());
  ++state.phases_run;
  return phase.merge_edges.size();
}

LotkerState cc_mst_phases(CliqueEngine& engine, const CliqueWeights& weights,
                          std::uint32_t phases) {
  check(engine.n() == weights.n(), "cc_mst: engine/input size mismatch");
  engine.require_id_knowledge("cc_mst");
  LotkerState state = cc_mst_initial_state(weights.n());
  for (std::uint32_t k = 0; k < phases; ++k)
    if (cc_mst_step(engine, weights, state) == 0) break;
  return state;
}

LotkerState cc_mst_full(CliqueEngine& engine, const CliqueWeights& weights) {
  engine.require_id_knowledge("cc_mst");
  LotkerState state = cc_mst_initial_state(weights.n());
  while (state.num_clusters() > 1)
    check(cc_mst_step(engine, weights, state) > 0,
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
