#include "baseline/boruvka_clique.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "comm/primitives.hpp"
#include "comm/routing.hpp"
#include "graph/union_find.hpp"
#include "util/error.hpp"

namespace ccq {

namespace {
constexpr std::uint32_t kTagMwoe = 0xb101;

bool lighter(const WeightedEdge& a, const WeightedEdge& b) {
  return a.key() < b.key();
}
}  // namespace

BoruvkaCliqueResult boruvka_clique_msf(CliqueEngine& engine,
                                       const FiniteAdjacency& input) {
  const std::uint32_t n = input.n();
  check(engine.n() == n, "boruvka_clique_msf: engine/input size mismatch");
  engine.require_id_knowledge("boruvka_clique_msf");
  BoruvkaCliqueResult result;
  if (n <= 1) return result;
  const VertexId coordinator = 0;

  std::vector<VertexId> label(n);
  for (VertexId v = 0; v < n; ++v) label[v] = v;
  UnionFind uf{n};
  RoundBuffer mwoe_inbox;  // reused by every phase's R2
  // R1 scratch: lightest[c] is node u's lightest edge into the component
  // labelled c, valid where stamp[c] == u + 1.
  std::vector<std::uint32_t> stamp(n);
  std::vector<WeightedEdge> lightest(n);
  std::vector<VertexId> touched;

  for (;;) {
    std::vector<VertexId> leaders;  // ascending
    for (VertexId v = 0; v < n; ++v)
      if (label[v] == v) leaders.push_back(v);
    if (leaders.size() <= 1) break;

    // R1: node -> foreign leader, lightest finite edge into that component.
    // (Finite only: a component whose every outgoing pair is a non-edge is
    // a finished real component.)
    std::vector<std::optional<WeightedEdge>> best(n);  // by leader
    std::fill(stamp.begin(), stamp.end(), 0);
    std::uint64_t r1_messages = 0;
    for (VertexId u = 0; u < n; ++u) {
      touched.clear();
      for (const FiniteAdjacency::Arc arc : input.arcs(u)) {
        const VertexId c = label[arc.to];
        if (c == label[u]) continue;
        const WeightedEdge cand{u, arc.to, arc.w};
        if (stamp[c] != u + 1) {
          stamp[c] = u + 1;
          lightest[c] = cand;
          touched.push_back(c);
        } else if (lighter(cand, lightest[c])) {
          lightest[c] = cand;
        }
      }
      // Leaders ascending: the observe / attribute_load sequence is
      // deterministic output. A node without a finite edge into a
      // component sends it no message at all.
      std::sort(touched.begin(), touched.end());
      for (VertexId leader : touched) {
        if (u != leader) {
          ++r1_messages;
          engine.observe(u, leader);
          engine.attribute_load(u, leader, 1, 3);
        }
        // The receiving leader learns an outgoing edge of ITS component
        // (the edge leaves `leader`'s component toward u's), and u's leader
        // will hear about the symmetric direction from members of `leader`.
        auto& slot = best[leader];
        if (!slot || lighter(lightest[leader], *slot)) slot = lightest[leader];
      }
    }
    engine.charge_verified_round(r1_messages, r1_messages * 3);

    // R2: leaders -> coordinator, one MWOE each (distinct senders).
    // Leaders ascending: the packet order feeds the coordinator's merge
    // sequence.
    std::vector<Packet> mwoe;
    for (VertexId leader : leaders)
      if (const auto& edge = best[leader])
        mwoe.push_back({leader, coordinator,
                        msg3(kTagMwoe, edge->u, edge->v, edge->w)});
    if (mwoe.empty()) break;  // every remaining component is finished
    route_packets_into(engine, mwoe, mwoe_inbox);

    // Local merge at v*.
    std::vector<WeightedEdge> accepted;
    for (const auto& m : mwoe_inbox.inbox(coordinator)) {
      const WeightedEdge e{static_cast<VertexId>(m.word(0)),
                           static_cast<VertexId>(m.word(1)), m.word(2)};
      if (uf.unite(e.u, e.v)) accepted.push_back(e);
    }
    if (accepted.empty()) break;
    result.msf.insert(result.msf.end(), accepted.begin(), accepted.end());
    ++result.phases;

    // R3/R4: disseminate the accepted edges; all nodes relabel locally.
    std::vector<std::vector<std::uint64_t>> items;
    for (const auto& e : accepted) items.push_back({e.u, e.v, e.w});
    spray_broadcast(engine, coordinator, items);
    std::vector<VertexId> min_of(n, std::numeric_limits<VertexId>::max());
    for (VertexId v = 0; v < n; ++v) {
      const auto root = uf.find(v);
      min_of[root] = std::min(min_of[root], v);
    }
    for (VertexId v = 0; v < n; ++v) label[v] = min_of[uf.find(v)];
  }
  return result;
}

}  // namespace ccq
