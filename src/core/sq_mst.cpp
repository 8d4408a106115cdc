#include "core/sq_mst.hpp"

#include <algorithm>
#include <unordered_map>

#include "comm/primitives.hpp"
#include "comm/routing.hpp"
#include "comm/shared_random.hpp"
#include "comm/sorting.hpp"
#include "graph/union_find.hpp"
#include "sketch/wire.hpp"
#include "util/error.hpp"

namespace ccq {

namespace {

constexpr std::uint32_t kTagEdge = 0x7101;
constexpr std::uint32_t kTagMst = 0x7102;
constexpr std::uint32_t kTagSketch = 0x00020000;

/// Pack the canonical (w, u, v) order into one 64-bit sort key.
std::uint64_t edge_key(const WeightedEdge& e) {
  check(e.w < (std::uint64_t{1} << 32), "sq_mst: weight exceeds 32 bits");
  check(e.u < (1u << 16) && e.v < (1u << 16), "sq_mst: id exceeds 16 bits");
  return (e.w << 32) | (static_cast<std::uint64_t>(e.u) << 16) | e.v;
}

}  // namespace

SqMstResult sq_mst(CliqueEngine& engine, std::uint32_t n,
                   const std::vector<WeightedEdge>& edges, Rng& rng,
                   std::uint32_t copies_override) {
  SqMstResult result;
  engine.require_id_knowledge("sq_mst");
  if (edges.empty()) return result;
  const VertexId coordinator = 0;

  // --- Step 1: distributed sort. Each edge is owned (held as a sort key)
  // by its smaller endpoint.
  std::vector<std::vector<std::uint64_t>> keys(n);
  for (const auto& e : edges) keys[e.u].push_back(edge_key(e));
  const auto ranks = distributed_sort_ranks(engine, keys, rng);
  // Owners now know the rank of each incident owned edge.
  std::unordered_map<std::uint64_t, std::uint64_t> rank_of;  // key -> rank
  rank_of.reserve(edges.size());
  for (VertexId v = 0; v < n; ++v)
    for (std::size_t i = 0; i < keys[v].size(); ++i)
      rank_of[keys[v][i]] = ranks[v][i];

  // --- Step 2: partition by rank into p groups of n.
  const std::uint64_t group_size = n;
  const auto p = static_cast<std::uint32_t>(
      (edges.size() + group_size - 1) / group_size);
  result.partitions = p;
  check(p <= n, "sq_mst: more partitions than guardian nodes");

  // --- Step 3: gather E_i at guardian g(i) = node i.
  std::vector<Packet> edge_packets;
  edge_packets.reserve(edges.size());
  for (const auto& e : edges) {
    const std::uint64_t r = rank_of.at(edge_key(e));
    const auto guardian = static_cast<VertexId>(r / group_size);
    edge_packets.push_back({e.u, guardian, msg3(kTagEdge, e.u, e.v, e.w)});
  }
  // Two caller-owned arenas: guardian_inbox is still read in Step 5, after
  // the sketches have been routed into sketch_inbox.
  RoundBuffer guardian_inbox;
  RoundBuffer sketch_inbox;
  route_packets_into(engine, edge_packets, guardian_inbox);

  // --- Step 4: sketches of every prefix graph G_i, shipped to guardians.
  const std::uint32_t copies = copies_override > 0
                                   ? copies_override
                                   : default_sketch_copies(n);
  const auto seed = shared_random_words(
      engine, SketchSpace::seed_words_needed(n, copies), rng);
  const SketchSpace space{n, copies, seed};
  // Each vertex accumulates its incident edges in rank order and snapshots
  // the sketch collection at every group boundary (linearity makes the
  // snapshots prefix sums). Only non-empty neighbourhoods are shipped; a
  // missing sketch at a guardian is exactly a zero sketch.
  std::vector<std::vector<std::pair<std::uint64_t, Edge>>> incident(n);
  for (const auto& e : edges) {
    const std::uint64_t r = rank_of.at(edge_key(e));
    incident[e.u].push_back({r, e.edge()});
    incident[e.v].push_back({r, e.edge()});
  }
  std::vector<Packet> sketch_packets;
  for (VertexId v = 0; v < n; ++v) {
    if (incident[v].empty()) continue;
    std::sort(incident[v].begin(), incident[v].end());
    auto acc = space.zero();
    std::size_t consumed = 0;
    for (std::uint32_t i = 1; i < p; ++i) {
      // G_{i} contains ranks < i * group_size (groups are 0-based here:
      // guardian i checks E_i against groups 0..i-1).
      const std::uint64_t limit = static_cast<std::uint64_t>(i) * group_size;
      while (consumed < incident[v].size() &&
             incident[v][consumed].first < limit) {
        const Edge& e = incident[v][consumed].second;
        const std::uint64_t idx = edge_index(e.u, e.v, n);
        const int sign = incidence_sign(v, e);
        for (std::uint32_t j = 0; j < copies; ++j) acc[j].update(idx, sign);
        ++consumed;
      }
      if (consumed == 0) continue;  // neighbourhood in G_i still empty
      for (std::uint32_t j = 0; j < copies; ++j)
        append_sketch_packets(sketch_packets, v, static_cast<VertexId>(i),
                              kTagSketch, j, acc[j]);
    }
  }
  route_packets_into(engine, sketch_packets, sketch_inbox);

  // --- Step 5: guardians work locally.
  std::vector<VertexId> identity(n);
  for (VertexId v = 0; v < n; ++v) identity[v] = v;
  std::vector<Packet> mst_packets;
  for (std::uint32_t i = 0; i < p; ++i) {
    const auto guardian = static_cast<VertexId>(i);
    // Reassemble sketches (guardian 0's G_0 is empty: no sketches).
    SketchReassembler reassembler{space, kTagSketch};
    for (const auto& m : sketch_inbox.inbox(guardian)) reassembler.add(m);
    const std::vector<VertexId> vertices = reassembler.senders();
    const SketchArena sketches = reassembler.take(vertices);
    auto forest =
        sketch_spanning_forest(space, vertices, identity, sketches.view());
    if (forest.ran_out_of_sketches) result.monte_carlo_ok = false;
    // Kruskal filter over E_i in rank order against T_i connectivity.
    UnionFind uf{n};
    for (const Edge& e : forest.forest) uf.unite(e.u, e.v);
    std::vector<WeightedEdge> group;
    for (const auto& m : guardian_inbox.inbox(guardian))
      if (m.tag == kTagEdge)
        group.emplace_back(static_cast<VertexId>(m.word(0)),
                           static_cast<VertexId>(m.word(1)), m.word(2));
    std::sort(group.begin(), group.end(), weight_less);
    for (const auto& e : group)
      if (uf.unite(e.u, e.v))
        mst_packets.push_back(
            {guardian, coordinator, msg3(kTagMst, e.u, e.v, e.w)});
  }

  // --- Step 6: collect M_1 ∪ ... ∪ M_p at v* and spray-broadcast.
  // The guardians' edge groups are consumed; reuse their arena.
  RoundBuffer& mst_inbox = guardian_inbox;
  route_packets_into(engine, mst_packets, mst_inbox);
  std::vector<std::vector<std::uint64_t>> items;
  for (const auto& m : mst_inbox.inbox(coordinator)) {
    result.mst.emplace_back(static_cast<VertexId>(m.word(0)),
                            static_cast<VertexId>(m.word(1)), m.word(2));
    items.push_back({m.word(0), m.word(1), m.word(2)});
  }
  check(items.size() < n || items.empty(),
        "sq_mst: forest has more than n-1 edges");
  spray_broadcast(engine, coordinator, items);
  std::sort(result.mst.begin(), result.mst.end(), weight_less);
  return result;
}

}  // namespace ccq
