#include "core/sq_mst.hpp"

#include <algorithm>

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

/// Step 5 scratch of one engine lane, reused by every guardian it runs.
struct GuardianLane {
  SketchReassembler reassembler;
  SketchArena sketches;
};

/// Step 5's output at one guardian: its MST edges M_i in rank order.
struct GuardianResult {
  std::vector<WeightedEdge> accepted;
  bool ran_out_of_sketches{false};
  std::uint32_t boruvka_rounds{0};
};

}  // namespace

SqMstResult sq_mst(CliqueEngine& engine, std::uint32_t n,
                   const std::vector<WeightedEdge>& edges, Rng& rng,
                   std::uint32_t copies_override) {
  SqMstResult result;
  engine.require_id_knowledge("sq_mst");
  if (edges.empty()) return result;
  const VertexId coordinator = 0;
  const std::size_t m = edges.size();

  // --- Step 1: distributed sort. Each edge is owned (held as a sort key)
  // by its smaller endpoint.
  std::vector<std::vector<std::uint64_t>> keys(n);
  for (const auto& e : edges) keys[e.u].push_back(edge_key(e));
  const auto ranks = distributed_sort_ranks(engine, keys, rng);
  // Owners now know the rank of each owned edge. Their key lists are in
  // edge order, so one cursor per owner reads every edge's rank; the ranks
  // are a permutation of [0, m).
  std::vector<std::uint64_t> rank(m);
  std::vector<std::size_t> edge_of_rank(m);
  {
    std::vector<std::size_t> cursor(n, 0);
    for (std::size_t e = 0; e < m; ++e) {
      const VertexId owner = edges[e].u;
      rank[e] = ranks[owner][cursor[owner]++];
      check(rank[e] < m, "sq_mst: rank outside the edge count");
      edge_of_rank[rank[e]] = e;
    }
  }

  // --- Step 2: partition by rank into p groups of n.
  const std::uint64_t group_size = n;
  const auto p = static_cast<std::uint32_t>((m + group_size - 1) / group_size);
  result.partitions = p;
  check(p <= n, "sq_mst: more partitions than guardian nodes");

  // --- Step 3: gather E_i at guardian g(i) = node i.
  std::vector<Packet> edge_packets;
  edge_packets.reserve(m);
  for (std::size_t e = 0; e < m; ++e) {
    const auto guardian = static_cast<VertexId>(rank[e] / group_size);
    const WeightedEdge& we = edges[e];
    edge_packets.push_back(
        {we.u, guardian, msg3(kTagEdge, we.u, we.v, we.w)});
  }
  // Two caller-owned arenas: guardian_inbox is still read in Step 5, after
  // the sketches have been routed into sketch_inbox.
  RoundBuffer guardian_inbox;
  RoundBuffer sketch_inbox;
  route_packets_into(engine, edge_packets, guardian_inbox,
                     &result.edge_route);

  // --- Step 4: sketches of every prefix graph G_i, shipped to guardians.
  const std::uint32_t copies = copies_override > 0
                                   ? copies_override
                                   : default_sketch_copies(n);
  const auto seed = shared_random_words(
      engine, SketchSpace::seed_words_needed(n, copies), rng);
  const SketchSpace space{n, copies, seed};
  // Every vertex's incident edges in rank order (CSR, filled by ascending
  // rank).
  std::vector<std::size_t> first(n + 1, 0);
  for (const auto& e : edges) {
    ++first[e.u + 1];
    ++first[e.v + 1];
  }
  for (VertexId v = 0; v < n; ++v) first[v + 1] += first[v];
  std::vector<std::size_t> incident(2 * m);
  {
    std::vector<std::size_t> next(first.begin(), first.end() - 1);
    for (const std::size_t e : edge_of_rank) {
      incident[next[edges[e].u]++] = e;
      incident[next[edges[e].v]++] = e;
    }
  }
  // A vertex snapshots its sketch collection at every group boundary i
  // past the group of its lightest edge (G_i holds ranks < i * n; groups
  // are 0-based, and guardian i checks E_i against groups 0..i-1).
  // Linearity makes the snapshots prefix sums. Empty neighbourhoods ship
  // nothing: a missing sketch at a guardian is exactly a zero sketch. So
  // every vertex's packet slice is known before any sketch is built.
  const std::size_t per_snapshot = sketch_packet_count(space);
  std::vector<VertexId> active;               // non-empty neighbourhoods
  std::vector<std::uint32_t> lightest_group;  // per active vertex
  std::vector<std::size_t> slice{0};          // packet slice bounds
  for (VertexId v = 0; v < n; ++v) {
    if (first[v] == first[v + 1]) continue;
    const auto g =
        static_cast<std::uint32_t>(rank[incident[first[v]]] / group_size);
    active.push_back(v);
    lightest_group.push_back(g);
    slice.push_back(slice.back() + (p - 1 - g) * per_snapshot);
  }
  {
    // One signature per edge: its hash and fingerprints in all t copies,
    // computed once and applied with +1 to u's block and -1 to v's.
    std::vector<std::vector<SignatureEntry>> signature_store(
        engine.local_lanes(m));
    struct SignatureRef {
      unsigned lane;
      std::size_t begin;
      std::size_t end;
    };
    std::vector<SignatureRef> signature_ref(m);
    engine.run_local(m, [&](unsigned lane, std::size_t e) {
      std::vector<SignatureEntry>& store = signature_store[lane];
      const std::size_t begin = store.size();
      space.append_signature(edge_index(edges[e].u, edges[e].v, n), store);
      signature_ref[e] = {lane, begin, store.size()};
    });
    const auto signature = [&](std::size_t e) {
      const SignatureRef& ref = signature_ref[e];
      return std::span<const SignatureEntry>{signature_store[ref.lane]}
          .subspan(ref.begin, ref.end - ref.begin);
    };
    // Each vertex accumulates its edges in rank order into one lane block
    // and packetizes every snapshot straight into its own slice.
    PacketArray sketch_packets{slice.back()};
    const std::size_t block = copies * space.cells();
    std::vector<SketchArena> accumulators(engine.local_lanes(active.size()));
    engine.run_local(active.size(), [&](unsigned lane, std::size_t a) {
      const VertexId v = active[a];
      SketchArena& acc = accumulators[lane];
      acc.phi.assign(block, 0);
      acc.iota.assign(block, 0);
      acc.tau.assign(block, 0);
      std::span<Packet> out =
          sketch_packets.span().subspan(slice[a], slice[a + 1] - slice[a]);
      std::size_t next = first[v];
      for (std::uint32_t i = lightest_group[a] + 1; i < p; ++i) {
        const std::uint64_t limit = static_cast<std::uint64_t>(i) * group_size;
        for (; next < first[v + 1] && rank[incident[next]] < limit; ++next) {
          const WeightedEdge& e = edges[incident[next]];
          apply_signature(signature(incident[next]),
                          edge_index(e.u, e.v, n), v == e.u ? 1 : -1,
                          acc.phi.data(), acc.iota.data(), acc.tau.data());
        }
        write_sketch_packets(out.first(per_snapshot), v,
                             static_cast<VertexId>(i), kTagSketch, space,
                             acc.view());
        out = out.subspan(per_snapshot);
      }
    });
    route_packets_into(engine, sketch_packets.span(), sketch_inbox,
                       &result.sketch_route);
  }

  // --- Step 5: guardians work locally, in parallel on the engine's lanes.
  // Guardian i holds the collections of exactly the vertices whose
  // lightest edge lies in a group below i (guardian 0's G_0 is empty).
  std::vector<VertexId> identity(n);
  for (VertexId v = 0; v < n; ++v) identity[v] = v;
  std::vector<GuardianLane> lanes;
  for (unsigned l = 0; l < engine.local_lanes(p); ++l)
    lanes.push_back({SketchReassembler{space, kTagSketch}, {}});
  std::vector<GuardianResult> guardians(p);
  engine.run_local(p, [&](unsigned lane, std::size_t i) {
    const auto guardian = static_cast<VertexId>(i);
    GuardianLane& scratch = lanes[lane];
    std::vector<VertexId> senders;
    for (std::size_t a = 0; a < active.size(); ++a)
      if (lightest_group[a] < i) senders.push_back(active[a]);
    scratch.reassembler.decode(sketch_inbox.inbox(guardian), senders,
                               scratch.sketches);
    const auto forest = sketch_spanning_forest(space, senders, identity,
                                               scratch.sketches.view());
    GuardianResult& out = guardians[i];
    out.ran_out_of_sketches = forest.ran_out_of_sketches;
    out.boruvka_rounds = forest.boruvka_rounds;
    // Kruskal filter over E_i in rank order against T_i connectivity.
    UnionFind uf{n};
    for (const Edge& e : forest.forest) uf.unite(e.u, e.v);
    std::vector<WeightedEdge> group;
    for (const auto& msg : guardian_inbox.inbox(guardian))
      if (msg.tag == kTagEdge)
        group.emplace_back(static_cast<VertexId>(msg.word(0)),
                           static_cast<VertexId>(msg.word(1)), msg.word(2));
    std::sort(group.begin(), group.end(), weight_less);
    for (const auto& e : group)
      if (uf.unite(e.u, e.v)) out.accepted.push_back(e);
  });
  std::vector<Packet> mst_packets;
  for (std::uint32_t i = 0; i < p; ++i) {
    if (guardians[i].ran_out_of_sketches) result.monte_carlo_ok = false;
    result.boruvka_rounds += guardians[i].boruvka_rounds;
    for (const auto& e : guardians[i].accepted)
      mst_packets.push_back({static_cast<VertexId>(i), coordinator,
                             msg3(kTagMst, e.u, e.v, e.w)});
  }

  // --- Step 6: collect M_1 ∪ ... ∪ M_p at v* and spray-broadcast.
  // The guardians' edge groups are consumed; reuse their arena.
  RoundBuffer& mst_inbox = guardian_inbox;
  route_packets_into(engine, mst_packets, mst_inbox, &result.mst_route);
  std::vector<std::vector<std::uint64_t>> items;
  for (const auto& msg : mst_inbox.inbox(coordinator)) {
    result.mst.emplace_back(static_cast<VertexId>(msg.word(0)),
                            static_cast<VertexId>(msg.word(1)), msg.word(2));
    items.push_back({msg.word(0), msg.word(1), msg.word(2)});
  }
  check(items.size() < n || items.empty(),
        "sq_mst: forest has more than n-1 edges");
  spray_broadcast(engine, coordinator, items);
  std::sort(result.mst.begin(), result.mst.end(), weight_less);
  return result;
}

}  // namespace ccq
