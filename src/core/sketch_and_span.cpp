#include "core/sketch_and_span.hpp"

#include <algorithm>

#include "clique/trace.hpp"
#include "comm/primitives.hpp"
#include "comm/routing.hpp"
#include "comm/shared_random.hpp"
#include "sketch/wire.hpp"
#include "util/error.hpp"

namespace ccq {

namespace {
constexpr std::uint32_t kTagSketch = 0x00010000;
constexpr std::uint32_t kTagWitness = 0x4201;
}  // namespace

SketchAndSpanResult sketch_and_span(CliqueEngine& engine,
                                    const ComponentGraph& g1, Rng& rng,
                                    std::uint32_t copies_override) {
  const std::uint32_t n = engine.n();
  const VertexId coordinator = 0;
  SketchAndSpanResult result;
  if (g1.active_leaders.empty()) return result;  // every tree is finished
  TraceScope scope{engine, "sketch-span"};

  // --- Step 0: shared randomness (Theorem 1), then identical sketch
  // families at every node.
  const std::uint32_t copies =
      copies_override > 0 ? copies_override : default_sketch_copies(n);
  result.sketch_copies = copies;
  std::vector<std::uint64_t> seed;
  {
    TraceScope step{engine, "shared-randomness"};
    seed = shared_random_words(
        engine, SketchSpace::seed_words_needed(n, copies), rng);
  }
  const SketchSpace space{n, copies, seed};

  // --- Step 1: every active leader sketches its component-graph
  // neighbourhood (edges between leader ids, as Section 2.2 prescribes)
  // into its lane block. One pass over the witness map, hashing each pair
  // once for both endpoints (not a per-leader scan, which would be
  // O(active x |E(G1)|)).
  const std::vector<VertexId>& vertices = g1.active_leaders;
  constexpr std::uint32_t kInactive = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> position(n, kInactive);
  for (std::size_t a = 0; a < vertices.size(); ++a)
    position[vertices[a]] = static_cast<std::uint32_t>(a);
  const std::size_t block = copies * space.cells();
  SketchArena sketches;
  sketches.phi.assign(vertices.size() * block, 0);
  sketches.iota.assign(sketches.phi.size(), 0);
  sketches.tau.assign(sketches.phi.size(), 0);
  std::vector<SignatureEntry> signature;
  for (const auto& [pair, witness] : g1.witness) {
    const Edge e{pair.first, pair.second};
    const std::uint64_t idx = edge_index(e.u, e.v, n);
    signature.clear();
    space.append_signature(idx, signature);
    for (const VertexId end : {e.u, e.v}) {
      if (position[end] == kInactive) continue;
      const std::size_t at = position[end] * block;
      apply_signature(signature, idx, incidence_sign(end, e),
                      sketches.phi.data() + at, sketches.iota.data() + at,
                      sketches.tau.data() + at);
    }
  }
  // --- Step 2: route all sketches to v*, each leader's block packetized
  // into its own slice.
  const std::size_t per_leader = sketch_packet_count(space);
  RoundBuffer route_buf;
  {
    PacketArray packets{vertices.size() * per_leader};
    for (std::size_t a = 0; a < vertices.size(); ++a)
      write_sketch_packets(packets.span().subspan(a * per_leader, per_leader),
                           vertices[a], coordinator, kTagSketch, space,
                           sketches.view().sketch(a, block));
    TraceScope step{engine, "route-sketches"};
    route_packets_into(engine, packets.span(), route_buf);
  }

  // --- Step 3: v* locally decodes its inbox and runs sketch Borůvka.
  SketchReassembler reassembler{space, kTagSketch};
  SketchArena received;
  reassembler.decode(route_buf.inbox(coordinator), vertices, received);
  // In G1, supervertices *are* the leader ids; edges sampled from the
  // sketches have leader endpoints already.
  std::vector<VertexId> identity(n);
  for (VertexId v = 0; v < n; ++v) identity[v] = v;
  auto forest =
      sketch_spanning_forest(space, vertices, identity, received.view());
  result.monte_carlo_ok = !forest.ran_out_of_sketches;
  result.boruvka_rounds = forest.boruvka_rounds;
  result.component_forest = std::move(forest.forest);

  // --- Step 4: v* spray-broadcasts T2 so every node (in particular every
  // leader) knows it.
  {
    TraceScope step{engine, "broadcast-forest"};
    std::vector<std::vector<std::uint64_t>> items;
    for (const Edge& e : result.component_forest)
      items.push_back({e.u, e.v});
    check(items.size() < n, "sketch_and_span: forest larger than n-1");
    spray_broadcast(engine, coordinator, items);
  }

  // --- Step 5: map T2 edges to real edges of G. The smaller-ID leader of
  // each T2 edge picks its witness and sends it to v* (distinct... a leader
  // may own several T2 edges, so this is one more routing call), and v*
  // spray-broadcasts the witness list.
  TraceScope witness_step{engine, "witness-resolution"};
  std::vector<Packet> witness_packets;
  for (const Edge& e : result.component_forest) {
    const auto it = g1.witness.find(component_pair(e.u, e.v));
    check(it != g1.witness.end(), "sketch_and_span: sampled non-edge of G1");
    const WeightedEdge& w = it->second;
    witness_packets.push_back(
        {std::min(e.u, e.v), coordinator, msg2(kTagWitness, w.u, w.v)});
  }
  route_packets_into(engine, witness_packets, route_buf);
  std::vector<std::vector<std::uint64_t>> witness_items;
  for (const auto& m : route_buf.inbox(coordinator)) {
    result.real_forest.emplace_back(static_cast<VertexId>(m.word(0)),
                                    static_cast<VertexId>(m.word(1)));
    witness_items.push_back({m.word(0), m.word(1)});
  }
  spray_broadcast(engine, coordinator, witness_items);
  return result;
}

}  // namespace ccq
