// Information distribution ("Lenzen routing") on the Congested Clique.
//
// Lenzen's routing theorem [21]: if every node is the source of at most n
// messages and the target of at most n messages, all of them can be
// delivered in O(1) rounds. The paper invokes this interface in Phase 2 of
// the GC algorithm (sketches -> v*), in SQ-MST (edge groups -> guardians,
// sketch collections -> guardians), and implicitly in BUILDCOMPONENTGRAPH.
//
// Our implementation delivers every packet in two hops through relay
// nodes. The relay assignment is an edge coloring of the bipartite
// multigraph senders x receivers (one edge per packet): coloring with
// K >= max-degree colors and using color c as "relay c mod n in batch
// c / n" guarantees that within a batch each sender ships at most one
// packet to each relay and each relay ships at most one packet to each
// receiver — i.e. two bandwidth-legal rounds per batch of n colors. The
// number of rounds is therefore 2*ceil(K/n) + O(1) = O(1 + L/n) where L is
// the maximum number of packets any node sends or receives, matching
// Lenzen's bound (including the O(1) regime when L <= n).
//
// The coloring itself is computed centrally by the simulator. This is the
// substitution documented in DESIGN.md: Lenzen's result guarantees an
// equivalent schedule is computable distributively in O(1) rounds, so we
// charge a constant schedule-agreement overhead (kScheduleRounds) and keep
// the data movement itself fully accounted: every packet is charged as two
// messages (sender->relay, relay->receiver) and reported to the engine's
// observer hop by hop.
#pragma once

#include <cstdint>
#include <vector>

#include "clique/engine.hpp"
#include "clique/round_buffer.hpp"

namespace ccq {

struct Packet {
  VertexId src{0};
  VertexId dst{0};
  Message msg;
};

struct RouteStats {
  std::uint64_t rounds{0};
  std::uint64_t color_batches{0};
  std::uint64_t max_send_load{0};
  std::uint64_t max_recv_load{0};
};

/// Constant overhead charged per route() call for distributed schedule
/// agreement (see header comment).
inline constexpr std::uint64_t kScheduleRounds = 2;

/// Deliver all packets into the caller-owned arena `out` (reset to
/// engine.n() inboxes; spans stay valid until its next reset). This is the
/// single routing entry point: callers that need two routed inbox sets
/// alive at once keep two RoundBuffers. Message::src/dst are the original
/// endpoints. Packets with src == dst are delivered without communication
/// (local "sends" are free in the model). Per-inbox order: local deliveries
/// in packet order, then relayed ones in packet order.
void route_packets_into(CliqueEngine& engine,
                        const std::vector<Packet>& packets, RoundBuffer& out,
                        RouteStats* stats = nullptr);

/// Proper edge coloring of the bipartite multigraph {(src_i, dst_i)} via
/// iterated Euler partition. Returns one color per edge; the number of
/// colors is at most 2^ceil(log2(max_degree)) < 2 * max_degree, and within
/// a color no two edges share a src or share a dst. Exposed for testing.
std::vector<std::uint32_t> bipartite_edge_coloring(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
    std::uint32_t left_size, std::uint32_t right_size);

}  // namespace ccq
