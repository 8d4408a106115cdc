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
// Two colorings, selected by the packet set alone, both exact. A *run* is
// a maximal stretch of consecutive relayed packets with the same
// (src, dst).
//  - Uniform bundles: every run has one length k >= 2 and the run graph
//    (one edge per run) has max degree delta_S <= n. The run graph is
//    colored with exactly delta_S colors (König, alternating paths) and
//    the j-th packet of a run takes color j*delta_S + c(run): K = k*delta_S
//    is the packet multigraph's max degree, the minimum for any proper
//    coloring. Sketch routes (every copy and chunk of one sketch collection
//    to one receiver) have this shape.
//  - Every other packet set: first-fit waves of per-vertex degree <= n,
//    each wave colored by the same alternating-path coloring with exactly
//    its max degree Delta_w colors, in its own color block. When every
//    node sends and receives at most n packets there is one wave, so the
//    route takes exactly ceil(Delta / (n * messages_per_link)) batches.
// Delivery order never depends on the colors; only the relays do.
//
// The header pass (endpoint checks, counts, loads, runs) and the delivery
// copy run on the engine's worker pool (CliqueEngine::run_local) over
// fixed chunks of kRouteChunkPackets packets, merged in chunk order. Like
// the engine's sharded rounds this is invisible to the model: inboxes,
// Metrics, RouteStats, observer and load profile are identical for every
// EngineConfig::threads.
//
// The coloring itself is computed centrally by the simulator. This is the
// substitution documented in DESIGN.md: Lenzen's result guarantees an
// equivalent schedule is computable distributively in O(1) rounds, so we
// charge a constant schedule-agreement overhead (kScheduleRounds) and keep
// the data movement itself fully accounted: every packet is charged as two
// messages (sender->relay, relay->receiver) and reported to the engine's
// observer hop by hop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "clique/engine.hpp"
#include "clique/round_buffer.hpp"
#include "util/uninitialized_array.hpp"

namespace ccq {

struct Packet {
  VertexId src{0};
  VertexId dst{0};
  Message msg;
};

/// Exact-size packet storage whose slots start unwritten: the packetizer
/// that fills a slice is its first touch.
using PacketArray = UninitializedArray<Packet>;

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
                        std::span<const Packet> packets, RoundBuffer& out,
                        RouteStats* stats = nullptr);

/// Packets per chunk of route_packets_into's parallel passes; a route of
/// at most this many packets runs on one lane. Exposed for testing.
inline constexpr std::size_t kRouteChunkPackets = std::size_t{1} << 15;

/// The coloring route_packets_into applies to a relayed (src, dst)
/// sequence on an n-node clique that is not uniform bundles: first-fit
/// waves of per-vertex degree <= n, wave w colored with exactly its max
/// degree Delta_w colors, in consecutive color blocks (wave 0 first).
/// Within a color no two edges share a src or share a dst. Exposed for
/// testing.
std::vector<std::uint32_t> wave_edge_coloring(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
    std::uint32_t n);

/// The uniform-bundle coloring route_packets_into applies to its relayed
/// (src, dst) sequence on an n-node clique (see the header comment).
/// Returns one color per edge, exactly k * delta_S colors in all, when the
/// sequence is uniform bundles with delta_S <= n; otherwise returns an
/// empty vector and the caller falls back to the wave coloring. Within a
/// color no two edges share a src or share a dst. Exposed for testing.
std::vector<std::uint32_t> uniform_bundle_coloring(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
    std::uint32_t n);

}  // namespace ccq
