// Constant-round distributed sorting ("Lenzen sorting" interface).
//
// SQ-MST (Algorithm 4, Step 1) needs every node to learn the global rank of
// each of its keys in the sorted order of all keys. Lenzen's deterministic
// sorting [21] and Patt-Shamir/Teplitsky's randomized sorting [28] achieve
// this in O(1) rounds when every node holds O(n) keys. We implement the
// classical randomized splitter scheme:
//
//   1. every key is sampled with probability ~ c*n/total and the sample is
//      routed to the coordinator v* = node 0;
//   2. v* picks n-1 splitters from the sample and disseminates them with a
//      spray broadcast (one splitter per helper node, then rebroadcast);
//   3. every key is routed to the node owning its splitter bucket; bucket
//      loads are O(total/n) w.h.p., so routing is O(1 + total/n^2) rounds;
//   4. bucket owners sort locally, all bucket sizes are broadcast, global
//      ranks are prefix sums plus local indices, and ranks are routed back.
//
// All communication goes through route_packets_into / the broadcast
// primitives, so rounds and messages are fully accounted.
#pragma once

#include <cstdint>
#include <vector>

#include "clique/engine.hpp"
#include "util/random.hpp"

namespace ccq {

/// Keys are 64-bit and compared numerically; duplicate keys get distinct
/// ranks in a deterministic (key, owner, position) order. Returns, for each
/// node, the global 0-based rank of each of its input keys (aligned with
/// the input lists).
std::vector<std::vector<std::uint64_t>> distributed_sort_ranks(
    CliqueEngine& engine,
    const std::vector<std::vector<std::uint64_t>>& keys_per_node, Rng& rng);

}  // namespace ccq
