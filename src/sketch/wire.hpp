// Wire format for shipping sketches through O(log n)-bit messages.
//
// A serialized sketch is 3*levels words (Θ(log n) words, i.e. the
// O(log^4 n) bits of Theorem 1); a Congested Clique message carries at most
// kMaxWords of them, so one sketch becomes ceil(words/kMaxWords) messages.
// The copy index and chunk index ride in the message tag; the receiver
// reassembles per (sender, copy) and decodes into one SoA lane arena.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "comm/routing.hpp"
#include "sketch/graph_sketch.hpp"

namespace ccq {

/// Encode one sketch (the `copy`-th of its sender) as routed packets.
/// tag layout: tag_base | copy << 8 | chunk (copy < 2^8 is enforced; chunk
/// count is bounded by the sketch size, far below 2^8).
void append_sketch_packets(std::vector<Packet>& out, VertexId src,
                           VertexId dst, std::uint32_t tag_base,
                           std::uint32_t copy, const L0Sketch& sketch);

/// Number of messages one serialized sketch occupies.
std::size_t sketch_message_count(const SketchSpace& space);

/// Reassembles sketches from delivered messages, keyed by (sender, copy).
class SketchReassembler {
 public:
  explicit SketchReassembler(const SketchSpace& space,
                             std::uint32_t tag_base);

  /// Feed one delivered message (ignores messages with a foreign tag_base).
  void add(const Message& m);

  /// Senders with at least one buffered chunk, ascending.
  std::vector<VertexId> senders() const;

  /// Decode every copy of every listed sender, in list order, straight
  /// into one arena (SketchArena layout, ready for sketch_spanning_forest)
  /// and reset. Throws if a listed sender's copy is missing or incomplete,
  /// or if a sender outside the list delivered sketches.
  SketchArena take(std::span<const VertexId> senders);

 private:
  const SketchSpace* space_;
  std::uint32_t tag_base_;
  std::map<std::pair<VertexId, std::uint32_t>, std::vector<std::uint64_t>>
      buffers_;
  std::map<std::pair<VertexId, std::uint32_t>, std::size_t> received_;
};

}  // namespace ccq
