// Wire format for shipping sketches through O(log n)-bit messages.
//
// A serialized sketch is 3*levels words (Θ(log n) words, i.e. the
// O(log^4 n) bits of Theorem 1); a Congested Clique message carries at most
// kMaxWords of them, so one sketch becomes ceil(words/kMaxWords) messages.
// The copy index and chunk index ride in the message tag; the receiver
// reassembles per (sender, copy) into flat buffers and decodes into one SoA
// lane arena.
#pragma once

#include <cstdint>
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
/// Senders get dense slots in arrival order; slot s's copy j buffers its
/// words at [(s * copies + j) * sketch_words, +sketch_words).
class SketchReassembler {
 public:
  explicit SketchReassembler(const SketchSpace& space,
                             std::uint32_t tag_base);

  /// Feed one delivered message (ignores messages with a foreign tag_base).
  /// Throws if the chunk lies outside the sketch.
  void add(const Message& m);

  /// Senders with at least one buffered chunk, ascending.
  std::vector<VertexId> senders() const;

  /// Decode every copy of every listed sender, in list order, straight
  /// into one arena (SketchArena layout, ready for sketch_spanning_forest)
  /// and reset. Throws if a listed sender's copy is missing or incomplete,
  /// if a sender outside the list delivered sketches, or if a message
  /// carried a copy index >= space.copies().
  SketchArena take(std::span<const VertexId> senders);

 private:
  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

  const SketchSpace* space_;
  std::uint32_t tag_base_;
  std::vector<std::uint32_t> slot_of_;    // by sender id, or kNoSlot
  std::vector<VertexId> sender_of_;       // by slot
  std::vector<std::uint64_t> words_;      // slots x copies x sketch_words
  std::vector<std::size_t> received_;     // words received per slot x copy
  std::size_t stray_copies_ = 0;          // messages with copy >= copies
};

}  // namespace ccq
