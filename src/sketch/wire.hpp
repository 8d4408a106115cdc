// Wire format for shipping sketches through O(log n)-bit messages.
//
// A serialized sketch is 3*cells words (Θ(log n) words, i.e. the
// O(log^4 n) bits of Theorem 1): per cell, φ and ι zigzag-coded, then τ —
// the words L0Sketch::to_words produces. A Congested Clique message
// carries at most kMaxWords of them, so one sketch becomes
// ceil(words/kMaxWords) messages. The copy index and chunk index ride in
// the message tag.
//
// Senders keep sketch state as flat SoA lane blocks (a vertex's t copies
// back to back: the SketchArena and resident-lane layout), and the
// packetizer writes a block's words straight into caller-sized packet
// slots. Receivers decode delivered messages straight into a caller-owned
// SketchArena; nothing is staged in between.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "comm/routing.hpp"
#include "sketch/graph_sketch.hpp"

namespace ccq {

/// Number of messages one serialized sketch occupies.
std::size_t sketch_message_count(const SketchSpace& space);

/// Packets one vertex's t sketch copies occupy: t * sketch_message_count.
std::size_t sketch_packet_count(const SketchSpace& space);

/// Encode one vertex's t sketch copies as routed packets, written straight
/// into `out` (exactly sketch_packet_count(space) slots, which may be
/// unwritten storage). `block` holds the copies back to back, copy j at
/// sketch j (SketchLanes::sketch). Copy j's chunk c carries words
/// [c * kMaxWords, +kMaxWords) of the copy's serialized form under tag
/// tag_base | j << 8 | c (copy < 2^8 and chunk < 2^8 are enforced).
void write_sketch_packets(std::span<Packet> out, VertexId src, VertexId dst,
                          std::uint32_t tag_base, const SketchSpace& space,
                          SketchLanes block);

/// Decodes delivered sketch messages, keyed by (sender, copy), straight
/// into a caller-owned arena. One reassembler (and one arena) serves any
/// number of inboxes in turn; its scratch is reused.
class SketchReassembler {
 public:
  explicit SketchReassembler(const SketchSpace& space,
                             std::uint32_t tag_base);

  /// Decode every copy of every listed sender from `inbox` into `arena`,
  /// in list order (SketchArena layout, ready for sketch_spanning_forest).
  /// The arena's lanes are resized to exactly the listed senders' copies
  /// (capacity is kept). Messages with a foreign tag_base are ignored.
  /// Throws if a chunk lies outside the sketch, if a message carried a
  /// copy index >= space.copies(), if a listed sender's copy is missing or
  /// incomplete, or if a sender outside the list delivered sketches.
  void decode(std::span<const Message> inbox,
              std::span<const VertexId> senders, SketchArena& arena);

 private:
  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

  const SketchSpace* space_;
  std::uint32_t tag_base_;
  std::vector<std::uint32_t> slot_of_;  // by sender id: list position
  std::vector<std::size_t> received_;   // words received per slot x copy
};

}  // namespace ccq
