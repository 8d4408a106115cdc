// Arena-backed per-round message delivery.
//
// One flat arena bucket-sorted by destination holds a round's inboxes:
//
//   counting pass   add_count(dst) per message (or per shard subtotal),
//   commit_counts() prefix-sums the counts into bucket offsets,
//   placement pass  writers fill each bucket left-to-right from cursors
//                   derived from offset(b), into data() or byte_data(),
//
// so a *stable* placement pass (messages visited in (sender, submission)
// order) yields inboxes in that order. The buffer is reused across rounds:
// reset() rewinds it without releasing capacity, making steady-state rounds
// allocation-free.
//
// Two storage modes (chosen per reset):
//
//   unpacked  a flat Message arena, filled through data() — the layout
//             comm/routing's route_packets_into fills directly;
//   packed    a flat byte arena of packed records (clique/packed_message),
//             filled by the engine through byte cursors. ~3-6x fewer bytes
//             move per round; records are decoded back into Message form
//             lazily, on the first inbox()/data() access — a round whose
//             inboxes are never read (acks, fixed-schedule phases) never
//             pays the decode. Decode-on-access mutates internal state and
//             is DRIVER-THREAD-ONLY, like every other phase transition of
//             this class.
//
// The arena also generalizes to `rounds` fused sub-rounds (superstep
// fusion): buckets are keyed (destination, sub-round) with sub-rounds
// adjacent per destination, so inbox(v) is still one contiguous span — all
// of v's fused traffic, sub-round-major — and inbox_round(v, r) carves out
// one sub-round. The single-round engine path is the rounds == 1 case.
//
// inbox(v) exposes bucket v as std::span<const Message>, valid until the
// next reset(). Callers that need a round's inboxes past that point own a
// RoundBuffer of their own (route_packets_into) or copy the spans.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "clique/message.hpp"
#include "clique/packed_message.hpp"
#include "graph/graph.hpp"
#include "util/error.hpp"
#include "util/uninitialized_array.hpp"

namespace ccq {

class RoundBuffer {
 public:
  RoundBuffer() = default;
  explicit RoundBuffer(std::uint32_t n) { reset(n); }

  /// Rewind to `n` empty inboxes in the counting phase. Keeps capacity.
  /// `rounds` fused sub-rounds (1 = a normal round); `packed` selects the
  /// byte-arena storage mode.
  void reset(std::uint32_t n, std::uint32_t rounds = 1, bool packed = false);

  /// Counting phase: announce `k` future messages for `dst` (sub-round 0 —
  /// the single-round entry point used by comm/routing).
  void add_count(VertexId dst, std::size_t k = 1);

  /// Counting phase, engine form: announce `msgs` messages totalling
  /// `bytes` packed bytes for bucket `b` = dst * rounds + sub-round.
  /// (`bytes` is ignored in unpacked mode.)
  void add_bucket(std::size_t b, std::size_t msgs, std::size_t bytes);

  /// Freeze counts into bucket offsets and open the placement phase. Every
  /// announced slot must then be filled through cursors derived from
  /// offset() (slots start unwritten).
  void commit_counts();

  std::uint32_t n() const { return n_; }
  std::uint32_t rounds() const { return rounds_; }
  bool packed() const { return packed_; }
  std::size_t total_messages() const { return offsets_.back(); }
  std::size_t total_bytes() const {
    return packed_ ? byte_offsets_.back() : 0;
  }

  /// Receiver v's inbox: all fused sub-rounds, sub-round-major. Valid until
  /// the next reset(). First access on a packed arena decodes it
  /// (driver-thread-only).
  std::span<const Message> inbox(VertexId v) const {
    CLIQUE_DCHECK(v < n_, "RoundBuffer::inbox: receiver out of range");
    if (packed_ && !decoded_) decode_all();
    const std::size_t lo = offsets_[static_cast<std::size_t>(v) * rounds_];
    const std::size_t hi =
        offsets_[static_cast<std::size_t>(v + 1) * rounds_];
    return {slots_.data() + lo, hi - lo};
  }

  /// Receiver v's messages from fused sub-round r only.
  std::span<const Message> inbox_round(VertexId v, std::uint32_t r) const {
    CLIQUE_DCHECK(v < n_ && r < rounds_,
                  "RoundBuffer::inbox_round: receiver or round out of range");
    if (packed_ && !decoded_) decode_all();
    const std::size_t b = static_cast<std::size_t>(v) * rounds_ + r;
    return {slots_.data() + offsets_[b], offsets_[b + 1] - offsets_[b]};
  }

  /// Message count of v's inbox without forcing a packed decode (the
  /// engine's load-profile merge wants counts, not payloads).
  std::size_t inbox_size(VertexId v) const {
    return offsets_[static_cast<std::size_t>(v + 1) * rounds_] -
           offsets_[static_cast<std::size_t>(v) * rounds_];
  }

  /// Start of bucket `b` in the flat arena, in slots (placement phase); the
  /// engine's parallel merge and route_packets_into derive per-shard write
  /// cursors from this.
  std::size_t offset(std::size_t b) const { return offsets_[b]; }
  /// Start of bucket `b` in the packed byte arena.
  std::size_t byte_offset(std::size_t b) const { return byte_offsets_[b]; }

  /// Unpacked placement target (decodes first if the arena is packed, so
  /// load-profile link audits can walk delivered messages either way).
  Message* data() {
    if (packed_ && !decoded_) decode_all();
    return slots_.data();
  }
  /// Packed placement target: byte arena with packed::kBufferSlack writable
  /// slack past total_bytes(). Engine-only; records must be written with
  /// packed::copy_record (no slop past each record's true length).
  std::uint8_t* byte_data() { return bytes_.data(); }

 private:
  void decode_all() const;
  void reserve_slots() const;

  std::uint32_t n_{0};
  std::uint32_t rounds_{1};
  bool packed_{false};
  bool committed_{false};
  std::uint32_t src_width_{1};
  // Decode happens behind const accessors (inbox on a const arena ref);
  // driver-thread-only, like reset/commit.
  mutable bool decoded_{false};
  // Bucket-sorted messages (unpacked always; packed after decode), grown
  // never shrunk. Placement and decode write every slot before it can be
  // read, so growth never zero-fills: the first pass over a fresh arena
  // is its placement.
  mutable UninitializedArray<Message> slots_;
  std::vector<std::size_t> offsets_;    // counting: offsets_[b+1] = count(b);
                                        // committed: prefix sums, n*rounds+1
  std::vector<std::uint8_t> bytes_;     // packed record arena (grow-only)
  std::vector<std::size_t> byte_offsets_;  // packed byte prefix sums
};

}  // namespace ccq
