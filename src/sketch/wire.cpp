#include "sketch/wire.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ccq {

namespace {
constexpr std::uint32_t kCopyShift = 8;
constexpr std::uint32_t kChunkMask = 0xff;
constexpr std::uint32_t kBaseMask = 0xffff0000;
}  // namespace

void append_sketch_packets(std::vector<Packet>& out, VertexId src,
                           VertexId dst, std::uint32_t tag_base,
                           std::uint32_t copy, const L0Sketch& sketch) {
  check((tag_base & ~kBaseMask) == 0,
        "append_sketch_packets: tag_base must use the high 16 bits");
  check(copy < 0x100, "append_sketch_packets: copy index too large");
  const auto words = sketch.to_words();
  const std::size_t chunks = (words.size() + kMaxWords - 1) / kMaxWords;
  check(chunks <= kChunkMask + 1, "append_sketch_packets: sketch too large");
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * kMaxWords;
    const std::size_t len = std::min(kMaxWords, words.size() - begin);
    const std::uint32_t tag = tag_base | (copy << kCopyShift) |
                              static_cast<std::uint32_t>(c);
    out.push_back({src, dst,
                   make_message(tag, {words.data() + begin, len})});
  }
}

std::size_t sketch_message_count(const SketchSpace& space) {
  return (space.sketch_words() + kMaxWords - 1) / kMaxWords;
}

SketchReassembler::SketchReassembler(const SketchSpace& space,
                                     std::uint32_t tag_base)
    : space_(&space), tag_base_(tag_base) {
  check((tag_base & ~kBaseMask) == 0,
        "SketchReassembler: tag_base must use the high 16 bits");
}

void SketchReassembler::add(const Message& m) {
  if ((m.tag & kBaseMask) != tag_base_) return;
  const std::uint32_t copy = (m.tag >> kCopyShift) & 0xff;
  const std::uint32_t chunk = m.tag & kChunkMask;
  const std::uint32_t t = space_->copies();
  const std::size_t words = space_->sketch_words();
  if (m.src >= slot_of_.size()) slot_of_.resize(m.src + 1, kNoSlot);
  std::uint32_t& slot = slot_of_[m.src];
  if (slot == kNoSlot) {
    slot = static_cast<std::uint32_t>(sender_of_.size());
    sender_of_.push_back(m.src);
    words_.resize(words_.size() + t * words, 0);
    received_.resize(received_.size() + t, 0);
  }
  const std::size_t begin = static_cast<std::size_t>(chunk) * kMaxWords;
  check(begin + m.count <= words,
        "SketchReassembler: chunk outside sketch bounds");
  if (copy >= t) {
    ++stray_copies_;  // reported by take()
    return;
  }
  const std::size_t cell = static_cast<std::size_t>(slot) * t + copy;
  std::copy_n(m.words.begin(), m.count, words_.begin() + cell * words + begin);
  received_[cell] += m.count;
}

std::vector<VertexId> SketchReassembler::senders() const {
  std::vector<VertexId> out = sender_of_;
  std::sort(out.begin(), out.end());
  return out;
}

SketchArena SketchReassembler::take(std::span<const VertexId> senders) {
  const std::uint32_t t = space_->copies();
  const std::size_t words = space_->sketch_words();
  const std::size_t cells = words / 3;
  check(stray_copies_ == 0, "SketchReassembler: copy index out of range");
  check(sender_of_.size() == senders.size(),
        "SketchReassembler: sketches from an unlisted sender");
  SketchArena arena;
  arena.phi.resize(senders.size() * t * cells);
  arena.iota.resize(senders.size() * t * cells);
  arena.tau.resize(senders.size() * t * cells);
  std::size_t at = 0;
  for (const VertexId sender : senders) {
    const std::uint32_t slot =
        sender < slot_of_.size() ? slot_of_[sender] : kNoSlot;
    check(slot != kNoSlot, "SketchReassembler: missing sketch copy");
    for (std::uint32_t j = 0; j < t; ++j, at += cells) {
      const std::size_t cell = static_cast<std::size_t>(slot) * t + j;
      check(received_[cell] != 0, "SketchReassembler: missing sketch copy");
      check(received_[cell] == words, "SketchReassembler: incomplete sketch");
      L0Sketch::decode_words(std::span{words_}.subspan(cell * words, words),
                             std::span{arena.phi}.subspan(at, cells),
                             std::span{arena.iota}.subspan(at, cells),
                             std::span{arena.tau}.subspan(at, cells));
    }
  }
  slot_of_.clear();
  sender_of_.clear();
  words_.clear();
  received_.clear();
  return arena;
}

}  // namespace ccq
