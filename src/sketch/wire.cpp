#include "sketch/wire.hpp"

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
  const auto key = std::make_pair(m.src, copy);
  auto& buffer = buffers_[key];
  if (buffer.empty()) buffer.assign(space_->sketch_words(), 0);
  const std::size_t begin = static_cast<std::size_t>(chunk) * kMaxWords;
  check(begin + m.count <= buffer.size(),
        "SketchReassembler: chunk outside sketch bounds");
  for (std::size_t i = 0; i < m.count; ++i) buffer[begin + i] = m.words[i];
  received_[key] += m.count;
}

std::vector<VertexId> SketchReassembler::senders() const {
  std::vector<VertexId> out;
  for (const auto& [key, buffer] : buffers_)
    if (out.empty() || out.back() != key.first) out.push_back(key.first);
  return out;
}

SketchArena SketchReassembler::take(std::span<const VertexId> senders) {
  const std::uint32_t t = space_->copies();
  const std::size_t cells = space_->sketch_words() / 3;
  check(buffers_.size() == senders.size() * t,
        "SketchReassembler: sketches from an unlisted sender");
  SketchArena arena;
  arena.phi.resize(buffers_.size() * cells);
  arena.iota.resize(buffers_.size() * cells);
  arena.tau.resize(buffers_.size() * cells);
  std::size_t at = 0;
  for (const VertexId sender : senders) {
    for (std::uint32_t j = 0; j < t; ++j, at += cells) {
      const auto it = buffers_.find({sender, j});
      check(it != buffers_.end(), "SketchReassembler: missing sketch copy");
      check(received_.at(it->first) == space_->sketch_words(),
            "SketchReassembler: incomplete sketch");
      L0Sketch::decode_words(it->second,
                             std::span{arena.phi}.subspan(at, cells),
                             std::span{arena.iota}.subspan(at, cells),
                             std::span{arena.tau}.subspan(at, cells));
    }
  }
  buffers_.clear();
  received_.clear();
  return arena;
}

}  // namespace ccq
