#include "sketch/wire.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ccq {

namespace {
constexpr std::uint32_t kCopyShift = 8;
constexpr std::uint32_t kChunkMask = 0xff;
constexpr std::uint32_t kBaseMask = 0xffff0000;

/// Word x of a sketch's serialized form (cell x / 3: φ, ι, then τ).
std::uint64_t serialized_word(const SketchLanes& sketch, std::size_t x) {
  const std::size_t cell = x / 3;
  switch (x % 3) {
    case 0: return zigzag_encode(sketch.phi[cell]);
    case 1: return zigzag_encode(sketch.iota[cell]);
    default: return sketch.tau[cell];
  }
}
}  // namespace

std::size_t sketch_message_count(const SketchSpace& space) {
  return (space.sketch_words() + kMaxWords - 1) / kMaxWords;
}

std::size_t sketch_packet_count(const SketchSpace& space) {
  return space.copies() * sketch_message_count(space);
}

void write_sketch_packets(std::span<Packet> out, VertexId src, VertexId dst,
                          std::uint32_t tag_base, const SketchSpace& space,
                          SketchLanes block) {
  check((tag_base & ~kBaseMask) == 0,
        "write_sketch_packets: tag_base must use the high 16 bits");
  const std::uint32_t t = space.copies();
  const std::size_t cells = space.cells();
  const std::size_t words = space.sketch_words();
  const std::size_t chunks = sketch_message_count(space);
  check(t <= 0x100, "write_sketch_packets: copy index too large");
  check(chunks <= kChunkMask + 1, "write_sketch_packets: sketch too large");
  check(out.size() == t * chunks,
        "write_sketch_packets: packet slots do not match the space");
  check(block.phi.size() == t * cells && block.iota.size() == t * cells &&
            block.tau.size() == t * cells,
        "write_sketch_packets: block does not hold t sketches");
  Packet* p = out.data();
  for (std::uint32_t j = 0; j < t; ++j) {
    const SketchLanes sketch = block.sketch(j, cells);
    for (std::size_t c = 0; c < chunks; ++c, ++p) {
      const std::size_t begin = c * kMaxWords;
      const std::size_t len = std::min(kMaxWords, words - begin);
      Message m;
      m.tag = tag_base | (j << kCopyShift) | static_cast<std::uint32_t>(c);
      m.count = static_cast<std::uint8_t>(len);
      for (std::size_t w = 0; w < len; ++w)
        m.words[w] = serialized_word(sketch, begin + w);
      *p = {src, dst, m};
    }
  }
}

SketchReassembler::SketchReassembler(const SketchSpace& space,
                                     std::uint32_t tag_base)
    : space_(&space), tag_base_(tag_base) {
  check((tag_base & ~kBaseMask) == 0,
        "SketchReassembler: tag_base must use the high 16 bits");
}

void SketchReassembler::decode(std::span<const Message> inbox,
                               std::span<const VertexId> senders,
                               SketchArena& arena) {
  const std::uint32_t t = space_->copies();
  const std::size_t words = space_->sketch_words();
  const std::size_t cells = space_->cells();
  slot_of_.assign(space_->n(), kNoSlot);
  for (std::size_t s = 0; s < senders.size(); ++s) {
    check(senders[s] < slot_of_.size() && slot_of_[senders[s]] == kNoSlot,
          "SketchReassembler: sender listed twice or out of range");
    slot_of_[senders[s]] = static_cast<std::uint32_t>(s);
  }
  received_.assign(senders.size() * t, 0);
  arena.phi.resize(senders.size() * t * cells);
  arena.iota.resize(arena.phi.size());
  arena.tau.resize(arena.phi.size());
  bool stray_copy = false;
  bool unlisted = false;
  for (const Message& m : inbox) {
    if ((m.tag & kBaseMask) != tag_base_) continue;
    const std::uint32_t copy = (m.tag >> kCopyShift) & 0xff;
    const std::size_t begin =
        static_cast<std::size_t>(m.tag & kChunkMask) * kMaxWords;
    check(begin + m.count <= words,
          "SketchReassembler: chunk outside sketch bounds");
    if (copy >= t) {
      stray_copy = true;
      continue;
    }
    const std::uint32_t slot =
        m.src < slot_of_.size() ? slot_of_[m.src] : kNoSlot;
    if (slot == kNoSlot) {
      unlisted = true;
      continue;
    }
    const std::size_t sketch = static_cast<std::size_t>(slot) * t + copy;
    std::int64_t* phi = arena.phi.data() + sketch * cells;
    std::int64_t* iota = arena.iota.data() + sketch * cells;
    std::uint64_t* tau = arena.tau.data() + sketch * cells;
    for (std::size_t w = 0; w < m.count; ++w) {
      const std::size_t x = begin + w;
      const std::uint64_t word = m.words[w];
      switch (x % 3) {
        case 0: phi[x / 3] = zigzag_decode(word); break;
        case 1: iota[x / 3] = zigzag_decode(word); break;
        default: tau[x / 3] = word;
      }
    }
    received_[sketch] += m.count;
  }
  check(!stray_copy, "SketchReassembler: copy index out of range");
  for (const std::size_t got : received_) {
    check(got != 0, "SketchReassembler: missing sketch copy");
    check(got == words, "SketchReassembler: incomplete sketch");
  }
  check(!unlisted, "SketchReassembler: sketches from an unlisted sender");
}

}  // namespace ccq
