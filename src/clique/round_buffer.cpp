#include "clique/round_buffer.hpp"

#include <numeric>

namespace ccq {

void RoundBuffer::reset(std::uint32_t n, std::uint32_t rounds, bool packed) {
  check(rounds >= 1, "RoundBuffer::reset: need at least one sub-round");
  n_ = n;
  rounds_ = rounds;
  packed_ = packed;
  committed_ = false;
  decoded_ = false;
  src_width_ = n > 0 ? packed::src_width(n) : 1;
  const std::size_t buckets = static_cast<std::size_t>(n) * rounds;
  offsets_.assign(buckets + 1, 0);
  if (packed_)
    byte_offsets_.assign(buckets + 1, 0);
  else
    byte_offsets_.clear();
}

void RoundBuffer::add_count(VertexId dst, std::size_t k) {
  CLIQUE_DCHECK(!committed_,
                "RoundBuffer::add_count: counts already committed");
  CLIQUE_DCHECK(dst < n_, "RoundBuffer::add_count: destination out of range");
  offsets_[static_cast<std::size_t>(dst) * rounds_ + 1] += k;
}

void RoundBuffer::add_bucket(std::size_t b, std::size_t msgs,
                             std::size_t bytes) {
  CLIQUE_DCHECK(!committed_ && b + 1 < offsets_.size(),
                "RoundBuffer::add_bucket: committed or bucket out of range");
  offsets_[b + 1] += msgs;
  if (packed_) byte_offsets_[b + 1] += bytes;
}

void RoundBuffer::commit_counts() {
  check(!committed_, "RoundBuffer::commit_counts: already committed");
  committed_ = true;
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  if (packed_) {
    std::partial_sum(byte_offsets_.begin(), byte_offsets_.end(),
                     byte_offsets_.begin());
    // Grow-only (stale bytes beyond this round's records are never read):
    // shrinking would buy nothing and growing zero-fills, so steady-state
    // rounds skip the full-arena memset a resize-per-round would pay.
    const std::size_t need = byte_offsets_.back() + packed::kBufferSlack;
    if (bytes_.size() < need) bytes_.resize(need);
  } else {
    reserve_slots();
  }
}

void RoundBuffer::reserve_slots() const {
  if (slots_.size() < offsets_.back())
    slots_ = UninitializedArray<Message>(offsets_.back());
}

void RoundBuffer::decode_all() const {
  // Driver-thread-only (documented in the header): inbox spans handed out
  // before this ran do not exist — the first access runs it.
  reserve_slots();
  const std::size_t buckets = static_cast<std::size_t>(n_) * rounds_;
  for (std::size_t b = 0; b < buckets; ++b) {
    const auto v = static_cast<VertexId>(b / rounds_);
    const std::uint8_t* p = bytes_.data() + byte_offsets_[b];
    const std::uint8_t* const end = bytes_.data() + byte_offsets_[b + 1];
    std::size_t slot = offsets_[b];
    while (p < end)
      p += packed::decode(p, src_width_, v, slots_.data()[slot++]);
    CLIQUE_DCHECK(p == end && slot == offsets_[b + 1],
                  "RoundBuffer::decode_all: bucket bytes and slots must "
                  "tile exactly");
  }
  decoded_ = true;
}

}  // namespace ccq
