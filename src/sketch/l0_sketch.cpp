#include "sketch/l0_sketch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sketch/sketch_kernels.hpp"
#include "util/error.hpp"
#include "util/field.hpp"

namespace ccq {

SketchParams SketchParams::for_universe(std::uint64_t universe) {
  check(universe > 0, "SketchParams: empty universe");
  const auto bits = static_cast<std::uint32_t>(std::bit_width(universe));
  return SketchParams{universe, bits + 2, 1};
}

SketchParams SketchParams::cormode_firmani(std::uint64_t universe,
                                           std::uint32_t buckets) {
  check(buckets >= 1, "SketchParams: need at least one bucket");
  SketchParams params = for_universe(universe);
  params.buckets = buckets;
  return params;
}

std::size_t sketch_hash_independence(std::uint64_t universe) {
  // Θ(log n) independence; universe is poly(n), so bit_width(universe) is a
  // fine stand-in with a floor that keeps small test instances honest.
  return std::max<std::size_t>(8, std::bit_width(universe));
}

std::size_t sketch_seed_words(const SketchParams& params) {
  // h needs k words; one pairwise (2-word) g_r per level supplies the
  // fingerprint bases, and a second per level the bucket hashes (only
  // consumed in the Cormode–Firmani multi-bucket layout).
  return sketch_hash_independence(params.universe) + 2 * params.levels +
         (params.buckets > 1 ? 2 * params.levels : 0);
}

SketchFamily::SketchFamily(const SketchParams& params,
                           std::span<const std::uint64_t> seed_words)
    : params_(params),
      h_(seed_words.subspan(
          0, std::min(seed_words.size(),
                      sketch_hash_independence(params.universe)))) {
  if (seed_words.size() < sketch_seed_words(params))
    throw InvalidArgument("SketchFamily: seed too short");
  const std::size_t k = sketch_hash_independence(params.universe);
  z_.reserve(params.levels);
  std::uint64_t id = 0x6b7d1a2c9e4f3b01ULL;
  for (std::uint64_t w : seed_words) id = mix64(id ^ w);
  family_id_ = id;
  for (std::uint32_t level = 0; level < params.levels; ++level) {
    const KwiseHash g{seed_words.subspan(k + 2 * level, 2)};
    // A nonzero base; g's evaluation at a fixed point is uniform in the
    // field, so the adjustment is negligible bias.
    std::uint64_t base = field::canon(g(level + 1));
    if (base == 0) base = 1;
    z_.push_back(base);
  }
  exponent_bits_ = static_cast<std::uint32_t>(std::bit_width(params.universe));
  z_powers_.reserve(static_cast<std::size_t>(params.levels) * exponent_bits_);
  for (std::uint64_t power : z_)
    for (std::uint32_t b = 0; b < exponent_bits_; ++b) {
      z_powers_.push_back(power);
      power = field::mul(power, power);
    }
  if (params.buckets > 1) {
    bucket_g_.reserve(params.levels);
    for (std::uint32_t level = 0; level < params.levels; ++level)
      bucket_g_.emplace_back(
          seed_words.subspan(k + 2 * params.levels + 2 * level, 2));
  }
}

std::uint32_t SketchFamily::bucket_of(std::uint32_t level,
                                      std::uint64_t i) const {
  if (params_.buckets <= 1) return 0;
  check(level < params_.levels, "SketchFamily::bucket_of: bad level");
  return static_cast<std::uint32_t>(
      bucket_g_[level].eval_mod(i, params_.buckets));
}

std::uint32_t SketchFamily::level_of(std::uint64_t i) const {
  check(i < params_.universe, "SketchFamily::level_of: out of universe");
  return level_of_hash(h_(i));
}

std::uint32_t SketchFamily::level_of_hash(std::uint64_t hv) const {
  const auto tz = static_cast<std::uint32_t>(
      hv == 0 ? 64 : std::countr_zero(hv));
  return std::min(tz, params_.levels - 1);
}

std::uint64_t SketchFamily::z_of(std::uint32_t level) const {
  check(level < params_.levels, "SketchFamily::z_of: bad level");
  return z_[level];
}

std::uint64_t SketchFamily::fingerprint(std::uint32_t level,
                                        std::uint64_t i) const {
  std::uint64_t e = i + 1;
  if (std::bit_width(e) > exponent_bits_) return field::pow(z_of(level), e);
  const std::uint64_t* powers = fingerprint_powers(level);
  std::uint64_t acc = 1;
  for (; e != 0; e &= e - 1) acc = field::mul(acc, powers[std::countr_zero(e)]);
  return acc;
}

const std::uint64_t* SketchFamily::fingerprint_powers(
    std::uint32_t level) const {
  check(level < params_.levels, "SketchFamily::fingerprint_powers: bad level");
  return z_powers_.data() + static_cast<std::size_t>(level) * exponent_bits_;
}

L0Sketch::L0Sketch(const SketchFamily& family) : family_(&family) {
  const std::size_t cells = static_cast<std::size_t>(family.params().levels) *
                            family.params().buckets;
  phi_.assign(cells, 0);
  iota_.assign(cells, 0);
  tau_.assign(cells, 0);
}

void L0Sketch::update(std::uint64_t i, int c) {
  check(c == 1 || c == -1, "L0Sketch::update: sign must be +-1");
  const std::uint32_t top = family_->level_of(i);
  const std::uint32_t buckets = family_->params().buckets;
  for (std::uint32_t level = 0; level <= top; ++level) {
    const std::size_t cell = static_cast<std::size_t>(level) * buckets +
                             family_->bucket_of(level, i);
    phi_[cell] += c;
    iota_[cell] += c * static_cast<std::int64_t>(i);
    const std::uint64_t f = family_->fingerprint(level, i);
    tau_[cell] = c > 0 ? field::add(tau_[cell], f) : field::sub(tau_[cell], f);
  }
}

L0Sketch& L0Sketch::operator+=(const L0Sketch& other) {
  check(family_->family_id() == other.family_->family_id(),
        "L0Sketch::+=: sketches from different families are not addable");
  kernels::sketch_accumulate(phi_.data(), iota_.data(), tau_.data(),
                             other.phi_.data(), other.iota_.data(),
                             other.tau_.data(), phi_.size());
  return *this;
}

L0Sketch L0Sketch::negated() const {
  L0Sketch out{*family_};
  for (std::size_t cell = 0; cell < phi_.size(); ++cell) {
    out.phi_[cell] = -phi_[cell];
    out.iota_[cell] = -iota_[cell];
    out.tau_[cell] = field::neg(tau_[cell]);
  }
  return out;
}

std::optional<L0Sample> sample_lanes(const SketchFamily& family,
                                     SketchLanes sketch) {
  // Scan from the sparsest level down; within a level, scan its buckets.
  // The first exactly-1-sparse detector yields the sample. The vectorized
  // prefilter (|φ| == 1 per cell) skips empty high levels and dense low
  // levels without touching ι/τ; the expensive field verification runs only
  // on candidate cells, in the exact order the direct scan used.
  const SketchParams& params = family.params();
  const std::size_t cells = static_cast<std::size_t>(params.levels) *
                            params.buckets;
  check(sketch.phi.size() == cells && sketch.iota.size() == cells &&
            sketch.tau.size() == cells,
        "sample_lanes: lanes do not match the family's cell count");
  const std::size_t words = (cells + 63) / 64;
  std::uint64_t mask_stack[8];
  std::vector<std::uint64_t> mask_heap;
  std::uint64_t* mask = mask_stack;
  if (words > 8) {
    mask_heap.resize(words);
    mask = mask_heap.data();
  }
  kernels::one_sparse_mask(sketch.phi.data(), cells, mask);
  for (std::uint32_t level = params.levels; level-- > 0;) {
    for (std::uint32_t b = 0; b < params.buckets; ++b) {
      const std::size_t cell =
          static_cast<std::size_t>(level) * params.buckets + b;
      if (((mask[cell / 64] >> (cell % 64)) & 1) == 0) continue;
      const std::int64_t phi = sketch.phi[cell];
      const std::int64_t iota = sketch.iota[cell];
      const std::int64_t signed_index = iota / phi;
      if (signed_index < 0 || iota != phi * signed_index ||
          static_cast<std::uint64_t>(signed_index) >= params.universe)
        continue;
      const auto index = static_cast<std::uint64_t>(signed_index);
      // The surviving coordinate must genuinely belong to this detector.
      if (family.level_of(index) < level) continue;
      if (family.bucket_of(level, index) != b) continue;
      // Fingerprint test: τ must equal φ · z^index.
      const std::uint64_t expect_mag = family.fingerprint(level, index);
      const std::uint64_t expect =
          phi > 0 ? expect_mag : field::neg(expect_mag);
      if (sketch.tau[cell] != expect) continue;
      return L0Sample{index, phi > 0 ? 1 : -1};
    }
  }
  return std::nullopt;
}

bool lanes_appear_zero(SketchLanes sketch) {
  check(sketch.iota.size() == sketch.phi.size() &&
            sketch.tau.size() == sketch.phi.size(),
        "lanes_appear_zero: lane lengths differ");
  return !kernels::any_nonzero(sketch.phi.data(), sketch.iota.data(),
                               sketch.tau.data(), sketch.phi.size());
}

std::optional<L0Sample> L0Sketch::sample() const {
  return sample_lanes(*family_, lanes());
}

bool L0Sketch::appears_zero() const { return lanes_appear_zero(lanes()); }

std::vector<std::uint64_t> L0Sketch::to_words() const {
  std::vector<std::uint64_t> out;
  out.reserve(phi_.size() * 3);
  for (std::size_t cell = 0; cell < phi_.size(); ++cell) {
    out.push_back(zigzag_encode(phi_[cell]));
    out.push_back(zigzag_encode(iota_[cell]));
    out.push_back(tau_[cell]);
  }
  return out;
}

L0Sketch L0Sketch::from_words(const SketchFamily& family,
                              std::span<const std::uint64_t> words) {
  if (words.size() != word_size(family.params()))
    throw InvalidArgument("L0Sketch::from_words: wrong payload size");
  L0Sketch out{family};
  for (std::size_t c = 0; c < out.phi_.size(); ++c) {
    out.phi_[c] = zigzag_decode(words[3 * c]);
    out.iota_[c] = zigzag_decode(words[3 * c + 1]);
    out.tau_[c] = words[3 * c + 2];
  }
  return out;
}

std::size_t L0Sketch::word_size(const SketchParams& params) {
  return static_cast<std::size_t>(params.levels) * params.buckets * 3;
}

}  // namespace ccq
