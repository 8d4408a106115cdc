// Linear l0-sampling sketches (Section 2.1 of the paper).
//
// A sketch compresses a vector a ∈ {-1,0,1}^N into O(polylog N) bits such
// that (i) sampling returns a nonzero coordinate of a (with its sign), and
// (ii) sketches add: sketch(a) + sketch(b) = sketch(a + b). Following the
// Cormode–Firmani framework the paper adopts, the construction hashes each
// coordinate i with a Θ(log n)-wise independent h into geometric "levels"
// (level ℓ keeps the ~N/2^ℓ coordinates whose h-value has ℓ trailing zero
// bits) and maintains, per level, a 1-sparse detector:
//
//     φ_ℓ = Σ c_i,   ι_ℓ = Σ c_i·i,   τ_ℓ = Σ c_i·z_ℓ^i  (mod p)
//
// over the surviving coordinates. A level is exactly 1-sparse iff
// φ = ±1, ι/φ ∈ [N], h(ι/φ) matches the level, and the fingerprint test
// τ == φ·z^(ι/φ) passes; the recovered coordinate is then ι/φ. The
// fingerprint bases z_ℓ come from the pairwise-independent g_r functions of
// the bundle. All hash functions are shared (same seed words at every
// node), which is what makes the family linear across nodes — the
// shared-randomness protocol of Theorem 1 (comm/shared_random) distributes
// those seeds in O(1) rounds.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "hash/kwise.hpp"

namespace ccq {

struct SketchParams {
  std::uint64_t universe{0};  // coordinates are in [0, universe)
  std::uint32_t levels{0};    // number of geometric levels
  /// 1-sparse detectors per level. 1 reproduces the lean Jowhari-style
  /// layout; >1 hashes the level's survivors into `buckets` cells with the
  /// pairwise g_r functions — the full Cormode–Firmani table layout, which
  /// raises the per-copy sampling success probability at a proportional
  /// size cost (ablation in bench_sketch).
  std::uint32_t buckets{1};

  /// Levels to cover a universe of size N with slack: ceil(log2 N) + 2.
  static SketchParams for_universe(std::uint64_t universe);

  /// The Cormode–Firmani layout: same levels, `buckets` detectors each.
  static SketchParams cormode_firmani(std::uint64_t universe,
                                      std::uint32_t buckets = 3);

  friend bool operator==(const SketchParams&, const SketchParams&) = default;
};

/// Independence parameter for h, Θ(log n) per Cormode–Firmani.
std::size_t sketch_hash_independence(std::uint64_t universe);

/// Seed words one sketch family consumes (h plus one pairwise g_r per
/// level). Used to size the Theorem 1 shared-randomness broadcast.
std::size_t sketch_seed_words(const SketchParams& params);

/// The shared hash functions defining one linear sketch family. Two sketches
/// are addable iff they were built from the same family (same seed words).
class SketchFamily {
 public:
  SketchFamily(const SketchParams& params,
               std::span<const std::uint64_t> seed_words);

  const SketchParams& params() const { return params_; }

  /// Level of coordinate i: number of trailing zero bits of h(i), capped at
  /// levels-1. Coordinate i is counted in detectors 0..level(i).
  std::uint32_t level_of(std::uint64_t i) const;
  /// level_of(i) from h(i) itself, for callers that evaluate h in bulk.
  std::uint32_t level_of_hash(std::uint64_t hv) const;
  /// h, the k-wise level hash.
  const KwiseHash& level_hash() const { return h_; }

  /// Fingerprint base for a level (nonzero field element).
  std::uint64_t z_of(std::uint32_t level) const;

  /// Fingerprint digest z_ℓ^i used by the detectors.
  std::uint64_t fingerprint(std::uint32_t level, std::uint64_t i) const;
  /// z_ℓ^(2^b) for b < bit_width(universe): fingerprint(level, i) is the
  /// product of the entries at the set bits of i + 1.
  const std::uint64_t* fingerprint_powers(std::uint32_t level) const;

  /// Bucket of coordinate i within a level (always 0 when buckets == 1).
  std::uint32_t bucket_of(std::uint32_t level, std::uint64_t i) const;

  /// Cheap identity for addability checks.
  std::uint64_t family_id() const { return family_id_; }

 private:
  SketchParams params_;
  KwiseHash h_;
  std::vector<std::uint64_t> z_;     // per-level fingerprint bases
  // z_ℓ^(2^b) for b < exponent_bits_, level-major: a fingerprint is then
  // one multiply per set bit of its exponent (i + 1 <= universe), the very
  // products field::pow would form, without its squarings.
  std::uint32_t exponent_bits_{0};
  std::vector<std::uint64_t> z_powers_;
  std::vector<KwiseHash> bucket_g_;  // per-level bucket hashes (if buckets>1)
  std::uint64_t family_id_;
};

/// One sample outcome: coordinate and its sign (+1/-1).
struct L0Sample {
  std::uint64_t index{0};
  int sign{0};
};

/// Read-only view of detector state in structure-of-arrays layout: the
/// three lanes hold one or more sketches back to back, each `cells` =
/// levels * buckets wide in cell order (level * buckets + bucket). This is
/// the form callers keep sketch state in when they own many sketches — the
/// service's resident per-vertex lanes, a coordinator's reassembled arena —
/// and the form the sampler reads.
struct SketchLanes {
  std::span<const std::int64_t> phi;   // Σ c_i per cell
  std::span<const std::int64_t> iota;  // Σ c_i · i per cell
  std::span<const std::uint64_t> tau;  // Σ c_i · z^i (mod p) per cell

  /// Sketch s of a run of `cells`-wide sketches.
  SketchLanes sketch(std::size_t s, std::size_t cells) const {
    return {phi.subspan(s * cells, cells), iota.subspan(s * cells, cells),
            tau.subspan(s * cells, cells)};
  }
};

/// The l0 sampler over one sketch's lanes (each family.params() cells
/// long). Scans levels from sparsest to densest; returns nullopt if no
/// level is exactly 1-sparse (sampler failure — the caller retries with an
/// independent sketch, exactly as the paper's algorithms do with their
/// Θ(log n) sketch copies).
std::optional<L0Sample> sample_lanes(const SketchFamily& family,
                                     SketchLanes sketch);

/// True iff every detector of the sketch is identically zero. For a sketch
/// of a cut vector this is the (one-sided) "no outgoing edge" signal.
bool lanes_appear_zero(SketchLanes sketch);

/// Zigzag coding of the signed φ and ι lanes on the wire (small magnitudes
/// of either sign become small words).
inline std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
inline std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// A linear l0 sketch of a vector in {-1,0,1}^N.
class L0Sketch {
 public:
  explicit L0Sketch(const SketchFamily& family);

  /// Add c (+1 or -1) at coordinate i.
  void update(std::uint64_t i, int c);

  /// Coordinate-wise addition; both operands must come from the same family.
  L0Sketch& operator+=(const L0Sketch& other);

  /// Negate (so subtraction is addition of a negated sketch).
  L0Sketch negated() const;

  /// sample_lanes / lanes_appear_zero over this sketch's lanes.
  std::optional<L0Sample> sample() const;
  bool appears_zero() const;

  /// This sketch's detector lanes.
  SketchLanes lanes() const { return {phi_, iota_, tau_}; }

  /// Serialize to 3 words per cell (φ zigzag-coded, ι zigzag-coded, τ);
  /// the wire format the algorithms ship through O(log n)-bit messages
  /// (sketch/wire packetizes lane blocks into the same words).
  std::vector<std::uint64_t> to_words() const;
  static L0Sketch from_words(const SketchFamily& family,
                             std::span<const std::uint64_t> words);

  /// Words occupied by one serialized sketch.
  static std::size_t word_size(const SketchParams& params);

  std::uint64_t family_id() const { return family_->family_id(); }

 private:
  // Detector state in structure-of-arrays layout, indexed
  // level * buckets + bucket: three contiguous same-typed lanes so the two
  // hot operations — operator+= when a coordinator sums per-component
  // sketches, and sample_lanes' 1-sparse candidate scan — run through the
  // vectorized kernels in sketch/sketch_kernels (bit-identical scalar and
  // AVX2 paths). The wire format (to_words/from_words) is unchanged:
  // serialization still interleaves (φ, ι, τ) per cell.
  const SketchFamily* family_;
  std::vector<std::int64_t> phi_;    // Σ c_i per cell
  std::vector<std::int64_t> iota_;   // Σ c_i · i per cell
  std::vector<std::uint64_t> tau_;   // Σ c_i · z^i (mod p) per cell
};

}  // namespace ccq
