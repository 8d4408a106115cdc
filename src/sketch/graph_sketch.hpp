// Graph sketches: linear sketches of vertex incidence vectors, and the
// local spanning-forest computation a coordinator performs on them.
//
// Per Section 2.1, each vertex v of an n-vertex graph is represented by the
// incidence vector a_v ∈ {-1,0,1}^(n^2) (coordinate edge_index({x,y}),
// sign +1 if v = x < y and -1 if x < y = v). For any vertex set S,
// Σ_{v∈S} a_v is supported exactly on the cut (S, V \ S) — intra-component
// edges cancel by linearity. Sampling from the summed sketch therefore
// yields an outgoing edge of the component, which drives Borůvka-style
// connectivity: that is SKETCHANDSPAN's Step 3 and the per-guardian local
// computation in SQ-MST.
//
// A SketchSpace bundles t = Θ(log n) independent families over the same
// universe; each Borůvka round consumes one fresh family index per
// component (reusing a sampled sketch would condition the randomness, so
// the algorithms — like the paper — budget Θ(log n) independent copies).
//
// sketch_spanning_forest reads every participant's t copies from one flat
// SoA lane run (SketchLanes) and never materializes a per-component sketch
// set: each round, a live component sums only the one copy it is about to
// sample, over its member list, into a reused scratch. Linearity makes that
// sum exactly the merged sketch an eager implementation would hold (int64
// and GF(2^61 - 1) addition are exact and associative), so the forest is
// the same edge for edge; the work per round is one copy per participant
// instead of t copies per merge, and the service's resident lanes are read
// in place.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "sketch/l0_sketch.hpp"
#include "util/field.hpp"

namespace ccq {

/// Default number of independent sketch copies: enough for log2(n) Borůvka
/// rounds plus retry headroom for sampler failures.
std::uint32_t default_sketch_copies(std::uint32_t n);

/// One detector cell a coordinate touches in a vertex's lane block: `cell`
/// is copy * cells + level * buckets + bucket, `fp` the coordinate's
/// fingerprint at that level.
struct SignatureEntry {
  std::uint32_t cell;
  std::uint64_t fp;
};

class SketchSpace {
 public:
  /// t independent families over universe n^2, deterministically derived
  /// from `seed_words` (all nodes holding the same words build identical
  /// spaces — the linearity requirement). `buckets` selects the detector
  /// layout (1 = lean per-level detectors; >1 = the Cormode–Firmani
  /// multi-bucket tables, larger but with higher per-copy success).
  SketchSpace(std::uint32_t n, std::uint32_t copies,
              std::span<const std::uint64_t> seed_words,
              std::uint32_t buckets = 1);

  static std::size_t seed_words_needed(std::uint32_t n, std::uint32_t copies,
                                       std::uint32_t buckets = 1);

  std::uint32_t n() const { return n_; }
  std::uint32_t copies() const { return static_cast<std::uint32_t>(families_.size()); }
  const SketchFamily& family(std::uint32_t j) const;
  const SketchParams& params() const { return params_; }

  /// Words per serialized sketch (each of the t copies).
  std::size_t sketch_words() const { return L0Sketch::word_size(params_); }
  /// Detector cells per sketch copy (levels * buckets); a vertex's lane
  /// block holds t * cells() cells.
  std::size_t cells() const {
    return static_cast<std::size_t>(params_.levels) * params_.buckets;
  }

  /// Append coordinate i's signature — every cell it touches in all t
  /// copies, copy by copy, with its fingerprint there — to `out`. This is
  /// the k-wise hash and fingerprint work of L0Sketch::update, done once
  /// per coordinate: a signature applied with +1 to one endpoint's block
  /// and -1 to the other's updates both, in every copy. The copies' field
  /// multiply chains are evaluated side by side, so their latencies
  /// overlap.
  void append_signature(std::uint64_t i,
                        std::vector<SignatureEntry>& out) const;

  /// Sketch vertex v's incidence vector restricted to the given incident
  /// edges, in every family; returns t sketches.
  std::vector<L0Sketch> sketch_vertex(VertexId v,
                                      std::span<const Edge> incident) const;

  /// t zero sketches (for accumulation).
  std::vector<L0Sketch> zero() const;

 private:
  std::uint32_t n_;
  SketchParams params_;
  std::vector<SketchFamily> families_;
  // Every family's level-hash coefficients, coefficient-major (coefficient
  // c of copy j at [c * t + j]): one Horner step reads t adjacent words.
  std::vector<std::uint64_t> level_coeffs_;
};

/// Owning storage for per-vertex sketch copies in the lane layout
/// sketch_spanning_forest reads: vertex i's copy j is the sketch at index
/// i * t + j, i.e. cells [(i * t + j) * cells, +cells) of every lane.
struct SketchArena {
  std::vector<std::int64_t> phi;
  std::vector<std::int64_t> iota;
  std::vector<std::uint64_t> tau;

  /// Append sketches (a vertex's t copies, in copy order).
  void append(std::span<const L0Sketch> sketches);
  SketchLanes view() const { return {phi, iota, tau}; }
};

/// Add c (+1 or -1) at coordinate i to one vertex's lane block (t * cells
/// cells per lane) through i's signature: exactly L0Sketch::update(i, c)
/// in every copy.
inline void apply_signature(std::span<const SignatureEntry> signature,
                            std::uint64_t i, int c, std::int64_t* phi,
                            std::int64_t* iota, std::uint64_t* tau) {
  const auto coord = static_cast<std::int64_t>(i);
  for (const SignatureEntry& s : signature) {
    phi[s.cell] += c;
    iota[s.cell] += c * coord;
    tau[s.cell] =
        c > 0 ? field::add(tau[s.cell], s.fp) : field::sub(tau[s.cell], s.fp);
  }
}

/// Result of the coordinator-local sketch Borůvka.
struct SketchForestResult {
  std::vector<Edge> forest;      // edges of a spanning forest (w.h.p. maximal)
  bool ran_out_of_sketches{false};  // true if some component stalled
  std::uint32_t boruvka_rounds{0};
};

/// Compute (locally, no communication) a maximal spanning forest of the
/// graph underlying the sketches. `vertices` lists the participating
/// (super-)vertex ids; `component_of` maps every original vertex id in
/// [0,n) to its supervertex id (identity when sketching plain vertices);
/// `lanes` holds the t sketch copies of every vertices[i] in SketchArena
/// order (copy j of vertices[i] is sketch i * t + j). Succeeds w.h.p.; on
/// sampler exhaustion returns the partial forest with
/// ran_out_of_sketches = true (a Monte Carlo failure the caller may
/// surface, mirroring the paper's w.h.p. guarantee).
SketchForestResult sketch_spanning_forest(
    const SketchSpace& space, std::span<const VertexId> vertices,
    std::span<const VertexId> component_of, SketchLanes lanes);

}  // namespace ccq
