// Algorithm 3: EXACT-MST — the paper's headline O(log log log n)-round MST
// (Theorem 7).
//
//   1. CC-MST for ceil(log log log n) + 3 phases reduces the number of
//      components to O(n / log^4 n); the selected (finite-weight) edges T1
//      are MST edges.
//   2. BUILDCOMPONENTGRAPH produces the weighted component graph G1 (min-
//      weight inter-component edges, with original-edge witnesses).
//   3. KKT: sample E(G1) with p = 1/sqrt(n) into H (local coin flips).
//   4. F = SQ-MST(H)  — first constant-round subproblem.
//   5. E_l = the F-light edges of G1 (local classification once every node
//      knows F; F-heavy edges cannot be MST edges).
//   6. T2 = SQ-MST(E_l) — second constant-round subproblem.
//   7. Output T1 ∪ T2; every node knows the full edge set.
//
// With an engine configured for O(log^5 n)-bit links, step 1 is skipped
// (exact_mst_wide): the component graph is the input itself and MST
// completes in O(1) rounds, the second half of Theorem 7.
#pragma once

#include <cstdint>
#include <vector>

#include "clique/engine.hpp"
#include "graph/graph.hpp"
#include "lotker/cc_mst.hpp"
#include "util/random.hpp"

namespace ccq {

struct ExactMstResult {
  std::vector<WeightedEdge> mst;
  bool monte_carlo_ok{true};
  std::uint32_t lotker_phases{0};
  std::size_t g1_vertices{0};
  std::size_t g1_edges{0};
  std::size_t sampled_edges{0};   // |E(H)|
  std::size_t f_light_edges{0};   // |E_l|
  std::uint32_t sketch_boruvka_rounds{0};  // both SQ-MST calls, all guardians
};

/// Full EXACT-MST. `phase_override` forces the CC-MST phase count.
ExactMstResult exact_mst(CliqueEngine& engine, const CliqueWeights& weights,
                         Rng& rng, std::uint32_t phase_override = 0);

/// Wide-bandwidth variant: skip the CC-MST preprocessing entirely.
ExactMstResult exact_mst_wide(CliqueEngine& engine,
                              const CliqueWeights& weights, Rng& rng);

}  // namespace ccq
