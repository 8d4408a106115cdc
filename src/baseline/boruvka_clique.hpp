// The O(log n)-round distributed Borůvka baseline ([29] in the paper).
//
// Before Lotker et al., the best MST algorithm on the Congested Clique was
// the classical Borůvka/GHS-style procedure: O(log n) phases, each merging
// every component along its minimum-weight outgoing edge. On a clique this
// takes O(1) rounds per phase:
//
//   R1  every node sends, to the leader of every other component, its
//       lightest edge into that component (one message per distinct
//       leader);
//   R2  each leader selects the component's minimum-weight outgoing edge
//       and sends it to the coordinator v*;
//   R3/4 v* merges (locally) and spray-broadcasts the accepted edges;
//       every node updates the shared partition.
//
// Components at least halve in count per phase, giving ceil(log2 n) phases
// — the curve the paper's O(log log n) baseline (lotker/) and its
// O(log log log n) contribution (core/) are measured against in bench_gc
// and bench_mst.
#pragma once

#include <cstdint>

#include "clique/engine.hpp"
#include "graph/graph.hpp"
#include "lotker/cc_mst.hpp"

namespace ccq {

struct BoruvkaCliqueResult {
  std::vector<WeightedEdge> msf;  // minimum spanning forest (finite edges)
  std::uint32_t phases{0};
};

/// Distributed Borůvka on an edge-weighted clique given by its finite edges
/// (pairs without an arc are infinite-weight non-edges: the output is the
/// minimum spanning forest of the finite part). Deterministic; O(log n)
/// phases of O(1) rounds.
BoruvkaCliqueResult boruvka_clique_msf(CliqueEngine& engine,
                                       const FiniteAdjacency& input);

}  // namespace ccq
