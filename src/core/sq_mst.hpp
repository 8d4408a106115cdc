// Algorithm 4: SQ-MST — constant-round MST of a graph with O(n/log^4 n)
// vertices and O(n^{3/2}) edges.
//
//   1. DISTRIBUTEDSORT assigns every edge its global rank by weight
//      (comm/sorting, the Lenzen-sorting interface).
//   2. Edges are partitioned by rank into p = O(sqrt(n)) groups of n.
//   3. Group E_i is gathered at its guardian node g(i) = node i (one
//      Lenzen routing call; every node sends < n edges, every guardian
//      receives <= n).
//   4. In parallel for all i: every vertex builds Θ(log n) sketches of its
//      neighbourhood in G_i (the union of all lighter groups E_1..E_{i-1});
//      by linearity these are prefix sums over the vertex's rank-sorted
//      incident edges, so all p snapshots cost one pass. All sketch
//      collections ship to their guardians in a single routing call —
//      the "O(sqrt(n)) parallel GC instances" of the paper.
//   5. Guardian i locally computes a maximal spanning forest T_i of G_i
//      from the sketches, then scans E_i in rank order, keeping exactly the
//      edges joining distinct components of T_i ∪ {lighter E_i edges} —
//      those are the MST edges inside E_i (M_i).
//   6. The union of all M_i (at most |V'|-1 < n edges) is routed to v* and
//      spray-broadcast, so every node knows the MST.
#pragma once

#include <cstdint>
#include <vector>

#include "clique/engine.hpp"
#include "comm/routing.hpp"
#include "graph/graph.hpp"
#include "util/random.hpp"

namespace ccq {

struct SqMstResult {
  std::vector<WeightedEdge> mst;  // minimum spanning forest of (V', E')
  bool monte_carlo_ok{true};
  std::uint32_t partitions{0};    // p
  std::uint32_t boruvka_rounds{0};  // sketch Borůvka rounds, all guardians
  RouteStats edge_route;    // Step 3: edge groups to guardians
  RouteStats sketch_route;  // Step 4: prefix sketches to guardians
  RouteStats mst_route;     // Step 6: M_1 ∪ ... ∪ M_p to v*
};

/// Compute the minimum spanning forest of the subgraph (vertices ⊆ [0,n),
/// edges). Edge weights must fit in 32 bits and ids in 16 bits (they are
/// packed into sort keys); both hold for every caller in this library.
SqMstResult sq_mst(CliqueEngine& engine, std::uint32_t n,
                   const std::vector<WeightedEdge>& edges, Rng& rng,
                   std::uint32_t copies_override = 0);

}  // namespace ccq
