// CC-MST: the Lotker et al. [22] O(log log n)-round deterministic MST
// algorithm for edge-weighted cliques, reimplemented with a per-phase API.
//
// The paper (Theorem 2) uses CC-MST as a black box with these guarantees:
// after phase k the algorithm has computed a node partition F_k into
// clusters and an MST T(F) of each cluster such that (i) every cluster has
// size >= 2^(2^(k-1)), (ii) every node knows F_k and T_k, and (iii) the
// heaviest edge inside a cluster tree is no heavier than any edge leaving
// the cluster ("locally safe" merges).
//
// One phase, with s = current minimum cluster size and m = #clusters
// (so m*s <= n):
//
//   R1  every node u sends, for every other cluster C, the lightest edge
//       from u into C to C's leader (distinct leaders => one message per
//       link; skipped in the all-singletons phase where each leader already
//       knows its incident weights). Leaders now know the lightest
//       inter-cluster edge to/from every other cluster.
//   R2  every leader selects its s lightest outgoing edges to s *distinct*
//       clusters (its "candidates") and hands candidate j to its j-th
//       cluster member (one message per link).
//   R3  members forward the candidates to the coordinator v* = node 0;
//       total candidates <= m*s <= n, one per sender, so v* receives at
//       most one message per link.
//   L   v* runs constrained Borůvka on the candidate cluster graph: while
//       some component of merged clusters contains <= s clusters, it merges
//       along its lightest outgoing candidate. The classical cut/exchange
//       argument (Lotker et al., Sec. 3) shows each such edge is a true MST
//       edge, and every unfinished component grows to > s clusters, hence
//       to size >= s(s+1) >= s^2 — the doubly-exponential growth.
//   R4-5 v* disseminates the merge list with a spray broadcast (send edge i
//       to helper i, helpers rebroadcast); every node updates F/T locally.
//
// The simulation of R1-R3 visits only finite edges: a cluster's label is its
// minimum member, so two clusters that share no finite edge meet at the
// padding edge (inf, min label, max label), which needs no lookup. The
// phases therefore take the input as a FiniteAdjacency, built once per run:
// from E(G) in O(n + m) for REDUCECOMPONENTS (no n^2 lift is ever stored),
// or from a CliqueWeights triangle (one counting walk, one placing walk)
// for a weighted clique.
//
// Five rounds per phase; ceil(log log n) + O(1) phases to a single cluster.
// Used by the paper both as a full MST algorithm (the O(log log n) baseline
// our benchmarks compare against) and as the REDUCECOMPONENTS preprocessor
// run for just ceil(log log log n) + 3 phases.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "clique/engine.hpp"
#include "graph/graph.hpp"
#include "util/random.hpp"

namespace ccq {

/// Symmetric weight matrix of an edge-weighted clique. Pairs left unset
/// carry kInfiniteWeight — the "non-edge" padding weight of Algorithm 1.
class CliqueWeights {
 public:
  explicit CliqueWeights(std::uint32_t n);

  /// Lift a (possibly sparse) weighted graph onto the clique; absent pairs
  /// become infinite-weight edges.
  static CliqueWeights from_graph(const WeightedGraph& g);

  std::uint32_t n() const { return n_; }
  Weight at(VertexId u, VertexId v) const;
  bool finite(VertexId u, VertexId v) const;
  void set(VertexId u, VertexId v, Weight w);
  WeightedEdge edge(VertexId u, VertexId v) const;

  /// Visit every finite pair as visit(u, v, w), u < v, in one sequential
  /// walk of the triangle ((u, v) ascending).
  template <typename Visit>
  void for_each_finite(Visit&& visit) const {
    std::size_t i = 0;
    for (VertexId u = 0; u < n_; ++u)
      for (VertexId v = u + 1; v < n_; ++v, ++i)
        if (w_[i] != kNoWeight) visit(u, v, w_[i]);
  }

 private:
  static constexpr std::uint32_t kNoWeight =
      std::numeric_limits<std::uint32_t>::max();
  std::size_t slot(VertexId u, VertexId v) const;

  std::uint32_t n_;
  std::vector<std::uint32_t> w_;  // triangular; UINT32_MAX = infinite
};

/// The finite edges of a CC-MST input as adjacency lists: every edge {u, v}
/// appears as an arc in u's list and one in v's. Pairs without an arc are
/// the infinite-weight non-edges, which CC-MST never looks up.
class FiniteAdjacency {
 public:
  struct Arc {
    VertexId to;
    std::uint32_t w;
  };

  /// Unit weights on E(G), exactly Step 1 of REDUCECOMPONENTS, in
  /// O(n + m); each node's arcs follow its neighbour order in `g`.
  explicit FiniteAdjacency(const Graph& g);

  /// The finite pairs of a weighted clique, from two sequential walks of
  /// its triangle (count, then place); each node's arcs ascend by
  /// neighbour.
  explicit FiniteAdjacency(const CliqueWeights& weights);

  std::uint32_t n() const { return n_; }
  std::span<const Arc> arcs(VertexId u) const {
    return {arcs_.data() + first_[u], arcs_.data() + first_[u + 1]};
  }

  /// Every finite edge once, by u ascending, then in u's arc order.
  std::vector<WeightedEdge> edges() const;

 private:
  std::uint32_t n_;
  std::vector<std::size_t> first_;  // u's arcs: [first_[u], first_[u + 1])
  std::vector<Arc> arcs_;
};

/// Partition + forest state after k phases; every node knows all of it
/// (Theorem 2(ii)).
struct LotkerState {
  std::vector<VertexId> cluster_of;     // leader (min member id) per node
  std::vector<WeightedEdge> tree_edges; // union of the cluster trees
  std::uint32_t phases_run{0};

  std::uint32_t num_clusters() const;
  std::uint32_t min_cluster_size() const;
};

/// Fresh (phase-0) state: every node its own cluster.
LotkerState cc_mst_initial_state(std::uint32_t n);

/// Advance CC-MST by one phase (5 rounds); returns the number of merge
/// edges accepted (0 iff a single cluster remains). Exposed so callers can
/// interleave per-phase checks — the early-exit connectivity verification
/// of Section 2.2 uses this.
std::size_t cc_mst_step(CliqueEngine& engine, const FiniteAdjacency& input,
                        LotkerState& state);

/// Run `phases` phases of CC-MST (fewer if a single cluster forms earlier).
LotkerState cc_mst_phases(CliqueEngine& engine, const FiniteAdjacency& input,
                          std::uint32_t phases);

/// Run to completion (single cluster): the full O(log log n)-round MST.
LotkerState cc_mst_full(CliqueEngine& engine, const FiniteAdjacency& input);

/// Number of phases REDUCECOMPONENTS runs: ceil(log log log n) + 3
/// (Algorithm 1, Step 2).
std::uint32_t reduce_components_phases(std::uint32_t n);

}  // namespace ccq
