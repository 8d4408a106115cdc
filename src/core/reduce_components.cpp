#include "core/reduce_components.hpp"

#include <limits>

#include "clique/trace.hpp"
#include "graph/union_find.hpp"
#include "util/error.hpp"

namespace ccq {

ReduceComponentsResult reduce_components(CliqueEngine& engine, const Graph& g,
                                         std::uint32_t phase_override) {
  const std::uint32_t n = g.num_vertices();
  check(engine.n() == n, "reduce_components: engine/input size mismatch");
  TraceScope scope{engine, "reduce-components"};
  ReduceComponentsResult out;

  // Step 1: unit weights on E(G), infinity elsewhere. Only the finite part
  // is stored: the adjacency of G itself.
  const FiniteAdjacency input{g};

  // Step 2: CC-MST for ceil(log log log n) + 3 phases.
  const std::uint32_t phases =
      phase_override > 0 ? phase_override : reduce_components_phases(n);
  const LotkerState state = cc_mst_phases(engine, input, phases);
  out.lotker_phases = state.phases_run;

  // Step 3: discard the infinite-weight (non-)edges CC-MST selected. By
  // Theorem 2(iii) this never fragments an unfinished tree.
  for (const auto& e : state.tree_edges)
    if (e.w != kInfiniteWeight) out.forest.emplace_back(e.u, e.v);

  // Every node knows T_infinity (Theorem 2(ii)), so the re-labelling after
  // the discard is a local computation at each node.
  UnionFind uf{n};
  for (const auto& e : out.forest) uf.unite(e.u, e.v);
  std::vector<VertexId> min_of(n, std::numeric_limits<VertexId>::max());
  for (VertexId v = 0; v < n; ++v) {
    const auto root = uf.find(v);
    min_of[root] = std::min(min_of[root], v);
  }
  out.leader_of.resize(n);
  for (VertexId v = 0; v < n; ++v) out.leader_of[v] = min_of[uf.find(v)];

  // Step 4: BUILDCOMPONENTGRAPH (one round).
  {
    TraceScope build{engine, "build-component-graph"};
    out.component_graph = build_component_graph(engine, g, out.leader_of);
  }
  return out;
}

}  // namespace ccq
