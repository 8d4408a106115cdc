#include "core/exact_mst.hpp"

#include <limits>

#include "clique/trace.hpp"
#include "core/component_graph.hpp"
#include "core/kkt.hpp"
#include "core/sq_mst.hpp"
#include "graph/union_find.hpp"
#include "util/error.hpp"

namespace ccq {

namespace {

ExactMstResult run(CliqueEngine& engine, const CliqueWeights& weights,
                   Rng& rng, std::uint32_t phases) {
  const std::uint32_t n = weights.n();
  check(engine.n() == n, "exact_mst: engine/input size mismatch");
  engine.require_id_knowledge("exact_mst");
  ExactMstResult result;
  TraceScope scope{engine, "exact-mst"};

  // --- Step 1: CC-MST preprocessing (phases == 0 in the wide variant).
  // CC-MST and Step 2 read only the finite pairs, which the adjacency
  // gathers from the triangle once per run; the wide variant, which runs
  // no phase, reads them for Step 2 from one walk of the triangle instead.
  // Neither outlives Step 2, so neither sits under the SQ-MST stages'
  // memory.
  //
  // --- Step 2: weighted component graph G1. The MST subproblems run in
  // the *contracted* space (endpoints are component leaders) — running them
  // on raw witness endpoints would miss cycles among components. The
  // witness map converts accepted contracted edges back to edges of G.
  std::vector<VertexId> leader_of(n);
  for (VertexId v = 0; v < n; ++v) leader_of[v] = v;
  ComponentGraph g1;
  if (phases > 0) {
    const FiniteAdjacency input{weights};
    {
      TraceScope step{engine, "cc-mst-preprocess"};
      const LotkerState state = cc_mst_phases(engine, input, phases);
      result.lotker_phases = state.phases_run;
      // Keep the finite-weight selections (infinite "padding" edges appear
      // only when the finite part of the input is disconnected; discarding
      // them turns the output into a minimum spanning forest, as in
      // REDUCECOMPONENTS).
      UnionFind uf{n};
      for (const auto& e : state.tree_edges)
        if (e.w != kInfiniteWeight) {
          result.mst.push_back(e);
          uf.unite(e.u, e.v);
        }
      std::vector<VertexId> min_of(n, std::numeric_limits<VertexId>::max());
      for (VertexId v = 0; v < n; ++v) {
        const auto root = uf.find(v);
        min_of[root] = std::min(min_of[root], v);
      }
      for (VertexId v = 0; v < n; ++v) leader_of[v] = min_of[uf.find(v)];
    }
    TraceScope step{engine, "contract-component-graph"};
    g1 = build_component_graph_weighted(engine, input, leader_of);
  } else {
    std::vector<WeightedEdge> finite;
    weights.for_each_finite([&](VertexId u, VertexId v, std::uint32_t w) {
      finite.emplace_back(u, v, w);
    });
    TraceScope step{engine, "contract-component-graph"};
    g1 = build_component_graph_weighted(engine, finite, n, leader_of);
  }
  std::vector<WeightedEdge> g1_edges;  // leader-space edges
  g1_edges.reserve(g1.witness.size());
  for (const auto& [pair, witness] : g1.witness)
    g1_edges.emplace_back(pair.first, pair.second, witness.w);
  result.g1_vertices = g1.leaders.size();
  result.g1_edges = g1_edges.size();
  if (g1_edges.empty()) return result;  // already spanning

  // --- Step 3: KKT sampling (local coin flips at edge owners).
  const auto sampled = kkt_sample(g1_edges, kkt_probability(n), rng);
  result.sampled_edges = sampled.size();

  // --- Step 4: F = SQ-MST(H).
  SqMstResult f;
  {
    TraceScope step{engine, "sq-mst-sample"};
    f = sq_mst(engine, n, sampled, rng);
  }
  if (!f.monte_carlo_ok) result.monte_carlo_ok = false;
  result.sketch_boruvka_rounds += f.boruvka_rounds;

  // --- Step 5: F-light filter (local at every node: all know F).
  const auto light = f_light_subset(n, f.mst, g1_edges);
  result.f_light_edges = light.size();

  // --- Step 6: T2 = SQ-MST(E_l).
  SqMstResult t2;
  {
    TraceScope step{engine, "sq-mst-light"};
    t2 = sq_mst(engine, n, light, rng);
  }
  if (!t2.monte_carlo_ok) result.monte_carlo_ok = false;
  result.sketch_boruvka_rounds += t2.boruvka_rounds;

  // --- Step 7: T1 ∪ T2, with contracted edges mapped back to witnesses.
  for (const auto& e : t2.mst) {
    const auto it = g1.witness.find(component_pair(e.u, e.v));
    check(it != g1.witness.end(), "exact_mst: accepted edge without witness");
    result.mst.push_back(it->second);
  }
  return result;
}

}  // namespace

ExactMstResult exact_mst(CliqueEngine& engine, const CliqueWeights& weights,
                         Rng& rng, std::uint32_t phase_override) {
  const std::uint32_t phases = phase_override > 0
                                   ? phase_override
                                   : reduce_components_phases(weights.n());
  return run(engine, weights, rng, phases);
}

ExactMstResult exact_mst_wide(CliqueEngine& engine,
                              const CliqueWeights& weights, Rng& rng) {
  check(engine.messages_per_link() >=
            wide_bandwidth_messages_per_link(engine.n()),
        "exact_mst_wide: engine not configured with wide links");
  return run(engine, weights, rng, 0);
}

}  // namespace ccq
