#include "core/gc.hpp"

#include <limits>

#include "clique/trace.hpp"
#include "comm/primitives.hpp"
#include "core/reduce_components.hpp"
#include "core/sketch_and_span.hpp"
#include "graph/union_find.hpp"
#include "util/error.hpp"

namespace ccq {

namespace {

GcResult finish(const Graph& g, std::vector<Edge> phase1_forest,
                const SketchAndSpanResult& phase2,
                std::uint32_t lotker_phases,
                std::uint32_t unfinished_trees) {
  GcResult out;
  out.lotker_phases = lotker_phases;
  out.unfinished_trees_after_phase1 = unfinished_trees;
  out.monte_carlo_ok = phase2.monte_carlo_ok;
  out.forest = std::move(phase1_forest);
  out.forest.insert(out.forest.end(), phase2.real_forest.begin(),
                    phase2.real_forest.end());
  out.connected =
      g.num_vertices() <= 1 || out.forest.size() + 1 == g.num_vertices();
  return out;
}

}  // namespace

GcResult gc_spanning_forest(CliqueEngine& engine, const Graph& g, Rng& rng,
                            std::uint32_t phase_override,
                            std::uint32_t copies_override) {
  engine.require_id_knowledge("gc_spanning_forest");
  TraceScope scope{engine, "gc"};
  auto phase1 = reduce_components(engine, g, phase_override);
  const auto unfinished = static_cast<std::uint32_t>(
      phase1.component_graph.active_leaders.size());
  auto phase2 =
      sketch_and_span(engine, phase1.component_graph, rng, copies_override);
  return finish(g, std::move(phase1.forest), phase2, phase1.lotker_phases,
                unfinished);
}

GcResult gc_spanning_forest_kt0(CliqueEngine& engine, const Graph& g,
                                Rng& rng) {
  check(engine.knowledge() == Knowledge::KT0,
        "gc_spanning_forest_kt0: engine must be in KT0 mode");
  resolve_ids_kt0(engine);
  return gc_spanning_forest(engine, g, rng);
}

GcVerifyResult gc_verify_connectivity(CliqueEngine& engine, const Graph& g,
                                      Rng& rng) {
  engine.require_id_knowledge("gc_verify_connectivity");
  const std::uint32_t n = g.num_vertices();
  check(engine.n() == n, "gc_verify_connectivity: size mismatch");
  GcVerifyResult out;
  if (n <= 1) {
    out.connected = true;
    out.early_exit = true;
    return out;
  }
  TraceScope scope{engine, "gc-verify"};
  const FiniteAdjacency input{g};  // unit weights on E(G)
  LotkerState state = cc_mst_initial_state(n);
  const std::uint32_t phases = reduce_components_phases(n);
  // Labels of the *finite* forest (infinite padding merges ignored),
  // recomputed locally after each phase — every node can do this since all
  // know the tree (Theorem 2(ii)).
  auto finite_labels = [&]() {
    UnionFind uf{n};
    for (const auto& e : state.tree_edges)
      if (e.w != kInfiniteWeight) uf.unite(e.u, e.v);
    std::vector<VertexId> min_of(n, std::numeric_limits<VertexId>::max());
    for (VertexId v = 0; v < n; ++v) {
      const auto root = uf.find(v);
      min_of[root] = std::min(min_of[root], v);
    }
    std::vector<VertexId> label(n);
    for (VertexId v = 0; v < n; ++v) label[v] = min_of[uf.find(v)];
    return label;
  };
  ComponentGraph g1;
  for (std::uint32_t k = 0; k < phases; ++k) {
    cc_mst_step(engine, input, state);
    out.phases_run = state.phases_run;
    const auto label = finite_labels();
    g1 = build_component_graph(engine, g, label);  // +1 round per phase
    if (g1.leaders.size() == 1) {
      out.connected = true;
      out.early_exit = true;
      return out;
    }
    // A finished tree (isolated in the component graph) that does not span:
    // report "disconnected" immediately (Section 2.2's parenthetical).
    if (g1.active_leaders.size() < g1.leaders.size()) {
      out.connected = false;
      out.early_exit = true;
      return out;
    }
  }
  // Phase 2 on the final component graph.
  const auto phase2 = sketch_and_span(engine, g1, rng);
  out.monte_carlo_ok = phase2.monte_carlo_ok;
  UnionFind uf{n};
  const auto label = finite_labels();
  for (VertexId v = 0; v < n; ++v) uf.unite(v, label[v]);
  for (const auto& e : phase2.real_forest) uf.unite(e.u, e.v);
  out.connected = uf.num_components() == 1;
  return out;
}

GcResult gc_spanning_forest_wide(CliqueEngine& engine, const Graph& g,
                                 Rng& rng) {
  check(engine.messages_per_link() >=
            wide_bandwidth_messages_per_link(engine.n()),
        "gc_spanning_forest_wide: engine not configured with wide links");
  // Phase 1 skipped: every vertex is its own (singleton) component; the
  // component graph is G itself with unit witnesses.
  TraceScope scope{engine, "gc-wide"};
  const std::uint32_t n = g.num_vertices();
  std::vector<VertexId> identity(n);
  for (VertexId v = 0; v < n; ++v) identity[v] = v;
  ComponentGraph g1;
  for (VertexId v = 0; v < n; ++v) g1.leaders.push_back(v);
  for (const auto& e : g.edges())
    g1.witness.emplace(component_pair(e.u, e.v), WeightedEdge{e.u, e.v, 1});
  for (VertexId v = 0; v < n; ++v)
    if (g.degree(v) > 0) g1.active_leaders.push_back(v);
  auto phase2 = sketch_and_span(engine, g1, rng);
  return finish(g, {}, phase2, 0,
                static_cast<std::uint32_t>(g1.active_leaders.size()));
}

}  // namespace ccq
