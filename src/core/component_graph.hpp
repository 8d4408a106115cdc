// BUILDCOMPONENTGRAPH (paper, Section 2.2 / 2.3.1).
//
// Given the input graph and a component labelling (every node knows the
// leader of its component — the minimum-ID member), one communication round
// makes every component leader know its incident component-graph edges:
// each node u examines its incident edges {u,v}; for every *distinct*
// foreign component among its neighbours it sends one message to that
// component's leader (distinct leaders, hence one message per link). In the
// weighted variant (EXACT-MST) the message carries the lightest edge from u
// into that component, so leaders afterwards know the lightest inter-
// component edge to every neighbouring component, with an original-graph
// witness edge attached for mapping component-tree edges back to G.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "clique/engine.hpp"
#include "graph/graph.hpp"

namespace ccq {

class FiniteAdjacency;

/// Key for an unordered component pair (leaders, min first).
using ComponentPair = std::pair<VertexId, VertexId>;

inline ComponentPair component_pair(VertexId a, VertexId b) {
  return a < b ? ComponentPair{a, b} : ComponentPair{b, a};
}

struct ComponentGraph {
  /// Leaders of components that have at least one incident inter-component
  /// edge ("unfinished" components; isolated leaders are finished trees).
  std::vector<VertexId> active_leaders;
  /// All component leaders (including finished/isolated ones).
  std::vector<VertexId> leaders;
  /// For every adjacent component pair: the lightest witness edge of G
  /// between them (weight 1 in the unweighted variant). Conceptually each
  /// leader holds its row; the simulator stores the union.
  std::map<ComponentPair, WeightedEdge> witness;
};

/// Unweighted variant (GC): witnesses carry weight 1.
ComponentGraph build_component_graph(CliqueEngine& engine, const Graph& g,
                                     const std::vector<VertexId>& leader_of);

/// Weighted variant (EXACT-MST): witnesses are the lightest inter-component
/// edges of the weighted input.
ComponentGraph build_component_graph_weighted(
    CliqueEngine& engine, const std::vector<WeightedEdge>& edges,
    std::uint32_t n, const std::vector<VertexId>& leader_of);

/// The same, reading every node's incident edges straight from a CC-MST
/// input's arcs (no edge list is built); the result is identical to the
/// edge-list form over input.edges().
ComponentGraph build_component_graph_weighted(
    CliqueEngine& engine, const FiniteAdjacency& input,
    const std::vector<VertexId>& leader_of);

}  // namespace ccq
