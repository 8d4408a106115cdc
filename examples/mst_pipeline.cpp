// MST pipeline walkthrough: every stage of EXACT-MST (Algorithm 3) on a
// random weighted clique, with the intermediate quantities the paper's
// analysis tracks printed at each step — a guided tour of Theorem 7.
//
//   ./examples/mst_pipeline [n] [seed]
#include <cstdio>
#include <cstdlib>

#include "core/component_graph.hpp"
#include "core/exact_mst.hpp"
#include "core/kkt.hpp"
#include "core/sq_mst.hpp"
#include "graph/union_find.hpp"
#include "graph/generators.hpp"
#include "graph/sequential.hpp"
#include "graph/verify.hpp"
#include "lotker/cc_mst.hpp"

int run_example(int argc, char** argv) {
  const std::uint32_t n = argc > 1 ? std::atoi(argv[1]) : 128;
  const std::uint64_t seed = argc > 2 ? std::atoll(argv[2]) : 7;
  ccq::Rng rng{seed};

  const auto g = ccq::random_weighted_clique(n, rng);
  const auto weights = ccq::CliqueWeights::from_graph(g);
  const ccq::FiniteAdjacency input{weights};
  std::printf("input: weighted clique on n=%u (%zu edges, distinct "
              "weights)\n\n", n, g.num_edges());

  // --- Stage 1: CC-MST preprocessing, one phase at a time.
  std::printf("Stage 1 — CC-MST (Lotker et al.) preprocessing:\n");
  const std::uint32_t phases = ccq::reduce_components_phases(n);
  for (std::uint32_t k = 1; k <= phases; ++k) {
    ccq::CliqueEngine probe{{.n = n}};
    const auto state = ccq::cc_mst_phases(probe, input, k);
    std::printf("  after phase %u: %u clusters (min size %u)\n", k,
                state.num_clusters(), state.min_cluster_size());
    if (state.num_clusters() <= 1) break;
  }

  // --- Stage 2: run one shallow phase so the sketch machinery has work,
  // then walk the KKT + SQ-MST main phase by hand.
  std::printf("\nStage 2 — the main phase, after a deliberately shallow "
              "(1-phase) preprocessing:\n");
  ccq::CliqueEngine engine{{.n = n}};
  const auto shallow = ccq::cc_mst_phases(engine, input, 1);
  std::vector<ccq::VertexId> leader_of(n);
  {
    ccq::UnionFind uf{n};
    for (const auto& e : shallow.tree_edges) uf.unite(e.u, e.v);
    std::vector<ccq::VertexId> min_of(n, n);
    for (ccq::VertexId v = 0; v < n; ++v)
      min_of[uf.find(v)] = std::min<ccq::VertexId>(min_of[uf.find(v)], v);
    for (ccq::VertexId v = 0; v < n; ++v) leader_of[v] = min_of[uf.find(v)];
  }
  const auto g1 = ccq::build_component_graph_weighted(
      engine, input.edges(), n, leader_of);
  std::vector<ccq::WeightedEdge> g1_edges;
  for (const auto& [pair, witness] : g1.witness)
    g1_edges.emplace_back(pair.first, pair.second, witness.w);
  std::printf("  component graph G1: %zu vertices, %zu edges\n",
              g1.leaders.size(), g1_edges.size());

  const double p = ccq::kkt_probability(n);
  const auto sampled = ccq::kkt_sample(g1_edges, p, rng);
  std::printf("  KKT sample (p = 1/sqrt(n) = %.4f): %zu edges\n", p,
              sampled.size());

  const auto f = ccq::sq_mst(engine, n, sampled, rng);
  std::printf("  SQ-MST(H): forest of %zu edges across %u rank groups\n",
              f.mst.size(), f.partitions);

  const auto light = ccq::f_light_subset(n, f.mst, g1_edges);
  std::printf("  F-light filter: %zu of %zu G1 edges survive "
              "(bound ~ n/p = %.0f)\n", light.size(), g1_edges.size(), n / p);

  const auto t2 = ccq::sq_mst(engine, n, light, rng);
  std::printf("  SQ-MST(E_l): %zu MST edges of G1\n", t2.mst.size());
  std::printf("  cost so far: %s\n", engine.metrics().to_string().c_str());

  // --- Stage 3: the packaged algorithm, verified against Kruskal.
  std::printf("\nStage 3 — packaged EXACT-MST vs Kruskal:\n");
  ccq::CliqueEngine full{{.n = n}};
  ccq::Rng rng2{seed + 1};
  const auto result = ccq::exact_mst(full, weights, rng2);
  const auto reference = ccq::kruskal_msf(g);
  const auto check = ccq::verify_msf(g, result.mst);
  std::printf("  EXACT-MST weight=%llu, Kruskal weight=%llu -> %s\n",
              static_cast<unsigned long long>(ccq::total_weight(result.mst)),
              static_cast<unsigned long long>(ccq::total_weight(reference)),
              check.ok ? "MATCH" : "MISMATCH");
  std::printf("  cost: %s\n", full.metrics().to_string().c_str());
  return check.ok ? 0 : 1;
}

int main(int argc, char** argv) {
  try {
    return run_example(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
