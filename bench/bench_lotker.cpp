// Experiment T2 (Theorem 2, Lotker et al.): CC-MST runs in O(log log n)
// rounds; after phase k the minimum cluster size is >= 2^(2^(k-1)).
//
// Reproduces both: the full-run phase/round counts vs n (growth must track
// ceil(log log n) + O(1)) and the doubly-exponential per-phase cluster
// growth. CC-MST is both the paper's baseline (the algorithm it improves
// exponentially upon) and the preprocessing substrate of Algorithms 1/3.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "graph/generators.hpp"
#include "graph/verify.hpp"
#include "lotker/cc_mst.hpp"

using namespace ccq;

int main(int argc, char** argv) {
  ccq::bench::init(argc, argv, "bench_lotker");
  std::printf("T2 / Theorem 2 — CC-MST (Lotker et al.): rounds and cluster "
              "growth\n");

  bench::Table full{"Full CC-MST run vs n",
                    {"n", "phases", "rounds", "ceil(loglog n)", "messages",
                     "messages/n^2", "mst_ok"}};
  for (std::uint32_t n : {16u, 64u, 256u, 1024u}) {
    Rng rng{n};
    const auto g = random_weighted_clique(n, rng);
    CliqueEngine engine{{.n = n}};
    const auto state =
        cc_mst_full(engine, FiniteAdjacency{CliqueWeights::from_graph(g)});
    const auto ok = verify_msf(g, state.tree_edges).ok;
    const double loglog =
        std::ceil(std::log2(std::log2(static_cast<double>(n))));
    full.row({bench::fmt(n), bench::fmt(state.phases_run),
              bench::fmt(engine.metrics().rounds), bench::fmt_double(loglog, 0),
              bench::fmt(engine.metrics().messages),
              bench::fmt_double(
                  static_cast<double>(engine.metrics().messages) / n / n, 3),
              ok ? "yes" : "NO"});
    bench::expect(ok, "CC-MST output must equal the Kruskal MST");
    bench::expect(state.phases_run <= loglog + 2,
                  "CC-MST phase count must track ceil(log log n)");
  }
  full.print();

  bench::Table growth{"Min cluster size after phase k (n = 1024)",
                      {"phase k", "clusters", "min_size", "2^(2^(k-1))"}};
  {
    const std::uint32_t n = 1024;
    Rng rng{7};
    const auto g = random_weighted_clique(n, rng);
    const FiniteAdjacency input{CliqueWeights::from_graph(g)};
    for (std::uint32_t k = 1; k <= 5; ++k) {
      CliqueEngine engine{{.n = n}};
      const auto state = cc_mst_phases(engine, input, k);
      const double bound = std::pow(2.0, std::pow(2.0, k - 1));
      growth.row({bench::fmt(k), bench::fmt(state.num_clusters()),
                  bench::fmt(state.min_cluster_size()),
                  bench::fmt_double(bound, 0)});
      if (state.num_clusters() <= 1) break;
      bench::expect(state.min_cluster_size() >= bound,
                    "Theorem 2(i): min cluster size >= 2^(2^(k-1))");
    }
  }
  growth.print();

  // The bandwidth extension Lotker et al. note (quoted in Section 1.1 of
  // the paper): with B-message links the per-phase growth accelerates from
  // s^2 to B*s^2, so phases drop toward O(log 1/eps) for B = n^eps.
  bench::Table bandwidth{"Bandwidth ablation (n = 1024): phases vs messages "
                         "per link",
                         {"B (messages/link)", "phases", "rounds", "mst_ok"}};
  {
    const std::uint32_t n = 1024;
    Rng rng{11};
    const auto g = random_weighted_clique(n, rng);
    const FiniteAdjacency input{CliqueWeights::from_graph(g)};
    std::uint32_t prev_phases = ~0u;
    for (std::uint32_t b : {1u, 4u, 16u, 64u}) {
      CliqueEngine engine{{.n = n, .messages_per_link = b}};
      const auto state = cc_mst_full(engine, input);
      const bool ok = verify_msf(g, state.tree_edges).ok;
      bandwidth.row({bench::fmt(b), bench::fmt(state.phases_run),
                     bench::fmt(engine.metrics().rounds), ok ? "yes" : "NO"});
      bench::expect(ok, "CC-MST must stay exact at every bandwidth");
      bench::expect(state.phases_run <= prev_phases,
                    "wider links must not increase the phase count");
      prev_phases = state.phases_run;
    }
  }
  bandwidth.print();
  return 0;
}
