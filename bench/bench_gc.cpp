// Experiment T4 (Theorem 4): GC in O(log log log n) rounds w.h.p., and in
// O(1) rounds with O(log^5 n)-bit links.
//
// Reproduces the paper's round-complexity comparison:
//   - our GC (REDUCECOMPONENTS + SKETCHANDSPAN) vs the full Lotker et al.
//     run (the O(log log n) baseline it improves upon exponentially) —
//     the GC rounds are dominated by the ceil(logloglog n)+3 preprocessing
//     phases and grow visibly slower than the baseline's phase count;
//   - the wide-bandwidth variant (engine links carry Θ(log^4 n) messages)
//     skips preprocessing entirely and runs in O(1) rounds at every n.
// Message counts are Θ(n^2) for all variants, as the paper states (that is
// the subject of the KT0 lower bound, bench_kt0_lower).
#include <cstdio>
#include <fstream>
#include <vector>

#include "baseline/boruvka_clique.hpp"
#include "bench_util.hpp"
#include "core/gc.hpp"
#include "graph/generators.hpp"
#include "graph/verify.hpp"
#include "lotker/cc_mst.hpp"

using namespace ccq;

int main(int argc, char** argv) {
  ccq::bench::init(argc, argv, "bench_gc");
  std::printf("T4 / Theorem 4 — GC rounds: ours vs the Borůvka and Lotker "
              "baselines vs wide bandwidth\n");

  bench::Table table{"GC on connected G(n, 2n extra edges)",
                     {"n", "gc_rounds", "gc_phases", "boruvka_phases",
                      "lotker_rounds", "wide_rounds", "gc_messages",
                      "forest_ok"}};
  // Deterministic-count mirror for the regression gate
  // (tools/report/bench_compare.py): seeded inputs + exact accounting mean
  // these must match bench/baselines/BENCH_gc.json bit-for-bit.
  struct GcRow {
    std::uint32_t n;
    std::uint64_t gc_rounds, gc_messages, gc_words;
    std::uint64_t lotker_rounds, boruvka_phases, wide_rounds;
  };
  std::vector<GcRow> json_rows;
  for (std::uint32_t n : {64u, 128u, 256u, 512u, 1024u}) {
    Rng rng{n};
    const auto g = random_connected(n, 2 * n, rng);
    const FiniteAdjacency unit{g};  // unit weights on E(G)

    CliqueEngine engine{{.n = n}};
    auto gc = gc_spanning_forest(engine, g, rng);
    const bool ok = verify_spanning_forest(g, gc.forest).ok &&
                    gc.connected && gc.monte_carlo_ok;

    // Baseline 1 ([29]): distributed Borůvka, Θ(log n) phases.
    CliqueEngine boruvka_engine{{.n = n}};
    const auto boruvka = boruvka_clique_msf(boruvka_engine, unit);

    // Baseline 2 (Lotker et al.): run CC-MST to completion.
    CliqueEngine baseline_engine{{.n = n}};
    const auto baseline = cc_mst_full(baseline_engine, unit);

    // Wide bandwidth: skip preprocessing, O(1) rounds.
    CliqueEngine wide_engine{
        {.n = n, .messages_per_link = wide_bandwidth_messages_per_link(n)}};
    Rng wide_rng{n + 1};
    auto wide = gc_spanning_forest_wide(wide_engine, g, wide_rng);
    const bool wide_ok = verify_spanning_forest(g, wide.forest).ok;

    json_rows.push_back({n, engine.metrics().rounds,
                         engine.metrics().messages, engine.metrics().words,
                         baseline_engine.metrics().rounds, boruvka.phases,
                         wide_engine.metrics().rounds});
    table.row({bench::fmt(n), bench::fmt(engine.metrics().rounds),
               bench::fmt(gc.lotker_phases), bench::fmt(boruvka.phases),
               bench::fmt(baseline_engine.metrics().rounds),
               bench::fmt(wide_engine.metrics().rounds),
               bench::fmt(engine.metrics().messages), ok ? "yes" : "NO"});
    bench::expect(ok, "GC must output a maximal spanning forest");
    bench::expect(wide_ok, "wide-bandwidth GC must be correct");
    (void)baseline;
    // (On unit weights both baselines collapse greedily; the log n vs
    // loglog n phase separation shows on weighted cliques — see bench_mst.)
    bench::expect(engine.metrics().rounds <=
                      baseline_engine.metrics().rounds + 25,
                  "GC rounds must not exceed baseline by more than Phase 2's "
                  "constant");
    bench::expect(wide_engine.metrics().rounds <= 40,
                  "wide-bandwidth GC must take O(1) rounds");
  }
  table.print();

  {
    std::ofstream json("BENCH_gc.json");
    json << "{\n  \"benchmark\": \"gc_connected_counts\",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
      const GcRow& r = json_rows[i];
      json << "    {\"n\": " << r.n << ", \"gc_rounds\": " << r.gc_rounds
           << ", \"gc_messages\": " << r.gc_messages
           << ", \"gc_words\": " << r.gc_words
           << ", \"lotker_rounds\": " << r.lotker_rounds
           << ", \"boruvka_phases\": " << r.boruvka_phases
           << ", \"wide_rounds\": " << r.wide_rounds << "}"
           << (i + 1 < json_rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::printf("(counts written to BENCH_gc.json)\n");
  }

  bench::Table verify_table{
      "Early-exit verification (Section 2.2) on 4-component inputs",
      {"n", "verify_rounds", "full_gc_rounds", "early_exit"}};
  for (std::uint32_t n : {128u, 512u}) {
    Rng rng{n + 7};
    const auto g = random_components(n, 4, n / 2, rng);
    CliqueEngine ve{{.n = n}};
    Rng r1{1};
    const auto v = gc_verify_connectivity(ve, g, r1);
    CliqueEngine fe{{.n = n}};
    Rng r2{1};
    gc_spanning_forest(fe, g, r2);
    verify_table.row({bench::fmt(n), bench::fmt(ve.metrics().rounds),
                      bench::fmt(fe.metrics().rounds),
                      v.early_exit ? "yes" : "no"});
    bench::expect(!v.connected, "4-component input must be rejected");
  }
  verify_table.print();

  std::printf("\nShape check: boruvka_phases ~ log2(n) grows visibly; "
              "lotker_rounds ~ 5*loglog(n)\nand gc_phases ~ logloglog(n)+3 "
              "are both tiny and nearly flat at these n (their\nseparation "
              "is asymptotic); wide_rounds stays constant.\n");
  return 0;
}
