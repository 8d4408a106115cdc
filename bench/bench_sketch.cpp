// Experiment T1 (Theorem 1): sketch construction costs and sampler quality.
//
// Reproduces: (a) the shared-randomness protocol runs in O(1) rounds (the
// number of broadcast waves is ceil(seed_words / n), constant once n
// exceeds the polylog seed size); (b) each sketch is O(log^4 n) bits
// (we report exact serialized bits = 64 * 3 * levels, with levels =
// Θ(log n) — the paper's O(log^4 n) bound counts the Cormode–Firmani
// bucket tables; our per-level 1-sparse detector realization is smaller,
// which only strengthens the routing-volume claims); (c) l0-sampling
// succeeds with constant probability per copy and returns a genuine cut
// edge, so Θ(log n) copies give w.h.p. success — the ablation sweeps the
// copy count t and shows the success cliff.
#include <cmath>
#include <cstdio>
#include <set>

#include "bench_util.hpp"
#include "comm/shared_random.hpp"
#include "graph/generators.hpp"
#include "sketch/graph_sketch.hpp"

using namespace ccq;

int main(int argc, char** argv) {
  ccq::bench::init(argc, argv, "bench_sketch");
  std::printf("T1 / Theorem 1 — linear sketches: construction rounds, size, "
              "sampler success\n");

  bench::Table size_table{
      "Sketch construction (per n)",
      {"n", "copies(t)", "seed_words", "seed_rounds", "sketch_bits",
       "bits/log^4(n)"}};
  std::uint64_t prev_rounds = ~0ull;
  for (std::uint32_t n : {64u, 256u, 1024u, 4096u}) {
    Rng rng{n};
    const std::uint32_t t = default_sketch_copies(n);
    const auto need = SketchSpace::seed_words_needed(n, t);
    CliqueEngine engine{{.n = n}};
    const auto seed = shared_random_words(engine, need, rng);
    const SketchSpace space{n, t, seed};
    const double log_n = std::log2(static_cast<double>(n));
    const double bits = 64.0 * static_cast<double>(space.sketch_words());
    size_table.row({bench::fmt(n), bench::fmt(t), bench::fmt(need),
                    bench::fmt(engine.metrics().rounds),
                    bench::fmt_double(bits, 0),
                    bench::fmt_double(bits / std::pow(log_n, 4), 4)});
    // Rounds = ceil(seed_words / n) broadcast waves: a Θ(log^2 n / n) term
    // that is O(1) — and in fact shrinking to 1 — once n exceeds the
    // polylog seed size.
    bench::expect(engine.metrics().rounds <= prev_rounds,
                  "seed-broadcast waves must shrink as n grows");
    prev_rounds = engine.metrics().rounds;
    if (n >= 1024)
      bench::expect(engine.metrics().rounds <= 2,
                    "shared randomness is O(1) rounds at scale");
  }
  size_table.print();

  bench::Table success{"l0-sampler success rate (per single sketch copy)",
                       {"n", "graph_edges", "trials", "success", "valid_edge"}};
  for (std::uint32_t n : {64u, 256u}) {
    Rng rng{n + 1};
    const auto g = random_connected(n, 3 * n, rng);
    const std::uint32_t trials = 300;
    std::uint32_t ok = 0;
    std::uint32_t valid = 0;
    for (std::uint32_t trial = 0; trial < trials; ++trial) {
      const auto words = rng.words(SketchSpace::seed_words_needed(n, 1));
      const SketchSpace space{n, 1, words};
      // Sketch a random vertex's neighbourhood and sample from it.
      const auto v = static_cast<VertexId>(rng.next_below(n));
      std::vector<Edge> incident;
      for (VertexId w : g.neighbors(v)) incident.emplace_back(v, w);
      if (incident.empty()) continue;
      const auto sketches = space.sketch_vertex(v, incident);
      const auto sample = sketches[0].sample();
      if (!sample) continue;
      ++ok;
      const Edge e = edge_from_index(sample->index, n);
      if (g.has_edge(e.u, e.v) && (e.u == v || e.v == v)) ++valid;
    }
    success.row({bench::fmt(n), bench::fmt(g.num_edges()),
                 bench::fmt(trials), bench::fmt_double(1.0 * ok / trials, 3),
                 bench::fmt_double(ok == 0 ? 0.0 : 1.0 * valid / ok, 3)});
    bench::expect(ok > trials / 2, "per-copy sampler success must be > 1/2");
    bench::expect(valid == ok, "every sample must be a genuine incident edge");
  }
  success.print();

  // Ablation: the Θ(log n) copy budget. With too few copies the sketch
  // Borůvka stalls; the default budget never does.
  bench::Table ablation{"Ablation: sketch copies t vs Borůvka completion",
                        {"n", "t", "runs", "completed", "stalled"}};
  const std::uint32_t n = 128;
  for (std::uint32_t t : {2u, 4u, 8u, default_sketch_copies(n)}) {
    std::uint32_t completed = 0;
    std::uint32_t stalled = 0;
    for (std::uint32_t run = 0; run < 20; ++run) {
      Rng rng{1000 + run};
      const auto g = random_connected(n, 2 * n, rng);
      const auto words = rng.words(SketchSpace::seed_words_needed(n, t));
      const SketchSpace space{n, t, words};
      std::vector<VertexId> identity(n);
      SketchArena sketches;
      for (VertexId v = 0; v < n; ++v) {
        identity[v] = v;
        std::vector<Edge> incident;
        for (VertexId w : g.neighbors(v)) incident.emplace_back(v, w);
        sketches.append(space.sketch_vertex(v, incident));
      }
      const auto result =
          sketch_spanning_forest(space, identity, identity, sketches.view());
      if (!result.ran_out_of_sketches && result.forest.size() == n - 1)
        ++completed;
      else
        ++stalled;
    }
    ablation.row({bench::fmt(n), bench::fmt(t), bench::fmt(20u),
                  bench::fmt(completed), bench::fmt(stalled)});
    if (t == default_sketch_copies(n))
      bench::expect(stalled == 0, "default copy budget must never stall");
  }
  ablation.print();

  // Ablation 2: detector layout — lean per-level detectors vs the
  // Cormode–Firmani multi-bucket tables (size/success trade-off).
  bench::Table layout{"Ablation: CF bucket count vs per-copy success "
                      "(universe 5000, support 150)",
                      {"buckets", "sketch_words", "success"}};
  for (std::uint32_t buckets : {1u, 2u, 4u, 8u}) {
    const auto params = SketchParams::cormode_firmani(5000, buckets);
    Rng rng{buckets};
    int ok = 0;
    const int trials = 250;
    for (int t = 0; t < trials; ++t) {
      Rng seed_rng{static_cast<std::uint64_t>(t) * 31 + buckets};
      const auto words = seed_rng.words(sketch_seed_words(params));
      const SketchFamily family{params, words};
      L0Sketch s{family};
      std::set<std::uint64_t> support;
      for (int i = 0; i < 150; ++i) {
        const std::uint64_t idx = rng.next_below(5000);
        if (support.insert(idx).second) s.update(idx, 1);
      }
      if (s.sample()) ++ok;
    }
    layout.row({bench::fmt(buckets),
                bench::fmt(L0Sketch::word_size(params)),
                bench::fmt_double(1.0 * ok / trials, 3)});
    if (buckets >= 4)
      bench::expect(ok > trials * 4 / 5,
                    "CF bucketing must push per-copy success above 0.8");
  }
  layout.print();
  return 0;
}
