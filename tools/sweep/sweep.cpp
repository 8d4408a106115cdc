// Theory-conformance sweep driver (tools/report/theory_check.py is the
// consumer; the registry of envelopes lives in bench/baselines/bounds.json).
//
// Runs every algorithm family the bound registry covers over a geometric
// grid of n (and, for GC, edge densities), with one schema-2 NDJSON trace
// file per grid point:
//
//   <out>/gc-n<e>-d<d>.ndjson        gc_spanning_forest on G(n, d*n extra)
//   <out>/gc-sketch-n<e>.ndjson      same, phase_override=1 so Phase 2
//                                    (Theorem 1 sketches) actually runs
//   <out>/lotker-n<e>.ndjson         cc_mst per-phase on a weighted clique
//   <out>/kt1-mst-n<e>.ndjson        boruvka_sketch_mst on G(n, 4n extra)
//   <out>/manifest.json              the grid, in emission order
//
// Each point file starts with one "sweep" record (the grid coordinates,
// deterministic seed, engine totals, and family-specific observables like
// Lotker's per-phase minimum cluster sizes) followed by the full trace
// export carrying "bound" records for every theorem tag of the family.
// Seeds are pure functions of the grid coordinates, and everything below
// derives from the deterministic engine counters, so two sweeps of the
// same source tree are byte-identical — docs_bounds_fresh relies on this.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "clique/engine.hpp"
#include "clique/load_profile.hpp"
#include "clique/trace.hpp"
#include "clique/trace_export.hpp"
#include "convert/k_machine.hpp"
#include "core/gc.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/sequential.hpp"
#include "graph/verify.hpp"
#include "kt1/boruvka_sketch_mst.hpp"
#include "lotker/cc_mst.hpp"
#include "util/random.hpp"

namespace {

using namespace ccq;

struct Manifest {
  std::vector<std::string> lines;
};

/// A traced engine + profile for one grid point.
struct Instrumented {
  CliqueEngine engine;
  Trace trace;
  LoadProfile profile;

  explicit Instrumented(std::uint32_t n) : engine{{.n = n}} {
    engine.set_trace(&trace);
    engine.set_load_profile(&profile);
  }
};

std::ofstream open_point(const std::filesystem::path& dir,
                         const std::string& file) {
  std::ofstream out{dir / file};
  if (!out)
    throw std::runtime_error("ccq_sweep: cannot open " + (dir / file).string());
  return out;
}

void finish_point(std::ofstream& out, const Instrumented& inst,
                  const std::vector<BoundTag>& tags, Manifest& manifest,
                  const std::string& file, const char* algo, std::uint32_t n,
                  std::size_t m, std::uint32_t density) {
  write_trace_ndjson(inst.trace, out, {.bound_tags = tags});
  if (!out) throw std::runtime_error("ccq_sweep: write failed: " + file);
  manifest.lines.push_back("{\"file\":\"" + file + "\",\"algo\":\"" + algo +
                           "\",\"n\":" + std::to_string(n) +
                           ",\"m\":" + std::to_string(m) +
                           ",\"density\":" + std::to_string(density) + "}");
}

/// Common prefix of every "sweep" record: grid coordinates + engine totals.
void sweep_record_head(std::ofstream& out, const char* algo, std::uint32_t n,
                       std::size_t m, std::uint32_t density,
                       std::uint64_t seed, const Metrics& metrics) {
  out << "{\"type\":\"sweep\",\"algo\":\"" << algo << "\",\"n\":" << n
      << ",\"m\":" << m << ",\"density\":" << density << ",\"seed\":" << seed
      << ",\"rounds\":" << metrics.rounds
      << ",\"messages\":" << metrics.messages
      << ",\"words\":" << metrics.words;
}

void run_gc(const std::filesystem::path& dir, Manifest& manifest,
            std::uint32_t n, std::uint32_t density) {
  const std::uint64_t seed = static_cast<std::uint64_t>(n) * 1000 + density;
  Rng rng{seed};
  const Graph g =
      random_connected(n, static_cast<std::size_t>(density) * n, rng);
  Instrumented inst{n};
  const GcResult result = gc_spanning_forest(inst.engine, g, rng);
  const bool forest_ok =
      result.connected && result.forest.size() == std::size_t{n} - 1;

  const std::string file = "gc-n" + std::to_string(n) + "-d" +
                           std::to_string(density) + ".ndjson";
  std::ofstream out = open_point(dir, file);
  sweep_record_head(out, "gc", n, g.num_edges(), density, seed,
                    inst.engine.metrics());
  out << ",\"forest_ok\":" << (forest_ok ? "true" : "false")
      << ",\"lotker_phases\":" << result.lotker_phases << "}\n";
  finish_point(out, inst, {{"T4", "gc"}, {"T10", "gc"}}, manifest, file,
               "gc", n, g.num_edges(), density);
}

void run_gc_sketch(const std::filesystem::path& dir, Manifest& manifest,
                   std::uint32_t n) {
  // At sweep scale REDUCECOMPONENTS alone finishes the forest and Phase 2
  // never runs, so the Theorem 1 / SKETCHANDSPAN envelope would have no
  // instances. Forcing a single Lotker phase (phase_override = 1) leaves
  // unfinished trees and puts the sketch path under load — the same device
  // EXPERIMENTS.md's ablations use.
  const std::uint64_t seed = static_cast<std::uint64_t>(n) * 1000 + 21;
  Rng rng{seed};
  const Graph g = random_connected(n, std::size_t{2} * n, rng);
  Instrumented inst{n};
  const GcResult result = gc_spanning_forest(inst.engine, g, rng,
                                             /*phase_override=*/1);
  const bool forest_ok =
      result.connected && result.forest.size() == std::size_t{n} - 1;

  const std::string file = "gc-sketch-n" + std::to_string(n) + ".ndjson";
  std::ofstream out = open_point(dir, file);
  sweep_record_head(out, "gc-sketch", n, g.num_edges(), 2, seed,
                    inst.engine.metrics());
  out << ",\"forest_ok\":" << (forest_ok ? "true" : "false")
      << ",\"unfinished_trees\":" << result.unfinished_trees_after_phase1
      << "}\n";
  finish_point(out, inst, {{"T1", "gc/sketch-span"}}, manifest, file,
               "gc-sketch", n, g.num_edges(), 2);
}

void run_lotker(const std::filesystem::path& dir, Manifest& manifest,
                std::uint32_t n) {
  const std::uint64_t seed = static_cast<std::uint64_t>(n) * 10 + 7;
  Rng rng{seed};
  const WeightedGraph g = random_weighted_clique(n, rng);
  const FiniteAdjacency input{CliqueWeights::from_graph(g)};
  Instrumented inst{n};
  // Drive phases one at a time so the per-phase cluster-growth invariant
  // (Theorem 2: min cluster size >= 2^(2^(k-1)) after phase k) is
  // observable from the sweep record, not just the final state.
  LotkerState state = cc_mst_initial_state(n);
  std::vector<std::uint32_t> min_sizes;
  while (state.num_clusters() > 1) {
    if (cc_mst_step(inst.engine, input, state) == 0) break;
    min_sizes.push_back(state.min_cluster_size());
  }
  const bool mst_ok = verify_msf(g, state.tree_edges).ok;

  const std::string file = "lotker-n" + std::to_string(n) + ".ndjson";
  std::ofstream out = open_point(dir, file);
  sweep_record_head(out, "lotker", n, g.num_edges(), 0, seed,
                    inst.engine.metrics());
  out << ",\"mst_ok\":" << (mst_ok ? "true" : "false")
      << ",\"phases\":" << state.phases_run << ",\"min_cluster_size\":[";
  for (std::size_t i = 0; i < min_sizes.size(); ++i) {
    if (i > 0) out << ",";
    out << min_sizes[i];
  }
  out << "]}\n";
  finish_point(out, inst, {{"T2", "lotker/phase"}}, manifest, file, "lotker",
               n, g.num_edges(), 0);
}

void run_kt1(const std::filesystem::path& dir, Manifest& manifest,
             std::uint32_t n) {
  const std::uint64_t seed = static_cast<std::uint64_t>(n) * 100 + 13;
  Rng rng{seed};
  const WeightedGraph g = random_weights(
      random_connected(n, std::size_t{4} * n, rng), Weight{1} << 26, rng);
  Instrumented inst{n};
  const BoruvkaSketchResult result = boruvka_sketch_mst(inst.engine, g, rng);
  const bool mst_ok = result.monte_carlo_ok &&
                      total_weight(result.mst) == total_weight(kruskal_msf(g));
  const KMachineEstimate km = k_machine_cost(inst.engine.metrics(), 16);

  const std::string file = "kt1-mst-n" + std::to_string(n) + ".ndjson";
  std::ofstream out = open_point(dir, file);
  sweep_record_head(out, "kt1-mst", n, g.num_edges(), 4, seed,
                    inst.engine.metrics());
  out << ",\"mst_ok\":" << (mst_ok ? "true" : "false")
      << ",\"phases\":" << result.phases
      << ",\"kmachine16_total\":" << km.total << "}\n";
  finish_point(out, inst, {{"T13", "kt1-mst"}, {"T10", "kt1-mst"}}, manifest,
               file, "kt1-mst", n, g.num_edges(), 4);
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path out_dir = "sweep";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--out DIR]\n", argv[0]);
      return 2;
    }
  }
  try {
    std::filesystem::create_directories(out_dir);
    Manifest manifest;
    for (const std::uint32_t n : {64u, 128u, 256u, 512u})
      for (const std::uint32_t density : {2u, 4u, 8u})
        run_gc(out_dir, manifest, n, density);
    for (const std::uint32_t n : {64u, 128u, 256u, 512u})
      run_gc_sketch(out_dir, manifest, n);
    for (const std::uint32_t n : {16u, 32u, 64u, 128u, 256u})
      run_lotker(out_dir, manifest, n);
    for (const std::uint32_t n : {64u, 128u, 256u}) run_kt1(out_dir, manifest, n);

    std::ofstream mf{out_dir / "manifest.json"};
    mf << "{\"grid\":\"v1\",\"points\":[\n";
    for (std::size_t i = 0; i < manifest.lines.size(); ++i)
      mf << "  " << manifest.lines[i]
         << (i + 1 < manifest.lines.size() ? "," : "") << "\n";
    mf << "]}\n";
    if (!mf) throw std::runtime_error("ccq_sweep: cannot write manifest.json");
    std::printf("ccq_sweep: %zu points -> %s\n", manifest.lines.size(),
                out_dir.string().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ccq_sweep: %s\n", e.what());
    return 1;
  }
  return 0;
}
