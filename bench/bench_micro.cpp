// Micro-benchmarks (google-benchmark) for the hot substrate operations:
// field arithmetic, k-wise hashing, sketch updates/addition/sampling,
// union-find, and the routing edge-coloring. These are engineering
// benchmarks (wall-clock of the simulator), not reproductions of paper
// quantities — those live in the bench_* table binaries.
//
// The binary first prints a serial-vs-parallel engine round-throughput
// table (and writes it to BENCH_engine.json for machine consumption) so
// the perf trajectory of the clique engine is tracked across PRs, then
// runs the google-benchmark suite.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#include "bench_util.hpp"
#include "clique/engine.hpp"
#include "comm/routing.hpp"
#include "comm/sorting.hpp"
#include "graph/generators.hpp"
#include "graph/sequential.hpp"
#include "graph/union_find.hpp"
#include "hash/kwise.hpp"
#include "sketch/graph_sketch.hpp"
#include "util/field.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace ccq {
namespace {

// --- Engine round throughput: lane scaling (the tentpole metric) ---------
//
// The engine has one delivery path (the packed arena); two modes isolate
// the remaining lever, sharding:
//   serial    threads=1
//   parallel  threads=0 (auto lanes, the default config)
// The grid runs n up to 4096 so the messages/sec column exposes cache-
// footprint cliffs (the cache-blocked placement pass keeps the large-n
// arenas from degrading monotonically).

struct EngineMode {
  const char* name;
  std::uint32_t threads;
};

inline constexpr EngineMode kEngineModes[] = {
    {"serial", 1},
    {"parallel", 0},
};

struct EngineBenchRow {
  std::uint32_t n;
  const char* mode;
  double rounds_per_sec;
  double messages_per_sec;
};

EngineBenchRow measure_engine_round(std::uint32_t n, const EngineMode& mode) {
  CliqueEngine engine{{.n = n, .threads = mode.threads}};
  const auto all_to_all = [n](VertexId u, Outbox& out) {
    for (VertexId v = 0; v < n; ++v)
      if (v != u) out.send(v, msg1(0, u));
  };
  engine.round_arena(all_to_all);  // warm-up: pool spawn + arena sizing
  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  std::uint64_t rounds = 0;
  double elapsed = 0;
  do {
    engine.round_arena(all_to_all);
    ++rounds;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < 0.25);
  const double msgs = static_cast<double>(rounds) * n * (n - 1);
  return {n, mode.name, static_cast<double>(rounds) / elapsed,
          msgs / elapsed};
}

void engine_round_table() {
  const unsigned hw = ThreadPool::hardware_threads();
  std::vector<EngineBenchRow> rows;
  char buf[64];
  std::snprintf(buf, sizeof(buf),
                "Engine round throughput (all-to-all, hw threads: %u)", hw);
  bench::Table table{buf, {"n", "mode", "rounds/sec", "messages/sec",
                           "speedup"}};
  for (std::uint32_t n : {256u, 512u, 1024u, 2048u, 4096u}) {
    double serial_mps = 0;
    for (const EngineMode& mode : kEngineModes) {
      const auto row = measure_engine_round(n, mode);
      rows.push_back(row);
      if (serial_mps == 0) serial_mps = row.messages_per_sec;
      char rps[32], mps[32], speedup[32];
      std::snprintf(rps, sizeof(rps), "%.1f", row.rounds_per_sec);
      std::snprintf(mps, sizeof(mps), "%.3e", row.messages_per_sec);
      std::snprintf(speedup, sizeof(speedup), "%.2fx",
                    serial_mps > 0 ? row.messages_per_sec / serial_mps : 1.0);
      table.row({std::to_string(n), row.mode, rps, mps, speedup});
    }
  }
  table.print();
  std::ofstream json("BENCH_engine.json");
  json << "{\n  \"benchmark\": \"engine_round_all_to_all\",\n"
       << "  \"hardware_threads\": " << hw << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i)
    json << "    {\"n\": " << rows[i].n << ", \"mode\": \"" << rows[i].mode
         << "\", \"rounds_per_sec\": " << rows[i].rounds_per_sec
         << ", \"messages_per_sec\": " << rows[i].messages_per_sec << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  json << "  ]\n}\n";
  std::printf("(table written to BENCH_engine.json)\n\n");
}

void BM_EngineRoundArena(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto threads = static_cast<std::uint32_t>(state.range(1));
  CliqueEngine engine{{.n = n, .threads = threads}};
  const auto all_to_all = [n](VertexId u, Outbox& out) {
    for (VertexId v = 0; v < n; ++v)
      if (v != u) out.send(v, msg1(0, u));
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.round_arena(all_to_all));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          (n - 1));
}
BENCHMARK(BM_EngineRoundArena)
    ->Args({512, 1})
    ->Args({1024, 1})
    ->Args({1024, 0});

void BM_EngineFusedWindow(benchmark::State& state) {
  // k fused static rounds vs k generic rounds of the same schedule: the
  // win is one arena pass (one counting sort, one placement) per window.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto k = static_cast<std::uint32_t>(state.range(1));
  const bool fused = state.range(2) != 0;
  CliqueEngine engine{{.n = n, .threads = 1}};
  const auto schedule = [n](VertexId u, std::uint32_t r, Outbox& out) {
    for (VertexId v = 0; v < n; ++v)
      if (v != u) out.send(v, msg1(r, u));
  };
  for (auto _ : state) {
    if (fused) {
      benchmark::DoNotOptimize(engine.fused_rounds_arena(k, schedule));
    } else {
      for (std::uint32_t r = 0; r < k; ++r)
        benchmark::DoNotOptimize(engine.round_arena(
            [&](VertexId u, Outbox& out) { schedule(u, r, out); }));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          (n - 1) * k);
}
BENCHMARK(BM_EngineFusedWindow)
    ->Args({512, 4, 0})
    ->Args({512, 4, 1})
    ->Args({1024, 4, 0})
    ->Args({1024, 4, 1});

void BM_FieldMul(benchmark::State& state) {
  Rng rng{1};
  const auto a = field::canon(rng.next());
  auto b = field::canon(rng.next());
  for (auto _ : state) {
    b = field::mul(a, b);
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_FieldMul);

void BM_FieldPow(benchmark::State& state) {
  Rng rng{2};
  const auto base = field::canon(rng.next());
  std::uint64_t e = 12345678;
  for (auto _ : state) {
    benchmark::DoNotOptimize(field::pow(base, e));
    ++e;
  }
}
BENCHMARK(BM_FieldPow);

void BM_KwiseHashEval(benchmark::State& state) {
  Rng rng{3};
  const auto h = KwiseHash::random(static_cast<std::size_t>(state.range(0)),
                                   rng);
  std::uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h(x++));
  }
}
BENCHMARK(BM_KwiseHashEval)->Arg(2)->Arg(8)->Arg(16);

void BM_SketchUpdate(benchmark::State& state) {
  Rng rng{4};
  const std::uint32_t n = 1024;
  const auto words = rng.words(SketchSpace::seed_words_needed(n, 1));
  const SketchSpace space{n, 1, words};
  L0Sketch s{space.family(0)};
  std::uint64_t i = 0;
  const std::uint64_t universe = static_cast<std::uint64_t>(n) * n;
  for (auto _ : state) {
    s.update((i * 2654435761u + 1) % universe, (i & 1) ? 1 : -1);
    ++i;
  }
}
BENCHMARK(BM_SketchUpdate);

void BM_SketchAddAndSample(benchmark::State& state) {
  Rng rng{5};
  const std::uint32_t n = 1024;
  const auto words = rng.words(SketchSpace::seed_words_needed(n, 1));
  const SketchSpace space{n, 1, words};
  L0Sketch a{space.family(0)};
  L0Sketch b{space.family(0)};
  for (int i = 0; i < 100; ++i) {
    a.update(rng.next_below(1024 * 1024), 1);
    b.update(rng.next_below(1024 * 1024), 1);
  }
  for (auto _ : state) {
    L0Sketch c = a;
    c += b;
    benchmark::DoNotOptimize(c.sample());
  }
}
BENCHMARK(BM_SketchAddAndSample);

void BM_UnionFind(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng{6};
  for (auto _ : state) {
    UnionFind uf{n};
    for (std::size_t i = 0; i + 1 < n; ++i)
      uf.unite(rng.next_below(n), rng.next_below(n));
    benchmark::DoNotOptimize(uf.num_components());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_UnionFind)->Arg(1 << 10)->Arg(1 << 14);

// Sender/receiver pairs on an n-node clique for the routing benchmarks.
// With hot > 0, 7/8 of the pairs land on receivers 0..hot-1: the SQ-MST
// guardian shape, whose receivers carry load far above n.
std::vector<std::pair<std::uint32_t, std::uint32_t>> routing_pairs(
    std::int64_t count, std::uint32_t n, std::uint32_t hot, Rng& rng) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::int64_t i = 0; i < count; ++i) {
    const auto src = static_cast<std::uint32_t>(rng.next_below(n));
    const auto dst = static_cast<std::uint32_t>(
        hot > 0 && rng.next_below(8) != 0 ? rng.next_below(hot)
                                          : rng.next_below(n));
    pairs.emplace_back(src, dst);
  }
  return pairs;
}

// Args: {edges, n, hot receivers}.
void BM_EdgeColoring(benchmark::State& state) {
  Rng rng{7};
  const auto n = static_cast<std::uint32_t>(state.range(1));
  const auto edges = routing_pairs(
      state.range(0), n, static_cast<std::uint32_t>(state.range(2)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wave_edge_coloring(edges, n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EdgeColoring)
    ->Args({1000, 64, 0})
    ->Args({10000, 64, 0})
    ->Args({100000, 512, 4});

/// Routes `packets` on a fresh n-node engine and arena per iteration.
void route_packets_loop(benchmark::State& state, std::uint32_t n,
                        const std::vector<Packet>& packets) {
  for (auto _ : state) {
    CliqueEngine engine{{.n = n}};
    RoundBuffer inbox;
    route_packets_into(engine, packets, inbox);
    benchmark::DoNotOptimize(inbox);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(packets.size()));
}

// Args: {packets, n, hot receivers}.
void BM_RoutePackets(benchmark::State& state) {
  Rng rng{9};
  const auto n = static_cast<std::uint32_t>(state.range(1));
  std::vector<Packet> packets;
  for (const auto& [src, dst] : routing_pairs(
           state.range(0), n, static_cast<std::uint32_t>(state.range(2)),
           rng))
    packets.push_back({src, dst, msg1(0, packets.size())});
  route_packets_loop(state, n, packets);
}
BENCHMARK(BM_RoutePackets)
    ->Args({1000, 64, 0})
    ->Args({10000, 64, 0})
    ->Args({100000, 512, 4});

/// The route shapes of one oneshot EXACT-MST job on a 512-clique.
void register_route_shapes() {
  constexpr std::uint32_t n = 512;
  // The sort: 4096 packets, 8 per sender, into 42 bucket owners (receiver
  // degree ~97).
  benchmark::RegisterBenchmark("BM_RoutePackets/sort_4k", [](auto& state) {
    Rng rng{12};
    std::vector<Packet> packets;
    for (std::uint32_t i = 0; i < 4096; ++i)
      packets.push_back({i % n, static_cast<VertexId>(rng.next_below(42)),
                         msg1(0, i)});
    route_packets_loop(state, n, packets);
  });
  // The MST collect: 2048 packets from every other node into node 0.
  benchmark::RegisterBenchmark("BM_RoutePackets/gather_2k", [](auto& state) {
    std::vector<Packet> packets;
    for (std::uint32_t i = 0; i < 2048; ++i)
      packets.push_back({1 + i % (n - 1), 0, msg1(0, i)});
    route_packets_loop(state, n, packets);
  });
  // The SQ-MST sketch route: uniform bundles, every node ships runs of 256
  // equal packets to 4 distinct receivers, 524,288 packets in all.
  benchmark::RegisterBenchmark("BM_RoutePackets/sketch_512k", [](auto& state) {
    Rng rng{13};
    std::vector<Packet> packets;
    for (VertexId src = 0; src < n; ++src) {
      std::vector<VertexId> to;
      while (to.size() < 4) {
        const auto d = static_cast<VertexId>(rng.next_below(n));
        if (std::find(to.begin(), to.end(), d) == to.end()) to.push_back(d);
      }
      for (VertexId dst : to)
        for (std::uint32_t j = 0; j < 256; ++j)
          packets.push_back({src, dst, msg1(0, j)});
    }
    route_packets_loop(state, n, packets);
  })->Unit(benchmark::kMillisecond);
}

void BM_DistributedSort(benchmark::State& state) {
  const std::uint32_t n = 32;
  Rng gen{10};
  std::vector<std::vector<std::uint64_t>> keys(n);
  for (int i = 0; i < state.range(0); ++i)
    keys[static_cast<std::size_t>(i) % n].push_back(gen.next());
  for (auto _ : state) {
    CliqueEngine engine{{.n = n}};
    Rng rng{11};
    benchmark::DoNotOptimize(distributed_sort_ranks(engine, keys, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DistributedSort)->Arg(1000)->Arg(8000);

void BM_KruskalClique(benchmark::State& state) {
  Rng rng{8};
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto g = random_weighted_clique(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kruskal_msf(g));
  }
}
BENCHMARK(BM_KruskalClique)->Arg(64)->Arg(256);

}  // namespace

/// Exposed to main() below (anonymous-namespace internals stay internal).
void run_engine_round_table() { engine_round_table(); }
void register_micro_benchmarks() { register_route_shapes(); }

}  // namespace ccq

int main(int argc, char** argv) {
  ccq::bench::init(argc, argv, "bench_micro");
  ccq::run_engine_round_table();
  ccq::register_micro_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
