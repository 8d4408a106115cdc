// oneshot: the paper's two pipelines end to end, input graph to forest.
//
// GC (Theorem 4: REDUCECOMPONENTS, then SKETCHANDSPAN) on
// random_connected(1024, 2n extra) and EXACT-MST (Theorem 7: CC-MST
// preprocessing, then KKT and SQ-MST) on random_weighted_clique(512) with
// phase_override=1, alternating in a closed loop with one client. Each job
// builds its own engine with auto lanes, so job time includes engine boot.
// Every forest is checked by the sequential oracles outside the timed
// region.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <optional>

#include "clique/engine.hpp"
#include "core/exact_mst.hpp"
#include "core/gc.hpp"
#include "graph/generators.hpp"
#include "graph/verify.hpp"
#include "lotker/cc_mst.hpp"
#include "workloads.hpp"

namespace ccqbench {
namespace {

constexpr std::uint32_t kGcN = 1024;
constexpr std::size_t kGcExtraEdges = 2 * kGcN;
constexpr std::uint32_t kMstN = 512;
// EXPERIMENTS.md's "honest proxy": one CC-MST phase leaves enough
// components for KKT and SQ-MST to carry load at executable n.
constexpr std::uint32_t kMstPhases = 1;
// Distinct input pairs per run; the loop cycles through them, so every
// pair that runs twice re-checks its exact model counts.
constexpr std::size_t kInputs = 7;
// Set-up repetitions (~0.7 s each); setup_s is their median.
constexpr int kSetupReps = 9;

enum class Kind { kGc = 0, kMst = 1 };

struct Counts {
  std::uint64_t rounds{0};
  std::uint64_t messages{0};
  std::uint64_t words{0};
  friend bool operator==(const Counts&, const Counts&) = default;
  std::string str() const {
    return std::to_string(rounds) + "/" + std::to_string(messages) + "/" +
           std::to_string(words);
  }
};

struct State {
  std::vector<ccq::Graph> gc;
  std::vector<ccq::WeightedGraph> mst_graph;  // oracle input
  std::vector<ccq::CliqueWeights> mst;        // algorithm input
  bool setup_ok{false};
  std::string digest;
  std::string fingerprint;
};

struct Job {
  std::uint64_t wall_ns{0};
  std::uint64_t boot_ns{0};  // engine construction + teardown
  std::uint64_t call_ns{0};  // the algorithm call itself
  Counts counts;
  bool ok{false};
};

std::uint64_t job_seed(std::uint64_t seed, Kind kind, std::size_t input) {
  return sub_seed(seed, 1000 + 2 * input + static_cast<std::size_t>(kind));
}

/// One job: boot an engine, run the algorithm, tear the engine down. The
/// oracle check runs after the clock stops.
Job run_job(const State& s, Kind kind, std::size_t input, std::uint64_t seed,
            ccq::Trace* trace, std::uint64_t rid) {
  Job job;
  std::optional<ccq::GcResult> gc;
  std::optional<ccq::ExactMstResult> mst;
  const std::uint64_t t0 = monotonic_ns();
  {
    SpanScope span{kind == Kind::kGc ? "oneshot.gc_job" : "oneshot.mst_job",
                   rid};
    std::unique_ptr<ccq::CliqueEngine> engine;
    {
      SpanScope boot{"clique.engine_boot"};
      ccq::EngineConfig config;
      config.n = kind == Kind::kGc ? kGcN : kMstN;
      engine = std::make_unique<ccq::CliqueEngine>(config);
    }
    const std::uint64_t t1 = monotonic_ns();
    engine->set_trace(trace);
    ccq::Rng rng{job_seed(seed, kind, input)};
    if (kind == Kind::kGc) {
      SpanScope call{"core.gc_spanning_forest"};
      gc = ccq::gc_spanning_forest(*engine, s.gc[input], rng);
    } else {
      SpanScope call{"core.exact_mst"};
      mst = ccq::exact_mst(*engine, s.mst[input], rng, kMstPhases);
    }
    const std::uint64_t t2 = monotonic_ns();
    engine->set_trace(nullptr);
    const ccq::Metrics& m = engine->metrics();
    job.counts = {m.rounds, m.messages, m.words};
    {
      SpanScope teardown{"clique.engine_teardown"};
      engine.reset();
    }
    job.call_ns = t2 - t1;
    job.boot_ns = (t1 - t0) + (monotonic_ns() - t2);
  }
  job.wall_ns = monotonic_ns() - t0;

  if (kind == Kind::kGc) {
    SpanScope check{"graph.verify_spanning_forest", rid};
    job.ok = gc->monte_carlo_ok && gc->connected &&
             ccq::verify_spanning_forest(s.gc[input], gc->forest).ok;
  } else {
    SpanScope check{"graph.verify_msf", rid};
    job.ok = mst->monte_carlo_ok &&
             ccq::verify_msf(s.mst_graph[input], mst->mst).ok;
  }
  return job;
}

std::unique_ptr<State> make_state(std::uint64_t seed) {
  auto s = std::make_unique<State>();
  {
    SpanScope span{"graph.generate_inputs"};
    ccq::Rng rng{sub_seed(seed, 1)};
    Digest d;
    for (std::size_t i = 0; i < kInputs; ++i) {
      s->gc.push_back(ccq::random_connected(kGcN, kGcExtraEdges, rng));
      for (const ccq::Edge& e : s->gc.back().edges())
        d.add(std::uint64_t{e.u} << 32 | e.v);
      s->mst_graph.push_back(ccq::random_weighted_clique(kMstN, rng));
      for (const ccq::WeightedEdge& e : s->mst_graph.back().edges()) {
        d.add(std::uint64_t{e.u} << 32 | e.v);
        d.add(e.w);
      }
      s->mst.push_back(ccq::CliqueWeights::from_graph(s->mst_graph.back()));
    }
    s->digest = d.hex();
  }
  // Warm pass: one GC job (thread pool spawn, first-touch allocation).
  const Job warm = run_job(*s, Kind::kGc, 0, seed, nullptr, 0);
  s->setup_ok = warm.ok;
  s->fingerprint = "input=" + s->digest + " warm_gc_counts=" +
                   warm.counts.str();
  return s;
}

struct Phase {
  std::vector<double> gc_ms;
  std::vector<double> mst_ms;
  std::uint64_t pairs{0};
  std::uint64_t job_ns{0};
  std::uint64_t messages{0};
  std::uint64_t verify_ns{0};
  std::uint64_t boot_ns{0};
  std::uint64_t call_gap_ns{0};  // call time outside the top trace scope
  std::map<std::string, std::uint64_t> self_ns;  // by layer (traced only)
};

class Loop {
 public:
  Loop(const State& s, std::uint64_t seed, Outcome& out)
      : s_(s), seed_(seed), out_(out) {}

  Phase run(double seconds, bool traced) {
    Phase p;
    const auto deadline =
        monotonic_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    do {
      const std::size_t input = next_pair_ % kInputs;
      for (const Kind kind : {Kind::kGc, Kind::kMst}) {
        ccq::Trace trace;
        const std::uint64_t rid = 2 * next_pair_ + 1 +
                                  static_cast<std::uint64_t>(kind);
        Job job;
        try {
          const std::uint64_t v0 = monotonic_ns();
          job = run_job(s_, kind, input, seed_, traced ? &trace : nullptr,
                        rid);
          p.verify_ns += monotonic_ns() - v0 - job.wall_ns;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "oneshot: job %llu threw: %s\n",
                       static_cast<unsigned long long>(rid), e.what());
        }
        release_free_memory();
        out_.check(job.ok);
        const double ms = ns_to_ms(job.wall_ns);
        note_job(kind, input, job.counts, ms);
        (kind == Kind::kGc ? p.gc_ms : p.mst_ms).push_back(ms);
        p.job_ns += job.wall_ns;
        p.messages += job.counts.messages;
        if (traced) {
          out_.engine_trace += ccq::trace_to_ndjson(trace, kWallTrace);
          add_self_times(trace, p.self_ns);
          std::uint64_t top = 0;
          for (const ccq::TraceEvent& e : trace.events())
            if (e.depth == 0) top += e.wall_ns;
          p.boot_ns += job.boot_ns;
          p.call_gap_ns += job.call_ns > top ? job.call_ns - top : 0;
        }
      }
      ++p.pairs;
      ++next_pair_;
    } while (monotonic_ns() < deadline);
    return p;
  }

  /// Exact counts of input pair 0 (rounds/messages/words, GC + MST).
  Counts pair0() const {
    Counts c;
    for (const Kind kind : {Kind::kGc, Kind::kMst}) {
      const auto it = counts_.find({kind, 0});
      if (it == counts_.end()) continue;
      c.rounds += it->second.rounds;
      c.messages += it->second.messages;
      c.words += it->second.words;
    }
    return c;
  }

  void print_counts() const {
    for (const auto& [key, c] : counts_)
      std::printf("counts: %s input=%zu rounds=%llu messages=%llu words=%llu "
                  "runs=%zu median_ms=%.1f\n",
                  key.first == Kind::kGc ? "gc" : "mst", key.second,
                  static_cast<unsigned long long>(c.rounds),
                  static_cast<unsigned long long>(c.messages),
                  static_cast<unsigned long long>(c.words),
                  times_.at(key).size(), median(times_.at(key)));
  }

 private:
  void note_job(Kind kind, std::size_t input, const Counts& c, double ms) {
    const auto [it, fresh] = counts_.try_emplace({kind, input}, c);
    if (!fresh && !(it->second == c))
      out_.problems.push_back(
          std::string("oneshot: exact counts changed on repeat of ") +
          (kind == Kind::kGc ? "gc" : "mst") + " input " +
          std::to_string(input) + ": " + it->second.str() + " vs " + c.str());
    times_[{kind, input}].push_back(ms);
  }

  const State& s_;
  std::uint64_t seed_;
  Outcome& out_;
  std::uint64_t next_pair_{0};
  std::map<std::pair<Kind, std::size_t>, Counts> counts_;
  std::map<std::pair<Kind, std::size_t>, std::vector<double>> times_;
};

/// Jobs per second of job time, for one kind.
double rate(const std::vector<double>& job_ms) {
  double total_ms = 0;
  for (const double ms : job_ms) total_ms += ms;
  return static_cast<double>(job_ms.size()) * 1e3 / total_ms;
}

/// Each time metric is the geometric mean of its GC and MST figures, so a
/// 2x slowdown of either pipeline moves it by sqrt(2) - 1 = 41%, although
/// a GC job takes a quarter of an MST job.
EndToEnd end_to_end(const Phase& p, double setup_s) {
  const auto geomean = [](double a, double b) { return std::sqrt(a * b); };
  EndToEnd e;
  e.setup_s = setup_s;
  e.peak_rss_mb = peak_rss_mb();
  e.op_ms_p50 = geomean(median(p.gc_ms), median(p.mst_ms));
  e.op_ms_p99 = geomean(quantile(p.gc_ms, 0.99), quantile(p.mst_ms, 0.99));
  e.ops_per_s = geomean(rate(p.gc_ms), rate(p.mst_ms));
  return e;
}

void add_layers(Outcome& out, const Phase& p, const Counts& pair0) {
  const double pairs = static_cast<double>(p.pairs);
  const auto per_pair = [&](std::uint64_t ns) {
    return ns_to_ms(ns) / pairs;
  };
  const auto layer = [&](const char* name) {
    const auto it = p.self_ns.find(name);
    return it == p.self_ns.end() ? std::uint64_t{0} : it->second;
  };
  out.metric("oneshot.gc_job_ms_p50", median(p.gc_ms), "ms");
  out.metric("oneshot.mst_job_ms_p50", median(p.mst_ms), "ms");
  const std::uint64_t lotker = layer("lotker.r1") + layer("lotker.r2r3") +
                               layer("lotker.r4r5") + layer("lotker.local") +
                               layer("lotker.self");
  out.metric("lotker.ms", per_pair(lotker), "ms");
  out.metric("lotker.r1.ms", per_pair(layer("lotker.r1")), "ms");
  out.metric("lotker.r2r3.ms", per_pair(layer("lotker.r2r3")), "ms");
  out.metric("lotker.r4r5.ms", per_pair(layer("lotker.r4r5")), "ms");
  out.metric("lotker.local.ms", per_pair(layer("lotker.local")), "ms");
  out.metric("lotker.self.ms", per_pair(layer("lotker.self")), "ms");
  out.metric("comm.route.ms", per_pair(layer("comm.route")), "ms");
  out.metric("comm.sort.ms", per_pair(layer("comm.sort")), "ms");
  out.metric("comm.spray.ms", per_pair(layer("comm.spray")), "ms");
  out.metric("core.sq_mst.self.ms", per_pair(layer("core.sq_mst")), "ms");
  out.metric("core.component_graph.ms",
             per_pair(layer("core.component_graph")), "ms");
  out.metric("core.sketch_and_span.ms",
             per_pair(layer("core.sketch_and_span")), "ms");
  out.metric("core.reduce_components.self.ms",
             per_pair(layer("core.reduce_components")), "ms");
  out.metric("core.gc.self.ms", per_pair(layer("core.gc")), "ms");
  out.metric("core.exact_mst.self.ms", per_pair(layer("core.exact_mst")),
             "ms");
  // Call time outside the top trace scope: the entry function's own code,
  // which no scope covers. It is reported, not counted as attributed.
  out.metric("core.entry.ms", per_pair(p.call_gap_ns), "ms");
  out.metric("clique.boot.ms", per_pair(p.boot_ns), "ms");
  out.metric("graph.verify.ms", per_pair(p.verify_ns), "ms");
  // Time covered by named scopes: engine boot (timed around the
  // constructor and destructor) plus every trace scope whose layer is known.
  std::uint64_t named = p.boot_ns;
  for (const auto& [name, ns] : p.self_ns)
    if (name != "other") named += ns;
  out.metric("oneshot.attributed_ratio",
             static_cast<double>(named) / static_cast<double>(p.job_ns),
             "ratio");
  out.metric("clique.rounds", static_cast<double>(pair0.rounds), "count");
  out.metric("clique.messages", static_cast<double>(pair0.messages), "count");
  out.metric("clique.words", static_cast<double>(pair0.words), "count");
  out.metric("clique.messages_per_s",
             static_cast<double>(p.messages) * 1e9 /
                 static_cast<double>(p.job_ns),
             "1/s");
}

}  // namespace

Outcome run_oneshot(const Options& opt) {
  // A fixed mmap threshold, set before any engine lane exists. Under glibc's
  // adaptive threshold a freed routing buffer raises the threshold, later
  // ones land on the heap, and the peak RSS then depends on the order of
  // frees: 3 seeds in 10 peaked at 181-187 MiB, the rest at 134-151 MiB.
  // With the threshold fixed, large buffers go back to the OS when freed.
  // In 5 interleaved pairs of runs at the same seeds this did not slow the
  // jobs (numbers in README.md, "End-to-end metrics").
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  Outcome out;
  SetupTimes setup;
  const std::unique_ptr<State> state = run_setup<State>(
      opt, kSetupReps, [&] { return make_state(opt.seed); }, out, setup);
  out.check(state->setup_ok);
  std::printf("digest: oneshot seed=%llu input=%s\n",
              static_cast<unsigned long long>(opt.seed),
              state->digest.c_str());

  Loop loop{*state, opt.seed, out};
  if (!opt.trace) {
    const Phase p = loop.run(opt.seconds, false);
    add_end_to_end(out, end_to_end(p, setup.untraced_s));
  } else {
    const Phase base = loop.run(opt.seconds / 2, false);
    const EndToEnd untraced = end_to_end(base, setup.untraced_s);
    SpanLog::global().enable(true);
    const Phase traced = loop.run(opt.seconds / 2, true);
    SpanLog::global().enable(false);
    add_layers(out, traced, loop.pair0());
    add_tracing_overhead(out, untraced, end_to_end(traced, setup.traced_s));
  }
  loop.print_counts();
  return out;
}

}  // namespace ccqbench
