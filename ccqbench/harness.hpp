// Shared plumbing for the ccqbench workloads: statistics, input digests,
// the benchmark-side span log, engine-trace layer attribution, the result
// record and the environment stamp.
//
// Everything here observes the library from outside: spans wrap calls into
// public functions, and per-layer engine time comes from the existing
// clique/trace sink (TraceEvent::wall_ns). Nothing in src/ is instrumented
// for the benchmark's sake.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "clique/trace.hpp"
#include "clique/trace_export.hpp"
#include "util/clock.hpp"

namespace ccqbench {

using ccq::monotonic_ns;

inline double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{20.0};
  bool trace{false};
  std::string out_dir;  // where spans / engine traces / result files go
};

/// Derive an independent 64-bit seed for one input stream of a run.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

// ------------------------------------------------------------- statistics

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Tail percentile that one bad second cannot swing: the median, over
/// consecutive chunks of `chunk` samples (in time order), of each chunk's
/// q-quantile. Falls back to the plain quantile below two chunks.
double chunked_quantile(const std::vector<double>& in_time_order,
                        std::size_t chunk, double q);

/// Samples per chunk for the tail percentiles: p99 of 1000 samples has 10
/// beyond it.
inline constexpr std::size_t kTailChunk = 1000;

// ----------------------------------------------------------------- digest

/// Order-sensitive 64-bit digest of seed-generated inputs.
class Digest {
 public:
  void add(std::uint64_t word);
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

// ---------------------------------------------------------------- process

/// Peak resident set size of this process so far, MiB.
double peak_rss_mb();

/// Hardware threads available to the process.
unsigned nproc();

/// Hand freed heap memory back to the OS (all malloc arenas), so peak RSS
/// tracks live data rather than allocator history. Called between jobs and
/// set-up repetitions, never inside a timed region.
void release_free_memory();

// ------------------------------------------------------------------ spans

/// One benchmark-side span: a call the harness made into a library layer.
struct Span {
  const char* name{""};  // string literal, "<layer>.<call>"
  std::uint64_t id{0};
  std::uint64_t parent{0};  // 0 = root
  std::uint64_t rid{0};     // request / job id shared by a request's spans
  std::uint32_t thread{0};
  std::uint64_t start_ns{0};
  std::uint64_t end_ns{0};
};

/// In-memory span store, one append-only buffer per recording thread; it is
/// written out once, when the run ends. Disabled (the untraced run), every
/// operation is a single branch.
class SpanLog {
 public:
  static SpanLog& global();

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Record a finished span with explicit times, under the innermost open
  /// SpanScope of the calling thread.
  void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint64_t rid);

  /// All spans recorded so far, every thread, in id order.
  std::vector<Span> collect() const;
  /// NDJSON, one span per line.
  void write_ndjson(const std::string& path) const;

  struct Buffer;  // one recording thread's spans (harness.cpp)

 private:
  friend class SpanScope;
  Buffer& local();
  std::uint64_t next_id();

  bool enabled_{false};
};

/// RAII span around one call; nests under the innermost open SpanScope of
/// the same thread.
class SpanScope {
 public:
  SpanScope(const char* name, std::uint64_t rid = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_;
  std::uint64_t rid_;
  std::uint64_t id_{0};
  std::uint64_t parent_{0};
  std::uint64_t start_{0};
};

// ------------------------------------------------- engine-trace attribution

/// Repository layer a clique/trace scope path of the one-shot algorithms
/// belongs to, named after the module that opens the scope ("lotker.r1",
/// "comm.route", "core.sq_mst", ...). Unknown scopes map to "other".
std::string layer_of(std::string_view path);

/// Add every closed scope's *self* time (its wall time minus the wall time
/// of its direct child scopes) to `self_ns[layer_of(path)]`.
void add_self_times(const ccq::Trace& trace,
                    std::map<std::string, std::uint64_t>& self_ns);

/// Export options for the engine traces a traced run writes out.
inline const ccq::TraceExportOptions kWallTrace{.include_wall_time = true};

/// Wall times (ns) of the scopes whose path starts with `prefix`.
std::vector<std::uint64_t> scope_walls(const ccq::Trace& trace,
                                       std::string_view prefix);

// ----------------------------------------------------------------- result

struct Metric {
  std::string name;
  double value{0};
  std::string unit;
};

/// What one workload run produced. `problems` are run-level failures (a
/// determinism check, an invalid open loop); `failed` counts wrong or
/// failed operations out of `attempted`.
struct Outcome {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  std::string engine_trace;  // clique/trace NDJSON with wall times (traced)

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Count one checked answer; `ok == false` is a failure.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Shortest round-trip decimal form of a double.
std::string fmt_num(double v);

/// The environment line every result carries.
std::string env_json(const std::string& commit);
/// False for sanitizer or unoptimized builds.
bool build_comparable();

// ------------------------------------------------------- end-to-end record

/// The end-to-end metrics every workload reports (BENCHMARK.json
/// "end_to_end"); what "op" means is per workload (README.md).
struct EndToEnd {
  double setup_s{0};
  double peak_rss_mb{0};
  double op_ms_p50{0};
  double op_ms_p99{0};
  double ops_per_s{0};
};

void add_end_to_end(Outcome& out, const EndToEnd& e);
/// Per-layer "tracing.<metric>.overhead" = traced / untraced - 1.
void add_tracing_overhead(Outcome& out, const EndToEnd& untraced,
                          const EndToEnd& traced);

// ------------------------------------------------------------------ setup

struct SetupTimes {
  double untraced_s{0};  // median over the untraced repetitions
  double traced_s{0};    // one extra traced repetition (traced runs only)
};

/// Run `make` (input generation, boot, warm pass) `reps` times, plus once
/// more with spans on in a traced run. Every repetition must produce the
/// same fingerprint (input digest plus exact model counts); a mismatch is
/// recorded as a problem. Returns the last state.
template <class State, class Make>
std::unique_ptr<State> run_setup(const Options& opt, int reps, Make make,
                                 Outcome& out, SetupTimes& times) {
  std::vector<double> untraced;
  std::unique_ptr<State> state;
  std::string first;
  for (int r = 0; r < reps + (opt.trace ? 1 : 0); ++r) {
    const bool traced = r == reps;
    state.reset();  // at most one state resident at a time
    release_free_memory();
    SpanLog::global().enable(traced);
    const std::uint64_t t0 = monotonic_ns();
    state = make();
    const double s = static_cast<double>(monotonic_ns() - t0) / 1e9;
    SpanLog::global().enable(false);
    if (traced)
      times.traced_s = s;
    else
      untraced.push_back(s);
    if (r == 0) {
      first = state->fingerprint;
    } else if (state->fingerprint != first) {
      out.problems.push_back("setup repetition " + std::to_string(r) +
                             " disagrees with repetition 0: " +
                             state->fingerprint + " vs " + first);
    }
  }
  times.untraced_s = median(untraced);
  std::printf("setup: %s reps_s=", opt.workload.c_str());
  for (std::size_t r = 0; r < untraced.size(); ++r)
    std::printf("%s%.4f", r ? "," : "", untraced[r]);
  std::printf(" median_s=%.4f\n", times.untraced_s);
  return state;
}

/// Sleep, then spin, until monotonic_ns() >= due_ns (sub-10us accuracy
/// without holding a core for the whole wait).
void wait_until(std::uint64_t due_ns);

}  // namespace ccqbench
