// svc_read: ConnectivityService queries beside a steady writer.
//
// Open loop on n=512 with the local index. One writer applies a 64-update
// churn batch every 100 ms; one query client issues connected /
// component_of / num_components in turn (the same equal-thirds rotation as
// tools/loadgen) through the RequestContext overloads on a seeded Poisson
// schedule of 1000 queries/s. Every query is timed from
// the moment it was due, so a stall also charges the queries queued behind
// it, and the run records how late the generator itself issued them. Each
// batch makes the index stale, so the query tail is the lazy recompute
// (sketch Borůvka) plus the wait on the service lock behind the writer;
// op_ms_p50 is the median of the queries such a stall delayed.
// Threads: writer + one client, ingest lanes = 1.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <thread>

#include "service_common.hpp"
#include "telemetry/flight_recorder.hpp"
#include "workloads.hpp"

namespace ccqbench {
namespace {

constexpr std::uint32_t kN = 512;
constexpr std::size_t kPool = 4096;
constexpr std::size_t kLive = 384;
constexpr std::size_t kHalf = 32;  // a batch is 2 * kHalf updates
// One batch per 100 ms keeps the recompute-affected queries near 10%, so
// the median stays on fresh-index queries and the p99 on the recompute.
constexpr std::uint64_t kBatchEveryNs = 100'000'000;
// One client: with two, the fresh-query median moved 2x between runs with
// where the scheduler put the clients (cache lines of the service lock and
// the telemetry counters bouncing between them).
constexpr unsigned kClients = 1;
// A recompute takes ~11 ms, so at 1000 queries/s about 11 queries queue
// behind each one: ~11% of all queries, enough that the p99 lands in the
// recompute tail. A 30 s run also gives 30 chunks of 1000 queries for the
// chunked p99.
constexpr double kClientRate = 1000.0;  // queries/s per client
// One warm batch: two checked recomputes warm the index path. With 8 (nine
// recomputes, over half of set-up), setup_s followed the machine's memory
// speed and its median moved 31% between two ten-run sets.
constexpr std::size_t kWarmBatches = 1;
constexpr std::size_t kDigestBatches = 64;
constexpr std::size_t kDigestQueries = 1024;
constexpr std::uint64_t kStartDelayNs = 5'000'000;
// Open-loop validity: the generator must keep up with its schedule.
constexpr double kMaxLateP99Ms = 100.0;
constexpr double kMaxBacklogMs = 250.0;

enum class Op : std::uint8_t { kConnected, kComponentOf, kNumComponents };

struct Query {
  std::uint64_t due_ns{0};  // offset from phase start
  Op op{Op::kConnected};
  ccq::VertexId u{0};
  ccq::VertexId v{0};
};

std::vector<Query> make_schedule(std::uint64_t seed, double seconds) {
  ccq::Rng rng{seed};
  std::vector<Query> out;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.next_double()) / kClientRate;
    if (t >= seconds) break;
    Query q;
    q.due_ns = static_cast<std::uint64_t>(t * 1e9);
    q.op = static_cast<Op>(out.size() % 3);
    q.u = static_cast<ccq::VertexId>(rng.next_below(kN));
    q.v = static_cast<ccq::VertexId>(
        (q.u + 1 + rng.next_below(kN - 1)) % kN);
    out.push_back(q);
  }
  return out;
}

std::uint64_t schedule_seed(std::uint64_t seed, int phase, unsigned client) {
  return sub_seed(seed, 100 + 16 * static_cast<std::uint64_t>(phase) + client);
}

struct State {
  std::vector<ccq::Edge> pool;
  std::unique_ptr<Churn> churn;
  std::unique_ptr<ccq::ConnectivityService> svc;
  bool setup_ok{true};
  std::string digest;
  std::string fingerprint;
};

std::unique_ptr<State> make_state(std::uint64_t seed, double seconds) {
  auto s = std::make_unique<State>();
  {
    SpanScope span{"graph.generate_inputs"};
    s->pool = random_edge_pool(kN, kPool, sub_seed(seed, 21));
    s->churn = std::make_unique<Churn>(s->pool, kLive, sub_seed(seed, 22));
  }
  boot_and_warm(s->svc, kN, 1, s->pool, *s->churn);
  // Warm recomputes: each batch is followed by a checked query, so the
  // recompute and Borůvka counts are exact functions of the seed.
  std::string components;
  std::vector<ccq::EdgeUpdate> batch;
  for (std::size_t b = 0; b <= kWarmBatches; ++b) {
    if (b > 0) {
      s->churn->next(kHalf, batch);
      SpanScope span{"service.apply_batch"};
      s->svc->apply_batch(batch);
    }
    SpanScope span{"service.num_components"};
    const std::uint32_t c = s->svc->num_components();
    s->setup_ok = s->setup_ok && c == count_components(s->churn->labels(kN));
    components += std::to_string(c) + ",";
  }
  {
    SpanScope span{"graph.generate_inputs"};
    Digest d;
    s->churn->digest_into(d, kDigestBatches, kHalf);
    for (unsigned c = 0; c < kClients; ++c) {
      const std::vector<Query> q =
          make_schedule(schedule_seed(seed, 0, c), seconds);
      for (std::size_t i = 0; i < std::min(q.size(), kDigestQueries); ++i) {
        d.add(q[i].due_ns);
        d.add(std::uint64_t{q[i].u} << 32 | q[i].v);
        d.add(static_cast<std::uint64_t>(q[i].op));
      }
    }
    s->digest = d.hex();
  }
  const ccq::ServiceStats st = s->svc->stats();
  s->fingerprint = "input=" + s->digest +
                   " recomputes=" + std::to_string(st.recomputes) +
                   " boruvka_rounds=" + std::to_string(st.boruvka_rounds) +
                   " sig_misses=" + std::to_string(st.sig_cache_misses) +
                   " components=" + components;
  return s;
}

struct Answer {
  std::uint64_t epoch_before{0};
  std::uint64_t epoch_after{0};
  std::uint32_t value{0};
  bool threw{false};
};

struct ClientLog {
  std::vector<double> latency_ms;  // from due time
  std::vector<double> late_ms;     // issue time - due time
  std::vector<Answer> answers;
  std::uint64_t last_done_ns{0};
  double backlog_ms{0};  // lateness of the last query's completion
};

struct Phase {
  std::vector<double> latency_ms;
  // Queries a recompute delayed: the first query to see a new batch (it
  // runs the lazy recompute) and every later query that fell due before
  // that one returned. Their latency is milliseconds of compute, so its
  // median follows the program rather than the machine's cache and
  // scheduling noise. The median of all queries (~1 us, fresh index) had
  // an IQR/median of up to 0.43 over one ten-run set.
  std::vector<double> stalled_ms;
  std::vector<double> late_ms;
  std::uint64_t queries{0};
  double elapsed_s{0};
  double backlog_ms{0};
  // Writer apply_batch spans [start, end), absolute ns, in time order.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> writer;
  // Per client query: [due, done) absolute ns.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> query_spans;
};

const char* op_span(Op op) {
  switch (op) {
    case Op::kConnected: return "service.connected";
    case Op::kComponentOf: return "service.component_of";
    case Op::kNumComponents: return "service.num_components";
  }
  return "service.query";
}

Phase run_phase(State& s, std::uint64_t seed, int phase_index,
                double seconds, Outcome& out) {
  ccq::ConnectivityService& svc = *s.svc;
  std::vector<std::vector<Query>> schedule(kClients);
  for (unsigned c = 0; c < kClients; ++c)
    schedule[c] = make_schedule(schedule_seed(seed, phase_index, c), seconds);
  const auto horizon = static_cast<std::uint64_t>(seconds * 1e9);
  const std::size_t batches = (horizon + kBatchEveryNs - 1) / kBatchEveryNs;

  // The oracle for every epoch: epoch e is the state after e batches of
  // this phase. Clients record the epochs bracketing each call; answers are
  // validated after the phase, against every state the call could see.
  std::vector<std::vector<ccq::VertexId>> labels(batches + 1);
  std::vector<std::uint32_t> components(batches + 1);
  labels[0] = s.churn->labels(kN);
  components[0] = count_components(labels[0]);
  std::atomic<std::uint64_t> epoch{0};

  std::vector<ClientLog> logs(kClients);
  const std::uint64_t start = monotonic_ns() + kStartDelayNs;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientLog& log = logs[c];
      const std::vector<Query>& plan = schedule[c];
      log.latency_ms.reserve(plan.size());
      log.late_ms.reserve(plan.size());
      log.answers.reserve(plan.size());
      for (std::size_t i = 0; i < plan.size(); ++i) {
        const Query& q = plan[i];
        const std::uint64_t due = start + q.due_ns;
        wait_until(due);
        const std::uint64_t issued = monotonic_ns();
        Answer a;
        a.epoch_before = epoch.load(std::memory_order_acquire);
        const ccq::RequestContext ctx{0, c, i};
        try {
          switch (q.op) {
            case Op::kConnected:
              a.value = svc.connected(q.u, q.v, ctx) ? 1 : 0;
              break;
            case Op::kComponentOf:
              a.value = svc.component_of(q.u, ctx);
              break;
            case Op::kNumComponents:
              a.value = svc.num_components(ctx);
              break;
          }
        } catch (const std::exception&) {
          a.threw = true;
        }
        const std::uint64_t done = monotonic_ns();
        a.epoch_after = epoch.load(std::memory_order_acquire);
        SpanLog::global().record(op_span(q.op), issued, done,
                                 (std::uint64_t{c} + 1) << 32 | i);
        log.latency_ms.push_back(ns_to_ms(done - due));
        log.late_ms.push_back(ns_to_ms(issued - due));
        log.answers.push_back(a);
        log.last_done_ns = done;
        log.backlog_ms = ns_to_ms(done - due);
      }
    });
  }

  Phase p;
  std::vector<ccq::EdgeUpdate> batch;
  for (std::size_t k = 0; k < batches; ++k) {
    wait_until(start + k * kBatchEveryNs);
    if (k > 0) {
      // The writer reads back its own batch and checks it exactly.
      SpanScope span{"oracle.writer_check", k};
      const std::vector<ccq::VertexId>& want = labels[k];
      out.check(svc.num_components() == components[k]);
      for (ccq::VertexId i = 0; i < 4; ++i) {
        const auto u = static_cast<ccq::VertexId>((k * 131 + i * 97) % kN);
        const auto v = static_cast<ccq::VertexId>((k * 61 + i * 193 + 1) % kN);
        out.check(svc.component_of(u) == want[u]);
        if (u != v) out.check(svc.connected(u, v) == (want[u] == want[v]));
      }
    }
    s.churn->next(kHalf, batch);
    ccq::BatchStats st;
    bool ok = true;
    const std::uint64_t t0 = monotonic_ns();
    try {
      SpanScope span{"service.apply_batch", k + 1};
      st = svc.apply_batch(batch);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "svc_read: apply_batch threw: %s\n", e.what());
      ok = false;
    }
    p.writer.emplace_back(t0, monotonic_ns());
    out.check(ok && st.inserts == kHalf && st.deletes == kHalf &&
              st.ignored == 0);
    labels[k + 1] = s.churn->labels(kN);
    components[k + 1] = count_components(labels[k + 1]);
    epoch.store(k + 1, std::memory_order_release);
  }
  for (std::thread& t : clients) t.join();

  // Validate every client answer against the states its call could see.
  std::uint64_t last_done = start;
  for (unsigned c = 0; c < kClients; ++c) {
    const ClientLog& log = logs[c];
    std::uint64_t seen_epoch = 0;
    std::uint64_t stall_end = 0;
    for (std::size_t i = 0; i < log.answers.size(); ++i) {
      const Answer& a = log.answers[i];
      const Query& q = schedule[c][i];
      const std::uint64_t due = start + q.due_ns;
      const std::uint64_t done =
          due + static_cast<std::uint64_t>(log.latency_ms[i] * 1e6);
      if (a.epoch_before > seen_epoch) {
        seen_epoch = a.epoch_before;
        stall_end = done;
      }
      if (due < stall_end) p.stalled_ms.push_back(log.latency_ms[i]);
      bool ok = false;
      const std::uint64_t hi = std::min<std::uint64_t>(a.epoch_after + 1,
                                                       batches);
      for (std::uint64_t e = a.epoch_before; !a.threw && !ok && e <= hi; ++e) {
        const std::vector<ccq::VertexId>& l = labels[e];
        switch (q.op) {
          case Op::kConnected:
            ok = a.value == (l[q.u] == l[q.v] ? 1u : 0u);
            break;
          case Op::kComponentOf: ok = a.value == l[q.u]; break;
          case Op::kNumComponents: ok = a.value == components[e]; break;
        }
      }
      out.check(ok);
      p.query_spans.emplace_back(due, done);
    }
    p.late_ms.insert(p.late_ms.end(), log.late_ms.begin(), log.late_ms.end());
    p.queries += log.answers.size();
    last_done = std::max(last_done, log.last_done_ns);
    p.backlog_ms = std::max(p.backlog_ms, log.backlog_ms);
  }
  // Latencies of both clients in due-time order (the chunked tail needs it).
  std::sort(p.query_spans.begin(), p.query_spans.end());
  for (const auto& [due, done] : p.query_spans)
    p.latency_ms.push_back(ns_to_ms(done - due));
  p.elapsed_s = static_cast<double>(last_done - start) / 1e9;
  out.check(svc.component_labels() == s.churn->labels(kN) &&
            svc.monte_carlo_ok());

  const double late_p99 = quantile(p.late_ms, 0.99);
  if (late_p99 > kMaxLateP99Ms || p.backlog_ms > kMaxBacklogMs)
    out.problems.push_back(
        "svc_read: open loop fell behind its schedule (late p99 " +
        fmt_num(late_p99) + " ms, final backlog " + fmt_num(p.backlog_ms) +
        " ms); the run is invalid");
  return p;
}

EndToEnd end_to_end(const Phase& p, double setup_s) {
  EndToEnd e;
  e.setup_s = setup_s;
  e.peak_rss_mb = peak_rss_mb();
  e.op_ms_p50 = median(p.stalled_ms);
  e.op_ms_p99 = chunked_quantile(p.latency_ms, kTailChunk, 0.99);
  e.ops_per_s = static_cast<double>(p.queries) / p.elapsed_s;
  return e;
}

/// Total time the query intervals overlap the writer's apply_batch spans.
std::uint64_t writer_overlap_ns(const Phase& p) {
  std::uint64_t total = 0;
  for (const auto& [begin, end] : p.query_spans) {
    auto it = std::lower_bound(
        p.writer.begin(), p.writer.end(), begin,
        [](const auto& span, std::uint64_t t) { return span.second <= t; });
    for (; it != p.writer.end() && it->first < end; ++it)
      total += std::min(end, it->second) - std::max(begin, it->first);
  }
  return total;
}

}  // namespace

Outcome run_svc_read(const Options& opt) {
  // One malloc arena, set before the client thread exists. The writer and
  // the client never allocate at the same time (apply_batch and the lazy
  // recompute both run under the service lock, and a fresh query does not
  // allocate), so this costs no lock contention. With an arena per thread,
  // recompute scratch freed by whichever thread ran it stayed resident
  // there, and peak RSS moved from 58.7 to 71.4 MiB between two seeds.
  mallopt(M_ARENA_MAX, 1);
  Outcome out;
  SetupTimes setup;
  const double phase_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::unique_ptr<State> s = run_setup<State>(
      opt, kSetupReps, [&] { return make_state(opt.seed, phase_s); }, out,
      setup);
  out.check(s->setup_ok);
  std::printf("digest: svc_read seed=%llu input=%s\n",
              static_cast<unsigned long long>(opt.seed), s->digest.c_str());
  std::printf("counts: %s\n", s->fingerprint.c_str());

  if (!opt.trace) {
    const Phase p = run_phase(*s, opt.seed, 0, phase_s, out);
    add_end_to_end(out, end_to_end(p, setup.untraced_s));
    return out;
  }

  const Phase base = run_phase(*s, opt.seed, 0, phase_s, out);
  const EndToEnd untraced = end_to_end(base, setup.untraced_s);

  ccq::telemetry::FlightRecorder& recorder = ccq::telemetry::flight_recorder();
  const std::uint64_t recorded0 = recorder.recorded();
  const std::uint64_t dropped0 = recorder.dropped();
  const ccq::ServiceStats st0 = s->svc->stats();
  ccq::Trace trace;
  s->svc->engine().set_trace(&trace);
  SpanLog::global().enable(true);
  const Phase traced = run_phase(*s, opt.seed, 1, phase_s, out);
  SpanLog::global().enable(false);
  s->svc->engine().set_trace(nullptr);
  const ccq::ServiceStats st1 = s->svc->stats();
  add_tracing_overhead(out, untraced, end_to_end(traced, setup.traced_s));
  out.engine_trace = ccq::trace_to_ndjson(trace, kWallTrace);

  std::vector<double> recompute_ms;
  double recompute_total = 0;
  for (const std::uint64_t ns : scope_walls(trace, "service/recompute")) {
    recompute_ms.push_back(ns_to_ms(ns));
    recompute_total += ns_to_ms(ns);
  }
  double query_total = 0;
  for (const double ms : traced.latency_ms) query_total += ms;
  const double recomputes = static_cast<double>(st1.recomputes - st0.recomputes);
  const double queries = static_cast<double>(traced.queries);
  out.metric("service.recompute.ms_p50", median(recompute_ms), "ms");
  out.metric("service.recompute.ms_max",
             recompute_ms.empty() ? 0.0
                                  : *std::max_element(recompute_ms.begin(),
                                                      recompute_ms.end()),
             "ms");
  out.metric("service.stale_ratio",
             recomputes / static_cast<double>(st1.queries - st0.queries),
             "ratio");
  out.metric("service.recompute.share", recompute_total / query_total,
             "ratio");
  out.metric("service.ingest_wait.share",
             ns_to_ms(writer_overlap_ns(traced)) / query_total, "ratio");
  out.metric("sketch.boruvka_rounds_per_recompute",
             recomputes > 0 ? static_cast<double>(st1.boruvka_rounds -
                                                  st0.boruvka_rounds) /
                                  recomputes
                            : 0.0,
             "count");
  out.metric("telemetry.flight_events_per_request",
             static_cast<double>(recorder.recorded() - recorded0) / queries,
             "count");
  out.metric("telemetry.dropped",
             static_cast<double>(recorder.dropped() - dropped0), "count");
  out.metric("generator.late_ms_p99", quantile(traced.late_ms, 0.99), "ms");
  // The median of all queries, from the untraced half: spans cost as much
  // as a fresh-index query.
  out.metric("service.query.us_p50", median(base.latency_ms) * 1e3, "us");
  return out;
}

}  // namespace ccqbench
