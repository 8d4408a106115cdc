// svc_ingest: ConnectivityService ingest alone.
//
// One client calls plain apply_batch in a closed loop. Each batch is mixed
// churn on n=512: 512 deletes of live edges and 512 inserts drawn from a
// fixed seeded pool of 16384 edges, which fits the default signature cache.
// Set-up makes every pool signature resident, so the measured batches run
// the warm path: the netting passes, the cached signatures and the lane
// merge. No query runs, so there is no recompute and no engine round.
#include <cstdio>
#include <exception>

#include "service_common.hpp"
#include "workloads.hpp"

namespace ccqbench {
namespace {

constexpr std::uint32_t kN = 512;
constexpr std::size_t kPool = 16384;
constexpr std::size_t kLive = kPool / 2;
constexpr std::size_t kHalf = 512;  // a batch is 2 * kHalf updates
constexpr std::size_t kDigestBatches = 64;
// Ingest lanes, the client thread included. Two lanes run the sharded
// passes in parallel and leave half of a 4-core box idle, which keeps the
// batch time steady on a shared machine (all 4 lanes made p99 swing 2x).
constexpr std::uint32_t kLanes = 2;

struct State {
  std::vector<ccq::Edge> pool;
  std::unique_ptr<Churn> churn;
  std::unique_ptr<ccq::ConnectivityService> svc;
  std::string digest;
  std::string fingerprint;
};

std::unique_ptr<State> make_state(std::uint64_t seed, std::uint32_t threads) {
  auto s = std::make_unique<State>();
  {
    SpanScope span{"graph.generate_inputs"};
    s->pool = random_edge_pool(kN, kPool, sub_seed(seed, 11));
    s->churn = std::make_unique<Churn>(s->pool, kLive, sub_seed(seed, 12));
    Digest d;
    s->churn->digest_into(d, kDigestBatches, kHalf);
    s->digest = d.hex();
  }
  const std::uint64_t misses =
      boot_and_warm(s->svc, kN, threads, s->pool, *s->churn);
  const ccq::ServiceStats st = s->svc->stats();
  s->fingerprint = "input=" + s->digest +
                   " sig_misses=" + std::to_string(misses) +
                   " live=" + std::to_string(st.live_edges) +
                   " generation=" + std::to_string(st.generation);
  return s;
}

struct Phase {
  std::vector<double> batch_ms;
  std::uint64_t batch_ns{0};
  std::uint64_t updates{0};
  std::uint64_t inserts_deletes{0};
  std::uint64_t cancelled{0};
  std::uint64_t net_edges{0};
  std::uint64_t touched{0};
  std::uint64_t sig_hits{0};
  std::uint64_t sig_misses{0};
};

Phase run_phase(State& s, double seconds, Outcome& out) {
  Phase p;
  std::vector<ccq::EdgeUpdate> batch;
  const auto deadline =
      monotonic_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  do {
    s.churn->next(kHalf, batch);
    ccq::BatchStats st;
    bool ok = true;
    const std::uint64_t t0 = monotonic_ns();
    try {
      SpanScope span{"service.apply_batch", p.batch_ms.size() + 1};
      st = s.svc->apply_batch(batch);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "svc_ingest: apply_batch threw: %s\n", e.what());
      ok = false;
    }
    const std::uint64_t ns = monotonic_ns() - t0;
    // Oracle: the generator knows exactly what every batch must do.
    ok = ok && st.updates == 2 * kHalf && st.inserts == kHalf &&
         st.deletes == kHalf && st.ignored == 0 && st.cancelled == 0 &&
         st.net_edges == 2 * kHalf && st.sig_misses == 0;
    out.check(ok);
    p.batch_ms.push_back(ns_to_ms(ns));
    p.batch_ns += ns;
    p.updates += st.updates;
    p.inserts_deletes += st.inserts + st.deletes;
    p.cancelled += st.cancelled;
    p.net_edges += st.net_edges;
    p.touched += st.touched_vertices;
    p.sig_hits += st.sig_hits;
    p.sig_misses += st.sig_misses;
  } while (monotonic_ns() < deadline);
  return p;
}

EndToEnd end_to_end(const Phase& p, double setup_s) {
  EndToEnd e;
  e.setup_s = setup_s;
  e.peak_rss_mb = peak_rss_mb();
  e.op_ms_p50 = median(p.batch_ms);
  e.op_ms_p99 = chunked_quantile(p.batch_ms, kTailChunk, 0.99);
  e.ops_per_s = static_cast<double>(p.updates) * 1e9 /
                static_cast<double>(p.batch_ns);
  return e;
}

/// Final oracle: the service's labels against union-find over the
/// benchmark's replayed edge set.
void check_labels(ccq::ConnectivityService& svc, const Churn& churn,
                  Outcome& out) {
  SpanScope span{"service.component_labels"};
  out.check(svc.component_labels() == churn.labels(kN) &&
            svc.monte_carlo_ok());
}

}  // namespace

Outcome run_svc_ingest(const Options& opt) {
  Outcome out;
  SetupTimes setup;
  std::unique_ptr<State> s = run_setup<State>(
      opt, kSetupReps, [&] { return make_state(opt.seed, kLanes); }, out,
      setup);
  std::printf("digest: svc_ingest seed=%llu input=%s\n",
              static_cast<unsigned long long>(opt.seed), s->digest.c_str());
  std::printf("counts: %s\n", s->fingerprint.c_str());

  if (!opt.trace) {
    const Phase p = run_phase(*s, opt.seconds, out);
    check_labels(*s->svc, *s->churn, out);
    add_end_to_end(out, end_to_end(p, setup.untraced_s));
    return out;
  }

  const Phase base = run_phase(*s, opt.seconds / 2, out);
  const EndToEnd untraced = end_to_end(base, setup.untraced_s);
  ccq::Trace trace;
  s->svc->engine().set_trace(&trace);
  SpanLog::global().enable(true);
  const Phase traced = run_phase(*s, opt.seconds / 2, out);
  s->svc->engine().set_trace(nullptr);
  add_tracing_overhead(out, untraced, end_to_end(traced, setup.traced_s));
  check_labels(*s->svc, *s->churn, out);

  std::vector<double> scope_ms;
  for (const std::uint64_t ns : scope_walls(trace, "service/ingest-batch"))
    scope_ms.push_back(ns_to_ms(ns));
  out.engine_trace = ccq::trace_to_ndjson(trace, kWallTrace);
  const double batches = static_cast<double>(traced.batch_ms.size());
  const std::uint64_t lookups = traced.sig_hits + traced.sig_misses;
  out.metric("service.sig_hit_ratio",
             lookups ? static_cast<double>(traced.sig_hits) /
                           static_cast<double>(lookups)
                     : 0.0,
             "ratio");
  out.metric("service.sig_lookups", static_cast<double>(lookups), "count");
  out.metric("service.net_edges_per_batch",
             static_cast<double>(traced.net_edges) / batches, "count");
  out.metric("service.touched_vertices_per_batch",
             static_cast<double>(traced.touched) / batches, "count");
  out.metric("service.cancelled_ratio",
             static_cast<double>(traced.cancelled) /
                 static_cast<double>(traced.inserts_deletes),
             "ratio");
  out.metric("service.ingest_batch.ms_p50", median(scope_ms), "ms");
  out.metric("service.ingest_client.ms_p50", median(traced.batch_ms), "ms");

  // State layer: snapshot and restore of the live service.
  {
    const std::uint64_t t0 = monotonic_ns();
    std::vector<std::uint8_t> bytes;
    {
      SpanScope span{"service.serialize"};
      bytes = s->svc->serialize();
    }
    const std::uint64_t t1 = monotonic_ns();
    std::unique_ptr<ccq::ConnectivityService> restored;
    {
      SpanScope span{"service.restore"};
      restored = ccq::ConnectivityService::restore(bytes);
    }
    const std::uint64_t t2 = monotonic_ns();
    check_labels(*restored, *s->churn, out);
    out.metric("service.snapshot_ms", ns_to_ms(t1 - t0), "ms");
    out.metric("service.restore_ms", ns_to_ms(t2 - t1), "ms");
    out.metric("service.snapshot_bytes", static_cast<double>(bytes.size()),
               "bytes");
  }
  SpanLog::global().enable(false);

  // Single-lane baseline: the same stream at threads=1.
  s.reset();
  auto single = make_state(opt.seed, 1);
  const Phase one = run_phase(*single, opt.seconds / 8, out);
  out.metric("service.ingest_1t_updates_per_s",
             end_to_end(one, 0).ops_per_s, "1/s");
  return out;
}

}  // namespace ccqbench
