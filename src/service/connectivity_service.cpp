#include "service/connectivity_service.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "clique/trace.hpp"
#include "comm/primitives.hpp"
#include "comm/routing.hpp"
#include "comm/shared_random.hpp"
#include "graph/union_find.hpp"
#include "service/binary_io.hpp"
#include "sketch/sketch_kernels.hpp"
#include "sketch/wire.hpp"
#include "telemetry/metrics_registry.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/field.hpp"
#include "util/random.hpp"

namespace ccq {

namespace {

// Live telemetry (docs/TELEMETRY.md): the service's scrapeable mirror of
// BatchStats / ServiceStats, registered once at namespace scope
// (cliquelint CL011). Counters reconcile exactly with the cumulative
// ServiceStats fields (pinned by the bench_service self-check); gauges are
// levels refreshed at batch/recompute boundaries; *_ns histograms are
// wall-derived and therefore excluded from canonical expositions.
telemetry::Counter& tm_batches = telemetry::registry().counter(
    "ccq_service_batches_total", "Batches accepted by apply_batch");
telemetry::Counter& tm_updates = telemetry::registry().counter(
    "ccq_service_updates_total", "Edge updates ingested (pre-netting)");
telemetry::Counter& tm_inserts = telemetry::registry().counter(
    "ccq_service_inserts_total", "Accepted inserts");
telemetry::Counter& tm_deletes = telemetry::registry().counter(
    "ccq_service_deletes_total", "Accepted deletes");
telemetry::Counter& tm_ignored = telemetry::registry().counter(
    "ccq_service_ignored_total", "No-op updates ignored (non-strict mode)");
telemetry::Counter& tm_cancelled = telemetry::registry().counter(
    "ccq_service_cancelled_total", "Accepted updates annihilated in-batch");
telemetry::Counter& tm_net_edges = telemetry::registry().counter(
    "ccq_service_net_edges_total", "Net edge flips applied to the sketches");
telemetry::Counter& tm_touched = telemetry::registry().counter(
    "ccq_service_touched_vertices_total", "Vertex lanes touched by batches");
telemetry::Counter& tm_sig_hits = telemetry::registry().counter(
    "ccq_service_sig_hits_total", "Signature-cache hits");
telemetry::Counter& tm_sig_misses = telemetry::registry().counter(
    "ccq_service_sig_misses_total", "Signature-cache misses (computed)");
telemetry::Counter& tm_queries = telemetry::registry().counter(
    "ccq_service_queries_total",
    "connected/component_of/num_components queries answered");
telemetry::Counter& tm_recomputes = telemetry::registry().counter(
    "ccq_service_recomputes_total", "Lazy index recomputes");
telemetry::Counter& tm_recompute_rounds = telemetry::registry().counter(
    "ccq_service_recompute_rounds_total",
    "Engine rounds charged by recomputes");
telemetry::Counter& tm_recompute_messages = telemetry::registry().counter(
    "ccq_service_recompute_messages_total",
    "Engine messages charged by recomputes");
telemetry::Counter& tm_boruvka_rounds = telemetry::registry().counter(
    "ccq_service_boruvka_rounds_total",
    "Sketch-Boruvka rounds across recomputes");
telemetry::Gauge& tm_live_edges = telemetry::registry().gauge(
    "ccq_service_live_edges", "Edges currently present");
telemetry::Gauge& tm_generation = telemetry::registry().gauge(
    "ccq_service_generation", "Sketch-state generation");
telemetry::Gauge& tm_index_generation = telemetry::registry().gauge(
    "ccq_service_index_generation", "Generation the query index reflects");
telemetry::Gauge& tm_staleness = telemetry::registry().gauge(
    "ccq_service_index_staleness",
    "Generations the query index lags the sketches");
telemetry::Gauge& tm_components = telemetry::registry().gauge(
    "ccq_service_components", "Components at the last index refresh");
telemetry::Gauge& tm_sig_cache = telemetry::registry().gauge(
    "ccq_service_sig_cache_entries", "Signatures resident in the cache");
telemetry::Histogram& tm_batch_updates = telemetry::registry().histogram(
    "ccq_service_batch_updates", "Updates per ingested batch");
telemetry::Histogram& tm_batch_apply_ns = telemetry::registry().wall_histogram(
    "ccq_service_batch_apply_ns", "apply_batch latency under the writer lock");
telemetry::Histogram& tm_recompute_ns = telemetry::registry().wall_histogram(
    "ccq_service_recompute_ns", "Index recompute latency");
telemetry::Histogram& tm_query_connected_ns =
    telemetry::registry().wall_histogram(
        "ccq_service_query_connected_ns", "connected() latency");
telemetry::Histogram& tm_query_component_of_ns =
    telemetry::registry().wall_histogram(
        "ccq_service_query_component_of_ns", "component_of() latency");
telemetry::Histogram& tm_query_num_components_ns =
    telemetry::registry().wall_histogram(
        "ccq_service_query_num_components_ns", "num_components() latency");
telemetry::Histogram& tm_query_labels_ns =
    telemetry::registry().wall_histogram(
        "ccq_service_query_labels_ns", "component_labels() latency");

/// Tag base for the recompute's sketch routing (copy/chunk ride in the low
/// 16 bits, see sketch/wire).
constexpr std::uint32_t kTagServiceSketch = 0x00030000;

/// Shard grains: don't bother fanning out below this much work per lane.
constexpr std::size_t kSigShardGrain = 64;    // signatures per shard
constexpr std::size_t kApplyShardGrain = 8;   // vertices per shard

unsigned shard_count(std::size_t items, std::size_t grain, unsigned lanes) {
  const std::size_t by_grain = (items + grain - 1) / grain;
  const std::size_t capped = std::min<std::size_t>(by_grain, lanes);
  return static_cast<unsigned>(std::max<std::size_t>(1, capped));
}

std::pair<std::size_t, std::size_t> shard_range(std::size_t items,
                                                unsigned shards, unsigned t) {
  return {items * t / shards, items * (t + 1) / shards};
}

void check_vertex(VertexId v, std::uint32_t n, const char* who) {
  if (v >= n)
    throw ServiceError(std::string{who} + ": node " + std::to_string(v) +
                       " out of range (universe " + std::to_string(n) + ")");
}

}  // namespace

ConnectivityService::ConnectivityService(const ServiceConfig& config)
    : config_(config) {
  if (config_.n < 2)
    throw ServiceError("ConnectivityService: need n >= 2");
  if (config_.buckets == 0)
    throw ServiceError("ConnectivityService: need buckets >= 1");
  if (config_.copies == 0) config_.copies = default_sketch_copies(config_.n);
  if (config_.copies >= 256)
    throw ServiceError(
        "ConnectivityService: copies >= 256 exceeds the wire format's "
        "copy-index budget");
  engine_ = std::make_unique<CliqueEngine>(
      EngineConfig{.n = config_.n, .threads = config_.tuning.threads});
  {
    // Theorem 1 bootstrap: every node ends up holding the same seed words,
    // which is what makes per-vertex sketches addable across nodes.
    TraceScope svc_scope{*engine_, "service"};
    TraceScope seed_scope{*engine_, "bootstrap-seed"};
    Rng rng{config_.seed};
    seed_words_ = shared_random_words(
        *engine_,
        SketchSpace::seed_words_needed(config_.n, config_.copies,
                                       config_.buckets),
        rng);
  }
  space_ = std::make_unique<SketchSpace>(
      config_.n, config_.copies, std::span<const std::uint64_t>{seed_words_},
      config_.buckets);
  init_geometry();
  phi_.assign(static_cast<std::size_t>(config_.n) * block_, 0);
  iota_.assign(phi_.size(), 0);
  tau_.assign(phi_.size(), 0);
  labels_.resize(config_.n);
  for (VertexId v = 0; v < config_.n; ++v) labels_[v] = v;
  num_components_ = config_.n;
  pool_ = std::make_unique<ThreadPool>(config_.tuning.threads
                                           ? config_.tuning.threads
                                           : ThreadPool::hardware_threads());
}

ConnectivityService::ConnectivityService(const ServiceSnapshot& snap,
                                         const ServiceTuning& tuning,
                                         RestoreTag)
    : config_{snap.n, snap.seed, snap.copies, snap.buckets, tuning} {
  if (snap.n < 2) throw ServiceError("snapshot: need n >= 2");
  const std::size_t need = SketchSpace::seed_words_needed(
      snap.n, snap.copies, snap.buckets);
  if (snap.seed_words.size() != need)
    throw ServiceError("snapshot: stored " +
                       std::to_string(snap.seed_words.size()) +
                       " seed words but this geometry consumes " +
                       std::to_string(need));
  engine_ = std::make_unique<CliqueEngine>(
      EngineConfig{.n = config_.n, .threads = config_.tuning.threads});
  seed_words_ = snap.seed_words;
  space_ = std::make_unique<SketchSpace>(
      config_.n, config_.copies, std::span<const std::uint64_t>{seed_words_},
      config_.buckets);
  init_geometry();
  const std::size_t lane_words =
      static_cast<std::size_t>(config_.n) * block_;
  if (snap.phi.size() != lane_words || snap.iota.size() != lane_words ||
      snap.tau.size() != lane_words || snap.labels.size() != config_.n)
    throw ServiceError("snapshot: lane/label sizes inconsistent with the "
                       "header geometry");
  phi_ = snap.phi;
  iota_ = snap.iota;
  tau_ = snap.tau;
  present_.insert(snap.edge_keys.begin(), snap.edge_keys.end());
  labels_ = snap.labels;
  num_components_ = snap.num_components;
  monte_carlo_ok_ = snap.monte_carlo_ok;
  generation_ = snap.generation;
  index_generation_ = snap.index_generation;
  pool_ = std::make_unique<ThreadPool>(config_.tuning.threads
                                           ? config_.tuning.threads
                                           : ThreadPool::hardware_threads());
}

ConnectivityService::~ConnectivityService() = default;

void ConnectivityService::init_geometry() {
  const SketchParams& params = space_->params();
  cells_ = static_cast<std::size_t>(params.levels) * params.buckets;
  block_ = static_cast<std::size_t>(config_.copies) * cells_;
  deltas_of_.resize(config_.n);
}

const ConnectivityService::Signature& ConnectivityService::signature_of(
    std::uint64_t coord,
    const std::unordered_map<std::uint64_t, Signature>& overflow) const {
  const auto it = sig_cache_.find(coord);
  if (it != sig_cache_.end()) return it->second;
  const auto ov = overflow.find(coord);
  check(ov != overflow.end(),
        "ConnectivityService: signature missing after batch pre-pass");
  return ov->second;
}

BatchStats ConnectivityService::apply_batch(
    std::span<const EdgeUpdate> updates) {
  std::unique_lock lock{mu_};
  const std::uint64_t apply_t0 = monotonic_ns();
  TraceScope svc_scope{*engine_, "service"};
  TraceScope batch_scope{*engine_, "ingest-batch", batches_};
  BatchStats out;
  out.batch = batches_;
  out.updates = updates.size();
  const std::uint32_t n = config_.n;
  const bool strict = config_.tuning.strict;

  // Pass 1 (serial): validate every record and net out per-edge effects.
  // `net` keeps first-touch order so every later loop iterates in a
  // deterministic order; effective presence (stored presence plus the
  // running in-batch delta) keeps each net in {-1, 0, +1}. Nothing is
  // mutated yet, so a strict-mode throw rejects the batch atomically.
  std::vector<std::pair<std::uint64_t, std::int32_t>> net;
  std::unordered_map<std::uint64_t, std::size_t> slot;
  net.reserve(updates.size());
  slot.reserve(updates.size() * 2);
  for (const EdgeUpdate& up : updates) {
    check_vertex(up.u, n, "apply_batch");
    check_vertex(up.v, n, "apply_batch");
    if (up.u == up.v)
      throw ServiceError("apply_batch: self-loop on node " +
                         std::to_string(up.u));
    const Edge e{up.u, up.v};
    const std::uint64_t key = edge_index(e.u, e.v, n);
    const auto [it, fresh] = slot.try_emplace(key, net.size());
    if (fresh) net.push_back({key, 0});
    std::int32_t& d = net[it->second].second;
    const std::int32_t eff = (present_.contains(key) ? 1 : 0) + d;
    if (up.op == EdgeOp::kInsert) {
      if (eff != 0) {
        if (strict)
          throw ServiceError("apply_batch: duplicate insert of edge {" +
                             std::to_string(e.u) + "," + std::to_string(e.v) +
                             "} (strict mode)");
        ++out.ignored;
        continue;
      }
      ++d;
      ++out.inserts;
    } else {
      if (eff != 1) {
        if (strict)
          throw ServiceError("apply_batch: delete of absent edge {" +
                             std::to_string(e.u) + "," + std::to_string(e.v) +
                             "} (strict mode)");
        ++out.ignored;
        continue;
      }
      --d;
      ++out.deletes;
    }
  }

  // Pass 2 (serial): group surviving coordinates by endpoint. Coordinate
  // {u,v} (u < v) carries sign +d in a_u and -d in a_v (Section 2.1's
  // incidence orientation), which is what makes intra-component edges
  // cancel when a coordinator sums component sketches.
  std::vector<VertexId> touched;
  for (const auto& [key, d] : net) {
    if (d == 0) continue;
    const Edge e = edge_from_index(key, n);
    if (deltas_of_[e.u].empty()) touched.push_back(e.u);
    deltas_of_[e.u].push_back({key, d});
    if (deltas_of_[e.v].empty()) touched.push_back(e.v);
    deltas_of_[e.v].push_back({key, -d});
    ++out.net_edges;
  }
  // Accepted records whose effect annihilated in-batch (each cancelled
  // insert/delete pair contributes two).
  out.cancelled = out.inserts + out.deletes - out.net_edges;
  std::sort(touched.begin(), touched.end());

  // Pass 3: compute the signatures this batch still misses, sharded on the
  // pool (the cold path: k-wise hash evaluations and field::pow
  // fingerprints). Results land in the shared cache up to its capacity;
  // the remainder lives in a batch-local overflow map.
  std::vector<std::uint64_t> missing;
  for (const auto& [key, d] : net)
    if (d != 0 && !sig_cache_.contains(key)) missing.push_back(key);
  std::unordered_map<std::uint64_t, Signature> overflow;
  if (!missing.empty()) {
    std::vector<Signature> sigs(missing.size());
    const unsigned shards =
        shard_count(missing.size(), kSigShardGrain, pool_->size());
    std::vector<std::exception_ptr> errors(shards);
    const auto sig_job = [&](unsigned t) {
      const auto [begin, end] = shard_range(missing.size(), shards, t);
      try {
        for (std::size_t i = begin; i < end; ++i) {
          sigs[i].reserve(static_cast<std::size_t>(config_.copies) * 2);
          space_->append_signature(missing[i], sigs[i]);
        }
      } catch (...) {
        errors[t] = std::current_exception();
      }
    };
    pool_->run(shards, sig_job);
    for (std::exception_ptr& err : errors)
      if (err) std::rethrow_exception(err);
    for (std::size_t i = 0; i < missing.size(); ++i) {
      if (sig_cache_.size() < config_.tuning.sig_cache_capacity)
        sig_cache_.emplace(missing[i], std::move(sigs[i]));
      else
        overflow.emplace(missing[i], std::move(sigs[i]));
    }
  }
  out.sig_misses = missing.size();
  out.sig_hits = out.net_edges - out.sig_misses;

  // First mutation: flip the presence set (everything that can throw is
  // behind us).
  for (const auto& [key, d] : net) {
    if (d == 0) continue;
    if (d > 0)
      present_.insert(key);
    else
      present_.erase(key);
  }

  // Pass 4: per-vertex delta application, sharded on the pool. Shards own
  // disjoint vertex ranges, so writes never overlap; exact associativity
  // of int64 and GF(2^61-1) addition makes the result independent of both
  // sharding and in-vertex order (serial == parallel, pinned by tests).
  if (!touched.empty()) {
    const unsigned shards =
        shard_count(touched.size(), kApplyShardGrain, pool_->size());
    const auto apply_coord = [&](const CoordDelta& cd, std::int64_t* phi,
                                 std::int64_t* iota, std::uint64_t* tau) {
      apply_signature(signature_of(cd.key, overflow), cd.key, cd.c, phi, iota,
                      tau);
    };
    const auto apply_job = [&](unsigned t) {
      const auto [begin, end] = shard_range(touched.size(), shards, t);
      std::vector<std::int64_t> dphi, diota;
      std::vector<std::uint64_t> dtau;
      for (std::size_t i = begin; i < end; ++i) {
        const VertexId v = touched[i];
        std::vector<CoordDelta>& deltas = deltas_of_[v];
        const std::size_t base = static_cast<std::size_t>(v) * block_;
        // Sparse deltas go straight into the resident lanes; dense ones
        // accumulate a delta block first and fold it in with one SIMD
        // merge (sketch_kernels). Identical results either way — the
        // threshold only picks the cheaper path.
        const std::size_t entry_bound =
            deltas.size() * 2 * config_.copies;
        if (entry_bound * 2 < block_) {
          for (const CoordDelta& cd : deltas)
            apply_coord(cd, phi_.data() + base, iota_.data() + base,
                        tau_.data() + base);
        } else {
          dphi.assign(block_, 0);
          diota.assign(block_, 0);
          dtau.assign(block_, 0);
          for (const CoordDelta& cd : deltas)
            apply_coord(cd, dphi.data(), diota.data(), dtau.data());
          kernels::sketch_accumulate(phi_.data() + base, iota_.data() + base,
                                     tau_.data() + base, dphi.data(),
                                     diota.data(), dtau.data(), block_);
        }
        deltas.clear();
      }
    };
    pool_->run(shards, apply_job);
    ++generation_;
  }

  out.touched_vertices = touched.size();
  out.generation = generation_;
  ++batches_;
  updates_ += out.updates;
  inserts_ += out.inserts;
  deletes_ += out.deletes;
  ignored_ += out.ignored;
  cancelled_ += out.cancelled;
  sig_hits_ += out.sig_hits;
  sig_misses_ += out.sig_misses;

  tm_batches.add();
  tm_updates.add(out.updates);
  tm_inserts.add(out.inserts);
  tm_deletes.add(out.deletes);
  tm_ignored.add(out.ignored);
  tm_cancelled.add(out.cancelled);
  tm_net_edges.add(out.net_edges);
  tm_touched.add(out.touched_vertices);
  tm_sig_hits.add(out.sig_hits);
  tm_sig_misses.add(out.sig_misses);
  tm_batch_updates.record(out.updates);
  tm_live_edges.set(static_cast<std::int64_t>(present_.size()));
  tm_generation.set(static_cast<std::int64_t>(generation_));
  tm_staleness.set(static_cast<std::int64_t>(generation_ -
                                             index_generation_));
  tm_sig_cache.set(static_cast<std::int64_t>(sig_cache_.size()));
  tm_batch_apply_ns.record(monotonic_ns() - apply_t0);
  return out;
}

BatchStats ConnectivityService::apply(const EdgeUpdate& update) {
  return apply_batch(std::span<const EdgeUpdate>{&update, 1});
}

ConnectivityService::RequestTicket ConnectivityService::begin_request(
    const RequestContext& ctx, telemetry::OpKind op, std::uint64_t args) {
  RequestTicket ticket;
  ticket.rid = next_rid_.fetch_add(1, std::memory_order_relaxed) + 1;
  ticket.t0 = monotonic_ns();
  ticket.op = op;
  telemetry::Event e;
  e.kind = telemetry::EventKind::kRequestBegin;
  e.rid = ticket.rid;
  e.request = ctx.stream_seq;
  e.value = args;
  e.tenant = ctx.tenant;
  e.stream = ctx.stream;
  e.op = op;
  ticket.seq_begin = telemetry::flight_recorder().record(e);
  return ticket;
}

telemetry::TenantInstruments& ConnectivityService::tenant_slot(
    std::uint32_t tenant) {
  std::lock_guard lock{tenant_mu_};
  auto it = tenants_.find(tenant);
  if (it == tenants_.end())
    it = tenants_
             .emplace(tenant, telemetry::tenant_instruments(
                                  telemetry::registry(), tenant))
             .first;
  return it->second;
}

void ConnectivityService::note_slow_op(const RequestTicket& ticket,
                                       const RequestContext& ctx,
                                       std::uint64_t latency_ns,
                                       std::uint64_t seq_end) {
  const std::size_t cap = config_.tuning.slow_op_capacity;
  if (cap == 0) return;
  const SlowOp op{ticket.rid,      ctx.tenant, ctx.stream, ctx.stream_seq,
                  ticket.op,       latency_ns, ticket.seq_begin,
                  seq_end};
  const auto min_heap = [](const SlowOp& a, const SlowOp& b) {
    return a.latency_ns > b.latency_ns;
  };
  std::lock_guard lock{slow_mu_};
  if (slow_ops_.size() < cap) {
    slow_ops_.push_back(op);
    std::push_heap(slow_ops_.begin(), slow_ops_.end(), min_heap);
  } else if (latency_ns > slow_ops_.front().latency_ns) {
    std::pop_heap(slow_ops_.begin(), slow_ops_.end(), min_heap);
    slow_ops_.back() = op;
    std::push_heap(slow_ops_.begin(), slow_ops_.end(), min_heap);
  }
}

void ConnectivityService::end_request(const RequestTicket& ticket,
                                      const RequestContext& ctx,
                                      std::uint64_t result,
                                      std::uint64_t units) {
  const std::uint64_t latency_ns = monotonic_ns() - ticket.t0;
  telemetry::Event e;
  e.kind = telemetry::EventKind::kRequestEnd;
  e.rid = ticket.rid;
  e.request = ctx.stream_seq;
  e.value = result;
  e.latency_ns = latency_ns;
  e.tenant = ctx.tenant;
  e.stream = ctx.stream;
  e.op = ticket.op;
  const std::uint64_t seq_end = telemetry::flight_recorder().record(e);
  telemetry::TenantInstruments& tm = tenant_slot(ctx.tenant);
  tm.requests.add();
  (ticket.op == telemetry::OpKind::kIngest ? tm.ingests : tm.queries).add();
  tm.request_ns.record(latency_ns);
  tm.request_units.record(units);
  note_slow_op(ticket, ctx, latency_ns, seq_end);
}

void ConnectivityService::fail_request(const RequestTicket& ticket,
                                       const RequestContext& ctx) {
  const std::uint64_t latency_ns = monotonic_ns() - ticket.t0;
  telemetry::Event e;
  e.kind = telemetry::EventKind::kRequestEnd;
  e.rid = ticket.rid;
  e.request = ctx.stream_seq;
  e.latency_ns = latency_ns;
  e.tenant = ctx.tenant;
  e.stream = ctx.stream;
  e.op = ticket.op;
  e.error = true;
  const std::uint64_t seq_end = telemetry::flight_recorder().record(e);
  telemetry::TenantInstruments& tm = tenant_slot(ctx.tenant);
  tm.requests.add();
  tm.errors.add();
  tm.request_ns.record(latency_ns);
  note_slow_op(ticket, ctx, latency_ns, seq_end);
  // Dump-on-ServiceError/ProtocolError: capture the window around the
  // failure while it is still in the rings (capped, see kMaxAutoDumps).
  std::string reason{"service-error:"};
  reason += telemetry::op_kind_name(ticket.op);
  telemetry::flight_recorder().auto_dump(reason);
}

BatchStats ConnectivityService::apply_batch(
    std::span<const EdgeUpdate> updates, const RequestContext& ctx) {
  RequestTicket ticket =
      begin_request(ctx, telemetry::OpKind::kIngest, updates.size());
  try {
    BatchStats out = apply_batch(updates);
    telemetry::Event batch;
    batch.kind = telemetry::EventKind::kBatchApply;
    batch.rid = ticket.rid;
    batch.request = ctx.stream_seq;
    batch.value = out.updates;  // presented count: schedule-deterministic
    batch.tenant = ctx.tenant;
    batch.stream = ctx.stream;
    batch.op = telemetry::OpKind::kIngest;
    telemetry::flight_recorder().record(batch);
    end_request(ticket, ctx, out.inserts + out.deletes, out.updates);
    return out;
  } catch (...) {
    fail_request(ticket, ctx);
    throw;
  }
}

bool ConnectivityService::connected(VertexId u, VertexId v,
                                    const RequestContext& ctx) {
  RequestTicket ticket =
      begin_request(ctx, telemetry::OpKind::kConnected,
                    (static_cast<std::uint64_t>(u) << 32) | v);
  try {
    const bool same = connected(u, v);
    end_request(ticket, ctx, same ? 1 : 0, 1);
    return same;
  } catch (...) {
    fail_request(ticket, ctx);
    throw;
  }
}

VertexId ConnectivityService::component_of(VertexId u,
                                           const RequestContext& ctx) {
  RequestTicket ticket =
      begin_request(ctx, telemetry::OpKind::kComponentOf, u);
  try {
    const VertexId label = component_of(u);
    end_request(ticket, ctx, label, 1);
    return label;
  } catch (...) {
    fail_request(ticket, ctx);
    throw;
  }
}

std::uint32_t ConnectivityService::num_components(const RequestContext& ctx) {
  RequestTicket ticket =
      begin_request(ctx, telemetry::OpKind::kNumComponents, 0);
  try {
    const std::uint32_t components = num_components();
    end_request(ticket, ctx, components, 1);
    return components;
  } catch (...) {
    fail_request(ticket, ctx);
    throw;
  }
}

std::vector<VertexId> ConnectivityService::component_labels(
    const RequestContext& ctx) {
  RequestTicket ticket =
      begin_request(ctx, telemetry::OpKind::kComponentLabels, 0);
  try {
    std::vector<VertexId> labels = component_labels();
    end_request(ticket, ctx, labels.size(), 1);
    return labels;
  } catch (...) {
    fail_request(ticket, ctx);
    throw;
  }
}

std::vector<SlowOp> ConnectivityService::slow_ops() const {
  std::lock_guard lock{slow_mu_};
  std::vector<SlowOp> out = slow_ops_;
  std::sort(out.begin(), out.end(), [](const SlowOp& a, const SlowOp& b) {
    if (a.latency_ns != b.latency_ns) return a.latency_ns > b.latency_ns;
    return a.rid < b.rid;
  });
  return out;
}

bool ConnectivityService::connected(VertexId u, VertexId v) {
  check_vertex(u, config_.n, "connected");
  check_vertex(v, config_.n, "connected");
  const std::uint64_t t0 = monotonic_ns();
  {
    std::shared_lock lock{mu_};
    if (index_generation_ == generation_) {
      queries_.fetch_add(1, std::memory_order_relaxed);
      tm_queries.add();
      const bool same = labels_[u] == labels_[v];
      tm_query_connected_ns.record(monotonic_ns() - t0);
      return same;
    }
  }
  std::unique_lock lock{mu_};
  refresh_index_locked();
  queries_.fetch_add(1, std::memory_order_relaxed);
  tm_queries.add();
  tm_query_connected_ns.record(monotonic_ns() - t0);
  return labels_[u] == labels_[v];
}

VertexId ConnectivityService::component_of(VertexId u) {
  check_vertex(u, config_.n, "component_of");
  const std::uint64_t t0 = monotonic_ns();
  {
    std::shared_lock lock{mu_};
    if (index_generation_ == generation_) {
      queries_.fetch_add(1, std::memory_order_relaxed);
      tm_queries.add();
      const VertexId label = labels_[u];
      tm_query_component_of_ns.record(monotonic_ns() - t0);
      return label;
    }
  }
  std::unique_lock lock{mu_};
  refresh_index_locked();
  queries_.fetch_add(1, std::memory_order_relaxed);
  tm_queries.add();
  tm_query_component_of_ns.record(monotonic_ns() - t0);
  return labels_[u];
}

std::uint32_t ConnectivityService::num_components() {
  const std::uint64_t t0 = monotonic_ns();
  {
    std::shared_lock lock{mu_};
    if (index_generation_ == generation_) {
      queries_.fetch_add(1, std::memory_order_relaxed);
      tm_queries.add();
      const std::uint32_t components = num_components_;
      tm_query_num_components_ns.record(monotonic_ns() - t0);
      return components;
    }
  }
  std::unique_lock lock{mu_};
  refresh_index_locked();
  queries_.fetch_add(1, std::memory_order_relaxed);
  tm_queries.add();
  tm_query_num_components_ns.record(monotonic_ns() - t0);
  return num_components_;
}

std::vector<VertexId> ConnectivityService::component_labels() {
  // Not counted in ccq_service_queries_total: ServiceStats::queries has
  // never counted label dumps, and the registry mirrors it exactly.
  const std::uint64_t t0 = monotonic_ns();
  {
    std::shared_lock lock{mu_};
    if (index_generation_ == generation_) {
      std::vector<VertexId> labels = labels_;
      tm_query_labels_ns.record(monotonic_ns() - t0);
      return labels;
    }
  }
  std::unique_lock lock{mu_};
  refresh_index_locked();
  tm_query_labels_ns.record(monotonic_ns() - t0);
  return labels_;
}

std::uint64_t ConnectivityService::generation() const {
  std::shared_lock lock{mu_};
  return generation_;
}

bool ConnectivityService::monte_carlo_ok() const {
  std::shared_lock lock{mu_};
  return monte_carlo_ok_;
}

ServiceStats ConnectivityService::stats() const {
  std::shared_lock lock{mu_};
  ServiceStats s;
  s.batches = batches_;
  s.updates = updates_;
  s.inserts = inserts_;
  s.deletes = deletes_;
  s.ignored = ignored_;
  s.cancelled = cancelled_;
  s.live_edges = present_.size();
  s.generation = generation_;
  s.index_generation = index_generation_;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.recomputes = recomputes_;
  s.boruvka_rounds = boruvka_rounds_;
  s.sig_cache_entries = sig_cache_.size();
  s.sig_cache_hits = sig_hits_;
  s.sig_cache_misses = sig_misses_;
  s.monte_carlo_ok = monte_carlo_ok_;
  return s;
}

SketchForestResult ConnectivityService::recompute_local_locked() {
  // The resident lanes already are the SketchArena layout (vertex v's copy
  // j at block v * t + j), so Borůvka reads them in place.
  std::vector<VertexId> identity(config_.n);
  for (VertexId v = 0; v < config_.n; ++v) identity[v] = v;
  return sketch_spanning_forest(*space_, identity, identity,
                                {phi_, iota_, tau_});
}

SketchForestResult ConnectivityService::recompute_engine_locked() {
  // The core/sketch_and_span shape over the resident lanes: every vertex
  // routes its t sketch copies to the coordinator (Lenzen routing), the
  // coordinator runs sketch Borůvka locally, then spray-broadcasts the
  // forest so every node can hold the labels. Rounds/messages/words are
  // charged to the engine exactly as the one-shot algorithm charges them.
  const std::uint32_t n = config_.n;
  const VertexId coordinator = 0;
  RoundBuffer route_buf;
  {
    TraceScope step{*engine_, "collect-sketches"};
    // The resident lanes are already per-vertex blocks of t copies: each
    // is packetized straight into its own slice.
    const std::size_t per_vertex = sketch_packet_count(*space_);
    const SketchLanes resident{phi_, iota_, tau_};
    PacketArray packets{static_cast<std::size_t>(n) * per_vertex};
    for (VertexId v = 0; v < n; ++v)
      write_sketch_packets(packets.span().subspan(v * per_vertex, per_vertex),
                           v, coordinator, kTagServiceSketch, *space_,
                           resident.sketch(v, block_));
    route_packets_into(*engine_, packets.span(), route_buf);
  }
  std::vector<VertexId> identity(n);
  for (VertexId v = 0; v < n; ++v) identity[v] = v;
  SketchReassembler reassembler{*space_, kTagServiceSketch};
  SketchArena sketches;
  reassembler.decode(route_buf.inbox(coordinator), identity, sketches);
  SketchForestResult forest =
      sketch_spanning_forest(*space_, identity, identity, sketches.view());
  {
    TraceScope step{*engine_, "broadcast-forest"};
    std::vector<std::vector<std::uint64_t>> items;
    items.reserve(forest.forest.size());
    for (const Edge& e : forest.forest) items.push_back({e.u, e.v});
    check(items.size() < n, "ConnectivityService: forest larger than n-1");
    if (!items.empty()) spray_broadcast(*engine_, coordinator, items);
  }
  return forest;
}

void ConnectivityService::refresh_index_locked() {
  if (index_generation_ == generation_) return;
  const std::uint64_t t0 = monotonic_ns();
  const Metrics engine_before = engine_->metrics();
  TraceScope svc_scope{*engine_, "service"};
  TraceScope scope{*engine_, "recompute", recomputes_};
  ++recomputes_;
  SketchForestResult forest =
      config_.tuning.index_mode == IndexMode::kEngine
          ? recompute_engine_locked()
          : recompute_local_locked();
  monte_carlo_ok_ = !forest.ran_out_of_sketches;
  boruvka_rounds_ += forest.boruvka_rounds;
  // Canonical labels: the smallest vertex id in each component, so label
  // vectors compare equal across index modes and thread counts.
  const std::uint32_t n = config_.n;
  UnionFind uf{n};
  for (const Edge& e : forest.forest) uf.unite(e.u, e.v);
  labels_.assign(n, 0);
  std::vector<VertexId> min_of(n, n);
  std::uint32_t components = 0;
  for (VertexId v = 0; v < n; ++v) {
    const auto root = static_cast<VertexId>(uf.find(v));
    if (min_of[root] == n) {
      min_of[root] = v;  // v ascending: first visitor is the minimum
      ++components;
    }
    labels_[v] = min_of[root];
  }
  num_components_ = components;
  index_generation_ = generation_;

  const Metrics& engine_after = engine_->metrics();
  tm_recomputes.add();
  tm_recompute_rounds.add(engine_after.rounds - engine_before.rounds);
  tm_recompute_messages.add(engine_after.messages - engine_before.messages);
  tm_boruvka_rounds.add(forest.boruvka_rounds);
  tm_components.set(static_cast<std::int64_t>(components));
  tm_index_generation.set(static_cast<std::int64_t>(index_generation_));
  tm_staleness.set(0);
  const std::uint64_t recompute_ns = monotonic_ns() - t0;
  tm_recompute_ns.record(recompute_ns);
  telemetry::Event e;
  e.kind = telemetry::EventKind::kRecompute;
  e.request = recomputes_;  // ordinal; which query triggers it is racy
  e.value = index_generation_;
  e.latency_ns = recompute_ns;
  telemetry::flight_recorder().record(e);
}

ServiceSnapshot ConnectivityService::snapshot() const {
  std::shared_lock lock{mu_};
  ServiceSnapshot s;
  s.n = config_.n;
  s.seed = config_.seed;
  s.copies = config_.copies;
  s.buckets = config_.buckets;
  s.levels = space_->params().levels;
  s.generation = generation_;
  s.index_generation = index_generation_;
  s.num_components = num_components_;
  s.monte_carlo_ok = monte_carlo_ok_;
  s.seed_words = seed_words_;
  s.edge_keys.assign(present_.begin(), present_.end());
  std::sort(s.edge_keys.begin(), s.edge_keys.end());
  s.phi = phi_;
  s.iota = iota_;
  s.tau = tau_;
  s.labels = labels_;
  telemetry::Event e;
  e.kind = telemetry::EventKind::kSnapshot;
  e.value = generation_;
  telemetry::flight_recorder().record(e);
  return s;
}

std::vector<std::uint8_t> ConnectivityService::serialize() const {
  return encode_snapshot(snapshot());
}

void ConnectivityService::save_file(const std::string& path) const {
  write_snapshot_file(path, snapshot());
}

std::unique_ptr<ConnectivityService> ConnectivityService::restore(
    const ServiceSnapshot& snap, const ServiceTuning& tuning) {
  return std::unique_ptr<ConnectivityService>{
      new ConnectivityService{snap, tuning, RestoreTag{}}};
}

std::unique_ptr<ConnectivityService> ConnectivityService::restore(
    std::span<const std::uint8_t> bytes, const ServiceTuning& tuning) {
  return restore(decode_snapshot(bytes), tuning);
}

std::unique_ptr<ConnectivityService> ConnectivityService::restore_file(
    const std::string& path, const ServiceTuning& tuning) {
  return restore(read_snapshot_file(path), tuning);
}

}  // namespace ccq
