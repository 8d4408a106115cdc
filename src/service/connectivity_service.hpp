// ConnectivityService: a long-lived dynamic-connectivity server over the
// paper's linear l0-sketches.
//
// The ROADMAP's "millions of users" shape: one continuously-updated sketch
// structure ingests an insert/delete edge stream in batches while many
// query threads ask connected(u,v) / component_of(u) / num_components()
// between batches. Three properties of the paper's machinery make this a
// service rather than a one-shot algorithm:
//
//   1. *Linearity* (Section 2.1): sketch(a) + sketch(b) = sketch(a + b),
//      so an edge deletion is the insertion of a negated delta and a whole
//      batch collapses to one linear merge per touched vertex — the
//      GraphStreamingCC trick. Field addition in GF(2^61-1) and
//      two's-complement int64 addition are exactly associative and
//      commutative, so the merged state is independent of update order and
//      of how the batch was sharded across threads (serial == parallel,
//      pinned by tests/service_test.cpp).
//   2. *Composability*: component labels are recomputed lazily by the same
//      sketch Borůvka the GC algorithm runs (core/sketch_and_span shape) —
//      vertices route their t sketch copies to a coordinator over the
//      CliqueEngine, which samples inter-component edges and
//      spray-broadcasts the forest (IndexMode::kLocal runs that Borůvka on
//      the resident lanes in place instead). A generation counter makes
//      unchanged state free: queries against a fresh index never recompute.
//   3. *Self-containment*: the full resident state (seed words, presence
//      set, SoA sketch lanes, labels) round-trips through a versioned
//      binary snapshot (service/snapshot) byte-identically.
//
// Ingest hot path: per-coordinate *signatures* — the cell indices and
// field fingerprints an update touches across all t families — are cached
// on first sight, so warm updates are ~2t plain adds per endpoint instead
// of the k-wise hash + field::pow evaluation L0Sketch::update pays. The
// resident state lives in three flat SoA lanes (phi/iota/tau, one
// copies*cells block per vertex) so a batch's per-vertex delta block merges
// through the same SIMD kernels (sketch/sketch_kernels) the engine's
// coordinator path uses.
//
// Threading contract: apply_batch and snapshot take the writer lock;
// queries take the reader lock and only upgrade when the index is stale.
// The engine, the trace and the load profile are driven exclusively under
// the writer lock, so attaching observability sinks is safe whenever no
// batch is in flight (docs/SERVICE.md, "Threading").
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "clique/engine.hpp"
#include "service/edge_stream.hpp"
#include "service/snapshot.hpp"
#include "sketch/graph_sketch.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/tenant_metrics.hpp"
#include "util/thread_pool.hpp"

namespace ccq {

/// Caller-supplied identity of one request. Every query/ingest overload
/// that takes a RequestContext stamps the request into the per-tenant
/// instruments (telemetry/tenant_metrics) and the flight recorder; the
/// service adds a process-monotonic request id (`rid`) on top. `stream` and
/// `stream_seq` are the *deterministic* coordinates — a seeded client
/// assigns them from its own schedule, which is what makes canonical
/// flight-recorder dumps byte-identical across identical runs.
struct RequestContext {
  std::uint32_t tenant{0};
  std::uint32_t stream{0};     // client stream id within the tenant
  std::uint64_t stream_seq{0};  // per-stream request ordinal
};

/// One entry of the bounded slow-op log: the k worst-latency requests seen
/// since boot, each with the flight-recorder window [seq_begin, seq_end]
/// that brackets its events in an operational dump.
struct SlowOp {
  std::uint64_t rid{0};
  std::uint32_t tenant{0};
  std::uint32_t stream{0};
  std::uint64_t stream_seq{0};
  telemetry::OpKind op{telemetry::OpKind::kNone};
  std::uint64_t latency_ns{0};
  std::uint64_t seq_begin{0};
  std::uint64_t seq_end{0};
};

/// How the lazy index recompute runs.
enum class IndexMode : std::uint8_t {
  /// Model-faithful (default): sketches route to the coordinator over the
  /// CliqueEngine (Lenzen routing), Borůvka runs there, the forest is
  /// spray-broadcast — rounds/messages charged exactly like
  /// core/sketch_and_span.
  kEngine = 0,
  /// Coordinator-local: skip the routing and run sketch Borůvka directly
  /// on the resident lanes — sketch_spanning_forest reads phi_/iota_/tau_
  /// in place, with no copy, and sums only the one copy each component
  /// samples per round. Same answers, no engine rounds — the serving
  /// configuration when query latency matters more than model accounting.
  kLocal = 1,
};

/// Runtime knobs that do not affect the service's logical state (not
/// persisted in snapshots; restore accepts fresh ones).
struct ServiceTuning {
  /// Thread-pool lanes for batch sharding and the engine (0 = hardware).
  /// Any value produces bit-identical state — linearity again.
  std::uint32_t threads{1};
  IndexMode index_mode{IndexMode::kEngine};
  /// Strict streams: duplicate inserts / deletes of absent edges throw
  /// ServiceError and the batch is rejected atomically. Default (false)
  /// counts them in BatchStats::ignored and moves on.
  bool strict{false};
  /// Max coordinate signatures kept resident (~1 KiB each). Coordinates
  /// beyond the cap are recomputed per batch instead of cached.
  std::size_t sig_cache_capacity{std::size_t{1} << 17};
  /// Worst-latency requests retained in the slow-op log (0 disables it).
  std::size_t slow_op_capacity{16};
};

/// Identity of a service instance. n and seed pin the sketch families;
/// copies/buckets pin their geometry. Snapshots persist exactly these plus
/// the derived seed words.
struct ServiceConfig {
  std::uint32_t n{0};
  std::uint64_t seed{0x9e3779b97f4a7c15ULL};
  /// Independent sketch families t (0 = default_sketch_copies(n)).
  std::uint32_t copies{0};
  /// Detectors per level (Cormode-Firmani tables; 1 = lean layout).
  std::uint32_t buckets{3};
  ServiceTuning tuning{};
};

/// Per-batch outcome (also folded into the cumulative ServiceStats).
struct BatchStats {
  std::uint64_t batch{0};             ///< 0-based batch index
  std::uint64_t updates{0};           ///< records presented
  std::uint64_t inserts{0};           ///< accepted inserts
  std::uint64_t deletes{0};           ///< accepted deletes
  std::uint64_t ignored{0};           ///< non-strict duplicate/absent ops
  std::uint64_t cancelled{0};         ///< accepted records annihilated in-batch
  std::uint64_t net_edges{0};         ///< edge coordinates actually merged
  std::uint64_t touched_vertices{0};  ///< vertices whose lanes changed
  std::uint64_t sig_hits{0};          ///< signature-cache hits
  std::uint64_t sig_misses{0};        ///< signatures computed this batch
  std::uint64_t generation{0};        ///< state generation after the batch
};

/// Cumulative service counters (all monotone except live_edges and the
/// generation pair). Reset by restore — snapshots persist state, not ops.
struct ServiceStats {
  std::uint64_t batches{0};
  std::uint64_t updates{0};
  std::uint64_t inserts{0};
  std::uint64_t deletes{0};
  std::uint64_t ignored{0};
  std::uint64_t cancelled{0};
  std::uint64_t live_edges{0};
  std::uint64_t generation{0};
  std::uint64_t index_generation{0};
  std::uint64_t queries{0};
  std::uint64_t recomputes{0};
  std::uint64_t boruvka_rounds{0};
  std::uint64_t sig_cache_entries{0};
  std::uint64_t sig_cache_hits{0};
  std::uint64_t sig_cache_misses{0};
  bool monte_carlo_ok{true};
};

class ConnectivityService {
 public:
  /// Boot a fresh service: builds the engine, runs the Theorem 1
  /// shared-randomness protocol to derive the family seed words, and
  /// starts with the empty graph (every vertex its own component; the
  /// index is born fresh, so queries before the first batch are free).
  explicit ConnectivityService(const ServiceConfig& config);
  ~ConnectivityService();

  ConnectivityService(const ConnectivityService&) = delete;
  ConnectivityService& operator=(const ConnectivityService&) = delete;

  std::uint32_t n() const { return config_.n; }
  const ServiceConfig& config() const { return config_; }

  /// Ingest one batch atomically under the writer lock. Updates may appear
  /// in any order and endpoint orientation; in-batch insert/delete pairs
  /// cancel before any sketch work. Throws ServiceError on out-of-range or
  /// self-loop endpoints always, and on duplicate-insert / absent-delete
  /// in strict mode — in every throwing case the service state is
  /// unchanged (validation completes before the first mutation).
  BatchStats apply_batch(std::span<const EdgeUpdate> updates);
  /// Same ingest, stamped with a request identity: per-tenant instruments,
  /// request begin/end + batch-apply flight-recorder events, slow-op log.
  BatchStats apply_batch(std::span<const EdgeUpdate> updates,
                         const RequestContext& ctx);

  /// Convenience: one-update batch.
  BatchStats apply(const EdgeUpdate& update);

  /// True iff u and v are in the same component (w.h.p., see
  /// monte_carlo_ok). Refreshes the index if stale.
  bool connected(VertexId u, VertexId v);
  bool connected(VertexId u, VertexId v, const RequestContext& ctx);

  /// Canonical component label of u: the smallest vertex id in u's
  /// component. Refreshes the index if stale.
  VertexId component_of(VertexId u);
  VertexId component_of(VertexId u, const RequestContext& ctx);

  /// Number of connected components (isolated vertices count).
  std::uint32_t num_components();
  std::uint32_t num_components(const RequestContext& ctx);

  /// Copy of all component labels (index refreshed first).
  std::vector<VertexId> component_labels();
  std::vector<VertexId> component_labels(const RequestContext& ctx);

  /// The k worst-latency requests since boot (largest first). k is
  /// ServiceTuning::slow_op_capacity; only context-stamped overloads feed
  /// the log.
  std::vector<SlowOp> slow_ops() const;

  /// State generation: bumps once per batch that changed anything.
  std::uint64_t generation() const;

  /// False iff some recompute ran out of fresh sketch copies and may have
  /// under-merged (the paper's w.h.p. caveat, surfaced not hidden).
  bool monte_carlo_ok() const;

  ServiceStats stats() const;

  /// Serialize the full resident state (see service/snapshot layout).
  ServiceSnapshot snapshot() const;
  std::vector<std::uint8_t> serialize() const;
  void save_file(const std::string& path) const;

  /// Rebuild a service from a snapshot: bit-identical families from the
  /// stored seed words, lanes and labels restored verbatim, op counters
  /// reset. Throws ServiceError on any incompatibility (snapshot.cpp has
  /// the field checks).
  static std::unique_ptr<ConnectivityService> restore(
      const ServiceSnapshot& snap, const ServiceTuning& tuning = {});
  static std::unique_ptr<ConnectivityService> restore(
      std::span<const std::uint8_t> bytes, const ServiceTuning& tuning = {});
  static std::unique_ptr<ConnectivityService> restore_file(
      const std::string& path, const ServiceTuning& tuning = {});

  /// The engine all recompute rounds are charged to. Attach Trace /
  /// LoadProfile sinks here while no batch or stale query is in flight.
  CliqueEngine& engine() { return *engine_; }
  const Metrics& metrics() const { return engine_->metrics(); }

 private:
  using Signature = std::vector<SignatureEntry>;

  struct RestoreTag {};
  ConnectivityService(const ServiceSnapshot& snap,
                      const ServiceTuning& tuning, RestoreTag);

  // One in-flight stamped request: begin_request() opens it (monotonic
  // rid, begin event, wall t0), end_request()/fail_request() close it.
  struct RequestTicket {
    std::uint64_t rid{0};
    std::uint64_t t0{0};
    std::uint64_t seq_begin{0};
    telemetry::OpKind op{telemetry::OpKind::kNone};
  };
  RequestTicket begin_request(const RequestContext& ctx, telemetry::OpKind op,
                              std::uint64_t args);
  void end_request(const RequestTicket& ticket, const RequestContext& ctx,
                   std::uint64_t result, std::uint64_t units);
  void fail_request(const RequestTicket& ticket, const RequestContext& ctx);
  telemetry::TenantInstruments& tenant_slot(std::uint32_t tenant);
  void note_slow_op(const RequestTicket& ticket, const RequestContext& ctx,
                    std::uint64_t latency_ns, std::uint64_t seq_end);

  void init_geometry();
  /// Look up (or transiently compute into `scratch`) a coordinate's
  /// signature; assumes the batch pre-pass already populated both maps.
  const Signature& signature_of(
      std::uint64_t coord,
      const std::unordered_map<std::uint64_t, Signature>& overflow) const;
  void refresh_index_locked();
  SketchForestResult recompute_engine_locked();
  SketchForestResult recompute_local_locked();

  ServiceConfig config_;  // copies resolved to the actual t
  std::vector<std::uint64_t> seed_words_;
  std::unique_ptr<CliqueEngine> engine_;
  std::unique_ptr<SketchSpace> space_;
  std::unique_ptr<ThreadPool> pool_;

  std::size_t cells_{0};  // per copy: levels * buckets
  std::size_t block_{0};  // per vertex: copies * cells_
  std::vector<std::int64_t> phi_;    // n * block_ words
  std::vector<std::int64_t> iota_;   // n * block_ words
  std::vector<std::uint64_t> tau_;   // n * block_ words
  std::unordered_set<std::uint64_t> present_;  // live edge keys

  std::unordered_map<std::uint64_t, Signature> sig_cache_;
  std::uint64_t sig_hits_{0};
  std::uint64_t sig_misses_{0};

  std::vector<VertexId> labels_;
  std::uint32_t num_components_{0};
  bool monte_carlo_ok_{true};
  std::uint64_t generation_{0};
  std::uint64_t index_generation_{0};

  std::uint64_t batches_{0};
  std::uint64_t updates_{0};
  std::uint64_t inserts_{0};
  std::uint64_t deletes_{0};
  std::uint64_t ignored_{0};
  std::uint64_t cancelled_{0};
  std::uint64_t recomputes_{0};
  std::uint64_t boruvka_rounds_{0};
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> next_rid_{0};

  // Per-tenant instrument bundles (cold registration, cached per tenant)
  // and the bounded slow-op log, both under their own small mutexes so the
  // reader/writer service lock is never held while touching them.
  mutable std::mutex tenant_mu_;
  std::unordered_map<std::uint32_t, telemetry::TenantInstruments> tenants_;
  mutable std::mutex slow_mu_;
  std::vector<SlowOp> slow_ops_;  // min-heap by latency_ns

  // Batch scratch, reused across batches (cleared per touched vertex).
  struct CoordDelta {
    std::uint64_t key;
    std::int32_t c;
  };
  std::vector<std::vector<CoordDelta>> deltas_of_;  // n slots

  mutable std::shared_mutex mu_;
};

}  // namespace ccq
