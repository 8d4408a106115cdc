// The Congested Clique execution engine.
//
// Model (paper, Section 1.2): n nodes, complete network, synchronous
// rounds; in each round every node may send a (possibly different) message
// of O(log n) bits to each of its n-1 neighbours. Two knowledge variants:
// KT1 (nodes know their neighbours' IDs a priori) and KT0 (nodes know only
// their own ID and their numbered ports).
//
// The engine executes algorithms written in SPMD style: each round, a
// send callback is invoked once per node to fill that node's outbox from
// the node's pre-round state, then all messages are delivered
// simultaneously. The engine *enforces* the model:
//
//   - at most `messages_per_link` messages per ordered link per round
//     (default 1, the standard model; set Θ(log^4 n) for the paper's
//     O(log^5 n)-bit-bandwidth variants),
//   - sends to out-of-range nodes or to self are rejected,
//   - violations throw ProtocolError — so a green test suite certifies
//     that every claimed round schedule is feasible.
//
// Execution strategy (a simulator detail, invisible to the model): senders
// are sharded into contiguous id ranges executed on a reusable thread pool
// (EngineConfig::threads lanes), each shard filling a worker-local flat
// record buffer; the shard buffers are then bucket-sorted by destination
// into a reusable RoundBuffer arena with a counting pass. Because shards
// are contiguous and the counting sort is stable, delivery order is
// (sender id, submission order) — bit-identical to the serial loop — and
// per-shard metrics merge deterministically. The engine falls back to the
// fully serial path when threads == 1, when the sender set is small, or
// when a message observer is installed (lower-bound audits stay exact).
// Steady-state rounds reuse every buffer: zero heap allocation.
//
// Hot-path layout (docs/MODEL.md, "Wire format & kernel dispatch"):
//
//   - packed wire format: records move through the shard buffers and the
//     arena bit-packed to their information content (clique/packed_message,
//     typically 3-7 bytes instead of sizeof(Message) == 48) and are decoded
//     back into Message form only when an inbox is first read. This is the
//     engine's only delivery path; its route sidecar holds destinations in
//     26 bits, so generic rounds need n <= 2^26 (larger engines throw
//     ProtocolError on a generic round but keep every fast path).
//   - cache-blocked delivery: once the arena outgrows the last-level
//     cache, the placement pass would touch every destination cacheline
//     ~10x (records from consecutive senders to one bucket are ~n record
//     lengths apart). The merge then switches to a two-pass tile: shards
//     first append records into per-destination-block staging streams
//     (sequential writes), then each block — sized to stay cache-resident —
//     is placed on its own. Same bytes in the same order, so the arena is
//     byte-identical to the direct path.
//   - superstep fusion (fused_rounds_arena): a static schedule of k rounds
//     runs as ONE pass over shard fill + merge, with buckets keyed
//     (destination, sub-round). Metrics, trace and load accounting are
//     still charged per sub-round, so NDJSON schema 1/2 output is
//     byte-identical to the unfused engine.
//
// Rounds, messages and words are counted exactly (clique/metrics). The
// engine also supports:
//
//   - virtual time: skip_silent_rounds(k) advances the round counter by k
//     rounds in O(1) work, used by the KT1 clock-coding algorithm whose
//     round count is super-polynomial but almost always silent;
//   - message observers: a callback invoked per delivered message, used by
//     the lower-bound experiments to audit which vertex-partitions a
//     protocol's messages cross (Section 4 of the paper).
//
// Fixed-schedule fast paths (all-to-all broadcast and friends) live in
// comm/primitives; they deliver data without materializing n^2 Message
// objects but are charged through the same counters and are
// bandwidth-valid by construction (each such schedule uses each ordered
// link at most once per round).
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "clique/message.hpp"
#include "clique/metrics.hpp"
#include "clique/packed_message.hpp"
#include "clique/round_buffer.hpp"
#include "graph/graph.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace ccq {

class Trace;
class LoadProfile;

enum class Knowledge { KT0, KT1 };

struct EngineConfig {
  std::uint32_t n{0};
  /// Per-ordered-link, per-round message budget. 1 models the standard
  /// O(log n)-bit links; ceil(log2(n))^4 models the O(log^5 n)-bit links of
  /// the constant-round variants in Theorems 4 and 7.
  std::uint32_t messages_per_link{1};
  Knowledge knowledge{Knowledge::KT1};
  /// Simulator execution lanes for the generic round path: 0 = auto (up to
  /// all hardware threads, scaled down for low-volume rounds — see
  /// kAutoMessagesPerLane), 1 = the fully serial engine, k = exactly k
  /// lanes whenever the sender set reaches kParallelMinSenders. Threading
  /// is invisible to the model — rounds/messages/words and delivery order
  /// are identical for every value (docs/MODEL.md, "Parallel execution &
  /// determinism").
  std::uint32_t threads{0};
};

/// Budget for the wide-bandwidth variant: one O(log^5 n)-bit link carries
/// Θ(log^4 n) messages of O(log n) bits each.
std::uint32_t wide_bandwidth_messages_per_link(std::uint32_t n);

/// Sender sets below this size always take the serial path: the pool's
/// wake/park latency would dominate, and small instances are exactly the
/// ones the lower-bound audits single-step through. (Was 128; lowered after
/// the packed-format rework cut per-message fill cost — measured crossover
/// in docs/MODEL.md, "Parallel threshold".)
inline constexpr std::size_t kParallelMinSenders = 64;

/// Auto-threading (threads == 0) volume heuristic: one extra lane per this
/// many predicted messages in the window, predicted from the previous
/// generic window (optimistically all-lanes on the first). Keeps low-volume
/// rounds off the pool, whose wake/join cost dominates below roughly this
/// many messages per lane (docs/MODEL.md, "Parallel threshold"). Lane count
/// never affects results, only speed.
inline constexpr std::uint64_t kAutoMessagesPerLane = 8192;

/// Per-link budget counters are epoch-tagged: each used[] entry holds
/// (sender epoch << kUsedCountBits) | count, and a stale epoch reads as
/// count 0 — so moving to the next sender is one epoch increment instead of
/// a re-zero pass over every destination it touched (which cost ~1 store
/// per message on all-to-all rounds). 24 count bits cover the largest legal
/// budget (wide_bandwidth_messages_per_link tops out at 32^4 = 2^20); the
/// 40 epoch bits outlast any run by orders of magnitude.
inline constexpr std::uint32_t kUsedCountBits = 24;
inline constexpr std::uint64_t kUsedCountMask =
    (std::uint64_t{1} << kUsedCountBits) - 1;

/// Per-(sub-round, destination) fill tallies pack (message count << 32) |
/// packed bytes into ONE word, halving the tally arrays' cache footprint in
/// the fill loop and the merge's counting pass. Cannot overflow: per
/// (shard, sub-round, destination) both fields are bounded by the per-link
/// budget (< 2^24 messages, < 2^24 * kMaxRecordBytes < 2^30 bytes).
inline constexpr std::uint32_t kTallyCountShift = 32;
inline constexpr std::uint64_t kTallyBytesMask =
    (std::uint64_t{1} << kTallyCountShift) - 1;

/// Per-node outbox for one (sub-)round. Enforces per-destination budget
/// eagerly and tallies counts/bytes/words as it goes (the merge never
/// re-scans records). A view over its shard's worker-local buffers —
/// creating one allocates nothing.
class Outbox {
 public:
  /// Send `m` to `dst` (tag/payload taken from m; src/dst overwritten).
  /// Defined here (not in engine.cpp) and force-inlined so it merges into
  /// the caller's send lambda: the encode call then sees a compile-time word
  /// count at most call sites, which is worth ~25% of the whole fill+merge
  /// hot path (the out-of-line version profiled at ~5 ns/message).
  CLIQUE_ALWAYS_INLINE void send(VertexId dst, const Message& m) {
    if (dst >= n_)
      throw ProtocolError("Outbox::send: destination out of range");
    if (dst == src_)
      throw ProtocolError("Outbox::send: self-send has no link in the clique");
    // Epoch-tagged budget counter (see kUsedCountBits): an entry whose
    // epoch is not ours belongs to an earlier sender and reads as count 0.
    const std::uint64_t seen = used_[dst];
    const std::uint64_t cur = (seen & ~kUsedCountMask) == epoch_ ? seen
                                                                 : epoch_;
    const auto prior = static_cast<std::uint32_t>(cur & kUsedCountMask);
    if (prior >= budget_)
      throw ProtocolError(
          "Outbox::send: per-link bandwidth budget exceeded for this round");
    used_[dst] = cur + 1;
    // Eager tallies: the merge's counting pass reads these totals instead of
    // re-scanning records (run_shard rolls them back if the sender throws).
    ++sent_;
    *words_ += m.count;
    if (dst_words_) {
      dst_words_[dst] += m.count;
      // Only the congestion profiler walks touched destinations (per-link
      // maxima); the unprofiled engine skips the bookkeeping entirely.
      if (prior == 0) touched_->push_back(dst);
    }
    const std::size_t len =
        packed::encode(m, src_, src_w_, bytes_->grow_for_record());
    bytes_->advance(len);
    dst_tally_[dst] += (std::uint64_t{1} << kTallyCountShift) | len;
    route_->push_back({dst, static_cast<std::uint32_t>(len)});
  }

  /// Messages sent through this outbox so far.
  std::size_t size() const { return sent_; }

 private:
  friend class CliqueEngine;
  Outbox(VertexId src, std::uint32_t n, std::uint32_t budget,
         std::uint32_t src_w, std::uint64_t epoch, packed::PackedBuf* bytes,
         std::vector<packed::Route>* route, std::uint64_t* used,
         std::vector<VertexId>* touched, std::uint64_t* dst_tally,
         std::uint64_t* words, std::uint64_t* dst_words)
      : src_(src), n_(n), budget_(budget), src_w_(src_w),
        epoch_(epoch << kUsedCountBits), bytes_(bytes), route_(route),
        used_(used), touched_(touched), dst_tally_(dst_tally), words_(words),
        dst_words_(dst_words) {}

  VertexId src_;
  std::uint32_t n_;
  std::uint32_t budget_;
  std::uint32_t src_w_;            // packed src field width (bytes)
  std::uint64_t epoch_;            // this sender's tag, pre-shifted
  packed::PackedBuf* bytes_;       // packed record stream
  std::vector<packed::Route>* route_;  // packed (dst, len) sidecar
  std::uint64_t* used_;            // epoch-tagged per-destination counters
  std::vector<VertexId>* touched_; // profiled: destinations this sender hit
  std::uint64_t* dst_tally_;       // (count << 32 | bytes) per destination
  std::uint64_t* words_;           // shard payload words, this sub-round
  std::uint64_t* dst_words_;       // profiled per-destination words, or null
  std::size_t sent_{0};
};

/// Send callback for a fused window: invoked as send(u, r, out) for every
/// sender u and sub-round r in [0, rounds).
using FusedSend = std::function<void(VertexId, std::uint32_t, Outbox&)>;

class CliqueEngine {
 public:
  explicit CliqueEngine(const EngineConfig& config);
  ~CliqueEngine();

  std::uint32_t n() const { return config_.n; }
  Knowledge knowledge() const { return config_.knowledge; }
  std::uint32_t messages_per_link() const { return config_.messages_per_link; }

  /// KT0/KT1 discipline: algorithms that address peers by ID (i.e. all of
  /// Section 2's algorithms) must hold ID knowledge — native in KT1, or
  /// acquired in KT0 by the one-round all-to-all ID broadcast (resolve_ids_kt0 in
  /// comm/primitives, which calls mark_ids_resolved). Throws ProtocolError
  /// if a KT0 engine is used without resolution — this is what makes the
  /// Θ(n^2)-message KT0 bootstrap of Section 2 unavoidable in code, not
  /// just in prose.
  void require_id_knowledge(const char* who) const;
  void mark_ids_resolved() { ids_resolved_ = true; }
  bool ids_resolved() const { return ids_resolved_; }

  /// Execute one synchronous round: `send` is called once per node (it must
  /// only read that node's own state — callbacks may run concurrently) to
  /// fill the node's outbox; all messages are then delivered at once. The
  /// returned arena is owned by the engine and valid until the next round.
  /// Inboxes are ordered by (sender, submission order) for determinism.
  /// Every generic round (this, round_of_arena and the fused forms) throws
  /// ProtocolError, with no metrics moved, when n > packed::kRouteMaxDst + 1
  /// (2^26): the packed route sidecar cannot address such destinations.
  const RoundBuffer& round_arena(
      const std::function<void(VertexId, Outbox&)>& send);

  /// Run a round in which only the listed nodes send (others stay silent).
  const RoundBuffer& round_of_arena(
      std::span<const VertexId> senders,
      const std::function<void(VertexId, Outbox&)>& send);

  /// Superstep fusion: execute `rounds` consecutive synchronous rounds in
  /// ONE pass over the delivery arena. The schedule must be *static*:
  /// send(u, r, out) may depend on u's pre-window state and on r, but not
  /// on messages delivered within the window — inboxes only become visible
  /// when the window returns (inbox_round(v, r) carves out one sub-round).
  /// Budget is enforced per (sub-round, link); metrics, trace and load
  /// accounting are charged per sub-round exactly as if the rounds ran
  /// unfused (determinism_test pins fused == unfused, NDJSON included).
  /// Only observable difference: error atomicity — a throwing sender
  /// anywhere in the window aborts the WHOLE window with no metrics moved,
  /// where the unfused engine would keep the rounds before the faulty one.
  const RoundBuffer& fused_rounds_arena(std::uint32_t rounds,
                                        const FusedSend& send);
  const RoundBuffer& fused_rounds_of_arena(std::span<const VertexId> senders,
                                           std::uint32_t rounds,
                                           const FusedSend& send);

  /// Local computation on the engine's worker pool: run body(lane, item)
  /// once for every item in [0, items), on local_lanes(items) lanes that
  /// claim items in ascending order. No two items of one lane run at once,
  /// so a body may reuse lane-private scratch indexed by `lane`. Like the
  /// sharded round path this is invisible to the model: when each body
  /// writes only its own item's pre-assigned results and callers merge
  /// them in item order, output is identical for every
  /// EngineConfig::threads. Bodies must not run engine rounds. If bodies
  /// throw, the smallest failing item's exception is rethrown once every
  /// lane has stopped — the one a serial loop would have thrown.
  void run_local(std::size_t items,
                 const std::function<void(unsigned, std::size_t)>& body);
  /// Lanes run_local(items) runs on: min(items, EngineConfig::threads),
  /// with threads == 0 meaning all hardware threads.
  unsigned local_lanes(std::size_t items) const;

  /// Advance the round counter by `k` silent rounds in O(1) work (virtual
  /// time). No messages move. Throws ProtocolError if the 64-bit round
  /// counter would overflow (clock coding passes super-polynomial k).
  void skip_silent_rounds(std::uint64_t k);

  const Metrics& metrics() const { return metrics_; }
  MetricsScope scope() const { return MetricsScope{metrics_}; }

  /// Attach a phase-trace sink (clique/trace): every charged round is then
  /// reported to it, and algorithms' TraceScopes attribute cost windows to
  /// named phases. Pass nullptr to detach. The trace must outlive its
  /// attachment. Zero overhead when null (one branch per round); attaching
  /// never changes Metrics or delivery — tests/trace_test.cpp pins
  /// traced == untraced.
  void set_trace(Trace* trace);
  Trace* trace() const { return trace_; }

  /// Attach a congestion profiler (clique/load_profile): per-node sent/
  /// received message+word counters, per-record max-link occupancy, and an
  /// opt-in link matrix. Pass nullptr to detach. The profile must outlive
  /// its attachment. Zero overhead when null (one branch per round plus
  /// loop-invariant flags in the shard fill); attaching never changes
  /// Metrics, delivery order or an attached trace's NDJSON —
  /// tests/load_profile_test.cpp pins profiled == unprofiled.
  void set_load_profile(LoadProfile* profile);
  LoadProfile* load_profile() const { return load_; }
  /// True when a profile is attached — algorithm modules use this to guard
  /// their O(n)-sized attribution loops.
  bool wants_load() const { return load_ != nullptr; }

  /// Install an observer invoked as (src, dst) for every delivered message,
  /// including those moved by the comm fast paths. Pass nullptr to clear.
  /// While an observer is installed the engine always runs serially.
  void set_observer(std::function<void(VertexId, VertexId)> observer);

  /// --- Fast-path accounting (used by comm/primitives only) ---
  /// Charge one round that moved `messages` messages totaling `words`
  /// payload words under a schedule that is bandwidth-valid by
  /// construction. `per_message_observer_pairs` lists (src,dst) pairs for
  /// the observer when one is installed (may be empty to skip auditing for
  /// schedules whose pairs the caller reports via observe()).
  void charge_verified_round(std::uint64_t messages, std::uint64_t words);

  /// Report a (src,dst) message to the observer (fast paths call this once
  /// per logical message when an observer is installed).
  void observe(VertexId src, VertexId dst);

  /// Attribute `messages`/`words` moved src -> dst by a fast-path schedule
  /// to the attached load profile (no-op when detached). Algorithm modules
  /// pair these with their charge_verified_round sites exactly as they pair
  /// observe() with delivered messages — the attributed totals must equal
  /// the charged totals (tests/load_profile_test.cpp pins conservation).
  /// Only the engine and src/comm touch the LoadProfile itself (CL006).
  void attribute_load(VertexId src, VertexId dst, std::uint64_t messages,
                      std::uint64_t words);
  /// Attribute a broadcast: src sends `messages` messages of `words` payload
  /// words to each of the other n-1 nodes (O(n) work, not n-1 calls).
  void attribute_broadcast(VertexId src, std::uint64_t messages,
                           std::uint64_t words);

  /// Absorb the metrics of a virtual sub-instance (e.g. the 2n-node double-
  /// cover embedding of the bipartiteness reduction) into this engine's
  /// counters, 1:1.
  void absorb_virtual(const Metrics& sub);

  bool has_observer() const { return static_cast<bool>(observer_); }

 private:
  /// Per-shard execution state, reused across rounds (allocation-free in
  /// steady state). Shards are contiguous sender ranges; concatenating the
  /// shard buffers in shard order recovers the exact serial sender order.
  /// Fused windows segment the buffers by sub-round (seg_*); per-(sub-round,
  /// destination) tallies are laid out sub-round-major: index r * n + d.
  struct Shard {
    packed::PackedBuf bytes;              // packed records, (r, sender,
                                          // submission)-ordered
    std::vector<packed::Route> route;     // packed (dst, len) sidecar
    std::vector<std::size_t> seg_msg;     // record-index bound per sub-round
    std::vector<std::size_t> seg_byte;    // byte bound per sub-round
    std::vector<std::uint64_t> used;      // epoch-tagged budget counters
    std::uint64_t epoch{0};               // grows per (sender, sub-round)
    std::vector<VertexId> touched;        // profiled: this sender's dsts
    std::vector<std::uint64_t> dst_tally; // (count << 32 | packed bytes) per
                                          // (sub-round, dst)
    std::vector<std::size_t> cursor;      // shard byte cursor per bucket
    std::vector<std::uint64_t> round_words;  // payload words per sub-round
    std::size_t error_round{0};           // sub-round of first failure
    std::size_t error_pos{0};             // sender position of first failure
    std::exception_ptr error;
    // Profiling tallies, filled only while a LoadProfile is attached and
    // merged deterministically on the driver thread.
    std::vector<std::uint64_t> sender_msgs;   // per (sub-round, sender pos)
    std::vector<std::uint64_t> sender_words;  // per (sub-round, sender pos)
    std::vector<std::uint64_t> dst_words;     // words per (sub-round, dst)
    std::vector<std::uint64_t> max_link;      // per sub-round link maximum
  };

  void validate_senders(std::span<const VertexId> senders);
  void run_shard(Shard& shard, std::span<const VertexId> senders,
                 std::size_t begin, std::size_t end, std::uint32_t rounds,
                 const FusedSend& send, bool profiled);
  const RoundBuffer& run_window(std::span<const VertexId> senders,
                                std::uint32_t rounds, const FusedSend& send);
  void place_blocked(unsigned lanes, std::uint32_t rounds);
  unsigned resolved_threads() const;

  EngineConfig config_;
  Metrics metrics_;
  bool ids_resolved_{false};
  std::uint32_t src_w_{1};            // packed src field width, from n
  Trace* trace_{nullptr};
  LoadProfile* load_{nullptr};
  std::function<void(VertexId, VertexId)> observer_;

  std::vector<VertexId> all_ids_;     // cached 0..n-1, built on first use
  std::vector<bool> sender_seen_;     // duplicate-sender scratch
  RoundBuffer arena_;                 // delivery arena, reused across rounds
  std::vector<Shard> shards_;         // per-shard state, reused
  std::unique_ptr<ThreadPool> pool_;  // created on first parallel use
  std::uint64_t last_round_messages_{0};  // volume prediction for auto lanes
  // Merge scratch, reused across windows.
  std::vector<std::uint64_t> round_msgs_;    // messages per sub-round
  std::vector<std::uint64_t> round_word_totals_;
  // Cache-blocked delivery scratch (packed arenas beyond the LLC).
  std::vector<std::uint32_t> block_of_;      // bucket -> block id
  std::vector<std::size_t> block_base_;      // block -> first bucket (+end)
  std::vector<std::size_t> block_cursor_;    // per-bucket byte cursor
  std::vector<packed::PackedBuf> staging_;   // per (shard, block) streams
};

}  // namespace ccq
