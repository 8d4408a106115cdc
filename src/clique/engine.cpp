#include "clique/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>

#include "clique/load_profile.hpp"
#include "clique/trace.hpp"
#include "telemetry/metrics_registry.hpp"
#include "util/error.hpp"

namespace ccq {

namespace {

// Live telemetry (docs/TELEMETRY.md): registered once at namespace scope
// (cliquelint CL011) and mutated per *window*, never per message — the
// Outbox::send path stays untouched. ccq_engine_rounds_total mirrors
// Metrics::rounds exactly (charged + silent + absorbed), which is what the
// bench_service self-check reconciles against.
telemetry::Counter& tm_rounds = telemetry::registry().counter(
    "ccq_engine_rounds_total", "Engine rounds (charged + silent + absorbed)");
telemetry::Counter& tm_messages = telemetry::registry().counter(
    "ccq_engine_messages_total", "Messages delivered across all rounds");
telemetry::Counter& tm_words = telemetry::registry().counter(
    "ccq_engine_words_total", "Model words carried across all rounds");
telemetry::Counter& tm_packed_bytes = telemetry::registry().counter(
    "ccq_engine_packed_bytes_total", "Packed arena bytes delivered");
telemetry::Counter& tm_windows = telemetry::registry().counter(
    "ccq_engine_windows_total", "run_window invocations");
telemetry::Counter& tm_fused_windows = telemetry::registry().counter(
    "ccq_engine_fused_windows_total", "Windows fusing more than one round");
telemetry::Counter& tm_parallel_windows = telemetry::registry().counter(
    "ccq_engine_parallel_windows_total", "Windows run on multiple lanes");
telemetry::Counter& tm_serial_windows = telemetry::registry().counter(
    "ccq_engine_serial_windows_total", "Windows run on the serial path");
telemetry::Counter& tm_silent_rounds = telemetry::registry().counter(
    "ccq_engine_silent_rounds_total", "Rounds skipped as silent");
telemetry::Counter& tm_absorbed_rounds = telemetry::registry().counter(
    "ccq_engine_absorbed_rounds_total",
    "Rounds absorbed from virtual sub-instances");

/// Packed arenas at or above this size take the cache-blocked placement
/// path: a direct placement pass over an arena much larger than the cache
/// re-loads every destination cacheline once per ~(cacheline / record
/// length) senders, ~10x the arena's raw bytes in DRAM traffic. Below it,
/// direct placement stays cache-resident and the extra staging copy would
/// only add work. (Measured crossover on the bench box sits between the
/// n=2048 and n=4096 all-to-all arenas, ~21MB and ~84MB of packed records —
/// docs/MODEL.md, "Wire format & kernel dispatch".)
constexpr std::size_t kBlockedDeliveryMinBytes = std::size_t{32} << 20;

/// Target arena bytes per destination block (placed while cache-resident).
/// Half a typical per-core L2: the placement pass keeps a block's arena
/// span AND the staging stream it drains warm at once (1MB measured ~10%
/// faster than 2MB or 512KB tiles at the n=4096 arena).
constexpr std::size_t kBlockTargetBytes = std::size_t{1} << 20;

/// Hard bucket cap per block: staging entries address buckets block-locally
/// in the 10 high bits of a 16-bit tag; the 6 low bits carry the record
/// length so the place pass never re-parses headers (the header load would
/// sit on the stream-walk dependency chain).
constexpr std::size_t kBlockMaxBuckets = 1u << 10;

}  // namespace

std::uint32_t wide_bandwidth_messages_per_link(std::uint32_t n) {
  const auto log_n = static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(std::log2(std::max<std::uint32_t>(n, 2)))));
  // O(log^5 n) bits per link / O(log n) bits per message = Θ(log^4 n).
  return std::max<std::uint32_t>(1, log_n * log_n * log_n * log_n);
}

CliqueEngine::CliqueEngine(const EngineConfig& config)
    : config_(config), ids_resolved_(config.knowledge == Knowledge::KT1) {
  if (config.n == 0) throw InvalidArgument("CliqueEngine: n must be positive");
  if (config.messages_per_link == 0)
    throw InvalidArgument("CliqueEngine: zero bandwidth");
  // The epoch-tagged budget counters hold counts in kUsedCountBits bits;
  // the largest model-meaningful budget (wide bandwidth, 32^4) fits with
  // 16x headroom.
  if (config.messages_per_link > kUsedCountMask)
    throw InvalidArgument(
        "CliqueEngine: per-link budget exceeds the 2^24-1 counter range");
  src_w_ = packed::src_width(config.n);
}

CliqueEngine::~CliqueEngine() = default;

unsigned CliqueEngine::resolved_threads() const {
  return config_.threads == 0 ? ThreadPool::hardware_threads()
                              : config_.threads;
}

unsigned CliqueEngine::local_lanes(std::size_t items) const {
  return static_cast<unsigned>(
      std::min<std::size_t>(items, resolved_threads()));
}

void CliqueEngine::run_local(
    std::size_t items,
    const std::function<void(unsigned, std::size_t)>& body) {
  const unsigned lanes = local_lanes(items);
  if (lanes <= 1) {
    for (std::size_t i = 0; i < items; ++i) body(0, i);
    return;
  }
  if (!pool_) pool_ = std::make_unique<ThreadPool>(resolved_threads());
  std::atomic<std::size_t> next{0};
  std::vector<std::size_t> failed_at(lanes, items);
  std::vector<std::exception_ptr> errors(lanes);
  pool_->run(lanes, [&](unsigned lane) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= items) return;
      try {
        body(lane, i);
      } catch (...) {
        errors[lane] = std::current_exception();
        failed_at[lane] = i;
        return;
      }
    }
  });
  // Items are claimed in ascending order and a lane stops at its first
  // failure, so the smallest recorded item is the first a serial loop
  // would have failed on.
  const auto first = std::min_element(failed_at.begin(), failed_at.end());
  if (*first < items) std::rethrow_exception(errors[first - failed_at.begin()]);
}

void CliqueEngine::require_id_knowledge(const char* who) const {
  if (!ids_resolved_)
    throw ProtocolError(std::string(who) +
                        ": needs neighbour IDs — run resolve_ids_kt0 first "
                        "in the KT0 model");
}

void CliqueEngine::validate_senders(std::span<const VertexId> senders) {
  sender_seen_.assign(config_.n, false);
  for (VertexId u : senders) {
    if (u >= config_.n) throw ProtocolError("round_of: sender out of range");
    if (sender_seen_[u])
      throw ProtocolError(
          "round_of: duplicate sender would double its per-link budget");
    sender_seen_[u] = true;
  }
}

void CliqueEngine::run_shard(Shard& shard, std::span<const VertexId> senders,
                             std::size_t begin, std::size_t end,
                             std::uint32_t rounds, const FusedSend& send,
                             bool profiled) {
  const std::size_t n = config_.n;
  const std::size_t cells = static_cast<std::size_t>(rounds) * n;
  shard.bytes.clear();
  shard.route.clear();
  shard.error = nullptr;
  // used[] stays all-zero between senders (touched entries are re-zeroed
  // after each one), so only the first round of a larger n allocates.
  if (shard.used.size() < n) shard.used.assign(n, 0);
  if (shard.dst_tally.size() < cells) shard.dst_tally.resize(cells);
  std::fill(shard.dst_tally.begin(), shard.dst_tally.begin() + cells, 0);
  shard.touched.clear();
  shard.seg_msg.assign(static_cast<std::size_t>(rounds) + 1, 0);
  shard.seg_byte.assign(static_cast<std::size_t>(rounds) + 1, 0);
  shard.round_words.assign(rounds, 0);
  shard.max_link.assign(rounds, 0);
  // Profiling tallies piggyback on the fill's own bookkeeping: per-sender
  // deltas from the eager outbox counters, per-link maxima on the budget
  // re-zero loop. `profiled` is loop-invariant, so the detached engine runs
  // the exact branch pattern it ran before.
  shard.sender_msgs.clear();
  shard.sender_words.clear();
  if (profiled && shard.dst_words.size() < cells)
    shard.dst_words.resize(cells);
  if (profiled)
    std::fill(shard.dst_words.begin(), shard.dst_words.begin() + cells, 0);
  for (std::uint32_t r = 0; r < rounds; ++r) {
    shard.seg_msg[r] = shard.route.size();
    shard.seg_byte[r] = shard.bytes.size();
    const std::size_t cbase = static_cast<std::size_t>(r) * n;
    for (std::size_t pos = begin; pos < end; ++pos) {
      const VertexId u = senders[pos];
      const std::size_t before = shard.route.size();
      const std::size_t bytes_before = shard.bytes.size();
      const std::uint64_t words_before = shard.round_words[r];
      Outbox out{u,
                 config_.n,
                 config_.messages_per_link,
                 src_w_,
                 ++shard.epoch,
                 &shard.bytes,
                 &shard.route,
                 shard.used.data(),
                 &shard.touched,
                 shard.dst_tally.data() + cbase,
                 &shard.round_words[r],
                 profiled ? shard.dst_words.data() + cbase : nullptr};
      try {
        send(u, r, out);
      } catch (...) {
        shard.error = std::current_exception();
        shard.error_round = r;
        shard.error_pos = pos;
        // Drop the offending partial outbox and its eager tallies.
        std::size_t p = bytes_before;
        for (std::size_t i = before; i < shard.route.size(); ++i) {
          const packed::Route& e = shard.route[i];
          const std::uint32_t cnt =
              packed::record_count(shard.bytes.data() + p);
          shard.dst_tally[cbase + e.dst()] -=
              (std::uint64_t{1} << kTallyCountShift) | e.len();
          shard.round_words[r] -= cnt;
          if (profiled) shard.dst_words[cbase + e.dst()] -= cnt;
          p += e.len();
        }
        shard.route.resize(before);
        shard.bytes.truncate(bytes_before);
        shard.touched.clear();
        return;
      }
      if (profiled) {
        shard.sender_msgs.push_back(shard.route.size() - before);
        shard.sender_words.push_back(shard.round_words[r] - words_before);
        // used[] needs no re-zero: the next sender's epoch invalidates every
        // entry in O(1). Only the per-link maximum walks this sender's
        // destinations, and only while a profiler is attached.
        for (VertexId d : shard.touched) {
          const auto c =
              static_cast<std::uint64_t>(shard.used[d] & kUsedCountMask);
          if (c > shard.max_link[r]) shard.max_link[r] = c;
        }
        shard.touched.clear();
      }
    }
  }
  shard.seg_msg[rounds] = shard.route.size();
  shard.seg_byte[rounds] = shard.bytes.size();
}

const RoundBuffer& CliqueEngine::round_arena(
    const std::function<void(VertexId, Outbox&)>& send) {
  if (all_ids_.size() != config_.n) {  // built once, then cached
    all_ids_.resize(config_.n);
    std::iota(all_ids_.begin(), all_ids_.end(), VertexId{0});
  }
  return round_of_arena(all_ids_, send);
}

const RoundBuffer& CliqueEngine::round_of_arena(
    std::span<const VertexId> senders,
    const std::function<void(VertexId, Outbox&)>& send) {
  return run_window(senders, 1,
                    [&send](VertexId u, std::uint32_t, Outbox& out) {
                      send(u, out);
                    });
}

const RoundBuffer& CliqueEngine::fused_rounds_arena(std::uint32_t rounds,
                                                    const FusedSend& send) {
  if (all_ids_.size() != config_.n) {
    all_ids_.resize(config_.n);
    std::iota(all_ids_.begin(), all_ids_.end(), VertexId{0});
  }
  return run_window(all_ids_, rounds, send);
}

const RoundBuffer& CliqueEngine::fused_rounds_of_arena(
    std::span<const VertexId> senders, std::uint32_t rounds,
    const FusedSend& send) {
  return run_window(senders, rounds, send);
}

/// Cache-blocked placement (arenas beyond the LLC): pass 1 appends
/// each shard's records, in order, into per-(shard, destination-block)
/// staging streams — sequential writes; pass 2 places one block at a time,
/// shards in order, so every arena cacheline is written while the block is
/// cache-resident. Same records in the same (shard, sub-round, submission)
/// order per bucket as the direct path: the arena comes out byte-identical.
void CliqueEngine::place_blocked(unsigned lanes, std::uint32_t rounds) {
  const std::size_t buckets = static_cast<std::size_t>(config_.n) * rounds;
  // Partition buckets into contiguous blocks of ~kBlockTargetBytes.
  block_of_.resize(buckets);
  block_base_.clear();
  block_base_.push_back(0);
  std::size_t block_bytes = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::size_t sz = arena_.byte_offset(b + 1) - arena_.byte_offset(b);
    if ((block_bytes >= kBlockTargetBytes ||
         b - block_base_.back() >= kBlockMaxBuckets) &&
        b > block_base_.back()) {
      block_base_.push_back(b);
      block_bytes = 0;
    }
    block_of_[b] = static_cast<std::uint32_t>(block_base_.size() - 1);
    block_bytes += sz;
  }
  const std::size_t nblocks = block_base_.size();
  block_base_.push_back(buckets);

  const std::size_t streams = static_cast<std::size_t>(lanes) * nblocks;
  if (staging_.size() < streams) staging_.resize(streams);
  for (std::size_t i = 0; i < streams; ++i) staging_[i].clear();

  // Pass 1 — bin: per shard, walk the route sidecar and append
  // (local bucket, record) entries to the destination block's stream.
  const auto bin_job = [&](unsigned s) {
    Shard& shard = shards_[s];
    packed::PackedBuf* const streams_s = staging_.data() +
                                         static_cast<std::size_t>(s) * nblocks;
    for (std::uint32_t r = 0; r < rounds; ++r) {
      std::size_t pos = shard.seg_byte[r];
      for (std::size_t i = shard.seg_msg[r]; i < shard.seg_msg[r + 1]; ++i) {
        const packed::Route& e = shard.route[i];
        const std::size_t b =
            static_cast<std::size_t>(e.dst()) * rounds + r;
        const std::uint32_t blk = block_of_[b];
        packed::PackedBuf& st = streams_s[blk];
        std::uint8_t* const w = st.grow_for_record();
        packed::store_u16(
            w, static_cast<std::uint16_t>(
                   ((b - block_base_[blk]) << packed::kRouteLenBits) |
                   e.len()));
        packed::copy_record_slop(w + 2, shard.bytes.data() + pos, e.len());
        st.advance(2 + e.len());
        pos += e.len();
      }
    }
  };
  if (lanes == 1)
    bin_job(0);
  else
    pool_->run(lanes, bin_job);

  // Pass 2 — place: per block, drain the shards' streams in shard order
  // into the arena through per-bucket cursors. Blocks own disjoint bucket
  // (and so arena) ranges, so they place in parallel without ordering.
  block_cursor_.resize(buckets);
  for (std::size_t b = 0; b < buckets; ++b)
    block_cursor_[b] = arena_.byte_offset(b);
  std::uint8_t* const out = arena_.byte_data();
  const auto place_block = [&](unsigned blk) {
    const std::size_t base = block_base_[blk];
    for (unsigned s = 0; s < lanes; ++s) {
      const packed::PackedBuf& st =
          staging_[static_cast<std::size_t>(s) * nblocks + blk];
      const std::uint8_t* p = st.data();
      const std::uint8_t* const end = p + st.size();
      while (p < end) {
        const std::uint16_t tag = packed::load_u16(p);
        const std::size_t b = base + (tag >> packed::kRouteLenBits);
        const std::size_t len =
            tag & ((1u << packed::kRouteLenBits) - 1);
        packed::copy_record(out + block_cursor_[b], p + 2, len);
        block_cursor_[b] += len;
        p += 2 + len;
      }
    }
  };
  if (lanes == 1)
    for (unsigned blk = 0; blk < nblocks; ++blk) place_block(blk);
  else
    pool_->run(static_cast<unsigned>(nblocks), place_block);
}

const RoundBuffer& CliqueEngine::run_window(std::span<const VertexId> senders,
                                            std::uint32_t rounds,
                                            const FusedSend& send) {
  check(rounds >= 1, "fused_rounds: need at least one round");
  // The packed route sidecar holds destinations in 26 bits. Checked before
  // any O(n) scratch is touched, so an oversized engine fails fast on the
  // generic path and keeps every fast path (charge_verified_round & co).
  if (config_.n > packed::kRouteMaxDst + 1)
    throw ProtocolError(
        "round_of: generic rounds need n <= 2^26 (packed route sidecar)");
  validate_senders(senders);
  const std::size_t num_senders = senders.size();
  const std::uint32_t k = rounds;

  // Serial fallback: observers must see the exact serial interleaving, and
  // tiny sender sets don't amortize a pool wake-up. In auto mode
  // (threads == 0) the lane count additionally scales with predicted
  // message volume; explicitly configured thread counts are honoured above
  // the sender floor so the sharded path stays pinned by its tests.
  unsigned lanes = 1;
  if (!observer_ && num_senders >= kParallelMinSenders) {
    unsigned want = resolved_threads();
    if (config_.threads == 0 && want > 1 && last_round_messages_ > 0) {
      const std::uint64_t predicted = last_round_messages_ * k;
      want = static_cast<unsigned>(std::min<std::uint64_t>(
          want,
          std::max<std::uint64_t>(1, predicted / kAutoMessagesPerLane)));
    }
    if (want > 1) {
      if (!pool_) pool_ = std::make_unique<ThreadPool>(resolved_threads());
      lanes = static_cast<unsigned>(std::min<std::size_t>(
          std::min<std::size_t>(pool_->size(), want), num_senders));
    }
  }
  if (shards_.size() < lanes) shards_.resize(lanes);

  // Phase 1 — fill: contiguous sender shards, worker-local flat buffers.
  const auto shard_begin = [&](unsigned s) {
    return num_senders * s / lanes;
  };
  const bool profiled = load_ != nullptr;
  const auto fill_job = [&](unsigned s) {
    run_shard(shards_[s], senders, shard_begin(s), shard_begin(s + 1), k,
              send, profiled);
  };
  if (lanes == 1)
    fill_job(0);
  else
    pool_->run(lanes, fill_job);

  // A failing sender aborts the window exactly like the serial engine would
  // abort its round: the earliest (sub-round, sender) exception wins, no
  // metrics move, no delivery happens.
  const Shard* failed = nullptr;
  for (unsigned s = 0; s < lanes; ++s) {
    const Shard& sh = shards_[s];
    if (sh.error &&
        (!failed || sh.error_round < failed->error_round ||
         (sh.error_round == failed->error_round &&
          sh.error_pos < failed->error_pos)))
      failed = &sh;
  }
  if (failed) std::rethrow_exception(failed->error);

  // Observer replay in delivery order (serial path only — see above).
  if (observer_) {
    const Shard& sh = shards_[0];
    std::size_t pos = 0;
    for (const packed::Route& e : sh.route) {
      observer_(packed::record_src(sh.bytes.data() + pos, src_w_), e.dst());
      pos += e.len();
    }
  }

  // Phase 2 — merge: counting pass over per-shard (sub-round, destination)
  // totals, then a stable placement pass. Shards are contiguous sender
  // ranges visited in order, so inboxes come out in (sender id, submission
  // order) per sub-round — identical to the serial engine for every lane
  // count.
  const std::size_t n = config_.n;
  arena_.reset(config_.n, k, /*packed=*/true);
  round_msgs_.assign(k, 0);
  round_word_totals_.assign(k, 0);
  std::uint64_t message_count = 0;
  for (unsigned s = 0; s < lanes; ++s) {
    const Shard& shard = shards_[s];
    for (std::uint32_t r = 0; r < k; ++r) {
      round_msgs_[r] += shard.seg_msg[r + 1] - shard.seg_msg[r];
      round_word_totals_[r] += shard.round_words[r];
    }
  }
  for (std::uint32_t r = 0; r < k; ++r) message_count += round_msgs_[r];
  for (VertexId d = 0; d < n; ++d)
    for (std::uint32_t r = 0; r < k; ++r) {
      const std::size_t rc = static_cast<std::size_t>(r) * n + d;
      const std::size_t b = static_cast<std::size_t>(d) * k + r;
      for (unsigned s = 0; s < lanes; ++s) {
        const std::uint64_t t = shards_[s].dst_tally[rc];
        if (t > 0)
          arena_.add_bucket(b, t >> kTallyCountShift, t & kTallyBytesMask);
      }
    }
  arena_.commit_counts();
  CLIQUE_ASSERT(arena_.total_messages() == message_count,
                "round merge: bucket offsets must sum to the window's total "
                "message count");

  const std::size_t buckets = n * k;
  if (arena_.total_bytes() >= kBlockedDeliveryMinBytes) {
    place_blocked(lanes, k);
  } else {
    // Direct placement through per-(shard, bucket) byte cursors.
    for (unsigned s = 0; s < lanes; ++s)
      if (shards_[s].cursor.size() < buckets)
        shards_[s].cursor.resize(buckets);
    for (VertexId d = 0; d < n; ++d)
      for (std::uint32_t r = 0; r < k; ++r) {
        const std::size_t rc = static_cast<std::size_t>(r) * n + d;
        const std::size_t b = static_cast<std::size_t>(d) * k + r;
        std::size_t at = arena_.byte_offset(b);
        for (unsigned s = 0; s < lanes; ++s) {
          shards_[s].cursor[b] = at;
          at += shards_[s].dst_tally[rc] & kTallyBytesMask;
        }
        CLIQUE_ASSERT(at == arena_.byte_offset(b + 1),
                      "round merge: per-shard byte cursors must tile bucket "
                      "b exactly");
      }
    std::uint8_t* const out = arena_.byte_data();
    const auto place_job = [&](unsigned s) {
      Shard& shard = shards_[s];
      for (std::uint32_t r = 0; r < k; ++r) {
        std::size_t pos = shard.seg_byte[r];
        for (std::size_t i = shard.seg_msg[r]; i < shard.seg_msg[r + 1];
             ++i) {
          const packed::Route& e = shard.route[i];
          const std::size_t b = static_cast<std::size_t>(e.dst()) * k + r;
          packed::copy_record(out + shard.cursor[b],
                              shard.bytes.data() + pos, e.len());
          shard.cursor[b] += e.len();
          pos += e.len();
        }
      }
    };
    if (lanes == 1)
      place_job(0);
    else
      pool_->run(lanes, place_job);
  }

  // Metrics / trace / load are charged per sub-round, in the exact order
  // the unfused engine would have produced — fused windows are invisible in
  // NDJSON schema 1/2 output.
  for (std::uint32_t r = 0; r < k; ++r) {
    ++metrics_.rounds;
    metrics_.messages += round_msgs_[r];
    metrics_.words += round_word_totals_[r];
    metrics_.max_messages_in_round =
        std::max(metrics_.max_messages_in_round, round_msgs_[r]);
    if (trace_)
      trace_->record_round(metrics_.rounds, round_msgs_[r],
                           round_word_totals_[r]);

    // Load-profile merge, driver-thread-only and in fixed (shard, sender,
    // destination) order so serial and parallel engines produce identical
    // profiles. Received message counts are the counting-sort totals —
    // already computed, no extra pass over the messages.
    if (load_) {
      std::uint64_t max_link = 0;
      for (unsigned s = 0; s < lanes; ++s) {
        const Shard& shard = shards_[s];
        max_link = std::max(max_link, shard.max_link[r]);
        const std::size_t begin = shard_begin(s);
        const std::size_t span = shard_begin(s + 1) - begin;
        for (std::size_t i = 0; i < span; ++i) {
          const std::uint64_t sent =
              shard.sender_msgs[static_cast<std::size_t>(r) * span + i];
          if (sent > 0)
            load_->add_sent(
                senders[begin + i], sent,
                shard.sender_words[static_cast<std::size_t>(r) * span + i]);
        }
      }
      for (VertexId d = 0; d < n; ++d) {
        const std::size_t rc = static_cast<std::size_t>(r) * n + d;
        std::uint64_t recv_msgs = 0;
        std::uint64_t recv_words = 0;
        for (unsigned s = 0; s < lanes; ++s) {
          recv_msgs += shards_[s].dst_tally[rc] >> kTallyCountShift;
          recv_words += shards_[s].dst_words[rc];
        }
        if (recv_msgs > 0) load_->add_received(d, recv_msgs, recv_words);
      }
      if (load_->tracks_links()) {
        const Message* const all = arena_.data();  // decodes packed arenas
        for (VertexId d = 0; d < n; ++d) {
          const std::size_t b = static_cast<std::size_t>(d) * k + r;
          for (std::size_t i = arena_.offset(b); i < arena_.offset(b + 1);
               ++i)
            load_->add_link(all[i].src, all[i].dst, 1);
        }
      }
      load_->record_round(metrics_.rounds, round_msgs_[r], max_link);
    }
  }
  last_round_messages_ = message_count / k;

  // Live telemetry, one batch of relaxed adds per window (the per-round
  // trace/load accounting above is authoritative; these are the scrapeable
  // mirrors of its totals).
  std::uint64_t window_words = 0;
  for (std::uint32_t r = 0; r < k; ++r) window_words += round_word_totals_[r];
  tm_rounds.add(k);
  tm_messages.add(message_count);
  tm_words.add(window_words);
  tm_packed_bytes.add(arena_.total_bytes());
  tm_windows.add();
  if (k > 1) tm_fused_windows.add();
  (lanes > 1 ? tm_parallel_windows : tm_serial_windows).add();
  return arena_;
}

void CliqueEngine::skip_silent_rounds(std::uint64_t k) {
  if (std::numeric_limits<std::uint64_t>::max() - metrics_.rounds < k)
    throw ProtocolError(
        "skip_silent_rounds: 64-bit round counter would overflow");
  metrics_.rounds += k;
  tm_rounds.add(k);
  tm_silent_rounds.add(k);
  if (trace_ && k > 0) trace_->record_silent(metrics_.rounds, k);
  if (load_ && k > 0) load_->record_silent(metrics_.rounds, k);
}

void CliqueEngine::set_observer(
    std::function<void(VertexId, VertexId)> observer) {
  observer_ = std::move(observer);
}

void CliqueEngine::set_trace(Trace* trace) {
  trace_ = trace;
  if (trace_) {
    trace_->bind_engine(&metrics_, config_.n);
    trace_->bind_load_profile(load_);
  }
}

void CliqueEngine::set_load_profile(LoadProfile* profile) {
  load_ = profile;
  if (load_) load_->bind_engine(config_.n, config_.messages_per_link);
  if (trace_) trace_->bind_load_profile(load_);
}

void CliqueEngine::attribute_load(VertexId src, VertexId dst,
                                  std::uint64_t messages,
                                  std::uint64_t words) {
  if (load_) load_->add_flow(src, dst, messages, words);
}

void CliqueEngine::attribute_broadcast(VertexId src, std::uint64_t messages,
                                       std::uint64_t words) {
  if (load_) load_->add_broadcast(src, messages, words);
}

void CliqueEngine::charge_verified_round(std::uint64_t messages,
                                         std::uint64_t words) {
  ++metrics_.rounds;
  metrics_.messages += messages;
  metrics_.words += words;
  metrics_.max_messages_in_round =
      std::max(metrics_.max_messages_in_round, messages);
  tm_rounds.add(1);
  tm_messages.add(messages);
  tm_words.add(words);
  if (trace_) trace_->record_round(metrics_.rounds, messages, words);
  // Fast-path schedules use each ordered link at most `messages_per_link`
  // times per round by construction; the engine cannot see the exact
  // per-link split, so it records the schedule's budget bound (exact for
  // saturated unit-budget schedules — docs/MODEL.md, "Load accounting").
  if (load_)
    load_->record_round(
        metrics_.rounds, messages,
        std::min<std::uint64_t>(config_.messages_per_link, messages));
}

void CliqueEngine::observe(VertexId src, VertexId dst) {
  if (observer_) observer_(src, dst);
}

void CliqueEngine::absorb_virtual(const Metrics& sub) {
  check(sub.has_peak,
        "absorb_virtual: sub-instance metrics must be a live snapshot, not a "
        "MetricsScope delta (whose max_messages_in_round is meaningless)");
  metrics_.rounds += sub.rounds;
  metrics_.messages += sub.messages;
  metrics_.words += sub.words;
  metrics_.max_messages_in_round =
      std::max(metrics_.max_messages_in_round, sub.max_messages_in_round);
  tm_rounds.add(sub.rounds);
  tm_messages.add(sub.messages);
  tm_words.add(sub.words);
  tm_absorbed_rounds.add(sub.rounds);
  if (trace_ && sub.rounds > 0) trace_->record_absorbed(metrics_.rounds, sub);
  if (load_ && sub.rounds > 0) load_->record_absorbed(metrics_.rounds, sub);
}

}  // namespace ccq
