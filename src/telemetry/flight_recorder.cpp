#include "telemetry/flight_recorder.hpp"

#include <algorithm>
#include <fstream>
#include <tuple>
#include <utility>

#include "telemetry/metrics_registry.hpp"  // kCompiledIn

namespace ccq::telemetry {

namespace {

// Slot payload word 5 packs the small fields:
//   bits  0..7   op kind
//   bits  8..15  event kind
//   bits 16..31  client stream id
//   bits 32..55  tenant id (24 bits)
//   bit  56      error flag
std::uint64_t pack_meta(const Event& e) noexcept {
  return static_cast<std::uint64_t>(static_cast<std::uint8_t>(e.op)) |
         (static_cast<std::uint64_t>(static_cast<std::uint8_t>(e.kind)) << 8) |
         (static_cast<std::uint64_t>(e.stream & 0xffffu) << 16) |
         (static_cast<std::uint64_t>(e.tenant & 0xffffffu) << 32) |
         (static_cast<std::uint64_t>(e.error ? 1 : 0) << 56);
}

void unpack_meta(std::uint64_t meta, Event& e) noexcept {
  e.op = static_cast<OpKind>(meta & 0xffu);
  e.kind = static_cast<EventKind>((meta >> 8) & 0xffu);
  e.stream = static_cast<std::uint32_t>((meta >> 16) & 0xffffu);
  e.tenant = static_cast<std::uint32_t>((meta >> 32) & 0xffffffu);
  e.error = ((meta >> 56) & 1u) != 0;
}

// Canonical dumps keep only schedule-driven kinds; rank fixes the order of
// the events of one request (begin, then its batch apply, then end).
int canonical_rank(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kRequestBegin:
      return 0;
    case EventKind::kBatchApply:
      return 1;
    case EventKind::kSnapshot:
      return 2;
    case EventKind::kRequestEnd:
      return 3;
    default:
      return -1;  // recompute/health fires are interleaving-dependent
  }
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[21];
  int len = 0;
  do {
    buf[len++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (len > 0) out.push_back(buf[--len]);
}

// Reasons are short identifiers; anything that would break the JSON string
// (quotes, backslashes, control bytes) degrades to '_'.
void append_reason(std::string& out, std::string_view reason) {
  for (char c : reason)
    out.push_back((c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
                      ? '_'
                      : c);
}

}  // namespace

std::string_view event_kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kRequestBegin:
      return "request_begin";
    case EventKind::kRequestEnd:
      return "request_end";
    case EventKind::kBatchApply:
      return "batch_apply";
    case EventKind::kRecompute:
      return "recompute";
    case EventKind::kSnapshot:
      return "snapshot";
    case EventKind::kHealthRuleFire:
      return "health_rule";
  }
  return "unknown";
}

std::string_view op_kind_name(OpKind op) noexcept {
  switch (op) {
    case OpKind::kNone:
      return "none";
    case OpKind::kConnected:
      return "connected";
    case OpKind::kComponentOf:
      return "component_of";
    case OpKind::kNumComponents:
      return "num_components";
    case OpKind::kComponentLabels:
      return "component_labels";
    case OpKind::kIngest:
      return "ingest";
  }
  return "unknown";
}

// One seqlock-versioned event: ver is odd while its owner thread rewrites
// the payload words. Readers that observe an odd or changed version skip
// the slot (the event counts as dropped; it is never torn).
struct FlightRecorder::Slot {
  std::atomic<std::uint64_t> ver{0};
  std::atomic<std::uint64_t> w[6]{};
};

struct FlightRecorder::ThreadRing {
  explicit ThreadRing(std::size_t capacity) : slots(capacity) {}
  std::vector<Slot> slots;
  std::atomic<std::uint64_t> head{0};  // events ever written by this thread
};

namespace {
// Monotonic per-recorder identity for the thread-local slot cache: a
// destroyed recorder's address can be reused, its id cannot.
std::atomic<std::uint64_t> g_recorder_ids{0};
thread_local std::vector<std::pair<std::uint64_t, std::size_t>> t_slot_cache;
}  // namespace

FlightRecorder::FlightRecorder() : FlightRecorder(Config{}) {}

FlightRecorder::FlightRecorder(Config config)
    : config_{config.max_threads == 0 ? std::size_t{1} : config.max_threads,
              config.ring_capacity == 0 ? std::size_t{1}
                                        : config.ring_capacity},
      rings_(new std::atomic<ThreadRing*>[config_.max_threads]),
      id_(g_recorder_ids.fetch_add(1, std::memory_order_relaxed) + 1) {
  for (std::size_t i = 0; i < config_.max_threads; ++i)
    rings_[i].store(nullptr, std::memory_order_relaxed);
}

FlightRecorder::~FlightRecorder() {
  for (std::size_t i = 0; i < config_.max_threads; ++i)
    delete rings_[i].load(std::memory_order_acquire);
}

std::size_t FlightRecorder::thread_slot() const noexcept {
  for (const auto& [id, slot] : t_slot_cache)
    if (id == id_) return slot;
  const std::uint32_t claimed =
      next_slot_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t slot = claimed < config_.max_threads
                               ? static_cast<std::size_t>(claimed)
                               : config_.max_threads;  // sentinel: overflow
  t_slot_cache.emplace_back(id_, slot);
  return slot;
}

FlightRecorder::ThreadRing& FlightRecorder::ensure_ring(
    std::size_t slot_index) const {
  std::atomic<ThreadRing*>& cell = rings_[slot_index];
  ThreadRing* ring = cell.load(std::memory_order_acquire);
  if (ring != nullptr) return *ring;
  auto fresh = std::make_unique<ThreadRing>(config_.ring_capacity);
  ThreadRing* expected = nullptr;
  if (cell.compare_exchange_strong(expected, fresh.get(),
                                   std::memory_order_acq_rel))
    return *fresh.release();
  return *expected;  // lost a (theoretical) race; slot owner won
}

std::uint64_t FlightRecorder::record(Event e) noexcept {
  if constexpr (!kCompiledIn) {
    (void)e;
    return 0;
  }
  const std::size_t slot_index = thread_slot();
  if (slot_index >= config_.max_threads) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  ThreadRing& ring = ensure_ring(slot_index);
  e.seq = next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t h = ring.head.load(std::memory_order_relaxed);
  Slot& s = ring.slots[h % config_.ring_capacity];
  // Seqlock write: odd version, payload, even version (release keeps the
  // payload before it). Release payload stores publish the odd version:
  // a reader whose acquire load sees any new payload word then re-reads
  // `ver` as odd or newer, so a torn slot never passes its check. (No
  // standalone fence: TSan does not model fences.)
  const std::uint64_t v0 = s.ver.fetch_add(1, std::memory_order_acq_rel);
  s.w[0].store(e.seq, std::memory_order_release);
  s.w[1].store(e.rid, std::memory_order_release);
  s.w[2].store(e.request, std::memory_order_release);
  s.w[3].store(e.value, std::memory_order_release);
  s.w[4].store(e.latency_ns, std::memory_order_release);
  s.w[5].store(pack_meta(e), std::memory_order_release);
  s.ver.store(v0 + 2, std::memory_order_release);
  ring.head.store(h + 1, std::memory_order_release);
  return e.seq;
}

std::vector<Event> FlightRecorder::collect() const {
  std::vector<Event> out;
  for (std::size_t r = 0; r < config_.max_threads; ++r) {
    const ThreadRing* ring = rings_[r].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t cap = config_.ring_capacity;
    const std::uint64_t n = head < cap ? head : cap;
    for (std::uint64_t i = head - n; i < head; ++i) {
      const Slot& s = ring->slots[i % cap];
      Event e;
      bool consistent = false;
      for (int attempt = 0; attempt < 4 && !consistent; ++attempt) {
        const std::uint64_t v1 = s.ver.load(std::memory_order_seq_cst);
        if ((v1 & 1u) != 0) continue;  // writer mid-rewrite
        // Acquire payload loads keep the re-check of `ver` after every one
        // of them (no standalone fence: TSan does not model fences).
        e.seq = s.w[0].load(std::memory_order_acquire);
        e.rid = s.w[1].load(std::memory_order_acquire);
        e.request = s.w[2].load(std::memory_order_acquire);
        e.value = s.w[3].load(std::memory_order_acquire);
        e.latency_ns = s.w[4].load(std::memory_order_acquire);
        unpack_meta(s.w[5].load(std::memory_order_acquire), e);
        consistent = s.ver.load(std::memory_order_seq_cst) == v1;
      }
      if (consistent && e.seq != 0) out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  return out;
}

namespace {

void append_event_json(std::string& out, const Event& e, bool canonical) {
  out += "{\"type\":\"flight_event\",\"schema\":4,";
  if (!canonical) {
    out += "\"seq\":";
    append_u64(out, e.seq);
    out += ",\"rid\":";
    append_u64(out, e.rid);
    out += ",";
  }
  out += "\"tenant\":";
  append_u64(out, e.tenant);
  out += ",\"stream\":";
  append_u64(out, e.stream);
  out += ",\"request\":";
  append_u64(out, e.request);
  out += ",\"kind\":\"";
  out += event_kind_name(e.kind);
  out += "\",\"op\":\"";
  out += op_kind_name(e.op);
  out += "\",\"value\":";
  append_u64(out, e.value);
  if (!canonical) {
    out += ",\"latency_ns\":";
    append_u64(out, e.latency_ns);
  }
  out += ",\"error\":";
  out += e.error ? '1' : '0';
  out += "}\n";
}

void append_trailer_json(std::string& out, std::string_view reason,
                         std::uint64_t events, std::uint64_t dropped,
                         bool canonical) {
  out += "{\"type\":\"flight_dump\",\"schema\":4,\"reason\":\"";
  append_reason(out, reason);
  out += "\",\"events\":";
  append_u64(out, events);
  out += ",\"dropped\":";
  append_u64(out, dropped);
  out += ",\"canonical\":";
  out += canonical ? '1' : '0';
  out += "}\n";
}

}  // namespace

std::string FlightRecorder::dump_ndjson(std::string_view reason) const {
  const std::vector<Event> events = collect();
  std::string out;
  out.reserve(events.size() * 160 + 160);
  for (const Event& e : events) append_event_json(out, e, /*canonical=*/false);
  const std::uint64_t total = recorded();
  const std::uint64_t kept = events.size();
  append_trailer_json(out, reason, kept, total > kept ? total - kept : 0,
                      /*canonical=*/false);
  return out;
}

std::string FlightRecorder::canonical_ndjson(std::string_view reason) const {
  std::vector<Event> events = collect();
  const std::uint64_t total = recorded();
  const std::uint64_t kept = events.size();
  std::erase_if(events,
                [](const Event& e) { return canonical_rank(e.kind) < 0; });
  // Result values of end events depend on cross-stream interleaving
  // (connectivity seen mid-churn); the deterministic payload of an end
  // event is its identity, not its answer.
  for (Event& e : events)
    if (e.kind == EventKind::kRequestEnd) e.value = 0;
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return std::tuple{a.tenant, a.stream, a.request, canonical_rank(a.kind),
                      static_cast<int>(a.op), a.value} <
           std::tuple{b.tenant, b.stream, b.request, canonical_rank(b.kind),
                      static_cast<int>(b.op), b.value};
  });
  std::string out;
  out.reserve(events.size() * 120 + 160);
  for (const Event& e : events) append_event_json(out, e, /*canonical=*/true);
  append_trailer_json(out, reason, events.size(),
                      total > kept ? total - kept : 0, /*canonical=*/true);
  return out;
}

bool FlightRecorder::dump_to_file(const std::string& path,
                                  std::string_view reason,
                                  bool canonical) const {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  if (!out) return false;
  const std::string body =
      canonical ? canonical_ndjson(reason) : dump_ndjson(reason);
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  return static_cast<bool>(out);
}

void FlightRecorder::arm_auto_dump(std::string path) {
  std::lock_guard lock{dump_mu_};
  auto_dump_path_ = std::move(path);
  auto_dumps_ = 0;
}

bool FlightRecorder::auto_dump(std::string_view reason) {
  std::string path;
  {
    std::lock_guard lock{dump_mu_};
    if (auto_dump_path_.empty() || auto_dumps_ >= kMaxAutoDumps) return false;
    ++auto_dumps_;
    path = auto_dump_path_;
  }
  const std::string body = dump_ndjson(reason);
  std::ofstream out{path, std::ios::binary | std::ios::app};
  if (!out) return false;
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  return static_cast<bool>(out);
}

std::string FlightRecorder::auto_dump_path() const {
  std::lock_guard lock{dump_mu_};
  return auto_dump_path_;
}

std::uint64_t FlightRecorder::recorded() const noexcept {
  return next_seq_.load(std::memory_order_relaxed) +
         overflow_.load(std::memory_order_relaxed);
}

std::uint64_t FlightRecorder::dropped() const noexcept {
  std::uint64_t lost = overflow_.load(std::memory_order_relaxed);
  for (std::size_t r = 0; r < config_.max_threads; ++r) {
    const ThreadRing* ring = rings_[r].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    if (head > config_.ring_capacity) lost += head - config_.ring_capacity;
  }
  return lost;
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* g = new FlightRecorder();  // leaked: alive at exit
  return *g;
}

}  // namespace ccq::telemetry
