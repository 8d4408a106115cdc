#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "util/random.hpp"

namespace ccqbench {

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  return ccq::mix64(ccq::mix64(seed) ^ (stream * 0x9e3779b97f4a7c15ULL));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double chunked_quantile(const std::vector<double>& in_time_order,
                        std::size_t chunk, double q) {
  if (in_time_order.size() < 2 * chunk) return quantile(in_time_order, q);
  std::vector<double> per_chunk;
  for (std::size_t at = 0; at + chunk <= in_time_order.size(); at += chunk) {
    const auto first = in_time_order.begin() + static_cast<long>(at);
    per_chunk.push_back(
        quantile({first, first + static_cast<long>(chunk)}, q));
  }
  return median(per_chunk);
}

void Digest::add(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (word >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void release_free_memory() { malloc_trim(0); }

unsigned nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// ------------------------------------------------------------------ spans

struct SpanLog::Buffer {
  std::uint32_t thread{0};
  std::vector<Span> spans;
  std::vector<std::uint64_t> open;  // ids of this thread's open SpanScopes
};

namespace {

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<SpanLog::Buffer>>& buffers() {
  static std::vector<std::unique_ptr<SpanLog::Buffer>> all;
  return all;
}
std::atomic<std::uint64_t> g_next_span{0};
thread_local SpanLog::Buffer* t_buffer = nullptr;

}  // namespace

SpanLog& SpanLog::global() {
  static SpanLog log;
  return log;
}

SpanLog::Buffer& SpanLog::local() {
  if (t_buffer == nullptr) {
    std::lock_guard lock{g_buffers_mu};
    auto buf = std::make_unique<Buffer>();
    buf->thread = static_cast<std::uint32_t>(buffers().size());
    buf->spans.reserve(1 << 14);
    t_buffer = buf.get();
    buffers().push_back(std::move(buf));
  }
  return *t_buffer;
}

std::uint64_t SpanLog::next_id() {
  return g_next_span.fetch_add(1, std::memory_order_relaxed) + 1;
}

void SpanLog::record(const char* name, std::uint64_t start_ns,
                     std::uint64_t end_ns, std::uint64_t rid) {
  if (!enabled_) return;
  Buffer& buf = local();
  const std::uint64_t parent = buf.open.empty() ? 0 : buf.open.back();
  buf.spans.push_back(
      {name, next_id(), parent, rid, buf.thread, start_ns, end_ns});
}

std::vector<Span> SpanLog::collect() const {
  std::vector<Span> all;
  std::lock_guard lock{g_buffers_mu};
  for (const auto& buf : buffers())
    all.insert(all.end(), buf->spans.begin(), buf->spans.end());
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

void SpanLog::write_ndjson(const std::string& path) const {
  std::ofstream out{path};
  if (!out) throw std::runtime_error("cannot write " + path);
  for (const Span& s : collect()) {
    out << "{\"span\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"rid\":" << s.rid
        << ",\"thread\":" << s.thread << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

SpanScope::SpanScope(const char* name, std::uint64_t rid)
    : name_(name), rid_(rid) {
  SpanLog& log = SpanLog::global();
  if (!log.enabled()) return;
  SpanLog::Buffer& buf = log.local();
  id_ = log.next_id();
  parent_ = buf.open.empty() ? 0 : buf.open.back();
  if (rid_ == 0 && parent_ != 0) {
    // Inherit the request id of the enclosing span.
    for (auto it = buf.spans.rbegin(); it != buf.spans.rend(); ++it)
      if (it->id == parent_) {
        rid_ = it->rid;
        break;
      }
  }
  buf.open.push_back(id_);
  // The enclosing span is not in `spans` until it closes; remember our rid
  // through a placeholder so children can find it.
  buf.spans.push_back({name_, id_, parent_, rid_, buf.thread, 0, 0});
  start_ = monotonic_ns();
}

SpanScope::~SpanScope() {
  if (id_ == 0) return;
  const std::uint64_t end = monotonic_ns();
  SpanLog::Buffer& buf = SpanLog::global().local();
  buf.open.pop_back();
  for (auto it = buf.spans.rbegin(); it != buf.spans.rend(); ++it)
    if (it->id == id_) {
      it->start_ns = start_;
      it->end_ns = end;
      break;
    }
}

// ------------------------------------------------- engine-trace attribution

namespace {

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

}  // namespace

std::string layer_of(std::string_view path) {
  // comm scopes carry a '/' inside their own segment ("comm/route").
  if (ends_with(path, "comm/route")) return "comm.route";
  if (ends_with(path, "comm/sort")) return "comm.sort";
  if (ends_with(path, "comm/spray")) return "comm.spray";
  const std::size_t cut = path.rfind('/');
  const std::string_view seg =
      cut == std::string_view::npos ? path : path.substr(cut + 1);
  const std::string_view parent =
      cut == std::string_view::npos ? std::string_view{} : path.substr(0, cut);
  if (seg == "r1-lightest-exchange") return "lotker.r1";
  if (seg == "r2r3-candidate-relay") return "lotker.r2r3";
  if (seg == "r4r5-merge-broadcast") return "lotker.r4r5";
  if (seg == "local-boruvka") return "lotker.local";
  if (starts_with(seg, "phase-") && ends_with(parent, "lotker"))
    return "lotker.self";
  if (seg == "gc") return "core.gc";
  if (seg == "reduce-components") return "core.reduce_components";
  if (seg == "build-component-graph" || seg == "contract-component-graph")
    return "core.component_graph";
  if (seg == "sketch-span" || seg == "shared-randomness" ||
      seg == "route-sketches" || seg == "broadcast-forest" ||
      seg == "witness-resolution")
    return "core.sketch_and_span";
  if (seg == "exact-mst" || seg == "cc-mst-preprocess")
    return "core.exact_mst";
  if (seg == "sq-mst-sample" || seg == "sq-mst-light") return "core.sq_mst";
  return "other";
}

void add_self_times(const ccq::Trace& trace,
                    std::map<std::string, std::uint64_t>& self_ns) {
  const std::vector<ccq::TraceEvent>& events = trace.events();
  std::vector<std::uint64_t> children(events.size(), 0);
  std::vector<std::size_t> stack;  // ancestors of the current event
  for (std::size_t i = 0; i < events.size(); ++i) {
    while (!stack.empty() && events[stack.back()].depth >= events[i].depth)
      stack.pop_back();
    if (!stack.empty()) children[stack.back()] += events[i].wall_ns;
    stack.push_back(i);
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!events[i].closed) continue;
    const std::uint64_t wall = events[i].wall_ns;
    self_ns[layer_of(events[i].path)] +=
        wall > children[i] ? wall - children[i] : 0;
  }
}

std::vector<std::uint64_t> scope_walls(const ccq::Trace& trace,
                                       std::string_view prefix) {
  std::vector<std::uint64_t> out;
  for (const ccq::TraceEvent& e : trace.events())
    if (e.closed && starts_with(e.path, prefix)) out.push_back(e.wall_ns);
  return out;
}

// ----------------------------------------------------------------- result

std::string fmt_num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000, nullptr);
  if (max_leaf >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.c_str();  // drop trailing NULs
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

constexpr bool kOptimized =
#ifdef __OPTIMIZE__
    true;
#else
    false;
#endif

constexpr bool kSanitized =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#else
    sizeof(CCQBENCH_SANITIZE) > 1;
#endif

constexpr bool kSimd =
#ifdef CLIQUE_NO_SIMD
    false;
#else
    true;
#endif

constexpr bool kTelemetry =
#ifdef CLIQUE_NO_TELEMETRY
    false;
#else
    true;
#endif

}  // namespace

bool build_comparable() { return kOptimized && !kSanitized; }

std::string env_json(const std::string& commit) {
  std::string out = "{";
  out += "\"nproc\":" + std::to_string(nproc());
  out += ",\"cpu\":" + json_str(cpu_model());
  out += ",\"compiler\":" + json_str(__VERSION__);
  out += ",\"cxx_flags\":" + json_str(CCQBENCH_CXX_FLAGS);
  out += ",\"build_type\":" + json_str(CCQBENCH_BUILD_TYPE);
  out += std::string(",\"optimized\":") + (kOptimized ? "true" : "false");
  out += ",\"sanitize\":" + json_str(CCQBENCH_SANITIZE);
  out += std::string(",\"clique_no_simd\":") + (kSimd ? "false" : "true");
  out += std::string(",\"clique_no_telemetry\":") +
         (kTelemetry ? "false" : "true");
  out += ",\"commit\":" + json_str(commit);
  out += std::string(",\"comparable\":") +
         (build_comparable() ? "true" : "false");
  return out + "}";
}

void add_end_to_end(Outcome& out, const EndToEnd& e) {
  out.metric("setup_s", e.setup_s, "s");
  out.metric("peak_rss_mb", e.peak_rss_mb, "MiB");
  out.metric("op_ms_p50", e.op_ms_p50, "ms");
  out.metric("op_ms_p99", e.op_ms_p99, "ms");
  out.metric("ops_per_s", e.ops_per_s, "1/s");
}

void add_tracing_overhead(Outcome& out, const EndToEnd& untraced,
                          const EndToEnd& traced) {
  const auto ratio = [](double t, double u) { return u > 0 ? t / u - 1 : 0; };
  out.metric("tracing.setup_s.overhead",
             ratio(traced.setup_s, untraced.setup_s), "ratio");
  out.metric("tracing.peak_rss_mb.overhead",
             ratio(traced.peak_rss_mb, untraced.peak_rss_mb), "ratio");
  out.metric("tracing.op_ms_p50.overhead",
             ratio(traced.op_ms_p50, untraced.op_ms_p50), "ratio");
  out.metric("tracing.op_ms_p99.overhead",
             ratio(traced.op_ms_p99, untraced.op_ms_p99), "ratio");
  out.metric("tracing.ops_per_s.overhead",
             ratio(traced.ops_per_s, untraced.ops_per_s), "ratio");
}

void wait_until(std::uint64_t due_ns) {
  constexpr std::uint64_t kSpinNs = 300'000;
  const std::uint64_t now = monotonic_ns();
  if (due_ns > now + kSpinNs)
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(due_ns - now - kSpinNs));
  while (monotonic_ns() < due_ns) {
  }
}

}  // namespace ccqbench
