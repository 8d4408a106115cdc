// Parallel execution must be invisible: the engine's threaded round path
// has to produce bit-identical inboxes, outputs and Metrics to the serial
// engine (threads = 1) for every lane count. These tests pin that contract
// on raw rounds and on the flagship algorithms (GC, Lotker CC-MST,
// EXACT-MST), pin fused == unfused windows, and check the arena against a
// direct oracle of the delivery rule that involves no engine, arena or
// packed codec.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "clique/engine.hpp"
#include "clique/round_buffer.hpp"
#include "clique/trace.hpp"
#include "clique/trace_export.hpp"
#include "core/exact_mst.hpp"
#include "core/gc.hpp"
#include "graph/generators.hpp"
#include "lotker/cc_mst.hpp"
#include "util/random.hpp"

namespace ccq {
namespace {

void expect_same_metrics(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.words, b.words);
  EXPECT_EQ(a.max_messages_in_round, b.max_messages_in_round);
}

void expect_same_message(const Message& got, const Message& want) {
  EXPECT_EQ(got.src, want.src);
  EXPECT_EQ(got.dst, want.dst);
  EXPECT_EQ(got.tag, want.tag);
  ASSERT_EQ(got.count, want.count);
  // Every word, not just the first `count`: delivery must hand back the
  // zeroed tail too.
  for (std::size_t w = 0; w < kMaxWords; ++w)
    EXPECT_EQ(got.words[w], want.words[w]);
}

void expect_same_arena(const RoundBuffer& a, const RoundBuffer& b) {
  ASSERT_EQ(a.n(), b.n());
  for (VertexId v = 0; v < a.n(); ++v) {
    const auto ia = a.inbox(v);
    const auto ib = b.inbox(v);
    ASSERT_EQ(ia.size(), ib.size()) << "inbox " << v;
    for (std::size_t i = 0; i < ia.size(); ++i)
      expect_same_message(ia[i], ib[i]);
  }
}

// Inboxes held by the test itself: the direct oracle's output, or one
// round's spans copied out of an engine arena before the next round reuses
// it.
using Inboxes = std::vector<std::vector<Message>>;

void expect_inboxes(const RoundBuffer& got, const Inboxes& want) {
  ASSERT_EQ(got.n(), want.size());
  for (VertexId v = 0; v < got.n(); ++v) {
    const auto in = got.inbox(v);
    ASSERT_EQ(in.size(), want[v].size()) << "inbox " << v;
    for (std::size_t i = 0; i < in.size(); ++i)
      expect_same_message(in[i], want[v][i]);
  }
}

Inboxes copy_round(const RoundBuffer& arena, std::uint32_t r) {
  Inboxes out(arena.n());
  for (VertexId v = 0; v < arena.n(); ++v) {
    const auto in = arena.inbox_round(v, r);
    out[v].assign(in.begin(), in.end());
  }
  return out;
}

// A send pattern as a pure function of the sender: its (destination,
// message) pairs in submission order. The engine is driven through
// drive(pattern); the oracle consumes the same lists directly.
struct Send {
  VertexId dst;
  Message msg;
};
using Pattern = std::vector<Send> (*)(VertexId);

std::function<void(VertexId, Outbox&)> drive(Pattern pattern) {
  return [pattern](VertexId u, Outbox& out) {
    for (const Send& s : pattern(u)) out.send(s.dst, s.msg);
  };
}

// The model's delivery rule, written out with no engine, arena or codec:
// every message lands in its destination's inbox stamped with (src, dst),
// inboxes ordered by (sender, submission). Also totals messages and words
// so the engine's Metrics can be checked against the same source.
struct Oracle {
  Inboxes inboxes;
  std::uint64_t messages{0};
  std::uint64_t words{0};
};

Oracle oracle(std::uint32_t n, Pattern pattern) {
  Oracle o;
  o.inboxes.resize(n);
  for (VertexId u = 0; u < n; ++u)
    for (const Send& s : pattern(u)) {
      Message m = s.msg;
      m.src = u;
      m.dst = s.dst;
      o.inboxes[s.dst].push_back(m);
      ++o.messages;
      o.words += m.count;
    }
  return o;
}

// Skewed per-sender load (sender u sends to u % 7 + 1 pseudo-random
// destinations) so shard buffers have unequal sizes — the stable merge has
// to get the interleaving right, not just the totals.
std::vector<Send> skewed_sends(VertexId u) {
  std::vector<Send> sends;
  const std::uint32_t fanout = u % 7 + 1;
  for (std::uint32_t i = 0; i < fanout; ++i) {
    const VertexId dst = (u * 2654435761u + i * 40503u) % 512;
    if (dst != u) sends.push_back({dst, msg2(u % 13, u, i)});
  }
  return sends;
}
const auto skewed_send = drive(skewed_sends);

// Messages chosen to hit every packed width code in one round: zero tags,
// wide tags, 0..4 words, and 2^8/2^16/2^32 payload boundaries (n = 256).
std::vector<Send> width_extreme_sends(VertexId u) {
  const VertexId dst = (u + 1) % 256;
  switch (u % 5) {
    case 0: return {{dst, msg0(0)}};
    case 1: return {{dst, msg1(0xFFFFFFFFu, ~0ull)}};
    case 2: return {{dst, msg2(0xFFu, 0x100ull, 0xFFull)}};
    case 3:
      return {{dst, msg4(0x10000u, 0xFFFFull, 0x10000ull, 0xFFFFFFFFull,
                         0x100000000ull)}};
    default: return {{dst, msg1(1, 0)}};
  }
}

TEST(Determinism, ParallelRoundMatchesSerialBitForBit) {
  // n = 512 >= kParallelMinSenders, so the threads=8 engine actually takes
  // the sharded path while threads=1 is the serial loop.
  CliqueEngine serial{{.n = 512, .threads = 1}};
  CliqueEngine parallel{{.n = 512, .threads = 8}};
  for (int round = 0; round < 3; ++round) {
    const RoundBuffer& expected = serial.round_arena(skewed_send);
    const RoundBuffer& got = parallel.round_arena(skewed_send);
    expect_same_arena(got, expected);
  }
  expect_same_metrics(parallel.metrics(), serial.metrics());
}

TEST(Determinism, ParallelAllToAllMatchesSerial) {
  CliqueEngine serial{{.n = 512, .threads = 1}};
  CliqueEngine parallel{{.n = 512, .threads = 8}};
  const auto all_to_all = [](VertexId u, Outbox& out) {
    for (VertexId v = 0; v < 512; ++v)
      if (v != u) out.send(v, msg1(0, u));
  };
  const RoundBuffer& expected = serial.round_arena(all_to_all);
  expect_same_arena(parallel.round_arena(all_to_all), expected);
  expect_same_metrics(parallel.metrics(), serial.metrics());
  EXPECT_EQ(parallel.metrics().messages, 512ull * 511);
}

TEST(Determinism, ParallelRoundOfSubsetMatchesSerial) {
  CliqueEngine serial{{.n = 512, .threads = 1}};
  CliqueEngine parallel{{.n = 512, .threads = 8}};
  std::vector<VertexId> senders;
  for (VertexId u = 0; u < 512; u += 3) senders.push_back(u);
  const RoundBuffer& expected = serial.round_of_arena(senders, skewed_send);
  expect_same_arena(parallel.round_of_arena(senders, skewed_send), expected);
  expect_same_metrics(parallel.metrics(), serial.metrics());
}

TEST(Determinism, ParallelProtocolErrorMatchesSerial) {
  // A budget violation must surface as the same ProtocolError whether the
  // offending sender ran on the main thread or on a worker, and metrics
  // must stay untouched in both engines.
  const auto violate = [](VertexId u, Outbox& out) {
    out.send((u + 1) % 512, msg0(0));
    if (u == 300) out.send(301, msg0(1));  // second message on link 300->301
  };
  CliqueEngine serial{{.n = 512, .threads = 1}};
  CliqueEngine parallel{{.n = 512, .threads = 8}};
  EXPECT_THROW(serial.round_arena(violate), ProtocolError);
  EXPECT_THROW(parallel.round_arena(violate), ProtocolError);
  expect_same_metrics(parallel.metrics(), serial.metrics());
  EXPECT_EQ(serial.metrics().rounds, 0u);
}

TEST(Determinism, ArenaMatchesDirectOracle) {
  // The packed arena against the delivery rule itself: inboxes (all
  // kMaxWords words), order, and Metrics, serial and sharded, over repeated
  // rounds of the same engine (arena reuse).
  const struct {
    std::uint32_t n;
    Pattern pattern;
  } cases[] = {{512, skewed_sends}, {256, width_extreme_sends}};
  for (const auto& c : cases) {
    const Oracle want = oracle(c.n, c.pattern);
    for (const std::uint32_t threads : {1u, 8u}) {
      SCOPED_TRACE("n=" + std::to_string(c.n) +
                   " threads=" + std::to_string(threads));
      CliqueEngine engine{{.n = c.n, .threads = threads}};
      for (std::uint64_t round = 1; round <= 3; ++round) {
        expect_inboxes(engine.round_arena(drive(c.pattern)), want.inboxes);
        EXPECT_EQ(engine.metrics().rounds, round);
        EXPECT_EQ(engine.metrics().messages, round * want.messages);
        EXPECT_EQ(engine.metrics().words, round * want.words);
      }
    }
  }
}

TEST(Determinism, FusedWindowMatchesUnfusedRounds) {
  // A static k-round schedule run through fused_rounds_arena must yield the
  // same per-round inboxes, Metrics, and trace NDJSON as k generic rounds
  // driving the same schedule — fusion is an execution detail, not a model
  // change.
  constexpr std::uint32_t kN = 96;
  constexpr std::uint32_t kRounds = 4;
  const auto schedule = [](VertexId u, std::uint32_t r, Outbox& out) {
    const std::uint32_t fanout = (u + r) % 5;
    for (std::uint32_t i = 0; i < fanout; ++i) {
      const VertexId dst = (u * 31 + r * 17 + i) % kN;
      if (dst != u) out.send(dst, msg2(r, u, i));
    }
  };

  Trace unfused_trace, fused_trace;
  CliqueEngine unfused{{.n = kN, .threads = 1}};
  CliqueEngine fused{{.n = kN, .threads = 1}};
  unfused.set_trace(&unfused_trace);
  fused.set_trace(&fused_trace);

  std::vector<Inboxes> unfused_rounds;
  {
    TraceScope scope{unfused, "fusion-parity"};
    for (std::uint32_t r = 0; r < kRounds; ++r)
      unfused_rounds.push_back(copy_round(
          unfused.round_arena(
              [&](VertexId u, Outbox& out) { schedule(u, r, out); }),
          0));
  }
  const RoundBuffer* arena = nullptr;
  {
    TraceScope scope{fused, "fusion-parity"};
    arena = &fused.fused_rounds_arena(kRounds, schedule);
  }

  for (std::uint32_t r = 0; r < kRounds; ++r) {
    for (VertexId v = 0; v < kN; ++v) {
      const auto in = arena->inbox_round(v, r);
      const auto& expect = unfused_rounds[r][v];
      ASSERT_EQ(in.size(), expect.size()) << "round " << r << " inbox " << v;
      for (std::size_t i = 0; i < in.size(); ++i) {
        EXPECT_EQ(in[i].src, expect[i].src);
        EXPECT_EQ(in[i].dst, expect[i].dst);
        EXPECT_EQ(in[i].tag, expect[i].tag);
        ASSERT_EQ(in[i].count, expect[i].count);
        for (std::size_t w = 0; w < in[i].count; ++w)
          EXPECT_EQ(in[i].words[w], expect[i].words[w]);
      }
    }
  }
  expect_same_metrics(fused.metrics(), unfused.metrics());
  // The observability layer must not see the fusion either: per-round
  // records and the exported NDJSON are byte-identical.
  TraceExportOptions opts;
  opts.include_rounds = true;
  EXPECT_EQ(trace_to_ndjson(fused_trace, opts),
            trace_to_ndjson(unfused_trace, opts));
}

TEST(Determinism, FusedSubsetWindowMatchesUnfused) {
  constexpr std::uint32_t kN = 128;
  constexpr std::uint32_t kRounds = 3;
  std::vector<VertexId> senders;
  for (VertexId u = 0; u < kN; u += 2) senders.push_back(u);
  const auto schedule = [](VertexId u, std::uint32_t r, Outbox& out) {
    out.send((u + r + 1) % kN, msg1(r, u));
  };
  CliqueEngine unfused{{.n = kN, .threads = 8}};
  CliqueEngine fused{{.n = kN, .threads = 8}};
  std::vector<Inboxes> unfused_rounds;
  for (std::uint32_t r = 0; r < kRounds; ++r)
    unfused_rounds.push_back(copy_round(
        unfused.round_of_arena(
            senders, [&](VertexId u, Outbox& out) { schedule(u, r, out); }),
        0));
  const RoundBuffer& arena = fused.fused_rounds_of_arena(
      {senders.data(), senders.size()}, kRounds, schedule);
  for (std::uint32_t r = 0; r < kRounds; ++r)
    for (VertexId v = 0; v < kN; ++v) {
      const auto in = arena.inbox_round(v, r);
      const auto& expect = unfused_rounds[r][v];
      ASSERT_EQ(in.size(), expect.size()) << "round " << r << " inbox " << v;
      for (std::size_t i = 0; i < in.size(); ++i) {
        EXPECT_EQ(in[i].src, expect[i].src);
        EXPECT_EQ(in[i].tag, expect[i].tag);
      }
    }
  expect_same_metrics(fused.metrics(), unfused.metrics());
}

TEST(Determinism, GcIdenticalAcrossThreadCounts) {
  Rng gen{1234};
  const Graph g = random_components(128, 3, 64, gen);
  Rng rng_serial{99};
  Rng rng_parallel{99};
  CliqueEngine serial{{.n = 128, .threads = 1}};
  CliqueEngine parallel{{.n = 128, .threads = 8}};
  const GcResult a = gc_spanning_forest(serial, g, rng_serial);
  const GcResult b = gc_spanning_forest(parallel, g, rng_parallel);
  EXPECT_EQ(a.connected, b.connected);
  EXPECT_EQ(a.monte_carlo_ok, b.monte_carlo_ok);
  EXPECT_EQ(a.lotker_phases, b.lotker_phases);
  ASSERT_EQ(a.forest.size(), b.forest.size());
  for (std::size_t i = 0; i < a.forest.size(); ++i) {
    EXPECT_EQ(a.forest[i].u, b.forest[i].u);
    EXPECT_EQ(a.forest[i].v, b.forest[i].v);
  }
  expect_same_metrics(parallel.metrics(), serial.metrics());
}

TEST(Determinism, LotkerMstIdenticalAcrossThreadCounts) {
  Rng gen{777};
  const WeightedGraph wg = random_weighted_clique(96, gen);
  const FiniteAdjacency input{CliqueWeights::from_graph(wg)};
  CliqueEngine serial{{.n = 96, .threads = 1}};
  CliqueEngine parallel{{.n = 96, .threads = 8}};
  const LotkerState a = cc_mst_full(serial, input);
  const LotkerState b = cc_mst_full(parallel, input);
  EXPECT_EQ(a.phases_run, b.phases_run);
  EXPECT_EQ(a.cluster_of, b.cluster_of);
  ASSERT_EQ(a.tree_edges.size(), b.tree_edges.size());
  for (std::size_t i = 0; i < a.tree_edges.size(); ++i) {
    EXPECT_EQ(a.tree_edges[i].u, b.tree_edges[i].u);
    EXPECT_EQ(a.tree_edges[i].v, b.tree_edges[i].v);
    EXPECT_EQ(a.tree_edges[i].w, b.tree_edges[i].w);
  }
  expect_same_metrics(parallel.metrics(), serial.metrics());
}

TEST(Determinism, ExactMstIdenticalAcrossThreadCounts) {
  // One CC-MST phase leaves a large component graph, so both SQ-MST calls
  // carry load: their sketch stage and guardians run on the engine's pool.
  Rng gen{4242};
  const CliqueWeights weights =
      CliqueWeights::from_graph(random_weighted_clique(160, gen));
  struct Run {
    ExactMstResult result;
    Metrics metrics;
    std::uint64_t observed{0xcbf29ce484222325ULL};
  };
  const auto run = [&](std::uint32_t threads) {
    Run out;
    CliqueEngine engine{{.n = 160, .threads = threads}};
    engine.set_observer([&](VertexId s, VertexId d) {
      for (std::uint64_t word : {std::uint64_t{s}, std::uint64_t{d}}) {
        out.observed ^= word;
        out.observed *= 0x100000001b3ULL;
      }
    });
    Rng rng{99};
    out.result = exact_mst(engine, weights, rng, /*phase_override=*/1);
    out.metrics = engine.metrics();
    return out;
  };
  const Run a = run(1);
  const Run b = run(4);
  EXPECT_TRUE(a.result.monte_carlo_ok);
  EXPECT_EQ(a.result.monte_carlo_ok, b.result.monte_carlo_ok);
  EXPECT_GT(a.result.sampled_edges, 0u);
  EXPECT_EQ(a.result.g1_edges, b.result.g1_edges);
  EXPECT_EQ(a.result.sampled_edges, b.result.sampled_edges);
  EXPECT_EQ(a.result.f_light_edges, b.result.f_light_edges);
  // Sketch contents reach the forest only through sampling; the Borůvka
  // round count exposes a sketch that differs across thread counts even
  // when the forest comes out the same.
  EXPECT_EQ(a.result.sketch_boruvka_rounds, b.result.sketch_boruvka_rounds);
  ASSERT_EQ(a.result.mst.size(), b.result.mst.size());
  for (std::size_t i = 0; i < a.result.mst.size(); ++i) {
    EXPECT_EQ(a.result.mst[i].u, b.result.mst[i].u);
    EXPECT_EQ(a.result.mst[i].v, b.result.mst[i].v);
    EXPECT_EQ(a.result.mst[i].w, b.result.mst[i].w);
  }
  expect_same_metrics(b.metrics, a.metrics);
  EXPECT_EQ(a.observed, b.observed);
}

}  // namespace
}  // namespace ccq
