// The phase-trace subsystem's contract (docs/TRACING.md): traced runs are
// deterministic down to the exported bytes, tracing never perturbs the
// engine's accounting, scope paths mirror the algorithm structure, and the
// accounting quantities a trace records (in-window peaks, silent spans,
// absorbed sub-instances) are exactly the ones plain Metrics snapshots
// cannot recover.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "clique/engine.hpp"
#include "clique/trace.hpp"
#include "clique/trace_export.hpp"
#include "core/bipartiteness.hpp"
#include "core/gc.hpp"
#include "graph/generators.hpp"
#include "kt1/clock_coding.hpp"
#include "lotker/cc_mst.hpp"
#include "util/random.hpp"

namespace ccq {
namespace {

// --- Metrics has_peak regression (the bug the trace design exposed) ---

TEST(MetricsPeak, DeltaClearsPeakAndFlag) {
  Metrics entry{.rounds = 5, .messages = 100, .words = 300,
                .max_messages_in_round = 90};
  Metrics exit{.rounds = 8, .messages = 160, .words = 420,
               .max_messages_in_round = 90};
  const Metrics d = exit - entry;
  EXPECT_EQ(d.rounds, 3u);
  EXPECT_EQ(d.messages, 60u);
  EXPECT_EQ(d.words, 120u);
  // The live counter is a running maximum: a window delta cannot know the
  // in-window peak, and must say so rather than report a bogus number.
  EXPECT_EQ(d.max_messages_in_round, 0u);
  EXPECT_FALSE(d.has_peak);
  EXPECT_TRUE(entry.has_peak);
}

TEST(MetricsPeak, AbsorbVirtualRejectsWindowDeltas) {
  CliqueEngine engine{{.n = 8}};
  Metrics delta = engine.metrics() - engine.metrics();
  ASSERT_FALSE(delta.has_peak);
  EXPECT_THROW(engine.absorb_virtual(delta), std::logic_error);
  // A live snapshot (has_peak) absorbs fine.
  CliqueEngine sub{{.n = 4}};
  sub.skip_silent_rounds(2);
  EXPECT_NO_THROW(engine.absorb_virtual(sub.metrics()));
  EXPECT_EQ(engine.metrics().rounds, 2u);
}

// --- Scope structure ---

TEST(Trace, PathsJoinAndIndex) {
  CliqueEngine engine{{.n = 4}};
  Trace trace;
  engine.set_trace(&trace);
  {
    TraceScope algo{engine, "demo"};
    TraceScope phase{engine, "phase", 2};
    TraceScope step{engine, "step"};
  }
  ASSERT_EQ(trace.events().size(), 3u);
  EXPECT_EQ(trace.events()[0].path, "demo");
  EXPECT_EQ(trace.events()[0].depth, 0u);
  EXPECT_EQ(trace.events()[1].path, "demo/phase-2");
  EXPECT_EQ(trace.events()[1].depth, 1u);
  EXPECT_EQ(trace.events()[2].path, "demo/phase-2/step");
  EXPECT_EQ(trace.events()[2].depth, 2u);
  EXPECT_EQ(trace.open_scopes(), 0u);
}

TEST(Trace, NullTraceScopesAreNoOps) {
  CliqueEngine engine{{.n = 4}};
  ASSERT_EQ(engine.trace(), nullptr);
  TraceScope scope{engine, "ignored"};     // must not throw or record
  TraceScope more{engine, "ignored", 7};
}

TEST(Trace, UnboundTraceRefusesScopes) {
  Trace trace;  // never attached via set_trace
  EXPECT_THROW(TraceScope(&trace, "orphan"), std::logic_error);
}

TEST(Trace, ExportRequiresClosedScopes) {
  CliqueEngine engine{{.n = 4}};
  Trace trace;
  engine.set_trace(&trace);
  TraceScope open{engine, "still-open"};
  EXPECT_THROW(trace_to_ndjson(trace), std::logic_error);
}

// --- Determinism: byte-identical NDJSON across repeated runs ---

std::string traced_gc_ndjson(std::uint64_t seed, Metrics* metrics_out) {
  Rng graph_rng{seed};
  const Graph g = random_components(128, 2, 128, graph_rng);
  CliqueEngine engine{{.n = 128}};
  Trace trace;
  engine.set_trace(&trace);
  Rng rng{seed + 1};
  (void)gc_spanning_forest(engine, g, rng);
  if (metrics_out) *metrics_out = engine.metrics();
  return trace_to_ndjson(trace);
}

TEST(TraceDeterminism, GcRunsAreByteIdentical) {
  const std::string a = traced_gc_ndjson(5, nullptr);
  const std::string b = traced_gc_ndjson(5, nullptr);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"path\":\"gc/reduce-components/lotker/phase-1\""),
            std::string::npos);
}

std::string traced_lotker_ndjson(std::uint64_t seed) {
  Rng graph_rng{seed};
  const auto wg = random_weighted_clique(64, graph_rng);
  CliqueEngine engine{{.n = 64}};
  Trace trace;
  engine.set_trace(&trace);
  (void)cc_mst_full(engine,
                    FiniteAdjacency{CliqueWeights::from_graph(wg)});
  return trace_to_ndjson(trace);
}

TEST(TraceDeterminism, LotkerRunsAreByteIdentical) {
  const std::string a = traced_lotker_ndjson(11);
  const std::string b = traced_lotker_ndjson(11);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"path\":\"lotker/phase-1/r2r3-candidate-relay\""),
            std::string::npos);
}

// --- No observer effect: tracing cannot change what the engine counts ---

TEST(Trace, TracedAndUntracedMetricsAgree) {
  Metrics traced;
  (void)traced_gc_ndjson(3, &traced);

  Rng graph_rng{3};
  const Graph g = random_components(128, 2, 128, graph_rng);
  CliqueEngine engine{{.n = 128}};
  Rng rng{4};
  (void)gc_spanning_forest(engine, g, rng);
  const Metrics untraced = engine.metrics();

  EXPECT_EQ(traced.rounds, untraced.rounds);
  EXPECT_EQ(traced.messages, untraced.messages);
  EXPECT_EQ(traced.words, untraced.words);
  EXPECT_EQ(traced.max_messages_in_round, untraced.max_messages_in_round);
}

// --- Window accounting: deltas, peaks, header totals ---

TEST(Trace, RootScopeDeltaMatchesEngineMetrics) {
  Rng graph_rng{21};
  const Graph g = random_components(128, 3, 128, graph_rng);
  CliqueEngine engine{{.n = 128}};
  Trace trace;
  engine.set_trace(&trace);
  Rng rng{22};
  (void)gc_spanning_forest(engine, g, rng);

  ASSERT_FALSE(trace.events().empty());
  const TraceEvent& root = trace.events()[0];
  EXPECT_EQ(root.path, "gc");
  const Metrics d = root.delta();
  const Metrics total = engine.metrics();
  EXPECT_EQ(d.rounds, total.rounds);
  EXPECT_EQ(d.messages, total.messages);
  EXPECT_EQ(d.words, total.words);
  // The whole-run window sees every round, so its per-round peak is the
  // engine's running maximum — the quantity delta() itself cannot carry.
  EXPECT_EQ(root.peak_messages_in_round, total.max_messages_in_round);
  // Child windows partition the root's rounds: each per-window peak is a
  // lower bound on the root's.
  for (const TraceEvent& e : trace.events())
    EXPECT_LE(e.peak_messages_in_round, root.peak_messages_in_round);
}

TEST(Trace, SilentSpansAreRecorded) {
  // Clock coding advances virtual time via skip_silent_rounds; its scope
  // must see the silent rounds without materializing per-round records.
  Graph g{8};
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  CliqueEngine engine{{.n = 8}};
  Trace trace;
  engine.set_trace(&trace);
  const auto result = clock_coding_gc(engine, g);
  EXPECT_FALSE(result.connected);

  ASSERT_FALSE(trace.events().empty());
  const TraceEvent& root = trace.events()[0];
  EXPECT_EQ(root.path, "kt1-clock");
  EXPECT_GT(root.silent_rounds, 0u);
  EXPECT_EQ(root.delta().rounds, engine.metrics().rounds);
  bool saw_silent_span = false;
  for (const TraceRound& r : trace.rounds())
    if (r.span > 1 && r.messages == 0) saw_silent_span = true;
  EXPECT_TRUE(saw_silent_span);
}

TEST(Trace, AbsorbedSubInstancesAreRecorded) {
  // Bipartiteness runs GC on a 2n-node virtual engine and absorbs its
  // metrics; the parent trace must log that aggregate as one record (and
  // the exporter keeps it out of the per-round histograms).
  Rng graph_rng{31};
  const Graph g = random_components(64, 2, 64, graph_rng);
  CliqueEngine engine{{.n = 64}};
  Trace trace;
  engine.set_trace(&trace);
  Rng rng{32};
  (void)gc_bipartiteness(engine, g, rng);

  bool saw_absorbed = false;
  for (const TraceRound& r : trace.rounds())
    if (r.span > 1 && r.messages > 0) saw_absorbed = true;
  EXPECT_TRUE(saw_absorbed);
  const std::string ndjson = trace_to_ndjson(trace);
  EXPECT_NE(ndjson.find("\"absorbed_rounds\":"), std::string::npos);
}

TEST(Trace, HeaderTotalsMatchEngine) {
  Rng graph_rng{41};
  const Graph g = random_connected(64, 64, graph_rng);
  CliqueEngine engine{{.n = 64}};
  Trace trace;
  engine.set_trace(&trace);
  Rng rng{42};
  (void)gc_spanning_forest(engine, g, rng);

  const Metrics m = engine.metrics();
  const std::string header_prefix =
      "{\"type\":\"trace\",\"schema\":1,\"n\":64,\"events\":" +
      std::to_string(trace.events().size()) +
      ",\"records\":" + std::to_string(trace.rounds().size()) +
      ",\"rounds\":" + std::to_string(m.rounds) +
      ",\"messages\":" + std::to_string(m.messages) +
      ",\"words\":" + std::to_string(m.words) + "}\n";
  EXPECT_EQ(trace_to_ndjson(trace).substr(0, header_prefix.size()),
            header_prefix);
}

TEST(Trace, WallTimeAndRoundLinesAreOptIn) {
  CliqueEngine engine{{.n = 4}};
  Trace trace;
  engine.set_trace(&trace);
  {
    TraceScope scope{engine, "opt-in-demo"};
    engine.skip_silent_rounds(3);
  }
  const std::string canonical = trace_to_ndjson(trace);
  EXPECT_EQ(canonical.find("wall_ns"), std::string::npos);
  EXPECT_EQ(canonical.find("\"type\":\"round\""), std::string::npos);
  const std::string full = trace_to_ndjson(
      trace, {.include_wall_time = true, .include_rounds = true});
  EXPECT_NE(full.find("wall_ns"), std::string::npos);
  EXPECT_NE(full.find("\"type\":\"round\""), std::string::npos);
}

// --- Mixed windows: absorbed + silent rounds inside one nested scope ---

TEST(Trace, NestedScopesSpanAbsorbedAndSilentSimultaneously) {
  // Prior coverage exercised silent spans (clock coding) and absorbed
  // sub-instances (bipartiteness) in isolation; here one nested window
  // holds charged rounds, a 5-round silent skip, AND an absorbed virtual
  // sub-instance at once, and every delta/peak/histogram rule must still
  // hold — on the inner scope and on the enclosing one.
  CliqueEngine engine{{.n = 8}};
  Trace trace;
  engine.set_trace(&trace);

  CliqueEngine sub{{.n = 8}};
  (void)sub.round_arena([](VertexId u, Outbox& out) {
    if (u < 4) out.send(u + 4, msg0(1));
  });
  (void)sub.round_arena([](VertexId u, Outbox& out) {
    if (u == 0) out.send(1, msg0(2));
  });
  const Metrics sub_m = sub.metrics();
  ASSERT_EQ(sub_m.rounds, 2u);
  ASSERT_EQ(sub_m.messages, 5u);
  ASSERT_EQ(sub_m.max_messages_in_round, 4u);

  {
    TraceScope outer{engine, "mixed"};
    (void)engine.round_arena([](VertexId u, Outbox& out) {
      if (u == 0) out.send(7, msg0(3));
    });
    {
      TraceScope inner{engine, "window"};
      engine.skip_silent_rounds(5);
      engine.absorb_virtual(sub_m);
      (void)engine.round_arena([](VertexId u, Outbox& out) {
        if (u < 2) out.send(u + 2, msg0(4));
      });
    }
  }

  ASSERT_EQ(trace.events().size(), 2u);
  const TraceEvent& outer = trace.events()[0];
  const TraceEvent& inner = trace.events()[1];
  ASSERT_EQ(outer.path, "mixed");
  ASSERT_EQ(inner.path, "mixed/window");

  // Inner window: 5 silent + 2 absorbed + 1 charged round, 5 absorbed + 2
  // charged messages. The delta is a window difference, so it must carry
  // no peak flag…
  const Metrics di = inner.delta();
  EXPECT_EQ(di.rounds, 8u);
  EXPECT_EQ(di.messages, 7u);
  EXPECT_FALSE(di.has_peak);
  EXPECT_EQ(inner.silent_rounds, 5u);
  // …while the trace recovers the true in-window peak: the absorbed
  // sub-instance's 4-message round beats the charged 2-message round.
  EXPECT_EQ(inner.peak_messages_in_round, 4u);

  // Outer window adds its own charged round and inherits the silent span
  // (silent rounds are attributed to every open scope).
  const Metrics douter = outer.delta();
  EXPECT_EQ(douter.rounds, engine.metrics().rounds);
  EXPECT_EQ(douter.messages, engine.metrics().messages);
  EXPECT_EQ(outer.silent_rounds, 5u);
  EXPECT_EQ(outer.peak_messages_in_round,
            engine.metrics().max_messages_in_round);

  // Exporter: both scope lines surface the absorbed aggregate, and the
  // histograms count only charged (bucketed) and silent (bucket 0) rounds.
  const std::string ndjson = trace_to_ndjson(trace);
  EXPECT_NE(ndjson.find("\"path\":\"mixed/window\""), std::string::npos);
  std::size_t absorbed_lines = 0;
  for (std::size_t pos = 0;
       (pos = ndjson.find("\"absorbed_rounds\":2,\"absorbed_messages\":5",
                          pos)) != std::string::npos;
       ++pos)
    ++absorbed_lines;
  EXPECT_EQ(absorbed_lines, 2u);  // once on each enclosing scope line
}

// --- "bound" records (theorem tags for the conformance gate) ---

TEST(TraceBounds, AggregateTopMostMatchingScopes) {
  CliqueEngine engine{{.n = 4}};
  Trace trace;
  engine.set_trace(&trace);
  {
    TraceScope root{engine, "lotker"};
    for (std::uint64_t k = 1; k <= 2; ++k) {
      TraceScope phase{engine, "phase", k};
      TraceScope merge{engine, "merge"};  // nested: must not double count
      for (std::uint64_t r = 0; r < k; ++r)
        (void)engine.round_arena([k](VertexId u, Outbox& out) {
          if (u < k) out.send(3, msg0(1));
        });
    }
  }
  const std::string ndjson = trace_to_ndjson(
      trace, {.bound_tags = {{"T2", "lotker/phase"}, {"TX", "no-such"}}});
  // phase-1: 1 round x 1 message; phase-2: 2 rounds x 2 messages.
  EXPECT_NE(
      ndjson.find(
          "{\"type\":\"bound\",\"theorem\":\"T2\",\"scope_prefix\":"
          "\"lotker/phase\",\"instances\":2,\"rounds\":3,\"messages\":5,"
          "\"words\":0,\"max_rounds\":2,\"max_messages\":4,"
          "\"peak_messages_in_round\":2}"),
      std::string::npos)
      << ndjson;
  // A tag that matches nothing still emits, with instances 0 — the checker
  // distinguishes "phase never ran" from "prefix misspelled".
  EXPECT_NE(ndjson.find("\"theorem\":\"TX\",\"scope_prefix\":\"no-such\","
                        "\"instances\":0"),
            std::string::npos);
}

TEST(TraceBounds, PrefixMatchesIndexesButNotHyphenNames) {
  CliqueEngine engine{{.n = 4}};
  Trace trace;
  engine.set_trace(&trace);
  { TraceScope a{engine, "gc"}; }
  { TraceScope b{engine, "gc-verify"}; }  // distinct algorithm, not an index
  { TraceScope c{engine, "phase", 12}; }  // "phase-12": an indexed instance
  const std::string ndjson = trace_to_ndjson(
      trace, {.bound_tags = {{"T4", "gc"}, {"T2", "phase"}}});
  EXPECT_NE(ndjson.find("\"theorem\":\"T4\",\"scope_prefix\":\"gc\","
                        "\"instances\":1"),
            std::string::npos)
      << ndjson;
  EXPECT_NE(ndjson.find("\"theorem\":\"T2\",\"scope_prefix\":\"phase\","
                        "\"instances\":1"),
            std::string::npos)
      << ndjson;
}

// --- Golden file for the standalone NDJSON validator ctest ---

TEST(TraceGolden, WritesSchema1GoldenFile) {
  // Dumps a full-feature schema-1 trace (rounds + bound records) next to
  // the test binary; the `ndjson_validate` ctest re-reads it with
  // tools/report/validate_ndjson.py (FIXTURES_SETUP golden_ndjson).
  Rng graph_rng{51};
  const Graph g = random_connected(64, 128, graph_rng);
  CliqueEngine engine{{.n = 64}};
  Trace trace;
  engine.set_trace(&trace);
  Rng rng{52};
  const auto result = gc_spanning_forest(engine, g, rng);
  EXPECT_TRUE(result.connected);
  write_trace_ndjson_file(
      trace, "golden_trace_schema1.ndjson",
      {.include_rounds = true,
       .bound_tags = {{"T4", "gc"}, {"T1", "gc/sketch-span"}}});
}

TEST(Trace, ClearKeepsBindingDropsData) {
  CliqueEngine engine{{.n = 4}};
  Trace trace;
  engine.set_trace(&trace);
  { TraceScope scope{engine, "before-clear"}; }
  ASSERT_EQ(trace.events().size(), 1u);
  trace.clear();
  EXPECT_TRUE(trace.events().empty());
  EXPECT_TRUE(trace.rounds().empty());
  { TraceScope scope{engine, "after-clear"}; }  // binding survived
  EXPECT_EQ(trace.events()[0].path, "after-clear");
}

}  // namespace
}  // namespace ccq
