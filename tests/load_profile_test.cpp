// The congestion profiler's contract (docs/TRACING.md schema 2,
// clique/load_profile.hpp): per-node load attribution conserves the
// engine's global Metrics (sum of sent == sum of received ==
// messages - absorbed), serial and parallel engines produce identical
// profiles, a detached profiler changes nothing (metrics and schema-1
// NDJSON stay bit-identical), and schema-2 exports are byte-deterministic.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>

#include "baseline/boruvka_clique.hpp"
#include "clique/engine.hpp"
#include "clique/load_profile.hpp"
#include "clique/trace.hpp"
#include "clique/trace_export.hpp"
#include "core/bipartiteness.hpp"
#include "core/gc.hpp"
#include "graph/generators.hpp"
#include "kt1/boruvka_sketch_mst.hpp"
#include "kt1/clock_coding.hpp"
#include "lotker/cc_mst.hpp"
#include "util/random.hpp"

namespace ccq {
namespace {

std::uint64_t sum(std::span<const std::uint64_t> v) {
  return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}

/// The conservation identity every attached profile must satisfy: both
/// attribution directions sum to the engine's global message/word counters,
/// minus absorbed virtual sub-instances (which have no per-node owner in
/// the parent — see LoadProfile::record_absorbed).
void expect_conserved(const LoadProfile& profile, const Metrics& m) {
  const std::uint64_t messages = m.messages - profile.absorbed_messages();
  const std::uint64_t words = m.words - profile.absorbed_words();
  EXPECT_EQ(sum(profile.sent_messages()), messages);
  EXPECT_EQ(sum(profile.recv_messages()), messages);
  EXPECT_EQ(profile.total_sent_messages(), messages);
  EXPECT_EQ(profile.total_recv_messages(), messages);
  EXPECT_EQ(sum(profile.sent_words()), words);
  EXPECT_EQ(sum(profile.recv_words()), words);
  EXPECT_EQ(profile.total_sent_words(), words);
  EXPECT_EQ(profile.total_recv_words(), words);
  // Records partition the charged traffic the same way.
  std::uint64_t recorded = 0;
  for (const LoadRound& r : profile.records()) recorded += r.messages;
  EXPECT_EQ(recorded, m.messages);
}

// --- Raw engine rounds: generic path, serial and parallel ---

void run_all_to_all(CliqueEngine& engine, std::uint32_t rounds) {
  const std::uint32_t n = engine.n();
  const auto all_to_all = [n](VertexId u, Outbox& out) {
    for (VertexId v = 0; v < n; ++v)
      if (v != u) out.send(v, msg1(0, u));
  };
  for (std::uint32_t r = 0; r < rounds; ++r) engine.round_arena(all_to_all);
}

TEST(LoadConservation, RawRoundsSerial) {
  CliqueEngine engine{{.n = 256, .threads = 1}};
  LoadProfile profile;
  engine.set_load_profile(&profile);
  run_all_to_all(engine, 3);
  expect_conserved(profile, engine.metrics());
  EXPECT_EQ(profile.total_sent_messages(), 3u * 256 * 255);
  // Every link carries exactly one message per round: the exact per-round
  // max-link occupancy the generic path measures.
  EXPECT_EQ(profile.max_link(), 1u);
  for (const LoadRound& r : profile.records()) EXPECT_EQ(r.max_link, 1u);
}

TEST(LoadConservation, RawRoundsParallel) {
  CliqueEngine engine{{.n = 256, .threads = 8}};
  LoadProfile profile;
  engine.set_load_profile(&profile);
  run_all_to_all(engine, 3);
  expect_conserved(profile, engine.metrics());
}

TEST(LoadProfile_, SerialAndParallelProfilesIdentical) {
  // The profiler's determinism guarantee: worker-local tallies merge in
  // shard order, so the thread count is invisible in the profile.
  LoadProfile serial, parallel;
  {
    CliqueEngine engine{{.n = 256, .threads = 1}};
    engine.set_load_profile(&serial);
    run_all_to_all(engine, 2);
  }
  {
    CliqueEngine engine{{.n = 256, .threads = 8}};
    engine.set_load_profile(&parallel);
    run_all_to_all(engine, 2);
  }
  ASSERT_EQ(serial.n(), parallel.n());
  for (VertexId v = 0; v < serial.n(); ++v) {
    EXPECT_EQ(serial.sent_messages()[v], parallel.sent_messages()[v]);
    EXPECT_EQ(serial.sent_words()[v], parallel.sent_words()[v]);
    EXPECT_EQ(serial.recv_messages()[v], parallel.recv_messages()[v]);
    EXPECT_EQ(serial.recv_words()[v], parallel.recv_words()[v]);
  }
  ASSERT_EQ(serial.records().size(), parallel.records().size());
  for (std::size_t i = 0; i < serial.records().size(); ++i) {
    EXPECT_EQ(serial.records()[i].messages, parallel.records()[i].messages);
    EXPECT_EQ(serial.records()[i].max_link, parallel.records()[i].max_link);
  }
  EXPECT_EQ(serial.max_link(), parallel.max_link());
}

// --- Full algorithms: fast-path attribution must balance the books ---

TEST(LoadConservation, GcSpanningForest) {
  Rng graph_rng{5};
  const Graph g = random_components(128, 2, 128, graph_rng);
  CliqueEngine engine{{.n = 128}};
  LoadProfile profile;
  engine.set_load_profile(&profile);
  Rng rng{6};
  (void)gc_spanning_forest(engine, g, rng);
  expect_conserved(profile, engine.metrics());
  EXPECT_GT(profile.total_sent_messages(), 0u);
}

TEST(LoadConservation, LotkerMst) {
  Rng graph_rng{11};
  const auto wg = random_weighted_clique(64, graph_rng);
  CliqueEngine engine{{.n = 64}};
  LoadProfile profile;
  engine.set_load_profile(&profile);
  (void)cc_mst_full(engine,
                    FiniteAdjacency{CliqueWeights::from_graph(wg)});
  expect_conserved(profile, engine.metrics());
}

TEST(LoadConservation, BoruvkaBaseline) {
  Rng graph_rng{13};
  const auto wg = random_weighted_clique(64, graph_rng);
  CliqueEngine engine{{.n = 64}};
  LoadProfile profile;
  engine.set_load_profile(&profile);
  (void)boruvka_clique_msf(engine,
                           FiniteAdjacency{CliqueWeights::from_graph(wg)});
  expect_conserved(profile, engine.metrics());
}

TEST(LoadConservation, Kt1ClockCoding) {
  Rng graph_rng{17};
  const Graph g = random_connected(32, 64, graph_rng);
  CliqueEngine engine{{.n = 32}};
  LoadProfile profile;
  engine.set_load_profile(&profile);
  (void)clock_coding_gc(engine, g);
  expect_conserved(profile, engine.metrics());
  // The encode is nearly all silence: the leader link carries one message.
  EXPECT_EQ(profile.recv_messages()[0],
            profile.total_recv_messages() - 31u);  // 31 broadcast receivers
}

TEST(LoadConservation, Kt1SketchMst) {
  Rng graph_rng{19};
  const auto wg = random_weighted_clique(32, graph_rng);
  CliqueEngine engine{{.n = 32}};
  LoadProfile profile;
  engine.set_load_profile(&profile);
  Rng rng{20};
  const auto result = boruvka_sketch_mst(engine, wg, rng);
  EXPECT_TRUE(result.monte_carlo_ok);
  expect_conserved(profile, engine.metrics());
}

TEST(LoadConservation, AbsorbedSubInstancesStayUnattributed) {
  // Bipartiteness runs GC on a 2n-node virtual engine and absorbs its
  // metrics wholesale; the parent profile must count that traffic in the
  // absorbed bucket, not invent per-node owners for it.
  Rng graph_rng{31};
  const Graph g = random_components(64, 2, 64, graph_rng);
  CliqueEngine engine{{.n = 64}};
  LoadProfile profile;
  engine.set_load_profile(&profile);
  Rng rng{32};
  (void)gc_bipartiteness(engine, g, rng);
  EXPECT_GT(profile.absorbed_messages(), 0u);
  EXPECT_GT(profile.absorbed_rounds(), 0u);
  expect_conserved(profile, engine.metrics());
}

// --- No observer effect: attaching a profiler changes nothing ---

TEST(LoadProfile_, DetachedAndAttachedMetricsAgree) {
  Metrics with, without;
  {
    Rng graph_rng{3};
    const Graph g = random_components(128, 2, 128, graph_rng);
    CliqueEngine engine{{.n = 128}};
    LoadProfile profile;
    engine.set_load_profile(&profile);
    Rng rng{4};
    (void)gc_spanning_forest(engine, g, rng);
    with = engine.metrics();
  }
  {
    Rng graph_rng{3};
    const Graph g = random_components(128, 2, 128, graph_rng);
    CliqueEngine engine{{.n = 128}};
    Rng rng{4};
    (void)gc_spanning_forest(engine, g, rng);
    without = engine.metrics();
  }
  EXPECT_EQ(with.rounds, without.rounds);
  EXPECT_EQ(with.messages, without.messages);
  EXPECT_EQ(with.words, without.words);
  EXPECT_EQ(with.max_messages_in_round, without.max_messages_in_round);
}

std::string traced_gc_ndjson(bool with_profile, bool link_matrix = false) {
  Rng graph_rng{7};
  const Graph g = random_components(128, 2, 128, graph_rng);
  CliqueEngine engine{{.n = 128}};
  Trace trace;
  LoadProfile profile;
  engine.set_trace(&trace);
  if (with_profile) engine.set_load_profile(&profile);
  Rng rng{8};
  (void)gc_spanning_forest(engine, g, rng);
  return trace_to_ndjson(trace,
                         {.include_link_matrix = link_matrix && with_profile});
}

TEST(LoadProfile_, Schema1OutputUnchangedWithoutProfile) {
  const std::string ndjson = traced_gc_ndjson(false);
  EXPECT_NE(ndjson.find("\"schema\":1"), std::string::npos);
  EXPECT_EQ(ndjson.find("load_summary"), std::string::npos);
  EXPECT_EQ(ndjson.find("\"type\":\"load\""), std::string::npos);
  EXPECT_EQ(ndjson.find("max_link"), std::string::npos);
}

TEST(LoadProfile_, Schema2ExportIsByteDeterministic) {
  const std::string a = traced_gc_ndjson(true);
  const std::string b = traced_gc_ndjson(true);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\":2"), std::string::npos);
  EXPECT_NE(a.find("\"type\":\"load_summary\""), std::string::npos);
  EXPECT_NE(a.find("\"type\":\"load\""), std::string::npos);
  EXPECT_NE(a.find("\"sent_p99\":"), std::string::npos);
  EXPECT_NE(a.find("\"sent_imbalance\":"), std::string::npos);
  EXPECT_NE(a.find("\"util\":"), std::string::npos);
  // The schema-1 scope lines themselves are unchanged: every scope line of
  // the profile-free export appears verbatim in the schema-2 export.
  const std::string plain = traced_gc_ndjson(false);
  std::size_t pos = 0;
  while (pos < plain.size()) {
    const std::size_t eol = plain.find('\n', pos);
    const std::string line = plain.substr(pos, eol - pos);
    if (line.find("\"type\":\"scope\"") != std::string::npos) {
      EXPECT_NE(a.find(line), std::string::npos) << line;
    }
    pos = eol + 1;
  }
}

// --- Link matrix (opt-in O(n^2) tracking) ---

TEST(LoadProfile_, LinkMatrixMatchesMarginals) {
  CliqueEngine engine{{.n = 8}};
  LoadProfile profile;
  profile.set_track_links(true);
  engine.set_load_profile(&profile);
  run_all_to_all(engine, 2);
  ASSERT_TRUE(profile.tracks_links());
  for (VertexId u = 0; u < 8; ++u) {
    std::uint64_t row = 0, col = 0;
    for (VertexId v = 0; v < 8; ++v) {
      EXPECT_EQ(profile.link(u, v), u == v ? 0u : 2u);
      row += profile.link(u, v);
      col += profile.link(v, u);
    }
    EXPECT_EQ(row, profile.sent_messages()[u]);
    EXPECT_EQ(col, profile.recv_messages()[u]);
  }
}

TEST(LoadProfile_, LinkMatrixExportIsOptIn) {
  CliqueEngine engine{{.n = 8}};
  Trace trace;
  LoadProfile profile;
  profile.set_track_links(true);
  engine.set_trace(&trace);
  engine.set_load_profile(&profile);
  {
    TraceScope scope{engine, "matrix-demo"};
    run_all_to_all(engine, 1);
  }
  const std::string without = trace_to_ndjson(trace);
  EXPECT_EQ(without.find("link_matrix"), std::string::npos);
  const std::string with =
      trace_to_ndjson(trace, {.include_link_matrix = true});
  EXPECT_NE(with.find("\"type\":\"link_matrix\""), std::string::npos);
  // Requesting the matrix without tracking is a caller error.
  CliqueEngine bare{{.n = 8}};
  Trace bare_trace;
  LoadProfile bare_profile;
  bare.set_trace(&bare_trace);
  bare.set_load_profile(&bare_profile);
  { TraceScope scope{bare, "no-matrix"}; }
  EXPECT_THROW(trace_to_ndjson(bare_trace, {.include_link_matrix = true}),
               std::logic_error);
}

// --- Golden file for the standalone NDJSON validator ctest ---

TEST(LoadGolden, WritesSchema2GoldenFile) {
  // Dumps a full-feature schema-2 trace (load lines, link matrix, rounds,
  // bound records) next to the test binary; the `ndjson_validate` ctest
  // re-reads it with tools/report/validate_ndjson.py (FIXTURES_SETUP
  // golden_ndjson).
  Rng graph_rng{61};
  const Graph g = random_connected(32, 64, graph_rng);
  CliqueEngine engine{{.n = 32}};
  Trace trace;
  LoadProfile profile;
  profile.set_track_links(true);
  engine.set_trace(&trace);
  engine.set_load_profile(&profile);
  Rng rng{62};
  const auto result = gc_spanning_forest(engine, g, rng);
  EXPECT_TRUE(result.connected);
  write_trace_ndjson_file(
      trace, "golden_trace_schema2.ndjson",
      {.include_rounds = true,
       .include_link_matrix = true,
       .bound_tags = {{"T4", "gc"}, {"T1", "gc/sketch-span"}}});
}

// --- Skew helpers ---

TEST(LoadProfile_, HottestNodesAreDeterministic) {
  CliqueEngine engine{{.n = 16}};
  LoadProfile profile;
  engine.set_load_profile(&profile);
  // Only node 0 sends: it tops the sent+received ordering; everyone else
  // ties at one received message and ranks by id.
  engine.round_arena([](VertexId u, Outbox& out) {
    if (u != 0) return;
    for (VertexId v = 1; v < 16; ++v) out.send(v, msg1(0, u));
  });
  const auto top = profile.hottest_nodes(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 0u);
  EXPECT_EQ(top[1], 1u);
  EXPECT_EQ(top[2], 2u);
}

TEST(LoadProfile_, CheckpointsDeduplicateQuietScopes) {
  CliqueEngine engine{{.n = 8}};
  Trace trace;
  LoadProfile profile;
  engine.set_trace(&trace);
  engine.set_load_profile(&profile);
  {
    TraceScope busy{engine, "busy"};
    run_all_to_all(engine, 1);
    TraceScope quiet{engine, "quiet"};  // no traffic inside
  }
  ASSERT_EQ(trace.events().size(), 2u);
  const TraceEvent& quiet = trace.events()[1];
  // A traffic-free window snapshots once, not twice.
  EXPECT_EQ(quiet.load_begin, quiet.load_end);
  EXPECT_LT(profile.checkpoints().size(), 4u);
}

// --- Lifecycle ---

TEST(LoadProfile_, ClearKeepsBindingDropsData) {
  CliqueEngine engine{{.n = 8}};
  LoadProfile profile;
  engine.set_load_profile(&profile);
  run_all_to_all(engine, 1);
  ASSERT_GT(profile.total_sent_messages(), 0u);
  profile.clear();
  EXPECT_EQ(profile.n(), 8u);
  EXPECT_EQ(profile.total_sent_messages(), 0u);
  EXPECT_EQ(profile.max_link(), 0u);
  EXPECT_TRUE(profile.records().empty());
  run_all_to_all(engine, 1);  // binding survived
  EXPECT_EQ(profile.total_sent_messages(), 8u * 7);
  EXPECT_EQ(profile.records().size(), 1u);
}

TEST(LoadProfile_, RebindRequiresEmptyProfile) {
  LoadProfile profile;
  CliqueEngine small{{.n = 8}};
  small.set_load_profile(&profile);
  run_all_to_all(small, 1);
  CliqueEngine large{{.n = 16}};
  EXPECT_THROW(large.set_load_profile(&profile), std::logic_error);
}

TEST(LoadEnv, ReadsCliqueLoadVariable) {
  ::unsetenv("CLIQUE_LOAD");
  EXPECT_TRUE(load_env_path().empty());
  ::setenv("CLIQUE_LOAD", "out.ndjson", 1);
  EXPECT_EQ(load_env_path(), "out.ndjson");
  ::unsetenv("CLIQUE_LOAD");
}

}  // namespace
}  // namespace ccq
