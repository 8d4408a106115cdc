// ConnectivityService: batching semantics, determinism, and snapshots.
//
// The load-bearing pins:
//   * SerialParallelByteIdentical — ingesting one stream with 1 thread and
//     with 4 threads yields byte-identical snapshots (the linearity
//     argument of docs/SERVICE.md, "Batching"), so the thread count is a
//     pure tuning knob.
//   * Golden fixture — tests/data/golden_service.snap is a committed
//     CCQSNAP1 file; restoring it must keep working build-to-build, and a
//     bumped schema version must fail with an actionable ServiceError, not
//     a crash. Regenerate the fixture (only after a deliberate format
//     bump) with: CCQ_WRITE_GOLDEN=1 build/tests/service_test
//     --gtest_filter=ServiceGolden.Regenerate
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "graph/union_find.hpp"
#include "service/connectivity_service.hpp"
#include "service/edge_stream.hpp"
#include "service/service_error.hpp"
#include "service/snapshot.hpp"

namespace ccq {
namespace {

#ifndef CCQ_TEST_DATA_DIR
#define CCQ_TEST_DATA_DIR "tests/data"
#endif

ServiceConfig small_config(std::uint32_t n = 16) {
  ServiceConfig config;
  config.n = n;
  config.seed = 7;
  config.copies = 6;
  config.buckets = 1;
  return config;
}

EdgeUpdate ins(VertexId u, VertexId v) { return {u, v, EdgeOp::kInsert}; }
EdgeUpdate del(VertexId u, VertexId v) { return {u, v, EdgeOp::kDelete}; }

/// The golden fixture's state: two 8-vertex paths on n=16 plus one extra
/// chord, built in two batches so generation lands at 2. Ends with a
/// query so the snapshot captures a *fresh* component index — snapshots
/// persist the lazy index as-is, so byte-identity across instances
/// requires matching query history (docs/SERVICE.md, "Snapshot format").
std::unique_ptr<ConnectivityService> build_golden_state() {
  auto service = std::make_unique<ConnectivityService>(small_config());
  std::vector<EdgeUpdate> batch1;
  for (VertexId v = 0; v + 1 < 8; ++v) batch1.push_back(ins(v, v + 1));
  for (VertexId v = 8; v + 1 < 16; ++v) batch1.push_back(ins(v, v + 1));
  service->apply_batch(batch1);
  service->apply_batch(std::vector<EdgeUpdate>{ins(0, 7), del(3, 4),
                                               ins(3, 5)});
  (void)service->num_components();
  return service;
}

TEST(Service, EmptyServiceBasics) {
  ConnectivityService service{small_config()};
  EXPECT_EQ(service.n(), 16u);
  EXPECT_EQ(service.generation(), 0u);
  EXPECT_EQ(service.num_components(), 16u);
  EXPECT_FALSE(service.connected(0, 15));
  EXPECT_TRUE(service.connected(3, 3));
  EXPECT_EQ(service.component_of(5), 5u);
  EXPECT_TRUE(service.monte_carlo_ok());
}

TEST(Service, InsertQueryDelete) {
  ConnectivityService service{small_config()};
  service.apply_batch(std::vector<EdgeUpdate>{ins(0, 1), ins(1, 2),
                                              ins(4, 5)});
  EXPECT_TRUE(service.connected(0, 2));
  EXPECT_FALSE(service.connected(0, 4));
  EXPECT_EQ(service.num_components(), 16u - 3u);
  // Component labels are canonical: smallest member id.
  EXPECT_EQ(service.component_of(2), 0u);
  EXPECT_EQ(service.component_of(5), 4u);

  service.apply(del(1, 2));
  EXPECT_FALSE(service.connected(0, 2));
  EXPECT_TRUE(service.connected(0, 1));
  EXPECT_EQ(service.generation(), 2u);
}

TEST(Service, EndpointOrientationIsCanonicalized) {
  ConnectivityService service{small_config()};
  service.apply(ins(3, 1));
  EXPECT_TRUE(service.connected(1, 3));
  // Deleting with the opposite orientation removes the same edge.
  service.apply(del(1, 3));
  EXPECT_FALSE(service.connected(1, 3));
  EXPECT_EQ(service.stats().live_edges, 0u);
}

TEST(Service, BatchNettingCancelsOpposedPairs) {
  ConnectivityService service{small_config()};
  // insert(0,1) and delete(0,1) inside one batch annihilate: no sketch
  // work, no presence change, but both records count as accepted.
  const BatchStats stats = service.apply_batch(
      std::vector<EdgeUpdate>{ins(0, 1), ins(2, 3), del(0, 1)});
  EXPECT_EQ(stats.inserts, 2u);
  EXPECT_EQ(stats.deletes, 1u);
  EXPECT_EQ(stats.cancelled, 2u);
  EXPECT_EQ(stats.net_edges, 1u);
  EXPECT_EQ(stats.ignored, 0u);
  EXPECT_FALSE(service.connected(0, 1));
  EXPECT_TRUE(service.connected(2, 3));
  EXPECT_EQ(service.stats().live_edges, 1u);
}

TEST(Service, NonStrictIgnoresDuplicatesAndAbsentDeletes) {
  ConnectivityService service{small_config()};
  service.apply(ins(0, 1));
  const BatchStats stats = service.apply_batch(
      std::vector<EdgeUpdate>{ins(0, 1), del(5, 6)});
  EXPECT_EQ(stats.ignored, 2u);
  EXPECT_EQ(stats.net_edges, 0u);
  EXPECT_EQ(service.stats().live_edges, 1u);
  // An ignored-only batch changes nothing: generation stays put.
  EXPECT_EQ(service.generation(), 1u);
}

TEST(Service, StrictModeRejectsBatchAtomically) {
  ServiceConfig config = small_config();
  config.tuning.strict = true;
  ConnectivityService service{config};
  service.apply(ins(0, 1));
  // Refresh the lazy index before the baseline: later connected() calls
  // then hit the fast path and cannot move the serialized index state.
  (void)service.num_components();
  const std::vector<std::uint8_t> before = service.serialize();

  // Duplicate insert: thrown, and the legal ins(2,3) in the same batch
  // must NOT have been applied.
  EXPECT_THROW(service.apply_batch(
                   std::vector<EdgeUpdate>{ins(2, 3), ins(0, 1)}),
               ServiceError);
  EXPECT_EQ(service.serialize(), before);
  EXPECT_FALSE(service.connected(2, 3));

  // Double delete: first one nets fine, second is absent -> rejected.
  EXPECT_THROW(service.apply_batch(
                   std::vector<EdgeUpdate>{del(0, 1), del(0, 1)}),
               ServiceError);
  EXPECT_EQ(service.serialize(), before);
  EXPECT_TRUE(service.connected(0, 1));
}

TEST(Service, InvalidEndpointsAlwaysThrow) {
  ConnectivityService service{small_config()};  // non-strict
  const std::vector<std::uint8_t> before = service.serialize();
  EXPECT_THROW(service.apply(ins(0, 16)), ServiceError);
  EXPECT_THROW(service.apply(ins(3, 3)), ServiceError);
  EXPECT_THROW(service.apply_batch(
                   std::vector<EdgeUpdate>{ins(0, 1), ins(2, 99)}),
               ServiceError);
  EXPECT_EQ(service.serialize(), before);
  EXPECT_THROW(service.connected(0, 16), ServiceError);
  EXPECT_THROW(service.component_of(16), ServiceError);
}

TEST(Service, SerialParallelByteIdentical) {
  const EdgeStream stream = generate_churn_stream(48, 256, 256, 11);
  ServiceConfig config = small_config(48);
  config.tuning.threads = 1;
  ConnectivityService serial{config};
  config.tuning.threads = 4;
  ConnectivityService parallel{config};
  for (std::size_t at = 0; at < stream.updates.size(); at += 100) {
    const std::size_t take = std::min<std::size_t>(
        100, stream.updates.size() - at);
    serial.apply_batch(std::span{stream.updates}.subspan(at, take));
    parallel.apply_batch(std::span{stream.updates}.subspan(at, take));
  }
  EXPECT_EQ(serial.component_labels(), parallel.component_labels());
  EXPECT_EQ(serial.serialize(), parallel.serialize());
}

TEST(Service, EngineAndLocalIndexModesAgree) {
  const EdgeStream stream = generate_churn_stream(32, 128, 128, 3);
  ServiceConfig config = small_config(32);
  config.tuning.index_mode = IndexMode::kEngine;
  ConnectivityService engine_mode{config};
  config.tuning.index_mode = IndexMode::kLocal;
  ConnectivityService local_mode{config};
  engine_mode.apply_batch(stream.updates);
  local_mode.apply_batch(stream.updates);
  EXPECT_EQ(engine_mode.component_labels(), local_mode.component_labels());
  // Local mode never drives the engine: the only rounds are the bootstrap
  // shared-randomness protocol's.
  EXPECT_GT(engine_mode.metrics().rounds, local_mode.metrics().rounds);
}

TEST(Service, ChurnStreamIsStrictLegal) {
  // The generator promises duplicate-free inserts and live deletes, so a
  // strict service must ingest its streams without a single rejection.
  const EdgeStream stream = generate_churn_stream(24, 96, 96, 21);
  ServiceConfig config = small_config(24);
  config.tuning.strict = true;
  ConnectivityService service{config};
  for (std::size_t at = 0; at < stream.updates.size(); at += 64) {
    const std::size_t take = std::min<std::size_t>(
        64, stream.updates.size() - at);
    EXPECT_NO_THROW(service.apply_batch(
        std::span{stream.updates}.subspan(at, take)));
  }
  EXPECT_EQ(service.stats().ignored, 0u);
  EXPECT_EQ(service.stats().live_edges, 96u);
}

TEST(Service, QueriesAreFreeOnFreshIndex) {
  ConnectivityService service{small_config()};
  service.apply(ins(0, 1));
  (void)service.num_components();
  const std::uint64_t recomputes = service.stats().recomputes;
  for (int i = 0; i < 100; ++i) (void)service.connected(0, 1);
  EXPECT_EQ(service.stats().recomputes, recomputes);
  EXPECT_GE(service.stats().queries, 100u);
}

/// Exact oracle: canonical labels (smallest member id) of the graph whose
/// edge set is `live`, by sequential union-find.
std::vector<VertexId> oracle_labels(std::uint32_t n,
                                    const std::set<std::pair<VertexId, VertexId>>&
                                        live) {
  UnionFind uf{n};
  for (const auto& [u, v] : live) uf.unite(u, v);
  std::vector<VertexId> min_of(n, n);
  std::vector<VertexId> labels(n);
  for (VertexId v = 0; v < n; ++v) {
    const std::size_t root = uf.find(v);
    if (min_of[root] == n) min_of[root] = v;
    labels[v] = min_of[root];
  }
  return labels;
}

/// Replays a seeded churn stream batch by batch and, after every batch,
/// checks every vertex's label against the oracle over the replayed edge
/// set. With `restore_at` > 0 the service is snapshotted and restored
/// before that batch, and the restored instance carries on.
void expect_labels_match_oracle(const ServiceConfig& config,
                                std::size_t initial, std::size_t churn,
                                std::uint64_t seed, std::size_t batch,
                                std::size_t restore_at = 0) {
  const EdgeStream stream =
      generate_churn_stream(config.n, initial, churn, seed);
  auto service = std::make_unique<ConnectivityService>(config);
  std::set<std::pair<VertexId, VertexId>> live;
  std::size_t batches = 0;
  for (std::size_t at = 0; at < stream.updates.size(); at += batch) {
    if (restore_at > 0 && batches == restore_at)
      service = ConnectivityService::restore(service->serialize(),
                                             config.tuning);
    const std::size_t take =
        std::min<std::size_t>(batch, stream.updates.size() - at);
    const auto updates = std::span{stream.updates}.subspan(at, take);
    service->apply_batch(updates);
    for (const EdgeUpdate& up : updates) {
      const auto key = std::minmax(up.u, up.v);
      if (up.op == EdgeOp::kInsert)
        live.insert(key);
      else
        live.erase(key);
    }
    ++batches;
    ASSERT_EQ(service->component_labels(), oracle_labels(config.n, live))
        << "after batch " << batches;
    ASSERT_TRUE(service->monte_carlo_ok()) << "after batch " << batches;
  }
  EXPECT_EQ(service->stats().live_edges, live.size());
}

TEST(ServiceOracle, LocalIndexMatchesUnionFindUnderChurn) {
  for (const std::uint32_t n : {64u, 512u}) {
    for (const std::uint32_t buckets : {1u, 3u}) {
      for (const std::uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " buckets="
                                        << buckets << " threads=" << threads);
        ServiceConfig config;
        config.n = n;
        config.seed = 17 + n + buckets;
        config.buckets = buckets;
        config.tuning.threads = threads;
        config.tuning.index_mode = IndexMode::kLocal;
        expect_labels_match_oracle(config, n + n / 4, n, 50 + n, n / 2);
      }
    }
  }
}

TEST(ServiceOracle, EngineIndexMatchesUnionFindUnderChurn) {
  ServiceConfig config;
  config.n = 64;
  config.seed = 23;
  config.tuning.index_mode = IndexMode::kEngine;
  expect_labels_match_oracle(config, 80, 64, 61, 32);
}

TEST(ServiceOracle, RestoreMidStreamKeepsMatching) {
  for (const IndexMode mode : {IndexMode::kLocal, IndexMode::kEngine}) {
    SCOPED_TRACE(testing::Message() << "mode=" << static_cast<int>(mode));
    ServiceConfig config;
    config.n = 64;
    config.seed = 29;
    config.tuning.index_mode = mode;
    expect_labels_match_oracle(config, 80, 64, 67, 32, 3);
  }
}

TEST(Snapshot, RoundTripIsByteIdentical) {
  const std::unique_ptr<ConnectivityService> service = build_golden_state();
  const std::vector<std::uint8_t> bytes = service->serialize();
  const std::unique_ptr<ConnectivityService> restored =
      ConnectivityService::restore(bytes);
  EXPECT_EQ(restored->serialize(), bytes);
  EXPECT_EQ(restored->component_labels(), service->component_labels());
  EXPECT_EQ(restored->generation(), service->generation());
  EXPECT_EQ(restored->stats().live_edges, service->stats().live_edges);
}

TEST(Snapshot, RestoredServiceKeepsIngesting) {
  const std::unique_ptr<ConnectivityService> service = build_golden_state();
  const std::unique_ptr<ConnectivityService> restored =
      ConnectivityService::restore(service->serialize());
  // The restored instance must accept further deltas against the restored
  // sketches: delete a restored edge and watch the component split.
  EXPECT_TRUE(restored->connected(8, 15));
  restored->apply(del(11, 12));
  EXPECT_FALSE(restored->connected(8, 15));
  service->apply(del(11, 12));
  // Snapshots persist the lazy index, so byte-comparison needs matching
  // query history: refresh the twin's index too.
  EXPECT_FALSE(service->connected(8, 15));
  EXPECT_EQ(restored->serialize(), service->serialize());
}

TEST(Snapshot, VersionBumpFailsActionably) {
  std::vector<std::uint8_t> bytes = build_golden_state()->serialize();
  // Layout: magic u64 at [0,8), schema version u32 at [8,12) (docs/
  // SERVICE.md, "Snapshot format"). Bump it to 2.
  bytes[8] = 2;
  try {
    (void)ConnectivityService::restore(bytes);
    FAIL() << "restore accepted a bumped schema version";
  } catch (const ServiceError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("schema version 2"), std::string::npos) << what;
    EXPECT_NE(what.find("re-snapshot"), std::string::npos) << what;
  }
}

TEST(Snapshot, BadMagicFails) {
  std::vector<std::uint8_t> bytes = build_golden_state()->serialize();
  bytes[0] ^= 0xFF;
  EXPECT_THROW((void)ConnectivityService::restore(bytes), ServiceError);
}

TEST(Snapshot, CorruptionFailsChecksum) {
  std::vector<std::uint8_t> bytes = build_golden_state()->serialize();
  // Flip one bit deep in the sketch lanes: no field validator sees it, so
  // only the trailing checksum can catch it.
  bytes[bytes.size() / 2] ^= 0x01;
  try {
    (void)ConnectivityService::restore(bytes);
    FAIL() << "restore accepted a corrupted snapshot";
  } catch (const ServiceError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

TEST(Snapshot, TruncationFailsLoudly) {
  const std::vector<std::uint8_t> bytes = build_golden_state()->serialize();
  for (const std::size_t keep : {std::size_t{5}, std::size_t{40},
                                 bytes.size() - 3}) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() +
                                            static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW((void)ConnectivityService::restore(cut), ServiceError);
  }
}

TEST(Snapshot, TuningIsNotPartOfTheState) {
  const std::vector<std::uint8_t> bytes = build_golden_state()->serialize();
  ServiceTuning tuning;
  tuning.threads = 3;
  tuning.index_mode = IndexMode::kLocal;
  tuning.strict = true;
  const std::unique_ptr<ConnectivityService> restored =
      ConnectivityService::restore(bytes, tuning);
  EXPECT_EQ(restored->serialize(), bytes);
}

TEST(ServiceGolden, CommittedFixtureRestores) {
  const std::string path =
      std::string(CCQ_TEST_DATA_DIR) + "/golden_service.snap";
  const std::unique_ptr<ConnectivityService> restored =
      ConnectivityService::restore_file(path);

  EXPECT_EQ(restored->n(), 16u);
  EXPECT_EQ(restored->generation(), 2u);
  // 14 path edges, plus the 0-7 chord and the 3-5 bridge, minus the 3-4
  // cut: 15 live edges.
  EXPECT_EQ(restored->stats().live_edges, 15u);
  // Two paths, a 0-7 chord closing the first into a cycle, 3-4 cut and
  // re-bridged via 3-5: still exactly two components. The fixture stores
  // a fresh index, so these queries never move the serialized state.
  EXPECT_EQ(restored->num_components(), 2u);
  EXPECT_TRUE(restored->connected(0, 7));
  EXPECT_TRUE(restored->connected(3, 6));
  EXPECT_TRUE(restored->connected(8, 15));
  EXPECT_FALSE(restored->connected(0, 8));

  // Byte-for-byte: this build serializes the fixture state exactly as the
  // build that wrote it did, and rebuilding the state from scratch through
  // the ingest path lands on the same bytes.
  std::ifstream file{path, std::ios::binary};
  ASSERT_TRUE(file.is_open());
  const std::string raw{std::istreambuf_iterator<char>(file),
                        std::istreambuf_iterator<char>()};
  std::vector<std::uint8_t> on_disk(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i)
    on_disk[i] = static_cast<std::uint8_t>(raw[i]);
  EXPECT_EQ(restored->serialize(), on_disk);
  EXPECT_EQ(build_golden_state()->serialize(), on_disk);
}

// Golden pin for the lazy index: a digest of component_labels() after
// every batch of a seeded churn stream, plus the total Borůvka round count.
// Both index modes run the same sketch Borůvka on the same sketches, so they
// share one pin per detector layout; any change to the recompute path must
// keep these constants.
TEST(ServiceGolden, ChurnLabelDigests) {
  const EdgeStream stream = generate_churn_stream(128, 192, 320, 41);
  struct Pin {
    std::uint32_t buckets;
    std::uint64_t digest;
    std::uint64_t boruvka_rounds;
  };
  const Pin pins[] = {{1, 4640519639912264787ULL, 54},
                      {3, 4640519639912264787ULL, 35}};
  for (const Pin& pin : pins) {
    for (const IndexMode mode : {IndexMode::kEngine, IndexMode::kLocal}) {
      SCOPED_TRACE(testing::Message()
                   << "buckets=" << pin.buckets << " mode="
                   << static_cast<int>(mode));
      ServiceConfig config;
      config.n = 128;
      config.seed = 7;
      config.buckets = pin.buckets;
      config.tuning.index_mode = mode;
      ConnectivityService service{config};
      std::uint64_t digest = 0xcbf29ce484222325ULL;
      for (std::size_t at = 0; at < stream.updates.size(); at += 128) {
        const std::size_t take =
            std::min<std::size_t>(128, stream.updates.size() - at);
        service.apply_batch(std::span{stream.updates}.subspan(at, take));
        for (const VertexId label : service.component_labels()) {
          digest ^= label;
          digest *= 0x100000001b3ULL;
        }
      }
      EXPECT_EQ(digest, pin.digest);
      EXPECT_EQ(service.stats().boruvka_rounds, pin.boruvka_rounds);
      EXPECT_TRUE(service.monte_carlo_ok());
    }
  }
}

// Not a test of behavior: rewrites the committed fixture. Skipped unless
// CCQ_WRITE_GOLDEN=1, so a plain ctest run never touches the file.
TEST(ServiceGolden, Regenerate) {
  const char* flag = std::getenv("CCQ_WRITE_GOLDEN");
  if (!flag || std::string(flag) != "1")
    GTEST_SKIP() << "set CCQ_WRITE_GOLDEN=1 to rewrite the fixture";
  const std::string path =
      std::string(CCQ_TEST_DATA_DIR) + "/golden_service.snap";
  build_golden_state()->save_file(path);
}

TEST(EdgeStreamFormat, EncodeDecodeRoundTrip) {
  const EdgeStream stream = generate_churn_stream(20, 40, 40, 13);
  const std::vector<std::uint8_t> bytes = encode_edge_stream(stream);
  const EdgeStream back = decode_edge_stream(bytes);
  EXPECT_EQ(back.n, stream.n);
  EXPECT_EQ(back.updates, stream.updates);
}

TEST(EdgeStreamFormat, CorruptionAndTruncationFail) {
  const EdgeStream stream = generate_churn_stream(20, 40, 40, 13);
  std::vector<std::uint8_t> bytes = encode_edge_stream(stream);
  std::vector<std::uint8_t> flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x10;
  EXPECT_THROW((void)decode_edge_stream(flipped), ServiceError);
  const std::vector<std::uint8_t> cut(bytes.begin(), bytes.end() - 4);
  EXPECT_THROW((void)decode_edge_stream(cut), ServiceError);
  bytes[0] ^= 0xFF;
  EXPECT_THROW((void)decode_edge_stream(bytes), ServiceError);
}

TEST(EdgeStreamFormat, GeneratorIsDeterministic) {
  const EdgeStream a = generate_churn_stream(20, 40, 40, 13);
  const EdgeStream b = generate_churn_stream(20, 40, 40, 13);
  EXPECT_EQ(encode_edge_stream(a), encode_edge_stream(b));
}

}  // namespace
}  // namespace ccq
