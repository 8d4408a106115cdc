// Inputs and the exact oracle shared by the two service workloads.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "harness.hpp"
#include "service/connectivity_service.hpp"
#include "util/random.hpp"

namespace ccqbench {

/// Set-up repetitions of the service workloads; setup_s is their median. A
/// set-up takes 0.08-0.15 s, so 21 of them span 2-3 s of the machine's
/// state rather than one passing moment of it.
inline constexpr int kSetupReps = 21;

/// `count` distinct random edges on n vertices, canonical (u < v), seeded.
std::vector<ccq::Edge> random_edge_pool(std::uint32_t n, std::size_t count,
                                        std::uint64_t seed);

/// Seeded churn over a fixed edge pool. Each batch deletes `half` random
/// live edges and inserts `half` random idle ones; the two sets are
/// disjoint, so nothing cancels inside a batch. The generator's live set is
/// the benchmark's own replayed edge set, the input of the exact oracle.
class Churn {
 public:
  Churn(const std::vector<ccq::Edge>& pool, std::size_t live,
        std::uint64_t seed);

  void next(std::size_t half, std::vector<ccq::EdgeUpdate>& batch);

  const std::vector<std::uint32_t>& live() const { return live_; }
  const std::vector<std::uint32_t>& idle() const { return idle_; }

  /// Oracle: union-find over the live edges; each vertex's label is the
  /// smallest id in its component (the service's canonical labels).
  std::vector<ccq::VertexId> labels(std::uint32_t n) const;

  /// Digest the pool, the initial live set and the next `batches` batches
  /// (generated on a copy; this generator does not advance).
  void digest_into(Digest& d, std::size_t batches, std::size_t half) const;

 private:
  const std::vector<ccq::Edge>* pool_;
  std::vector<std::uint32_t> live_;  // pool indices
  std::vector<std::uint32_t> idle_;
  ccq::Rng rng_;
};

/// Boot a local-index service with `threads` ingest lanes and make every
/// pool signature resident: insert the whole pool, then delete the edges
/// the churn generator holds idle. Returns the signature misses paid.
std::uint64_t boot_and_warm(std::unique_ptr<ccq::ConnectivityService>& svc,
                            std::uint32_t n, std::uint32_t threads,
                            const std::vector<ccq::Edge>& pool,
                            const Churn& churn);

/// Number of distinct labels in a label vector.
std::uint32_t count_components(std::span<const ccq::VertexId> labels);

}  // namespace ccqbench
