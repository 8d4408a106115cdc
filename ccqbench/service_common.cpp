#include "service_common.hpp"

#include <algorithm>
#include <unordered_set>

#include "graph/union_find.hpp"

namespace ccqbench {

std::vector<ccq::Edge> random_edge_pool(std::uint32_t n, std::size_t count,
                                        std::uint64_t seed) {
  ccq::Rng rng{seed};
  std::unordered_set<std::uint64_t> seen;
  std::vector<ccq::Edge> out;
  out.reserve(count);
  while (out.size() < count) {
    const auto u = static_cast<ccq::VertexId>(rng.next_below(n));
    const auto v = static_cast<ccq::VertexId>(rng.next_below(n));
    if (u == v) continue;
    const ccq::Edge e{u, v};
    if (seen.insert(std::uint64_t{e.u} * n + e.v).second) out.push_back(e);
  }
  return out;
}

Churn::Churn(const std::vector<ccq::Edge>& pool, std::size_t live,
             std::uint64_t seed)
    : pool_(&pool), rng_(seed) {
  std::vector<std::uint32_t> order(pool.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng_.next_below(i)]);
  live_.assign(order.begin(), order.begin() + static_cast<long>(live));
  idle_.assign(order.begin() + static_cast<long>(live), order.end());
}

void Churn::next(std::size_t half, std::vector<ccq::EdgeUpdate>& batch) {
  batch.clear();
  std::vector<std::uint32_t> deleted, inserted;
  const auto take = [&](std::vector<std::uint32_t>& from,
                        std::vector<std::uint32_t>& to) {
    const std::size_t at = rng_.next_below(from.size());
    to.push_back(from[at]);
    from[at] = from.back();
    from.pop_back();
  };
  for (std::size_t i = 0; i < half; ++i) take(live_, deleted);
  for (std::size_t i = 0; i < half; ++i) take(idle_, inserted);
  for (const std::uint32_t i : deleted)
    batch.push_back({(*pool_)[i].u, (*pool_)[i].v, ccq::EdgeOp::kDelete});
  for (const std::uint32_t i : inserted)
    batch.push_back({(*pool_)[i].u, (*pool_)[i].v, ccq::EdgeOp::kInsert});
  live_.insert(live_.end(), inserted.begin(), inserted.end());
  idle_.insert(idle_.end(), deleted.begin(), deleted.end());
}

std::vector<ccq::VertexId> Churn::labels(std::uint32_t n) const {
  ccq::UnionFind uf{n};
  for (const std::uint32_t i : live_) uf.unite((*pool_)[i].u, (*pool_)[i].v);
  std::vector<ccq::VertexId> min_of(n, n), out(n);
  for (ccq::VertexId v = 0; v < n; ++v) {
    const std::size_t root = uf.find(v);
    if (min_of[root] == n) min_of[root] = v;
    out[v] = min_of[root];
  }
  return out;
}

void Churn::digest_into(Digest& d, std::size_t batches,
                        std::size_t half) const {
  for (const ccq::Edge& e : *pool_) d.add(std::uint64_t{e.u} << 32 | e.v);
  for (const std::uint32_t i : live_) d.add(i);
  Churn copy = *this;
  std::vector<ccq::EdgeUpdate> batch;
  for (std::size_t b = 0; b < batches; ++b) {
    copy.next(half, batch);
    for (const ccq::EdgeUpdate& u : batch)
      d.add(std::uint64_t{u.u} << 33 | std::uint64_t{u.v} << 1 |
            static_cast<std::uint64_t>(u.op));
  }
}

std::uint64_t boot_and_warm(std::unique_ptr<ccq::ConnectivityService>& svc,
                            std::uint32_t n, std::uint32_t threads,
                            const std::vector<ccq::Edge>& pool,
                            const Churn& churn) {
  {
    SpanScope span{"service.boot"};
    ccq::ServiceConfig config;
    config.n = n;
    config.tuning.threads = threads;
    config.tuning.index_mode = ccq::IndexMode::kLocal;
    svc = std::make_unique<ccq::ConnectivityService>(config);
  }
  constexpr std::size_t kWarmBatch = 1024;
  std::uint64_t misses = 0;
  std::vector<ccq::EdgeUpdate> batch;
  const auto flush = [&] {
    SpanScope span{"service.apply_batch"};
    misses += svc->apply_batch(batch).sig_misses;
    batch.clear();
  };
  for (const ccq::Edge& e : pool) {
    batch.push_back({e.u, e.v, ccq::EdgeOp::kInsert});
    if (batch.size() == kWarmBatch) flush();
  }
  if (!batch.empty()) flush();
  for (const std::uint32_t i : churn.idle()) {
    batch.push_back({pool[i].u, pool[i].v, ccq::EdgeOp::kDelete});
    if (batch.size() == kWarmBatch) flush();
  }
  if (!batch.empty()) flush();
  return misses;
}

std::uint32_t count_components(std::span<const ccq::VertexId> labels) {
  std::uint32_t c = 0;
  for (std::size_t v = 0; v < labels.size(); ++v)
    if (labels[v] == v) ++c;
  return c;
}

}  // namespace ccqbench
