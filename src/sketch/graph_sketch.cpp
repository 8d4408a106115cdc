#include "sketch/graph_sketch.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <unordered_map>

#include "graph/union_find.hpp"
#include "sketch/sketch_kernels.hpp"
#include "util/error.hpp"

namespace ccq {

std::uint32_t default_sketch_copies(std::uint32_t n) {
  const auto log_n = static_cast<std::uint32_t>(
      std::bit_width(std::max<std::uint32_t>(n, 2) - 1));
  // log2(n) Borůvka rounds, doubled for sampler-failure retries, plus slack.
  return 2 * log_n + 8;
}

SketchSpace::SketchSpace(std::uint32_t n, std::uint32_t copies,
                         std::span<const std::uint64_t> seed_words,
                         std::uint32_t buckets)
    : n_(n),
      params_(SketchParams::cormode_firmani(
          static_cast<std::uint64_t>(n) * std::max<std::uint32_t>(n, 2),
          buckets)) {
  check(copies > 0, "SketchSpace: need at least one copy");
  const std::size_t per_family = sketch_seed_words(params_);
  if (seed_words.size() < per_family * copies)
    throw InvalidArgument("SketchSpace: seed too short");
  families_.reserve(copies);
  for (std::uint32_t j = 0; j < copies; ++j)
    families_.emplace_back(params_,
                           seed_words.subspan(j * per_family, per_family));
  const std::size_t k = families_[0].level_hash().independence();
  level_coeffs_.resize(k * copies);
  for (std::uint32_t j = 0; j < copies; ++j)
    for (std::size_t c = 0; c < k; ++c)
      level_coeffs_[c * copies + j] =
          families_[j].level_hash().coefficients()[c];
}

std::size_t SketchSpace::seed_words_needed(std::uint32_t n,
                                           std::uint32_t copies,
                                           std::uint32_t buckets) {
  const auto params = SketchParams::cormode_firmani(
      static_cast<std::uint64_t>(n) * std::max<std::uint32_t>(n, 2), buckets);
  return sketch_seed_words(params) * copies;
}

const SketchFamily& SketchSpace::family(std::uint32_t j) const {
  check(j < families_.size(), "SketchSpace::family: index out of range");
  return families_[j];
}

std::vector<L0Sketch> SketchSpace::sketch_vertex(
    VertexId v, std::span<const Edge> incident) const {
  std::vector<L0Sketch> out = zero();
  for (const Edge& e : incident) {
    const int sign = incidence_sign(v, e);
    check(sign != 0, "sketch_vertex: edge not incident on v");
    const std::uint64_t idx = edge_index(e.u, e.v, n_);
    for (auto& sketch : out) sketch.update(idx, sign);
  }
  return out;
}

void SketchSpace::append_signature(std::uint64_t i,
                                   std::vector<SignatureEntry>& out) const {
  check(i < params_.universe, "SketchSpace::append_signature: out of universe");
  // Up to kChains independent chains at a time: first the level hashes of
  // kChains copies (Horner, as KwiseHash evaluates them), then the
  // fingerprints of the last kChains entries (one multiply per set bit of
  // i + 1, the products SketchFamily::fingerprint forms).
  constexpr std::uint32_t kChains = 8;
  const std::uint32_t t = copies();
  const std::size_t k = level_coeffs_.size() / t;
  const std::uint64_t x = field::canon(i);
  std::array<const std::uint64_t*, kChains> powers;
  std::size_t pending = 0;
  const auto finish_fingerprints = [&] {
    std::array<std::uint64_t, kChains> fp;
    fp.fill(1);
    for (std::uint64_t e = i + 1; e != 0; e &= e - 1) {
      const int b = std::countr_zero(e);
      for (std::size_t q = 0; q < pending; ++q)
        fp[q] = field::mul(fp[q], powers[q][b]);
    }
    SignatureEntry* entry = out.data() + out.size() - pending;
    for (std::size_t q = 0; q < pending; ++q) entry[q].fp = fp[q];
    pending = 0;
  };
  for (std::uint32_t j0 = 0; j0 < t; j0 += kChains) {
    const std::uint32_t chains = std::min(kChains, t - j0);
    std::array<std::uint64_t, kChains> h{};
    for (std::size_t c = k; c-- > 0;) {
      const std::uint64_t* coeff = level_coeffs_.data() + c * t + j0;
      for (std::uint32_t q = 0; q < chains; ++q)
        h[q] = field::add(field::mul(h[q], x), coeff[q]);
    }
    for (std::uint32_t q = 0; q < chains; ++q) {
      const SketchFamily& family = families_[j0 + q];
      const std::uint32_t top = family.level_of_hash(h[q]);
      const std::size_t copy_base = static_cast<std::size_t>(j0 + q) * cells();
      for (std::uint32_t level = 0; level <= top; ++level) {
        const std::size_t cell = copy_base +
                                 static_cast<std::size_t>(level) *
                                     params_.buckets +
                                 family.bucket_of(level, i);
        out.push_back({static_cast<std::uint32_t>(cell), 0});
        powers[pending++] = family.fingerprint_powers(level);
        if (pending == kChains) finish_fingerprints();
      }
    }
  }
  if (pending > 0) finish_fingerprints();
}

std::vector<L0Sketch> SketchSpace::zero() const {
  std::vector<L0Sketch> out;
  out.reserve(families_.size());
  for (const auto& family : families_) out.emplace_back(family);
  return out;
}

void SketchArena::append(std::span<const L0Sketch> sketches) {
  for (const L0Sketch& sketch : sketches) {
    const SketchLanes lanes = sketch.lanes();
    phi.insert(phi.end(), lanes.phi.begin(), lanes.phi.end());
    iota.insert(iota.end(), lanes.iota.begin(), lanes.iota.end());
    tau.insert(tau.end(), lanes.tau.begin(), lanes.tau.end());
  }
}

SketchForestResult sketch_spanning_forest(
    const SketchSpace& space, std::span<const VertexId> vertices,
    std::span<const VertexId> component_of, SketchLanes lanes) {
  const std::uint32_t t = space.copies();
  const std::size_t cells =
      static_cast<std::size_t>(space.params().levels) * space.params().buckets;
  const std::size_t words = vertices.size() * t * cells;
  check(lanes.phi.size() == words && lanes.iota.size() == words &&
            lanes.tau.size() == words,
        "sketch_spanning_forest: lanes do not hold t sketches per vertex");
  SketchForestResult result;
  if (vertices.empty()) return result;

  // Dense position index for the participating supervertices.
  std::unordered_map<VertexId, std::size_t> position;
  position.reserve(vertices.size());
  for (std::size_t i = 0; i < vertices.size(); ++i)
    check(position.emplace(vertices[i], i).second,
          "sketch_spanning_forest: duplicate supervertex");
  auto supervertex_position = [&](VertexId original) -> std::size_t {
    check(original < component_of.size(),
          "sketch_spanning_forest: vertex outside component map");
    const auto it = position.find(component_of[original]);
    check(it != position.end(),
          "sketch_spanning_forest: sampled edge touches unknown supervertex");
    return it->second;
  };

  UnionFind uf{vertices.size()};
  // Per-root state: the member list (singly linked, headed by the root
  // itself, so a singleton is a root with no successor) and the next fresh
  // family index. A root's sketch of copy j is the sum of its members'
  // copy j; it is formed only for the one copy a round samples.
  constexpr std::size_t kEnd = ~std::size_t{0};
  std::vector<std::size_t> next_member(vertices.size(), kEnd);
  std::vector<std::size_t> last_member(vertices.size());
  for (std::size_t i = 0; i < vertices.size(); ++i) last_member[i] = i;
  std::vector<std::uint32_t> cursor(vertices.size(), 0);
  std::vector<bool> done(vertices.size(), false);  // no outgoing edges
  std::vector<std::int64_t> sum_phi(cells);
  std::vector<std::int64_t> sum_iota(cells);
  std::vector<std::uint64_t> sum_tau(cells);
  auto root_sketch = [&](std::size_t root, std::uint32_t j) -> SketchLanes {
    const SketchLanes head = lanes.sketch(root * t + j, cells);
    if (next_member[root] == kEnd) return head;  // singleton: read in place
    std::copy(head.phi.begin(), head.phi.end(), sum_phi.begin());
    std::copy(head.iota.begin(), head.iota.end(), sum_iota.begin());
    std::copy(head.tau.begin(), head.tau.end(), sum_tau.begin());
    for (std::size_t m = next_member[root]; m != kEnd; m = next_member[m]) {
      const SketchLanes member = lanes.sketch(m * t + j, cells);
      kernels::sketch_accumulate(sum_phi.data(), sum_iota.data(),
                                 sum_tau.data(), member.phi.data(),
                                 member.iota.data(), member.tau.data(),
                                 cells);
    }
    return {sum_phi, sum_iota, sum_tau};
  };

  bool progress = true;
  while (progress) {
    progress = false;
    ++result.boruvka_rounds;
    // Each live root samples one outgoing edge with a fresh sketch.
    std::vector<Edge> candidates;
    std::vector<std::size_t> roots;
    for (std::size_t i = 0; i < vertices.size(); ++i)
      if (uf.find(i) == i && !done[i]) roots.push_back(i);
    bool any_live = false;
    for (std::size_t root : roots) {
      if (cursor[root] >= t) {
        result.ran_out_of_sketches = true;
        continue;
      }
      const std::uint32_t j = cursor[root]++;
      const SketchLanes sketch = root_sketch(root, j);
      if (lanes_appear_zero(sketch)) {
        done[root] = true;  // isolated supervertex / finished component
        continue;
      }
      any_live = true;
      const auto sample = sample_lanes(space.family(j), sketch);
      if (!sample) continue;  // sampler failure; retry next round
      candidates.push_back(edge_from_index(sample->index, space.n()));
    }
    for (const Edge& e : candidates) {
      const std::size_t ru = uf.find(supervertex_position(e.u));
      const std::size_t rv = uf.find(supervertex_position(e.v));
      if (ru == rv) continue;  // stale (already merged this round)
      // The surviving root adopts the other's members.
      uf.unite(ru, rv);
      const std::size_t keep = uf.find(ru);
      const std::size_t drop = keep == ru ? rv : ru;
      next_member[last_member[keep]] = drop;
      last_member[keep] = last_member[drop];
      cursor[keep] = std::max(cursor[keep], cursor[drop]);
      done[keep] = false;
      result.forest.push_back(e);
      progress = true;
    }
    if (!progress && any_live) {
      // Sampler failures only; keep going while fresh sketches remain.
      bool fresh_left = false;
      for (std::size_t root : roots)
        if (uf.find(root) == root && !done[root] &&
            cursor[uf.find(root)] < t)
          fresh_left = true;
      progress = fresh_left;
    }
  }
  return result;
}

}  // namespace ccq
