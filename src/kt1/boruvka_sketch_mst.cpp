#include "kt1/boruvka_sketch_mst.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <optional>

#include "clique/trace.hpp"
#include "comm/primitives.hpp"
#include "comm/routing.hpp"
#include "graph/union_find.hpp"
#include "sketch/graph_sketch.hpp"
#include "util/error.hpp"

namespace ccq {

namespace {

constexpr std::uint32_t kTagMwoe = 0x9101;

/// Messages needed to push `words` over one link (kMaxWords per message).
std::uint64_t messages_for(std::uint64_t words) {
  return (words + kMaxWords - 1) / kMaxWords;
}

}  // namespace

BoruvkaSketchResult boruvka_sketch_mst(CliqueEngine& engine,
                                       const WeightedGraph& g, Rng& rng) {
  const std::uint32_t n = g.num_vertices();
  check(engine.n() == n, "boruvka_sketch_mst: engine/input size mismatch");
  check(engine.knowledge() == Knowledge::KT1,
        "boruvka_sketch_mst: requires the KT1 model");
  BoruvkaSketchResult result;
  if (n <= 1) return result;
  TraceScope scope{engine, "kt1-mst"};
  const VertexId coordinator = 0;

  const auto params = SketchParams::for_universe(
      static_cast<std::uint64_t>(n) * n);
  const std::size_t seed_words = sketch_seed_words(params);
  const std::uint64_t sketch_words = L0Sketch::word_size(params);
  const auto log_n =
      static_cast<std::uint32_t>(std::bit_width(std::max(n, 2u) - 1));
  // Threshold-search length: the surviving outgoing-edge count halves in
  // expectation per sampled threshold, so ~log2(n^2) iterations reach the
  // MWOE; the extra budget absorbs sampler failures and sampling variance.
  const std::uint32_t iterations = 3 * log_n + 16;

  std::vector<VertexId> label(n);
  for (VertexId v = 0; v < n; ++v) label[v] = v;
  UnionFind components{n};  // v*'s merge bookkeeping

  auto rounds_for_link_words = [&](std::uint64_t words) {
    const std::uint64_t msgs = messages_for(words);
    return (msgs + engine.messages_per_link() - 1) /
           engine.messages_per_link();
  };

  RoundBuffer mwoe_inbox;  // reused by every phase's MWOE routing
  for (std::uint32_t phase = 0; phase < 2 * log_n + 2; ++phase) {
    // Component roster for this phase.
    std::map<VertexId, std::vector<VertexId>> members;
    for (VertexId v = 0; v < n; ++v) members[label[v]].push_back(v);
    if (members.size() <= 1) break;
    ++result.phases;
    TraceScope phase_scope{engine, "phase", result.phases};

    // Per-component threshold (infinite until an outgoing edge is sampled)
    // and best (lightest) sampled outgoing edge.
    std::map<VertexId, Weight> threshold;
    std::map<VertexId, std::optional<WeightedEdge>> best;
    std::map<VertexId, bool> finished;
    for (const auto& [leader, list] : members) {
      threshold[leader] = kInfiniteWeight;
      best[leader] = std::nullopt;
      finished[leader] = false;
    }

    // --- Once per phase: each leader draws the O(log^2 n) shared random
    // bits and distributes them to its members (the paper's per-phase seed
    // send: O(log n) rounds, O(n log n) messages). Each iteration's fresh
    // family is then derived locally and identically at every member by
    // mixing the phase seed with the iteration number.
    std::map<VertexId, std::vector<std::uint64_t>> phase_seed;
    {
      TraceScope step{engine, "seed-send"};
      std::uint64_t seed_messages = 0;
      for (auto& [leader, list] : members) {
        phase_seed.emplace(leader, rng.words(seed_words));
        seed_messages += static_cast<std::uint64_t>(list.size() - 1) *
                         messages_for(seed_words);
        if (engine.has_observer())
          for (VertexId m : list)
            if (m != leader) engine.observe(leader, m);
        if (engine.wants_load())
          // Seed rounds are charged with zero payload words (the seed words
          // are accounted by the caller's word budget, not per message), so
          // the attribution carries zero words too.
          for (VertexId m : list)
            if (m != leader)
              engine.attribute_load(leader, m, messages_for(seed_words), 0);
      }
      const std::uint64_t seed_rounds = rounds_for_link_words(seed_words);
      for (std::uint64_t r = 0; r < seed_rounds; ++r)
        engine.charge_verified_round(
            seed_messages / seed_rounds + (r < seed_messages % seed_rounds),
            0);
    }
    auto derive_family = [&](VertexId leader, std::uint32_t iter) {
      std::vector<std::uint64_t> words = phase_seed.at(leader);
      const std::uint64_t salt =
          0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(iter) + 1);
      for (auto& w : words) w = mix64(w ^ salt);
      return SketchFamily{params, words};
    };

    // Scope held in an optional so it can close before the MWOE section
    // without re-bracing the whole threshold-search loop.
    std::optional<TraceScope> iter_scope;
    iter_scope.emplace(engine, "sketch-iterations");
    for (std::uint32_t iter = 0; iter < iterations; ++iter) {
      bool any_active = false;
      for (const auto& [leader, is_done] : finished)
        if (!is_done) any_active = true;
      if (!any_active) break;
      std::uint64_t sketch_messages = 0;
      std::uint64_t control_messages = 0;
      std::map<VertexId, SketchFamily> family_of;
      for (auto& [leader, list] : members) {
        if (finished.at(leader)) continue;
        family_of.emplace(leader, derive_family(leader, iter));
      }
      // --- Members sketch their surviving neighbourhood and stream it to
      // the leader; the leader sums (cancellation!) and samples.
      std::map<VertexId, std::optional<L0Sketch>> summed;
      for (const auto& [leader, list] : members) {
        if (finished.at(leader)) continue;
        const SketchFamily& family = family_of.at(leader);
        const Weight cap = threshold.at(leader);
        L0Sketch sum{family};
        for (VertexId v : list) {
          L0Sketch sv{family};
          for (const auto& nb : g.neighbors(v)) {
            if (nb.w > cap && cap != kInfiniteWeight) continue;  // deleted
            const Edge e{v, nb.to};
            sv.update(edge_index(e.u, e.v, n), incidence_sign(v, e));
          }
          sum += sv;
          if (v != leader) {
            sketch_messages += messages_for(sketch_words);
            if (engine.has_observer()) engine.observe(v, leader);
            engine.attribute_load(v, leader, messages_for(sketch_words), 0);
          }
        }
        summed[leader] = sum;
      }
      // Charge the iteration's communication: sketch streaming, then the
      // weight query/reply and threshold announcement.
      const std::uint64_t sketch_rounds = rounds_for_link_words(sketch_words);
      for (std::uint64_t r = 0; r < sketch_rounds; ++r)
        engine.charge_verified_round(
            sketch_messages / sketch_rounds +
                (r < sketch_messages % sketch_rounds),
            0);

      // --- Leaders sample, query the edge weight from the incident member,
      // and push the new threshold to their members.
      for (auto& [leader, list] : members) {
        if (finished.at(leader)) continue;
        const L0Sketch& sum = *summed.at(leader);
        if (sum.appears_zero()) {
          if (threshold.at(leader) == kInfiniteWeight)
            finished[leader] = true;  // no outgoing edge at all
          continue;
        }
        const auto sample = sum.sample();
        if (!sample) continue;  // sampler failure; next iteration retries
        const Edge e = edge_from_index(sample->index, n);
        const auto w = g.edge_weight(e.u, e.v);
        // A fingerprint collision (~2^-61 per sample) can decode to an
        // arbitrary index; treat it as a failed Monte Carlo sample and let
        // the next iteration retry rather than aborting the run.
        if (!w.has_value()) continue;
        const VertexId inside = label[e.u] == leader ? e.u : e.v;
        if (label[inside] != leader) continue;
        // Weight query to the in-component endpoint + reply (2 messages
        // unless the leader is itself an endpoint).
        if (inside != leader) {
          control_messages += 2;
          engine.attribute_load(leader, inside, 1, 1);
          engine.attribute_load(inside, leader, 1, 1);
        }
        const WeightedEdge candidate{e.u, e.v, *w};
        if (!best.at(leader) || weight_less(candidate, *best.at(leader)))
          best[leader] = candidate;
        threshold[leader] = best.at(leader)->w;
        control_messages += list.size() - 1;  // threshold announcement
        if (engine.has_observer())
          for (VertexId m : list)
            if (m != leader) engine.observe(leader, m);
        if (engine.wants_load())
          for (VertexId m : list)
            if (m != leader) engine.attribute_load(leader, m, 1, 1);
      }
      engine.charge_verified_round(control_messages, control_messages);
      engine.charge_verified_round(0, 0);  // reply leg of the weight query
    }

    iter_scope.reset();

    // --- MWOEs to v*; v* merges, reassigns labels, tells every node.
    TraceScope merge_scope{engine, "mwoe-merge"};
    std::vector<Packet> mwoe;
    for (const auto& [leader, candidate] : best)
      if (candidate)
        mwoe.push_back({leader, coordinator,
                        msg3(kTagMwoe, candidate->u, candidate->v,
                             candidate->w)});
    if (mwoe.empty()) break;  // all components finished (disconnected input)
    route_packets_into(engine, mwoe, mwoe_inbox);
    bool merged_any = false;
    for (const auto& m : mwoe_inbox.inbox(coordinator)) {
      const WeightedEdge e{static_cast<VertexId>(m.word(0)),
                           static_cast<VertexId>(m.word(1)), m.word(2)};
      if (components.unite(e.u, e.v)) {
        result.mst.push_back(e);
        merged_any = true;
      }
    }
    if (!merged_any) break;
    // New labels: minimum member id per merged component.
    std::vector<VertexId> min_of(n, std::numeric_limits<VertexId>::max());
    for (VertexId v = 0; v < n; ++v) {
      const auto root = components.find(v);
      min_of[root] = std::min(min_of[root], v);
    }
    for (VertexId v = 0; v < n; ++v) label[v] = min_of[components.find(v)];
    // v* -> every node: its label (1 round); node -> leader: membership
    // ping so leaders know their rosters (1 round).
    engine.charge_verified_round(n - 1, n - 1);
    engine.charge_verified_round(n - 1, 0);
    engine.attribute_broadcast(coordinator, 1, 1);
    if (engine.wants_load())
      // Membership pings: leaders report to v*, members to their leader —
      // n-1 zero-payload messages either way.
      for (VertexId v = 0; v < n; ++v)
        if (v != coordinator)
          engine.attribute_load(v, label[v] == v ? coordinator : label[v], 1,
                                0);
  }

  // Sanity: the Monte Carlo threshold search must have found true MWOEs;
  // compare component count with what the edges imply.
  result.monte_carlo_ok =
      result.mst.size() + components.num_components() == n;
  // Final dissemination so every machine knows its incident MST edges.
  {
    TraceScope step{engine, "mst-broadcast"};
    std::vector<std::vector<std::uint64_t>> items;
    for (const auto& e : result.mst) items.push_back({e.u, e.v, e.w});
    spray_broadcast(engine, coordinator, items);
  }
  std::sort(result.mst.begin(), result.mst.end(), weight_less);
  return result;
}

}  // namespace ccq
