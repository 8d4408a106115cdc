#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "clique/engine.hpp"
#include "clique/round_buffer.hpp"

// Misuse guards on the per-word hot path are CLIQUE_DCHECK-backed: active in
// Debug and sanitizer builds (CLIQUE_ENABLE_ASSERTS), compiled out of
// optimized release builds. Throw-path expectations only hold when they are
// compiled in — and calling the misuse itself would be UB otherwise.
#if !defined(NDEBUG) || defined(CLIQUE_ENABLE_ASSERTS)
#define CCQ_GUARDS_ACTIVE 1
#else
#define CCQ_GUARDS_ACTIVE 0
#endif

namespace ccq {
namespace {

TEST(Engine, ConfigValidation) {
  EXPECT_THROW(CliqueEngine{EngineConfig{.n = 0}}, InvalidArgument);
  EXPECT_THROW((CliqueEngine{
                   EngineConfig{.n = 4, .messages_per_link = 0}}),
               InvalidArgument);
}

TEST(Engine, RoundDeliversMessages) {
  CliqueEngine engine{{.n = 4}};
  const RoundBuffer& arena = engine.round_arena([](VertexId u, Outbox& out) {
    if (u == 0) out.send(3, msg2(7, 10, 20));
  });
  const auto in = arena.inbox(3);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0].src, 0u);
  EXPECT_EQ(in[0].dst, 3u);
  EXPECT_EQ(in[0].tag, 7u);
  EXPECT_EQ(in[0].word(0), 10u);
  EXPECT_EQ(in[0].word(1), 20u);
  EXPECT_TRUE(arena.inbox(0).empty());
  EXPECT_EQ(engine.metrics().rounds, 1u);
  EXPECT_EQ(engine.metrics().messages, 1u);
  EXPECT_EQ(engine.metrics().words, 2u);
}

TEST(Engine, BandwidthEnforcedPerLink) {
  CliqueEngine engine{{.n = 3}};
  EXPECT_THROW(engine.round_arena([](VertexId u, Outbox& out) {
    if (u == 0) {
      out.send(1, msg0(1));
      out.send(1, msg0(2));  // second message on the same link: illegal
    }
  }),
               ProtocolError);
}

TEST(Engine, WiderBudgetAllowsMore) {
  CliqueEngine engine{{.n = 3, .messages_per_link = 2}};
  const RoundBuffer& arena = engine.round_arena([](VertexId u, Outbox& out) {
    if (u == 0) {
      out.send(1, msg0(1));
      out.send(1, msg0(2));
    }
  });
  EXPECT_EQ(arena.inbox(1).size(), 2u);
}

TEST(Engine, DistinctLinksAreIndependent) {
  CliqueEngine engine{{.n = 4}};
  const RoundBuffer& arena = engine.round_arena([](VertexId u, Outbox& out) {
    // Every node sends to every other node: the full n(n-1) pattern.
    for (VertexId v = 0; v < 4; ++v)
      if (v != u) out.send(v, msg1(0, u));
  });
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(arena.inbox(v).size(), 3u);
  EXPECT_EQ(engine.metrics().messages, 12u);
}

TEST(Engine, SelfSendRejected) {
  CliqueEngine engine{{.n = 2}};
  EXPECT_THROW(engine.round_arena([](VertexId u, Outbox& out) {
    if (u == 1) out.send(1, msg0(0));
  }),
               ProtocolError);
}

TEST(Engine, OutOfRangeDestinationRejected) {
  CliqueEngine engine{{.n = 2}};
  EXPECT_THROW(engine.round_arena([](VertexId u, Outbox& out) {
    if (u == 0) out.send(5, msg0(0));
  }),
               ProtocolError);
}

TEST(Engine, RoundOfOnlyListedSendersSend) {
  CliqueEngine engine{{.n = 5}};
  int calls = 0;
  const std::vector<VertexId> senders{1, 3};
  engine.round_of_arena(senders, [&](VertexId u, Outbox& out) {
    ++calls;
    out.send(0, msg1(0, u));
  });
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(engine.metrics().messages, 2u);
}

TEST(Engine, SilentRoundSkipCountsRounds) {
  CliqueEngine engine{{.n = 2}};
  engine.skip_silent_rounds(1'000'000'000ull);
  EXPECT_EQ(engine.metrics().rounds, 1'000'000'000ull);
  EXPECT_EQ(engine.metrics().messages, 0u);
}

TEST(Engine, SilentRoundSkipRejectsCounterOverflow) {
  // The KT1 clock-coding algorithm passes super-polynomial k; a wrap of the
  // 64-bit round counter must be a ProtocolError, not silent corruption.
  CliqueEngine engine{{.n = 2}};
  const auto big = std::numeric_limits<std::uint64_t>::max() - 5;
  engine.skip_silent_rounds(big);
  EXPECT_EQ(engine.metrics().rounds, big);
  EXPECT_THROW(engine.skip_silent_rounds(10), ProtocolError);
  EXPECT_EQ(engine.metrics().rounds, big);  // untouched on failure
  engine.skip_silent_rounds(5);             // exact fit still fine
  EXPECT_EQ(engine.metrics().rounds, std::numeric_limits<std::uint64_t>::max());
}

TEST(Engine, PerLinkBudgetAbove16BitsDoesNotWrap) {
  // Regression: used_ was uint16_t while budgets are uint32_t — with
  // messages_per_link > 65535 (wide_bandwidth_messages_per_link exceeds a
  // million for large n) the per-link counter wrapped at 65536 and the
  // budget check silently restarted from zero.
  const std::uint32_t budget = 70'000;
  CliqueEngine engine{{.n = 2, .messages_per_link = budget}};
  const RoundBuffer& arena = engine.round_arena([&](VertexId u, Outbox& out) {
    if (u == 0)
      for (std::uint32_t i = 0; i < budget; ++i) out.send(1, msg0(i));
  });
  EXPECT_EQ(arena.inbox(1).size(), budget);
  // One message beyond the budget must still throw (counter reached 70000,
  // not 70000 mod 65536).
  EXPECT_THROW(engine.round_arena([&](VertexId u, Outbox& out) {
    if (u == 0)
      for (std::uint32_t i = 0; i <= budget; ++i) out.send(1, msg0(i));
  }),
               ProtocolError);
}

TEST(Engine, ArenaRoundDeliversInSenderOrder) {
  CliqueEngine engine{{.n = 6}};
  const auto& arena = engine.round_arena([](VertexId u, Outbox& out) {
    for (VertexId v = 0; v < 6; ++v)
      if (v != u) out.send(v, msg2(3, u, v));
  });
  EXPECT_EQ(arena.n(), 6u);
  EXPECT_EQ(arena.total_messages(), 30u);
  for (VertexId v = 0; v < 6; ++v) {
    const auto in = arena.inbox(v);
    ASSERT_EQ(in.size(), 5u);
    // (sender, submission) order: senders ascending, skipping v itself.
    VertexId expect_src = 0;
    for (const Message& m : in) {
      if (expect_src == v) ++expect_src;
      EXPECT_EQ(m.src, expect_src);
      EXPECT_EQ(m.dst, v);
      EXPECT_EQ(m.word(1), v);
      ++expect_src;
    }
  }
}

TEST(Engine, ArenaIsReusedAcrossRounds) {
  CliqueEngine engine{{.n = 4, .threads = 1}};
  const RoundBuffer& a = engine.round_arena([](VertexId u, Outbox& out) {
    if (u == 1) out.send(0, msg1(1, 11));
  });
  EXPECT_EQ(&a, &engine.round_arena([](VertexId u, Outbox& out) {
    if (u == 2) out.send(0, msg1(2, 22));
  }));
  ASSERT_EQ(a.inbox(0).size(), 1u);
  EXPECT_EQ(a.inbox(0)[0].src, 2u);  // previous round's content replaced
}

TEST(RoundBufferType, CountingSortContract) {
  RoundBuffer buf{3};
  buf.add_count(2);
  buf.add_count(0, 2);
  buf.commit_counts();
#if CCQ_GUARDS_ACTIVE
  EXPECT_THROW(buf.add_count(1), std::logic_error);  // counting is closed
#endif
  // Writers fill each bucket left to right from offset(b).
  EXPECT_EQ(buf.offset(0), 0u);
  EXPECT_EQ(buf.offset(1), 2u);
  EXPECT_EQ(buf.offset(2), 2u);
  buf.data()[buf.offset(0)].tag = 10;
  buf.data()[buf.offset(2)].tag = 30;
  buf.data()[buf.offset(0) + 1].tag = 11;
  ASSERT_EQ(buf.inbox(0).size(), 2u);
  EXPECT_EQ(buf.inbox(0)[0].tag, 10u);
  EXPECT_EQ(buf.inbox(0)[1].tag, 11u);
  EXPECT_TRUE(buf.inbox(1).empty());
  ASSERT_EQ(buf.inbox(2).size(), 1u);
  EXPECT_EQ(buf.inbox(2)[0].tag, 30u);
  buf.reset(2);  // reusable
  buf.add_count(1);
  buf.commit_counts();
  buf.data()[buf.offset(1)].tag = 7;
  EXPECT_EQ(buf.total_messages(), 1u);
  EXPECT_EQ(buf.inbox(1)[0].tag, 7u);
}

TEST(Engine, ObserverSeesEveryMessage) {
  CliqueEngine engine{{.n = 3}};
  std::vector<std::pair<VertexId, VertexId>> seen;
  engine.set_observer([&](VertexId s, VertexId d) { seen.push_back({s, d}); });
  engine.round_arena([](VertexId u, Outbox& out) {
    if (u == 0) out.send(2, msg0(0));
    if (u == 1) out.send(0, msg0(0));
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<VertexId, VertexId>{0, 2}));
  EXPECT_EQ(seen[1], (std::pair<VertexId, VertexId>{1, 0}));
}

TEST(Engine, GenericRoundsRejectNBeyondPackedRouteRange) {
  // The packed route sidecar addresses 2^26 destinations. A larger engine
  // refuses generic rounds up front — before any O(n) scratch exists and
  // with no metrics moved — while the fixed-schedule fast paths still count.
  const std::uint32_t n = packed::kRouteMaxDst + 2;
  ASSERT_EQ(n, (1u << 26) + 1);
  CliqueEngine engine{{.n = n}};
  const std::vector<VertexId> one_sender{0};
  EXPECT_THROW(engine.round_of_arena(
                   one_sender,
                   [](VertexId, Outbox& out) { out.send(1, msg0(0)); }),
               ProtocolError);
  EXPECT_EQ(engine.metrics().rounds, 0u);
  EXPECT_EQ(engine.metrics().messages, 0u);
  EXPECT_EQ(engine.metrics().words, 0u);
  engine.charge_verified_round(n - 1, n - 1);
  EXPECT_EQ(engine.metrics().rounds, 1u);
  EXPECT_EQ(engine.metrics().messages, n - 1);
  EXPECT_EQ(engine.metrics().words, n - 1);
}

TEST(Engine, ChargeVerifiedRoundAccumulates) {
  CliqueEngine engine{{.n = 4}};
  engine.charge_verified_round(10, 30);
  engine.charge_verified_round(5, 15);
  EXPECT_EQ(engine.metrics().rounds, 2u);
  EXPECT_EQ(engine.metrics().messages, 15u);
  EXPECT_EQ(engine.metrics().words, 45u);
  EXPECT_EQ(engine.metrics().max_messages_in_round, 10u);
}

TEST(Engine, AbsorbVirtualAddsCounters) {
  CliqueEngine engine{{.n = 4}};
  engine.charge_verified_round(1, 1);
  Metrics sub;
  sub.rounds = 7;
  sub.messages = 100;
  sub.words = 300;
  engine.absorb_virtual(sub);
  EXPECT_EQ(engine.metrics().rounds, 8u);
  EXPECT_EQ(engine.metrics().messages, 101u);
  EXPECT_EQ(engine.metrics().words, 301u);
}

TEST(Engine, MetricsScopeDelta) {
  CliqueEngine engine{{.n = 4}};
  engine.charge_verified_round(5, 5);
  auto scope = engine.scope();
  engine.charge_verified_round(3, 9);
  const auto delta = scope.delta();
  EXPECT_EQ(delta.rounds, 1u);
  EXPECT_EQ(delta.messages, 3u);
  EXPECT_EQ(delta.words, 9u);
}

TEST(Engine, WideBandwidthFormula) {
  // ceil(log2 n)^4 messages per link for the O(log^5 n)-bit variant.
  EXPECT_EQ(wide_bandwidth_messages_per_link(256), 8u * 8 * 8 * 8);
  EXPECT_GE(wide_bandwidth_messages_per_link(2), 1u);
}

TEST(Engine, Kt0RequiresIdResolution) {
  CliqueEngine kt0{{.n = 4, .knowledge = Knowledge::KT0}};
  EXPECT_FALSE(kt0.ids_resolved());
  EXPECT_THROW(kt0.require_id_knowledge("test"), ProtocolError);
  kt0.mark_ids_resolved();
  EXPECT_NO_THROW(kt0.require_id_knowledge("test"));
}

TEST(Engine, Kt1HasIdKnowledgeNatively) {
  CliqueEngine kt1{{.n = 4}};
  EXPECT_TRUE(kt1.ids_resolved());
  EXPECT_NO_THROW(kt1.require_id_knowledge("test"));
}

TEST(Engine, RunLocalVisitsEveryItemOnceOnBoundedLanes) {
  for (std::uint32_t threads : {1u, 3u, 8u}) {
    CliqueEngine engine{{.n = 16, .threads = threads}};
    EXPECT_EQ(engine.local_lanes(0), 0u);
    EXPECT_EQ(engine.local_lanes(2), std::min(2u, threads));
    const std::size_t items = 1000;
    const unsigned lanes = engine.local_lanes(items);
    EXPECT_EQ(lanes, threads);
    std::vector<std::uint32_t> visits(items, 0);
    std::vector<unsigned> lane_of(items, lanes);
    engine.run_local(items, [&](unsigned lane, std::size_t i) {
      ++visits[i];
      lane_of[i] = lane;
    });
    for (std::size_t i = 0; i < items; ++i) {
      EXPECT_EQ(visits[i], 1u) << "item " << i;
      EXPECT_LT(lane_of[i], lanes) << "item " << i;
    }
    // Local work charges nothing.
    EXPECT_EQ(engine.metrics().rounds, 0u);
  }
}

TEST(Engine, RunLocalRethrowsTheSmallestFailingItem) {
  for (std::uint32_t threads : {1u, 4u}) {
    CliqueEngine engine{{.n = 16, .threads = threads}};
    try {
      engine.run_local(500, [](unsigned, std::size_t i) {
        if (i == 37 || i == 38 || i == 450)
          throw std::runtime_error("item " + std::to_string(i));
      });
      ADD_FAILURE() << "run_local swallowed the failure";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "item 37") << "threads " << threads;
    }
  }
}

TEST(MessageType, Constructors) {
  const auto m = msg4(9, 1, 2, 3, 4);
  EXPECT_EQ(m.count, 4);
  EXPECT_EQ(m.word(3), 4u);
#if CCQ_GUARDS_ACTIVE
  EXPECT_THROW(m.word(4), std::logic_error);
#endif
  const std::vector<std::uint64_t> five(5, 0);
  EXPECT_THROW(make_message(0, {five.data(), five.size()}), std::logic_error);
}

}  // namespace
}  // namespace ccq
