// Substrate validation: the Lenzen-routing and Lenzen-sorting interfaces.
//
// The paper leans on two black boxes from [21]: routing (every node sends
// <= n and receives <= n messages => O(1) rounds) and sorting (O(1) rounds
// for O(n) keys per node). Our implementations must honour those interface
// guarantees for every round count reported elsewhere to be meaningful, so
// this bench sweeps load regimes and checks:
//   - O(1) rounds in the within-budget regime, independent of n;
//   - O(1 + L/n) degradation under per-node overload L > n;
//   - distributed sort round counts flat in n for O(n) keys/node.
#include <cstdio>

#include "bench_util.hpp"
#include "comm/routing.hpp"
#include "comm/sorting.hpp"
#include "graph/generators.hpp"

using namespace ccq;

int main(int argc, char** argv) {
  ccq::bench::init(argc, argv, "bench_routing");
  std::printf("Substrate — Lenzen routing/sorting interface guarantees\n");

  RoundBuffer inbox;  // every route below delivers into this one arena
  bench::Table uniform{"Routing: full all-to-all (load = n-1 per node)",
                       {"n", "packets", "rounds", "color_batches"}};
  for (std::uint32_t n : {16u, 64u, 256u}) {
    CliqueEngine engine{{.n = n}};
    std::vector<Packet> packets;
    for (VertexId s = 0; s < n; ++s)
      for (VertexId d = 0; d < n; ++d)
        if (s != d) packets.push_back({s, d, msg1(0, 1)});
    RouteStats stats;
    route_packets_into(engine, packets, inbox, &stats);
    uniform.row({bench::fmt(n), bench::fmt(packets.size()),
                 bench::fmt(stats.rounds), bench::fmt(stats.color_batches)});
    bench::expect(stats.rounds <= 8,
                  "all-to-all within budget must be O(1) rounds");
  }
  uniform.print();

  bench::Table skew{"Routing: single hot receiver (load = k*n)",
                    {"n", "overload k", "rounds", "rounds/k"}};
  for (std::uint32_t k : {1u, 4u, 16u}) {
    const std::uint32_t n = 64;
    CliqueEngine engine{{.n = n}};
    std::vector<Packet> packets;
    for (std::uint32_t i = 0; i < k * n; ++i)
      packets.push_back(
          {static_cast<VertexId>(1 + i % (n - 1)), 0, msg1(0, i)});
    RouteStats stats;
    route_packets_into(engine, packets, inbox, &stats);
    skew.row({bench::fmt(n), bench::fmt(k), bench::fmt(stats.rounds),
              bench::fmt_double(static_cast<double>(stats.rounds) / k, 2)});
    bench::expect(stats.rounds <= 4 * k + 8,
                  "overloaded routing must degrade linearly in load/n");
  }
  skew.print();

  bench::Table wide{"Routing under wide links (log^4 n messages per link)",
                    {"n", "packets", "narrow_rounds", "wide_rounds"}};
  for (std::uint32_t n : {64u, 128u}) {
    std::vector<Packet> packets;
    Rng rng{n};
    for (std::uint32_t i = 0; i < 20u * n; ++i)
      packets.push_back({static_cast<VertexId>(rng.next_below(n)),
                         static_cast<VertexId>(rng.next_below(n)),
                         msg1(0, i)});
    CliqueEngine narrow{{.n = n}};
    RouteStats ns;
    route_packets_into(narrow, packets, inbox, &ns);
    CliqueEngine wide_engine{
        {.n = n, .messages_per_link = wide_bandwidth_messages_per_link(n)}};
    RouteStats ws;
    route_packets_into(wide_engine, packets, inbox, &ws);
    wide.row({bench::fmt(n), bench::fmt(packets.size()),
              bench::fmt(ns.rounds), bench::fmt(ws.rounds)});
    bench::expect(ws.rounds <= ns.rounds,
                  "wider links must never need more rounds");
  }
  wide.print();

  bench::Table sort_table{"Distributed sort: O(n) keys per node",
                          {"n", "keys_total", "rounds"}};
  for (std::uint32_t n : {16u, 64u, 256u}) {
    Rng rng{n};
    std::vector<std::vector<std::uint64_t>> keys(n);
    for (VertexId v = 0; v < n; ++v)
      for (std::uint32_t i = 0; i < n; ++i) keys[v].push_back(rng.next());
    CliqueEngine engine{{.n = n}};
    distributed_sort_ranks(engine, keys, rng);
    sort_table.row({bench::fmt(n),
                    bench::fmt(static_cast<std::uint64_t>(n) * n),
                    bench::fmt(engine.metrics().rounds)});
    bench::expect(engine.metrics().rounds <= 60,
                  "sorting O(n) keys/node must take O(1) rounds");
  }
  sort_table.print();
  std::printf("\nShape check: rounds flat in n within the load budget; "
              "linear in the overload\nfactor beyond it — the O(1 + L/n) "
              "guarantee of the Lenzen interface.\n");
  return 0;
}
