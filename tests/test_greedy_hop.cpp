// The greedy next-hop rule (Topology::greedy_hop) against an
// independent scan: for every (cur, dst) pair of every regular family
// at small sizes, of Custom topologies, and on both sides of the
// kHopTableMaxProcs boundary, the answer must be the lowest-numbered
// neighbour one hop closer plus the link link_between() reports. Then
// the incremental scorer's probe (which walks routes through
// greedy_hop) must equal the delta apply_move realises, with and
// without a table; and eight threads touching an unwarmed table at
// once must all read the same answers (run under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "oregami/arch/routes.hpp"
#include "oregami/core/synthetic.hpp"
#include "oregami/mapper/baselines.hpp"
#include "oregami/metrics/completion_model.hpp"
#include "oregami/metrics/incremental.hpp"
#include "oregami/support/rng.hpp"

namespace oregami {
namespace {

/// The scan rule, written without greedy_hop: next_hop_choices is
/// sorted, so its front is the lowest-numbered closer neighbour.
Topology::Hop scan_rule(const Topology& topo, int cur, int dst) {
  const std::vector<int> choices = next_hop_choices(topo, cur, dst);
  if (choices.empty()) {
    return {};
  }
  return {choices.front(), *topo.link_between(cur, choices.front())};
}

void expect_table_matches_scan(const Topology& topo) {
  SCOPED_TRACE(topo.name());
  EXPECT_EQ(topo.has_hop_table(),
            topo.num_procs() <= Topology::kHopTableMaxProcs);
  const int p = topo.num_procs();
  for (int dst = 0; dst < p; ++dst) {
    for (int cur = 0; cur < p; ++cur) {
      const Topology::Hop want = scan_rule(topo, cur, dst);
      const Topology::Hop got = topo.greedy_hop(cur, dst);
      ASSERT_EQ(got.next, want.next) << "cur=" << cur << " dst=" << dst;
      ASSERT_EQ(got.link, want.link) << "cur=" << cur << " dst=" << dst;
    }
  }
}

TEST(GreedyHop, TableMatchesScanOnEveryRegularFamily) {
  for (int p = 3; p <= 9; ++p) {
    expect_table_matches_scan(Topology::ring(p));
  }
  for (int p = 1; p <= 6; ++p) {
    expect_table_matches_scan(Topology::chain(p));
    expect_table_matches_scan(Topology::mesh(p, 7 - p));
  }
  for (int r = 3; r <= 5; ++r) {
    for (int c = 3; c <= 6; ++c) {
      expect_table_matches_scan(Topology::torus(r, c));
    }
  }
  for (int d = 0; d <= 5; ++d) {
    expect_table_matches_scan(Topology::hypercube(d));
  }
  for (int levels = 1; levels <= 5; ++levels) {
    expect_table_matches_scan(Topology::complete_binary_tree(levels));
  }
  for (int p = 2; p <= 7; ++p) {
    expect_table_matches_scan(Topology::star(p));
    expect_table_matches_scan(Topology::complete(p));
  }
  for (int k = 1; k <= 3; ++k) {
    expect_table_matches_scan(Topology::butterfly(k));
  }
  expect_table_matches_scan(Topology::mesh3d(2, 3, 4));
  expect_table_matches_scan(Topology::mesh3d(3, 3, 3));
}

TEST(GreedyHop, TableMatchesScanOnCustomTopologies) {
  // Adjacency lists out of id order, so "lowest-numbered" and "first
  // seen" differ; repeated add_edge calls, which Graph collapses into
  // one heavier link; and a second component, whose pairs have no hop.
  Graph g(9);
  g.add_edge(0, 5);
  g.add_edge(0, 2);
  g.add_edge(5, 3);
  g.add_edge(2, 3);
  g.add_edge(3, 1);
  g.add_edge(1, 4);
  g.add_edge(4, 0);
  g.add_edge(2, 3);  // collapses into link {2, 3}
  g.add_edge(6, 7);
  g.add_edge(7, 8);
  g.add_edge(8, 6);
  g.add_edge(8, 7);  // collapses into link {7, 8}
  const Topology topo = Topology::custom("knot", std::move(g));
  expect_table_matches_scan(topo);
  EXPECT_EQ(topo.greedy_hop(0, 7).next, -1);  // other component
  EXPECT_EQ(topo.greedy_hop(4, 4).next, -1);  // already there
  EXPECT_EQ(topo.greedy_hop(0, 3).next, 2);   // 2 < 5, both one closer
}

TEST(GreedyHop, TableStopsAtTheLimit) {
  // P = 256 gets a table and P = 257 scans; both follow the rule.
  static_assert(Topology::kHopTableMaxProcs == 256);
  expect_table_matches_scan(Topology::ring(256));
  expect_table_matches_scan(Topology::ring(257));
  expect_table_matches_scan(Topology::mesh(16, 16));
  expect_table_matches_scan(Topology::chain(257));
  Graph g(257);
  for (int i = 0; i < 257; ++i) {
    g.add_edge(i, (i + 1) % 257);
    g.add_edge(i, (i + 16) % 257);
  }
  const Topology chordal = Topology::custom("chordal257", std::move(g));
  EXPECT_FALSE(chordal.has_hop_table());
  expect_table_matches_scan(chordal);
}

TEST(GreedyHop, CopiesShareOneTable) {
  const Topology original = Topology::mesh(4, 4);
  const Topology copy = original;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(copy.greedy_hop(0, 15).next, original.greedy_hop(0, 15).next);
  expect_table_matches_scan(copy);
}

TEST(GreedyHop, RouteFollowsTheRuleHopByHop) {
  const Topology topo = Topology::torus(5, 6);
  for (int src = 0; src < topo.num_procs(); ++src) {
    for (int dst = 0; dst < topo.num_procs(); ++dst) {
      const Route route = greedy_shortest_route(topo, src, dst);
      ASSERT_TRUE(is_shortest_route(topo, route, src, dst));
      for (std::size_t i = 0; i < route.links.size(); ++i) {
        const Topology::Hop hop = scan_rule(topo, route.nodes[i], dst);
        ASSERT_EQ(route.nodes[i + 1], hop.next);
        ASSERT_EQ(route.links[i], hop.link);
      }
    }
  }
}

/// Random moves on a stencil placed round-robin: every probe equals the
/// delta apply_move realises, and the result equals a full rescore.
void expect_probe_equals_applied(const Topology& topo) {
  SCOPED_TRACE(topo.name());
  const TaskGraph graph = make_stencil2d(12, 12, 7);
  std::vector<int> procs(static_cast<std::size_t>(graph.num_tasks()));
  for (std::size_t t = 0; t < procs.size(); ++t) {
    procs[t] = static_cast<int>(t * 7 % static_cast<std::size_t>(
                                            topo.num_procs()));
  }
  IncrementalCompletion inc(graph, topo, procs,
                            route_greedy_shortest(graph, procs, topo));
  SplitMix64 rng(42);
  for (int i = 0; i < 300; ++i) {
    const int task = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(graph.num_tasks())));
    const int to = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(topo.num_procs())));
    const std::int64_t probed = inc.delta_move(task, to);
    ASSERT_EQ(inc.apply_move(task, to), probed) << "move " << i;
    if (i % 50 == 0) {
      ASSERT_EQ(inc.completion(),
                completion_time(graph, inc.proc_of_task(), inc.routing(),
                                topo));
    }
  }
}

TEST(GreedyHop, ProbeEqualsAppliedDeltaWithTable) {
  const Topology topo = Topology::torus(6, 6);
  ASSERT_TRUE(topo.has_hop_table());
  expect_probe_equals_applied(topo);
}

TEST(GreedyHop, ProbeEqualsAppliedDeltaWithoutTable) {
  const Topology topo = Topology::torus(17, 17);
  ASSERT_FALSE(topo.has_hop_table());
  expect_probe_equals_applied(topo);
}

// Eight threads make the first greedy_hop calls on one shared, unwarmed
// topology at the same moment: exactly one builds the table under
// std::call_once and every thread must read the finished table.
TEST(GreedyHopThreads, ConcurrentFirstTouchOfOneTable) {
  const Topology mesh = Topology::mesh(16, 16);
  Graph g(64);
  for (int i = 0; i < 64; ++i) {
    g.add_edge(i, (i + 1) % 64);
    g.add_edge(i, (i + 9) % 64);
  }
  const Topology custom = Topology::custom("chordal64", std::move(g));

  constexpr int kThreads = 8;
  std::atomic<int> waiting{kThreads};
  std::vector<std::thread> workers;
  std::vector<long> checksums(kThreads, 0);
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) {
        std::this_thread::yield();
      }
      long sum = 0;
      for (int i = 0; i < mesh.num_procs(); ++i) {
        const int cur = (i * 37 + w) % mesh.num_procs();
        const int dst = (i * 101) % mesh.num_procs();
        const Topology::Hop a = mesh.greedy_hop(cur, dst);
        const Topology::Hop b = custom.greedy_hop(cur % 64, dst % 64);
        sum += a.next + a.link + b.next + b.link;
      }
      for (int i = 0; i < mesh.num_procs(); ++i) {
        const int cur = (i * 37) % mesh.num_procs();
        const int dst = (i * 101) % mesh.num_procs();
        sum += greedy_shortest_route(mesh, cur, dst).hops();
      }
      checksums[static_cast<std::size_t>(w)] = sum;
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  // Each thread starts at a different cur offset w, so compare every
  // thread's answers to a serial replay of the same queries instead.
  for (int w = 0; w < kThreads; ++w) {
    long sum = 0;
    for (int i = 0; i < mesh.num_procs(); ++i) {
      const int cur = (i * 37 + w) % mesh.num_procs();
      const int dst = (i * 101) % mesh.num_procs();
      const Topology::Hop a = scan_rule(mesh, cur, dst);
      const Topology::Hop b = scan_rule(custom, cur % 64, dst % 64);
      sum += a.next + a.link + b.next + b.link;
    }
    for (int i = 0; i < mesh.num_procs(); ++i) {
      sum += mesh.distance((i * 37) % mesh.num_procs(),
                           (i * 101) % mesh.num_procs());
    }
    EXPECT_EQ(checksums[static_cast<std::size_t>(w)], sum) << "thread " << w;
  }
}

}  // namespace
}  // namespace oregami
