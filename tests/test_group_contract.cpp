#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/mapper/group_contract.hpp"

namespace oregami {
namespace {

/// The paper's Fig 4 workload: 8-task perfect broadcast with
/// comm1 = (+1), comm2 = (+2), comm3 = (+4) mod 8.
TaskGraph broadcast8() {
  return larcs::compile_source(larcs::programs::broadcast_vote(8),
                               {{"n", 8}})
      .graph;
}

TEST(PhasePermutation, ExtractsBijection) {
  const auto g = broadcast8();
  const auto p = phase_permutation(g.comm_phases()[0], 8);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->to_cycle_string(), "(0 1 2 3 4 5 6 7)");
  const auto p2 = phase_permutation(g.comm_phases()[1], 8);
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->to_cycle_string(), "(0 2 4 6)(1 3 5 7)");
  const auto p3 = phase_permutation(g.comm_phases()[2], 8);
  ASSERT_TRUE(p3.has_value());
  EXPECT_EQ(p3->to_cycle_string(), "(0 4)(1 5)(2 6)(3 7)");
}

TEST(PhasePermutation, RejectsNonBijections) {
  CommPhase phase;
  phase.name = "bad";
  phase.edges = {{0, 1, 1}, {0, 2, 1}};  // two outgoing from 0
  EXPECT_FALSE(phase_permutation(phase, 3).has_value());
  CommPhase partial;
  partial.edges = {{0, 1, 1}};  // tasks 1, 2 have no outgoing edge
  EXPECT_FALSE(phase_permutation(partial, 3).has_value());
  CommPhase collide;
  collide.edges = {{0, 2, 1}, {1, 2, 1}, {2, 0, 1}};  // 2 hit twice
  EXPECT_FALSE(phase_permutation(collide, 3).has_value());
}

TEST(Sylow, PrimePowerQuotients) {
  EXPECT_TRUE(sylow_balanced_contraction_exists(8, 4));    // 2
  EXPECT_TRUE(sylow_balanced_contraction_exists(16, 4));   // 4 = 2^2
  EXPECT_TRUE(sylow_balanced_contraction_exists(27, 1));   // 27 = 3^3
  EXPECT_TRUE(sylow_balanced_contraction_exists(8, 8));    // 1
  EXPECT_FALSE(sylow_balanced_contraction_exists(12, 2));  // 6 = 2*3
  EXPECT_FALSE(sylow_balanced_contraction_exists(8, 3));   // no division
  EXPECT_FALSE(sylow_balanced_contraction_exists(8, 0));
}

TEST(GroupContract, Fig4PerfectBroadcastOnto4Processors) {
  const auto g = broadcast8();
  const auto outcome = group_theoretic_contraction(g, 4);
  ASSERT_EQ(outcome.status, GroupContractStatus::Ok);
  const auto& result = *outcome.result;

  // The paper's element list E0..E7 (all rotations of Z8).
  ASSERT_EQ(result.element_cycles.size(), 8u);
  EXPECT_EQ(result.element_cycles[0], "(0)(1)(2)(3)(4)(5)(6)(7)");
  EXPECT_EQ(result.element_cycles[1], "(0 1 2 3 4 5 6 7)");
  EXPECT_EQ(result.element_cycles[2], "(0 2 4 6)(1 3 5 7)");
  EXPECT_EQ(result.element_cycles[3], "(0 3 6 1 4 7 2 5)");
  EXPECT_EQ(result.element_cycles[4], "(0 4)(1 5)(2 6)(3 7)");
  EXPECT_EQ(result.element_cycles[5], "(0 5 2 7 4 1 6 3)");
  EXPECT_EQ(result.element_cycles[6], "(0 6 4 2)(1 7 5 3)");
  EXPECT_EQ(result.element_cycles[7], "(0 7 6 5 4 3 2 1)");

  // Subgroup {E0, E4} from generator comm3, clusters {x, x+4}.
  EXPECT_EQ(result.subgroup, (std::vector<std::size_t>{0, 4}));
  EXPECT_TRUE(result.subgroup_normal);
  EXPECT_EQ(result.contraction.num_clusters, 4);
  for (int x = 0; x < 4; ++x) {
    EXPECT_EQ(result.contraction.cluster_of_task[static_cast<std::size_t>(x)],
              result.contraction
                  .cluster_of_task[static_cast<std::size_t>(x + 4)]);
  }
  // "2 messages are internalized in each cluster": the two comm3 edges
  // x -> x+4 and x+4 -> x.
  EXPECT_EQ(result.internalized_per_cluster, 2);
  // Quotient Cayley graph has 4 nodes.
  EXPECT_EQ(result.quotient.num_nodes, 4);
}

TEST(GroupContract, BalancedClustersAlways) {
  const auto g = broadcast8();
  for (const int clusters : {1, 2, 4, 8}) {
    const auto outcome = group_theoretic_contraction(g, clusters);
    ASSERT_EQ(outcome.status, GroupContractStatus::Ok) << clusters;
    const auto sizes = outcome.result->contraction.cluster_sizes();
    for (const int s : sizes) {
      EXPECT_EQ(s, 8 / clusters);
    }
  }
}

TEST(GroupContract, IndivisibleClusterCountRejected) {
  const auto g = broadcast8();
  EXPECT_EQ(group_theoretic_contraction(g, 3).status,
            GroupContractStatus::NoSuitableSubgroup);
  EXPECT_EQ(group_theoretic_contraction(g, 0).status,
            GroupContractStatus::NoSuitableSubgroup);
}

TEST(GroupContract, NonBijectivePhaseDetected) {
  TaskGraph g;
  for (int i = 0; i < 4; ++i) {
    g.add_task("t" + std::to_string(i));
  }
  const int p = g.add_comm_phase("tree");
  g.add_comm_edge(p, 0, 1);
  g.add_comm_edge(p, 0, 2);
  g.add_comm_edge(p, 0, 3);
  EXPECT_EQ(group_theoretic_contraction(g, 2).status,
            GroupContractStatus::PhaseNotBijective);
}

TEST(GroupContract, GroupTooLargeAborts) {
  // Phases (01) and (0123): generate a group bigger than 4 points.
  TaskGraph g;
  for (int i = 0; i < 4; ++i) {
    g.add_task("t" + std::to_string(i));
  }
  const int a = g.add_comm_phase("swap");
  g.add_comm_edge(a, 0, 1);
  g.add_comm_edge(a, 1, 0);
  g.add_comm_edge(a, 2, 3);  // keep it a bijection: (01)(23)
  g.add_comm_edge(a, 3, 2);
  const int b = g.add_comm_phase("rot");
  for (int i = 0; i < 4; ++i) {
    g.add_comm_edge(b, i, (i + 1) % 4);
  }
  // (01)(23) and (0123) generate the dihedral group of order 8 > 4.
  EXPECT_EQ(group_theoretic_contraction(g, 2).status,
            GroupContractStatus::GroupTooLarge);
}

TEST(GroupContract, NonTransitiveActionRejected) {
  // Single phase (01)(23) ... wait, that group has order 2 < 4 and is
  // not transitive.
  TaskGraph g;
  for (int i = 0; i < 4; ++i) {
    g.add_task("t" + std::to_string(i));
  }
  const int a = g.add_comm_phase("swap");
  g.add_comm_edge(a, 0, 1);
  g.add_comm_edge(a, 1, 0);
  g.add_comm_edge(a, 2, 3);
  g.add_comm_edge(a, 3, 2);
  EXPECT_EQ(group_theoretic_contraction(g, 2).status,
            GroupContractStatus::NotRegularAction);
}

TEST(GroupContract, TorusStencilIsCayley) {
  // The 4x4 torus stencil's comm functions generate Z4 x Z4, which
  // acts regularly; contraction to 4 clusters must be balanced.
  const auto cp = larcs::compile_source(
      larcs::programs::torus_stencil(), {{"r", 4}, {"c", 4}, {"iters", 1}});
  const auto outcome = group_theoretic_contraction(cp.graph, 4);
  ASSERT_EQ(outcome.status, GroupContractStatus::Ok);
  const auto sizes = outcome.result->contraction.cluster_sizes();
  for (const int s : sizes) {
    EXPECT_EQ(s, 4);
  }
  EXPECT_GT(outcome.result->internalized_per_cluster, 0);
}

TEST(GroupContract, NbodyChordalRingContracts) {
  const auto cp = larcs::compile_source(larcs::programs::nbody(),
                                        {{"n", 16}, {"s", 1}, {"m", 1}});
  const auto outcome = group_theoretic_contraction(cp.graph, 4);
  ASSERT_EQ(outcome.status, GroupContractStatus::Ok);
  EXPECT_EQ(outcome.result->contraction.num_clusters, 4);
  const auto sizes = outcome.result->contraction.cluster_sizes();
  for (const int s : sizes) {
    EXPECT_EQ(s, 4);
  }
}

/// The pinned contraction sweep: status, subgroup, normal flag,
/// cluster_of_task and description for every admissible cluster count
/// (2, 4, 8 dividing n) of broadcast_vote, ring_pipeline and
/// torus_stencil. tests/golden/group_contract.txt holds this text.
std::string contraction_golden_text() {
  struct Case {
    std::string label;
    std::string source;
    std::map<std::string, long> bindings;
  };
  std::vector<Case> cases;
  for (const int n : {8, 16, 32, 64}) {
    cases.push_back({"broadcast_vote n=" + std::to_string(n),
                     larcs::programs::broadcast_vote(n), {{"n", n}}});
  }
  for (const int n : {16, 24, 32}) {
    cases.push_back({"ring_pipeline n=" + std::to_string(n),
                     larcs::programs::ring_pipeline(),
                     {{"n", n}, {"stages", 4}}});
  }
  for (const int c : {4, 6}) {
    cases.push_back({"torus_stencil 4x" + std::to_string(c),
                     larcs::programs::torus_stencil(),
                     {{"r", 4}, {"c", c}, {"iters", 1}}});
  }
  std::ostringstream out;
  for (const auto& c : cases) {
    const auto graph = larcs::compile_source(c.source, c.bindings).graph;
    for (const int clusters : {2, 4, 8}) {
      if (graph.num_tasks() % clusters != 0) {
        continue;
      }
      const auto outcome = group_theoretic_contraction(graph, clusters);
      out << c.label << " clusters=" << clusters << "\n"
          << "  status: " << to_string(outcome.status) << "\n";
      if (!outcome.result) {
        continue;
      }
      const auto& r = *outcome.result;
      out << "  subgroup:";
      for (const std::size_t e : r.subgroup) {
        out << ' ' << e;
      }
      out << "\n  normal: " << r.subgroup_normal << "\n  cluster_of_task:";
      for (const int k : r.contraction.cluster_of_task) {
        out << ' ' << k;
      }
      out << "\n  description: " << r.description << "\n";
    }
  }
  return out.str();
}

TEST(GroupContract, GoldenContractionSweepIsByteIdentical) {
  std::ifstream in(std::string(OREGAMI_GOLDEN_DIR) + "/group_contract.txt");
  ASSERT_TRUE(in) << "missing golden file group_contract.txt";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(contraction_golden_text(), golden.str());
}

TEST(GroupContract, StatusStrings) {
  EXPECT_EQ(to_string(GroupContractStatus::Ok), "ok");
  EXPECT_NE(to_string(GroupContractStatus::GroupTooLarge).find("|X|"),
            std::string::npos);
}

}  // namespace
}  // namespace oregami
