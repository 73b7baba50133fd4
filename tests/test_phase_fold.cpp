// Byte-for-byte pin of every evaluator of the phase-expression algebra.
//
// completion_time, degraded_completion_time, IncrementalCompletion,
// simulate and the multiplicity pass all share one fold, so the
// differential harness in test_properties.cpp (which compares two of
// them with each other) cannot see a bug in the fold itself. This sweep
// pins their outputs, and the directive renderer's, against
// tests/golden/phase_fold.txt (generated before the evaluators were
// merged), over the LaRCS catalogue at its example bindings on four
// machines plus hand-built trees covering Par, nested Repeat, Repeat 0,
// an inner Idle and an Idle root.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "oregami/arch/fault_model.hpp"
#include "oregami/arch/topology_spec.hpp"
#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/mapper/driver.hpp"
#include "oregami/metrics/completion_model.hpp"
#include "oregami/metrics/incremental.hpp"
#include "oregami/metrics/metrics.hpp"
#include "oregami/schedule/synchrony.hpp"
#include "oregami/sim/network_sim.hpp"

namespace oregami {
namespace {

const std::vector<std::string>& machines() {
  static const std::vector<std::string> specs = {"mesh:4x4", "ring:16",
                                                 "hypercube:4", "torus:4x4"};
  return specs;
}

template <class T>
std::string join(const std::vector<T>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : " ") + std::to_string(values[i]);
  }
  return out;
}

/// Every recorded quantity of one (graph, machine, mapping) case.
void record(std::ostringstream& out, const std::string& label,
            const TaskGraph& graph, const Topology& topo,
            const Mapping& mapping) {
  const std::vector<int> procs = mapping.proc_of_task();
  const FaultedTopology slowed(topo, FaultSpec::parse("s0:3,s5:2", topo));
  const PlacementObjectives obj =
      extract_objectives(graph, procs, mapping.routing, topo);
  const MappingMetrics metrics =
      compute_metrics(graph, procs, mapping.routing, topo);
  std::vector<std::int64_t> factors;
  for (int l = 0; l < topo.num_links(); ++l) {
    factors.push_back(slowed.link_slowdown(l));
  }
  const IncrementalCompletion inc(graph, topo, mapping);
  const IncrementalCompletion inc_slowed(graph, topo, mapping, {}, factors);
  SimConfig slowed_sim;
  slowed_sim.faults = &slowed;
  const ScheduleResult schedule =
      derive_synchrony_sets(graph, procs, topo.num_procs());
  out << label << " on " << topo.name() << "\n"
      << "  expr: "
      << graph.phase_expr().to_string(graph.comm_phases(),
                                      graph.exec_phases())
      << "\n  comm_mult: " << join(graph.phase_multiplicity().comm)
      << "\n  exec_mult: " << join(graph.phase_multiplicity().exec)
      << "\n  completion: "
      << completion_time(graph, procs, mapping.routing, topo)
      << "\n  degraded: "
      << degraded_completion_time(graph, procs, mapping.routing, slowed)
      << "\n  incremental: " << inc.completion() << " "
      << inc_slowed.completion() << "\n  objectives: " << obj.completion << " " << obj.external_ipc
      << " " << obj.max_load << "\n  metrics: " << metrics.total_ipc
      << " " << metrics.load.max_exec
      << "\n  sim: " << simulate(graph, procs, mapping.routing, topo)
                            .total_cycles
      << "\n  sim_degraded: "
      << simulate(graph, procs, mapping.routing, topo, slowed_sim)
             .total_cycles
      << "\n  directive0: " << local_directive(graph, schedule, 0) << "\n";
}

/// Six tasks, two comm phases, two exec phases; the phase expression is
/// the only thing the hand-built cases vary.
TaskGraph hand_built(PhaseTree expr) {
  TaskGraph g;
  for (int t = 0; t < 6; ++t) {
    g.add_task("t" + std::to_string(t));
  }
  const int ring = g.add_comm_phase("ring");
  const int cross = g.add_comm_phase("cross");
  for (int t = 0; t < 6; ++t) {
    g.add_comm_edge(ring, t, (t + 1) % 6, 1 + t % 3);
  }
  g.add_comm_edge(cross, 0, 3, 4);
  g.add_comm_edge(cross, 1, 4, 2);
  g.add_comm_edge(cross, 5, 2, 3);
  g.add_exec_phase("work", {3, 1, 4, 1, 5, 9});
  g.add_exec_phase("reduce", {2, 6, 5, 3, 5, 8});
  g.set_phase_expr(std::move(expr));
  g.validate();
  return g;
}

std::vector<std::pair<std::string, PhaseTree>> hand_built_trees() {
  using T = PhaseTree;
  std::vector<std::pair<std::string, PhaseTree>> trees;
  trees.emplace_back(
      "par", T::par({T::seq({T::comm(0), T::exec(0)}),
                     T::seq({T::comm(1), T::exec(1)})}));
  trees.emplace_back(
      "nested_repeat",
      T::repeat(T::seq({T::repeat(T::seq({T::comm(0), T::exec(0)}), 3),
                        T::comm(1), T::exec(1)}),
                2));
  trees.emplace_back(
      "repeat_zero",
      T::seq({T::repeat(T::seq({T::comm(0), T::exec(0)}), 0), T::comm(1),
              T::exec(1)}));
  trees.emplace_back(
      "inner_idle",
      T::seq({T::comm(0), T::idle(),
              T::repeat(T::par({T::exec(0), T::idle()}), 2), T::comm(1)}));
  trees.emplace_back(
      "par_of_repeats",
      T::repeat(T::par({T::repeat(T::comm(0), 5),
                        T::seq({T::comm(1), T::repeat(T::exec(1), 2)})}),
                3));
  trees.emplace_back("idle_root", T::idle());
  return trees;
}

std::string phase_fold_golden_text() {
  std::ostringstream out;
  for (const auto& entry : larcs::programs::catalog()) {
    const std::map<std::string, long> bindings(
        entry.example_bindings.begin(), entry.example_bindings.end());
    const larcs::Program ast = larcs::parse_program(entry.source);
    const larcs::CompiledProgram compiled = larcs::compile(ast, bindings);
    for (const std::string& spec : machines()) {
      const Topology topo = parse_topology_spec(spec);
      const MapperReport report = map_program(ast, compiled, topo);
      record(out, entry.name, compiled.graph, topo, report.mapping);
    }
  }
  for (auto& [label, tree] : hand_built_trees()) {
    const TaskGraph graph = hand_built(tree);
    for (const std::string& spec : machines()) {
      const Topology topo = parse_topology_spec(spec);
      const MapperReport report = map_computation(graph, topo);
      record(out, label, graph, topo, report.mapping);
    }
  }
  return out.str();
}

TEST(PhaseFold, GoldenEvaluatorSweepIsByteIdentical) {
  std::ifstream in(std::string(OREGAMI_GOLDEN_DIR) + "/phase_fold.txt");
  ASSERT_TRUE(in) << "missing golden file phase_fold.txt";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(phase_fold_golden_text(), golden.str());
}

}  // namespace
}  // namespace oregami
