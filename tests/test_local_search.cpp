// Byte-for-byte pin of every local-search caller.
//
// Placement refinement, simulated annealing, the repair ladder and the
// multilevel commit all run through one move engine
// (mapper/local_search.hpp). This sweep pins what each of them returns
// against tests/golden/local_search.txt, which was generated before the
// callers were merged onto the engine: the placement (an FNV digest for
// large graphs), a routing digest, the completion before and after,
// every counter and the details string.
//
// The engine's own contracts are checked below it: the tie rule, that a
// rejected move changes nothing, that hill climbs leave no undo
// history, and that no caller's trace emits the multilevel commit
// counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <numeric>
#include <ranges>
#include <sstream>
#include <string>
#include <vector>

#include "oregami/arch/fault_model.hpp"
#include "oregami/arch/topology_spec.hpp"
#include "oregami/core/synthetic.hpp"
#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/mapper/anneal.hpp"
#include "oregami/mapper/baselines.hpp"
#include "oregami/mapper/driver.hpp"
#include "oregami/mapper/local_search.hpp"
#include "oregami/mapper/multilevel.hpp"
#include "oregami/mapper/refine.hpp"
#include "oregami/mapper/repair.hpp"
#include "oregami/metrics/completion_model.hpp"
#include "oregami/metrics/incremental.hpp"
#include "oregami/support/hash.hpp"
#include "oregami/support/trace.hpp"

namespace oregami {
namespace {

const std::vector<std::string>& machines() {
  static const std::vector<std::string> specs = {"mesh:4x4", "ring:16",
                                                 "hypercube:4", "torus:4x4"};
  return specs;
}

/// A partition of each machine: the cut links leave a smaller
/// component whose tasks the repair must move.
std::string partition_spec(const std::string& machine) {
  if (machine == "mesh:4x4") return "l0-1,l4-5,l8-9,l12-13";
  if (machine == "ring:16") return "l3-4,l11-12";
  if (machine == "hypercube:4") return "l0-2,l0-4,l0-8,l1-3,l1-5,l1-9";
  return "l0-1,l4-5,l8-9,l12-13,l0-3,l4-7,l8-11,l12-15";
}

std::string placement_text(const std::vector<int>& procs) {
  if (procs.size() > 64) {
    Fnv1a h;
    for (const int p : procs) h.i32(p);
    return "fnv " + digest_hex(h.digest());
  }
  std::string out;
  for (std::size_t i = 0; i < procs.size(); ++i) {
    out += (i == 0 ? "" : " ") + std::to_string(procs[i]);
  }
  return out;
}

std::string routing_digest(const std::vector<PhaseRouting>& routing) {
  Fnv1a h;
  for (const PhaseRouting& phase : routing) {
    h.u64(phase.route_of_edge.size());
    for (const Route& route : phase.route_of_edge) {
      h.u64(route.nodes.size());
      for (const int v : route.nodes) h.i32(v);
      for (const int l : route.links) h.i32(l);
    }
  }
  return digest_hex(h.digest());
}

struct Instance {
  std::string name;
  larcs::Program ast;
  larcs::CompiledProgram compiled;
};

std::vector<Instance> catalogue() {
  std::vector<Instance> out;
  for (const auto& entry : larcs::programs::catalog()) {
    const std::map<std::string, long> bindings(
        entry.example_bindings.begin(), entry.example_bindings.end());
    Instance inst;
    inst.name = entry.name;
    inst.ast = larcs::parse_program(entry.source);
    inst.compiled = larcs::compile(inst.ast, bindings);
    out.push_back(std::move(inst));
  }
  return out;
}

int max_cluster(const std::vector<int>& procs, int num_procs) {
  std::vector<int> count(static_cast<std::size_t>(num_procs), 0);
  for (const int p : procs) ++count[static_cast<std::size_t>(p)];
  return *std::max_element(count.begin(), count.end());
}

void record_refine(std::ostringstream& out, const std::string& label,
                   const TaskGraph& graph, const Topology& topo,
                   const std::vector<int>& procs,
                   const std::vector<PhaseRouting>& routing) {
  for (const int bound : {0, max_cluster(procs, topo.num_procs())}) {
    const PlacementRefineResult r =
        refine_placement(graph, topo, procs, routing, {}, bound);
    out << "refine " << label << " bound " << bound
        << "\n  placement: " << placement_text(r.proc_of_task)
        << "\n  routing: " << routing_digest(r.routing)
        << "\n  completion: " << r.completion_before << " "
        << r.completion_after << "\n  moves: " << r.moves << "\n";
  }
}

void record_anneal(std::ostringstream& out, const std::string& label,
                   const TaskGraph& graph, const Topology& topo,
                   const Mapping& mapping) {
  struct Run {
    std::uint64_t seed;
    std::int64_t budget;
  };
  for (const Run run : {Run{1, 0}, Run{2, 0}, Run{3, 0}, Run{1, -1}}) {
    AnnealOptions opts;
    opts.seed = run.seed;
    opts.time_budget_ms = run.budget;
    const AnnealResult r = anneal_placement(
        graph, topo, mapping.proc_of_task(), mapping.routing, {}, opts);
    out << "anneal " << label << " seed " << run.seed << " budget "
        << run.budget << "\n  placement: " << placement_text(r.proc_of_task)
        << "\n  routing: " << routing_digest(r.routing)
        << "\n  completion: " << r.completion_before << " "
        << r.completion_after << "\n  proposed: " << r.proposed
        << " accepted: " << r.accepted << " uphill: " << r.uphill
        << " deadline_hit: " << r.deadline_hit << "\n";
  }
}

void record_repair(std::ostringstream& out, const std::string& label,
                   const TaskGraph& graph, const Topology& topo,
                   const std::string& machine, const Mapping& mapping) {
  const std::vector<std::pair<std::string, std::string>> specs = {
      {"dead", "p5"},
      {"dead+slow", "p5,s0:3,s7:2"},
      {"partition", partition_spec(machine)}};
  struct Rungs {
    const char* name;
    bool migrate;
    bool refine;
  };
  for (const auto& [spec_name, spec] : specs) {
    const FaultedTopology faults(topo, FaultSpec::parse(spec, topo));
    for (const Rungs rungs : {Rungs{"all", true, true},
                              Rungs{"no-refine", true, false},
                              Rungs{"no-migrate", false, true}}) {
      for (const std::int64_t budget : {0, -1}) {
        RepairOptions opts;
        opts.allow_migrate = rungs.migrate;
        opts.allow_refine = rungs.refine;
        opts.time_budget_ms = budget;
        const RepairResult r = repair_mapping(graph, faults, mapping, opts);
        out << "repair " << label << " " << spec_name << " " << rungs.name
            << " budget " << budget << "\n  rung: " << to_string(r.rung)
            << "\n  details: " << r.details
            << "\n  placement: "
            << placement_text(r.mapping.proc_of_task())
            << "\n  routing: " << routing_digest(r.mapping.routing)
            << "\n  completion: " << r.healthy_completion << " "
            << r.degraded_completion << "\n  attempts: " << r.attempts
            << " deadline_hit: " << r.deadline_hit << "\n  migrations:";
        for (const RepairMove& m : r.migrations) {
          out << " " << m.task << ":" << m.from_proc << ">" << m.to_proc;
        }
        out << "\n";
      }
    }
  }
}

void record_multilevel(std::ostringstream& out, const std::string& label,
                       const TaskGraph& graph, const Topology& topo) {
  for (const int max_levels : {0, 2}) {
    MultilevelOptions opts;
    opts.max_levels = max_levels;
    const MapperReport r = map_multilevel(graph, topo, opts);
    out << "multilevel " << label << " max_levels " << max_levels
        << "\n  details: " << r.details << "\n  placement: "
        << placement_text(r.mapping.proc_of_task())
        << "\n  routing: " << routing_digest(r.mapping.routing)
        << "\n  completion: "
        << completion_time(graph, r.mapping.proc_of_task(),
                           r.mapping.routing, topo)
        << "\n";
  }
}

/// Every caller from round-robin and from `mapping` on one machine.
void record_machine(std::ostringstream& out, const std::string& label,
                    const TaskGraph& graph, const std::string& machine,
                    const Topology& topo, const Mapping& mapping) {
  std::vector<int> round_robin(static_cast<std::size_t>(graph.num_tasks()));
  for (std::size_t t = 0; t < round_robin.size(); ++t) {
    round_robin[t] = static_cast<int>(t) % topo.num_procs();
  }
  record_refine(out, label + " from round-robin", graph, topo, round_robin,
                route_greedy_shortest(graph, round_robin, topo));
  record_refine(out, label + " from default", graph, topo,
                mapping.proc_of_task(), mapping.routing);
  record_anneal(out, label, graph, topo, mapping);
  record_repair(out, label, graph, topo, machine, mapping);
}

std::string local_search_golden_text() {
  std::ostringstream out;
  for (const Instance& inst : catalogue()) {
    for (const std::string& machine : machines()) {
      const Topology topo = parse_topology_spec(machine);
      record_machine(out, inst.name + " on " + machine, inst.compiled.graph,
                     machine, topo,
                     map_program(inst.ast, inst.compiled, topo).mapping);
    }
  }
  // Several tasks per processor, so the hill climbers have work to do.
  const std::vector<std::pair<std::string, TaskGraph>> synthetic = {
      {"stencil-12x12", make_stencil2d(12, 12, 0x10CA1ULL)},
      {"power-law-200", make_power_law(200, 3, 0x10CA1ULL)}};
  for (const auto& [name, graph] : synthetic) {
    for (const std::string& machine : machines()) {
      const Topology topo = parse_topology_spec(machine);
      record_machine(out, name + " on " + machine, graph, machine, topo,
                     map_computation(graph, topo).mapping);
    }
  }
  record_multilevel(out, "geometric-1000 on torus:8x8",
                    make_random_geometric(1000, 0.05, 0x10CA1ULL),
                    parse_topology_spec("torus:8x8"));
  record_multilevel(out, "stencil-64x64 on torus:16x16",
                    make_stencil2d(64, 64, 0x10CA1ULL),
                    parse_topology_spec("torus:16x16"));
  return out.str();
}

TEST(LocalSearch, GoldenCallerSweepIsByteIdentical) {
  std::ifstream in(std::string(OREGAMI_GOLDEN_DIR) + "/local_search.txt");
  ASSERT_TRUE(in) << "missing golden file local_search.txt";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(local_search_golden_text(), golden.str());
}

// ------------------------------------------------------------ engine

/// A 2x3 grid task graph on mesh:2x2, round-robin placed, greedily
/// routed: small enough to reason about, busy enough to improve.
struct Fixture {
  TaskGraph graph = make_stencil2d(2, 3, 0x10CA1ULL);
  Topology topo = parse_topology_spec("mesh:2x2");
  std::vector<int> procs = {0, 1, 2, 3, 0, 1};
  IncrementalCompletion inc{graph, topo, procs,
                            route_greedy_shortest(graph, procs, topo)};
};

TEST(LocalSearch, TryMoveKeepsFirstListedOfEqualDeltas) {
  // Two tasks on opposite corners of mesh:2x2, one message between
  // them, equal work: moving task 0 to processor 1 or 2 (both next to
  // processor 3) ties. The own processor is skipped, a repeated
  // candidate changes nothing, and of equal deltas the first listed
  // wins, in either listing order.
  TaskGraph graph;
  graph.add_task("a");
  graph.add_task("b");
  graph.add_comm_edge(graph.add_comm_phase("send"), 0, 1, 1);
  graph.add_exec_phase("work", {10, 10});
  graph.validate();
  const Topology topo = parse_topology_spec("mesh:2x2");
  const std::vector<int> procs = {0, 3};
  for (const std::vector<int>& order :
       {std::vector<int>{1, 2, 3}, std::vector<int>{3, 2, 1}}) {
    IncrementalCompletion inc(graph, topo, procs,
                              route_greedy_shortest(graph, procs, topo));
    ASSERT_EQ(inc.delta_move(0, 1), inc.delta_move(0, 2));
    ASSERT_LT(inc.delta_move(0, 1), inc.delta_move(0, 3));
    std::vector<int> listed = {0};
    listed.insert(listed.end(), order.begin(), order.end());
    listed.insert(listed.end(), order.begin(), order.end());
    const Move move =
        try_move(inc, 0, listed, [](std::int64_t) { return true; });
    const int expected = order[0] == 1 ? 1 : 2;
    EXPECT_EQ(move.from, 0);
    EXPECT_EQ(move.to, expected);
    EXPECT_EQ(inc.proc_of_task()[0], expected);
    EXPECT_EQ(inc.history_size(), 1u);
  }
}

TEST(LocalSearch, RejectedOrEmptyProbeChangesNothing) {
  Fixture f;
  const std::int64_t before = f.inc.completion();
  const std::vector<int> all = {0, 1, 2, 3};
  const Move rejected =
      try_move(f.inc, 2, all, [](std::int64_t) { return false; });
  EXPECT_EQ(rejected.to, -1);
  EXPECT_EQ(f.inc.proc_of_task(), f.procs);
  EXPECT_EQ(f.inc.completion(), before);
  EXPECT_EQ(f.inc.history_size(), 0u);
  // Only the task's own processor listed: nothing to probe.
  const std::vector<int> own = {2};
  EXPECT_EQ(try_move(f.inc, 2, own, [](std::int64_t) { return true; }).to,
            -1);
  EXPECT_EQ(f.inc.history_size(), 0u);
}

TEST(LocalSearch, HillClimbsLeaveNoUndoHistory) {
  for (const std::string& machine : machines()) {
    const Topology topo = parse_topology_spec(machine);
    const TaskGraph graph = make_power_law(120, 3, 0x10CA1ULL);
    std::vector<int> procs(120);
    for (std::size_t t = 0; t < procs.size(); ++t) {
      procs[t] = static_cast<int>(t) % topo.num_procs();
    }
    IncrementalCompletion inc(graph, topo, procs,
                              route_greedy_shortest(graph, procs, topo));
    const std::int64_t before = inc.completion();
    // A single committing sweep over every processor, then refinement.
    std::vector<int> all(static_cast<std::size_t>(topo.num_procs()));
    std::iota(all.begin(), all.end(), 0);
    const SweepStats one = sweep_until_stable(
        inc, std::views::iota(0, graph.num_tasks()), 1, Deadline(0),
        [&](int, int) -> const std::vector<int>& { return all; },
        [](const Move&) {});
    EXPECT_EQ(one.sweeps, 1) << machine;
    EXPECT_GT(one.moves, 0) << machine;
    EXPECT_EQ(inc.history_size(), 0u) << machine;
    const SweepStats stats = refine_sweeps(graph, topo, inc, 0, Deadline(0));
    EXPECT_GT(stats.sweeps, 0) << machine;
    EXPECT_LT(inc.completion(), before) << machine;
    EXPECT_EQ(inc.history_size(), 0u) << machine;
    EXPECT_FALSE(inc.undo()) << machine;
  }
}

TEST(LocalSearch, ExpiredDeadlineStartsNoSweep) {
  Fixture f;
  const std::vector<int> tasks = {0, 1, 2, 3, 4, 5};
  const std::vector<int> all = {0, 1, 2, 3};
  int calls = 0;
  const SweepStats stats = sweep_until_stable(
      f.inc, tasks, 4, Deadline(-1),
      [&](int, int) -> const std::vector<int>& {
        ++calls;
        return all;
      },
      [](const Move&) {});
  EXPECT_EQ(stats.sweeps, 0);
  EXPECT_EQ(stats.moves, 0);
  EXPECT_TRUE(stats.deadline_hit);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(f.inc.proc_of_task(), f.procs);
}

// ------------------------------------------------- trace vocabulary

bool under_multilevel(const std::string& path) {
  return path.rfind("multilevel/", 0) == 0 ||
         path.find("/multilevel/") != std::string::npos;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Counter paths the mapbench replay would fold into the multilevel
/// commit ratio (every path ending in /moves or /boundary).
std::vector<std::string> commit_counters(bool inside_multilevel) {
  std::vector<std::string> paths;
  for (const trace::Event& e : trace::snapshot()) {
    if (e.kind == trace::Event::Kind::Counter &&
        (ends_with(e.path, "/moves") || ends_with(e.path, "/boundary")) &&
        under_multilevel(e.path) == inside_multilevel) {
      paths.push_back(e.path);
    }
  }
  return paths;
}

struct TraceCapture {
  TraceCapture() {
    trace::clear();
    trace::enable();
  }
  ~TraceCapture() {
    trace::disable();
    trace::clear();
  }
};

TEST(LocalSearch, OnlyMultilevelEmitsCommitCounters) {
  const auto cp = larcs::compile_source(larcs::programs::nbody(),
                                        {{"n", 15}, {"s", 4}, {"m", 8}});
  const Topology topo = parse_topology_spec("mesh:4x4");
  {
    const TraceCapture capture;
    MapperOptions opts;
    opts.portfolio = 4;
    opts.anneal = 1;
    opts.heft = true;
    opts.refine_placement = true;
    const MapperReport report = map_computation(cp.graph, topo, opts);
    const FaultedTopology faults(topo, FaultSpec::parse("p5,s0:3", topo));
    (void)repair_mapping(cp.graph, faults, report.mapping);
    EXPECT_EQ(commit_counters(false), std::vector<std::string>{});
    EXPECT_EQ(commit_counters(true), std::vector<std::string>{});
  }
  {
    // The positive control: multilevel does emit them.
    const TraceCapture capture;
    (void)map_multilevel(make_stencil2d(16, 16, 0x10CA1ULL),
                         parse_topology_spec("torus:4x4"));
    EXPECT_EQ(commit_counters(false), std::vector<std::string>{});
    EXPECT_FALSE(commit_counters(true).empty());
  }
}

}  // namespace
}  // namespace oregami
