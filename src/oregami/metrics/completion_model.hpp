// The analytic communication/computation cost model behind METRICS'
// "completion time of the computation" (paper §5).
//
// OREGAMI never executes the program; like the original METRICS tool it
// scores a mapping with a model:
//   * an execution phase costs the maximum, over processors, of the
//     summed task costs assigned there (processors run in parallel);
//   * a communication phase is synchronous: its cost is the maximum
//     volume serialised through any one link (contention x volume x
//     per-unit cost) plus the longest route's hop latency;
//   * the phase expression composes phases: sequence adds, parallel
//     takes the maximum, repetition multiplies.
#pragma once

#include <cstdint>

#include "oregami/arch/fault_model.hpp"
#include "oregami/arch/topology.hpp"
#include "oregami/core/mapping.hpp"
#include "oregami/core/task_graph.hpp"

namespace oregami {

struct CostModel {
  std::int64_t hop_latency = 1;    ///< per-hop switching cost
  std::int64_t per_unit_cost = 1;  ///< per volume unit per link

  /// A comm phase's time from its bottleneck link volume and its
  /// longest route.
  [[nodiscard]] std::int64_t comm_time(std::int64_t max_volume,
                                       int max_hops) const {
    return max_volume * per_unit_cost +
           static_cast<std::int64_t>(max_hops) * hop_latency;
  }
};

/// Cost of comm phase `phase_index` under `routing` (that phase's
/// routes): max over links of serialised volume + latency of the
/// longest route. `link_factor` (index = link id in `topo`; empty means
/// every factor is 1) weights each link's volume by its slowdown, so
/// the bottleneck is max over links of (volume * factor).
[[nodiscard]] std::int64_t comm_phase_time(
    const TaskGraph& graph, int phase_index, const PhaseRouting& routing,
    const Topology& topo, const CostModel& model,
    const std::vector<std::int64_t>& link_factor = {});

/// Cost of exec phase `phase_index`: max over processors of assigned
/// task cost.
[[nodiscard]] std::int64_t exec_phase_time(
    const TaskGraph& graph, int phase_index,
    const std::vector<int>& proc_of_task, int num_procs);

/// Folds the phase times through the phase expression
/// (core/phase_fold.hpp). When the graph has no phase expression
/// (Idle), falls back to the sum of every phase executed once.
/// `link_factor` is as for comm_phase_time: healthy scoring is this
/// scorer with no factors, degraded_completion_time passes the fault
/// slowdowns.
[[nodiscard]] std::int64_t completion_time(
    const TaskGraph& graph, const std::vector<int>& proc_of_task,
    const std::vector<PhaseRouting>& routing, const Topology& topo,
    const CostModel& model = {},
    const std::vector<std::int64_t>& link_factor = {});

/// The three objectives the portfolio's Pareto report ranks a placement
/// on. All are minimised; all are exact model quantities, so extraction
/// is deterministic.
struct PlacementObjectives {
  /// Modelled completion time (completion_time()).
  std::int64_t completion = 0;
  /// Multiplicity-weighted communication volume crossing processor
  /// boundaries (the METRICS total-IPC headline).
  std::int64_t external_ipc = 0;
  /// Maximum per-processor execution load, multiplicity-weighted and
  /// summed over every exec phase (the load-balance objective).
  std::int64_t max_load = 0;
  /// One pass of each phase (comm_phase_time(), exec_phase_time()):
  /// the terms the completion folds through the phase expression.
  std::vector<std::int64_t> comm_time;
  std::vector<std::int64_t> exec_time;
};

/// Extracts all three objectives of a placement in one pass (shared by
/// portfolio scoring and the Pareto report).
[[nodiscard]] PlacementObjectives extract_objectives(
    const TaskGraph& graph, const std::vector<int>& proc_of_task,
    const std::vector<PhaseRouting>& routing, const Topology& topo,
    const CostModel& model = {});

/// completion_time() on the degraded machine: each link's serialised
/// volume is multiplied by its slowdown factor, so the phase bottleneck
/// is max over links of (volume * factor). Routes and placement are in
/// BASE ids; throws MappingError when a task sits on a dead processor
/// or a route crosses a dead link/processor (the mapping is invalid on
/// the faulted machine -- repair it first). With an empty FaultSpec
/// this equals completion_time() exactly.
[[nodiscard]] std::int64_t degraded_completion_time(
    const TaskGraph& graph, const std::vector<int>& proc_of_task,
    const std::vector<PhaseRouting>& routing, const FaultedTopology& faults,
    const CostModel& model = {});

/// Admission check where a graph meets its machine: throws MappingError
/// when sum over phases k of mult_k * bound_k overflows int64, bound_k
/// being a placement-independent upper bound of one pass of phase k
/// under unit costs, in the analytic model and in the simulator alike:
///   comm: P * (sum of volumes * max link factor + number of messages),
///         since a message crosses at most P links and waits at most
///         for every other message;
///   exec: sum of task costs.
/// The same sum bounds the external IPC and the max load, so a pair
/// that passes cannot overflow any model quantity and the scorers need
/// no checked arithmetic. `link_factor` is a faulted machine's
/// per-link slowdown, as for comm_phase_time (empty when healthy).
void check_model_bound(const TaskGraph& graph, const Topology& topo,
                       const std::vector<std::int64_t>& link_factor = {});

}  // namespace oregami
