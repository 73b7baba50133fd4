// Boundary refinement of a contraction (Kernighan-Lin / Fiduccia-
// Mattheyses style greedy moves and swaps). The paper's §6 commits to
// "continue to augment the MAPPER library with new and improved
// algorithms for contraction"; this pass polishes any contraction
// (MWM-Contract output, canned tilings, ...) by hill-climbing on the
// total external communication weight while respecting the load bound.
#pragma once

#include <cstdint>
#include <vector>

#include "oregami/core/mapping.hpp"
#include "oregami/graph/graph.hpp"
#include "oregami/mapper/local_search.hpp"
#include "oregami/metrics/completion_model.hpp"

namespace oregami {

struct RefineResult {
  Contraction contraction;
  std::int64_t external_before = 0;
  std::int64_t external_after = 0;
  int moves = 0;
  int swaps = 0;

  [[nodiscard]] std::int64_t improvement() const {
    return external_before - external_after;
  }
};

/// Greedy refinement: repeatedly applies the single task move (to a
/// cluster with room) or pairwise task swap with the largest positive
/// reduction in external weight, until a pass finds nothing. Clusters
/// never exceed `load_bound_B` and never empty (the contraction keeps
/// its cluster count). `max_passes` bounds the outer loop.
[[nodiscard]] RefineResult refine_contraction(const Graph& task_graph,
                                              Contraction contraction,
                                              int load_bound_B,
                                              int max_passes = 8);

struct PlacementRefineResult {
  std::vector<int> proc_of_task;
  std::vector<PhaseRouting> routing;  ///< greedy re-routes of moved edges
  std::int64_t completion_before = 0;
  std::int64_t completion_after = 0;
  int moves = 0;

  [[nodiscard]] std::int64_t improvement() const {
    return completion_before - completion_after;
  }
};

/// Processor-level hill climbing on the completion model itself, after
/// contraction and embedding are fixed: refine_sweeps on a fresh
/// evaluator. Deterministic; never worsens the completion time.
[[nodiscard]] PlacementRefineResult refine_placement(
    const TaskGraph& graph, const Topology& topo,
    std::vector<int> proc_of_task, std::vector<PhaseRouting> routing,
    const CostModel& model = {}, int load_bound_B = 0);

/// Up to four refinement sweeps on an existing evaluator (the repair
/// ladder polishes its migrate rung's evaluator, slow-link factors
/// included): the move engine's sweep_until_stable over every task in
/// id order. A task's candidates are the network neighbours of its
/// processor plus the processors of its communication partners,
/// ascending, and only those hosting fewer than `load_bound_B` tasks
/// (0 = unbounded).
SweepStats refine_sweeps(const TaskGraph& graph, const Topology& topo,
                         IncrementalCompletion& inc, int load_bound_B,
                         const Deadline& deadline);

}  // namespace oregami
