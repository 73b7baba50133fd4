// Simulated annealing over processor placements (paper §6's "new and
// improved algorithms" commitment; the modern recipe of Glantz et al.
// and the HTI-OVGU task-mapping field).
//
// Each proposal is one random candidate for one random task, probed
// and committed through the move engine (mapper/local_search.hpp,
// try_move) with Metropolis acceptance: downhill and sideways moves
// always, uphill moves with probability exp(-delta / T) under a
// geometric cooling schedule.
//
// Determinism contract: the result is a pure function of the inputs
// and `AnnealOptions::seed`. The proposal stream comes from a private
// SplitMix64, the chain is strictly sequential, and the returned state
// is the *best* state visited: the evaluator's undo history is cleared
// at every strict improvement, so unwinding all of it lands exactly
// there. Two consequences the tests rely on:
//   * the result is never worse than the initial placement;
//   * when no proposal strictly improves on the start state, the
//     final placement, routing, and completion are bit-identical to
//     the input (the whole apply/undo chain round-trips).
// A positive `time_budget_ms` consults the wall clock and may cut the
// chain short (same caveat as the portfolio deadline); 0 and negative
// budgets never read the clock, so those modes stay bit-deterministic.
#pragma once

#include <cstdint>
#include <vector>

#include "oregami/metrics/completion_model.hpp"

namespace oregami {

struct AnnealOptions {
  /// Number of move proposals (the chain length). 0 = return the
  /// initial state untouched.
  int iterations = 4000;
  /// Seed of the private proposal stream.
  std::uint64_t seed = 0x5EEDA11u;
  /// Starting temperature; < 0 selects max(1, initial completion / 20).
  double initial_temp = -1.0;
  /// Geometric cooling factor applied after every proposal.
  double cooling = 0.999;
  /// Wall-clock deadline in milliseconds: 0 = none, < 0 = already
  /// expired (no proposals run; deterministic), > 0 = checked
  /// periodically while the chain runs.
  std::int64_t time_budget_ms = 0;
};

struct AnnealResult {
  std::vector<int> proc_of_task;
  std::vector<PhaseRouting> routing;  ///< greedy re-routes of moved edges
  std::int64_t completion_before = 0;
  std::int64_t completion_after = 0;  ///< best completion visited
  int proposed = 0;                   ///< proposals actually evaluated
  int accepted = 0;                   ///< moves committed to the chain
  int uphill = 0;                     ///< accepted with delta > 0
  bool deadline_hit = false;          ///< a positive budget cut the chain

  [[nodiscard]] std::int64_t improvement() const {
    return completion_before - completion_after;
  }
};

/// Runs the annealing chain from `proc_of_task` + `routing` (e.g. a
/// MAPPER-produced mapping).
[[nodiscard]] AnnealResult anneal_placement(
    const TaskGraph& graph, const Topology& topo,
    std::vector<int> proc_of_task, std::vector<PhaseRouting> routing,
    const CostModel& model = {}, const AnnealOptions& options = {});

}  // namespace oregami
