// The one move engine behind every local search in MAPPER (DESIGN.md
// §14); it emits no trace events. Templates, not std::function: the
// annealing chain calls try_move once per proposal and must neither
// allocate nor dispatch indirectly.
#pragma once

#include <cstdint>

#include "oregami/metrics/incremental.hpp"
#include "oregami/support/deadline.hpp"

namespace oregami {

/// A probed single-task move. `to` is -1 when nothing was committed.
struct Move {
  int from = -1;
  int to = -1;
  std::int64_t delta = 0;
};

/// The hill climbers' acceptance rule.
inline bool strict_improvement(std::int64_t delta) { return delta < 0; }

/// Probes `task` against every processor of `candidates` (any range of
/// int) but its own, and commits the lowest-delta one when
/// `accept(delta)` holds. `delta` is the best probe's delta even when
/// the move is rejected; `to` is set only when it was committed.
template <class Candidates, class Accept>
Move try_move(IncrementalCompletion& inc, int task,
              const Candidates& candidates, Accept&& accept) {
  Move best{inc.proc_of_task()[static_cast<std::size_t>(task)]};
  int best_to = -1;
  for (const int q : candidates) {
    if (q == best.from) continue;
    const std::int64_t delta = inc.delta_move(task, q);
    if (best_to < 0 || delta < best.delta) {
      best_to = q;
      best.delta = delta;
    }
  }
  if (best_to >= 0 && accept(best.delta)) {
    inc.apply_move(task, best_to);
    best.to = best_to;
  }
  return best;
}

struct SweepStats {
  int sweeps = 0;  ///< sweeps started
  long moves = 0;  ///< moves committed
  bool deadline_hit = false;
};

/// Repeats strict-improvement try_moves over `tasks` (a range of task
/// ids) until a sweep commits nothing, `max_sweeps` sweeps have
/// started, or `deadline` passes; the deadline is polled before each
/// sweep and before each task. `candidates(task, sweep)` lists the
/// processors to probe for `task` in sweep `sweep` (0-based);
/// `on_commit(move)` sees every committed move. A hill climb never
/// undoes, so the undo history is cleared after every sweep.
template <class Tasks, class Candidates, class OnCommit>
SweepStats sweep_until_stable(IncrementalCompletion& inc, const Tasks& tasks,
                              int max_sweeps, const Deadline& deadline,
                              Candidates&& candidates, OnCommit&& on_commit) {
  SweepStats stats;
  while (stats.sweeps < max_sweeps) {
    if (deadline.passed()) {
      stats.deadline_hit = true;
      break;
    }
    const int sweep = stats.sweeps++;
    long committed = 0;
    for (const int task : tasks) {
      if (deadline.passed()) {
        stats.deadline_hit = true;
        break;
      }
      const Move move = try_move(inc, task, candidates(task, sweep),
                                 strict_improvement);
      if (move.to >= 0) {
        ++committed;
        on_commit(move);
      }
    }
    inc.clear_history();
    stats.moves += committed;
    if (stats.deadline_hit || committed == 0) break;
  }
  return stats;
}

}  // namespace oregami
