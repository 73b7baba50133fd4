// The phase-expression algebra (paper §3.6, §5), evaluated in exactly
// one place: eps costs 0, `r; s` adds, `r || s` takes the max and `r^n`
// multiplies by n. A graph without a phase expression (Idle root) runs
// every comm phase once, then every exec phase once: the static
// fallback.
//
// Each leaf receives its weight, the product of the repetition counts
// above it, instead of subtree results being scaled on the way up. For
// n >= 0, n*(a + b) = n*a + n*b and n*max(a, b) = max(n*a, n*b), so both
// agree exactly, and one traversal serves the time algebra (leaf =
// weight * phase time) and the multiplicity pass (leaf records its
// weight). Leaves are visited in expression order, once per occurrence,
// under a Repeat 0 too.
//
// A template over the leaf callables, not std::function:
// IncrementalCompletion folds once per delta_move probe, the mapper's
// hottest call, and its leaves must inline.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "oregami/core/task_graph.hpp"
#include "oregami/support/error.hpp"

namespace oregami {

namespace phase_fold_detail {

template <class CommLeaf, class ExecLeaf>
std::int64_t fold_node(const PhaseTree& node, std::int64_t weight,
                       CommLeaf& comm, ExecLeaf& exec) {
  std::int64_t value = 0;
  switch (node.kind) {
    case PhaseTree::Kind::Idle:
      break;
    case PhaseTree::Kind::Comm:
      return comm(node.phase_index, weight);
    case PhaseTree::Kind::Exec:
      return exec(node.phase_index, weight);
    case PhaseTree::Kind::Seq:
      for (const PhaseTree& child : node.children) {
        value += fold_node(child, weight, comm, exec);
      }
      break;
    case PhaseTree::Kind::Par:
      for (const PhaseTree& child : node.children) {
        value = std::max(value, fold_node(child, weight, comm, exec));
      }
      break;
    case PhaseTree::Kind::Repeat:
      if (__builtin_mul_overflow(weight, node.count, &weight)) {
        throw MappingError(
            "phase repetition counts overflow a 64-bit multiplicity");
      }
      return fold_node(node.children.front(), weight, comm, exec);
  }
  return value;
}

}  // namespace phase_fold_detail

/// Folds `graph`'s phase expression: `comm(k, weight)` and
/// `exec(k, weight)` are called for every leaf occurrence and their
/// results combine as Seq = sum, Par = max. Throws MappingError when a
/// weight overflows int64.
template <class CommLeaf, class ExecLeaf>
std::int64_t fold_phase_weights(const TaskGraph& graph, CommLeaf&& comm,
                                ExecLeaf&& exec) {
  if (graph.phase_expr().kind != PhaseTree::Kind::Idle) {
    return phase_fold_detail::fold_node(graph.phase_expr(), 1, comm, exec);
  }
  std::int64_t total = 0;
  for (std::size_t k = 0; k < graph.comm_phases().size(); ++k) {
    total += comm(static_cast<int>(k), std::int64_t{1});
  }
  for (std::size_t k = 0; k < graph.exec_phases().size(); ++k) {
    total += exec(static_cast<int>(k), std::int64_t{1});
  }
  return total;
}

/// The time algebra over one-pass phase times `comm_time(k)` and
/// `exec_time(k)`: the program's modelled completion time.
template <class CommTime, class ExecTime>
std::int64_t fold_phases(const TaskGraph& graph, CommTime&& comm_time,
                         ExecTime&& exec_time) {
  return fold_phase_weights(
      graph,
      [&](int k, std::int64_t weight) { return weight * comm_time(k); },
      [&](int k, std::int64_t weight) { return weight * exec_time(k); });
}

}  // namespace oregami
