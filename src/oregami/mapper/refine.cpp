#include "oregami/mapper/refine.hpp"

#include <algorithm>
#include <ranges>

#include "oregami/support/error.hpp"

namespace oregami {

namespace {

std::int64_t external_weight_of(const Graph& g,
                                const std::vector<int>& cluster_of_task) {
  std::int64_t external = 0;
  for (const auto& e : g.edges()) {
    if (cluster_of_task[static_cast<std::size_t>(e.u)] !=
        cluster_of_task[static_cast<std::size_t>(e.v)]) {
      external += e.weight;
    }
  }
  return external;
}

/// Weight from task t to cluster c under the current assignment.
std::int64_t weight_to_cluster(const Graph& g,
                               const std::vector<int>& assign, int t,
                               int c) {
  std::int64_t total = 0;
  for (const auto& a : g.neighbors(t)) {
    if (assign[static_cast<std::size_t>(a.neighbor)] == c) {
      total += a.weight;
    }
  }
  return total;
}

}  // namespace

RefineResult refine_contraction(const Graph& task_graph,
                                Contraction contraction, int load_bound_B,
                                int max_passes) {
  const int n = task_graph.num_vertices();
  contraction.validate(n);
  OREGAMI_ASSERT(load_bound_B >= contraction.max_cluster_size(),
                 "load bound must admit the input contraction");

  RefineResult result;
  result.external_before =
      external_weight_of(task_graph, contraction.cluster_of_task);

  auto& assign = contraction.cluster_of_task;
  std::vector<int> size = contraction.cluster_sizes();

  for (int pass = 0; pass < max_passes; ++pass) {
    bool improved = false;
    // One sweep applies every best-positive action it finds, task by
    // task (FM-flavoured: cheap, deterministic, monotone).
    for (int t = 0; t < n; ++t) {
      const int ct = assign[static_cast<std::size_t>(t)];
      const std::int64_t internal =
          weight_to_cluster(task_graph, assign, t, ct);

      // Move candidates: clusters of t's neighbours (moving anywhere
      // else can only lose weight).
      std::int64_t best_gain = 0;
      int best_cluster = -1;
      int best_swap = -1;
      for (const auto& a : task_graph.neighbors(t)) {
        const int cn = assign[static_cast<std::size_t>(a.neighbor)];
        if (cn == ct) {
          continue;
        }
        if (size[static_cast<std::size_t>(cn)] < load_bound_B &&
            size[static_cast<std::size_t>(ct)] > 1) {
          const std::int64_t gain =
              weight_to_cluster(task_graph, assign, t, cn) - internal;
          if (gain > best_gain) {
            best_gain = gain;
            best_cluster = cn;
            best_swap = -1;
          }
        }
      }
      // Swap candidates: any task of another cluster (KL gain formula;
      // restricting to neighbours would miss the classic 2-2 split
      // plateau where the profitable partner shares no edge with t).
      for (int u = 0; u < n; ++u) {
        const int cu = assign[static_cast<std::size_t>(u)];
        if (cu == ct) {
          continue;
        }
        const std::int64_t w_tu =
            task_graph.edge_weight(t, u).value_or(0);
        const std::int64_t d_t =
            weight_to_cluster(task_graph, assign, t, cu) - internal;
        const std::int64_t d_u =
            weight_to_cluster(task_graph, assign, u, ct) -
            weight_to_cluster(task_graph, assign, u, cu);
        const std::int64_t gain = d_t + d_u - 2 * w_tu;
        if (gain > best_gain) {
          best_gain = gain;
          best_cluster = cu;
          best_swap = u;
        }
      }

      if (best_gain <= 0) {
        continue;
      }
      improved = true;
      if (best_swap == -1) {
        --size[static_cast<std::size_t>(ct)];
        ++size[static_cast<std::size_t>(best_cluster)];
        assign[static_cast<std::size_t>(t)] = best_cluster;
        ++result.moves;
      } else {
        assign[static_cast<std::size_t>(t)] = best_cluster;
        assign[static_cast<std::size_t>(best_swap)] = ct;
        ++result.swaps;
      }
    }
    if (!improved) {
      break;
    }
  }

  result.external_after =
      external_weight_of(task_graph, contraction.cluster_of_task);
  OREGAMI_ASSERT(result.external_after <= result.external_before,
                 "refinement must never worsen the contraction");
  contraction.validate(n);
  result.contraction = std::move(contraction);
  return result;
}

PlacementRefineResult refine_placement(const TaskGraph& graph,
                                       const Topology& topo,
                                       std::vector<int> proc_of_task,
                                       std::vector<PhaseRouting> routing,
                                       const CostModel& model,
                                       int load_bound_B) {
  IncrementalCompletion inc(graph, topo, std::move(proc_of_task),
                            std::move(routing), model);
  PlacementRefineResult result;
  result.completion_before = inc.completion();
  result.moves = static_cast<int>(
      refine_sweeps(graph, topo, inc, load_bound_B, Deadline(0)).moves);
  result.completion_after = inc.completion();
  OREGAMI_ASSERT(result.completion_after <= result.completion_before,
                 "placement refinement must never worsen completion");
  result.proc_of_task = inc.proc_of_task();
  result.routing = inc.routing();
  return result;
}

SweepStats refine_sweeps(const TaskGraph& graph, const Topology& topo,
                         IncrementalCompletion& inc, int load_bound_B,
                         const Deadline& deadline) {
  std::vector<int> tasks_on_proc(static_cast<std::size_t>(topo.num_procs()),
                                 0);
  for (const int p : inc.proc_of_task()) {
    ++tasks_on_proc[static_cast<std::size_t>(p)];
  }

  // Communication partners are phase-independent: computed once.
  const Graph partners = graph.aggregate_graph();
  std::vector<int> candidates;
  return sweep_until_stable(
      inc, std::views::iota(0, graph.num_tasks()), /*max_sweeps=*/4,
      deadline,
      [&](int t, int /*sweep*/) -> const std::vector<int>& {
        const int here = inc.proc_of_task()[static_cast<std::size_t>(t)];
        candidates.clear();
        for (const auto& a : topo.graph().neighbors(here)) {
          candidates.push_back(a.neighbor);
        }
        for (const auto& a : partners.neighbors(t)) {
          candidates.push_back(
              inc.proc_of_task()[static_cast<std::size_t>(a.neighbor)]);
        }
        std::sort(candidates.begin(), candidates.end());
        candidates.erase(std::unique(candidates.begin(), candidates.end()),
                         candidates.end());
        std::erase_if(candidates, [&](int q) {
          return load_bound_B > 0 &&
                 tasks_on_proc[static_cast<std::size_t>(q)] >= load_bound_B;
        });
        return candidates;
      },
      [&](const Move& move) {
        --tasks_on_proc[static_cast<std::size_t>(move.from)];
        ++tasks_on_proc[static_cast<std::size_t>(move.to)];
      });
}

}  // namespace oregami
