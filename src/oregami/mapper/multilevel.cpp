#include "oregami/mapper/multilevel.hpp"

#include <algorithm>
#include <array>
#include <future>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "oregami/core/csr_graph.hpp"
#include "oregami/mapper/baselines.hpp"
#include "oregami/mapper/local_search.hpp"
#include "oregami/mapper/nn_embed.hpp"
#include "oregami/support/deadline.hpp"
#include "oregami/support/error.hpp"
#include "oregami/support/thread_pool.hpp"
#include "oregami/support/trace.hpp"

namespace oregami {

namespace {

// One rung of the V-cycle: the graph at this resolution, plus the
// projection onto the next-coarser level (empty at the coarsest).
struct Level {
  CsrTaskGraph csr;
  std::vector<std::int32_t> coarse_of_fine;
};

struct Proposal {
  std::int32_t task = 0;
  std::int32_t to = 0;
};

// Best strictly-gainful destination for `v` under the frozen
// `placement`, or -1. Gain is the weighted-distance improvement of v's
// own incident edges (the same objective NN-Embed greedily optimises);
// the serial commit re-probes with the exact completion delta, so this
// only has to be a good filter, not a perfect score. Pure function of
// (csr, topo, placement) — safe to fan out over workers.
int propose_move(const CsrTaskGraph& csr, const Topology& topo,
                 const std::vector<int>& placement, int v,
                 std::vector<int>& candidates) {
  const int p = placement[static_cast<std::size_t>(v)];
  candidates.clear();
  for (std::int32_t i = csr.offsets[v]; i < csr.offsets[v + 1]; ++i) {
    const int q = placement[static_cast<std::size_t>(csr.neighbors[i])];
    if (q != p) candidates.push_back(q);
  }
  for (const Adjacency& a : topo.graph().neighbors(p)) {
    candidates.push_back(a.neighbor);
  }

  const DistanceRow row_p = topo.distance_row(p);
  std::int64_t base = 0;
  for (std::int32_t i = csr.offsets[v]; i < csr.offsets[v + 1]; ++i) {
    base += csr.edge_weight[i] *
            row_p[placement[static_cast<std::size_t>(csr.neighbors[i])]];
  }

  int best = -1;
  std::int64_t best_gain = 0;
  for (const int q : candidates) {
    if (q == p) continue;
    const DistanceRow row_q = topo.distance_row(q);
    std::int64_t cost = 0;
    for (std::int32_t i = csr.offsets[v]; i < csr.offsets[v + 1]; ++i) {
      cost += csr.edge_weight[i] *
              row_q[placement[static_cast<std::size_t>(csr.neighbors[i])]];
    }
    const std::int64_t gain = base - cost;
    // Strictly positive gain, ties to the lowest processor id; a
    // candidate listed twice can never displace itself.
    if (gain > best_gain || (gain == best_gain && best != -1 && q < best)) {
      best = q;
      best_gain = gain;
    }
  }
  return best;
}

// One level's boundary refinement. Workers propose against a frozen
// placement (chunked in ascending task order, futures collected in
// submission order); the caller's thread then walks the proposals in
// that same deterministic order, re-probing each with the exact
// incremental delta and committing only strict improvements. The
// result is therefore bit-identical for every worker count.
long refine_level(const CsrTaskGraph& csr, IncrementalCompletion& inc,
                  const Topology& topo, ThreadPool& pool, int rounds,
                  const Deadline& deadline, int level) {
  constexpr int kChunk = 512;
  const int n = csr.num_vertices();
  long total_moves = 0;
  std::vector<std::int32_t> boundary;
  for (int round = 0; round < rounds; ++round) {
    if (deadline.passed()) break;
    const std::vector<int>& placement = inc.proc_of_task();

    boundary.clear();
    for (int v = 0; v < n; ++v) {
      const int p = placement[static_cast<std::size_t>(v)];
      for (std::int32_t i = csr.offsets[v]; i < csr.offsets[v + 1]; ++i) {
        if (placement[static_cast<std::size_t>(csr.neighbors[i])] != p) {
          boundary.push_back(v);
          break;
        }
      }
    }
    if (boundary.empty()) break;

    const int num_chunks =
        (static_cast<int>(boundary.size()) + kChunk - 1) / kChunk;
    std::vector<std::future<std::vector<Proposal>>> futures;
    futures.reserve(static_cast<std::size_t>(num_chunks));
    for (int c = 0; c < num_chunks; ++c) {
      const int begin = c * kChunk;
      const int end = std::min(begin + kChunk,
                               static_cast<int>(boundary.size()));
      futures.push_back(pool.submit(
          [&csr, &topo, &placement, &boundary, begin, end, level, c]() {
            trace::LaneScope lane("multilevel/level#" + std::to_string(level) +
                                      "/chunk#" + std::to_string(c),
                                  c + 1);
            trace::Span span("propose");
            std::vector<Proposal> out;
            std::vector<int> scratch;
            for (int i = begin; i < end; ++i) {
              const int v = boundary[static_cast<std::size_t>(i)];
              const int q = propose_move(csr, topo, placement, v, scratch);
              if (q != -1) out.push_back({v, q});
            }
            return out;
          }));
    }

    // Drain every worker before the first commit: the frozen placement
    // the workers read must stay frozen until the proposal phase is
    // completely over.
    std::vector<Proposal> proposals;
    for (auto& f : futures) {
      std::vector<Proposal> chunk = f.get();
      proposals.insert(proposals.end(), chunk.begin(), chunk.end());
    }

    long moves = 0;
    for (const Proposal& p : proposals) {
      const Move move =
          try_move(inc, p.task, std::array{p.to}, strict_improvement);
      if (move.to >= 0) ++moves;
    }
    inc.clear_history();
    trace::counter("boundary", static_cast<std::int64_t>(boundary.size()));
    trace::counter("moves", moves);
    total_moves += moves;
    if (moves == 0) break;
  }
  return total_moves;
}

}  // namespace

MapperReport map_multilevel(const TaskGraph& graph, const Topology& topo,
                            const MultilevelOptions& options) {
  if (graph.num_tasks() == 0) {
    throw MappingError("multilevel: empty task graph");
  }
  if (topo.num_procs() > 1 && topo.num_links() == 0) {
    throw MappingError("multilevel: topology has no links");
  }
  trace::Span span("multilevel");
  const Deadline deadline(options.time_budget_ms);
  const int num_procs = topo.num_procs();

  // 1. Coarsen until one super-task per processor (or a level cap /
  // stalled matching — an edgeless graph matches nothing).
  std::vector<Level> levels;
  levels.push_back({CsrTaskGraph::from_task_graph(graph), {}});
  const int max_levels = options.max_levels <= 0
                             ? std::numeric_limits<int>::max()
                             : options.max_levels;
  while (static_cast<int>(levels.size()) - 1 < max_levels) {
    const CsrTaskGraph& cur = levels.back().csr;
    if (cur.num_vertices() <= num_procs) break;
    trace::Span coarsen_span("coarsen#" + std::to_string(levels.size() - 1));
    CoarsenResult step = coarsen_heavy_edge(
        cur, options.seed + levels.size() - 1, num_procs);
    if (step.coarse.num_vertices() == cur.num_vertices()) break;
    trace::counter("vertices", step.coarse.num_vertices());
    trace::counter("edges", step.coarse.num_edges());
    trace::counter("internalized_volume", step.internalized_weight);
    levels.back().coarse_of_fine = std::move(step.coarse_of_fine);
    levels.push_back({std::move(step.coarse), {}});
  }

  // 2. Initial map of the coarsest graph with the seed machinery.
  std::vector<int> placement;
  const char* init_how = nullptr;
  {
    trace::Span init_span("initial_map");
    const CsrTaskGraph& coarsest = levels.back().csr;
    const int nc = coarsest.num_vertices();
    placement.assign(static_cast<std::size_t>(nc), 0);
    if (nc <= num_procs) {
      const Embedding embedding =
          nn_embed_seeded(coarsest.to_graph(), topo, options.seed);
      for (int c = 0; c < nc; ++c) {
        placement[static_cast<std::size_t>(c)] =
            embedding.proc_of_cluster[static_cast<std::size_t>(c)];
      }
      init_how = "NN-Embed";
    } else {
      // A level cap can leave more super-tasks than processors;
      // round-robin balances loads and refinement untangles the rest.
      for (int c = 0; c < nc; ++c) {
        placement[static_cast<std::size_t>(c)] = c % num_procs;
      }
      init_how = "round-robin";
    }
  }

  // 3. Uncoarsen level by level, refining at each resolution.
  ThreadPool pool(ThreadPool::resolve_workers(options.jobs), "oregami-ml");
  long total_moves = 0;
  Mapping mapping;
  for (int k = static_cast<int>(levels.size()) - 1; k >= 0; --k) {
    trace::Span level_span("level#" + std::to_string(k));
    const Level& level = levels[static_cast<std::size_t>(k)];
    trace::counter("vertices", level.csr.num_vertices());
    // Level 0 scores the real task graph, so the last sweeps optimise
    // the exact completion; coarser levels score their one-phase
    // aggregate (same bottleneck structure, far fewer vertices). Greedy
    // routes are the rule IncrementalCompletion re-routes moved edges
    // with, so the evaluator starts cache-consistent.
    const TaskGraph coarse = k == 0 ? TaskGraph() : level.csr.to_task_graph();
    const TaskGraph& level_graph = k == 0 ? graph : coarse;
    IncrementalCompletion inc(
        level_graph, topo, placement,
        route_greedy_shortest(level_graph, placement, topo), options.model);
    total_moves += refine_level(level.csr, inc, topo, pool,
                                options.refine_rounds, deadline, k);
    if (k == 0) {
      trace::counter("completion", inc.completion());
      mapping =
          mapping_from_placement(inc.proc_of_task(), inc.routing(), num_procs);
    } else {
      const std::vector<std::int32_t>& projection =
          levels[static_cast<std::size_t>(k - 1)].coarse_of_fine;
      std::vector<int> fine(projection.size());
      for (std::size_t v = 0; v < fine.size(); ++v) {
        fine[v] = inc.proc_of_task()[static_cast<std::size_t>(projection[v])];
      }
      placement = std::move(fine);
    }
  }

  MapperReport report;
  report.strategy = MapStrategy::Multilevel;
  report.details =
      "multilevel V-cycle: " + std::to_string(levels.size()) + " level(s), " +
      std::to_string(levels.front().csr.num_vertices()) + " -> " +
      std::to_string(levels.back().csr.num_vertices()) +
      " super-tasks; coarsest map " + init_how + "; " +
      std::to_string(total_moves) + " refining moves";
  report.mapping = std::move(mapping);
  return report;
}

}  // namespace oregami
