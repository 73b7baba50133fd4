#include "oregami/metrics/completion_model.hpp"

#include <algorithm>
#include <string>

#include "oregami/core/phase_fold.hpp"
#include "oregami/support/error.hpp"

namespace oregami {

std::int64_t comm_phase_time(const TaskGraph& graph, int phase_index,
                             const PhaseRouting& routing,
                             const Topology& topo, const CostModel& model,
                             const std::vector<std::int64_t>& link_factor) {
  const auto& phase =
      graph.comm_phases()[static_cast<std::size_t>(phase_index)];
  OREGAMI_ASSERT(routing.route_of_edge.size() == phase.edges.size(),
                 "routing must cover the phase");
  // Scratch reused across calls (per thread): refinement sweeps and
  // portfolio scoring call this in a tight loop, and the per-call
  // vector allocation dominated the profile.
  thread_local std::vector<std::int64_t> volume_on_link;
  volume_on_link.assign(static_cast<std::size_t>(topo.num_links()), 0);
  int max_hops = 0;
  for (std::size_t i = 0; i < phase.edges.size(); ++i) {
    const auto& route = routing.route_of_edge[i];
    for (const int link : route.links) {
      const auto l = static_cast<std::size_t>(link);
      volume_on_link[l] += phase.edges[i].volume *
                           (link_factor.empty() ? 1 : link_factor[l]);
    }
    max_hops = std::max(max_hops, route.hops());
  }
  const std::int64_t max_volume =
      volume_on_link.empty()
          ? 0
          : *std::max_element(volume_on_link.begin(), volume_on_link.end());
  return model.comm_time(max_volume, max_hops);
}

std::int64_t exec_phase_time(const TaskGraph& graph, int phase_index,
                             const std::vector<int>& proc_of_task,
                             int num_procs) {
  const auto& phase =
      graph.exec_phases()[static_cast<std::size_t>(phase_index)];
  thread_local std::vector<std::int64_t> load;
  load.assign(static_cast<std::size_t>(num_procs), 0);
  for (int t = 0; t < graph.num_tasks(); ++t) {
    load[static_cast<std::size_t>(proc_of_task[static_cast<std::size_t>(t)])] +=
        phase.cost[static_cast<std::size_t>(t)];
  }
  return load.empty() ? 0 : *std::max_element(load.begin(), load.end());
}

std::int64_t completion_time(const TaskGraph& graph,
                             const std::vector<int>& proc_of_task,
                             const std::vector<PhaseRouting>& routing,
                             const Topology& topo, const CostModel& model,
                             const std::vector<std::int64_t>& link_factor) {
  OREGAMI_ASSERT(routing.size() == graph.comm_phases().size(),
                 "routing must cover every phase");
  return fold_phases(
      graph,
      [&](int k) {
        return comm_phase_time(graph, k,
                               routing[static_cast<std::size_t>(k)], topo,
                               model, link_factor);
      },
      [&](int k) {
        return exec_phase_time(graph, k, proc_of_task, topo.num_procs());
      });
}

PlacementObjectives extract_objectives(
    const TaskGraph& graph, const std::vector<int>& proc_of_task,
    const std::vector<PhaseRouting>& routing, const Topology& topo,
    const CostModel& model) {
  OREGAMI_ASSERT(routing.size() == graph.comm_phases().size(),
                 "routing must cover every phase");
  PlacementObjectives obj;
  for (std::size_t k = 0; k < graph.comm_phases().size(); ++k) {
    obj.comm_time.push_back(comm_phase_time(graph, static_cast<int>(k),
                                            routing[k], topo, model));
  }
  for (std::size_t k = 0; k < graph.exec_phases().size(); ++k) {
    obj.exec_time.push_back(exec_phase_time(graph, static_cast<int>(k),
                                            proc_of_task, topo.num_procs()));
  }
  obj.completion = fold_phases(
      graph, [&](int k) { return obj.comm_time[static_cast<std::size_t>(k)]; },
      [&](int k) { return obj.exec_time[static_cast<std::size_t>(k)]; });

  const PhaseMultiplicity mult = graph.phase_multiplicity();
  for (std::size_t k = 0; k < graph.comm_phases().size(); ++k) {
    std::int64_t phase_volume = 0;
    for (const auto& e : graph.comm_phases()[k].edges) {
      if (proc_of_task[static_cast<std::size_t>(e.src)] !=
          proc_of_task[static_cast<std::size_t>(e.dst)]) {
        phase_volume += e.volume;
      }
    }
    obj.external_ipc += phase_volume * mult.comm[k];
  }

  const std::vector<std::int64_t> weight =
      graph.exec_weight_per_task(mult.exec);
  std::vector<std::int64_t> load(static_cast<std::size_t>(topo.num_procs()),
                                 0);
  for (std::size_t t = 0; t < weight.size(); ++t) {
    load[static_cast<std::size_t>(proc_of_task[t])] += weight[t];
  }
  obj.max_load =
      load.empty() ? 0 : *std::max_element(load.begin(), load.end());
  return obj;
}

std::int64_t degraded_completion_time(
    const TaskGraph& graph, const std::vector<int>& proc_of_task,
    const std::vector<PhaseRouting>& routing, const FaultedTopology& faults,
    const CostModel& model) {
  for (int t = 0; t < graph.num_tasks(); ++t) {
    const int p = proc_of_task[static_cast<std::size_t>(t)];
    if (!faults.proc_alive(p)) {
      throw MappingError("task " + std::to_string(t) +
                         " is placed on dead processor " +
                         std::to_string(p));
    }
  }
  for (std::size_t k = 0; k < routing.size(); ++k) {
    for (std::size_t m = 0; m < routing[k].route_of_edge.size(); ++m) {
      if (!faults.route_alive(routing[k].route_of_edge[m])) {
        throw MappingError("comm phase " + std::to_string(k) +
                           " message " + std::to_string(m) +
                           " is routed across a dead link or processor");
      }
    }
  }
  return completion_time(graph, proc_of_task, routing, faults.base(), model,
                         faults.link_slowdowns());
}

void check_model_bound(const TaskGraph& graph, const Topology& topo,
                       const std::vector<std::int64_t>& link_factor) {
  const std::int64_t max_link_factor =
      link_factor.empty()
          ? 1
          : *std::max_element(link_factor.begin(), link_factor.end());
  const PhaseMultiplicity mult = graph.phase_multiplicity();
  bool overflow = false;
  const auto mul_add = [&](std::int64_t a, std::int64_t b, std::int64_t c) {
    std::int64_t out = 0;
    overflow |= __builtin_mul_overflow(b, c, &out);
    overflow |= __builtin_add_overflow(a, out, &out);
    return out;  // a + b * c
  };
  std::int64_t bound = 0;
  for (std::size_t k = 0; k < graph.comm_phases().size(); ++k) {
    const auto& edges = graph.comm_phases()[k].edges;
    auto pass = static_cast<std::int64_t>(edges.size());
    for (const CommEdge& e : edges) {
      pass = mul_add(pass, e.volume, max_link_factor);
    }
    bound = mul_add(bound, mult.comm[k], mul_add(0, pass, topo.num_procs()));
  }
  for (std::size_t k = 0; k < graph.exec_phases().size(); ++k) {
    std::int64_t pass = 0;
    for (const std::int64_t c : graph.exec_phases()[k].cost) {
      pass = mul_add(pass, c, 1);
    }
    bound = mul_add(bound, mult.exec[k], pass);
  }
  if (overflow) {
    throw MappingError(
        "the phase expression's repetition counts make the modelled "
        "completion time overflow 64 bits on " +
        topo.name());
  }
}

}  // namespace oregami
