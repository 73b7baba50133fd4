#include "oregami/server/digest.hpp"

namespace oregami::server {

namespace {

void fold_phase_tree(Fnv1a& h, const PhaseTree& t) {
  h.i32(static_cast<int>(t.kind));
  h.i32(t.phase_index);
  h.i64(t.count);
  h.u64(t.children.size());
  for (const PhaseTree& child : t.children) {
    fold_phase_tree(h, child);
  }
}

}  // namespace

void fold_task_graph(Fnv1a& h, const TaskGraph& graph) {
  h.i32(graph.num_tasks());
  for (int t = 0; t < graph.num_tasks(); ++t) {
    h.str(graph.task_name(t));
    const auto& label = graph.task_label(t);
    h.u64(label.size());
    for (const long x : label) {
      h.i64(x);
    }
  }
  h.u64(graph.comm_phases().size());
  for (const CommPhase& phase : graph.comm_phases()) {
    h.str(phase.name);
    h.u64(phase.edges.size());
    for (const CommEdge& e : phase.edges) {
      h.i32(e.src);
      h.i32(e.dst);
      h.i64(e.volume);
    }
  }
  h.u64(graph.exec_phases().size());
  for (const ExecPhase& phase : graph.exec_phases()) {
    h.str(phase.name);
    h.u64(phase.cost.size());
    for (const std::int64_t c : phase.cost) {
      h.i64(c);
    }
  }
  fold_phase_tree(h, graph.phase_expr());
  h.boolean(graph.declared_node_symmetric());
}

void fold_topology(Fnv1a& h, const Topology& topo) {
  h.i32(static_cast<int>(topo.family()));
  h.u64(topo.shape().size());
  for (const int d : topo.shape()) {
    h.i32(d);
  }
  h.i32(topo.num_procs());
  h.i32(topo.num_links());
  // Regular families are fully determined by (family, shape); only a
  // Custom topology needs its link list folded (normalized u < v in
  // link-id order, which construction fixes deterministically).
  if (topo.family() == TopoFamily::Custom) {
    h.str(topo.name());
    for (int l = 0; l < topo.num_links(); ++l) {
      const auto [u, v] = topo.link_endpoints(l);
      h.i32(u);
      h.i32(v);
    }
  }
}

template <class Sink>
void fold_options(CanonicalFold<Sink>& h, const MapperOptions& options) {
  h.boolean(options.allow_canned);
  h.boolean(options.allow_group);
  h.boolean(options.allow_systolic);
  h.i32(options.load_bound_B);
  h.boolean(options.refine);
  h.boolean(options.refine_placement);
  h.i32(options.portfolio);
  h.i32(options.anneal);
  h.boolean(options.heft);
  h.i32(options.multilevel);
  h.i64(options.time_budget_ms);
  h.u64(options.portfolio_seed);
  // `jobs` is deliberately NOT folded: the worker count never changes
  // any result (the portfolio/multilevel determinism contract), so two
  // requests differing only in parallelism share a cache entry.
  const bool degraded =
      options.faults != nullptr && !options.faults->spec().empty();
  h.boolean(degraded);
  if (degraded) {
    h.str(options.faults->spec().to_string());
  }
}

template void fold_options(CanonicalFold<Fnv1a>&, const MapperOptions&);
template void fold_options(CanonicalFold<CanonicalBytes>&,
                           const MapperOptions&);

std::uint64_t job_digest(const TaskGraph& graph, const Topology& topo,
                         const MapperOptions& options) {
  Fnv1a h;
  h.u64(kDigestVersion);
  fold_task_graph(h, graph);
  fold_topology(h, topo);
  fold_options(h, options);
  return h.digest();
}

std::string front_key(const WireJob& job) {
  if (!job.program_file.empty()) {
    return {};
  }
  CanonicalBytes key;
  // The tag keeps a program name apart from inline source that happens
  // to spell the same bytes.
  key.boolean(job.program.empty());
  key.str(job.program.empty() ? job.larcs : job.program);
  key.u64(job.bindings.size());
  for (const auto& [name, value] : job.bindings) {  // std::map: name order
    key.str(name);
    key.i64(value);
  }
  key.str(job.topology);
  fold_options(key, job.options);
  return key.take();
}

}  // namespace oregami::server
