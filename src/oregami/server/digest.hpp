// Canonical content digests for mapping jobs: a job is addressed by
// the FNV-1a digest (support/hash.hpp) of its *compiled* inputs --
// (TaskGraph, Topology, normalized MapperOptions) -- so two requests
// that mean the same mapping problem share one cache entry no matter
// how they were spelled (built-in program vs. identical inline source,
// different --jobs values, reordered option fields).
//
// Canonicalization rules (DESIGN.md §"Service architecture"):
//   * the task graph is folded structurally: task names + label
//     tuples, comm phases as (name, edge list) in declaration order,
//     exec phases as (name, cost vector), the phase-expression tree,
//     and the node-symmetry declaration. Declaration order is part of
//     the identity: the compiler emits it deterministically.
//   * the topology is folded structurally (family, shape, P, L, and
//     for Custom the full normalized link list), NOT by its display
//     name.
//   * MapperOptions folds only fields that can change the produced
//     mapping: strategy gates, load bound, refinement toggles,
//     portfolio/anneal/heft/multilevel knobs, seeds, and budgets.
//     `jobs` is excluded (worker count never changes results -- the
//     portfolio determinism contract), and an attached FaultedTopology
//     folds its FaultSpec string.
//   * kDigestVersion is folded first, so changing any rule above can
//     never alias an old cache entry.
//
// The front key (DESIGN.md §18) addresses the same job by its *wire*
// spelling instead -- the bytes a request names before anything is
// compiled -- so a repeated request can find its digest without
// running the compiler.
#pragma once

#include <cstdint>
#include <string>

#include "oregami/arch/topology.hpp"
#include "oregami/core/task_graph.hpp"
#include "oregami/mapper/driver.hpp"
#include "oregami/server/wire.hpp"
#include "oregami/support/hash.hpp"

namespace oregami::server {

/// Folds the task graph structurally into `h`.
void fold_task_graph(Fnv1a& h, const TaskGraph& graph);

/// Folds the topology structurally into `h`.
void fold_topology(Fnv1a& h, const Topology& topo);

/// Folds the result-affecting subset of MapperOptions into `h`: the
/// digest's Fnv1a, or the front key's CanonicalBytes.
template <class Sink>
void fold_options(CanonicalFold<Sink>& h, const MapperOptions& options);

/// The canonical job digest: version + graph + topology + options.
[[nodiscard]] std::uint64_t job_digest(const TaskGraph& graph,
                                       const Topology& topo,
                                       const MapperOptions& options);

/// The front key of a parsed request: the canonical bytes of what it
/// names -- program name or inline source (tagged apart), bindings in
/// name order, the topology spec as written, and the fold_options
/// fields. `id`, `deadline_ms` and `options.jobs` are left out. Empty
/// for a `program_file` job: the file may change between requests, so
/// such a job is never keyed.
[[nodiscard]] std::string front_key(const WireJob& job);

}  // namespace oregami::server
