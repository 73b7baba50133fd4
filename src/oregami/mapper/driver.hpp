// The MAPPER driver: strategy selection per the paper's Fig 3.
//
//   1. Nameable task graphs -> canned contraction/embedding lookup
//      (LaRCS `family` hint first, structural recognition otherwise).
//   2. Regular structure:
//      a. uniform affine recurrences -> systolic synthesis (only via
//         map_program, which has the LaRCS AST);
//      b. node-symmetric / Cayley task graphs -> group-theoretic
//         contraction.
//   3. Arbitrary graphs -> MWM-Contract.
// Embedding: canned when the *cluster* graph is itself nameable, else
// NN-Embed. Routing: always MM-Route.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "oregami/arch/fault_model.hpp"
#include "oregami/arch/topology.hpp"
#include "oregami/core/mapping.hpp"
#include "oregami/core/task_graph.hpp"
#include "oregami/larcs/compiler.hpp"
#include "oregami/mapper/mm_route.hpp"
#include "oregami/support/deadline.hpp"

namespace oregami {

enum class MapStrategy {
  Canned,
  GroupTheoretic,
  Systolic,
  General,       ///< MWM-Contract + NN-Embed
  Anneal,        ///< simulated annealing over placements (portfolio only)
  ListSchedule,  ///< HEFT critical-path list scheduling (portfolio only)
  Multilevel,    ///< coarsen/map/refine V-cycle for large graphs
};

[[nodiscard]] std::string to_string(MapStrategy strategy);

struct MapperOptions {
  RouteOptions routing;
  bool allow_canned = true;
  bool allow_group = true;
  bool allow_systolic = true;
  int load_bound_B = -1;  ///< MWM-Contract bound; < 0 = default
  /// Polish the general path's contraction with the KL/FM boundary
  /// refinement pass (see refine.hpp).
  bool refine = false;
  /// Polish the final placement of *any* strategy by hill climbing on
  /// the completion model itself (refine_placement in refine.hpp,
  /// powered by the incremental evaluator). Off by default: it may
  /// change outputs, and the portfolio's bit-determinism contract pins
  /// the default pipeline.
  bool refine_placement = false;
  /// Portfolio mode (mapper/portfolio.hpp): when > 0, every admissible
  /// Fig-3 strategy plus this many seeded general-path variants run
  /// concurrently and the best-scoring mapping wins. The result is
  /// bit-deterministic in `portfolio_seed` and independent of `jobs`.
  int portfolio = 0;
  /// Extra portfolio candidates (check_mapper_options: both need
  /// `portfolio` > 0): `anneal` seeded simulated-annealing chains
  /// (mapper/anneal.hpp) and the HEFT critical-path list schedule
  /// (mapper/list_schedule.hpp).
  int anneal = 0;
  bool heft = false;
  /// Multilevel V-cycle mapper (mapper/multilevel.hpp) for large
  /// graphs: 0 = off, -1 = automatic coarsening depth, 1..64 = that many
  /// coarsening levels at most. It replaces the whole Fig-3 decision
  /// tree, so it excludes `portfolio`; the degraded-mode redirect still
  /// composes -- faults are applied first, then the V-cycle runs on the
  /// healthy sub-topology.
  int multilevel = 0;
  /// Wall-clock budget (support/deadline.hpp idiom) for the portfolio
  /// search and the multilevel refinement sweeps alike: 0 = none,
  /// < 0 = already expired (the portfolio runs only candidate 0).
  std::int64_t time_budget_ms = 0;
  int jobs = 1;  ///< portfolio/multilevel workers; 0 = hardware_concurrency
  std::uint64_t portfolio_seed = 0x09E6A311u;  ///< candidate RNG base seed
  /// Degraded-mode mapping (not owned; must outlive the call). When set
  /// with a non-empty FaultSpec, map_computation/map_program run the
  /// whole pipeline on the compacted healthy sub-topology and translate
  /// the result back to base processor/link ids, so the returned
  /// mapping avoids every dead processor and link. nullptr (or an empty
  /// spec) leaves the pipeline byte-identical to the healthy path.
  const FaultedTopology* faults = nullptr;
};

struct PortfolioReport;

struct MapperReport {
  MapStrategy strategy = MapStrategy::General;
  std::string details;  ///< human-readable algorithm description
  Mapping mapping;
  /// The portfolio search behind this mapping (candidate table,
  /// provenance, Pareto front); null unless `MapperOptions::portfolio`
  /// > 0, and set on the degraded-mode path too. Its `best` is moved
  /// out into this report, so read the winner from here.
  std::shared_ptr<const PortfolioReport> portfolio;
};

/// Upper bounds on the options that size a job's work or its threads.
/// They sit above every value the tests, benches and CI use; an input
/// beyond them is refused before it costs anything.
inline constexpr int kMaxPortfolio = 1024;   ///< seeded candidates
inline constexpr int kMaxAnneal = 256;       ///< annealing chains
inline constexpr int kMaxJobs = 256;         ///< worker threads
inline constexpr int kMaxMultilevel = 64;    ///< coarsening levels

/// Checks the option ranges and combinations every front end shares:
/// `portfolio`, `anneal` and `jobs` lie in 0..their kMax* bound,
/// `time_budget_ms` is at most kMaxDeadlineMs, `multilevel` is 0, -1
/// or 1..64, `anneal` and `heft` need `portfolio` > 0, and `multilevel`
/// excludes `portfolio`. Returns "" when the options are valid, else a
/// message naming each option as `prefix` + wire key ("options." for
/// the wire), or by its CLI flag when `prefix` is "--".
[[nodiscard]] std::string check_mapper_options(const MapperOptions& options,
                                               std::string_view prefix);

/// How a mapper option is spelled and stored.
enum class MapperOptionKind {
  Count,     ///< an int; wire integer, CLI `FLAG N`
  Levels,    ///< an int; wire integer, CLI `FLAG [LEVELS]` (omitted = -1)
  Presence,  ///< a bool; wire boolean, CLI switch sets it
  Negated,   ///< a bool stored inverted (`no_*`); CLI switch clears it
  Seed,      ///< a uint64; wire integer >= 0, CLI `FLAG S`
  Millis,    ///< an int64; wire integer, CLI `FLAG MS` (>= 0)
};

/// One mapper option, declared once for every front end: the wire's
/// `options` object reads it by `key`, oregami_map by `flag`, and both
/// store through `member`; check_mapper_options holds its rules.
struct MapperOptionSpec {
  std::string_view key;   ///< wire key under "options"
  std::string_view flag;  ///< oregami_map flag; empty = wire-only
  MapperOptionKind kind = MapperOptionKind::Count;
  std::variant<int MapperOptions::*, bool MapperOptions::*,
               std::int64_t MapperOptions::*, std::uint64_t MapperOptions::*>
      member;
  std::string_view help;  ///< oregami_map usage line
};

/// Every mapper option, in the order the wire's "known:" list names
/// them.
[[nodiscard]] std::span<const MapperOptionSpec> mapper_options();

/// Stores `value` into the spec's member (a bool kind stores
/// `value != 0`, inverted for Negated).
void set_mapper_option(MapperOptions& options, const MapperOptionSpec& spec,
                       std::int64_t value);

/// Maps a task graph (no LaRCS context) to `topo`. Tries canned, then
/// group-theoretic, then the general path.
[[nodiscard]] MapperReport map_computation(
    const TaskGraph& graph, const Topology& topo,
    const MapperOptions& options = {});

/// Maps a compiled LaRCS program: additionally honours the `family`
/// hint and attempts systolic synthesis for uniform recurrences when
/// the target is a mesh/chain-like array.
[[nodiscard]] MapperReport map_program(
    const larcs::Program& program, const larcs::CompiledProgram& compiled,
    const Topology& topo, const MapperOptions& options = {});

/// The LaRCS program behind a task graph (`compiled.graph`), for callers
/// that have one: it admits systolic synthesis and the family hint.
struct ProgramInput {
  const larcs::Program& ast;
  const larcs::CompiledProgram& compiled;
};

/// One strategy of the Fig-3 chain, run on its own: `run` returns
/// nullopt when the strategy is inadmissible for the inputs.
struct StrategyAttempt {
  std::string label;
  std::function<std::optional<MapperReport>()> run;
};

/// The Fig-3 chain ahead of the general path, in order and as the
/// `allow_*` gates admit: "systolic" (only with a `program`), "canned"
/// (the program's family hint first when `family_hint`), and
/// "group-theoretic". The single-shot mapper takes the first that maps;
/// the portfolio runs each as a candidate. The attempts reference
/// `graph`, `program` and `topo`, which must outlive them.
[[nodiscard]] std::vector<StrategyAttempt> fig3_strategies(
    const TaskGraph& graph, const ProgramInput* program, const Topology& topo,
    const MapperOptions& options, bool family_hint);

/// The general path (MWM-Contract [+ refine] + NN-Embed + MM-Route)
/// with an explicit NN-Embed tie-break seed; `nn_seed` = 0 keeps the
/// deterministic lowest-id rule (and the canned cluster-graph
/// shortcut), a non-zero seed forces seeded NN-Embed so each portfolio
/// candidate explores a different corner of the tie space.
[[nodiscard]] MapperReport map_general_seeded(const TaskGraph& graph,
                                              const Topology& topo,
                                              const MapperOptions& options,
                                              std::uint64_t nn_seed);

/// Embeds an arbitrary contraction: canned lookup when the cluster
/// graph is nameable, NN-Embed otherwise. Exposed for reuse by tools.
/// A non-zero `nn_seed` skips the canned shortcut and uses seeded
/// NN-Embed tie-breaking (see nn_embed.hpp).
[[nodiscard]] Embedding embed_clusters(const TaskGraph& graph,
                                       const Contraction& contraction,
                                       const Topology& topo,
                                       std::string* how = nullptr,
                                       std::uint64_t nn_seed = 0);

/// Rebuilds the three-layer Mapping from a flat task placement:
/// clusters are the occupied processors in ascending order. Shared by
/// placement refinement, repair, and the annealing/list-scheduling
/// portfolio candidates.
[[nodiscard]] Mapping mapping_from_placement(
    const std::vector<int>& proc_of_task, std::vector<PhaseRouting> routing,
    int num_procs);

/// Builds the weighted cluster graph induced by a contraction
/// (inter-cluster aggregate communication).
[[nodiscard]] Graph cluster_graph_of(const TaskGraph& graph,
                                     const Contraction& contraction);

/// Full-mapping consistency check: contraction covers the tasks,
/// embedding is injective into `topo`, and every route is a valid walk
/// from the source task's processor to the destination task's
/// processor. Throws MappingError on the first violation.
void validate_mapping(const Mapping& mapping, const TaskGraph& graph,
                      const Topology& topo);

}  // namespace oregami
