// oregami_map -- command-line front end for the OREGAMI pipeline.
//
//   oregami_map --program nbody --bind n=15 --bind s=4 --bind m=8
//               --topology hypercube:3 --ascii --links
//   oregami_map --larcs samples/jacobi.larcs --bind n=8 --bind iters=10
//               --topology mesh:4x4 --simulate --directives
//   oregami_map --program wavefront --bind n=6 --topology mesh:4x4
//               --inject-faults p5,s2:4 --repair
//   oregami_map --list-programs
//
// Outputs the MAPPER strategy, the METRICS summary, and optionally the
// assignment layout (--ascii), per-link tables (--links), Graphviz DOT
// (--dot), the discrete-event simulation cross-check (--simulate) and
// per-processor scheduling directives (--directives).
//
// Exit codes (stable; scripted callers rely on them):
//   0  success
//   1  internal error (a bug in oregami_map, not in the input)
//   2  usage error (bad flags / missing required arguments)
//   3  bad input (unreadable file, malformed LaRCS source, bad
//      topology or fault spec, unknown program)
//   4  mapping infeasible (the pipeline or repair could not produce a
//      valid mapping for these inputs)
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "oregami/arch/fault_model.hpp"
#include "oregami/arch/topology_spec.hpp"
#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/mapper/driver.hpp"
#include "oregami/mapper/portfolio.hpp"
#include "oregami/mapper/repair.hpp"
#include "oregami/metrics/metrics.hpp"
#include "oregami/metrics/render.hpp"
#include "oregami/schedule/synchrony.hpp"
#include "oregami/server/digest.hpp"
#include "oregami/server/persist.hpp"
#include "oregami/sim/network_sim.hpp"
#include "oregami/support/cli_flags.hpp"
#include "oregami/support/error.hpp"
#include "oregami/support/hash.hpp"
#include "oregami/support/metrics.hpp"
#include "oregami/support/trace.hpp"

namespace {

using namespace oregami;

constexpr int kExitOk = 0;
constexpr int kExitInternal = 1;
constexpr int kExitUsage = 2;
constexpr int kExitBadInput = 3;
constexpr int kExitInfeasible = 4;

struct Options {
  std::optional<std::string> larcs_file;
  std::optional<std::string> program_name;
  std::map<std::string, long> bindings;
  std::optional<std::string> topology_spec;
  bool list_programs = false;
  bool ascii = false;
  bool dot = false;
  bool links = false;
  bool simulate_flag = false;
  bool directives = false;
  std::optional<std::string> fault_spec;
  std::uint64_t fault_seed = 0;
  bool repair = false;
  std::optional<std::string> trace_file;
  bool trace_summary = false;
  bool explain = false;
  bool pareto = false;
  bool digest = false;
  std::optional<std::string> cache_file;
  std::optional<std::string> metrics_file;
  MapperOptions mapper;
};

std::string bind(Options& options, const cli::Value& value) {
  const std::string text(value.text);
  const auto eq = text.find('=');
  if (eq == std::string::npos) {
    return "--bind expects NAME=VALUE, got '" + text + "'";
  }
  const auto number = cli::parse_integer(value.text.substr(eq + 1));
  if (!number) {
    return "bad --bind value in '" + text + "'";
  }
  options.bindings[text.substr(0, eq)] = *number;
  return {};
}

/// Stores a mapper flag through the mapper option table.
std::string set_mapper_flag(Options& options, const cli::Value& value) {
  const auto table = mapper_options();
  const auto spec =
      std::ranges::find(table, value.flag, &MapperOptionSpec::flag);
  const bool auto_depth =
      spec->kind == MapperOptionKind::Levels && value.text.empty();
  set_mapper_option(options.mapper, *spec, auto_depth ? -1 : value.number);
  return {};
}

using cli::Arg;
using cli::store;

constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

/// How oregami_map spells each MapperOptionKind, in enum order.
constexpr struct {
  Arg arg;
  std::string_view metavar;
  std::int64_t lo, hi;
} kMapperFlagSpelling[] = {
    {Arg::Int, "N", std::numeric_limits<int>::min(),
     std::numeric_limits<int>::max()},                // Count
    {Arg::OptionalInt, "[LEVELS]", 1, kMaxMultilevel},  // Levels
    {Arg::None, "", 0, 0},                              // Presence
    {Arg::None, "", 0, 0},                              // Negated
    {Arg::Int, "S", 0, kInt64Max},                      // Seed
    {Arg::Int, "MS", 0, kInt64Max},                     // Millis
};
static_assert(std::size(kMapperFlagSpelling) ==
              static_cast<std::size_t>(MapperOptionKind::Millis) + 1);

constexpr cli::Flag<Options> kFlags[] = {
    {"--program", Arg::String, "NAME", "pick a built-in LaRCS program",
     store<&Options::program_name>},
    {"--larcs", Arg::String, "FILE", "read a LaRCS source file",
     store<&Options::larcs_file>},
    {"--bind", Arg::String, "NAME=VALUE", "bind an algorithm parameter/import",
     bind},
    {"--topology", Arg::String, "SPEC", "target architecture",
     store<&Options::topology_spec>},
    {"--list-programs", Arg::None, "", "list the built-in corpus and exit",
     store<&Options::list_programs>},
    {"--ascii", Arg::None, "", "print the placement layout",
     store<&Options::ascii>},
    {"--links", Arg::None, "", "print per-phase link tables",
     store<&Options::links>},
    {"--dot", Arg::None, "", "print Graphviz DOT of the task graph",
     store<&Options::dot>},
    {"--simulate", Arg::None, "", "run the discrete-event cross-check",
     store<&Options::simulate_flag>},
    {"--directives", Arg::None, "", "print per-processor schedules",
     store<&Options::directives>},
    {"--pareto", Arg::None, "", "print the Pareto front (needs --portfolio)",
     store<&Options::pareto>},
    {"--explain", Arg::None, "", "print why the winner won (needs --portfolio)",
     store<&Options::explain>},
    {"--inject-faults", Arg::String, "SPEC",
     "degrade the machine (grammar below)", store<&Options::fault_spec>},
    {"--fault-seed", Arg::Int, "S", "seed for rand:PxLxS fault tokens",
     store<&Options::fault_seed>, 0, kInt64Max},
    {"--repair", Arg::None, "", "map healthy, then repair onto the faults",
     store<&Options::repair>},
    {"--trace", Arg::String, "FILE", "write a Chrome trace-event JSON to FILE",
     store<&Options::trace_file>},
    {"--trace-summary", Arg::None, "", "print the ASCII span tree",
     store<&Options::trace_summary>},
    {"--digest", Arg::None, "", "print the server's cache key and exit",
     store<&Options::digest>},
    {"--cache-file", Arg::String, "PATH", "print a server cache file and exit",
     store<&Options::cache_file>},
    {"--metrics-file", Arg::String, "PATH",
     "write the metrics registry after the run", store<&Options::metrics_file>},
};

/// kFlags followed by the mapper option table's flags.
std::vector<cli::Flag<Options>> all_flags() {
  std::vector<cli::Flag<Options>> flags(std::begin(kFlags), std::end(kFlags));
  for (const MapperOptionSpec& spec : mapper_options()) {
    const auto& spelling =
        kMapperFlagSpelling[static_cast<std::size_t>(spec.kind)];
    if (!spec.flag.empty()) {
      flags.push_back({spec.flag, spelling.arg, spelling.metavar, spec.help,
                       set_mapper_flag, spelling.lo, spelling.hi});
    }
  }
  return flags;
}

int usage(const char* argv0, std::span<const cli::Flag<Options>> flags) {
  std::cerr << "usage: " << argv0 << " [options]\n"
            << cli::usage(flags) << FaultSpec::grammar_help() << "\n"
            << topology_spec_help() << "\n"
            << "exit codes: 0 ok, 1 internal error, 2 usage, 3 bad input, "
               "4 mapping infeasible\n";
  return kExitUsage;
}

/// Maps, measures, and prints. Only MappingError (= the pipeline could
/// not produce a mapping for these inputs) escapes classification here.
int map_and_report(const Options& options, const MapperOptions& mapper,
                   const larcs::Program& ast,
                   const larcs::CompiledProgram& compiled,
                   const Topology& topo,
                   const std::optional<FaultedTopology>& faulted) {
  try {
    MapperReport report = map_program(ast, compiled, topo, mapper);
    const auto& graph = compiled.graph;

    std::cout << "algorithm: " << ast.name << "  (" << graph.num_tasks()
              << " tasks, " << graph.num_comm_edges() << " comm edges)\n"
              << "network:   " << topo.name() << "  (" << topo.num_procs()
              << " processors, " << topo.num_links() << " links)\n";
    if (faulted) {
      std::cout << "faults:    " << faulted->spec().to_string() << "  ("
                << faulted->healthy_procs().size() << "/"
                << topo.num_procs() << " processors healthy, "
                << faulted->num_alive_links() << "/" << topo.num_links()
                << " links alive)\n";
    }
    std::cout << "strategy:  " << to_string(report.strategy) << "\n"
              << "           " << report.details << "\n\n";
    if (report.portfolio) {
      if (options.explain) {
        std::cout << report.portfolio->explain() << "\n";
      } else {
        // The timed table: wall-ms columns, with skipped candidates
        // showing the elapsed time at the cut-off.
        std::cout << "portfolio candidates:\n"
                  << report.portfolio->timed_table() << "\n";
      }
      if (options.pareto) {
        std::cout << report.portfolio->pareto() << "\n";
      }
    }

    // Repair path: the mapping above is the healthy one; repair it onto
    // the degraded machine and print both completions side by side.
    if (faulted && options.repair) {
      RepairOptions ropts;
      ropts.time_budget_ms = options.mapper.time_budget_ms;
      ropts.seed = options.mapper.portfolio_seed;
      ropts.model = {};
      ropts.remap_options = options.mapper;
      ropts.remap_options.faults = nullptr;
      const RepairResult repaired =
          repair_mapping(graph, *faulted, report.mapping, ropts);
      std::cout << "repair:    rung " << to_string(repaired.rung) << "; "
                << repaired.details << "\n"
                << "           healthy completion:  "
                << repaired.healthy_completion << "\n"
                << "           degraded completion: "
                << repaired.degraded_completion << "\n";
      for (const RepairMove& move : repaired.migrations) {
        std::cout << "           task " << move.task << ": proc "
                  << move.from_proc << " -> " << move.to_proc << "\n";
      }
      std::cout << "\n";
      report.mapping = repaired.mapping;
    }

    // In repair mode these metrics describe the repaired mapping (the
    // degraded-completion line above charges the slow links on top).
    const auto metrics = compute_metrics(graph, report.mapping, topo);
    const auto procs = report.mapping.proc_of_task();
    std::cout << render_summary(metrics) << "\n";
    if (faulted && !options.repair) {
      std::cout << "degraded completion (slow links charged): "
                << degraded_completion_time(graph, procs,
                                            report.mapping.routing,
                                            *faulted)
                << "\n\n";
    }

    if (options.ascii) {
      std::cout << "placement:\n"
                << render_ascii_layout(graph, procs, topo) << "\n";
    }
    if (options.links) {
      std::cout << render_link_table(metrics, topo) << "\n";
    }
    if (options.simulate_flag) {
      SimConfig sim_config;
      if (faulted) {
        sim_config.faults = &*faulted;
      }
      const SimResult sim = simulate(graph, procs, report.mapping.routing,
                                     topo, sim_config);
      std::cout << "discrete-event simulation: " << sim.total_cycles
                << " cycles (analytic model: " << metrics.completion
                << ")\n\n";
    }
    if (options.directives) {
      const auto schedule =
          derive_synchrony_sets(graph, procs, topo.num_procs());
      std::cout << "per-processor scheduling directives:\n";
      for (int p = 0; p < topo.num_procs(); ++p) {
        std::cout << "  proc " << p << ": "
                  << local_directive(graph, schedule, p) << "\n";
      }
      std::cout << "\n";
    }
    if (options.dot) {
      std::cout << render_task_graph_dot(graph);
    }
    return kExitOk;
  } catch (const MappingError& e) {
    std::cerr << "error: mapping infeasible: " << e.what() << "\n";
    return kExitInfeasible;
  }
}

/// The --cache-file inspection mode: recover PATH exactly like the
/// daemon would and print what a warm boot would serve. Deterministic
/// output (entries sorted by digest), so two cache files can be
/// diffed.
int inspect_cache_file(const std::string& path) {
  // Big enough that inspection never evicts what the file holds.
  server::ResultCache cache(1 << 20, 1);
  const server::RecoveryStats stats = server::recover_cache_file(path, cache);
  if (stats.missing) {
    std::cerr << "error: cannot open cache file '" << path << "'\n";
    return kExitBadInput;
  }
  std::cout << "cache-file " << path << ": " << stats.to_string() << "\n";
  for (const auto& [digest, outcome] : cache.snapshot_entries()) {
    std::cout << digest_hex(digest) << "  ";
    if (outcome->ok) {
      std::cout << "ok     strategy=" << outcome->strategy
                << " completion=" << outcome->completion
                << " external_ipc=" << outcome->external_ipc
                << " max_load=" << outcome->max_load
                << " tasks=" << outcome->proc_of_task.size()
                << " procs=" << outcome->num_procs;
    } else {
      std::cout << "error  code=" << outcome->error_code << " \""
                << outcome->error << "\"";
    }
    std::cout << "\n";
  }
  return kExitOk;
}

int run(const Options& options) {
  // Input stage: everything that can fail here is the user's input, not
  // the pipeline -- unreadable files, unknown programs, malformed LaRCS
  // source, bad topology/fault specs.
  std::string source;
  if (options.larcs_file) {
    std::ifstream in(*options.larcs_file);
    if (!in) {
      std::cerr << "error: cannot open '" << *options.larcs_file << "'\n";
      return kExitBadInput;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    source = buffer.str();
  } else {
    const auto* entry = larcs::programs::find(*options.program_name);
    if (entry == nullptr) {
      std::cerr << "error: unknown program '" << *options.program_name
                << "' (see --list-programs)\n";
      return kExitBadInput;
    }
    source = entry->source;
  }

  try {
    const auto ast = larcs::parse_program(source);
    const auto compiled = larcs::compile(ast, options.bindings);
    const Topology topo = parse_topology_spec(*options.topology_spec);
    std::optional<FaultedTopology> faulted;
    if (options.fault_spec) {
      faulted.emplace(topo, FaultSpec::parse(*options.fault_spec, topo,
                                             options.fault_seed));
    }
    check_model_bound(compiled.graph, topo,
                      faulted ? faulted->link_slowdowns()
                              : std::vector<std::int64_t>{});
    MapperOptions mapper = options.mapper;
    // Degraded-mode mapping (no --repair): run the pipeline directly
    // on the healthy sub-machine.
    if (faulted && !options.repair) {
      mapper.faults = &*faulted;
    }
    if (options.digest) {
      // Print the mapping server's cache key for these inputs (used to
      // pre-warm a server or debug why two requests don't share an
      // entry) and skip the mapping itself.
      std::cout << "digest: "
                << digest_hex(
                       server::job_digest(compiled.graph, topo, mapper))
                << "\n";
      return kExitOk;
    }
    return map_and_report(options, mapper, ast, compiled, topo, faulted);
  } catch (const LarcsError& e) {
    std::cerr << "error: " << e.loc().to_string() << ": " << e.what()
              << "\n";
    return kExitBadInput;
  } catch (const MappingError& e) {
    // Reaching here means a bad topology or fault spec, or a program
    // whose model quantities overflow on this machine (the mapping
    // stage classifies its own MappingErrors as exit code 4).
    std::cerr << "error: " << e.what() << "\n";
    return kExitBadInput;
  }
}

/// Flushes the tracer after the pipeline ran (success or not): Chrome
/// trace-event JSON to --trace FILE, ASCII span tree to stdout for
/// --trace-summary. Never changes the exit code.
void emit_trace(const Options& options) {
  if (!options.trace_file && !options.trace_summary) {
    return;
  }
  trace::disable();
  const auto events = trace::snapshot();
  if (options.trace_file) {
    std::ofstream out(*options.trace_file);
    if (!out) {
      std::cerr << "warning: cannot write trace to '" << *options.trace_file
                << "'\n";
    } else {
      trace::write_chrome_json(out, events);
    }
  }
  if (options.trace_summary) {
    std::cout << trace::summary_tree(events);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::vector<cli::Flag<Options>> flags = all_flags();
    Options options;
    if (!cli::parse_flags<Options>(flags, argc, argv, options, std::cerr)) {
      return usage(argv[0], flags);
    }

    if (options.list_programs) {
      for (const auto& entry : larcs::programs::catalog()) {
        std::string binds;
        for (const auto& [name, value] : entry.example_bindings) {
          binds += " --bind " + name + "=" + std::to_string(value);
        }
        std::cout << entry.name << binds << "\n";
      }
      return kExitOk;
    }
    if (options.cache_file) {
      return inspect_cache_file(*options.cache_file);
    }
    if ((!options.larcs_file && !options.program_name) ||
        !options.topology_spec) {
      return usage(argv[0], flags);
    }
    if (options.repair && !options.fault_spec) {
      std::cerr << "--repair requires --inject-faults\n";
      return usage(argv[0], flags);
    }
    if (options.explain && options.mapper.portfolio <= 0) {
      std::cerr << "--explain requires --portfolio N (the provenance "
                   "report describes the portfolio decision)\n";
      return usage(argv[0], flags);
    }
    if (options.pareto && options.mapper.portfolio <= 0) {
      std::cerr << "--pareto requires --portfolio N (the front ranks the "
                   "portfolio candidates)\n";
      return usage(argv[0], flags);
    }
    if (const std::string error = check_mapper_options(options.mapper, "--");
        !error.empty()) {
      std::cerr << error << "\n";
      return usage(argv[0], flags);
    }
    if (options.trace_file || options.trace_summary) {
      trace::enable();
    }
    if (options.metrics_file) {
      metrics::enable();
      metrics::set_deterministic(false);
    }
    const auto run_start = std::chrono::steady_clock::now();
    const int code = run(options);
    if (options.metrics_file) {
      // One-shot exposition: the run's wall time plus whatever the
      // pipeline recorded, published exactly like the daemon does.
      metrics::counter("oregami_map_runs_total").increment();
      metrics::counter("oregami_map_exit_code_total{code=\"" +
                       std::to_string(code) + "\"}")
          .increment();
      metrics::histogram("oregami_map_run_ms")
          .record(std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - run_start)
                      .count());
      if (!metrics::write_prometheus_file(*options.metrics_file)) {
        std::cerr << "warning: cannot write metrics to '"
                  << *options.metrics_file << "'\n";
      }
    }
    emit_trace(options);
    return code;
  } catch (const std::exception& e) {
    std::cerr << "internal error: " << e.what() << "\n";
    return kExitInternal;
  } catch (...) {
    std::cerr << "internal error: unknown exception\n";
    return kExitInternal;
  }
}
