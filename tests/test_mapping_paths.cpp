// Byte-for-byte pin of every mapping entry point.
//
// map_program and map_computation walk the Fig-3 decision tree, the
// portfolio and the degraded redirect through one internal path. This
// sweep pins what both entry points return against
// tests/golden/mapping_paths.txt, which was generated before the two
// paths were merged: the strategy, the details string and the
// placement of every catalogue program on four 16-processor machines
// under each option set, plus the portfolio candidate table of every
// portfolio run.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <optional>
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
#include "oregami/support/error.hpp"

namespace oregami {
namespace {

struct OptionSet {
  std::string name;
  MapperOptions options;
  std::string faults;  ///< FaultSpec text; empty = healthy machine
};

std::vector<OptionSet> option_sets() {
  std::vector<OptionSet> sets;
  sets.push_back({"default", {}, ""});
  MapperOptions o;
  o.allow_canned = false;
  sets.push_back({"no_canned", o, ""});
  o = {};
  o.allow_group = false;
  sets.push_back({"no_group", o, ""});
  o = {};
  o.allow_systolic = false;
  sets.push_back({"no_systolic", o, ""});
  o = {};
  o.refine = true;
  sets.push_back({"refine", o, ""});
  o = {};
  o.refine_placement = true;
  sets.push_back({"refine_placement", o, ""});
  o = {};
  o.portfolio = 4;
  sets.push_back({"portfolio 4", o, ""});
  o.anneal = 1;
  o.heft = true;
  sets.push_back({"portfolio 4 anneal 1 heft", o, ""});
  o = {};
  o.multilevel = -1;
  sets.push_back({"multilevel auto", o, ""});
  sets.push_back({"faults p0", {}, "p0"});
  sets.push_back({"faults s0:4", {}, "s0:4"});
  o = {};
  o.portfolio = 4;
  sets.push_back({"portfolio 4 faults p0", o, "p0"});
  return sets;
}

std::string placement_text(const std::vector<int>& procs) {
  std::string out;
  for (std::size_t i = 0; i < procs.size(); ++i) {
    out += (i == 0 ? "" : " ") + std::to_string(procs[i]);
  }
  return out;
}

std::string mapping_paths_golden_text() {
  std::ostringstream out;
  const std::vector<std::string> machines = {"mesh:4x4", "ring:16",
                                             "hypercube:4", "torus:4x4"};
  for (const auto& entry : larcs::programs::catalog()) {
    const larcs::Program ast = larcs::parse_program(entry.source);
    const std::map<std::string, long> binds(entry.example_bindings.begin(),
                                            entry.example_bindings.end());
    const larcs::CompiledProgram compiled = larcs::compile(ast, binds);
    for (const std::string& machine : machines) {
      const Topology topo = parse_topology_spec(machine);
      for (const OptionSet& set : option_sets()) {
        std::optional<FaultedTopology> faulted;
        MapperOptions options = set.options;
        if (!set.faults.empty()) {
          faulted.emplace(topo, FaultSpec::parse(set.faults, topo, 0));
          options.faults = &*faulted;
        }
        for (const bool program : {true, false}) {
          out << entry.name << " on " << machine << " [" << set.name << "] "
              << (program ? "map_program" : "map_computation") << "\n";
          try {
            const MapperReport report =
                program ? map_program(ast, compiled, topo, options)
                        : map_computation(compiled.graph, topo, options);
            out << "  strategy: " << to_string(report.strategy) << "\n"
                << "  details: " << report.details << "\n"
                << "  procs: " << placement_text(report.mapping.proc_of_task())
                << "\n";
          } catch (const MappingError& e) {
            out << "  error: " << e.what() << "\n";
          }
          if (options.portfolio > 0 && !faulted) {
            const PortfolioOptions popts = portfolio_options_from(options);
            const PortfolioReport pf =
                program ? portfolio_map_program(ast, compiled, topo, options,
                                                popts)
                        : portfolio_map_computation(compiled.graph, topo,
                                                    options, popts);
            out << pf.table();
          }
        }
      }
    }
  }
  return out.str();
}

TEST(MappingPaths, GoldenEntryPointSweepIsByteIdentical) {
  std::ifstream in(std::string(OREGAMI_GOLDEN_DIR) + "/mapping_paths.txt");
  ASSERT_TRUE(in) << "missing golden file mapping_paths.txt";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(mapping_paths_golden_text(), golden.str());
}

}  // namespace
}  // namespace oregami
