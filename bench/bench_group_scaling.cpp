// Experiment C2: the paper states the dominant cost of the group
// method is "computing the cycle notation of all the elements", hence
// O(|X|^2). This harness measures closure generation + cycle-structure
// computation across circulant sizes and reports the time ratio per
// size doubling (O(n^2) predicts ~4x, plus comparison overheads). A
// second series times the full group_theoretic_contraction (closure,
// subgroup search, scoring, quotient) on the same circulants at n/8
// clusters, to check the subgroup search stays within that budget.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "oregami/group/perm_group.hpp"
#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/mapper/group_contract.hpp"
#include "oregami/support/text_table.hpp"

namespace {

using namespace oregami;

TaskGraph circulant_graph(int n) {
  return larcs::compile_source(larcs::programs::broadcast_vote(n),
                               {{"n", n}})
      .graph;
}

std::vector<Permutation> circulant_generators(int n) {
  const auto g = circulant_graph(n);
  std::vector<Permutation> gens;
  for (const auto& phase : g.comm_phases()) {
    gens.push_back(*phase_permutation(phase, n));
  }
  return gens;
}

double measure_seconds(int n) {
  const auto gens = circulant_generators(n);
  const auto start = std::chrono::steady_clock::now();
  const auto group =
      PermutationGroup::generate(gens, static_cast<std::size_t>(n));
  long checksum = 0;
  if (group) {
    for (const auto& e : group->elements()) {
      checksum += static_cast<long>(e.cycle_type().size());
    }
  }
  benchmark::DoNotOptimize(checksum);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

void print_figure() {
  bench::print_header(
      "C2: group generation + cycle notation, O(|X|^2) scaling");
  TextTable table({"|X|", "time (ms)", "ratio vs half size"});
  double previous = 0.0;
  for (int n = 64; n <= 2048; n *= 2) {
    // Median of three runs to de-noise.
    double best = 1e9;
    for (int rep = 0; rep < 3; ++rep) {
      best = std::min(best, measure_seconds(n));
    }
    table.add_row({std::to_string(n), format_fixed(best * 1e3, 3),
                   previous > 0.0 ? format_fixed(best / previous, 2)
                                  : std::string("-")});
    previous = best;
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("(pure O(|X|^2) predicts ratio 4; element comparisons add "
              "a further O(|X|) factor at these sizes)\n");

  bench::print_header(
      "C2: full group_theoretic_contraction on Z_n at n/8 clusters");
  TextTable contraction({"|X|", "clusters", "time (ms)"});
  for (int n = 16; n <= 512; n *= 2) {
    const auto graph = circulant_graph(n);
    double best = 1e9;
    for (int rep = 0; rep < 3; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      const auto outcome = group_theoretic_contraction(graph, n / 8);
      benchmark::DoNotOptimize(outcome.status);
      best = std::min(best, std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count());
    }
    contraction.add_row({std::to_string(n), std::to_string(n / 8),
                         format_fixed(best * 1e3, 3)});
  }
  std::fputs(contraction.to_string().c_str(), stdout);
}

void BM_GroupGeneration(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto gens = circulant_generators(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PermutationGroup::generate(gens, static_cast<std::size_t>(n)));
  }
  state.counters["X"] = n;
}
BENCHMARK(BM_GroupGeneration)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_CycleNotationAllElements(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto group = PermutationGroup::generate(
      circulant_generators(n), static_cast<std::size_t>(n));
  for (auto _ : state) {
    long total = 0;
    for (const auto& e : group->elements()) {
      total += static_cast<long>(e.cycles().size());
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_CycleNotationAllElements)->Arg(64)->Arg(256)->Arg(1024);

void BM_GroupContraction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto graph = circulant_graph(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(group_theoretic_contraction(graph, n / 8));
  }
  state.counters["X"] = n;
}
BENCHMARK(BM_GroupContraction)->Arg(16)->Arg(64)->Arg(512);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
