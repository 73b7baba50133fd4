// mapbench_replay -- the in-process half of the mapping-service
// benchmark (run.py drives the daemon; this binary re-runs the same
// jobs through the same public calls to check and explain it).
//
//   mapbench_replay --info
//   mapbench_replay --check JOBS
//   mapbench_replay --replay JOBS --out DIR [--prime N] [--restart]
//                   [--cache-file PATH] [--budget-s S]
//
// --info prints the compiler, build type and hardware concurrency of
// this build as one JSON object.
//
// --check is the oracle for the daemon's answers. For every job line of
// JOBS it prints {"id","tasks","procs","digest"}, computed by the calls
// the server makes (parse_job, catalog lookup, parse_topology_spec,
// parse_program, compile, job_digest), so run.py can check that each
// placement has one valid processor per compiled task and that the
// daemon addressed it by the right digest.
//
// --replay re-runs the job pipeline of oregami_serve one job at a time
// in stream order, in the server's call order:
//   parse_job -> catalog lookup -> parse_topology_spec -> parse_program
//   -> compile -> job_digest -> ResultCache::lookup -> (miss:
//   portfolio_map_program | map_program -> extract_objectives ->
//   ResultCache::insert -> CacheJournal::append) -> format_ok_result.
// The first N lines are priming jobs. With --restart the cache and its
// journal are dropped after them and recovered from --cache-file, as a
// restarted daemon would. The jobs are replayed twice from a cold
// cache: untraced (timing only) until --budget-s seconds of post-priming
// jobs have run, then traced over exactly the same jobs. The traced pass
// records a span around each call (name, start, end, parent, job) plus
// the library's own trace spans under the mapper call, keeps them in
// memory and writes them to DIR/spans.json at the end. Per-job facts
// (completion, portfolio candidates, multilevel counters) go to
// DIR/jobs.ndjson and a one-line JSON summary goes to stdout.
//
// Exit codes: 0 ok, 1 internal error, 2 usage error.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "oregami/arch/topology_spec.hpp"
#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/mapper/driver.hpp"
#include "oregami/mapper/portfolio.hpp"
#include "oregami/metrics/completion_model.hpp"
#include "oregami/server/digest.hpp"
#include "oregami/server/persist.hpp"
#include "oregami/server/result_cache.hpp"
#include "oregami/server/wire.hpp"
#include "oregami/support/hash.hpp"
#include "oregami/support/trace.hpp"

#ifndef MAPBENCH_BUILD_TYPE
#define MAPBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using Clock = std::chrono::steady_clock;
namespace server = oregami::server;
namespace larcs = oregami::larcs;
using server::json_escape;

int usage() {
  std::cerr << "usage: mapbench_replay --info\n"
               "       mapbench_replay --check JOBS\n"
               "       mapbench_replay --replay JOBS --out DIR [--prime N]\n"
               "                       [--restart] [--cache-file PATH]\n"
               "                       [--budget-s S]\n";
  return 2;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(std::move(line));
  }
  return lines;
}

/// The server's program resolution (built-in catalog or inline source).
std::string resolve_source(const server::WireJob& job) {
  if (job.program.empty()) return job.larcs;
  for (const auto& entry : larcs::programs::catalog()) {
    if (entry.name == job.program) return entry.source;
  }
  throw std::runtime_error("unknown program \"" + job.program + "\"");
}

/// Spans of one pass, kept in memory until the pass ends. Disabled
/// tracers record nothing and never read the clock.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::int64_t job = -1;
  };

  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

  [[nodiscard]] bool on() const { return on_; }
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  [[nodiscard]] int current() const {
    return stack_.empty() ? -1 : stack_.back();
  }

  void open(std::string_view name, std::int64_t job) {
    if (!on_) return;
    stack_.push_back(add(std::string(name), now_ns(), 0, current(), job));
  }
  void close() {
    if (!on_) return;
    spans_[static_cast<std::size_t>(stack_.back())].end_ns = now_ns();
    stack_.pop_back();
  }
  int add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, std::int64_t job) {
    spans_.push_back({std::move(name), start_ns, end_ns, parent, job});
    return static_cast<int>(spans_.size()) - 1;
  }

  void write_json(std::ostream& out) const {
    out << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "[\"" << json_escape(s.name) << "\","
          << s.start_ns << "," << s.end_ns << "," << s.parent << ","
          << s.job << "]";
    }
    out << "\n]\n";
  }

 private:
  bool on_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer& tracer, std::string_view name, std::int64_t job)
      : tracer_(tracer) {
    tracer_.open(name, job);
  }
  ~Scope() { tracer_.close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
};

/// Portfolio family of a candidate, as named by the benchmark's
/// mapper.portfolio_wins.* metrics.
std::string family_of(const oregami::PortfolioCandidate& c) {
  switch (c.strategy) {
    case oregami::MapStrategy::Canned:
      return "canned";
    case oregami::MapStrategy::GroupTheoretic:
      return "group";
    case oregami::MapStrategy::Systolic:
      return "systolic";
    case oregami::MapStrategy::Anneal:
      return "anneal";
    case oregami::MapStrategy::ListSchedule:
      return "heft";
    case oregami::MapStrategy::General:
      return c.label.find("seed#") != std::string::npos ? "seeded"
                                                        : "general";
    case oregami::MapStrategy::Multilevel:
      return "multilevel";
  }
  return "?";
}

/// The result cache and optional journal of one pass.
struct CacheState {
  std::unique_ptr<server::ResultCache> cache;
  std::unique_ptr<server::CacheJournal> journal;

  void reset() {
    journal.reset();  // the journal refers to the cache
    cache = std::make_unique<server::ResultCache>();
  }
};

/// Imports the library's trace events of one mapper call as child spans
/// of `parent`, and returns the JSON fragment of its multilevel
/// counters. `mark_ns` is the tracer time of the "mapbench" instant.
std::string import_library_trace(Tracer& tracer, int parent,
                                 std::int64_t job, std::int64_t mark_ns) {
  const auto events = oregami::trace::snapshot();
  oregami::trace::clear();
  std::int64_t offset_ns = 0;
  for (const auto& e : events) {
    if (e.kind == oregami::trace::Event::Kind::Instant &&
        e.path == "mapbench") {
      offset_ns = mark_ns - e.start_us * 1000;
    }
  }
  std::int64_t boundary = 0;
  std::int64_t moves = 0;
  auto ends_with = [](const std::string& s, std::string_view tail) {
    return s.size() >= tail.size() &&
           s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
  };
  for (const auto& e : events) {
    if (e.kind == oregami::trace::Event::Kind::Span) {
      const std::int64_t start = e.start_us * 1000 + offset_ns;
      tracer.add("oregami:" + e.path, start, start + e.dur_us * 1000,
                 parent, job);
    } else if (e.kind == oregami::trace::Event::Kind::Counter) {
      if (ends_with(e.path, "/boundary")) boundary += e.value;
      if (ends_with(e.path, "/moves")) moves += e.value;
    }
  }
  return ",\"ml_boundary\":" + std::to_string(boundary) +
         ",\"ml_moves\":" + std::to_string(moves);
}

/// Runs one job line through the server pipeline and returns its
/// per-job facts as one JSON object (no trailing newline).
std::string run_job(const std::string& line, std::int64_t index, bool prime,
                    CacheState& state, Tracer& tr) {
  const auto job_start = Clock::now();
  const Scope job_span(tr, "job", index);
  std::string facts = "{\"i\":" + std::to_string(index) +
                      ",\"prime\":" + (prime ? "true" : "false");
  try {
    server::WireJob job;
    {
      const Scope s(tr, "wire.parse", index);
      job = server::parse_job(line, static_cast<std::size_t>(index) + 1);
    }
    facts += ",\"id\":\"" + json_escape(job.id) + "\"";
    std::string source;
    {
      const Scope s(tr, "larcs.resolve", index);
      source = resolve_source(job);
    }
    std::optional<oregami::Topology> topo;
    {
      const Scope s(tr, "arch.topology", index);
      topo.emplace(oregami::parse_topology_spec(job.topology));
    }
    std::optional<larcs::Program> ast;
    {
      const Scope s(tr, "larcs.parse", index);
      ast.emplace(larcs::parse_program(source));
    }
    std::optional<larcs::CompiledProgram> compiled;
    {
      const Scope s(tr, "larcs.compile", index);
      compiled.emplace(larcs::compile(*ast, job.bindings));
    }
    const oregami::TaskGraph& graph = compiled->graph;
    std::size_t edges = 0;
    for (const auto& phase : graph.comm_phases()) edges += phase.edges.size();
    facts += ",\"tasks\":" + std::to_string(graph.num_tasks()) +
             ",\"edges\":" + std::to_string(edges);
    std::uint64_t digest = 0;
    {
      const Scope s(tr, "server.digest", index);
      digest = server::job_digest(graph, *topo, job.options);
    }
    std::shared_ptr<const server::CachedOutcome> outcome;
    {
      const Scope s(tr, "server.cache_lookup", index);
      outcome = state.cache->lookup(digest);
    }
    const bool hit = outcome != nullptr;
    facts += std::string(",\"hit\":") + (hit ? "true" : "false");
    if (!hit) {
      const oregami::MapperOptions& opts = job.options;
      const bool portfolio = opts.multilevel == 0 && opts.portfolio > 0;
      facts += std::string(",\"kind\":\"") +
               (opts.multilevel != 0 ? "multilevel"
                : portfolio          ? "portfolio"
                                     : "fig3") +
               "\"";
      oregami::MapperReport report;
      {
        const Scope s(tr, "mapper.map", index);
        if (tr.on()) {
          // Keep only the mapper's own library events, and anchor the
          // library's trace clock to the tracer's.
          oregami::trace::clear();
          oregami::trace::instant("mapbench");
        }
        const std::int64_t mark_ns = tr.on() ? tr.now_ns() : 0;
        if (portfolio) {
          oregami::PortfolioReport pr = oregami::portfolio_map_program(
              *ast, *compiled, *topo, opts,
              oregami::portfolio_options_from(opts));
          facts += ",\"best\":\"" +
                   family_of(pr.candidates[static_cast<std::size_t>(
                       pr.best_id)]) +
                   "\",\"cands\":[";
          for (std::size_t i = 0; i < pr.candidates.size(); ++i) {
            const auto& c = pr.candidates[i];
            std::ostringstream ms;
            ms << c.wall_ms;
            facts += std::string(i ? "," : "") + "{\"family\":\"" +
                     family_of(c) + "\",\"ok\":" + (c.ok ? "true" : "false") +
                     ",\"ms\":" + ms.str() + ",\"note\":\"" +
                     json_escape(c.note) + "\"}";
          }
          facts += "]";
          report = std::move(pr.best);
        } else {
          report = oregami::map_program(*ast, *compiled, *topo, opts);
        }
        if (tr.on()) {
          facts += import_library_trace(tr, tr.current(), index, mark_ns);
        }
      }
      const std::vector<int> procs = report.mapping.proc_of_task();
      oregami::PlacementObjectives obj;
      {
        const Scope s(tr, "metrics.score", index);
        obj = oregami::extract_objectives(graph, procs,
                                          report.mapping.routing, *topo);
      }
      auto fresh = std::make_shared<server::CachedOutcome>();
      fresh->ok = true;
      fresh->strategy = oregami::to_string(report.strategy);
      fresh->completion = obj.completion;
      fresh->external_ipc = obj.external_ipc;
      fresh->max_load = obj.max_load;
      fresh->num_procs = topo->num_procs();
      fresh->proc_of_task = procs;
      outcome = fresh;
      {
        const Scope s(tr, "server.cache_insert", index);
        state.cache->insert(digest, outcome);
      }
      if (state.journal) {
        const Scope s(tr, "server.persist_append", index);
        (void)state.journal->append(digest, *outcome);
      }
    }
    std::string encoded;
    {
      const Scope s(tr, "wire.encode", index);
      const double wall_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - job_start)
              .count();
      encoded = server::format_ok_result(job.id, digest, hit, *outcome,
                                         wall_ms);
    }
    facts += ",\"ok\":true,\"completion\":" +
             std::to_string(outcome->completion) +
             ",\"bytes\":" + std::to_string(encoded.size());
  } catch (const std::exception& e) {
    facts += ",\"ok\":false,\"error\":\"" + json_escape(e.what()) + "\"";
  }
  return facts + "}";
}

struct PassResult {
  std::size_t replayed = 0;  ///< post-priming jobs run
  double seconds = 0.0;      ///< wall time of the post-priming jobs
  std::int64_t recovered = 0;
  std::vector<std::string> facts;
};

/// One pass over `lines` from a cold cache. `limit` caps the
/// post-priming jobs (0 = run until `budget_s` has elapsed).
PassResult run_pass(const std::vector<std::string>& lines, std::size_t prime,
                    bool restart, const std::string& cache_file,
                    double budget_s, std::size_t limit, Tracer& tr) {
  PassResult result;
  CacheState state;
  auto open_journal = [&] {
    state.journal =
        std::make_unique<server::CacheJournal>(cache_file, *state.cache);
    return state.journal->open_and_recover();
  };
  state.reset();
  if (!cache_file.empty()) {
    std::filesystem::remove(cache_file);
    (void)open_journal();
  }
  for (std::size_t i = 0; i < prime && i < lines.size(); ++i) {
    result.facts.push_back(
        run_job(lines[i], static_cast<std::int64_t>(i), true, state, tr));
  }
  if (restart) {
    state.reset();
    const Scope s(tr, "server.recovery", -1);
    result.recovered = open_journal().restored;
  }
  const auto start = Clock::now();
  for (std::size_t i = prime; i < lines.size(); ++i) {
    if (limit != 0 ? result.replayed >= limit
                   : std::chrono::duration<double>(Clock::now() - start)
                             .count() >= budget_s) {
      break;
    }
    result.facts.push_back(
        run_job(lines[i], static_cast<std::int64_t>(i), false, state, tr));
    ++result.replayed;
  }
  result.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

int run_check(const std::string& jobs_path) {
  // Small compiled graphs recur across jobs; keep them by input key.
  std::map<std::string, std::pair<larcs::CompiledProgram, oregami::Topology>>
      memo;
  std::size_t line_no = 0;
  for (const std::string& line : read_lines(jobs_path)) {
    ++line_no;
    std::string id;
    try {
      const server::WireJob job = server::parse_job(line, line_no);
      id = job.id;
      std::string key = job.program + "|" + job.larcs + "|" + job.topology;
      for (const auto& [name, value] : job.bindings) {
        key += "|" + name + "=" + std::to_string(value);
      }
      auto it = memo.find(key);
      std::optional<std::pair<larcs::CompiledProgram, oregami::Topology>>
          fresh;
      if (it == memo.end()) {
        oregami::Topology topo = oregami::parse_topology_spec(job.topology);
        larcs::CompiledProgram compiled = larcs::compile(
            larcs::parse_program(resolve_source(job)), job.bindings);
        fresh.emplace(std::move(compiled), std::move(topo));
        if (fresh->first.graph.num_tasks() <= 4096) {
          it = memo.emplace(key, std::move(*fresh)).first;
          fresh.reset();
        }
      }
      const auto& [compiled, topo] = fresh ? *fresh : it->second;
      std::cout << "{\"id\":\"" << json_escape(id)
                << "\",\"tasks\":" << compiled.graph.num_tasks()
                << ",\"procs\":" << topo.num_procs() << ",\"digest\":\""
                << oregami::digest_hex(server::job_digest(
                       compiled.graph, topo, job.options))
                << "\"}\n";
    } catch (const std::exception& e) {
      std::cout << "{\"id\":\"" << json_escape(id) << "\",\"error\":\""
                << json_escape(e.what()) << "\"}\n";
    }
  }
  return 0;
}

int run_replay(const std::string& jobs_path, const std::string& out_dir,
               std::size_t prime, bool restart, const std::string& cache_file,
               double budget_s) {
  if (restart && cache_file.empty()) {
    std::cerr << "--restart needs --cache-file\n";
    return usage();
  }
  const std::vector<std::string> lines = read_lines(jobs_path);
  Tracer untraced(false);
  const PassResult plain = run_pass(lines, prime, restart, cache_file,
                                    budget_s, 0, untraced);
  if (plain.replayed == 0) {
    std::cerr << "no post-priming jobs to replay\n";
    return 1;
  }
  Tracer tracer(true);
  oregami::trace::enable();
  const PassResult traced = run_pass(lines, prime, restart, cache_file,
                                     budget_s, plain.replayed, tracer);
  oregami::trace::disable();
  oregami::trace::clear();

  std::filesystem::create_directories(out_dir);
  std::ofstream spans(out_dir + "/spans.json");
  tracer.write_json(spans);
  std::ofstream facts(out_dir + "/jobs.ndjson");
  for (const std::string& f : traced.facts) facts << f << "\n";
  if (!spans || !facts) {
    std::cerr << "cannot write to " << out_dir << "\n";
    return 1;
  }
  std::cout << "{\"primed\":" << prime << ",\"replayed\":" << traced.replayed
            << ",\"untraced_s\":" << plain.seconds
            << ",\"traced_s\":" << traced.seconds
            << ",\"recovered\":" << traced.recovered << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.size() == 1 && args[0] == "--info") {
#if defined(__clang__)
      const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
      const char* compiler = "gcc " __VERSION__;
#else
      const char* compiler = "unknown";
#endif
      std::cout << "{\"compiler\":\"" << json_escape(compiler)
                << "\",\"build_type\":\"" << MAPBENCH_BUILD_TYPE
                << "\",\"hardware_concurrency\":"
                << std::thread::hardware_concurrency() << "}\n";
      return 0;
    }
    if (args.size() == 2 && args[0] == "--check") return run_check(args[1]);
    if (args.empty() || args[0] != "--replay" || args.size() < 2) {
      return usage();
    }
    std::string out_dir;
    std::string cache_file;
    std::size_t prime = 0;
    bool restart = false;
    double budget_s = 5.0;
    for (std::size_t i = 2; i < args.size(); ++i) {
      const bool has_value = i + 1 < args.size();
      if (args[i] == "--out" && has_value) {
        out_dir = args[++i];
      } else if (args[i] == "--cache-file" && has_value) {
        cache_file = args[++i];
      } else if (args[i] == "--prime" && has_value) {
        prime = std::stoul(args[++i]);
      } else if (args[i] == "--budget-s" && has_value) {
        budget_s = std::stod(args[++i]);
      } else if (args[i] == "--restart") {
        restart = true;
      } else {
        std::cerr << "bad argument '" << args[i] << "'\n";
        return usage();
      }
    }
    if (out_dir.empty()) return usage();
    return run_replay(args[1], out_dir, prime, restart, cache_file, budget_s);
  } catch (const std::exception& e) {
    std::cerr << "internal error: " << e.what() << "\n";
    return 1;
  }
}
