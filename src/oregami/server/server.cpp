#include "oregami/server/server.hpp"

#include <array>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <istream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "oregami/arch/topology_spec.hpp"
#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/metrics/completion_model.hpp"
#include "oregami/server/digest.hpp"
#include "oregami/server/persist.hpp"
#include "oregami/server/telemetry.hpp"
#include "oregami/server/wire.hpp"
#include "oregami/support/failpoint.hpp"
#include "oregami/support/error.hpp"
#include "oregami/support/thread_pool.hpp"
#include "oregami/support/thread_safe_queue.hpp"
#include "oregami/support/trace.hpp"

namespace oregami::server {

namespace {

using Clock = std::chrono::steady_clock;

/// The compiled half of a job (everything the digest and the mapper
/// need).
struct CompiledJob {
  larcs::Program ast;
  larcs::CompiledProgram compiled;
  Topology topo;
};

/// Resolves and compiles a job's textual inputs. Throws WireError with
/// a "job <id>: "-prefixed message on every failure.
CompiledJob compile_job(const WireJob& job) {
  const std::string prefix = "job " + job.id + ": ";
  std::string source = job.larcs;
  if (!job.program.empty()) {
    const auto* entry = larcs::programs::find(job.program);
    if (entry == nullptr) {
      throw WireError(kJobBadInput, prefix + "unknown program \"" +
                                        job.program +
                                        "\" (see --list-programs)");
    }
    source = entry->source;
  } else if (!job.program_file.empty()) {
    std::ifstream in(job.program_file);
    if (!in) {
      throw WireError(kJobBadInput, prefix + "cannot open program_file \"" +
                                        job.program_file + "\"");
    }
    source.assign(std::istreambuf_iterator<char>(in), {});
  }

  // Topology first: a typo'd machine spec should be reported as such
  // even when the program text has its own problems.
  Topology topo = [&] {
    try {
      return parse_topology_spec(job.topology);
    } catch (const MappingError& e) {
      throw WireError(kJobBadInput,
                      prefix + "unknown or invalid topology \"" +
                          job.topology + "\": " + e.what());
    }
  }();
  try {
    larcs::Program ast = larcs::parse_program(source);
    larcs::CompiledProgram compiled = larcs::compile(ast, job.bindings);
    check_model_bound(compiled.graph, topo);
    return CompiledJob{std::move(ast), std::move(compiled),
                       std::move(topo)};
  } catch (const LarcsError& e) {
    throw WireError(kJobBadInput, prefix + e.what());
  } catch (const MappingError& e) {
    throw WireError(kJobBadInput, prefix + e.what());
  }
}

/// Runs the mapping pipeline and distils the result into the cacheable
/// outcome. Deterministic failures (infeasible mappings) become error
/// outcomes -- cached like successes, so repeated bad jobs are O(1)
/// and hit/miss totals stay schedule-independent.
OutcomePtr compute_outcome(const WireJob& job, const CompiledJob& cj) {
  auto outcome = std::make_shared<CachedOutcome>();
  try {
    const MapperReport report =
        map_program(cj.ast, cj.compiled, cj.topo, job.options);
    const std::vector<int> procs = report.mapping.proc_of_task();
    const PlacementObjectives obj = extract_objectives(
        cj.compiled.graph, procs, report.mapping.routing, cj.topo);
    outcome->strategy = to_string(report.strategy);
    outcome->completion = obj.completion;
    outcome->external_ipc = obj.external_ipc;
    outcome->max_load = obj.max_load;
    outcome->num_procs = cj.topo.num_procs();
    outcome->proc_of_task = procs;
    outcome->ok = true;
  } catch (const MappingError& e) {
    outcome->error_code = kJobInfeasible;
    outcome->error = "job " + job.id + ": mapping infeasible: " + e.what();
  } catch (const std::exception& e) {
    outcome->error_code = kJobInternal;
    outcome->error = "job " + job.id + ": internal error: " + e.what();
  }
  return outcome;
}

/// What ServeState::count() books. The first five are how a job ended,
/// the outcome partition of telemetry.hpp (hit and miss are ok lines,
/// every error line is one of the other three); the last three are
/// cache traffic, counted when a worker claims its digest, so a job
/// the watchdog abandons still counts its hit or miss.
enum Tally : std::size_t {
  kHit, kMiss, kError, kRejected, kAbandoned,
  kCacheHit, kCacheMiss, kDedupJoin, kTallies
};

/// One admitted job, shared by its worker and, when its deadline is
/// positive, its watchdog ticket. Whoever flips `claimed` first emits
/// the job's single result line; the loser stays silent.
struct Admitted {
  Admitted(WireJob j, Clock::time_point t) : job(std::move(j)), at(t) {}

  WireJob job;  ///< deadline_ms holds the effective deadline
  Clock::time_point at;
  std::atomic<bool> claimed{false};
};

/// The `"id":"7","line":3` fragment that opens every job's log event
/// (`"line":3` alone when the line never yielded an id).
std::string id_line_fields(const std::string& id, std::size_t line) {
  std::string out = id.empty() ? "" : "\"id\":\"" + json_escape(id) + "\",";
  return out + "\"line\":" + std::to_string(line);
}

/// Shared mutable state of one serve() call.
struct ServeState {
  explicit ServeState(const ServerOptions& options) : opts(options) {}

  const ServerOptions& opts;
  ThreadSafeQueue<std::string> results{256};
  std::unique_ptr<ResultCache> owned_cache =
      opts.cache != nullptr ? nullptr
                            : std::make_unique<ResultCache>(
                                  opts.cache_capacity, opts.cache_shards);
  ResultCache* cache = opts.cache != nullptr ? opts.cache : owned_cache.get();
  /// Telemetry handles (registered once per process; recording is a
  /// no-op while metrics are disabled), indexed by Tally.
  ServerMetrics& sm = server_metrics();
  const std::array<metrics::Counter*, kTallies> series{
      &sm.jobs_hit,      &sm.jobs_miss,      &sm.jobs_error,
      &sm.jobs_rejected, &sm.jobs_abandoned, &sm.cache_hits,
      &sm.cache_misses,  &sm.dedup_joins};
  const std::array<metrics::Histogram*, 3> wall_us{
      &sm.wall_us_hit, &sm.wall_us_miss, &sm.wall_us_error};
  std::array<std::atomic<std::int64_t>, kTallies> tally{};

  /// Watchdog registry: every admitted job with a positive deadline,
  /// by expiry.
  std::mutex watch_mutex;
  std::condition_variable watch_cv;
  std::multimap<Clock::time_point, std::shared_ptr<Admitted>> watch;
  bool watch_closed = false;

  /// Books one `what` in the tally (read into ServerStats) and in its
  /// registry series: the only place either counts.
  void count(Tally what) {
    tally[what].fetch_add(1, std::memory_order_relaxed);
    series[what]->increment();
  }

  /// The one place a result line is emitted. Pushes `result`, counts
  /// `outcome` (kHit .. kAbandoned) once, and writes the job's
  /// one log event (`detail` follows the id/line fragment). `job` is
  /// the admitted job, or nullptr for a line answered at admission; a
  /// worker's line (hit, miss or error) also records its wall and
  /// write time.
  void finish(Tally outcome, const std::string& id, std::size_t line,
              std::string result, std::string_view event,
              const std::string& detail, const Admitted* job) {
    count(outcome);
    const bool timed =
        metrics::enabled() && job != nullptr && outcome != kAbandoned;
    if (timed) wall_us[outcome]->record(elapsed_us(job->at));
    const auto write_start = timed ? Clock::now() : Clock::time_point{};
    results.push(std::move(result));
    if (timed) sm.write_us.record(elapsed_us(write_start));
    if (opts.log != nullptr) {
      opts.log->event(
          outcome == kAbandoned ? EventLog::Level::kWarn
                                : EventLog::Level::kInfo,
          static_cast<std::int64_t>(line), event,
          id_line_fields(id, line) + detail);
    }
    if (job != nullptr) sm.inflight_jobs.add(-1);
  }
};

/// The watchdog body: sleeps until the earliest unexpired ticket, and
/// abandons (code 6) every job whose worker has not claimed it by its
/// expiry. The daemon keeps draining -- the stuck worker's eventual
/// line is discarded by the claimed flag.
void run_watchdog(ServeState& state) {
  std::unique_lock<std::mutex> lock(state.watch_mutex);
  // Closed once the drain is over: every remaining ticket is claimed.
  while (!state.watch_closed) {
    // Tickets claimed by their worker are dead weight; drop them so
    // the wait below never waits on one.
    std::erase_if(state.watch, [](const auto& ticket) {
      return ticket.second->claimed.load(std::memory_order_relaxed);
    });
    if (state.watch.empty()) {
      state.watch_cv.wait(lock);
      continue;
    }
    const auto first = state.watch.begin();
    if (first->first > Clock::now()) {
      state.watch_cv.wait_until(lock, first->first);
      continue;
    }
    const std::shared_ptr<Admitted> admitted = std::move(first->second);
    state.watch.erase(first);
    lock.unlock();
    if (!admitted->claimed.exchange(true)) {
      const WireJob& job = admitted->job;
      state.sm.watchdog_fired.increment();
      state.finish(
          kAbandoned, job.id, job.line,
          format_error_result(job.id, job.line, kJobDeadline,
                              "job " + job.id +
                                  ": deadline expired; result abandoned"),
          "job_abandoned", "", admitted.get());
    }
    lock.lock();
  }
}

/// The per-job worker body: compile, digest, claim the digest (hit,
/// join or compute), format, finish. Never throws. If the watchdog
/// claimed the job first, the line is discarded -- but a computed
/// outcome was already cached and journaled, so the work is not wasted.
void run_job(ServeState& state, Admitted& admitted) {
  const WireJob& job = admitted.job;
  const ServerOptions& opts = state.opts;
  // One enabled-check up front keeps the disabled hot path at a single
  // relaxed load for the whole function (elapsed_us and record() would
  // each pay their own otherwise).
  const bool telemetry = metrics::enabled();
  if (telemetry) state.sm.queue_wait_us.record(elapsed_us(admitted.at));
  std::string line;
  std::string error;
  Tally outcome = kError;
  int code = kJobOk;
  std::uint64_t digest = 0;
  bool have_digest = false;
  try {
    if (job.deadline_ms < 0) {
      throw WireError(kJobDeadline,
                      "job " + job.id + ": deadline expired before start");
    }
    // Chaos site for the worker itself, keyed by the job's input line
    // so a schedule fires on the same job at any worker count: `throw`
    // models a crashing mapper (code 1), `hang` a stuck one (the
    // watchdog's prey).
    const auto fp = failpoint::evaluate(
        "job.run", static_cast<std::int64_t>(job.line));
    if (fp.action == failpoint::Action::Throw) {
      throw std::runtime_error("injected failure (failpoint job.run)");
    }
    if (fp.action == failpoint::Action::Hang) {
      std::this_thread::sleep_for(std::chrono::milliseconds(fp.arg));
    }
    const CompiledJob cj = compile_job(job);
    digest = job_digest(cj.compiled.graph, cj.topo, job.options);
    have_digest = true;

    // Single-flight: exactly one worker computes each digest, so the
    // hit/miss totals are schedule-independent.
    const ResultCache::Claim claim = state.cache->claim(digest);
    OutcomePtr outcome_ptr = claim.hit;
    const bool hit = !claim.computes();
    if (!hit) {
      const auto compute_start = telemetry ? Clock::now() : admitted.at;
      outcome_ptr = compute_outcome(job, cj);
      state.cache->publish(digest, outcome_ptr);
      if (opts.journal != nullptr) {
        // Best-effort: a failed append degrades persistence, never
        // the job (the outcome lives on in memory).
        (void)opts.journal->append(digest, *outcome_ptr);
      }
      if (telemetry) state.sm.compute_us.record(elapsed_us(compute_start));
    } else if (outcome_ptr == nullptr) {
      outcome_ptr = claim.join.get();  // the identical in-flight job's
      state.count(kDedupJoin);
    }
    state.count(hit ? kCacheHit : kCacheMiss);

    const std::chrono::duration<double, std::milli> wall =
        opts.deterministic ? Clock::duration{} : Clock::now() - admitted.at;
    if (outcome_ptr->ok) {
      line = format_ok_result(job.id, digest, hit, *outcome_ptr, wall.count());
      outcome = hit ? kHit : kMiss;
    } else {
      code = outcome_ptr->error_code;
      error = outcome_ptr->error;
    }
  } catch (const WireError& e) {
    code = e.code();
    error = e.what();
  } catch (const std::exception& e) {
    code = kJobInternal;
    error = "job " + job.id + ": internal error: " + e.what();
  }
  if (outcome == kError) {
    line = format_error_result(job.id, job.line, code, error);
  }
  if (admitted.claimed.exchange(true)) {
    return;  // the watchdog already emitted this job's code-6 line
  }
  std::string detail;
  if (opts.log != nullptr) {
    const bool ok = outcome != kError;
    detail = ok ? ",\"status\":\"ok\""
                : ",\"status\":\"error\",\"code\":" + std::to_string(code);
    if (have_digest) {
      detail += ",\"digest\":\"" + digest_prefix(digest) + "\"";
    }
    // The per-line hit/miss label of identical concurrent jobs is
    // schedule-dependent: blank it in deterministic mode, as the wire
    // format's determinism contract does.
    const char* cache =
        opts.deterministic ? "?" : (outcome == kHit ? "hit" : "miss");
    if (ok) detail += std::string(",\"cache\":\"") + cache + "\"";
  }
  state.finish(outcome, job.id, job.line, std::move(line), "job_completed",
               detail, &admitted);
}

}  // namespace

std::string ServerStats::json_fields() const {
  std::string out = "\"lines\":" + std::to_string(lines);
  out += ",\"ok\":" + std::to_string(ok);
  out += ",\"errors\":" + std::to_string(errors);
  out += ",\"rejected\":" + std::to_string(rejected);
  out += ",\"abandoned\":" + std::to_string(abandoned);
  out += ",\"cache_hits\":" + std::to_string(cache_hits);
  out += ",\"cache_misses\":" + std::to_string(cache_misses);
  out += ",\"cache_evictions\":" + std::to_string(cache_evictions);
  return out;
}

std::string ServerStats::to_json() const { return "{" + json_fields() + "}"; }

ServerStats serve(std::istream& in, std::ostream& out,
                  const ServerOptions& options,
                  const std::atomic<bool>* stop) {
  const trace::Span span("server/serve");
  ServerStats stats;
  ServeState state(options);
  const ResultCache::Stats cache_before = state.cache->stats();

  // The writer is the only thread that touches `out`: workers push
  // finished lines into the bounded queue and the writer emits them in
  // completion order, flushing per line so a downstream consumer sees
  // results as they land.
  std::thread writer([&state, &out] {
    while (auto line = state.results.pop()) {
      out << *line << '\n' << std::flush;
    }
  });
  std::thread watchdog([&state] { run_watchdog(state); });

  {
    // Pool scope, the drain: destroying the pool runs every admitted job
    // to its end, so each line is pushed (by its worker or the watchdog)
    // before the watchdog and the writer stop below.
    ThreadPool pool(options.jobs, "oregami-srv");
    const int capacity = options.queue_capacity > 0 ? options.queue_capacity
                                                    : 1;
    std::string raw;
    std::size_t line_number = 0;
    while ((stop == nullptr || !stop->load(std::memory_order_relaxed)) &&
           std::getline(in, raw)) {
      ++line_number;
      // Blank lines are keep-alives / formatting, not jobs.
      if (raw.find_first_not_of(" \t\r") == std::string::npos) {
        continue;
      }
      ++stats.lines;
      state.sm.jobs_submitted.increment();

      WireJob job;
      try {
        job = parse_job(raw, line_number);
      } catch (const WireError& e) {
        state.finish(kError, e.id(), line_number,
                     format_error_result(e.id(), line_number, e.code(),
                                         e.what()),
                     "parse_error", ",\"code\":" + std::to_string(e.code()),
                     nullptr);
        continue;
      }

      // Admission control: reject instead of buffering without bound.
      // The server.admit chaos site (keyed by input line) forces
      // rejection bursts without actually saturating the pool.
      const int depth = pool.pending();
      trace::counter("server/queue_depth", depth);
      state.sm.queue_depth.set(depth);
      const bool forced_reject =
          failpoint::evaluate("server.admit",
                              static_cast<std::int64_t>(job.line))
              .action != failpoint::Action::None;
      if (forced_reject || depth >= capacity) {
        // The backoff hint is a pure function of the observed depth
        // (~5 ms of drain headroom per pending job), so a replayed
        // stream rejects with identical hints.
        const std::int64_t retry_after_ms = 5 * (depth > 0 ? depth : 1);
        state.finish(
            kRejected, job.id, job.line,
            format_error_result(job.id, job.line, kJobRejected,
                                "job " + job.id + ": rejected: queue full (" +
                                    std::to_string(depth) +
                                    " jobs pending, capacity " +
                                    std::to_string(capacity) + ")",
                                retry_after_ms),
            "job_rejected", "", nullptr);
        continue;
      }

      state.sm.inflight_jobs.add(1);
      if (options.log != nullptr) {
        options.log->event(EventLog::Level::kDebug,
                           static_cast<std::int64_t>(job.line),
                           "job_admitted", id_line_fields(job.id, job.line));
      }
      // The effective deadline, resolved once: the watchdog ticket and
      // the worker's expired-before-start check both read it.
      const std::int64_t deadline_ms = job.deadline_ms != 0
                                           ? job.deadline_ms
                                           : options.default_deadline_ms;
      job.deadline_ms = deadline_ms;
      const auto admitted =
          std::make_shared<Admitted>(std::move(job), Clock::now());
      // A real (positive) deadline gets a watchdog ticket, so a stuck
      // worker cannot stall the stream past it.
      if (deadline_ms > 0) {
        {
          const std::lock_guard<std::mutex> lock(state.watch_mutex);
          state.watch.emplace(
              admitted->at + std::chrono::milliseconds(deadline_ms),
              admitted);
        }
        state.watch_cv.notify_all();
      }
      (void)pool.submit([&state, admitted] { run_job(state, *admitted); });
    }
  }

  {
    const std::lock_guard<std::mutex> lock(state.watch_mutex);
    state.watch_closed = true;
  }
  state.watch_cv.notify_all();
  watchdog.join();
  state.results.close();
  writer.join();

  const auto& tally = state.tally;
  stats.ok = tally[kHit] + tally[kMiss];
  stats.rejected = tally[kRejected];
  stats.abandoned = tally[kAbandoned];
  stats.errors = tally[kError] + stats.rejected +
                 stats.abandoned;
  stats.cache_hits = tally[kCacheHit];
  stats.cache_misses = tally[kCacheMiss];
  stats.deduped = tally[kDedupJoin];
  const ResultCache::Stats cache_after = state.cache->stats();
  stats.cache_evictions = cache_after.evictions - cache_before.evictions;
  trace::counter("server/cache_hits", stats.cache_hits);
  trace::counter("server/cache_misses", stats.cache_misses);
  trace::counter("server/cache_evictions", stats.cache_evictions);
  if (options.log != nullptr && stats.cache_evictions > 0) {
    options.log->event(EventLog::Level::kWarn, EventLog::kServerStop,
                       "cache_evictions",
                       "\"count\":" +
                           std::to_string(stats.cache_evictions));
  }
  return stats;
}

}  // namespace oregami::server
