// oregami_serve -- the long-lived mapping daemon.
//
//   oregami_serve [options]    (kFlags below lists them; a bad flag
//                              prints that list as usage)
//
// Reads newline-delimited JSON jobs from stdin (protocol in
// src/oregami/server/wire.hpp), emits one JSON result line per job on
// stdout in completion order, and prints a one-line JSON stats summary
// on stderr at shutdown. Bad jobs produce structured error lines, not
// process exits; the daemon drains every admitted job on EOF, SIGINT
// or SIGTERM before exiting.
//
// --cache-file makes the result cache crash-safe (server/persist.hpp):
// boot recovers every valid record of PATH into the cache (a warm
// restart; the recovery report goes to stderr) and every computed
// outcome is journaled, so even a kill -9 mid-write only costs the
// torn tail. --failpoints arms the deterministic chaos schedule
// (support/failpoint.hpp grammar).
//
// --metrics-file publishes the live metrics registry
// (support/metrics.hpp) as Prometheus text exposition via temp file +
// atomic rename: on every --metrics-interval tick, on SIGUSR1, and at
// shutdown. --log writes a structured NDJSON event log
// (server/telemetry.hpp). An unwritable metrics/log path degrades
// telemetry with a stderr warning; the daemon keeps serving.
//
//   $ printf '%s\n' \
//       '{"id":1,"program":"jacobi","bind":{"n":8,"iters":10},"topology":"mesh:4x4"}' \
//     | oregami_serve
//
// Exit codes: 0 clean drain (even if every job failed), 2 usage error,
// 1 internal error.
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "oregami/mapper/driver.hpp"
#include "oregami/server/persist.hpp"
#include "oregami/server/server.hpp"
#include "oregami/server/telemetry.hpp"
#include "oregami/support/cli_flags.hpp"
#include "oregami/support/failpoint.hpp"
#include "oregami/support/metrics.hpp"
#include "oregami/support/trace.hpp"

#if defined(__linux__) || defined(__APPLE__)
#include <signal.h>
#endif

namespace {

std::atomic<bool> g_stop{false};
std::atomic<bool> g_dump_metrics{false};

extern "C" void handle_dump_signal(int) {
  // Async-signal-safe: just raise the flag; the metrics thread writes.
  g_dump_metrics.store(true, std::memory_order_relaxed);
}

extern "C" void handle_stop_signal(int sig) {
  // Stop admitting; in-flight jobs drain and the journal flushes. A
  // second signal kills via the restored default handler.
  g_stop.store(true, std::memory_order_relaxed);
#if defined(__linux__) || defined(__APPLE__)
  std::signal(sig, SIG_DFL);
#else
  (void)sig;
#endif
}

/// Everything the command line sets.
struct Args {
  oregami::server::ServerOptions server;
  std::optional<std::string> trace_file;
  std::optional<std::string> cache_file;
  std::optional<std::string> failpoints;
  std::optional<std::string> metrics_file;
  std::optional<std::string> log_file;
  long long metrics_interval = 0;
  std::optional<oregami::server::EventLog::Level> log_level;
  bool trace_summary = false;
  bool stats_json = false;
};

std::string set_log_level(Args& args, const oregami::cli::Value& value) {
  args.log_level =
      oregami::server::EventLog::parse_level(std::string(value.text));
  return args.log_level ? "" : "bad --log-level '" + std::string(value.text) +
                                   "' (expected debug|info|warn)";
}

using oregami::cli::Arg;
using oregami::cli::store;
using oregami::server::ServerOptions;

constexpr oregami::cli::Flag<Args> kFlags[] = {
    {"--jobs", Arg::Int, "J", "worker threads (0 = all cores; default 1)",
     store<&Args::server, &ServerOptions::jobs>, 0, oregami::kMaxJobs},
    {"--queue-capacity", Arg::Int, "N",
     "reject jobs (code 5) when N are pending (default 64)",
     store<&Args::server, &ServerOptions::queue_capacity>, 1, 1 << 20},
    {"--cache-capacity", Arg::Int, "N",
     "resident result-cache entries (default 1024)",
     store<&Args::server, &ServerOptions::cache_capacity>, 1, 1LL << 30},
    {"--cache-shards", Arg::Int, "S", "cache lock stripes (default 8)",
     store<&Args::server, &ServerOptions::cache_shards>, 1, 256},
    // Negative = already expired: deterministic, used by tests.
    {"--deadline", Arg::Int, "MS",
     "default per-job deadline; jobs may override (0 = none)",
     store<&Args::server, &ServerOptions::default_deadline_ms>, -1,
     oregami::kMaxDeadlineMs},
    {"--deterministic", Arg::None, "", "print wall_ms as 0.000 (byte-stable)",
     store<&Args::server, &ServerOptions::deterministic>},
    {"--cache-file", Arg::String, "PATH", "recover on boot, journal outcomes",
     store<&Args::cache_file>},
    {"--failpoints", Arg::String, "SCHED",
     "arm a chaos schedule, e.g. \"persist.write:err@3\"",
     store<&Args::failpoints>},
    {"--trace", Arg::String, "FILE", "write a Chrome trace-event JSON",
     store<&Args::trace_file>},
    {"--trace-summary", Arg::None, "", "print the ASCII span tree to stderr",
     store<&Args::trace_summary>},
    {"--metrics-file", Arg::String, "PATH", "publish Prometheus text to PATH",
     store<&Args::metrics_file>},
    {"--metrics-interval", Arg::Int, "SEC",
     "publish every SEC seconds (needs --metrics-file)",
     store<&Args::metrics_interval>, 1, 86400},
    {"--log", Arg::String, "FILE", "structured NDJSON event log",
     store<&Args::log_file>},
    {"--log-level", Arg::String, "LVL",
     "debug|info|warn (default info; needs --log)", set_log_level},
    {"--stats-json", Arg::None, "", "print the extended stats{...} line",
     store<&Args::stats_json>},
};

int usage() {
  std::cerr << "usage: oregami_serve [options]  (jobs on stdin, results on "
               "stdout)\n"
            << oregami::cli::usage<Args>(kFlags)
            << "exit codes: 0 clean drain, 1 internal error, 2 usage\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args;
    if (!oregami::cli::parse_flags<Args>(kFlags, argc, argv, args,
                                         std::cerr)) {
      return usage();
    }
    oregami::server::ServerOptions& options = args.server;
    if (args.metrics_interval > 0 && !args.metrics_file) {
      std::cerr << "--metrics-interval needs --metrics-file\n";
      return usage();
    }
    if (args.log_level && !args.log_file) {
      std::cerr << "--log-level needs --log\n";
      return usage();
    }

#if defined(__linux__) || defined(__APPLE__)
    // No SA_RESTART: a signal interrupts the blocking stdin read so
    // the drain runs instead of waiting for the next input line.
    // SIGTERM gets the same graceful treatment as ^C: stop admitting,
    // drain, flush the journal, exit 0.
    struct sigaction sa = {};
    sa.sa_handler = handle_stop_signal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
#else
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
#endif

    if (args.failpoints) {
      try {
        oregami::failpoint::configure(*args.failpoints);
      } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << "\n";
        return usage();
      }
    }

    // The tool owns the cache (and journal) so warm state survives in
    // one place: serve() borrows both.
    oregami::server::ResultCache cache(options.cache_capacity,
                                       options.cache_shards);
    std::optional<oregami::server::CacheJournal> journal;
    if (args.cache_file) {
      options.cache = &cache;
      journal.emplace(*args.cache_file, cache);
      const auto recovery = journal->open_and_recover();
      std::cerr << "cache-file " << *args.cache_file << ": "
                << recovery.to_string() << "\n";
      options.journal = &*journal;
    }

    if (args.trace_file || args.trace_summary) {
      oregami::trace::enable();
    }

    // Telemetry: the deterministic contract applies to metrics and the
    // event log exactly as it does to the wire format.
    oregami::metrics::set_deterministic(options.deterministic);
    std::optional<oregami::server::EventLog> event_log;
    if (args.log_file) {
      event_log.emplace(
          *args.log_file,
          args.log_level.value_or(oregami::server::EventLog::Level::kInfo),
          options.deterministic);
      if (!event_log->ok()) {
        std::cerr << "warning: cannot write log to '" << *args.log_file
                  << "'; event logging disabled\n";
        event_log.reset();
      } else {
        options.log = &*event_log;
        event_log->event(oregami::server::EventLog::Level::kInfo,
                         oregami::server::EventLog::kServerStart,
                         "server_start", "");
      }
    }
    std::thread metrics_thread;
    std::atomic<bool> metrics_thread_stop{false};
    if (args.metrics_file) {
      oregami::metrics::enable();
      // Register the full server series set up front so every
      // exposition -- including an early SIGUSR1 dump -- has it.
      oregami::server::server_metrics();
#if defined(__linux__) || defined(__APPLE__)
      struct sigaction usr1 = {};
      usr1.sa_handler = handle_dump_signal;
      sigemptyset(&usr1.sa_mask);
      usr1.sa_flags = SA_RESTART;  // a dump must not interrupt the read
      sigaction(SIGUSR1, &usr1, nullptr);
#endif
      metrics_thread = std::thread([&metrics_thread_stop,
                                    interval = args.metrics_interval,
                                    path = *args.metrics_file] {
        bool warned = false;
        auto last = std::chrono::steady_clock::now();
        while (!metrics_thread_stop.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          bool due = g_dump_metrics.exchange(false);
          if (interval > 0 && std::chrono::steady_clock::now() - last >=
                                  std::chrono::seconds(interval)) {
            due = true;
          }
          if (!due) continue;
          last = std::chrono::steady_clock::now();
          if (!oregami::metrics::write_prometheus_file(path) && !warned) {
            std::cerr << "warning: cannot write metrics to '" << path
                      << "'\n";
            warned = true;
          }
        }
      });
    }

    const auto serve_start = std::chrono::steady_clock::now();
    const oregami::server::ServerStats stats =
        oregami::server::serve(std::cin, std::cout, options, &g_stop);
    const std::int64_t uptime_ms =
        options.deterministic
            ? 0
            : std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - serve_start)
                  .count();
    if (metrics_thread.joinable()) {
      metrics_thread_stop.store(true, std::memory_order_relaxed);
      metrics_thread.join();
    }
    if (event_log && g_stop.load(std::memory_order_relaxed)) {
      event_log->event(oregami::server::EventLog::Level::kInfo,
                       oregami::server::EventLog::kServerStop,
                       "shutdown_signal", "");
    }
    if (journal) {
      journal->flush();
      const auto pstats = journal->stats();
      std::cerr << "cache-file " << *args.cache_file << ": appended "
                << pstats.appended << ", compactions "
                << pstats.compactions << ", io_errors " << pstats.io_errors
                << (pstats.degraded ? ", persistence degraded" : "")
                << "\n";
      if (event_log && (pstats.io_errors > 0 || pstats.degraded)) {
        event_log->event(oregami::server::EventLog::Level::kWarn,
                         oregami::server::EventLog::kServerStop,
                         "persist_warning",
                         "\"io_errors\":" +
                             std::to_string(pstats.io_errors) +
                             ",\"degraded\":" +
                             (pstats.degraded ? "true" : "false"));
      }
    }
    if (args.failpoints) {
      const std::string fired = oregami::failpoint::report();
      if (!fired.empty()) {
        std::cerr << "failpoints: " << fired << "\n";
      }
    }
    if (event_log) {
      event_log->event(
          oregami::server::EventLog::Level::kInfo,
          oregami::server::EventLog::kServerStop, "server_stop",
          "\"lines\":" + std::to_string(stats.lines) +
              ",\"ok\":" + std::to_string(stats.ok) +
              ",\"errors\":" + std::to_string(stats.errors));
      event_log->close();
    }
    if (args.metrics_file &&
        !oregami::metrics::write_prometheus_file(*args.metrics_file)) {
      std::cerr << "warning: cannot write metrics to '" << *args.metrics_file
                << "'\n";
    }
    std::cerr << (args.stats_json
                      ? oregami::server::render_stats_line(stats, uptime_ms)
                      : stats.to_json())
              << "\n";

    if (args.trace_file || args.trace_summary) {
      oregami::trace::disable();
      const auto events = oregami::trace::snapshot();
      if (args.trace_file) {
        std::ofstream out(*args.trace_file);
        if (!out) {
          std::cerr << "warning: cannot write trace to '" << *args.trace_file
                    << "'\n";
        } else {
          oregami::trace::write_chrome_json(out, events);
        }
      }
      if (args.trace_summary) {
        std::cerr << oregami::trace::summary_tree(events);
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "internal error: " << e.what() << "\n";
    return 1;
  } catch (...) {
    std::cerr << "internal error: unknown exception\n";
    return 1;
  }
}
