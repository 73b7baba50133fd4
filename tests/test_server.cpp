// The mapping server end to end: wire parsing/formatting, the serve()
// loop's determinism contract (order-normalized result streams are
// byte-identical across worker counts), per-job error handling, and
// warm-cache reuse across serve() calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "oregami/arch/topology_spec.hpp"
#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/server/digest.hpp"
#include "oregami/server/persist.hpp"
#include "oregami/server/server.hpp"
#include "oregami/server/telemetry.hpp"
#include "oregami/server/wire.hpp"
#include "oregami/support/failpoint.hpp"
#include "oregami/support/metrics.hpp"
#include "oregami/support/rng.hpp"

namespace oregami::server {
namespace {

void expect_contains(const std::string& haystack,
                     const std::string& needle) {
  EXPECT_NE(haystack.find(needle), std::string::npos)
      << "expected to find: " << needle << "\nin: " << haystack;
}

// ----------------------------------------------------------- parsing

TEST(WireParse, AcceptsFullJob) {
  const WireJob job = parse_job(
      R"({"id":7,"program":"nbody","bind":{"n":15,"s":4,"m":8},)"
      R"("topology":"mesh:4x4","options":{"portfolio":8,"anneal":2,)"
      R"("heft":true,"seed":123},"deadline_ms":50})",
      3);
  EXPECT_EQ(job.id, "7");
  EXPECT_EQ(job.line, 3u);
  EXPECT_EQ(job.program, "nbody");
  EXPECT_EQ(job.topology, "mesh:4x4");
  EXPECT_EQ(job.bindings.at("n"), 15);
  EXPECT_EQ(job.bindings.at("s"), 4);
  EXPECT_EQ(job.options.portfolio, 8);
  EXPECT_EQ(job.options.anneal, 2);
  EXPECT_TRUE(job.options.heft);
  EXPECT_EQ(job.options.portfolio_seed, 123u);
  EXPECT_EQ(job.deadline_ms, 50);
  EXPECT_EQ(job.options.jobs, 1);  // server default: no per-job fan-out
}

TEST(WireParse, StringAndNumericIdsBothEchoCanonically) {
  EXPECT_EQ(parse_job(R"({"id":"abc","larcs":"x","topology":"ring:2"})", 1)
                .id,
            "abc");
  EXPECT_EQ(parse_job(R"({"id":42,"larcs":"x","topology":"ring:2"})", 1).id,
            "42");
}

void expect_parse_error(const std::string& line, int code,
                        const std::string& needle) {
  try {
    (void)parse_job(line, 9);
    FAIL() << "expected WireError for: " << line;
  } catch (const WireError& e) {
    EXPECT_EQ(e.code(), code) << e.what();
    expect_contains(e.what(), needle);
  }
}

TEST(WireParse, RejectsBadJobsWithQuotableMessages) {
  expect_parse_error("not json", kJobMalformed, "JSON error");
  expect_parse_error("[1,2]", kJobMalformed, "must be a JSON object");
  expect_parse_error(R"({"program":"x","topology":"ring:2"})",
                     kJobMalformed, "missing required field \"id\"");
  expect_parse_error(R"({"id":"","program":"x","topology":"ring:2"})",
                     kJobMalformed, "\"id\" must not be empty");
  expect_parse_error(R"({"id":1,"program":"x"})", kJobMalformed,
                     "missing required field \"topology\"");
  expect_parse_error(R"({"id":1,"topology":"ring:2"})", kJobMalformed,
                     "exactly one of");
  expect_parse_error(
      R"({"id":1,"program":"x","larcs":"y","topology":"ring:2"})",
      kJobMalformed, "mutually exclusive");
  expect_parse_error(
      R"({"id":1,"program":"x","topology":"ring:2","frob":1})",
      kJobMalformed, "unknown field \"frob\"");
  expect_parse_error(
      R"({"id":1,"program":"x","topology":"ring:2","bind":{"n":1.5}})",
      kJobMalformed, "bind.n");
  expect_parse_error(
      R"({"id":1,"program":"x","topology":"ring:2",)"
      R"("options":{"warp":9}})",
      kJobMalformed,
      "unknown option \"warp\" (known: portfolio, anneal, heft, multilevel, "
      "seed, refine, refine_placement, load_bound, no_canned, no_group, "
      "no_systolic, jobs, budget_ms)");
  // The CLI's flag-combination contract, enforced per job.
  expect_parse_error(
      R"({"id":1,"program":"x","topology":"ring:2",)"
      R"("options":{"anneal":2}})",
      kJobMalformed, "requires options.portfolio");
  expect_parse_error(
      R"({"id":1,"program":"x","topology":"ring:2",)"
      R"("options":{"multilevel":-1,"portfolio":4}})",
      kJobMalformed, "incompatible");
  expect_parse_error(
      R"({"id":1,"program":"x","topology":"ring:2",)"
      R"("options":{"heft":true}})",
      kJobMalformed, "options.heft requires options.portfolio");
  // Ranges: multilevel is 0, -1 or 1..64; counts are never negative.
  for (const char* bad : {"-2", "65"}) {
    expect_parse_error(
        std::string(R"({"id":1,"program":"x","topology":"ring:2",)") +
            R"("options":{"multilevel":)" + bad + "}}",
        kJobMalformed, "options.multilevel must be 0 (off)");
  }
  // A count beyond int is refused, not wrapped (2^32 would wrap to 0).
  expect_parse_error(
      R"({"id":1,"program":"x","topology":"ring:2",)"
      R"("options":{"portfolio":4294967296}})",
      kJobMalformed, "field \"options.portfolio\" is out of range");
  for (const char* field : {"jobs", "portfolio", "anneal"}) {
    expect_parse_error(
        std::string(R"({"id":1,"program":"x","topology":"ring:2",)") +
            R"("options":{")" + field + R"(":-1}})",
        kJobMalformed, std::string("options.") + field + " must be >= 0");
  }
  // Upper bounds, refused before any work is sized by them.
  for (const auto& [options, message] :
       std::vector<std::pair<std::string, std::string>>{
           {R"({"portfolio":2147483647})", "options.portfolio must be <= 1024"},
           {R"({"portfolio":1,"anneal":257})", "options.anneal must be <= 256"},
           {R"({"portfolio":4,"jobs":2147483647})",
            "options.jobs must be <= 256"}}) {
    expect_parse_error(
        R"({"id":1,"program":"x","topology":"ring:2","options":)" + options +
            "}",
        kJobMalformed, message);
  }
  // Deadlines and budgets are capped at 2^40 ms (Deadline converts them
  // to nanoseconds); the cap itself is accepted.
  for (const auto& [open, close] :
       std::vector<std::pair<std::string, std::string>>{
           {R"("deadline_ms":)", "}"}, {R"("options":{"budget_ms":)", "}}"}}) {
    const std::string job =
        R"({"id":1,"program":"x","topology":"ring:2",)" + open;
    expect_parse_error(job + "9000000000000000" + close, kJobMalformed,
                       "must be <= 1099511627776 (2^40 ms)");
    EXPECT_NO_THROW(
        (void)parse_job(job + std::to_string(kMaxDeadlineMs) + close, 1));
  }
  // Every parse error names the job once an id is known, and carries
  // the id for the error line; before that the id is empty.
  expect_parse_error(
      R"({"id":7,"program":"x","topology":"ring:2","frob":1})",
      kJobMalformed, "job 7:");
  using Case = std::pair<std::string, std::string>;
  for (const auto& [line, id] : std::vector<Case>{
           {R"({"id":7,"program":"x","topology":"ring:2","frob":1})", "7"},
           {R"({"id":"a","topology":"ring:2","options":{"anneal":1}})", "a"},
           {R"({"program":"x","topology":"ring:2"})", ""},
           {R"({"id":1.5,"program":"x","topology":"ring:2"})", ""},
           {"not json", ""}}) {
    try {
      (void)parse_job(line, 3);
      ADD_FAILURE() << "expected WireError for: " << line;
    } catch (const WireError& e) {
      EXPECT_EQ(e.id(), id) << line;
    }
  }
}

TEST(WireParse, BenchmarkOptionSpellingsKeepTheirCacheKeys) {
  // The option spellings mapbench's workloads send, each pinned to the
  // cache key it had before the time budget became one field: renaming
  // or re-deriving options must never move a warm cache's keys.
  const std::vector<std::pair<std::string, std::string>> pins = {
      {"{}", "7bb2d7d76f7682a2"},
      {R"({"portfolio":4})", "dbc482c58445d6d6"},
      {R"({"portfolio":4,"anneal":1,"heft":true})", "da9bdaf35c994f36"},
      {R"({"multilevel":-1,"jobs":3})", "4a19a42e30fc5eea"},
  };
  const larcs::Program ast = larcs::parse_program(larcs::programs::jacobi());
  for (const auto& [options, digest] : pins) {
    const WireJob job = parse_job(
        R"({"id":1,"program":"jacobi","bind":{"n":8,"iters":10},)"
        R"("topology":"mesh:4x4","options":)" + options + "}",
        1);
    const larcs::CompiledProgram compiled = larcs::compile(ast, job.bindings);
    EXPECT_EQ(digest_hex(job_digest(compiled.graph,
                                    parse_topology_spec(job.topology),
                                    job.options)),
              digest)
        << options;
  }
}

TEST(MapperOptionTable, EveryWireKeyButJobsMovesTheDigest) {
  // An option that changes what is computed must change the cache key,
  // or two different jobs would share one entry; worker count must not.
  const larcs::Program ast = larcs::parse_program(larcs::programs::jacobi());
  const larcs::CompiledProgram compiled =
      larcs::compile(ast, {{"n", 8}, {"iters", 10}});
  const Topology topo = parse_topology_spec("mesh:4x4");
  const MapperOptions base =
      parse_job(R"({"id":1,"program":"jacobi","topology":"mesh:4x4"})", 1)
          .options;
  const std::uint64_t base_digest = job_digest(compiled.graph, topo, base);
  EXPECT_EQ(digest_hex(base_digest), "7bb2d7d76f7682a2");
  for (const MapperOptionSpec& spec : mapper_options()) {
    // 3 is no option's default, and it turns every switch on.
    MapperOptions changed = base;
    set_mapper_option(changed, spec, 3);
    if (spec.key == "jobs") {
      EXPECT_EQ(changed.jobs, 3);
      EXPECT_EQ(job_digest(compiled.graph, topo, changed), base_digest);
    } else {
      EXPECT_NE(job_digest(compiled.graph, topo, changed), base_digest)
          << spec.key;
    }
  }
}

// -------------------------------------------------------- formatting

TEST(WireFormat, JsonEscapeCoversControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(WireFormat, OkResultFieldOrderIsStable) {
  CachedOutcome outcome;
  outcome.ok = true;
  outcome.strategy = "canned";
  outcome.completion = 10;
  outcome.external_ipc = 20;
  outcome.max_load = 5;
  outcome.proc_of_task = {0, 1};
  EXPECT_EQ(format_ok_result("7", 0xabcULL, true, outcome, 1.5),
            "{\"id\":\"7\",\"status\":\"ok\","
            "\"digest\":\"0000000000000abc\",\"cache\":\"hit\","
            "\"strategy\":\"canned\",\"completion\":10,"
            "\"external_ipc\":20,\"max_load\":5,\"procs\":[0,1],"
            "\"wall_ms\":1.500}");
}

TEST(WireFormat, ErrorResultRendersNullIdWhenUnknown) {
  EXPECT_EQ(format_error_result("", 4, kJobMalformed, "bad \"x\""),
            "{\"id\":null,\"line\":4,\"status\":\"error\",\"code\":2,"
            "\"error\":\"bad \\\"x\\\"\"}");
}

TEST(WireFormat, ErrorResultCarriesRetryAfterHintWhenGiven) {
  EXPECT_EQ(format_error_result("9", 2, kJobRejected, "queue full", 35),
            "{\"id\":\"9\",\"line\":2,\"status\":\"error\",\"code\":5,"
            "\"retry_after_ms\":35,\"error\":\"queue full\"}");
  // The default omits the field entirely (non-rejection errors).
  EXPECT_EQ(format_error_result("9", 2, kJobRejected, "queue full"),
            "{\"id\":\"9\",\"line\":2,\"status\":\"error\",\"code\":5,"
            "\"error\":\"queue full\"}");
}

// ------------------------------------------------------------- serve

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

/// Normalizes a result stream for cross-run comparison: sorts by line
/// text (result ids are unique, so this is a stable order) and blanks
/// the one schedule-dependent bit -- which of several *identical
/// concurrent* jobs computed vs joined (per-line "cache" label).
std::vector<std::string> normalized(const std::string& text) {
  std::vector<std::string> lines = split_lines(text);
  for (auto& line : lines) {
    for (const char* label : {"\"cache\":\"hit\"", "\"cache\":\"miss\""}) {
      const auto at = line.find(label);
      if (at != std::string::npos) {
        line.replace(at, std::string(label).size(), "\"cache\":\"?\"");
      }
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// A 50-line mixed stream: every catalog program (with its example
/// bindings), duplicates that must hit the cache, and a tail of
/// malformed / unknown-input / infeasible / expired jobs.
std::string mixed_stream() {
  std::string stream;
  int id = 0;
  const auto catalog = larcs::programs::catalog();
  auto job_line = [&](const larcs::programs::CatalogEntry& entry,
                      const std::string& topo) {
    std::string line =
        "{\"id\":" + std::to_string(++id) + ",\"program\":\"" + entry.name +
        "\",\"bind\":{";
    bool first = true;
    for (const auto& [name, value] : entry.example_bindings) {
      if (!first) {
        line += ',';
      }
      first = false;
      line += "\"" + name + "\":" + std::to_string(value);
    }
    line += "},\"topology\":\"" + topo + "\"}\n";
    stream += line;
  };
  for (int round = 0; round < 3; ++round) {  // 30 jobs, 20 duplicates
    for (const auto& entry : catalog) {
      job_line(entry, round == 1 ? "ring:16" : "mesh:4x4");
    }
  }
  // 20 deterministic failures of every flavour.
  for (int i = 0; i < 5; ++i) {
    stream += "{\"id\":" + std::to_string(++id) + "}\n";  // malformed
    stream += "{\"id\":" + std::to_string(++id) +
              ",\"program\":\"nope\",\"topology\":\"mesh:4x4\"}\n";
    stream += "{\"id\":" + std::to_string(++id) +
              ",\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
              "\"topology\":\"taurus\"}\n";
    stream += "{\"id\":" + std::to_string(++id) +
              ",\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
              "\"topology\":\"mesh:4x4\",\"deadline_ms\":-1}\n";
  }
  return stream;
}

ServerOptions deterministic_options(int jobs) {
  ServerOptions options;
  options.jobs = jobs;
  options.deterministic = true;
  options.queue_capacity = 1 << 10;  // never reject in this test
  return options;
}

TEST(Serve, MixedStreamIsDeterministicAcrossWorkerCounts) {
  const std::string stream = mixed_stream();
  ASSERT_GE(split_lines(stream).size(), 50u);

  std::istringstream in1(stream);
  std::ostringstream out1;
  const ServerStats s1 = serve(in1, out1, deterministic_options(1));

  std::istringstream in3(stream);
  std::ostringstream out3;
  const ServerStats s3 = serve(in3, out3, deterministic_options(3));

  EXPECT_EQ(normalized(out1.str()), normalized(out3.str()));

  // Accounting is deterministic too: 20 unique mapping jobs (10
  // programs x 2 topologies), 10 duplicates, 20 failures of which the
  // 5 bad-topology and 5 unknown-program jobs fail before the cache.
  EXPECT_EQ(s1.lines, 50);
  EXPECT_EQ(s1.ok, 30);
  EXPECT_EQ(s1.errors, 20);
  EXPECT_EQ(s1.rejected, 0);
  EXPECT_EQ(s1.cache_misses, 20);
  EXPECT_EQ(s1.cache_hits, 10);
  EXPECT_EQ(s3.lines, s1.lines);
  EXPECT_EQ(s3.ok, s1.ok);
  EXPECT_EQ(s3.errors, s1.errors);
  EXPECT_EQ(s3.cache_misses, s1.cache_misses);
  EXPECT_EQ(s3.cache_hits, s1.cache_hits);
}

TEST(Serve, RepeatRunsKeepPerLineCacheLabelsWithOneWorker) {
  // With one worker, jobs execute in admission order, so even the
  // per-line hit/miss labels are reproducible. Only the interleaving
  // of reader-emitted parse-error lines with worker-emitted results is
  // schedule-dependent, so compare sorted (labels NOT blanked).
  const std::string stream = mixed_stream();
  std::vector<std::string> first;
  for (int run = 0; run < 2; ++run) {
    std::istringstream in(stream);
    std::ostringstream out;
    (void)serve(in, out, deterministic_options(1));
    std::vector<std::string> lines = split_lines(out.str());
    std::sort(lines.begin(), lines.end());
    if (run == 0) {
      first = std::move(lines);
    } else {
      EXPECT_EQ(lines, first);
    }
  }
}

TEST(Serve, ErrorLinesCarryTheContractCodes) {
  const std::string stream =
      "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"taurus\"}\n"
      "garbage\n"
      "{\"id\":3,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\",\"deadline_ms\":-1}\n";
  std::istringstream in(stream);
  std::ostringstream out;
  const ServerStats stats = serve(in, out, deterministic_options(1));
  EXPECT_EQ(stats.errors, 3);
  const std::string text = out.str();
  expect_contains(text, "\"code\":3");  // bad topology
  expect_contains(text, "unknown or invalid topology \\\"taurus\\\"");
  expect_contains(text, "\"code\":2");  // malformed line
  expect_contains(text, "\"code\":6");  // expired deadline
  expect_contains(text, "deadline expired");
}

TEST(Serve, OptionErrorsEchoTheJobIdAndUnreadableIdsStayNull) {
  const std::string stream =
      "{\"id\":903,\"program\":\"jacobi\",\"topology\":\"mesh:4x4\","
      "\"options\":{\"anneal\":1}}\n"
      "{\"id\":904,\"program\":\"jacobi\",\"topology\":\"mesh:4x4\","
      "\"deadline_ms\":9000000000000000}\n"
      "{\"program\":\"jacobi\",\"topology\":\"mesh:4x4\"}\n"
      "garbage\n";
  std::istringstream in(stream);
  std::ostringstream out;
  const ServerStats stats = serve(in, out, deterministic_options(1));
  EXPECT_EQ(stats.errors, 4);
  std::vector<std::string> lines = split_lines(out.str());
  std::sort(lines.begin(), lines.end());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0],
            "{\"id\":\"903\",\"line\":1,\"status\":\"error\",\"code\":2,"
            "\"error\":\"job 903: options.anneal requires options.portfolio "
            "> 0\"}");
  EXPECT_EQ(lines[1],
            "{\"id\":\"904\",\"line\":2,\"status\":\"error\",\"code\":2,"
            "\"error\":\"job 904: field \\\"deadline_ms\\\" must be <= "
            "1099511627776 (2^40 ms)\"}");
  expect_contains(lines[2], "{\"id\":null,\"line\":3,");
  expect_contains(lines[3], "{\"id\":null,\"line\":4,");
}

TEST(Serve, TopologyOutsideItsFamilysDomainIsBadInputNotACrash) {
  // torus:2x8 breaks the torus factory's precondition; the job gets a
  // code-3 line and the daemon goes on to serve the next job.
  const std::string stream =
      "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"torus:2x8\"}\n"
      "{\"id\":2,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\"}\n";
  std::istringstream in(stream);
  std::ostringstream out;
  const ServerStats stats = serve(in, out, deterministic_options(1));
  EXPECT_EQ(stats.errors, 1);
  EXPECT_EQ(stats.ok, 1);
  std::vector<std::string> lines = split_lines(out.str());
  std::sort(lines.begin(), lines.end());
  ASSERT_EQ(lines.size(), 2u);
  expect_contains(lines[0], "\"id\":\"1\"");
  expect_contains(lines[0], "\"code\":3");
  expect_contains(lines[0], "torus dimensions must be >= 3");
  expect_contains(lines[1], "\"id\":\"2\"");
  expect_contains(lines[1], "\"status\":\"ok\"");
}

TEST(Serve, ExpiredBudgetLeavesPortfolioJobsTheFig3Answer) {
  // budget_ms bounds the portfolio search: an already-expired budget
  // runs only candidate 0, the Fig-3 single-shot mapping, so the job
  // places every task exactly as the same job without options does.
  const std::string job =
      R"("program":"nbody","bind":{"n":15,"s":4,"m":8},)"
      R"("topology":"torus:4x4","options":)";
  const std::string stream =
      "{\"id\":1," + job + "{}}\n" + "{\"id\":2," + job +
      R"({"portfolio":4,"budget_ms":-1}})" + "\n";
  std::istringstream in(stream);
  std::ostringstream out;
  const ServerStats stats = serve(in, out, deterministic_options(1));
  EXPECT_EQ(stats.ok, 2);
  std::vector<std::string> lines = split_lines(out.str());
  std::sort(lines.begin(), lines.end());
  ASSERT_EQ(lines.size(), 2u);
  // Everything from the completion on: objectives and placement.
  const auto answer = [](const std::string& line) {
    const auto from = line.find("\"completion\"");
    return line.substr(from, line.find("\"wall_ms\"") - from);
  };
  expect_contains(lines[0], "\"completion\":2048,");
  EXPECT_EQ(answer(lines[1]), answer(lines[0]));
}

std::string repeated(const std::string& text, int times) {
  std::string out;
  for (int i = 0; i < times; ++i) {
    out += text;
  }
  return out;
}

/// One wire job carrying inline LaRCS: a ring over 8 tasks with the
/// given phase expression (JSON-escaped newlines).
std::string inline_ring_job(int id, const std::string& phases,
                            const std::string& bind) {
  return "{\"id\":" + std::to_string(id) +
         ",\"larcs\":\"algorithm rep(r);\\nnodetype t[i: 0 .. 7];\\n"
         "comphase ring { t(i) -> t((i + 1) mod 8) volume 1000; }\\n"
         "exphase work cost 1000;\\nphases " +
         phases + ";\\n\",\"bind\":{" + bind +
         "},\"topology\":\"ring:4\"}\n";
}

TEST(Serve, DeeplyNestedLarcsIsBadInputAndTheDaemonKeepsServing) {
  // 20 000 nested repetitions, about 80 KB of source: refused by the
  // parser's nesting cap before any recursive walk can overflow the
  // worker's stack; the next job still gets its answer.
  const std::string deep =
      repeated("(", 20000) + "ring" + repeated(")^1", 20000);
  const std::string stream = inline_ring_job(1, deep, "\"r\":1") +
                             inline_ring_job(2, "((ring; work)^r)^r",
                                             "\"r\":2");
  ASSERT_GT(stream.size(), 80000u);
  std::istringstream in(stream);
  std::ostringstream out;
  const ServerStats stats = serve(in, out, deterministic_options(1));
  EXPECT_EQ(stats.errors, 1);
  EXPECT_EQ(stats.ok, 1);
  std::vector<std::string> lines = split_lines(out.str());
  std::sort(lines.begin(), lines.end());
  ASSERT_EQ(lines.size(), 2u);
  expect_contains(lines[0], "\"id\":\"1\"");
  expect_contains(lines[0], "\"code\":3");
  expect_contains(lines[0], "nesting deeper than 256 levels");
  expect_contains(lines[1], "\"id\":\"2\"");
  expect_contains(lines[1], "\"status\":\"ok\"");
}

TEST(Serve, RepetitionCountsThatOverflowTheModelAreBadInput) {
  // ((ring; work)^r)^r on ring:4: r = 4e9 overflows the multiplicity,
  // r = 3e9 the completion bound; both used to answer "ok" with a
  // wrapped completion. r = 1000 is exact.
  const std::string phases = "((ring; work)^r)^r";
  const std::string stream =
      inline_ring_job(1, phases, "\"r\":4000000000") +
      inline_ring_job(2, phases, "\"r\":3000000000") +
      inline_ring_job(3, phases, "\"r\":1000");
  std::istringstream in(stream);
  std::ostringstream out;
  const ServerStats stats = serve(in, out, deterministic_options(1));
  EXPECT_EQ(stats.errors, 2);
  EXPECT_EQ(stats.ok, 1);
  std::vector<std::string> lines = split_lines(out.str());
  std::sort(lines.begin(), lines.end());
  ASSERT_EQ(lines.size(), 3u);
  for (int i = 0; i < 2; ++i) {
    expect_contains(lines[static_cast<std::size_t>(i)], "\"code\":3");
    expect_contains(lines[static_cast<std::size_t>(i)], "overflow");
  }
  expect_contains(lines[2], "\"id\":\"3\"");
  expect_contains(lines[2], "\"completion\":3001000000,");
}

TEST(Serve, BlankLinesAreKeepAlivesNotJobs) {
  std::istringstream in("\n  \t\n\n");
  std::ostringstream out;
  const ServerStats stats = serve(in, out, deterministic_options(1));
  EXPECT_EQ(stats.lines, 0);
  EXPECT_EQ(out.str(), "");
}

TEST(Serve, ExternalCacheStaysWarmAcrossCalls) {
  const std::string stream =
      "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\"}\n"
      "{\"id\":2,\"program\":\"sor\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\"}\n";
  ResultCache cache(64, 4);
  ServerOptions options = deterministic_options(2);
  options.cache = &cache;

  std::istringstream cold_in(stream);
  std::ostringstream cold_out;
  const ServerStats cold = serve(cold_in, cold_out, options);
  EXPECT_EQ(cold.cache_misses, 2);
  EXPECT_EQ(cold.cache_hits, 0);

  std::istringstream warm_in(stream);
  std::ostringstream warm_out;
  const ServerStats warm = serve(warm_in, warm_out, options);
  EXPECT_EQ(warm.cache_misses, 0);
  EXPECT_EQ(warm.cache_hits, 2);

  // Identical payloads modulo the hit/miss label.
  EXPECT_EQ(normalized(cold_out.str()), normalized(warm_out.str()));
}

TEST(Serve, StopFlagStopsAdmissionButStillDrains) {
  std::atomic<bool> stop{true};  // raised before the first line
  std::istringstream in(
      "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\"}\n");
  std::ostringstream out;
  const ServerStats stats = serve(in, out, deterministic_options(1), &stop);
  EXPECT_EQ(stats.lines, 0);  // nothing admitted
  EXPECT_EQ(out.str(), "");
}

TEST(Serve, StatsToJsonIsOneStableLine) {
  ServerStats stats;
  stats.lines = 5;
  stats.ok = 3;
  stats.errors = 2;
  stats.rejected = 1;
  stats.abandoned = 1;
  stats.cache_hits = 4;
  stats.cache_misses = 6;
  stats.cache_evictions = 7;
  EXPECT_EQ(stats.to_json(),
            "{\"lines\":5,\"ok\":3,\"errors\":2,\"rejected\":1,"
            "\"abandoned\":1,"
            "\"cache_hits\":4,\"cache_misses\":6,\"cache_evictions\":7}");
}

// --------------------------------------------------------- front key

/// One catalog program's example job, spelled with the given field and
/// binding orders, by name or by inline source, with the given options
/// (already-rendered "key":value pairs), id, jobs and deadline.
struct RequestSpelling {
  const larcs::programs::CatalogEntry* entry = nullptr;
  bool inline_source = false;
  std::string topology;
  std::vector<std::string> options;
  int id = 0;
  int jobs = 0;         ///< 0 = absent
  int deadline_ms = 0;  ///< 0 = absent
};

std::string render_request(const RequestSpelling& r, SplitMix64& rng) {
  auto shuffled = [&rng](std::vector<std::string> parts) {
    for (std::size_t i = parts.size(); i > 1; --i) {
      std::swap(parts[i - 1], parts[rng.next_below(i)]);
    }
    std::string out;
    for (const std::string& part : parts) {
      out += (out.empty() ? "" : ",") + part;
    }
    return out;
  };
  std::vector<std::string> binds;
  for (const auto& [name, value] : r.entry->example_bindings) {
    binds.push_back("\"" + name + "\":" + std::to_string(value));
  }
  std::vector<std::string> options = r.options;
  if (r.jobs != 0) options.push_back("\"jobs\":" + std::to_string(r.jobs));
  std::vector<std::string> fields = {
      "\"id\":" + std::to_string(r.id),
      r.inline_source
          ? "\"larcs\":\"" + json_escape(r.entry->source) + "\""
          : "\"program\":\"" + r.entry->name + "\"",
      "\"bind\":{" + shuffled(binds) + "}",
      "\"topology\":\"" + r.topology + "\"",
      "\"options\":{" + shuffled(options) + "}"};
  if (r.deadline_ms != 0) {
    fields.push_back("\"deadline_ms\":" + std::to_string(r.deadline_ms));
  }
  return "{" + shuffled(fields) + "}";
}

/// The compile path's digest of a parsed request.
std::uint64_t compiled_digest(const WireJob& job) {
  const std::string source =
      job.program.empty() ? job.larcs
                          : larcs::programs::find(job.program)->source;
  const larcs::CompiledProgram compiled =
      larcs::compile(larcs::parse_program(source), job.bindings);
  return job_digest(compiled.graph, parse_topology_spec(job.topology),
                    job.options);
}

const larcs::programs::CatalogEntry& catalog_entry(const std::string& name) {
  const auto* entry = larcs::programs::find(name);
  if (entry == nullptr) throw std::runtime_error("no catalog program " + name);
  return *entry;
}

TEST(FrontKey, OneKeyNeverResolvesToTwoCompiledDigests) {
  // Property over generated requests: field, binding and option orders
  // shuffled, name vs identical inline source, jobs, deadline_ms and id
  // varied. Whatever the spelling, one front key maps to one digest,
  // and spellings that differ only in order, jobs, deadline or id
  // share their key.
  const std::vector<std::string> programs = {"jacobi", "sor", "nbody",
                                             "cbt_reduce"};
  const std::vector<std::string> topologies = {"mesh:4x4", "ring:16"};
  const std::vector<std::vector<std::string>> option_sets = {
      {},
      {"\"portfolio\":4"},
      {"\"portfolio\":4", "\"anneal\":1", "\"heft\":true"},
      {"\"portfolio\":2", "\"seed\":7", "\"budget_ms\":0"},
      {"\"refine_placement\":true", "\"no_canned\":true", "\"load_bound\":3"}};
  SplitMix64 rng(2024);
  std::map<std::string, std::uint64_t> digest_of_key;
  std::map<std::string, std::set<std::string>> keys_of_problem;
  for (int i = 0; i < 240; ++i) {
    RequestSpelling r;
    const std::string& name = programs[rng.next_below(programs.size())];
    r.entry = &catalog_entry(name);
    r.inline_source = rng.next_below(2) == 1;
    r.topology = topologies[rng.next_below(topologies.size())];
    const std::size_t option_set = rng.next_below(option_sets.size());
    r.options = option_sets[option_set];
    r.id = i + 1;
    r.jobs = static_cast<int>(rng.next_below(4));
    r.deadline_ms = static_cast<int>(rng.next_below(3)) * 5000;
    const WireJob job = parse_job(render_request(r, rng), 1);
    const std::string key = front_key(job);
    ASSERT_FALSE(key.empty());
    const std::uint64_t digest = compiled_digest(job);
    const auto [it, fresh] = digest_of_key.try_emplace(key, digest);
    EXPECT_EQ(it->second, digest) << "front key resolved to two digests";
    keys_of_problem[name + (r.inline_source ? "/inline/" : "/name/") +
                    r.topology + "/" + std::to_string(option_set)]
        .insert(key);
  }
  // Order, jobs, deadline and id never split a key.
  for (const auto& [problem, keys] : keys_of_problem) {
    EXPECT_EQ(keys.size(), 1u) << problem;
  }

  // Name and identical inline source: two keys, one digest -- the pin.
  RequestSpelling jacobi;
  jacobi.entry = &catalog_entry("jacobi");
  jacobi.topology = "mesh:4x4";
  const WireJob by_name = parse_job(render_request(jacobi, rng), 1);
  jacobi.inline_source = true;
  const WireJob by_source = parse_job(render_request(jacobi, rng), 1);
  EXPECT_NE(front_key(by_name), front_key(by_source));
  EXPECT_EQ(digest_hex(compiled_digest(by_name)), "7bb2d7d76f7682a2");
  EXPECT_EQ(digest_hex(compiled_digest(by_source)), "7bb2d7d76f7682a2");
}

constexpr const char* kJacobiJob =
    "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
    "\"topology\":\"mesh:4x4\"}\n";

/// Serves `stream` against `cache` (deterministic, `jobs` workers).
std::pair<std::string, ServerStats> serve_with(ResultCache& cache,
                                               const std::string& stream,
                                               int jobs = 1) {
  ServerOptions options = deterministic_options(jobs);
  options.cache = &cache;
  std::istringstream in(stream);
  std::ostringstream out;
  const ServerStats stats = serve(in, out, options);
  return {out.str(), stats};
}

TEST(FrontKey, FrontHitLineIsByteIdenticalToTheCompilePathLine) {
  const std::string key = front_key(parse_job(kJacobiJob, 1));
  // Cache `front` is primed by the request itself: its repeat is a
  // front hit. Cache `compiled` is primed by the same problem spelled
  // as inline source, so the request by name compiles, then hits.
  ResultCache front(64, 4);
  (void)serve_with(front, kJacobiJob);
  ASSERT_TRUE(front.front_lookup(key).has_value());

  RequestSpelling inline_jacobi;
  inline_jacobi.entry = &catalog_entry("jacobi");
  inline_jacobi.inline_source = true;
  inline_jacobi.topology = "mesh:4x4";
  inline_jacobi.id = 1;
  SplitMix64 rng(1);
  ResultCache compiled(64, 4);
  (void)serve_with(compiled, render_request(inline_jacobi, rng) + "\n");
  ASSERT_FALSE(compiled.front_lookup(key).has_value());

  const auto [front_line, front_stats] = serve_with(front, kJacobiJob);
  const auto [compiled_line, compiled_stats] =
      serve_with(compiled, kJacobiJob);
  EXPECT_EQ(front_stats.cache_hits, 1);
  EXPECT_EQ(compiled_stats.cache_hits, 1);
  expect_contains(front_line, "\"digest\":\"7bb2d7d76f7682a2\"");
  EXPECT_EQ(front_line, compiled_line);
}

TEST(FrontKey, EvictedOutcomeIsRecompiledAndAnswersTheSame) {
  // One entry of room: evicting the outcome behind a front key leaves
  // the key itself, so the repeat takes the front path, finds no
  // outcome, and must compile and map again.
  ResultCache cache(1, 1);
  const auto [first, first_stats] = serve_with(cache, kJacobiJob);
  const std::string key = front_key(parse_job(kJacobiJob, 1));
  const std::optional<std::uint64_t> digest = cache.front_lookup(key);
  ASSERT_TRUE(digest.has_value());
  cache.insert(*digest + 1, std::make_shared<CachedOutcome>());
  ASSERT_FALSE(cache.contains(*digest));
  ASSERT_EQ(cache.front_lookup(key), digest);

  const auto [again, again_stats] = serve_with(cache, kJacobiJob);
  EXPECT_EQ(again_stats.cache_misses, 1);
  EXPECT_EQ(again, first);  // both misses: the same bytes
  EXPECT_TRUE(cache.contains(*digest));
}

TEST(FrontKey, RewrittenProgramFileIsRecompiled) {
  const std::string path = testing::TempDir() + "front_key_rewrite.larcs";
  const std::string job = "{\"id\":1,\"program_file\":\"" +
                          json_escape(path) +
                          "\",\"bind\":{\"n\":8,\"iters\":10},"
                          "\"topology\":\"mesh:4x4\"}\n";
  EXPECT_TRUE(front_key(parse_job(job, 1)).empty());
  ResultCache cache(64, 4);
  std::string digests[2];
  for (const char* program : {"jacobi", "sor"}) {
    std::ofstream(path) << catalog_entry(program).source;
    const std::string line = serve_with(cache, job).first;
    const auto at = line.find("\"digest\":\"");
    ASSERT_NE(at, std::string::npos) << line;
    digests[program[0] == 's'] = line.substr(at + 10, 16);
  }
  std::remove(path.c_str());
  EXPECT_NE(digests[0], digests[1]);
  WireJob sor = parse_job(job, 1);
  sor.program_file.clear();
  sor.program = "sor";
  EXPECT_EQ(digests[1], digest_hex(compiled_digest(sor)));
  EXPECT_EQ(cache.stats().front_size, 0);
}

TEST(FrontKey, ConcurrentRepeatsOfOneKeyComputeOnce) {
  // TSan-checked in CI: one request repeated on eight workers. Whoever
  // records the front key first, every answer is the same mapping, and
  // the digest is computed exactly once.
  std::string stream;
  for (int i = 0; i < 64; ++i) stream += kJacobiJob;
  ResultCache cache(64, 4);
  const auto [text, stats] = serve_with(cache, stream, 8);
  EXPECT_EQ(stats.ok, 64);
  EXPECT_EQ(stats.cache_misses, 1);
  EXPECT_EQ(stats.cache_hits, 63);
  const std::vector<std::string> lines = normalized(text);
  EXPECT_EQ(std::set<std::string>(lines.begin(), lines.end()).size(), 1u);
  EXPECT_EQ(cache.stats().front_size, 1);
}

// ------------------------------------------------- chaos & robustness

/// Clears the global failpoint schedule even when a test fails.
struct FailpointGuard {
  ~FailpointGuard() { failpoint::clear(); }
};

TEST(Serve, WatchdogAbandonsHungJobsAndKeepsDraining) {
  FailpointGuard guard;
  // Job on input line 1 hangs far past its deadline; the watchdog must
  // emit its code-6 line and the daemon must still finish job 2.
  failpoint::configure("job.run:hang(400)@1");
  const std::string stream =
      "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\",\"deadline_ms\":60}\n"
      "{\"id\":2,\"program\":\"sor\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\"}\n";
  std::istringstream in(stream);
  std::ostringstream out;
  const ServerStats stats = serve(in, out, deterministic_options(2));
  EXPECT_EQ(stats.lines, 2);
  EXPECT_EQ(stats.ok, 1);
  EXPECT_EQ(stats.errors, 1);
  EXPECT_EQ(stats.abandoned, 1);
  const std::string text = out.str();
  expect_contains(text, "\"code\":6");
  expect_contains(text, "deadline expired; result abandoned");
  expect_contains(text, "\"id\":\"2\",\"status\":\"ok\"");
  // Exactly one line per job even though worker and watchdog raced.
  EXPECT_EQ(split_lines(text).size(), 2u);
}

TEST(Serve, JobAbandonedWhileQueuedNeverRuns) {
  FailpointGuard guard;
  // One worker, held by job 1's hang: jobs 2 and 3 expire in the queue,
  // so the watchdog answers them before the worker reaches them, and
  // the worker must skip them entirely (no compile, no cache traffic).
  failpoint::configure("job.run:hang(200)@1");
  const std::string stream =
      "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\",\"deadline_ms\":50}\n"
      "{\"id\":2,\"program\":\"sor\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\",\"deadline_ms\":50}\n"
      "{\"id\":3,\"program\":\"nbody\",\"bind\":{\"n\":15,\"s\":4,"
      "\"m\":8},\"topology\":\"mesh:4x4\",\"deadline_ms\":50}\n";
  std::istringstream in(stream);
  std::ostringstream out;
  const ServerStats stats = serve(in, out, deterministic_options(1));
  EXPECT_EQ(stats.abandoned, 3);
  EXPECT_EQ(stats.cache_misses, 1);  // only the hung job ran
  EXPECT_EQ(stats.cache_hits, 0);
  const std::vector<std::string> lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    expect_contains(line, "\"code\":6");
  }
}

TEST(Serve, ForcedRejectionCarriesDeterministicRetryAfterHint) {
  FailpointGuard guard;
  failpoint::configure("server.admit:err@2");
  const std::string stream =
      "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\"}\n"
      "{\"id\":2,\"program\":\"sor\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\"}\n";
  std::istringstream in(stream);
  std::ostringstream out;
  const ServerStats stats = serve(in, out, deterministic_options(1));
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.ok, 1);
  const std::string text = out.str();
  expect_contains(text, "\"code\":5");
  expect_contains(text, "\"retry_after_ms\":");
  expect_contains(text, "rejected: queue full");
}

TEST(Serve, FailpointChaosReplaysIdenticallyAcrossWorkerCounts) {
  // Chaos sites on the job path key by the job's input line, so the
  // same schedule perturbs the same jobs at any worker count.
  const std::string stream = mixed_stream();
  std::string runs[2];
  const int workers[2] = {1, 3};
  for (int i = 0; i < 2; ++i) {
    FailpointGuard guard;
    failpoint::configure("job.run:throw@3,job.run:throw@7");
    std::istringstream in(stream);
    std::ostringstream out;
    (void)serve(in, out, deterministic_options(workers[i]));
    runs[i] = out.str();
  }
  EXPECT_EQ(normalized(runs[0]), normalized(runs[1]));
  // And the injected failures really landed: jobs 3 and 7 are code 1.
  expect_contains(runs[0], "\"id\":\"3\",\"line\":3,\"status\":\"error\","
                           "\"code\":1");
  expect_contains(runs[0], "injected failure (failpoint job.run)");
}

TEST(Serve, JournaledCacheRestoresWarmStateAcrossServeCalls) {
  const std::string path =
      testing::TempDir() + "serve_journal_roundtrip.bin";
  std::remove(path.c_str());
  const std::string stream =
      "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\"}\n"
      "{\"id\":2,\"program\":\"sor\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\"}\n";

  std::string cold_text;
  {
    ResultCache cache(64, 4);
    CacheJournal journal(path, cache);
    const RecoveryStats recovery = journal.open_and_recover();
    EXPECT_TRUE(recovery.missing);
    ServerOptions options = deterministic_options(2);
    options.cache = &cache;
    options.journal = &journal;
    std::istringstream in(stream);
    std::ostringstream out;
    const ServerStats cold = serve(in, out, options);
    EXPECT_EQ(cold.cache_misses, 2);
    EXPECT_EQ(journal.stats().appended, 2);
    cold_text = out.str();
  }

  // A brand-new cache + journal (a restarted daemon) boots warm.
  ResultCache cache(64, 4);
  CacheJournal journal(path, cache);
  const RecoveryStats recovery = journal.open_and_recover();
  EXPECT_EQ(recovery.restored, 2);
  EXPECT_EQ(recovery.skipped, 0);
  ServerOptions options = deterministic_options(2);
  options.cache = &cache;
  options.journal = &journal;
  std::istringstream in(stream);
  std::ostringstream out;
  const ServerStats warm = serve(in, out, options);
  EXPECT_EQ(warm.cache_misses, 0);
  EXPECT_EQ(warm.cache_hits, 2);
  EXPECT_EQ(normalized(cold_text), normalized(out.str()));
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// ----------------------------------------------------- telemetry

/// Runs the mixed stream with telemetry enabled and returns the
/// deterministic Prometheus exposition. Counters are reset first so
/// each run's metrics stand alone.
std::string serve_with_metrics(int jobs, ServerStats* stats_out) {
  metrics::reset_values();
  metrics::set_deterministic(true);
  metrics::enable();
  std::istringstream in(mixed_stream());
  std::ostringstream out;
  const ServerStats stats = serve(in, out, deterministic_options(jobs));
  const std::string text = metrics::to_prometheus(metrics::snapshot());
  metrics::disable();
  metrics::set_deterministic(false);
  if (stats_out != nullptr) {
    *stats_out = stats;
  }
  return text;
}

std::int64_t series_value(const metrics::Snapshot& snap,
                          const std::string& name) {
  const metrics::SeriesValue* s = snap.find(name);
  return s == nullptr ? -1 : s->scalar;
}

TEST(ServeMetricsIdentity, OutcomesPartitionSubmittedJobs) {
  for (const int jobs : {1, 0, 5}) {
    metrics::reset_values();
    metrics::set_deterministic(true);
    metrics::enable();
    std::istringstream in(mixed_stream());
    std::ostringstream out;
    const ServerStats stats = serve(in, out, deterministic_options(jobs));
    const metrics::Snapshot snap = metrics::snapshot();
    metrics::disable();
    metrics::set_deterministic(false);

    const std::int64_t submitted =
        series_value(snap, "oregami_server_jobs_submitted_total");
    const std::int64_t hit =
        series_value(snap, "oregami_server_jobs_total{outcome=\"hit\"}");
    const std::int64_t miss =
        series_value(snap, "oregami_server_jobs_total{outcome=\"miss\"}");
    const std::int64_t error =
        series_value(snap, "oregami_server_jobs_total{outcome=\"error\"}");
    const std::int64_t rejected = series_value(
        snap, "oregami_server_jobs_total{outcome=\"rejected\"}");
    const std::int64_t abandoned = series_value(
        snap, "oregami_server_jobs_total{outcome=\"abandoned\"}");

    // Every submitted line lands in exactly one outcome.
    EXPECT_EQ(hit + miss + error + rejected + abandoned, submitted)
        << "jobs=" << jobs;
    EXPECT_EQ(submitted, stats.lines) << "jobs=" << jobs;
    EXPECT_EQ(hit, 10) << "jobs=" << jobs;
    EXPECT_EQ(miss, 20) << "jobs=" << jobs;
    EXPECT_EQ(error, 20) << "jobs=" << jobs;
    EXPECT_EQ(rejected, 0) << "jobs=" << jobs;
    EXPECT_EQ(abandoned, 0) << "jobs=" << jobs;

    // Cache traffic mirrors ServerStats.
    EXPECT_EQ(series_value(snap, "oregami_server_cache_hits_total"),
              stats.cache_hits);
    EXPECT_EQ(series_value(snap, "oregami_server_cache_misses_total"),
              stats.cache_misses);

    // Deterministic mode zeroes the schedule-dependent series.
    EXPECT_EQ(series_value(snap, "oregami_server_dedup_joins_total"), 0);
    EXPECT_EQ(series_value(snap, "oregami_server_queue_depth"), 0);
    EXPECT_EQ(series_value(snap, "oregami_server_inflight_jobs"), 0);
  }
}

TEST(ServeMetricsIdentity, DeterministicExpositionIsIdenticalAcrossJobs) {
  ServerStats s1, s0, s5;
  const std::string m1 = serve_with_metrics(1, &s1);
  const std::string m0 = serve_with_metrics(0, &s0);
  const std::string m5 = serve_with_metrics(5, &s5);
  EXPECT_EQ(m1, m0);
  EXPECT_EQ(m1, m5);
  EXPECT_EQ(s1.lines, s5.lines);
  EXPECT_EQ(s1.ok, s5.ok);
  // The exposition is real, not empty: spot-check a family.
  expect_contains(m1, "# TYPE oregami_server_jobs_total counter");
  expect_contains(m1, "oregami_server_jobs_total{outcome=\"hit\"} 10\n");
  // 45 admitted jobs: everything but the 5 parse errors reaches a
  // worker and records a queue wait.
  expect_contains(m1, "oregami_server_job_queue_wait_us_count 45\n");
}

TEST(ServeMetricsIdentity, WatchdogAbandonmentCountsAsAbandonedOnly) {
  FailpointGuard guard;
  metrics::reset_values();
  metrics::set_deterministic(true);
  metrics::enable();
  failpoint::configure("job.run:hang(400)@1");
  std::istringstream in(
      "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},"
      "\"topology\":\"mesh:4x4\",\"deadline_ms\":60}\n");
  std::ostringstream out;
  ServerOptions options = deterministic_options(2);
  const ServerStats stats = serve(in, out, options);
  const metrics::Snapshot snap = metrics::snapshot();
  metrics::disable();
  metrics::set_deterministic(false);

  ASSERT_EQ(stats.abandoned, 1);
  EXPECT_EQ(series_value(
                snap, "oregami_server_jobs_total{outcome=\"abandoned\"}"),
            1);
  EXPECT_EQ(series_value(snap, "oregami_server_watchdog_fired_total"), 1);
  // The hung job still went through the cache-miss path, but the
  // outcome partition books it exactly once, as abandoned.
  const std::int64_t submitted =
      series_value(snap, "oregami_server_jobs_submitted_total");
  const std::int64_t booked =
      series_value(snap, "oregami_server_jobs_total{outcome=\"hit\"}") +
      series_value(snap, "oregami_server_jobs_total{outcome=\"miss\"}") +
      series_value(snap, "oregami_server_jobs_total{outcome=\"error\"}") +
      series_value(snap,
                   "oregami_server_jobs_total{outcome=\"rejected\"}") +
      series_value(snap,
                   "oregami_server_jobs_total{outcome=\"abandoned\"}");
  EXPECT_EQ(booked, submitted);
}

}  // namespace
}  // namespace oregami::server
