"""Per-layer metrics of the mapping-service benchmark (--trace 1).

Three sources, each read after the run ends:
  * the in-process replay (mapbench_replay --replay) of the jobs the
    daemon answered: its spans time each public call of the server's job
    pipeline, and its per-job facts carry the portfolio candidates and
    the multilevel counters;
  * the daemon's Prometheus exposition (--metrics-file): queue wait,
    compute and write histograms, cache evictions, single-flight joins;
  * the client's own record of when it sent each request.
A metric a workload does not exercise reads 0.
"""

import collections
import json
import math
import re
import subprocess

FAMILIES = ("canned", "group", "systolic", "general", "seeded", "anneal",
            "heft")
ANNEAL_NOTE = re.compile(r"SA (\d+) proposals, (\d+) accepted .*"
                         r"completion (\d+) -> (\d+)")
BUCKET = re.compile(r'^(\w+)_bucket\{le="([^"]+)"\} (\d+)$')
SCALAR = re.compile(r"^(\w+) (\d+)$")


def quantile(values, q):
    """Linear-interpolated quantile of a list (0 when empty)."""
    if not values:
        return 0.0
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def read_exposition(path):
    """Histograms ({name: [(le, cumulative)]}) and plain series."""
    hist = collections.defaultdict(list)
    scalar = {}
    try:
        text = path.read_text()
    except OSError:
        return hist, scalar
    for line in text.splitlines():
        m = BUCKET.match(line)
        if m:
            le = math.inf if m.group(2) == "+Inf" else float(m.group(2))
            hist[m.group(1)].append((le, int(m.group(3))))
            continue
        m = SCALAR.match(line)
        if m:
            scalar[m.group(1)] = int(m.group(2))
    return hist, scalar


def hist_quantile(buckets, q):
    """Quantile of log2 buckets [(le, cumulative)], interpolated inside
    the owning bucket [(le + 1) / 2, le] like the daemon's own."""
    if not buckets or buckets[-1][1] == 0:
        return 0.0
    rank = q * buckets[-1][1]
    prev_cum, prev_le = 0, 0.0
    for le, cum in buckets:
        if cum >= rank and cum > prev_cum:
            if math.isinf(le):
                return prev_le
            lo = (le + 1) / 2 if le > 0 else 0.0
            return lo + (le - lo) * (rank - prev_cum) / (cum - prev_cum)
        prev_cum, prev_le = cum, le
    return prev_le


def replay_jobs(replay, work, lines, n_prime, cache_file, restart, budget_s):
    """Runs the in-process replay; returns (summary, spans, facts)."""
    jobs = work / "replay.ndjson"
    with open(jobs, "wb") as f:
        f.writelines(lines)
    out_dir = work / "replay"
    cmd = [str(replay), "--replay", str(jobs), "--out", str(out_dir),
           "--prime", str(n_prime), "--budget-s", str(budget_s)]
    if cache_file:
        cmd += ["--cache-file", str(work / "replay.cache")]
    if restart:
        cmd.append("--restart")
    summary = json.loads(subprocess.run(cmd, capture_output=True,
                                        check=True).stdout)
    spans = json.loads((out_dir / "spans.json").read_text())
    with open(out_dir / "jobs.ndjson") as f:
        facts = [json.loads(line) for line in f]
    return summary, spans, facts


def library_stage(path):
    """The per-layer name of one of the library's own trace spans."""
    parts = path.split("/")
    if parts[-1] in ("contract", "embed", "route"):
        return "mapper." + parts[-1]
    if parts[0] == "multilevel" and len(parts) <= 2:
        if len(parts) == 1:
            return "ml.total"
        if parts[1].startswith("coarsen#"):
            return "ml.coarsen"
        if parts[1] == "initial_map":
            return "ml.initial"
        if parts[1].startswith("level#"):
            return "ml.refine"
    return None


def per_layer(replay, work, lines, n_prime, plan, answers, facts,
              metrics_file, lags, seconds):
    """Returns ({name: (value, unit)}, problems, jobs replayed)."""
    problems = []
    summary, spans, jobs = replay_jobs(
        replay, work, lines, n_prime, plan.cache_file,
        restart=bool(plan.warm_prime), budget_s=min(5.0, seconds / 2))

    # The replay must reproduce the daemon's answer for every job.
    for job in jobs:
        line = answers.get(job.get("id"))
        if not job["ok"]:
            problems.append("replay of request %s failed: %s"
                            % (job.get("id"), job.get("error")))
            continue
        if line is None:
            continue
        at = line.index(b'"digest":"') + 10
        daemon_completion = facts[line[at:at + 16].decode()][1]
        if job["completion"] != daemon_completion:
            problems.append("request %s: replay completion %d, daemon %d"
                            % (job["id"], job["completion"],
                               daemon_completion))

    timed = [j for j in jobs if not j["prime"]]
    timed_ids = {j["i"] for j in timed}
    us = collections.defaultdict(list)       # stage -> durations (us)
    per_job = collections.defaultdict(float)  # (stage, job) -> sum (us)
    levels = collections.Counter()
    for name, start, end, _, job in spans:
        # Journal appends happen only on misses: warm_hits measures them
        # on its priming jobs.
        if job != -1 and job not in timed_ids and \
                name != "server.persist_append":
            continue
        dur = (end - start) / 1e3
        if name.startswith("oregami:"):
            stage = library_stage(name[len("oregami:"):])
            if stage is None:
                continue
            if stage.startswith("ml."):
                per_job[(stage, job)] += dur
                if stage == "ml.refine":
                    levels[job] += 1
                continue
            name = stage
        us[name].append(dur)
    ml = collections.defaultdict(list)
    for (stage, _), total in per_job.items():
        ml[stage].append(total / 1e3)

    kinds = {j["i"]: j.get("kind") for j in timed}
    portfolio_ms = [(end - start) / 1e6 for name, start, end, _, job in spans
                    if name == "mapper.map" and kinds.get(job) == "portfolio"]
    portfolio = [j for j in timed if j.get("kind") == "portfolio"]
    cands = [c for j in portfolio for c in j["cands"]]
    anneal = [(c, ANNEAL_NOTE.search(c["note"])) for c in cands
              if c["family"] == "anneal" and c["ok"]]
    anneal_stats = [tuple(int(x) for x in m.groups()) for _, m in anneal
                    if m]
    proposed = sum(a[0] for a in anneal_stats)
    boundary = sum(j.get("ml_boundary", 0) for j in timed)
    hist, scalar = read_exposition(metrics_file)
    hits = sum(1 for j in timed if j.get("hit"))

    m = {}

    def timing(name, samples, unit):
        m[name + ".p50"] = (quantile(samples, 0.50), unit)
        m[name + ".p99"] = (quantile(samples, 0.99), unit)

    timing("wire.parse_us", us["wire.parse"], "us")
    timing("wire.encode_us", us["wire.encode"], "us")
    timing("wire.encode_bytes", [j["bytes"] for j in timed if j["ok"]],
           "bytes")
    timing("larcs.resolve_us", us["larcs.resolve"], "us")
    timing("larcs.parse_us", us["larcs.parse"], "us")
    timing("larcs.compile_us", us["larcs.compile"], "us")
    m["larcs.tasks"] = (quantile([j.get("tasks", 0) for j in timed], 0.5),
                        "count")
    m["larcs.edges"] = (quantile([j.get("edges", 0) for j in timed], 0.5),
                        "count")
    timing("arch.topology_us", us["arch.topology"], "us")
    timing("server.digest_us", us["server.digest"], "us")
    timing("server.cache_lookup_us", us["server.cache_lookup"], "us")
    timing("server.cache_insert_us", us["server.cache_insert"], "us")
    m["server.cache_hit_ratio"] = (hits / len(timed) if timed else 0.0,
                                   "ratio")
    m["server.cache_evictions"] = (
        scalar.get("oregami_server_cache_evictions_total", 0), "count")
    m["server.dedup_joins"] = (
        scalar.get("oregami_server_dedup_joins_total", 0), "count")
    for stage in ("queue_wait", "compute", "write"):
        buckets = hist.get("oregami_server_job_%s_us" % stage, [])
        m["server.%s_us.p50" % stage] = (hist_quantile(buckets, 0.50), "us")
        m["server.%s_us.p99" % stage] = (hist_quantile(buckets, 0.99), "us")
    timing("server.persist_append_us", us["server.persist_append"], "us")
    m["server.persist_appends"] = (len(us["server.persist_append"]), "count")
    m["server.recovery_s"] = (sum(us["server.recovery"]) / 1e6, "s")
    m["server.recovery_entries"] = (summary["recovered"], "count")
    timing("mapper.map_ms", [x / 1e3 for x in us["mapper.map"]], "ms")
    timing("mapper.contract_us", us["mapper.contract"], "us")
    timing("mapper.embed_us", us["mapper.embed"], "us")
    timing("mapper.route_us", us["mapper.route"], "us")
    timing("mapper.portfolio_ms", portfolio_ms, "ms")
    m["mapper.portfolio_candidates"] = (
        len(cands) / len(portfolio) if portfolio else 0.0, "count")
    for family in FAMILIES:
        won = sum(1 for j in portfolio if j["best"] == family)
        m["mapper.portfolio_wins." + family] = (
            won / len(portfolio) if portfolio else 0.0, "ratio")
    timing("mapper.anneal_ms", [c["ms"] for c, _ in anneal], "ms")
    m["mapper.anneal_proposed"] = (
        proposed / len(anneal_stats) if anneal_stats else 0.0, "count")
    m["mapper.anneal_accept_ratio"] = (
        sum(a[1] for a in anneal_stats) / proposed if proposed else 0.0,
        "ratio")
    m["mapper.anneal_gain_ratio"] = (
        sum((a[2] - a[3]) / a[2] for a in anneal_stats if a[2])
        / len(anneal_stats) if anneal_stats else 0.0, "ratio")
    timing("mapper.heft_ms", [c["ms"] for c in cands
                              if c["family"] == "heft" and c["ok"]], "ms")
    timing("metrics.score_us", us["metrics.score"], "us")
    timing("mapper.multilevel_ms", ml["ml.total"], "ms")
    timing("mapper.multilevel_coarsen_ms", ml["ml.coarsen"], "ms")
    timing("mapper.multilevel_initial_ms", ml["ml.initial"], "ms")
    timing("mapper.multilevel_refine_ms", ml["ml.refine"], "ms")
    m["mapper.multilevel_levels"] = (quantile(list(levels.values()), 0.5),
                                     "count")
    m["mapper.multilevel_commit_ratio"] = (
        sum(j.get("ml_moves", 0) for j in timed) / boundary
        if boundary else 0.0, "ratio")
    m["bench.generator_lag_ms.p99"] = (quantile(lags, 0.99), "ms")
    m["bench.trace_overhead_pct"] = (
        100.0 * (summary["traced_s"] - summary["untraced_s"])
        / summary["untraced_s"], "%")
    return m, problems, summary["replayed"]
