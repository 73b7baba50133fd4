#!/usr/bin/env python3
"""The mapping-service benchmark: time-to-mapping, throughput and mapping
quality of oregami_serve on three workloads, split by pipeline stage.

    python3 mapbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 mapbench/run.py --workload all --seed N

Run it from the root of a checkout. It builds the daemon and the replay
harness from source (mapbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or
.bench_build, generates the workload's jobs from --seed, drives the
daemon over its pipes for --seconds, checks every answer, and prints one
JSON object as the last line of stdout: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. `--workload all` runs
the workloads in turn, each printing its own lines. The line before it holds
the run's provenance (machine, build, daemon workers, request counts,
sample counts). See mapbench/README.md for the workloads and metrics.

Exit codes: 0 ok, 1 a check failed or the daemon misbehaved, 2 usage or
an incomplete checkout.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import client  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402
from layers import quantile  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 5  # set-ups per run; setup_s is their median

# Workload constants: see README.md for why each was chosen.
COLD_ROUNDS_FOR_QUALITY = 10
WARM_PRIMED_ROUNDS = 6
WARM_ROUND = 1000
ZIPF_EXPONENT = 0.6
LIMIT_MS = {"cold_search": 250.0, "warm_hits": 20.0,
            "large_multilevel": 2000.0}
SLICES = {"cold_search": 5, "warm_hits": 5, "large_multilevel": 1}
FIRST_K = {"cold_search": COLD_ROUNDS_FOR_QUALITY * 120, "warm_hits": 10000,
           "large_multilevel": 48}


def fail(message, code=1):
    print("mapbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures and builds the daemon and the replay harness."""
    for need in ("CMakeLists.txt", "src/oregami", "tools/oregami_serve.cpp"):
        if not (ROOT / need).exists():
            fail("not a complete checkout: %s is missing" % need, 2)
    out = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not out.is_absolute():
        out = ROOT / out
    tree = out / "mapbench"
    cache = tree / "CMakeCache.txt"
    if cache.exists() and ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % BENCH
                           not in cache.read_text()):
        shutil.rmtree(tree)  # configured for another checkout
    tree.mkdir(parents=True, exist_ok=True)
    log = tree / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(tree), "-j", jobs,
              "--target", "oregami_serve", "mapbench_replay"]]
    if not cache.exists():
        steps.insert(0, ["cmake", "-S", str(BENCH), "-B", str(tree),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    with open(log, "wb") as f:
        for step in steps:
            if subprocess.run(step, stdout=f,
                              stderr=subprocess.STDOUT).returncode:
                fail("build failed; see %s" % log)
    return (tree / "oregami" / "tools" / "oregami_serve",
            tree / "mapbench_replay", out)


class Requests:
    """Request ids, and the job each request asks for."""

    def __init__(self):
        self.job = {}

    def line(self, job):
        rid = str(len(self.job) + 1)
        self.job[rid] = job
        return rid, job.line(rid)


class Plan:
    """Everything one workload sends, generated from the seed."""

    def __init__(self, name, seed, workers):
        self.name = name
        self.factory = wl.new_factory(seed)
        self.reqs = Requests()
        self.workers = workers
        self.limit_ms = LIMIT_MS[name]
        self.first_k = FIRST_K[name]
        self.slices = SLICES[name]
        self.window = workers
        self.warm_prime = []   # primed into the cache file, untimed
        self.cache_file = name == "warm_hits"
        self.rounds = None     # closed loop: generator of request lists
        f = self.factory
        if name == "cold_search":
            self.probe = f.probe()
            self.rounds = self._job_rounds(f.small_round)
        elif name == "warm_hits":
            self.window = 8 * workers
            self.warm_prime = [j for _ in range(WARM_PRIMED_ROUNDS)
                               for j in f.small_round()]
            self.probe = self.warm_prime[0]
            draw = wl.zipf_sampler(f.rng, self.warm_prime, ZIPF_EXPONENT)
            self.rounds = self._job_rounds(lambda: draw(WARM_ROUND))
        elif name == "large_multilevel":
            self.window = 1
            self.probe = f.probe()
            self.rounds = self._job_rounds(lambda: f.large_round(workers))
        else:
            raise ValueError(name)

    def _job_rounds(self, make_round):
        while True:
            yield [self.reqs.line(job) for job in make_round()]

    def describe(self):
        d = {"latency_limit_ms": self.limit_ms, "daemon_jobs": self.workers,
             "quality_first_requests": self.first_k, "loop": "closed",
             "window": self.window}
        if self.warm_prime:
            d["primed_jobs"] = len(self.warm_prime)
        return d


def run_closed(daemon, jobs, window, reqs):
    """Sends `jobs` with `window` outstanding; returns the request ids in
    send order and the answers ({id: line})."""
    tally = client.Tally()
    batch = [reqs.line(j) for j in jobs]
    client.closed_loop(daemon, [batch], window, 0.0, tally)
    return tally.order, {rid: line for rid, (_, line) in tally.answer.items()}


def set_up(plan, serve, daemon_args, work, primed_file, stderr_path):
    """Starts one daemon and makes it ready for timed traffic.

    Returns (daemon, seconds from spawn to ready, the probe's answer).
    """
    cache = work / "daemon.cache"
    if plan.cache_file:
        if cache.exists():
            cache.unlink()
        if primed_file is not None:
            shutil.copyfile(primed_file, cache)
    daemon = client.Daemon(serve, daemon_args, stderr_path)
    try:
        answers = run_closed(daemon, [plan.probe], 1, plan.reqs)[1]
        return daemon, client.now() - daemon.spawned, answers
    except BaseException:
        daemon.kill()
        raise


def check_answers(answers, reqs, oracle, timed):
    """The correctness gate over every answer of the run.

    Returns (problems, {digest: (tasks, completion)}). Checks that each ok
    answer names the digest the oracle computed for its job, that all
    answers for one digest are identical apart from id, cache label and
    wall_ms, and that each placement has one processor in [0, P) per
    compiled task. A failed answer in the timed phase counts as failed;
    one in priming or a set-up probe means the workload did not run as
    designed.
    """
    problems = []
    canon = {}
    facts = {}
    for rid, line in answers.items():
        if not line.startswith(b'{"id":"%s","status":"ok"' % rid.encode()):
            if rid not in timed:
                problems.append("untimed request %s failed: %s"
                                % (rid, line[:200].decode(errors="replace")))
            continue
        want = oracle[reqs.job[rid].key]
        at = line.index(b'"digest":"') + 10
        digest = line[at:at + 16].decode()
        if digest != want["digest"]:
            problems.append("request %s: digest %s, expected %s"
                            % (rid, digest, want["digest"]))
            continue
        body = line[line.index(b',"strategy"'):line.rindex(b',"wall_ms"')]
        if canon.setdefault(digest, body) != body:
            problems.append("request %s: answer differs from an earlier "
                            "answer for digest %s" % (rid, digest))
        if digest in facts:
            continue
        result = json.loads(line)
        procs = result["procs"]
        if len(procs) != want["tasks"] or any(
                not 0 <= p < want["procs"] for p in procs):
            problems.append("request %s: invalid placement (%d entries for "
                            "%d tasks on %d processors)"
                            % (rid, len(procs), want["tasks"], want["procs"]))
        facts[digest] = (len(procs), result["completion"])
    return problems, facts


def run_oracle(replay, answers, reqs, work):
    """Digest, task count and processor count of every answered job."""
    jobs = {reqs.job[rid].key: reqs.job[rid] for rid in answers}
    path = work / "oracle.ndjson"
    with open(path, "wb") as f:
        for key, job in jobs.items():
            f.write(job.line(str(key)))
    out = subprocess.run([str(replay), "--check", str(path)],
                         capture_output=True, check=True).stdout
    oracle = {}
    for line in out.splitlines():
        row = json.loads(line)
        if "error" in row:
            fail("oracle rejected job %s: %s" % (row["id"], row["error"]))
        oracle[int(row["id"])] = row
    return oracle


def end_to_end(plan, tally, facts, setup_times, rusage):
    """The end-to-end metrics of the timed phase, and their sample counts.

    Rates and latency percentiles are the median over `plan.slices`
    equal time slices of the phase (by when each request was sent), so a
    short disturbance of the machine moves one slice, not the result.
    """
    begin = tally.sent
    start = begin[tally.order[0]]
    width = max(begin[tally.order[-1]] - start, 1e-9) / plan.slices
    slices = [{"ok": 0, "tasks": 0, "lat": []} for _ in range(plan.slices)]
    digest_of = {}
    within = 0
    for rid in tally.order:
        got = tally.answer.get(rid)
        if got is None or b'"status":"ok"' not in got[1][:64]:
            continue
        t, line = got
        at = line.index(b'"digest":"') + 10
        digest = line[at:at + 16].decode()
        digest_of[rid] = digest
        s = slices[min(int((begin[rid] - start) / width), plan.slices - 1)]
        s["ok"] += 1
        s["tasks"] += facts[digest][0]
        latency = (t - begin[rid]) * 1e3
        s["lat"].append(latency)
        within += latency <= plan.limit_ms
    attempted = len(tally.order)
    ok = len(digest_of)
    quality = {digest_of[r] for r in tally.order[:plan.first_k]
               if r in digest_of}
    geomean = math.exp(statistics.fmean(
        math.log(facts[d][1]) for d in quality)) if quality else 0.0

    def median_of(f):
        return statistics.median(f(s) for s in slices)

    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "maps_per_s": (median_of(lambda s: s["ok"] / width), "1/s"),
        "tasks_per_s": (median_of(lambda s: s["tasks"] / width), "1/s"),
        "latency_p50_ms": (median_of(lambda s: quantile(s["lat"], 0.5)),
                           "ms"),
        "latency_p90_ms": (median_of(lambda s: quantile(s["lat"], 0.9)),
                           "ms"),
        "latency_p99_ms": (median_of(lambda s: quantile(s["lat"], 0.99)),
                           "ms"),
        "completion_geomean": (geomean, "model_time"),
        "ok_share": (ok / attempted, "ratio"),
        "slo_share": (within / attempted, "ratio"),
        "peak_rss_mb": (rusage.ru_maxrss / 1024.0, "MiB"),
    }
    samples = {"latency": ok, "latency_per_slice": ok // plan.slices,
               "slices": plan.slices, "setup": len(setup_times),
               "quality_jobs": len(quality),
               "elapsed_s": width * plan.slices}
    return metrics, samples, attempted, attempted - ok


def cpu_ticks():
    """The machine's aggregate CPU tick counters (Linux), or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to other guests in between:
    a high value marks a run disturbed from outside the machine."""
    if not before or not after or len(before) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else 0.0


def run(args):
    serve, replay, out = build()
    ncpu = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    workers = max(1, min(3, ncpu - 1))
    plan = Plan(args.workload, args.seed, workers)
    work = out / "runs" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    build_info = json.loads(subprocess.run(
        [str(replay), "--info"], capture_output=True, check=True).stdout)

    daemon_args = ["--jobs", str(workers)]
    if plan.cache_file:
        daemon_args += ["--cache-file", str(work / "daemon.cache")]
    answers = {}
    primed = []  # ids of the priming requests, in send order

    primed_file = None
    if plan.warm_prime:
        primed_file = work / "primed.cache"
        d = client.Daemon(serve, ["--jobs", str(workers), "--cache-file",
                                  str(primed_file)], work / "prime.err")
        try:
            primed, got = run_closed(d, plan.warm_prime, plan.window,
                                     plan.reqs)
            answers.update(got)
            d.close()
        finally:
            d.kill()

    setup_times = []
    daemon = None
    metrics_file = work / "daemon.prom"
    try:
        for i in range(SETUPS):
            last = i == SETUPS - 1
            extra = ["--metrics-file", str(metrics_file)] \
                if last and args.trace else []
            daemon, took, got = set_up(
                plan, serve, daemon_args + extra, work, primed_file,
                work / "daemon.err")
            setup_times.append(took)
            if last:
                answers.update(got)
            else:
                daemon.close()
        tally = client.Tally()
        cpu_before = cpu_ticks()
        client.closed_loop(daemon, plan.rounds, plan.window, args.seconds,
                           tally)
        steal = steal_share(cpu_before, cpu_ticks())
        tally.record_answers(daemon.close())
        rusage = daemon.rusage
    finally:
        if daemon is not None:
            daemon.kill()
    answers.update({rid: line for rid, (_, line) in tally.answer.items()})

    oracle = run_oracle(replay, answers, plan.reqs, work)
    problems, facts = check_answers(answers, plan.reqs, oracle,
                                    tally.answer)
    e2e, samples, attempted, failed = end_to_end(
        plan, tally, facts, setup_times, rusage)

    if args.trace:
        lines = [plan.reqs.job[r].line(r) for r in primed + tally.order]
        metrics, replay_problems, samples["replayed_jobs"] = \
            layers.per_layer(replay, work, lines, len(primed), plan,
                             answers, facts, metrics_file,
                             tally.lags_ms(), args.seconds)
        problems += replay_problems
    else:
        metrics = e2e

    info = {"workload": plan.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": ncpu, "cpu_count": os.cpu_count(), **build_info,
            "host_steal_share": steal,
            **plan.describe(),
            "requests": {"sent": attempted, "succeeded": attempted - failed,
                         "failed": failed},
            "samples": samples, "problems": problems[:20]}
    print(json.dumps({"info": info}))
    for p in problems[:20]:
        print("mapbench: check failed: " + p, file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(LIMIT_MS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        # One process per workload, so each prints its own result line.
        codes = [subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)]).returncode for w in LIMIT_MS]
        sys.exit(max(codes))
    try:
        sys.exit(run(args))
    except client.DaemonError as e:
        fail(str(e))


if __name__ == "__main__":
    main()
