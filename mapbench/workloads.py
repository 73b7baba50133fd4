"""Seeded job generators for the mapping-service benchmark.

Every job is one NDJSON line of the daemon's wire format
(src/oregami/server/wire.hpp). A generator is a pure function of its
seed: the same seed gives the same jobs in the same order, and the
daemon receives nothing but these lines.

Jobs are produced in *rounds*. A round holds one job per stratum of its
workload (for example program x topology family x option set), shuffled
by the seed. Within a stratum the seed sets where the walk through its
binding and machine lists starts, and the mapper seed of every job.
Measuring whole rounds keeps the mix, and hence the figures, the same
from seed to seed while the inputs still differ.
"""

import json
import random

# Option sets of the mapper-bound jobs: the portfolio with simulated
# annealing and HEFT, the plain portfolio, and the paper's Fig-3
# single-shot pipeline.
OPTION_SETS = {
    "search": {"portfolio": 4, "anneal": 1, "heft": True},
    "portfolio": {"portfolio": 4},
    "fig3": {},
}

# Paper-scale machines, by family.
SMALL_TOPOLOGIES = {
    "mesh": ["mesh:4x4", "mesh:2x4", "mesh:4x8"],
    "ring": ["ring:8", "ring:16"],
    "hypercube": ["hypercube:3", "hypercube:4", "hypercube:5"],
    "torus": ["torus:4x4", "torus:3x5", "torus:4x8"],
}


def _grid(**axes):
    """Every combination of the given binding values, as dicts."""
    combos = [{}]
    for name, values in axes.items():
        combos = [dict(c, **{name: v}) for c in combos for v in values]
    return combos


# Bindings of the ten library programs at paper scale (8 to 64 tasks).
SMALL_BINDINGS = {
    "nbody": _grid(n=[9, 15, 21], s=[2, 4], m=[4, 8]),
    "ring_pipeline": _grid(n=[8, 16, 24, 32], stages=[4, 8]),
    "jacobi": _grid(n=[4, 6, 8], iters=[5, 10]),
    "sor": _grid(n=[4, 6, 8], iters=[5, 10]),
    "binomial_dnc": _grid(k=[3, 4, 5, 6]),
    "matmul": _grid(n=[2, 3, 4]),
    "cbt_reduce": _grid(h=[3, 4, 5, 6]),
    "torus_stencil": [dict(r=r, c=c, iters=i)
                      for (r, c) in [(3, 4), (4, 4), (4, 5), (3, 6), (4, 6)]
                      for i in (3, 5)],
    "hypercube_exchange": _grid(d=[3, 4, 5, 6], iters=[2, 3]),
    "fft_parametric": _grid(d=[3, 4, 5, 6]),
}

# Large jobs (about 4k and 16k tasks) for the multilevel path; each entry
# draws its bindings from the seed within a few percent of its size.
LARGE_STRATA = [
    ("jacobi", lambda r: {"n": r.randint(62, 66), "iters": 4}),
    ("jacobi", lambda r: {"n": r.randint(124, 128), "iters": 4}),
    ("sor", lambda r: {"n": r.randint(62, 66), "iters": 4}),
    ("sor", lambda r: {"n": r.randint(124, 128), "iters": 4}),
    ("torus_stencil", lambda r: {"r": r.randint(62, 66),
                                 "c": r.randint(62, 66), "iters": 3}),
    ("torus_stencil", lambda r: {"r": r.randint(124, 128),
                                 "c": r.randint(124, 128), "iters": 3}),
    ("binomial_dnc", lambda r: {"k": 12}),
    ("binomial_dnc", lambda r: {"k": 14}),
    ("cbt_reduce", lambda r: {"h": 12}),
    ("cbt_reduce", lambda r: {"h": 14}),
    ("matmul", lambda r: {"n": 16}),
    ("matmul", lambda r: {"n": 25}),
    ("ring_pipeline", lambda r: {"n": r.randint(3900, 4300), "stages": 4}),
    ("ring_pipeline", lambda r: {"n": r.randint(15800, 16400),
                                 "stages": 4}),
    ("fft_parametric", lambda r: {"d": 12}),
    ("hypercube_exchange", lambda r: {"d": 12, "iters": 2}),
]
LARGE_TOPOLOGIES = ["torus:16x16", "mesh:32x32", "hypercube:8"]


class Job:
    """One job: the wire body without its id, plus what the checks need."""

    __slots__ = ("key", "body")

    def __init__(self, key, program, bind, topology, options):
        self.key = key
        fields = {"program": program, "bind": bind, "topology": topology,
                  "options": options}
        self.body = json.dumps(fields, separators=(",", ":"))[1:]

    def line(self, request_id):
        """The wire line for one request of this job."""
        return ('{"id":"%s",%s\n' % (request_id, self.body)).encode()


class JobFactory:
    """Makes jobs with distinct keys and distinct mapper seeds.

    The mapper seed is part of a job's cache digest, so two jobs from one
    factory never share a cache entry even when their other inputs
    match. Each stratum walks its binding and machine lists from a seeded
    offset, one step per round, so every choice recurs equally often
    whatever the seed.
    """

    def __init__(self, rng):
        self.rng = rng
        self.jobs = []
        self._seed_base = rng.randrange(1 << 40)
        self._offsets = {}
        self._rounds = 0

    def make(self, program, bind, topology, options):
        key = len(self.jobs)
        opts = dict(options, seed=self._seed_base + key)
        job = Job(key, program, bind, topology, opts)
        self.jobs.append(job)
        return job

    def pick(self, stratum, choices):
        """This round's entry of `choices` for `stratum`."""
        if stratum not in self._offsets:
            self._offsets[stratum] = self.rng.randrange(1 << 16)
        return choices[(self._offsets[stratum] + self._rounds)
                       % len(choices)]

    def small_round(self):
        """One job per (program, machine family, option set), shuffled."""
        strata = [(p, f, o) for p in SMALL_BINDINGS for f in SMALL_TOPOLOGIES
                  for o in OPTION_SETS]
        self.rng.shuffle(strata)
        jobs = [self.make(p, self.pick(("bind", p, f, o), SMALL_BINDINGS[p]),
                          self.pick(("topo", p, f, o), SMALL_TOPOLOGIES[f]),
                          OPTION_SETS[o])
                for (p, f, o) in strata]
        self._rounds += 1
        return jobs

    def large_round(self, jobs):
        """One multilevel job per (large stratum, machine), shuffled."""
        strata = [(s, t) for s in range(len(LARGE_STRATA))
                  for t in LARGE_TOPOLOGIES]
        self.rng.shuffle(strata)
        out = []
        for s, topology in strata:
            program, bind = LARGE_STRATA[s]
            out.append(self.make(program, bind(self.rng), topology,
                                 {"multilevel": -1, "jobs": jobs}))
        self._rounds += 1
        return out

    def probe(self):
        """A tiny default-path job that tells when a daemon answers."""
        return self.make("ring_pipeline", {"n": 8, "stages": 2}, "ring:8",
                         {})


def zipf_sampler(rng, ranked, exponent):
    """Draws from `ranked` with Zipf popularity: the k-th item (from 1) is
    drawn with weight k ** -exponent."""
    cum, total = [], 0.0
    for rank in range(1, len(ranked) + 1):
        total += rank ** -exponent
        cum.append(total)
    return lambda k: rng.choices(ranked, cum_weights=cum, k=k)


def new_factory(seed):
    return JobFactory(random.Random(seed))
