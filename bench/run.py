"""Benchmark for nonrepcolor: one closed-loop workload per process.

    python3 bench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Run from the repository root.  One caller, no threads: each job starts when
the previous one has finished and been checked.  Jobs run in whole passes,
each pass in a seeded order, until --seconds have gone by; every job is
timed on its own with time.perf_counter and its output is checked outside
the timed interval.  A job fails if it raises anything (RecursionError
included), runs out of its node budget, or fails its check.

The interpreter's speed on a shared machine drifts by 20% and more over
seconds, so the figures are steadied twice.  First, every timed interval
(each job, each set-up) is scaled to a nominal interpreter speed: a fixed
piece of pure-Python work (_calibrate) is timed right before and right
after it, and the interval is multiplied by CAL_NOMINAL_S over their mean.
Second, a pass holds the same slots every time (workloads.py), so each
slot's latency is its median over the passes.  job_p50_ms and job_p90_ms
are quantiles of those slot medians (at least 100 slots, so at least 10 lie
beyond p90), and jobs_per_s is the slot count divided by their sum.  The
unscaled figures are printed as well.

--trace 0 prints the end-to-end metrics.  --trace 1 spends half the time
untraced and half traced (bench/tracing.py) and prints the per-layer metrics,
each count and time per traced pass, with the tracing overhead; its spans go
to bench/out/.  Either way the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os
import sys

# The library is compiled from source on every import: no bytecode is
# written into the checkout, and none left there earlier is read.
HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.pycache_prefix = os.path.join(HERE, "out", "no-bytecode")

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import types  # noqa: E402
from time import perf_counter  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CERTS = os.path.join(HERE, "certs.json")
OUT_DIR = os.path.join(HERE, "out")
LAYERS = ("model", "decide", "search", "construct")
SETUP_REPS = 5
# _calibrate's median time between jobs on the reference machine when it is
# not slowed by other load (Python 3.11.7, 2 vCPUs)
CAL_NOMINAL_S = 0.00036


def _rng(workload: str, seed: int, npass: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{npass}")


_CAL_KEYS = tuple(range(500))
_CAL_MAP = {i: (i * 7919) % 500 for i in _CAL_KEYS}


def _calibrate() -> float:
    """Time one fixed piece of interpreter work, in seconds.

    Dictionary lookups and integer arithmetic, like the library's inner
    loops.  It allocates no container, so it never triggers the cyclic
    garbage collector and its cost does not depend on the library's heap.
    """
    t0 = perf_counter()
    m, s = _CAL_MAP, 0
    for _ in range(8):
        for i in _CAL_KEYS:
            j = m[i]
            if j > i:
                s += m[j] ^ i
    return perf_counter() - t0


class Speed:
    """Calibrations taken around the timed intervals of one run."""

    def __init__(self):
        self.samples = []

    def timed(self, fn):
        """Run fn between two calibrations.

        Returns its result, the exception it raised (or None), its seconds,
        and its seconds at the nominal interpreter speed.
        """
        before = _calibrate()
        t0 = perf_counter()
        try:
            out, err = fn(), None
        except Exception as exc:  # the caller counts it as a failure
            out, err = None, exc
        seconds = perf_counter() - t0
        after = _calibrate()
        self.samples += (before, after)
        return out, err, seconds, seconds * CAL_NOMINAL_S * 2.0 / (before + after)


def setup(workload: str, seed: int, speed: Speed):
    """Import the library afresh, load the certificates, build pass 0."""
    for name in [m for m in sys.modules
                 if m == "nonrepcolor" or m.startswith("nonrepcolor.")]:
        del sys.modules[name]

    def load():
        lib = types.SimpleNamespace(**{
            m: importlib.import_module(f"nonrepcolor.{m}") for m in LAYERS})
        with open(CERTS) as fh:
            certs = json.load(fh)
        return lib, certs, make_pass(workload, lib, certs, seed, 0)

    loaded, err, _, scaled = speed.timed(load)
    if err is not None:
        raise err
    return (scaled, *loaded)


def make_pass(workload, lib, certs, seed: int, npass: int):
    """Jobs of one pass and the order to run them in."""
    rng = _rng(workload, seed, npass)
    jobs = workloads.build(workload, lib, certs, rng)
    return jobs, rng.sample(range(len(jobs)), len(jobs))


class Run:
    """Job times per slot and the failures of one measured loop."""

    def __init__(self, slots: int):
        self.slot_times = [[] for _ in range(slots)]  # scaled seconds
        self.raw_s = 0.0
        self.failures = []
        self.passes = 0

    @property
    def attempted(self) -> int:
        return sum(len(t) for t in self.slot_times)

    def slot_medians(self) -> list:
        return [statistics.median(t) for t in self.slot_times]

    @property
    def jobs_per_s(self) -> float:
        return len(self.slot_times) / sum(self.slot_medians())


def measure(first_pass, next_pass, seconds: float, speed: Speed,
            tracer=None) -> Run:
    jobs, order = first_pass
    run = Run(len(jobs))
    start = perf_counter()
    while True:
        for slot in order:
            job = jobs[slot]
            if tracer is not None:
                tracer.begin(job.name)
            out, exc, job_s, scaled = speed.timed(job.run)
            if tracer is not None:
                tracer.end()
            run.raw_s += job_s
            run.slot_times[slot].append(scaled)
            # every failure counts, none is dropped
            err = None if exc is None else f"raised {type(exc).__name__}: {exc}"
            if err is None:
                try:
                    err = job.check(out)
                except Exception as exc:
                    err = f"check raised {type(exc).__name__}: {exc}"
            if err is not None:
                run.failures.append((job.name, err))
        run.passes += 1
        if perf_counter() - start >= seconds:
            return run
        jobs, order = next_pass(run.passes)


def end_to_end(run: Run, setups) -> dict:
    ms = sorted(1000.0 * t for t in run.slot_medians())
    return {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (run.jobs_per_s, "1/s"),
        "job_p50_ms": (statistics.median(ms), "ms"),
        "job_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nonrepcolor", "__init__.py")):
        print(f"error: no nonrepcolor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    speed = Speed()
    setups = []
    for _ in range(SETUP_REPS):
        seconds, lib, certs, first_pass = setup(args.workload, args.seed, speed)
        setups.append(seconds)
    if not lib.model.__file__.startswith(SRC + os.sep):
        print(f"error: imported {lib.model.__file__}, not the sources under {SRC}",
              file=sys.stderr)
        return 2

    def next_pass(npass):
        return make_pass(args.workload, lib, certs, args.seed, npass)

    if args.trace:
        plain = measure(first_pass, next_pass, args.seconds / 2, speed)
        tracer = tracing.Tracer()
        tracer.install(lib)
        try:
            traced = measure(next_pass(0), next_pass, args.seconds / 2, speed,
                             tracer)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer.spans, traced.passes)
        metrics["trace.pass_ms"] = (1000.0 * traced.raw_s / traced.passes,
                                    "ms/pass")
        metrics["trace.jobs_per_s"] = (traced.jobs_per_s, "1/s")
        metrics["trace.untraced_jobs_per_s"] = (plain.jobs_per_s, "1/s")
        metrics["trace.overhead_ratio"] = (
            plain.jobs_per_s / traced.jobs_per_s, "ratio")
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        runs = (plain, traced)
    else:
        run = measure(first_pass, next_pass, args.seconds, speed)
        metrics = end_to_end(run, setups)
        runs = (run,)

    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    for name, err in failures[:20]:
        print(f"FAILED {name}: {err}")
    print(f"workload {args.workload} seed {args.seed}: {attempted} jobs, "
          f"{len(runs[0].slot_times)} slots x {sum(r.passes for r in runs)} "
          f"passes, failed_frac {len(failures) / attempted:.4f}, unscaled "
          f"{attempted / sum(r.raw_s for r in runs):.2f} jobs/s, calibration "
          f"median {1000.0 * statistics.median(speed.samples):.4f} ms")
    if args.trace:
        print(f"traced passes: {traced.passes}, spans: {len(tracer.spans)} "
              f"written to {spans_path}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
