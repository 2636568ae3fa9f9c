"""gridlay benchmark driver.

    python3 perfbench/run.py --workload gen_mix --seed 1 --seconds 36 --trace 0

Single process, single thread, closed loop with one client: the next job
starts when the previous one has returned. It imports gridlay from `src/`
next to this directory and fails without printing a result when that source
is missing. Each run repeats its workload's seeded job pool in rounds until
`--seconds` have passed. Between jobs it times the reference kernel of
`hostspeed.py` about ten times a second, and scales every job and set-up
time to the host speed at which that kernel takes `hostspeed.REF_NS`.
Latency and throughput come from each job's median scaled time over its
runs. Set-up (a fresh import of gridlay plus both tech loads) is repeated
about every 2 s between jobs, and `setup_s` is the median of those
repetitions, scaled the same way. The report line carries the unscaled
figures beside them.

With `--trace 0` the last line of stdout carries the end-to-end metrics.
With `--trace 1` every whole round runs twice, untraced and then traced with
the span wrappers of `tracer.py` installed, and the last line carries the
per-layer metrics; the run fails if child spans cover less than 95% of
run_flow's wall time, or of any job's wall time (its median over rounds).
The line before the last is a JSON report with the details (tail percentile
and sample count, failure ratio, output digest, tracing overhead). Traces go
to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed
import jobs
import oracles
import tracer as tr

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SPEC = ROOT / "BENCHMARK.json"
SETUP_EVERY_S = 2.0   # seconds of run between two set-up repetitions
TECH_LOAD_REPS = 7    # tech loads in the traced set-up span
MIN_COVERAGE = 0.95
TAIL_BEYOND = 10


def _gridlay_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "gridlay" or n.startswith("gridlay.")}


def setup():
    """Import gridlay and load both techs; (package, techs by name)."""
    gl = importlib.import_module("gridlay")
    techs = {name: gl.load_tech_file(name) for name in jobs.TECHS}
    if not Path(gl.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"gridlay was imported from {gl.__file__}, not from {SRC}")
    return gl, techs


def setup_again() -> tuple[int, int]:
    """(start ns, duration ns) of one more full set-up: a fresh import of gridlay and both tech loads.

    The modules in use are set aside while it runs and put back afterwards,
    so the jobs and the tracer keep seeing the same gridlay.
    """
    saved = _gridlay_modules()
    for name in saved:
        del sys.modules[name]
    try:
        t0 = time.perf_counter_ns()
        setup()
        ns = time.perf_counter_ns() - t0
    finally:
        for name in _gridlay_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    gc.collect()   # the discarded modules' cycles, before the next job starts
    return t0, ns


class Results:
    """Durations, failures and output digests of one run."""

    def __init__(self, wl: jobs.Workload, verified: dict | None = None):
        self.wl = wl
        self.durations: dict[int, list[tuple[int, int]]] = {}   # pool index -> (start ns, ns) per run
        self.attempted = 0
        self.failures: list[str] = []
        # pool index -> digest of the output that passed its oracle; a traced
        # run shares the untraced run's, so traced outputs must match it
        self.verified: dict[int, bytes] = {} if verified is None else verified

    def record(self, job: jobs.Job, t0: int, ns: int, out=None, error: str | None = None):
        self.durations.setdefault(job.index, []).append((t0, ns))
        self.attempted += 1
        if error is None:
            digest = hashlib.sha256(job.encode(out)).digest()
            known = self.verified.get(job.index)
            if known is None:
                error = job.check(out)
                if error is None:
                    self.verified[job.index] = digest
            elif known != digest:
                error = "output differs from an earlier run of the same job"
        if error is not None:
            self.failures.append(f"{job.key}: {error}")

    def job_times(self, speed: hostspeed.Speed | None = None) -> list[float]:
        """Each job's median time over its runs, in ms.

        With `speed`, each run is first scaled to the reference host speed.
        """
        if speed is None:
            return [statistics.median(ns for _, ns in v) / 1e6 for v in self.durations.values()]
        return [statistics.median(ns * speed.scale(t0, t0 + ns) for t0, ns in v) / 1e6
                for v in self.durations.values()]

    def jobs_per_s(self, speed: hostspeed.Speed | None = None) -> float:
        times = self.job_times(speed)
        return len(times) / (sum(times) / 1e3)

    def outputs_sha256(self) -> str:
        h = hashlib.sha256()
        for i, job in enumerate(self.wl.jobs):
            h.update(job.key.encode() + b"\0" + self.verified.get(i, b"missing") + b"\n")
        return h.hexdigest()


def run_job(job: jobs.Job, tracer: tr.Tracer | None = None, job_id: str = ""):
    """(start ns, duration ns, output, error) of one timed call, traced as one span if asked.

    The designs and documents a job builds are freed when `job.run` returns,
    inside the timed part, as they are when a gridlay command returns.
    """
    if tracer:
        tracer.enter(job_id, "bench.job")
    t0 = time.perf_counter_ns()
    try:
        out, err = job.run(), None
    except Exception as exc:  # a failed job is counted, the run goes on
        out, err = None, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter_ns()
    if tracer:
        tracer.leave(t0, t1, job.counts)
    return t0, t1 - t0, out, err


def run_untraced(wl: jobs.Workload, seconds: float):
    """Jobs until `seconds` have passed, the first round whole; set-up repeats between jobs.

    Returns the results, the rounds begun, the set-up (start ns, ns) and the
    kernel samples. Every set-up repetition has a kernel sample right
    before and right after it.
    """
    res = Results(wl)
    speed = hostspeed.Speed()
    speed.sample()
    setups = [setup_again()]
    speed.sample()
    start = last_setup = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        for job in wl.order(rounds):
            now = time.perf_counter()
            if rounds and now - start >= seconds:
                break
            if now - last_setup >= SETUP_EVERY_S:
                speed.sample()
                setups.append(setup_again())
                speed.sample()
                last_setup = time.perf_counter()
            elif speed.due():
                speed.sample()
            res.record(job, *run_job(job))
        rounds += 1
        gc.collect()
    speed.sample()
    return res, rounds, setups, speed


def run_traced(gl, wl: jobs.Workload, seconds: float):
    """Whole rounds run untraced, then traced on the same jobs in the same order.

    A round starts only if one more round as long as the last one still
    ends within `seconds`; the first round always runs.
    """
    plain = Results(wl)
    traced = Results(wl, plain.verified)
    t = tr.Tracer()
    with tr.instrument(gl, t):
        t.enter("setup", "bench.setup")
        t0 = time.perf_counter_ns()
        for _ in range(TECH_LOAD_REPS):
            for name in jobs.TECHS:
                gl.load_tech_file(name)
        t.leave(t0, time.perf_counter_ns())
    digest_upto = len(t.spans)
    start = last = time.perf_counter()
    rounds = 0
    while rounds == 0 or 2 * time.perf_counter() - last - start < seconds:
        last = time.perf_counter()
        order = wl.order(rounds)
        for job in order:
            plain.record(job, *run_job(job))
        with tr.instrument(gl, t):
            done = [(job, *run_job(job, t, f"r{rounds}:{job.key}")) for job in order]
        for job, *timed in done:
            traced.record(job, *timed)
        del done
        if rounds == 0:
            digest_upto = len(t.spans)
        rounds += 1
        gc.collect()
    return plain, traced, t, rounds, digest_upto


def min_job_coverage(shares: dict[str, float]) -> float:
    """The lowest coverage of any pool job, each taken as its median over rounds.

    Job ids are "r<round>:<key>". A detached wrapper lowers a job's coverage
    in every round; a scheduling hiccup in one round does not count.
    """
    per_key: dict[str, list[float]] = {}
    for job, share in shares.items():
        per_key.setdefault(job.split(":", 1)[1], []).append(share)
    return min(statistics.median(v) for v in per_key.values())


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values beyond it."""
    s = sorted(values)
    i = max(len(s) - TAIL_BEYOND - 1, 0)
    return s[i], 100.0 * (i + 1) / len(s)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "gridlay" / "__init__.py").is_file():
        print(f"error: gridlay source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    gl, techs = setup()
    rules = oracles.load_rules(SRC)
    wl = jobs.WORKLOADS[args.workload](gl, techs, rules, args.seed)
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    gc.collect()

    report = {"workload": wl.name, "seed": args.seed, "pool_jobs": len(wl.jobs)}
    if not args.trace:
        res, rounds, setups, speed = run_untraced(wl, args.seconds)
        n, failed = res.attempted, len(res.failures)
        times = res.job_times(speed)
        tail_ms, tail_pct = tail(times)
        raw = res.job_times()
        report.update(rounds=rounds, jobs=n, failed_ratio=failed / n, setup_reps=len(setups),
                      tail_percentile=round(tail_pct, 3), tail_samples=len(times),
                      kernel_samples=len(speed.ns), kernel_median_ms=statistics.median(speed.ns) / 1e6,
                      unscaled={"setup_s": statistics.median(ns for _, ns in setups) / 1e9,
                                "jobs_per_s": res.jobs_per_s(), "job_p50_ms": statistics.median(raw),
                                "job_tail_ms": tail(raw)[0]},
                      outputs_sha256=res.outputs_sha256(), failures=res.failures[:5])
        values = {
            "setup_s": statistics.median(ns * speed.scale(t0, t0 + ns) for t0, ns in setups) / 1e9,
            "jobs_per_s": res.jobs_per_s(speed),
            "job_p50_ms": statistics.median(times),
            "job_tail_ms": tail_ms,
            "ok_ratio": (n - failed) / n,
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = values
    else:
        plain, traced, t, rounds, digest_upto = run_traced(gl, wl, args.seconds)
        if tr.is_instrumented(gl):
            print("error: tracing wrappers were left installed", file=sys.stderr)
            return 1
        summary = tr.summarize(t.spans)
        flow_cov, _ = tr.coverage(t.spans, "flow.run_flow")
        job_cov = min_job_coverage(tr.coverage(t.spans, "bench.job")[1])
        jps_plain, jps_traced = plain.jobs_per_s(), traced.jobs_per_s()
        overhead = 1.0 - jps_traced / jps_plain
        n = plain.attempted + traced.attempted
        failed = len(plain.failures) + len(traced.failures)
        trace_file = OUT / f"trace-{wl.name}-seed{args.seed}.jsonl.gz"
        tr.write_trace(trace_file, t.spans, {"workload": wl.name, "seed": args.seed, "rounds": rounds})
        report.update(
            rounds=rounds, jobs=n, failed_ratio=failed / n,
            failures=(plain.failures + traced.failures)[:5],
            jobs_per_s_untraced=jps_plain, jobs_per_s_traced=jps_traced, trace_overhead=overhead,
            run_flow_coverage=flow_cov, job_coverage_min=job_cov,
            trace_sha256_no_timings=tr.stripped_digest(t.spans[:digest_upto]),
            outputs_sha256=plain.outputs_sha256(), trace_file=str(trace_file.relative_to(ROOT)),
            self_ms_per_round={k: v["self_ns"] / 1e6 / rounds for k, v in sorted(summary.items())},
        )
        if flow_cov < MIN_COVERAGE or job_cov < MIN_COVERAGE:
            print(json.dumps({"report": report}, sort_keys=True))
            print(f"error: child spans cover {flow_cov:.3f} of run_flow and at least "
                  f"{job_cov:.3f} of each job; both must reach {MIN_COVERAGE}", file=sys.stderr)
            return 1
        metrics = tr.layer_metrics(summary, rounds, TECH_LOAD_REPS)
        metrics["trace.overhead_ratio"] = overhead
        metrics["trace.job_coverage_min"] = job_cov
    if set(metrics) != set(units):
        print(f"error: the metrics measured differ from those {SPEC.name} lists", file=sys.stderr)
        return 1
    for f in report["failures"]:
        print(f"failed: {f}", file=sys.stderr)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
