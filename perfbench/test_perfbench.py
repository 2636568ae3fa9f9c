"""Tests of the benchmark itself: `python3 -m pytest -q perfbench`."""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import jobs
import oracles
import run
import tracer as tr

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def env():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    gl, techs = run.setup()
    return gl, techs, oracles.load_rules(run.SRC)


def _fingerprint(wl: jobs.Workload) -> list:
    return [(j.key, hashlib.sha256(j.data).hexdigest()) for j in wl.jobs] + [
        [j.key for j in wl.order(r)] for r in range(3)
    ]


@pytest.mark.parametrize("name", sorted(jobs.WORKLOADS))
def test_same_seed_same_jobs_other_seed_other_jobs(env, name):
    build = jobs.WORKLOADS[name]
    a, b, c = (_fingerprint(build(*env, seed)) for seed in (7, 7, 8))
    assert a == b
    assert a != c


def test_rounds_differ_in_order_not_in_jobs(env):
    wl = jobs.gen_mix(*env, 3)
    first, second = wl.order(0), wl.order(1)
    assert [j.key for j in first] != [j.key for j in second]
    assert sorted(j.key for j in first) == sorted(j.key for j in second) == sorted(j.key for j in wl.jobs)


@pytest.mark.parametrize("tech", jobs.TECHS)
def test_defect_injector_gives_exactly_k_violations(env, tech):
    gl, techs, rules = env
    rng = random.Random(f"defects:{tech}")
    for gen, params in (("dac", {"bits": 2}), ("scan", {"n_bits": 3, "with_levelshift": True})):
        for k in (0, 1, 3, jobs.MAX_DEFECTS):
            d = gl.run_flow(gen, params, techs[tech])
            pairs = jobs.inject_defects(gl, d, rng, rules[tech], k)
            violations = gl.check_all(d)
            assert len(violations) == k
            assert oracles.check_verdict([v.layer for v in violations], [p[0] for p in pairs]) is None


def test_defect_pairs_cover_every_gap_shape():
    rules = oracles.load_rules(run.SRC)["mock_finfet"]
    pairs = oracles.defect_pairs(random.Random(1), rules, (0, 0, 100, 100), 60)
    shapes = set()
    for layer, a, b in pairs:
        s = rules.min_spacing[layer]
        dx = max(a[0] - b[2], b[0] - a[2], 0)
        dy = max(a[1] - b[3], b[1] - a[3], 0)
        assert 0 < dx * dx + dy * dy < s * s
        shapes.add((dx > 0, dy > 0))
    assert shapes == {(True, False), (False, True), (True, True)}


def _small(wl: jobs.Workload, n: int) -> jobs.Workload:
    """The n cheapest-looking jobs of a pool (DAC bits 1-2 and small scans)."""
    small = [j for j in wl.jobs if ":bits=1:" in j.key or ":bits=2:" in j.key]
    out = jobs.Workload(wl.name, wl.seed)
    for job in small[:n]:
        out.add(job)
    return out


def _bindings(gl) -> dict:
    owners = tr.modules(gl) + [cls for cls, _, _, _ in tr.methods(gl)]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_every_name_a_traced_function_is_bound_to_gets_the_wrapper(env):
    gl = env[0]
    with tr.instrument(gl, tr.Tracer()):
        for mod, name, _, _ in tr.FUNCTIONS:
            assert hasattr(getattr(gl, name), tr.MARK)
            assert hasattr(getattr(getattr(gl, mod), name), tr.MARK)
        assert hasattr(gl.flow.cut_pattern_gen, tr.MARK)
        assert hasattr(gl.generators.generate_routing_grid, tr.MARK)
        assert hasattr(gl.layoutjson.generate, tr.MARK)


def test_a_call_inside_a_span_of_the_same_name_is_not_taken_twice(env):
    gl, techs, _ = env
    d = gl.run_flow("dac", {"bits": 1}, techs["mock_planar"])
    t = tr.Tracer()
    with tr.instrument(gl, t):
        data = gl.write_gds(d)   # calls write_library, also a gds.write span
    assert [(s[3], s[6]) for s in t.spans if s[3] == "gds.write"] == [("gds.write", {"bytes": len(data)})]


def test_wrappers_are_removed_and_untraced_runs_record_nothing(env):
    gl = env[0]
    before = _bindings(gl)
    t = tr.Tracer()
    with pytest.raises(RuntimeError):
        with tr.instrument(gl, t):
            assert tr.is_instrumented(gl)
            raise RuntimeError("leave the block early")
    assert not tr.is_instrumented(gl)
    assert _bindings(gl) == before

    wl = _small(jobs.gen_mix(*env, 5), 4)
    _, traced, t, rounds, _ = run.run_traced(gl, wl, 0.001)
    assert rounds == 1 and not traced.failures
    assert not tr.is_instrumented(gl)
    recorded = len(t.spans)
    run.run_untraced(wl, 0.001)
    assert len(t.spans) == recorded
    assert _bindings(gl) == before


def test_trace_without_timings_repeats_for_a_seed(env):
    gl, techs, rules = env
    digests = []
    for _ in range(2):
        wl = _small(jobs.gen_mix(gl, techs, rules, 9), 6)
        _, _, t, _, upto = run.run_traced(gl, wl, 0.001)
        digests.append(tr.stripped_digest(t.spans[:upto]))
        assert run.min_job_coverage(tr.coverage(t.spans, "bench.job")[1]) > run.MIN_COVERAGE
    assert digests[0] == digests[1]


def test_self_time_subtracts_direct_children_only():
    spans = [
        (2, 1, "j", "child", 10, 40, None),
        (3, 2, "j", "grandchild", 15, 25, None),
        (1, 0, "j", "job", 0, 100, None),
    ]
    assert tr.self_times(spans) == {1: 70, 2: 20, 3: 10}
    assert tr.coverage(spans, "job") == (0.3, {"j": 0.3})


def test_job_coverage_is_the_median_over_rounds():
    shares = {"r0:001:a": 0.5, "r1:001:a": 0.99, "r2:001:a": 0.98, "r0:002:b": 0.97}
    assert run.min_job_coverage(shares) == 0.97


@pytest.mark.parametrize("name", ["gen_mix", "interchange"])
def test_every_job_of_a_round_passes_its_oracle(env, name):
    wl = jobs.WORKLOADS[name](*env, 4)
    res, rounds, setups, _ = run.run_untraced(wl, 0.001)
    assert rounds == 1 and setups
    assert res.failures == []
    assert len(res.verified) == len(wl.jobs)


def test_oracle_catches_a_wrong_count(env):
    gl, techs, rules = env
    d = gl.run_flow("dac", {"bits": 2}, techs["mock_finfet"])
    d.vias.pop()
    for fmt, writer in jobs.FORMATS.items():
        out = getattr(gl, writer)(d)
        assert oracles.check_export(fmt, out, "dac", {"bits": 2}, rules["mock_finfet"], 0) is not None


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, pct = run.tail([float(i) for i in range(100)])
    assert (value, pct) == (89.0, 90.0)


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads(run.SPEC.read_text())
    assert spec["paths"] == [HERE.name]
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    layer = set(tr.layer_metrics(tr.summarize([]), 1, 1)) | {"trace.overhead_ratio", "trace.job_coverage_min"}
    assert layer == {m["name"] for m in spec["per_layer"]}


def test_fails_without_printing_a_result_when_the_source_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "gen_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_host_speed_scales_by_the_median_kernel_time_around_a_job():
    speed = hostspeed.Speed()
    s = 10**9
    speed.at = [0, s // 2, 5 * s, 9 * s]
    speed.ns = [hostspeed.REF_NS, 3 * hostspeed.REF_NS, 2 * hostspeed.REF_NS, 4 * hostspeed.REF_NS]
    assert speed.scale(s // 4, s // 4) == 1 / 2            # samples 0 and 1: median 2x
    assert speed.scale(5 * s, 5 * s) == 1 / 2              # sample 2 alone
    assert speed.scale(7 * s, 7 * s) == 1 / 2              # none within the window: the one before
    assert speed.scale(-3 * s, -3 * s) == 1.0              # before the first: the first


def test_kernel_does_fixed_work():
    assert hostspeed.kernel() == hostspeed.kernel()
