"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion.

Every expected value here is computed by an oracle that does not share code
with the path under test: numpy matrix arithmetic for placement, unrolled
lists for cyclic indexing, linear scans for reverse mapping, closed-form
counting for cut generation, and a struct-only decoder for GDS reals.
"""

import json
import random
import struct
import time

import numpy as np

from gridlay.cli import main as cli_main
from gridlay.design import Design, Wire, check_spacing
from gridlay.geometry import Point, Rect, Transform
from gridlay.grid import CircularMapping, OneDimGrid
from gridlay.errors import NotOnGrid
from gridlay.flow import run_flow
from gridlay.gds import read_library, write_gds, write_library
from gridlay.postprocess import cut_pattern_gen
from gridlay.template import SubElement, VirtualInstance

ALL = list(Transform)

# orientation matrices, stated independently of the geometry module
M = {
    Transform.R0: np.array([[1, 0], [0, 1]]),
    Transform.MX: np.array([[1, 0], [0, -1]]),
    Transform.MY: np.array([[-1, 0], [0, 1]]),
    Transform.R180: np.array([[-1, 0], [0, -1]]),
}


def report(n: int, ok: bool, what: str):
    print(f"\nACCEPTANCE {n} ({what}): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_placement_oracle():
    """flatten matches direct matrix arithmetic exactly."""
    rng = random.Random(101)
    t0 = time.monotonic()
    checked = 0
    for _ in range(1000):
        s = np.array([2 * rng.randint(5, 60), 2 * rng.randint(5, 60)])
        xi = np.array([rng.randint(-40, 40), rng.randint(-40, 40)])
        x = np.array([rng.randint(-500, 500), rng.randint(-500, 500)])
        c_lo = np.array([rng.randint(-20, 20), rng.randint(-20, 20)])
        c_hi = c_lo + np.array([rng.randint(1, 15), rng.randint(1, 15)])
        rect = Rect("m1", Point(*map(int, c_lo)), Point(*map(int, c_hi)))
        for t in ALL:
            for ti in ALL:
                vi = VirtualInstance(
                    master="t", params={},
                    origin=Point(int(x[0]), int(x[1])), transform=t,
                    size=Point(int(s[0]), int(s[1])),
                    subelements=(SubElement(
                        (rect,), Point(int(xi[0]), int(xi[1])), ti),),
                    pins={},
                )
                # oracle: p = x + 0.5(I - M)s + M xi, orientation = M @ Mi
                half = (np.eye(2, dtype=int) - M[t]) // 2
                p = x + half @ s + M[t] @ xi
                eff = M[t] @ M[ti]
                a = eff @ c_lo + p
                b = eff @ c_hi + p
                lo = np.minimum(a, b)
                hi = np.maximum(a, b)

                (flat,) = vi.flatten()
                assert (flat.lo.x, flat.lo.y) == tuple(map(int, lo))
                assert (flat.hi.x, flat.hi.y) == tuple(map(int, hi))
                checked += 1
    elapsed = time.monotonic() - t0
    report(1, checked == 16000 and elapsed < 5.0,
           f"placement algebra, {checked} cases vs numpy oracle in {elapsed:.2f}s")


def test_criterion_2_cyclic_oracle():
    """cm_get / cm_slice match an unrolled-list oracle, 100% exact."""
    rng = random.Random(102)
    exact = 0
    total = 0
    for _ in range(1000):
        r = rng.randint(1, 8)
        elements = [rng.randint(0, 9) for _ in range(r)]
        m = CircularMapping(elements)
        K = 4
        flat = elements * (2 * K + 1)
        for i in range(-K * r, K * r):
            total += 1
            exact += m.get(i) == flat[i + K * r]
        start, stop = rng.randint(-3 * r, 3 * r), rng.randint(-3 * r, 3 * r)
        step = rng.choice([-2, -1, 1, 2])
        want = [flat[i + K * r] for i in range(start, stop, step)]
        total += 1
        exact += m.slice(start, stop, step) == want
    report(2, exact == total, f"cyclic indexing, {exact}/{total} exact")


def test_criterion_3_reverse_mapping_oracle():
    """index_where matches a linear scan for all five operators; exact round trip."""
    rng = random.Random(103)
    ok = True
    for _ in range(500):
        period = rng.randint(4, 80)
        n = rng.randint(1, min(6, period))
        coords = tuple(sorted(rng.sample(range(period), n)))
        g = OneDimGrid(period, coords)
        span = 6 * n + (3 * period) // period * n + 8 * n
        indices = range(-span, span)
        for _ in range(5):
            v = rng.randint(-2 * period, 2 * period)
            ok &= g.index_where(">=", v) == min(i for i in indices if g.phys(i) >= v)
            ok &= g.index_where(">", v) == min(i for i in indices if g.phys(i) > v)
            ok &= g.index_where("<=", v) == max(i for i in indices if g.phys(i) <= v)
            ok &= g.index_where("<", v) == max(i for i in indices if g.phys(i) < v)
            hits = [i for i in indices if g.phys(i) == v]
            if hits:
                ok &= g.index_where("==", v) == hits[0]
            else:
                try:
                    g.index_where("==", v)
                    ok = False
                except NotOnGrid:
                    pass
        for i in range(-20, 21):
            ok &= g.index_where(">=", g.phys(i)) == i
    report(3, ok, "conditional reverse mapping vs linear-scan oracle, 500 grids")


def test_criterion_4_cut_generation(finfet):
    """Cut insertion silences the spacing checker; counts follow the closed form."""
    rng = random.Random(104)
    ok = True
    for _ in range(500):
        n = rng.randint(1, 50)
        d = Design("t", finfet)
        for _i in range(n):
            lo = rng.randint(0, 2000)
            d.add_wire(Wire(layer="m1", axis="h", track=100,
                            lo=lo, hi=lo + rng.randint(4, 150), width=20))
        cut_pattern_gen(d, "m1")
        ok &= check_spacing(d, "m1") == []

    # closed form: k clustered non-pin wires -> (k-1) + 2 cuts
    threshold = finfet.layer("m1").cut.spacing_threshold
    for k in range(1, 14):
        d = Design("t", finfet)
        x = 0
        for _i in range(k):
            d.add_wire(Wire(layer="m1", axis="h", track=100,
                            lo=x, hi=x + threshold + 10, width=20))
            x += threshold + 10 + (threshold - 1)
        made = cut_pattern_gen(d, "m1")
        ok &= len(made) == (k - 1) + 2
        ok &= cut_pattern_gen(d, "m1") == []     # idempotent
    report(4, ok, "cut soundness on 500 random tracks + closed-form counts")


FLOWS = [("dac", "bits", (1, 2, 4), "mos", lambda v: 2 ** v),
         ("scan", "n_bits", (1, 4, 8), "scan_bit", lambda v: v)]


def test_criterion_5_pipeline(tmp_path):
    """CLI runs exit 0, re-run byte-identically, pass check, and count right."""
    ok = True
    for tech in ("mock_finfet", "mock_planar"):
        for gen, key, values, master, count in FLOWS:
            for v in values:
                paths = []
                for run in (0, 1):
                    out = tmp_path / f"{tech}_{gen}_{v}_{run}.json"
                    rc = cli_main([
                        "gen", "--tech", tech, "--generator", gen,
                        "--param", f"{key}={v}", "--format", "json",
                        "--out", str(out),
                    ])
                    ok &= rc == 0
                    paths.append(out)
                ok &= paths[0].read_bytes() == paths[1].read_bytes()
                ok &= cli_main(["check", "--in", str(paths[0])]) == 0
                doc = json.loads(paths[0].read_text())
                units = [e for e in doc["instances"] if e["master"] == master]
                ok &= len(units) == count(v)
                cuts = [r for r in doc["rects"] if r["purpose"] == "cut"]
                if tech == "mock_finfet":
                    ok &= len(cuts) > 0
                else:
                    ok &= len(cuts) == 0
    report(5, ok, "pipeline determinism, portability, closed-form counts")


def test_criterion_6_gds_integrity(finfet, planar):
    """write -> read -> write is byte-identical; UNITS bytes are the constants."""
    units_expected = bytes.fromhex("3e4189374bc6a7f0") + bytes.fromhex("3944b82fa09b5a54")

    def units_bytes(data: bytes) -> bytes:
        pos = 0
        while pos < len(data):
            size, rtype = struct.unpack(">HH", data[pos:pos + 4])
            if rtype == 0x0305:
                return data[pos + 4:pos + size]
            pos += size
        raise AssertionError("UNITS record missing")

    ok = True
    designs = [Design("empty", finfet)]
    for tech in (finfet, planar):
        for gen, key, values, _m, _c in FLOWS:
            for v in values:
                designs.append(run_flow(gen, {key: v}, tech))
    for d in designs:
        stream = write_gds(d)
        ok &= write_library(read_library(stream)) == stream
        ok &= units_bytes(stream) == units_expected
    report(6, ok, f"GDS round trip on {len(designs)} designs + UNITS constants")


def test_criterion_7_runtime_note():
    # criterion 7 (whole suite < 60 s) is asserted by the session-finish hook
    # in conftest.py, which prints its own PASS/FAIL line with the total.
    assert True
