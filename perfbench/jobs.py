"""The three workloads: seeded job pools over gridlay's public functions.

A workload is a pool of jobs drawn from the seed. A run repeats the pool in
rounds, each round in its own seeded order, so every round does the same
work and per-round figures compare across runs. The draws are stratified:
each pool covers every (tech, size rung, job kind) cell, and the seed picks
scan sizes near their rung, color offsets and defects. Different seeds give
different jobs with nearly the same cost profile, which keeps the
run-to-run spread of the latency quantiles small.

A job's `run` is the timed part and resolves every gridlay function on the
package at call time, so the tracer's wrappers see the calls. The designs
and documents it builds are freed when it returns, inside the timed part.
`check` compares the output with an oracle from `oracles` and runs outside
the timed part, as does all input generation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable

import oracles

TECHS = ("mock_finfet", "mock_planar")
FORMATS = {"json": "write_layout_json", "gds": "write_gds", "svg": "write_svg"}

# Size ladders. Every pool holds each DAC `bits` value once and each scan
# point twice, without and with level shift; the seed moves a scan point's
# n_bits by up to SCAN_JITTER, so seeds differ in their jobs but not in the
# shape of their cost distribution. A wider jitter moved the job at the
# median or the tail, and with it job_p50_ms and job_tail_ms, by up to 20%
# from seed to seed.
GEN_MIX_SIZES = {"dac": range(1, 9), "scan": (4, 12, 20, 28, 36, 44, 52, 60)}
SIGNOFF_SIZES = {"dac": range(5, 9), "scan": (16, 24, 32, 40, 48, 56, 61)}
INTERCHANGE_SIZES = {"dac": range(4, 8), "scan": (12, 28, 44, 60)}
SCAN_JITTER = 1
MAX_DEFECTS = 6
MAX_GROWN_ROWS = 8


def designs(rng: random.Random, ladder: dict) -> list[tuple[str, dict]]:
    """(generator, params) for every rung of a size ladder."""
    out = [("dac", {"bits": b}) for b in ladder["dac"]]
    for n in ladder["scan"]:
        for ls in (False, True):
            n_bits = rng.randint(n - SCAN_JITTER, n + SCAN_JITTER)
            out.append(("scan", {"n_bits": n_bits, "with_levelshift": ls}))
    return out


@dataclass
class Job:
    key: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    encode: Callable[[object], bytes] = bytes
    counts: dict | None = None
    data: bytes = b""   # the generated input document or stream, if any
    index: int = -1     # position in the pool, set by Workload.add


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list[Job] = field(default_factory=list)

    def add(self, job: Job) -> None:
        """Append a job; its pool index makes the key unique."""
        job.index = len(self.jobs)
        job.key = f"{job.index:03d}:{job.key}"
        self.jobs.append(job)

    def order(self, round_no: int) -> list[Job]:
        rng = random.Random(f"{self.name}:{self.seed}:round:{round_no}")
        return rng.sample(self.jobs, len(self.jobs))


def _key(tech: str, gen: str, params: dict, *extra) -> str:
    p = ",".join(f"{k}={int(v) if isinstance(v, bool) else v}" for k, v in sorted(params.items()))
    return ":".join([tech, gen, p, *map(str, extra)])


def gen_mix(gl, techs: dict, rules: dict, seed: int) -> Workload:
    """`gridlay gen`: run_flow then one exporter, per job."""
    rng = random.Random(f"gen_mix:{seed}")
    wl = Workload("gen_mix", seed)
    for tname in TECHS:
        tech, r = techs[tname], rules[tname]
        for fmt, writer in FORMATS.items():
            for gen, params in designs(rng, GEN_MIX_SIZES):
                offset = rng.randint(0, 1)

                def run(gen=gen, params=params, tech=tech, offset=offset, writer=writer):
                    d = gl.run_flow(gen, params, tech, gl.FlowFlags(color_offset=offset))
                    return getattr(gl, writer)(d)

                def check(out, fmt=fmt, gen=gen, params=params, r=r, offset=offset):
                    return oracles.check_export(fmt, out, gen, params, r, offset)

                wl.add(Job(_key(tname, gen, params, f"off{offset}", fmt), run, check))
    return wl


def _violations_text(out) -> bytes:
    return "".join(f"{v}\n" for v in out).encode()


def inject_defects(gl, d, rng: random.Random, r: oracles.TechRules, k: int) -> list:
    """Add k seeded spacing-defect pairs to a design as raw rects."""
    if k == 0:
        return []
    bbox = oracles.json_bbox(json.loads(gl.write_layout_json(d)))
    pairs = oracles.defect_pairs(rng, r, bbox, k)
    for layer, a, b in pairs:
        for x0, y0, x1, y1 in (a, b):
            d.rects.append(gl.Rect(layer, gl.Point(x0, y0), gl.Point(x1, y1)))
    return pairs


def signoff(gl, techs: dict, rules: dict, seed: int) -> Workload:
    """`gridlay check`: read, rebuild and check a layout JSON, per job.

    Half of each (tech, generator) group of documents carries 1..MAX_DEFECTS
    seeded spacing defects, so the verdict is exactly that many violations
    on the defect layers; the rest must come back clean.
    """
    rng = random.Random(f"signoff:{seed}")
    wl = Workload("signoff", seed)
    for tname in TECHS:
        tech, r = techs[tname], rules[tname]
        docs = designs(rng, SIGNOFF_SIZES)
        for gen in ("dac", "scan"):
            group = [i for i, (g, _) in enumerate(docs) if g == gen]
            defective = set(rng.sample(group, len(group) // 2))
            for i in group:
                params = docs[i][1]
                offset = rng.randint(0, 1)
                d = gl.run_flow(gen, params, tech, gl.FlowFlags(color_offset=offset))
                k = rng.randint(1, MAX_DEFECTS) if i in defective else 0
                pairs = inject_defects(gl, d, rng, r, k)
                data = gl.write_layout_json(d)
                shapes = sum(1 for e in json.loads(data)["rects"] if e["purpose"] != "pin")
                want = [layer for layer, _, _ in pairs]

                def run(data=data, tech=tech):
                    return gl.check_all(gl.document_to_design(gl.read_layout_json(data), tech))

                def check(out, want=want):
                    return oracles.check_verdict([v.layer for v in out], want)

                wl.add(Job(_key(tname, gen, params, f"off{offset}", f"k{k}"),
                           run, check, _violations_text, {"shapes_checked": shapes}, data))
    return wl


def _apply_pass(gl, d, kind: str, r: oracles.TechRules, offset: int, rows: int) -> None:
    if kind == "min-area":
        for layer in sorted(r.min_area):
            gl.extend_min_area(d, layer)
    elif kind == "cuts":
        for layer in r.cut_rule_layers:
            gl.cut_pattern_gen(d, layer)
    elif kind == "colors":
        for layer in r.colorable:
            gl.assign_colors(d, layer, offset)
    else:
        lo, hi = d.instance_bbox()
        grow = rows * d.pgrid.ygrid.period
        gl.fill_dummies(d, gl.Rect("", gl.Point(lo.x, lo.y - grow), gl.Point(hi.x, hi.y + grow)))


PASS_FLAG = {"min-area": "min_area", "cuts": "cuts", "colors": "colors", "dummies": "dummies"}


def interchange_kinds(r: oracles.TechRules, gen: str, rows: int) -> list[tuple[str, int]]:
    """(job kind, grown rows) pairs with real work on this tech and generator.

    Only scan cells have wires below min area, and only a tech with cut
    rules and colorable layers gives the cut and color passes anything to do.
    Dummy fill comes twice, with `rows` and MAX_GROWN_ROWS - rows rows.
    """
    kinds = [("gds", 0), ("dummies", rows), ("dummies", MAX_GROWN_ROWS - rows)]
    if r.has_cuts:
        kinds.append(("cuts", 0))
    if r.has_colors:
        kinds.append(("colors", 0))
    if r.min_area and gen == "scan":
        kinds.append(("min-area", 0))
    return kinds


def interchange(gl, techs: dict, rules: dict, seed: int) -> Workload:
    """`gridlay postprocess` (read, rebuild, one pass, write) and GDS ingest."""
    rng = random.Random(f"interchange:{seed}")
    wl = Workload("interchange", seed)
    for tname in TECHS:
        tech, r = techs[tname], rules[tname]
        for i, (gen, params) in enumerate(designs(rng, INTERCHANGE_SIZES)):
            # Grown rows follow the design's place on the ladder, not the
            # seed: the fill jobs are the pool's largest, so drawing their
            # rows would move the tail from seed to seed.
            for kind, rows in interchange_kinds(r, gen, i % (MAX_GROWN_ROWS // 2 + 1)):
                offset = rng.randint(0, 1)
                if kind == "gds":
                    d = gl.run_flow(gen, params, tech, gl.FlowFlags(color_offset=offset))
                    data = gl.write_gds(d)

                    def run(data=data):
                        return gl.write_library(gl.read_library(data))

                    def check(out, data=data, r=r, gen=gen, params=params, offset=offset):
                        if out != data:
                            return "gds: write -> read -> write changed the bytes"
                        return oracles.check_export("gds", out, gen, params, r, offset)

                    wl.add(Job(_key(tname, gen, params, f"off{offset}", "gds"), run, check, data=data))
                    continue
                flags = gl.FlowFlags(color_offset=offset, **{PASS_FLAG[kind]: False})
                data = gl.write_layout_json(gl.run_flow(gen, params, tech, flags))
                meta = {"gen": gen, "params": params, "offset": offset, "rows": rows}
                want = oracles.pass_expectation(kind, json.loads(data), meta, r)

                def run(data=data, tech=tech, kind=kind, r=r, offset=offset, rows=rows):
                    d = gl.document_to_design(gl.read_layout_json(data), tech)
                    _apply_pass(gl, d, kind, r, offset, rows)
                    return gl.write_layout_json(d)

                def check(out, kind=kind, want=want, r=r, tech=tech):
                    err = oracles.check_pass(kind, json.loads(out), want, r)
                    if err is None:
                        again = gl.write_layout_json(gl.document_to_design(gl.read_layout_json(out), tech))
                        if again != out:
                            err = "json: write -> read -> rebuild -> write changed the bytes"
                    return err

                wl.add(Job(_key(tname, gen, params, f"off{offset}", kind, f"rows{rows}"),
                           run, check, data=data))
    return wl


WORKLOADS = {"gen_mix": gen_mix, "signoff": signoff, "interchange": interchange}
