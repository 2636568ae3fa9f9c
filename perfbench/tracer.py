"""Span tracing from outside the program, and the per-layer metrics.

`instrument` replaces each traced public function of gridlay with a wrapper
that records a span, at every name a caller can resolve it by: each module
global and package attribute bound to that function, and the class
attributes of the traced methods. It puts every original back when the
`with` block ends. Spans are kept in memory as tuples and written out at the
end of the run.

A span is (id, parent id, job id, name, start ns, end ns, counts). Counts are
taken from the call's arguments and result after the end time is read. A
call made inside a span of the same name (write_gds calling write_library)
records no span of its own, so its time and counts are not taken twice.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import hashlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# generator stage method -> span name; stage names follow run_flow's FlowError labels
STAGES = {
    "build_instances": "generators.instances",
    "place_instances": "generators.placement",
    "make_grids": "generators.grids",
    "route_wires": "generators.routing",
    "add_pins": "generators.pinning",
}
MARK = "_perfbench_span"


def _length(key: str):
    """A counter recording the length of the call's result under `key`."""
    return lambda args, result: {key: len(result)}


def _colored(args, result):
    d, layer = args[0], args[1]
    return {"wires_colored": len(result), "wires_examined": sum(1 for w in d.wires if w.layer == layer)}


def _dummies(args, result):
    d, region = args
    gx, gy = d.pgrid.xgrid, d.pgrid.ygrid
    cols = gx.index_where("<", region.hi.x) - gx.index_where(">=", region.lo.x) + 1
    rows = gy.index_where("<", region.hi.y) - gy.index_where(">=", region.lo.y) + 1
    return {"dummies_placed": len(result), "sites_examined": max(cols, 0) * max(rows, 0)}


# (defining module, function, span name, counter)
FUNCTIONS = [
    ("tech", "load_tech_file", "tech.load", None),
    ("flow", "run_flow", "flow.run_flow", None),
    ("layoutjson", "write_layout_json", "layoutjson.write", _length("bytes")),
    ("layoutjson", "read_layout_json", "layoutjson.read", None),
    ("layoutjson", "document_to_design", "layoutjson.rebuild", None),
    ("gds", "write_gds", "gds.write", _length("bytes")),
    ("gds", "write_library", "gds.write", _length("bytes")),
    ("gds", "read_library", "gds.read", None),
    ("svg", "write_svg", "svg.write", _length("bytes")),
    ("design", "check_all", "design.check_all", _length("violations")),
    ("postprocess", "extend_min_area", "postprocess.min_area", _length("wires_extended")),
    ("postprocess", "cut_pattern_gen", "postprocess.cuts", _length("cuts_added")),
    ("postprocess", "assign_colors", "postprocess.colors", _colored),
    ("postprocess", "fill_dummies", "postprocess.dummies", _dummies),
    ("template", "generate", "template.generate", None),
    ("grid", "generate_routing_grid", "grid.routing_grid", None),
]


def methods(gl):
    """(class, method, span name, counter) for every traced method."""
    out = [
        (gl.Design, "place", "design.place", None),
        (gl.Design, "route", "design.route", _length("wires")),
        (gl.Design, "add_via", "design.add_via", None),
        (gl.Design, "add_pin", "design.add_pin", None),
        (gl.Design, "instance_bbox", "design.instance_bbox", None),
        (gl.VirtualInstance, "flatten", "template.flatten", _length("rects")),
    ]
    for cls in gl.generators.REGISTRY.values():
        for method, name in STAGES.items():
            out.append((cls, method, name, None))
    return out


def modules(gl) -> list:
    """The package and each of its imported submodules."""
    prefix = gl.__name__ + "."
    return [m for n, m in list(sys.modules.items()) if n == gl.__name__ or n.startswith(prefix)]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, str]] = []   # open spans: (id, name)
        self.job = ""
        self._next = 0

    def new_id(self) -> int:
        self._next += 1
        return self._next

    def wrap(self, fn, name, counter):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            sid = self.new_id()
            parent = stack[-1][0] if stack else 0
            stack.append((sid, name))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            spans.append((sid, parent, self.job, name, t0, t1,
                          counter(args, result) if counter else None))
            return result

        setattr(traced, MARK, name)
        return traced

    def enter(self, job: str, name: str) -> None:
        """Open a top-level benchmark span, such as one whole job."""
        self.job = job
        self.stack.append((self.new_id(), name))

    def leave(self, t0: int, t1: int, counts: dict | None = None) -> None:
        """Close the span `enter` opened, timed by the caller's own clock reads."""
        sid, name = self.stack.pop()
        self.spans.append((sid, 0, self.job, name, t0, t1, counts))


@contextlib.contextmanager
def instrument(gl, tracer: Tracer):
    """Install the wrappers for the duration of the block, then remove them."""
    saved = []   # (owner, attribute, original, owner held it in its own dict)
    try:
        mods = modules(gl)
        for mod, attr, name, counter in FUNCTIONS:
            fn = getattr(sys.modules[f"{gl.__name__}.{mod}"], attr)
            wrapper = tracer.wrap(fn, name, counter)
            for m in mods:
                for k in [k for k, v in vars(m).items() if v is fn]:
                    saved.append((m, k, fn, True))
                    setattr(m, k, wrapper)
        for cls, attr, name, counter in methods(gl):
            own = attr in vars(cls)
            original = vars(cls)[attr] if own else getattr(cls, attr)
            saved.append((cls, attr, original, own))
            setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, counter))
        yield tracer
    finally:
        for owner, attr, original, own in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def is_instrumented(gl) -> bool:
    """True if any module global, package attribute or traced method still holds a wrapper."""
    owners = modules(gl) + [cls for cls, _, _, _ in methods(gl)]
    return any(hasattr(v, MARK) for o in owners for v in vars(o).values())


# -- aggregation -------------------------------------------------------------


def self_times(spans) -> dict[int, int]:
    """Span id -> its duration minus the time its direct children cover.

    One thread runs every span, so children of one parent never overlap and
    their union is their sum.
    """
    child = defaultdict(int)
    for sid, parent, _, _, t0, t1, _ in spans:
        if parent:
            child[parent] += t1 - t0
    return {sid: (t1 - t0) - child[sid] for sid, _, _, _, t0, t1, _ in spans}


def summarize(spans) -> dict:
    """Per span name: calls, total and self nanoseconds, summed counts."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for sid, _, _, name, t0, t1, counts in spans:
        e = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "counts": defaultdict(int)})
        e["calls"] += 1
        e["total_ns"] += t1 - t0
        e["self_ns"] += selfs[sid]
        for k, v in (counts or {}).items():
            e["counts"][k] += v
    for e in out.values():
        e["counts"] = dict(e["counts"])
    return out


def coverage(spans, name: str) -> tuple[float, dict[str, float]]:
    """Share of `name` spans' time that their children cover.

    Returns the share over all of them, and per job id the share of that
    job's `name` spans.
    """
    selfs = self_times(spans)
    total = covered = 0
    per_job: dict[str, list[int]] = {}
    for sid, _, job, n, t0, t1, _ in spans:
        if n != name:
            continue
        dur = t1 - t0
        total += dur
        covered += dur - selfs[sid]
        acc = per_job.setdefault(job, [0, 0])
        acc[0] += dur - selfs[sid]
        acc[1] += dur
    shares = {job: c / d if d else 1.0 for job, (c, d) in per_job.items()}
    return (covered / total if total else 1.0), shares


def stripped_digest(spans) -> str:
    """SHA-256 of the trace with every timing removed."""
    h = hashlib.sha256()
    for sid, parent, job, name, _, _, counts in spans:
        h.update(json.dumps([sid, parent, job, name, counts], sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def write_trace(path: Path, spans, header: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as f:
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for s in spans:
            f.write(json.dumps(s) + "\n")


def _ms(e, key="total_ns"):
    return e[key] / 1e6 if e else 0.0


def layer_metrics(summary: dict, rounds: int, setup_reps: int) -> dict[str, float]:
    """The per-layer metrics BENCHMARK.json lists, per round of the job pool."""
    get = summary.get

    def ms(name, key="total_ns"):
        return _ms(get(name), key) / rounds

    def calls(name):
        return (get(name) or {"calls": 0})["calls"] / rounds

    def count(name, key):
        return (get(name) or {"counts": {}})["counts"].get(key, 0) / rounds

    def ratio(name, num, den):
        c = (get(name) or {"counts": {}})["counts"]
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    return {
        "tech.load_ms": _ms(get("tech.load")) / setup_reps,
        "template.generate_ms": ms("template.generate"),
        "template.generate_calls": calls("template.generate"),
        "design.place_ms": ms("design.place"),
        "design.instances_placed": calls("design.place"),
        "grid.routing_grid_ms": ms("grid.routing_grid"),
        "design.route_ms": ms("design.route"),
        "design.wires_routed": count("design.route", "wires"),
        "design.vias_placed": calls("design.add_via"),
        "design.add_pin_ms": ms("design.add_pin"),
        "generators.routing_ms": ms("generators.routing"),
        "generators.self_ms": sum(ms(n, "self_ns") for n in STAGES.values()),
        "flow.run_flow_ms": ms("flow.run_flow"),
        "flow.self_ms": ms("flow.run_flow", "self_ns"),
        "postprocess.min_area_ms": ms("postprocess.min_area"),
        "postprocess.wires_extended": count("postprocess.min_area", "wires_extended"),
        "postprocess.cuts_ms": ms("postprocess.cuts"),
        "postprocess.cuts_added": count("postprocess.cuts", "cuts_added"),
        "postprocess.colors_ms": ms("postprocess.colors"),
        "postprocess.wires_colored": count("postprocess.colors", "wires_colored"),
        "postprocess.colored_ratio": ratio("postprocess.colors", "wires_colored", "wires_examined"),
        "postprocess.dummies_ms": ms("postprocess.dummies"),
        "postprocess.dummies_placed": count("postprocess.dummies", "dummies_placed"),
        "postprocess.dummy_fill_ratio": ratio("postprocess.dummies", "dummies_placed", "sites_examined"),
        "template.flatten_ms": ms("template.flatten"),
        "template.flatten_calls": calls("template.flatten"),
        "template.rects_flattened": count("template.flatten", "rects"),
        "layoutjson.write_ms": ms("layoutjson.write"),
        "layoutjson.bytes_written": count("layoutjson.write", "bytes"),
        "gds.write_ms": ms("gds.write"),
        "gds.bytes_written": count("gds.write", "bytes"),
        "svg.write_ms": ms("svg.write"),
        "svg.bytes_written": count("svg.write", "bytes"),
        "layoutjson.read_ms": ms("layoutjson.read"),
        "layoutjson.rebuild_ms": ms("layoutjson.rebuild"),
        "gds.read_ms": ms("gds.read"),
        "design.check_all_ms": ms("design.check_all"),
        "design.check_self_ms": ms("design.check_all", "self_ns"),
        "design.shapes_checked": count("bench.job", "shapes_checked"),
        "design.violations": count("design.check_all", "violations"),
    }

