"""Expected results that share no code with the gridlay path under test.

Every expectation here comes from a closed form over the generator
parameters, from the technology JSON read with the standard library, or from
an independent parse of the output bytes (JSON via `json`, GDSII via a record
walker written here, SVG via a regex). A job whose output disagrees with its
oracle counts as failed.
"""

from __future__ import annotations

import json
import math
import re
import struct
from collections import Counter
from pathlib import Path


class TechRules:
    """The few rule facts the oracles need, read straight from tech JSON."""

    def __init__(self, path: Path):
        data = json.loads(path.read_text())
        layers = {e["name"]: e for e in data["layers"]}
        self.gds_layer = {n: e["gds"][0] for n, e in layers.items()}
        self.min_spacing = {n: e["min_spacing"] for n, e in layers.items()}
        self.min_width = {n: e["min_width"] for n, e in layers.items()}
        self.min_area = {n: e.get("min_area", 0) for n, e in layers.items() if e.get("min_area", 0) > 0}
        self.colorable = sorted(n for n, e in layers.items() if e.get("colorable"))
        self.cut_rule_layers = sorted(n for n, e in layers.items() if "cut" in e)
        self.cut_layers = sorted(e["cut"]["layer"] for e in layers.values() if "cut" in e)
        self.via_cut_layers = sorted({v["cut_layer"] for v in data["vias"]})
        # metal layers a via lands on: the routing layers defects go on
        self.routing_layers = sorted({v["lower"] for v in data["vias"]} | {v["upper"] for v in data["vias"]})
        self.has_cuts = bool(self.cut_layers)
        self.has_colors = bool(self.colorable)


def load_rules(src: Path) -> dict[str, TechRules]:
    techs = src / "gridlay" / "techs"
    return {p.stem: TechRules(p) for p in sorted(techs.glob("*.json"))}


# -- closed-form design counts ------------------------------------------------


def expected_counts(gen: str, params: dict, rules: TechRules, offset: int) -> dict[str, int]:
    """Counts of a full-flow design, derived from the generator structure.

    DAC (n = 2^bits units): one route per unit gate and source (2n vias),
    bits + 2 rails, bits + 2 rail pins; four wire ends per unit column get a
    boundary cut on a cut-rule tech. Rails sit on the [A, B, power] m2 track
    cycle, so offset 0 leaves only the power rail uncolored and offset 1
    leaves the odd signal tracks 1..bits uncolored. Scan (n cells): one clk
    stub and via per cell, the clk rail and two chain pin wires; the clk
    rail and stubs are on colored tracks for either offset, the chain pin
    wires sit off-grid.
    """
    if gen == "dac":
        bits = params["bits"]
        n = 2 ** bits
        wires = 2 * n + bits + 2
        out = {"instances": n, "vias": 2 * n, "wires": wires, "pins": bits + 2, "cuts": 4 * n}
        uncolored = 1 if offset % 2 == 0 else (bits + 1) // 2
        out["colored"] = wires - uncolored
    else:
        n = params["n_bits"]
        out = {"instances": n, "vias": n, "wires": n + 3, "pins": 3, "cuts": 2 * n, "colored": n + 1}
    if not rules.has_cuts:
        out["cuts"] = 0
    if not rules.has_colors:
        out["colored"] = 0
    return out


def _mismatch(what: str, got: dict, want: dict) -> str | None:
    bad = {k: (got.get(k), v) for k, v in want.items() if got.get(k) != v}
    if bad:
        return f"{what}: " + ", ".join(f"{k} got {g} want {w}" for k, (g, w) in sorted(bad.items()))
    return None


# -- independent output parsers -----------------------------------------------


def json_counts(doc: dict, rules: TechRules) -> dict[str, int]:
    rects = doc["rects"]
    return {
        "instances": sum(1 for e in doc["instances"] if e["master"] != "dummy"),
        "dummies": sum(1 for e in doc["instances"] if e["master"] == "dummy"),
        "wires": len(doc["wires"]),
        "vias": len(doc["vias"]),
        "pins": len(doc["pins"]),
        "cuts": sum(1 for r in rects if r["purpose"] == "cut"),
        "colored": sum(1 for w in doc["wires"] if w["color"] is not None),
    }


def gds_walk(data: bytes) -> list[tuple[str, list[tuple[int, bytes]]]]:
    """Split a GDSII stream into (structure name, element records) pairs."""
    pos, structs, current = 0, [], None
    while pos < len(data):
        size, rtype = struct.unpack_from(">HH", data, pos)
        if size < 4:
            raise ValueError(f"bad GDS record size {size} at {pos}")
        payload = data[pos + 4:pos + size]
        pos += size
        if rtype == 0x0502:          # BGNSTR
            current = ["", []]
        elif rtype == 0x0606:        # STRNAME
            current[0] = payload.rstrip(b"\0").decode("ascii")
        elif rtype == 0x0700:        # ENDSTR
            structs.append((current[0], current[1]))
            current = None
        elif current is not None:
            current[1].append((rtype, payload))
    if pos != len(data):
        raise ValueError("trailing bytes after last GDS record")
    return structs


def gds_counts(data: bytes, rules: TechRules) -> dict[str, int]:
    structs = gds_walk(data)
    _, top = structs[-1]
    layer_of = {v: k for k, v in rules.gds_layer.items()}
    per_layer: Counter = Counter()
    srefs = texts = 0
    in_boundary = False
    for rtype, payload in top:
        if rtype == 0x0800:          # BOUNDARY
            in_boundary = True
        elif rtype == 0x0D02 and in_boundary:   # LAYER
            per_layer[layer_of.get(struct.unpack(">h", payload)[0], "?")] += 1
            in_boundary = False
        elif rtype == 0x0A00:        # SREF
            srefs += 1
        elif rtype == 0x0C00:        # TEXT
            texts += 1
    return {
        "structures": len(structs),
        "instances": srefs,
        "pins": texts,
        "vias": sum(per_layer[n] for n in rules.via_cut_layers),
        "cuts": sum(per_layer[n] for n in rules.cut_layers),
    }


_SVG_GROUP = re.compile(r'<g data-layer="([^"]+)"[^>]*>(.*?)</g>', re.S)


def svg_counts(data: bytes, rules: TechRules) -> dict[str, int]:
    text = data.decode("utf-8")
    per_layer = {m.group(1): m.group(2).count("<rect ") for m in _SVG_GROUP.finditer(text)}
    return {
        "vias": sum(per_layer.get(n, 0) for n in rules.via_cut_layers),
        "cuts": sum(per_layer.get(n, 0) for n in rules.cut_layers),
    }


def check_export(fmt: str, data: bytes, gen: str, params: dict, rules: TechRules, offset: int) -> str | None:
    """None when an exported full-flow design matches its closed form."""
    want = expected_counts(gen, params, rules, offset)
    if fmt == "json":
        want = dict(want, dummies=0)
        return _mismatch("json", json_counts(json.loads(data), rules), want)
    if fmt == "gds":
        want = {k: want[k] for k in ("instances", "pins", "vias", "cuts")}
        want["structures"] = 2
        return _mismatch("gds", gds_counts(data, rules), want)
    want = {k: want[k] for k in ("vias", "cuts")}
    return _mismatch("svg", svg_counts(data, rules), want)


# -- post-pass oracles ----------------------------------------------------------


def undersized_wires(doc: dict, rules: TechRules) -> int:
    return sum(1 for w in doc["wires"] if w["width"] * (w["hi"] - w["lo"]) < rules.min_area.get(w["layer"], 0))


def expected_dummy_origins(before: dict, rows: int) -> set[tuple[int, int]]:
    """Free placement sites when the single cell row's bbox grows by `rows`.

    Units abut in one row at (x0 + k * px, y0), so every site of the grown
    rows above and below the cell row is free and every site of the cell
    row is taken.
    """
    px = before["pgrid"]["x"]["period"]
    py = before["pgrid"]["y"]["period"]
    xs = sorted({e["origin"][0] for e in before["instances"]})
    ys = {e["origin"][1] for e in before["instances"]}
    if len(ys) != 1 or max(xs) - min(xs) != (len(xs) - 1) * px:
        raise ValueError("instances do not abut in one row")
    y0 = ys.pop()
    return {(x, y0 + j * py) for x in xs for j in range(-rows, rows + 1) if j != 0}


def pass_expectation(kind: str, before: dict, meta: dict, rules: TechRules) -> dict:
    """What a post-pass job's output must show, taken from its input."""
    if kind == "min-area":
        return {"wires": len(before["wires"]), "undersized": undersized_wires(before, rules)}
    if kind == "dummies":
        return {"origins": expected_dummy_origins(before, meta["rows"])}
    want = expected_counts(meta["gen"], meta["params"], rules, meta["offset"])
    return {"cuts": want["cuts"]} if kind == "cuts" else {"colored": want["colored"]}


def check_pass(kind: str, out: dict, want: dict, rules: TechRules) -> str | None:
    """None when a post-pass output meets the pass's promise."""
    if kind == "min-area":
        if want["undersized"] == 0:
            return "min-area: input had no undersized wire"
        got = {"wires": len(out["wires"]), "undersized": undersized_wires(out, rules)}
        return _mismatch("min-area", got, {"wires": want["wires"], "undersized": 0})
    if kind == "dummies":
        origins = [(e["origin"][0], e["origin"][1]) for e in out["instances"] if e["master"] == "dummy"]
        if len(origins) != len(want["origins"]) or set(origins) != want["origins"]:
            return f"dummies: placed {len(origins)}, want {len(want['origins'])} free sites"
        return None
    if kind == "colors":
        if any(w["color"] is not None and w["layer"] not in rules.colorable for w in out["wires"]):
            return "colors: color on a non-colorable layer"
    return _mismatch(kind, json_counts(out, rules), want)


# -- seeded spacing defects ---------------------------------------------------


def defect_pairs(rng, rules: TechRules, bbox: tuple[int, int, int, int], k: int):
    """k rect pairs, each one spacing violation, placed clear of everything.

    The pairs sit in a row starting one clearance above the design's bbox,
    one pitch apart, so no pair comes within any layer's min_spacing of the
    design or of another pair. Each pair's gap is below its layer's
    min_spacing: along x, along y, or diagonal with both gaps g and
    2 g^2 < s^2. Returns (layer, (x0, y0, x1, y1), (x0, y0, x1, y1)) tuples.
    """
    clear = 4 * max(rules.min_spacing.values())
    w = 4 * max(max(rules.min_width.values()), max(rules.min_spacing.values()))
    pitch = 4 * w
    x = bbox[0]
    y = bbox[3] + clear
    out = []
    for i in range(k):
        layer = rng.choice(rules.routing_layers)
        s = rules.min_spacing[layer]
        shape = rng.choice(("x", "y", "diag"))
        x0 = x + i * pitch
        a = (x0, y, x0 + w, y + w)
        if shape == "x":
            g = rng.randint(1, s - 1)
            b = (x0 + w + g, y, x0 + 2 * w + g, y + w)
        elif shape == "y":
            g = rng.randint(1, s - 1)
            b = (x0, y + w + g, x0 + w, y + 2 * w + g)
        else:
            g = rng.randint(1, math.isqrt((s * s - 1) // 2))
            b = (x0 + w + g, y + w + g, x0 + 2 * w + g, y + 2 * w + g)
        out.append((layer, a, b))
    return out


def json_bbox(doc: dict) -> tuple[int, int, int, int]:
    boxes = [r["bbox"] for r in doc["rects"]]
    return (min(b[0] for b in boxes), min(b[1] for b in boxes),
            max(b[2] for b in boxes), max(b[3] for b in boxes))


def check_verdict(violation_layers: list[str], expected_layers: list[str]) -> str | None:
    if Counter(violation_layers) != Counter(expected_layers):
        return (f"signoff: {len(violation_layers)} violations "
                f"{sorted(Counter(violation_layers).items())}, "
                f"want {len(expected_layers)} {sorted(Counter(expected_layers).items())}")
    return None
