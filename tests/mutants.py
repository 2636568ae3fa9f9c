"""The committed mutant table: each entry breaks one check, and its tests must fail.

Run from anywhere with `python tests/mutants.py`. The script first runs every
named test on an unchanged copy of the tree, which must pass. Then, for each
mutant, it copies `src/`, `tests/` and `pyproject.toml` to a temporary
directory, replaces the entry's old text, which must occur exactly once in
its file, by the new text, and runs the entry's tests there with
`python -m pytest -q -x -p no:cacheprovider`, one process at a time. A
mutant is caught when one of its tests fails; it survives when they all
pass. The script lists every survivor and exits 1 if any mutant survives,
an old text is not found exactly once, or pytest ends other than with passed
or failed tests.

A surviving mutant calls for a test that catches it, not for dropping the
entry. This file is not collected by the test suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]


# `file` is relative to the repository root; `tests` are pytest node ids.
Mutant = namedtuple("Mutant", "name file old new tests")

RECORDS = "tests/test_records.py::"
SHAPES = "tests/test_grid.py::test_routing_grid_validates_attribute_lengths"
REPLACE = RECORDS + "test_replace_runs_the_constructor_checks"
GRID = "tests/test_grid.py::test_grid_validation"
TRACK_SPEC = "tests/test_grid.py::test_track_spec_rejects_bad_fields"
ROUTE_ORACLE = "tests/test_design.py::test_route_matches_oracle_on_random_paths"
SREF_ALONE = "tests/test_io.py::test_each_sref_is_the_one_its_copy_gets_alone"
THREE_AUTO_M1 = ("tests/test_tech.py::test_malformed_entry_is_a_validation_error_naming_it"
                 "[grids.sig.xtracks]")


def deleted(name: str, file: str, old: str, *tests: str) -> Mutant:
    return Mutant(name, file, old, "", tests)


MUTANTS = [
    # -- the checks the record constructors run
    deleted("OneDimGrid: no period check", "src/gridlay/grid.py",
            '        if period <= 0:\n            raise ValueError("grid period must be positive")\n',
            GRID),
    deleted("OneDimGrid: no empty-coords check", "src/gridlay/grid.py",
            '        if not coords:\n'
            '            raise ValueError("grid needs at least one coordinate")\n',
            GRID),
    deleted("OneDimGrid: no order check", "src/gridlay/grid.py",
            "        if any(b <= a for a, b in zip(coords, coords[1:])):\n"
            '            raise ValueError("grid coordinates must be strictly increasing")\n',
            GRID),
    deleted("OneDimGrid: no range check", "src/gridlay/grid.py",
            "        if coords[0] < 0 or coords[-1] >= period:\n"
            '            raise ValueError("grid coordinates must lie in [0, period)")\n',
            GRID),
    deleted("TrackSpec: no kind check", "src/gridlay/grid.py",
            '        if kind not in ("signal", "power"):\n'
            '            raise ValueError(f"unknown track kind {kind!r}")\n',
            TRACK_SPEC + "[fields0]"),
    deleted("TrackSpec: no wmul check", "src/gridlay/grid.py",
            '        if wmul < 1:\n            raise ValueError("wmul must be >= 1")\n',
            TRACK_SPEC + "[fields1]"),
    deleted("TrackSpec: no color check", "src/gridlay/grid.py",
            "        if color not in TRACK_COLORS:\n"
            '            raise ValueError(f"unknown color {color!r}")\n',
            TRACK_SPEC + "[fields2]"),
    deleted("Track: no width check", "src/gridlay/grid.py",
            '        if width <= 0:\n            raise ValueError("track widths must be positive")\n',
            "tests/test_grid.py::test_track_rejects_zero_width"),
    deleted("RoutingGrid: no track-count check", "src/gridlay/grid.py",
            "        if (len(xtracks), len(ytracks)) != shape:\n"
            '            raise ValueError("track records do not match their axes")\n',
            SHAPES),
    deleted("RoutingGrid: no viamap-shape check", "src/gridlay/grid.py",
            "        if viamap.shape != shape:\n"
            '            raise ValueError("viamap shape does not match the axes")\n',
            SHAPES),
    deleted("VirtualInstance: pins may leave the bbox", "src/gridlay/template.py",
            "        for pname, pin in pins.items():\n"
            "            if not _inside(pin.rect, size):\n"
            '                raise ValueError(f"instance {master}: pin {pname} outside bbox")\n',
            "tests/test_template.py::test_pins_must_lie_inside_bbox"),
    *(deleted(f"{cls}: _replace skips the checks", f"src/gridlay/{file}",
              f"{made}\n\n    _replace = _checked_replace\n",
              REPLACE + f"[{cls}]")
      for cls, file, made in [
          ("OneDimGrid", "grid.py", "        return cls._make((period, coords))"),
          ("TrackSpec", "grid.py", "        return cls._make((layer, kind, wmul, color))"),
          ("Track", "grid.py", "        return cls._make((layer, width, color))"),
          ("RoutingGrid", "grid.py",
           "        return cls._make((name, xgrid, ygrid, xtracks, ytracks, viamap))"),
          ("VirtualInstance", "template.py",
           "        return cls._make((master, params, origin, transform, size, subelements, pins))"),
      ]),
    deleted("Wire: no axis check", "src/gridlay/design.py",
            '        if axis not in ("h", "v"):\n'
            '            raise ValueError(f"bad wire axis {axis!r}")\n',
            RECORDS + "test_wire_rejects_bad_axis_and_width"),
    deleted("Wire: no width check", "src/gridlay/design.py",
            '        if width <= 0:\n            raise ValueError("wire width must be positive")\n',
            RECORDS + "test_wire_rejects_bad_axis_and_width"),
    deleted("Wire: no lo/hi swap", "src/gridlay/design.py",
            "        if lo > hi:\n            lo, hi = hi, lo\n",
            RECORDS + "test_wire_swaps_lo_and_hi"),
    Mutant("ViaDef: pad enclosure off by one", "src/gridlay/tech.py",
           "            e = enclosure.get(layer, 0)\n", "            e = enclosure.get(layer, 0) + 1\n",
           ("tests/test_via_geometry.py::test_via_rects_match_the_rule",)),
    # -- masks
    Mutant("track_colors: auto color by pattern index", "src/gridlay/grid.py",
           "masks[turn.get(t.layer, 0) % len(masks)]", "masks[len(colors) % len(masks)]",
           ("tests/test_grid.py::test_auto_colors_alternate_per_layer",)),
    deleted("load_tech: no alternation check", "src/gridlay/tech.py",
            '        check_alternation(f"{where}.{key}", out, layers)\n', THREE_AUTO_M1),
    Mutant("check_alternation: no wrap", "src/gridlay/grid.py",
           "zip(cs, cs[1:] + cs[:1])", "zip(cs, cs[1:])", (THREE_AUTO_M1,)),
    Mutant("DATATYPE_OFFSET: colorA and colorB swapped", "src/gridlay/geometry.py",
           '"colorA": 2, "colorB": 3', '"colorA": 3, "colorB": 2',
           ("tests/test_golden.py::test_flow_output_bytes[default-dac1-mock_finfet]",)),
    # -- routing
    deleted("route: vias placed before every bend is checked", "src/gridlay/design.py",
            "        for p in bends:  # check every via before placing any\n"
            "            if grid.viamap.get(*p) is None:\n"
            '                raise MissingVia(f"no via at track intersection {p}")\n',
            "tests/test_design.py::test_route_missing_later_via_leaves_the_design_unchanged"),
    Mutant("route: the low end's reach ignores the via", "src/gridlay/design.py",
           "                if lo in vias:\n"
           "                    r0 = max(r0, -vias[lo].pad(layer)[k])\n", "",
           (ROUTE_ORACLE,)),
    Mutant("route: a via at every joint, not only at direction changes", "src/gridlay/design.py",
           "            if segs and segs[-1][0] != seg[0]:\n", "            if segs:\n",
           (ROUTE_ORACLE,)),
    # -- GDS instances
    Mutant("write_gds: the SREF head keyed by structure name only", "src/gridlay/gds.py",
           "        head = heads.get((sname, t))\n        if head is None:\n"
           "            head = heads[sname, t] = ",
           "        head = heads.get(sname)\n        if head is None:\n"
           "            head = heads[sname] = ",
           (SREF_ALONE,)),
    Mutant("write_gds: the structure name keyed by master only", "src/gridlay/gds.py",
           "        sname = names.get((vi.master, id(vi.params)))\n        if sname is None:\n"
           "            sname = names[vi.master, id(vi.params)] = ",
           "        sname = names.get(vi.master)\n        if sname is None:\n"
           "            sname = names[vi.master] = ",
           (SREF_ALONE,)),
    Mutant("write_gds: the per-copy XY packed without _coord", "src/gridlay/gds.py",
           "_XY_ENDEL.pack(12, XY, _coord(x), _coord(y), 4, ENDEL)",
           "_XY_ENDEL.pack(12, XY, x, y, 4, ENDEL)",
           ("tests/test_io.py::test_gds_overflow_past_either_end_of_32_bits",)),
    # -- the spacing checker
    Mutant("checker: cut suppression off", "src/gridlay/design.py",
           "        if not _cut_suppressed(shapes[i], shapes[j], cuts):\n", "        if True:\n",
           ("tests/test_design.py::test_cut_suppresses_violation",)),
    Mutant("checker: a gap of min_spacing violates", "src/gridlay/design.py",
           "                if gap_sq < s_sq:\n", "                if gap_sq <= s_sq:\n",
           ("tests/test_design.py::test_diagonal_gap_uses_euclidean",)),
    Mutant("checker: pin shapes kept", "src/gridlay/design.py",
           '        if row[5] != "pin":\n            bucket.append(row)\n',
           "        bucket.append(row)\n",
           ("tests/test_spacing_diff.py::test_sweep_matches_oracle_on_random_rects",)),
    Mutant("checker: touching shapes not merged", "src/gridlay/design.py",
           "                    parent[ri] = rj\n", "                    pass\n",
           ("tests/test_design.py::test_touching_shapes_merge",
            "tests/test_spacing_diff.py::test_pattern_merged_through_a_later_shape")),
    Mutant("checker: the widest pair reported", "src/gridlay/design.py",
           "if key not in best or entry < best[key]:", "if key not in best or entry > best[key]:",
           ("tests/test_spacing_diff.py::test_tie_goes_to_the_smallest_index_pair",)),
    Mutant("checker: shapes expire one unit early", "src/gridlay/design.py",
           "        reach = lx - s\n", "        reach = lx - s + 1\n",
           ("tests/test_design.py::test_spacing_one_below_violates",)),
    Mutant("checker: diagonal gaps cuttable", "src/gridlay/design.py",
           "        return False  # diagonal gaps are not cuttable\n", "        pass\n",
           ("tests/test_spacing_diff.py::test_sweep_matches_oracle_on_random_rects",)),
]


def copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=skip)
        else:
            shutil.copy2(src, dest / name)


def run_tests(tree: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run(PYTEST + list(tests), cwd=tree, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def run_mutant(m: Mutant) -> str:
    """'caught', 'survived', or what went wrong."""
    with tempfile.TemporaryDirectory(prefix="gridlay-mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        path = tree / m.file
        text = path.read_text()
        if text.count(m.old) != 1:
            return f"old text found {text.count(m.old)} times in {m.file}"
        path.write_text(text.replace(m.old, m.new))
        code = run_tests(tree, m.tests)
    return {0: "survived", 1: "caught"}.get(code, f"pytest exited {code}")


def main() -> int:
    start = time.perf_counter()
    named = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="gridlay-mutant-") as tmp:
        copy_tree(Path(tmp))
        code = run_tests(Path(tmp), named)
    if code != 0:
        print(f"the named tests fail on the unchanged tree (pytest exited {code})")
        return 1
    bad = []
    for m in MUTANTS:
        result = run_mutant(m)
        print(f"{result:>9}  {m.name}")
        if result != "caught":
            bad.append((m.name, result))
    print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} mutants caught "
          f"in {time.perf_counter() - start:.1f} s")
    for name, result in bad:
        print(f"NOT CAUGHT: {name}: {result}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
