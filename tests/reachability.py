"""The reachability gate: every function in `src/gridlay` runs under the shipped
traffic, or the allowlist says why it does not.

Run from anywhere with `python tests/reachability.py`. The script lists every
function and method in `src/gridlay/*.py` from the AST, keyed by its file and
the line its code object reports as `co_firstlineno` (for a decorated function,
the line of its first decorator). Then, in this one process under
`sys.setprofile`, it runs the traffic the package ships for:

- `gridlay.cli.main`: `list-generators`; `gen` for every registered generator
  on every bundled tech in every output format; `check` on each layout JSON it
  wrote; and `postprocess --pass P` for every post pass on each of them, all
  in a temporary directory;
- `main` of `perfbench/run.py`, loaded with `runpy`, for one second of each
  workload at seed 1 untraced, which runs every job with its oracle check and
  its encoder.

It exits 1 and prints each offender when a function never ran and is not on
the allowlist, when an allowlisted function ran, or when an allowlist entry
names no function. It exits 2 when the traffic itself fails, and 0 otherwise.
This file is not collected by the test suite.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import runpy
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "gridlay"
BENCH = ROOT / "perfbench"
FORMATS = ("json", "gds", "svg")

# module.qualname of a function no traffic runs -> what keeps it.
_RECORDS = "the record contract (README; tests/test_records.py)"
_CYCLIC = "the paper's circular indexing and slicing (test_acceptance criterion 2, test_grid)"
_ITEM_6 = "ROADMAP item 6, the 2-D unit array (tests/test_grid.py, test_geometry, test_template)"
ALLOWLIST: dict[str, str] = {
    "errors.FlowError.__init__": "error path: a stage that raises (test_design, test_cli)",
    "errors._name": "error path: names the entry a field reader refuses",
    "layoutjson._read_raw_rects": "error path: names the rect whose `src` is missing or bad",
    "generators.Generator.build_instances": "base-class stub every generator overrides",
    "generators.Generator.place_instances": "base-class stub every generator overrides",
    "generators.Generator.route_wires": "base-class stub every generator overrides",
    "generators.Generator.add_pins": "base-class stub every generator overrides",
    "geometry._checked_replace": _RECORDS + ": `_replace` runs the constructor checks",
    "geometry.Rect.__getnewargs__": _RECORDS + ": copy and pickle go through the constructor",
    "design.Wire.__eq__": _RECORDS + ": wires compare field by field",
    "design.Wire.__repr__": _RECORDS + ": a wire's repr is its field listing",
    "grid.CircularMapping.__eq__": _RECORDS,
    "grid.CircularMapping.__hash__": _RECORDS,
    "grid.CircularMapping.__repr__": _RECORDS + "; the JSON writer test prints it",
    "grid.CircularMappingArray.__eq__": _RECORDS,
    "grid.CircularMappingArray.__repr__": _RECORDS + "; the JSON writer test prints it",
    "grid.CircularMapping.slice": _CYCLIC,
    "grid.CircularMapping.__getitem__": _CYCLIC,
    "grid.CircularMappingArray.__getitem__": _CYCLIC,
    "template.array_of": _ITEM_6,
    "grid.overlap_range": _ITEM_6,
    "geometry.Rect.intersection": _ITEM_6,
    "template.VirtualInstance.flatten": "ROADMAP item 1b: perfbench's tracer wraps it",
}


def functions() -> dict[tuple[str, int], str]:
    """(file name, first line) -> module.qualname of every function and method."""
    out = {}

    def visit(node: ast.AST, prefix: str, file: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                out[file, line] = prefix + child.name
                visit(child, f"{prefix}{child.name}.", file)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", file)
            else:
                visit(child, prefix, file)

    for path in sorted(PKG.glob("*.py")):
        visit(ast.parse(path.read_text()), f"{path.stem}.", path.name)
    return out


def quiet(fn, *args) -> tuple[int, str]:
    """fn(*args) with stdout and stderr captured: (its return value, their text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = fn(*args)
    return code, buf.getvalue()


def traffic(tmp: Path) -> list[str]:
    """Run every CLI command and perfbench workload; what failed among them."""
    from gridlay import cli, flow, generators, tech

    failed = []

    def gridlay(*argv: str) -> None:
        code, text = quiet(cli.main, list(argv))
        if code != 0:
            failed.append(f"gridlay {' '.join(argv)} exited {code}: {text.strip()}")

    gridlay("list-generators")
    for gen in generators.REGISTRY:
        for name in tech.BUNDLED_TECHS:
            for fmt in FORMATS:
                out = str(tmp / f"{gen}-{name}.{fmt}")
                gridlay("gen", "--tech", name, "--generator", gen, "--format", fmt, "--out", out)
            doc = str(tmp / f"{gen}-{name}.json")
            gridlay("check", "--in", doc)
            for p in flow.POST_PASSES:
                gridlay("postprocess", "--pass", p, "--in", doc, "--out", str(tmp / f"{p}.json"))

    sys.path.insert(0, str(BENCH))
    bench = runpy.run_path(str(BENCH / "run.py"), run_name="perfbench_run")
    for w in ("gen_mix", "signoff", "interchange"):
        argv = ["--workload", w, "--seed", "1", "--seconds", "1", "--trace", "0"]
        code, text = quiet(bench["main"], argv)
        lines = text.strip().splitlines()
        if code != 0 or not lines or json.loads(lines[-1]).get("correct") is not True:
            failed.append(f"perfbench {w} exited {code}: {text.strip()[-2000:]}")
    return failed


def main() -> int:
    start = time.perf_counter()
    sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
    sys.path.insert(0, str(PKG.parent))
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    with tempfile.TemporaryDirectory(prefix="gridlay-reach-") as tmp:
        sys.setprofile(profile)
        try:
            failed = traffic(Path(tmp))
        finally:
            sys.setprofile(None)
    if failed:
        print("the traffic failed, so its map is incomplete:", *failed, sep="\n")
        return 2

    ours = {f for f in {c.co_filename for c in seen} if Path(f).resolve().parent == PKG}
    ran = {(Path(c.co_filename).name, c.co_firstlineno) for c in seen if c.co_filename in ours}
    funcs = functions()
    names = set(funcs.values())
    offenders = [f"never ran, not on the allowlist: {name} ({file}:{line})"
                 for (file, line), name in sorted(funcs.items())
                 if (file, line) not in ran and name not in ALLOWLIST]
    offenders += [f"on the allowlist but ran: {name} ({file}:{line})"
                  for (file, line), name in sorted(funcs.items())
                  if (file, line) in ran and name in ALLOWLIST]
    offenders += [f"on the allowlist but no such function: {name}"
                  for name in sorted(ALLOWLIST) if name not in names]
    for line in offenders:
        print(line)
    unreached = sum(key not in ran for key in funcs)
    print(f"{len(funcs)} functions, {unreached} never ran, {len(ALLOWLIST)} allowlisted, "
          f"{len(offenders)} offending, in {time.perf_counter() - start:.1f} s")
    return 1 if offenders else 0


if __name__ == "__main__":
    sys.exit(main())
