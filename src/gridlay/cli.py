"""Command-line entry point.

Subcommands: `gen` runs a registered generator through the full pipeline and
exports it, `postprocess` applies a single pass to a layout JSON, `check`
runs the spacing checker, `list-generators` prints the registry. Exit codes:
0 success, 1 failure (including check violations), 2 usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .design import check_all
from .errors import LayoutError
from .flow import POST_PASSES, FlowFlags, run_flow, run_pass
from .gds import write_gds
from .generators import get_generator, generator_specs
from .layoutjson import document_to_design, read_layout_json, write_layout_json
from .svg import write_svg
from .tech import load_tech_file

_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_params(pairs: list[str], schema) -> dict:
    """K=V strings to params, converted by spec type; a value that does not
    convert and an unknown key pass through for validate_params to report."""
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise LayoutError(f"--param needs k=v, got {pair!r}")
        key, _, raw = pair.partition("=")
        spec = schema.get(key)
        value = raw
        if spec is not None and spec.type == "int":
            try:
                value = int(raw)
            except ValueError:
                pass
        elif spec is not None and spec.type == "bool":
            value = _BOOL_WORDS.get(raw.lower(), raw)
        out[key] = value
    return out


def _write_out(path: str, data: bytes) -> None:
    if path == "-":
        sys.stdout.buffer.write(data)
    else:
        Path(path).write_bytes(data)


def _cmd_gen(args) -> int:
    tech = load_tech_file(args.tech)
    params = _parse_params(args.param, get_generator(args.generator).schema)
    d = run_flow(args.generator, params, tech, FlowFlags(color_offset=args.color_offset))
    if args.format == "json":
        data = write_layout_json(d)
    elif args.format == "gds":
        data = write_gds(d)
    else:
        data = write_svg(d)
    _write_out(args.out, data)
    return 0


def _load_design(args):
    doc = read_layout_json(Path(getattr(args, "in")).read_bytes())
    tech = load_tech_file(args.tech if args.tech else doc.tech_name)
    return document_to_design(doc, tech)


def _cmd_postprocess(args) -> int:
    d = _load_design(args)
    run_pass(d, args.pass_name, args.offset)
    _write_out(args.out, write_layout_json(d))
    return 0


def _cmd_check(args) -> int:
    d = _load_design(args)
    violations = check_all(d)
    for v in violations:
        print(v)
    return 1 if violations else 0


def _cmd_list(_args) -> int:
    for name, doc in generator_specs():
        print(f"{name} - {doc}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridlay",
        description="Procedural layout generation with dynamic templates and grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="run a generator and export the design")
    gen.add_argument("--tech", required=True, help="tech JSON path or bundled name")
    gen.add_argument("--generator", required=True)
    gen.add_argument("--param", action="append", default=[], metavar="K=V")
    gen.add_argument("--out", default="-", help="output file, or - for stdout")
    gen.add_argument("--format", choices=("gds", "json", "svg"), default="json")
    gen.add_argument("--color-offset", type=int, default=0)
    gen.set_defaults(func=_cmd_gen)

    post = sub.add_parser("postprocess", help="apply one pass to a layout JSON")
    post.add_argument("--pass", dest="pass_name", required=True, choices=POST_PASSES)
    post.add_argument("--in", required=True, help="input layout JSON")
    post.add_argument("--out", default="-")
    post.add_argument("--tech", default=None, help="override the document's tech")
    post.add_argument("--offset", type=int, default=0, help="color alignment offset")
    post.set_defaults(func=_cmd_postprocess)

    check = sub.add_parser("check", help="spacing-check a layout JSON")
    check.add_argument("--in", required=True)
    check.add_argument("--tech", default=None)
    check.set_defaults(func=_cmd_check)

    lst = sub.add_parser("list-generators", help="print registered generators")
    lst.set_defaults(func=_cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LayoutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
