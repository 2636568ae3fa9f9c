"""Fuzz the command line: every argv exits 0, 1 or 2, never with a traceback.

A seeded hypothesis search draws a subcommand and its options: good
and bad `--param` forms, `--color-offset`/`--offset` values that are and are
not integers, missing files, non-JSON and undecodable inputs, and a good
layout document. `main(argv)` runs in this process and thread, as the
console script does; argparse's usage errors arrive as SystemExit(2), and
any other exception escaping `main` fails the test.
"""

import contextlib
import io

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gridlay.cli import main
from gridlay.flow import POST_PASSES

# A fixed seed per property, not derandomize, so that editing a body keeps its draw.
FUZZ = settings(max_examples=150, deadline=None, derandomize=False, database=None)

PARAMS = (
    "bits=1", "bits=2", "bits=", "bits", "=2", "bits=0", "bits=99", "bits=-1", "bits=twelve",
    "bits=1=2", "bits= 2", "n_bits=2", "n_bits=65", "with_levelshift=yes",
    "with_levelshift=maybe", "with_levelshift=", "bogus=1", "", "=",
)
INTS = ("0", "1", "-3", "7", "x", "", "1.5", "0x1", "99999999999999999999")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Input files by kind, plus a directory the outputs go to."""
    d = tmp_path_factory.mktemp("cli_fuzz")
    good = d / "good.json"
    assert main(["gen", "--tech", "mock_finfet", "--generator", "dac", "--param", "bits=1",
                 "--out", str(good)]) == 0
    (d / "text.json").write_text("not json at all")
    (d / "list.json").write_text("[1, 2]")
    (d / "empty.json").write_bytes(b"")
    (d / "undecodable.json").write_bytes(b'{"design": "\xff"}')
    (d / "outputs").mkdir()
    return d


INPUTS = ("good.json", "text.json", "list.json", "empty.json", "undecodable.json",
          "missing.json", "outputs")
TECHS = ("mock_finfet", "mock_planar", "no_such_tech", "text.json", "undecodable.json",
         "good.json")


def _mostly(good, everything):
    """Half the draws from the good values, so that the runs that succeed are
    not rare."""
    return st.one_of(st.sampled_from(good), st.sampled_from(everything))


def _path(files, name: str) -> str:
    return name if name.startswith(("mock_", "no_such")) else str(files / name)


def _gen(files):
    return st.tuples(
        _mostly(TECHS[:2], TECHS), _mostly(("dac", "scan"), ("nonesuch",)),
        st.lists(_mostly(PARAMS[:2], PARAMS), max_size=3),
        _mostly(("json", "gds", "svg"), ("pdf",)),
        st.one_of(st.none(), _mostly(INTS[:4], INTS)),
        _mostly(("out.bin", "-"), ("outputs", "no_dir/out.bin")),
    ).map(lambda t: [
        "gen", "--tech", _path(files, t[0]), "--generator", t[1],
        *[a for p in t[2] for a in ("--param", p)], "--format", t[3],
        *(() if t[4] is None else ("--color-offset", t[4])),
        "--out", t[5] if t[5] == "-" else str(files / "outputs" / t[5]),
    ])


def _postprocess(files):
    return st.tuples(
        st.sampled_from(POST_PASSES + ("bogus",)), _mostly(INPUTS[:1], INPUTS),
        st.one_of(st.none(), st.sampled_from(TECHS)),
        st.one_of(st.none(), _mostly(INTS[:4], INTS)),
    ).map(lambda t: [
        "postprocess", "--pass", t[0], "--in", str(files / t[1]),
        "--out", str(files / "outputs" / "post.json"),
        *(() if t[2] is None else ("--tech", _path(files, t[2]))),
        *(() if t[3] is None else ("--offset", t[3])),
    ])


def _check(files):
    return st.tuples(
        _mostly(INPUTS[:1], INPUTS), st.one_of(st.none(), st.sampled_from(TECHS)),
    ).map(lambda t: [
        "check", "--in", str(files / t[0]),
        *(() if t[1] is None else ("--tech", _path(files, t[1]))),
    ])


def _other():
    return st.one_of(
        st.just(["list-generators"]), st.just([]), st.just(["bogus"]),
        st.lists(st.sampled_from(("gen", "check", "--in", "--tech", "--pass", "-", "x")),
                 max_size=4),
    )


@FUZZ
@seed(21)
@given(data=st.data())
def test_cli_exits_0_1_or_2_without_traceback(files, data):
    argv = data.draw(st.one_of(_gen(files), _postprocess(files), _check(files), _other()))
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code == 1 and argv[:1] != ["check"]:
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())
