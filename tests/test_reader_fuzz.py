"""Fuzz both readers: damaged input fails with a LayoutError, never a traceback.

A seeded hypothesis search mutates a DAC-2 GDS stream (byte flips and
truncations) and a DAC-2 layout JSON (field deletions and type swaps in every
section). Reading, and for JSON also rebuilding and writing the rebuilt
design as JSON and GDS, either succeeds or raises a LayoutError subclass.
The rebuild checks a section one field at a time over all its entries; a
third search damages entries of one section and requires the error of the
entry-by-entry reader, which names the first entry at fault.
"""

import copy
import json

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from gridlay import errors, layoutjson
from gridlay.errors import LayoutError, ValidationError
from gridlay.flow import run_flow
from gridlay.gds import read_library, write_gds
from gridlay.layoutjson import document_to_design, read_layout_json, write_layout_json

# A fixed seed per property, not derandomize, so that editing a body keeps its draw.
FUZZ = settings(max_examples=100, deadline=None, derandomize=False, database=None)
SECTIONS = ("instances", "wires", "vias", "pins", "rects")
SWAPS = (None, True, 0, -1, 2.5, "R90", "", [], [0, 0, 0], {}, {"x": 1})


@pytest.fixture(scope="module")
def dac2(finfet):
    d = run_flow("dac", {"bits": 2}, finfet)
    return write_gds(d), write_layout_json(d)


@FUZZ
@seed(25)
@given(
    flips=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(1, 255)), max_size=4),
    cut=st.one_of(st.none(), st.integers(0, 1 << 16)),
)
def test_gds_reader_fails_only_with_layout_errors(dac2, flips, cut):
    data = bytearray(dac2[0])
    for pos, mask in flips:
        data[pos % len(data)] ^= mask
    if cut is not None:
        data = data[:cut % len(data)]
    try:
        read_library(bytes(data))
    except LayoutError:
        pass


# (section or top-level key, entry index, field index, None to delete or a swap index)
mutation = st.tuples(
    st.sampled_from(SECTIONS + ("pgrid", "grid", "design", "tech")),
    st.integers(0, 1 << 10),
    st.integers(0, 16),
    st.one_of(st.none(), st.integers(0, len(SWAPS) - 1)),
)


def mutate(doc: dict, where: str, k: int, f: int, swap: int | None) -> None:
    entries = doc.get(where)
    if where == "rects" and isinstance(entries, list):   # only raw rects are read back
        entries = [e for e in entries if e.get("src") == "raw"] or entries
    if not (isinstance(entries, list) and entries and entries[k % len(entries)]):
        if swap is None:
            doc.pop(where, None)
        else:
            doc[where] = copy.deepcopy(SWAPS[swap])
        return
    entry = entries[k % len(entries)]
    key = sorted(entry)[f % len(entry)]
    if swap is None:
        del entry[key]
    else:
        entry[key] = copy.deepcopy(SWAPS[swap])


@FUZZ
@seed(26)
@given(mutations=st.lists(mutation, min_size=1, max_size=3))
@example(mutations=[("pins", 0, 0, SWAPS.index(-1))])   # an integer pin name breaks the pin sort
def test_layout_json_rebuild_fails_only_with_layout_errors(dac2, finfet, mutations):
    doc = json.loads(dac2[1])
    for m in mutations:
        mutate(doc, *m)
    try:
        d = document_to_design(read_layout_json(json.dumps(doc)), finfet)
        write_layout_json(d)
        write_gds(d)
    except LayoutError:
        pass


# The fields the rebuild reads of an entry of each section, in the order it
# reads them; of the rects, only the raw ones are read.
READ = {
    "instances": ("master", "params", "origin", "transform"),
    "wires": ("layer", "axis", "track", "lo", "hi", "width", "is_pin", "net", "color"),
    "vias": ("via", "pos"),
    "pins": ("name", "net", "wire"),
    "rects": ("src", "layer", "bbox", "purpose"),
}
BAD = (2.5, [0.5])   # values that no field of the schema takes


def rebuild_error(doc: dict, tech) -> str:
    with pytest.raises(ValidationError) as info:
        document_to_design(read_layout_json(json.dumps(doc)), tech)
    return str(info.value)


@FUZZ
@seed(27)
@given(
    section=st.sampled_from(sorted(READ)),
    damage=st.lists(st.tuples(st.integers(0, 1 << 10), st.integers(0, 8),
                              st.one_of(st.none(), st.sampled_from(BAD))), min_size=1, max_size=3),
)
def test_column_errors_match_entry_errors(dac2, finfet, section, damage):
    doc = json.loads(dac2[1])
    entries = doc[section]
    ks = [k for k, e in enumerate(entries) if section != "rects" or e["src"] == "raw"]
    fields = READ[section]
    final = {}   # (entry index, field) -> None when deleted, else the bad value
    for k, f, bad in damage:
        k, f = ks[k % len(ks)], fields[f % len(fields)]
        if f == "src":
            bad = None   # any `src` but "raw" makes the rect a derived one
        final[k, f] = bad
        if bad is None:
            entries[k].pop(f, None)
        else:
            entries[k][f] = bad
    k0 = min(k for k, _ in final)
    f0 = next(f for f in fields if (k0, f) in final)
    got = rebuild_error(doc, finfet)
    if final[k0, f0] is None:
        assert got == f"{section}[{k0}]: missing field '{f0}'"
    else:
        assert got.startswith(f"{section}[{k0}].{f0}: must be ")
    with pytest.MonkeyPatch.context() as mp:   # every section read entry by entry
        for module in (errors, layoutjson):
            mp.setattr(module, "read_columns", lambda entries, fields: None)
        assert rebuild_error(doc, finfet) == got
