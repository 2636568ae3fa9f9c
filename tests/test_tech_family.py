"""Metamorphic tests over a family of techs derived from the shipped ones.

Scaling every length of a tech by k (and `min_area` by k squared) must scale
every generated shape by k and keep the design clean. Every k from 2 to 5
holds exactly on both shipped techs for these cases (k up to 8 does too).
The integer roundings that could break it on another tech are the halvings
(wire boxes around their track, `pitch + pitch % 2` in the axis builder,
the cut-gap midpoint, an odd min-area extension split over both ends) and
the min-area target `ceil(min_area / width)`; none of them moves a row here.
"""

import json

import pytest

from gridlay.design import check_all
from gridlay.flow import run_flow
from gridlay.tech import load_tech

from techfamily import scaled, shipped

CASES = [
    ("dac", {"bits": 3}),
    ("scan", {"n_bits": 3}),
    ("scan", {"n_bits": 3, "with_levelshift": True}),
]


def times(rows, k: int) -> list:
    return [(layer, x0 * k, y0 * k, x1 * k, y1 * k, purpose, src)
            for layer, x0, y0, x1, y1, purpose, src in rows]


@pytest.mark.parametrize("name", ["mock_finfet", "mock_planar"])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_scaled_tech_scales_every_row(name, k):
    doc = shipped(name)
    base, big = load_tech(json.dumps(doc)), load_tech(json.dumps(scaled(doc, k)))
    for gen, params in CASES:
        d = run_flow(gen, params, big)
        assert list(d.iter_rows()) == times(run_flow(gen, params, base).iter_rows(), k), (gen, params)
        assert check_all(d) == [], (gen, params)


def test_scaling_keeps_every_non_length():
    doc = shipped("mock_finfet")
    big = scaled(doc, 3)
    assert big["unit_nm"] == doc["unit_nm"] and big["grids"] == doc["grids"]
    assert [e["gds"] for e in big["layers"]] == [e["gds"] for e in doc["layers"]]
    assert [e.get("colorable") for e in big["layers"]] == [e.get("colorable") for e in doc["layers"]]
    assert big["templates"]["mos"]["params"] == doc["templates"]["mos"]["params"]
    m1 = next(e for e in big["layers"] if e["name"] == "m1")
    assert (m1["min_width"], m1["min_area"], m1["cut"]["end_margin"]) == (60, 10800, 24)
