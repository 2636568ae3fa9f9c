"""Via geometry against the rule in SCHEMAS.md, for every via of both bundled
techs and of a synthetic tech with odd cut sizes and a missing enclosure.

The pad on layer L is `cut_size + 2 * enclosure[L]` (0 without an entry) in
both axes, and cut and pads sit at `center - cut_size // 2` grown by the
enclosure. The oracle below works from the raw fields and checks the three
places that use the pads: the rows a placed via adds to a design, the via end
of a routed wire, and the track pitch of a generated grid.
"""

import json

import pytest

from gridlay.design import Design, PlacedVia
from gridlay.geometry import Point, Rect
from gridlay.grid import GridSpec, TrackSpec, generate_routing_grid
from gridlay.tech import load_tech, load_tech_file

BIG = Rect("", Point(0, 0), Point(1 << 20, 1 << 20))

ODD = {
    "name": "odd",
    "layers": [
        {"name": "m1", "gds": [1, 0], "min_width": 10, "min_spacing": 12},
        {"name": "m2", "gds": [2, 0], "min_width": 14, "min_spacing": 9},
        {"name": "m3", "gds": [3, 0], "min_width": 7, "min_spacing": 11},
        {"name": "via1", "gds": [4, 0], "min_width": 5, "min_spacing": 5},
        {"name": "via2", "gds": [5, 0], "min_width": 5, "min_spacing": 5},
    ],
    "vias": [
        {"name": "v12", "lower": "m1", "upper": "m2", "cut_layer": "via1",
         "cut_size": [15, 9], "enclosure": {"m1": 3}},
        {"name": "v23", "lower": "m2", "upper": "m3", "cut_layer": "via2",
         "cut_size": [7, 11], "enclosure": {"m3": 5}},
    ],
}


@pytest.fixture(scope="module", params=["mock_planar", "mock_finfet", "odd"])
def tech(request):
    if request.param == "odd":
        return load_tech(json.dumps(ODD))
    return load_tech_file(request.param)


def oracle_box(via, layer, center):
    """Cut (layer None) or landing pad on `layer`, as (x0, y0, x1, y1)."""
    cw, ch = via.cut_size
    e = 0 if layer is None else via.enclosure.get(layer, 0)
    x0 = center[0] - cw // 2 - e
    y0 = center[1] - ch // 2 - e
    return x0, y0, x0 + cw + 2 * e, y0 + ch + 2 * e


@pytest.mark.parametrize("center", [(0, 0), (101, -37), (-5, 8)])
def test_via_rects_match_the_rule(tech, center):
    for via in tech.vias.values():
        d = Design("t", tech)
        d.vias.append(PlacedVia(via.name, Point(*center)))
        rows = list(d.own_rows())
        assert [(r[0], r[5], r[6]) for r in rows] == [
            (via.cut_layer, "drawing", "via"), (via.lower, "drawing", "via"),
            (via.upper, "drawing", "via"),
        ]
        assert [r[1:5] for r in rows] == [
            oracle_box(via, None, center),
            oracle_box(via, via.lower, center),
            oracle_box(via, via.upper, center),
        ]


def oracle_pitch(tech, layer, across):
    """Track pitch of a single-track cycle on `layer`; `across` is the axis
    (0 = x, 1 = y) perpendicular to the track."""
    spacing = tech.layer(layer).min_spacing
    pitch = tech.layer(layer).min_width + spacing
    for via in tech.vias.values():
        if layer in (via.lower, via.upper):
            pitch = max(pitch, via.cut_size[across] + 2 * via.enclosure.get(layer, 0) + spacing)
    return pitch + pitch % 2


@pytest.mark.parametrize("flip", [False, True])
def test_routed_via_ends_and_track_pitch_match_the_rule(tech, flip):
    for via in tech.vias.values():
        vlayer, hlayer = (via.upper, via.lower) if flip else (via.lower, via.upper)
        g = generate_routing_grid(tech, GridSpec("g", (TrackSpec(vlayer),), (TrackSpec(hlayer),)), BIG)
        assert g.xgrid.period == oracle_pitch(tech, vlayer, 0)
        assert g.ygrid.period == oracle_pitch(tech, hlayer, 1)

        # Up track x=0 from y=0 to y=2, a via, then right to x=3.
        d = Design("t", tech)
        up, right = d.route(g, [(0, 0), (0, 2), (3, 2)])
        assert [v.via for v in d.vias] == [via.name]
        center = (g.xgrid.phys(0), g.ygrid.phys(2))
        assert d.vias[0].pos == Point(*center)
        vw, hw = tech.layer(vlayer).min_width, tech.layer(hlayer).min_width
        # The via end reaches as far past the center as the pad's low side
        # lies below it (or a square cap, if that is longer).
        v_pad_below = center[1] - oracle_box(via, vlayer, center)[1]
        h_pad_left = center[0] - oracle_box(via, hlayer, center)[0]
        assert (up.lo, up.hi) == (g.ygrid.phys(0) - vw // 2, center[1] + max(vw // 2, v_pad_below))
        assert (right.lo, right.hi) == (center[0] - max(hw // 2, h_pad_left), g.xgrid.phys(3) + hw // 2)
