import json
from importlib import resources

import pytest

from gridlay.design import check_all
from gridlay.errors import BadParams, FlowError, UnknownGenerator
from gridlay.flow import FlowFlags, run_flow
from gridlay.gds import write_gds
from gridlay.generators import Generator, generator_specs, get_generator
from gridlay.grid import OneDimGrid, PlacementGrid
from gridlay.layoutjson import design_to_document, write_layout_json
from gridlay.tech import load_tech
from gridlay.template import generate


def units_of(d, master):
    return [vi for vi in d.instances if vi.master == master]


def assert_routed_under(d, pin, rail_y: int) -> None:
    """One vertical wire sits at the pin's x centre, spans the pin and reaches
    the rail at rail_y, with a via there."""
    x = (pin.x0 + pin.x1) // 2
    (w,) = [w for w in d.wires if w.axis == "v" and w.track == x]
    assert w.lo <= pin.y1 and pin.y0 <= w.hi, (pin, w)
    assert w.lo <= rail_y <= w.hi, (x, rail_y, w)
    assert (x, rail_y) in {tuple(v.pos) for v in d.vias}


# -- registry -----------------------------------------------------------------

def test_registry():
    assert [name for name, _doc in generator_specs()] == ["dac", "scan"]
    with pytest.raises(UnknownGenerator):
        get_generator("opamp")


# -- dac ---------------------------------------------------------------------

@pytest.mark.parametrize("bits,count", [(1, 2), (2, 4), (4, 16)])
def test_dac_unit_count(finfet, bits, count):
    d = run_flow("dac", {"bits": bits}, finfet)
    assert len(units_of(d, "mos")) == count == 2 ** bits


def test_dac_pins(finfet):
    d = run_flow("dac", {"bits": 3}, finfet)
    assert sorted(p.name for p in d.pins) == ["b0", "b1", "b2", "out", "vss"]
    vss = next(p for p in d.pins if p.name == "vss")
    # the vss rail runs on the generated power track: doubled width
    assert vss.wire.width == 2 * finfet.layer("m2").min_width


@pytest.mark.parametrize("tech", ["finfet", "planar"])
@pytest.mark.parametrize("bits", range(1, 9))
def test_each_dac_unit_routes_under_its_own_pins(request, tech, bits):
    # an oracle from each placed unit's own pin_abs, not the master's pins
    d = run_flow("dac", {"bits": bits}, request.getfixturevalue(tech))
    rail = {p.name: p.wire.track for p in d.pins}
    units = units_of(d, "mos")
    assert len(units) == 2 ** bits
    for k, unit in enumerate(units):
        gate_rail = rail["out"] if k == 0 else rail[f"b{k.bit_length() - 1}"]
        assert_routed_under(d, unit.pin_abs("g"), gate_rail)
        assert_routed_under(d, unit.pin_abs("s"), rail["vss"])
    assert sum(w.axis == "v" for w in d.wires) == 2 * len(units)


def test_dac_on_a_grid_without_signal_y_tracks_names_the_grid():
    doc = json.loads(resources.files("gridlay").joinpath("techs/mock_finfet.json").read_text())
    for t in doc["grids"]["sig"]["ytracks"]:
        t["kind"] = "power"
    with pytest.raises(FlowError, match=r"^routing: grid sig has no signal track$"):
        run_flow("dac", {"bits": 2}, load_tech(json.dumps(doc)))


def test_dac_bad_params(finfet):
    with pytest.raises(BadParams):
        run_flow("dac", {"bits": 9}, finfet)
    with pytest.raises(BadParams):
        run_flow("dac", {"bits": 0}, finfet)
    with pytest.raises(BadParams):
        run_flow("dac", {"bitz": 1}, finfet)


# -- scan ---------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 4, 8])
def test_scan_cell_count(finfet, n):
    d = run_flow("scan", {"n_bits": n}, finfet)
    assert len(units_of(d, "scan_bit")) == n


def test_scan_pins_exposed(finfet):
    d = run_flow("scan", {"n_bits": 1}, finfet)
    assert {p.name for p in d.pins} == {"clk", "scan_in", "scan_out"}


def test_scan_abutment_chain(finfet):
    d = run_flow("scan", {"n_bits": 8}, finfet)
    cells = units_of(d, "scan_bit")
    assert len(cells) == 8
    for a, b in zip(cells, cells[1:]):
        out = a.pin_abs("scan_out")
        nxt = b.pin_abs("scan_in")
        # abutting pins coincide on the shared edge
        assert out.hi.x == nxt.lo.x
        assert (out.lo.y, out.hi.y) == (nxt.lo.y, nxt.hi.y)


def test_scan_levelshift_block(finfet):
    plain = run_flow("scan", {"n_bits": 2}, finfet)
    shifted = run_flow("scan", {"n_bits": 2, "with_levelshift": True}, finfet)
    pw = units_of(plain, "scan_bit")[0].size.x
    sw = units_of(shifted, "scan_bit")[0].size.x
    assert sw > pw
    assert len(units_of(shifted, "scan_bit")[0].subelements) == 2
    # the chain still abuts through the level-shift block
    cells = units_of(shifted, "scan_bit")
    assert cells[0].pin_abs("scan_out").hi.x == cells[1].pin_abs("scan_in").lo.x


@pytest.mark.parametrize("tech", ["finfet", "planar"])
@pytest.mark.parametrize("levelshift", [False, True])
@pytest.mark.parametrize("n", [1, 8, 64])
def test_each_scan_cell_clocks_under_its_own_pin(request, tech, n, levelshift):
    d = run_flow("scan", {"n_bits": n, "with_levelshift": levelshift},
                 request.getfixturevalue(tech))
    clk = next(p.wire for p in d.pins if p.name == "clk")
    cells = units_of(d, "scan_bit")
    assert len(cells) == n
    for cell in cells:
        assert_routed_under(d, cell.pin_abs("clk"), clk.track)
    assert sum(w.axis == "v" for w in d.wires) == n


def test_scan_bad_params(finfet):
    with pytest.raises(BadParams):
        run_flow("scan", {"n_bits": 0}, finfet)


# -- portability ----------------------------------------------------------------

@pytest.mark.parametrize("gen,params", [
    ("dac", {"bits": 1}),
    ("dac", {"bits": 3}),
    ("scan", {"n_bits": 4}),
    ("scan", {"n_bits": 2, "with_levelshift": True}),
])
def test_generators_portable_and_clean(finfet, planar, gen, params):
    for tech in (finfet, planar):
        d = run_flow(gen, params, tech)
        assert check_all(d) == [], (tech.name, gen, params)


def test_cuts_only_under_cut_capable_tech(finfet, planar):
    for gen, params in (("dac", {"bits": 2}), ("scan", {"n_bits": 3})):
        df = run_flow(gen, params, finfet)
        dp = run_flow(gen, params, planar)
        assert sum(1 for r in df.rects if r.purpose == "cut") > 0
        assert sum(1 for r in dp.rects if r.purpose == "cut") == 0


def test_colors_only_under_colorable_tech(finfet, planar):
    df = run_flow("dac", {"bits": 2}, finfet)
    dp = run_flow("dac", {"bits": 2}, planar)
    assert any(w.color for w in df.wires)
    assert not any(w.color for w in dp.wires)


def test_repeat_runs_identical_bytes(finfet, planar):
    for tech in (finfet, planar):
        for gen, params in (("dac", {"bits": 2}), ("scan", {"n_bits": 2})):
            a = run_flow(gen, params, tech)
            b = run_flow(gen, params, tech)
            assert write_layout_json(a) == write_layout_json(b)
            assert write_gds(a) == write_gds(b)


def test_instance_records_reference_templates(finfet):
    # every instance master must be regenerable from the tech database
    d = run_flow("scan", {"n_bits": 2}, finfet)
    doc = design_to_document(d)
    for e in doc.data["instances"]:
        assert e["master"] in finfet.templates


class EveryOtherSite(Generator):
    """`n` mos cells on every other site of one row: the row keeps n - 1 free sites."""

    name = "every_other_site"

    def build_instances(self, d):
        self.cell = generate(d.tech.template("mos"), {"nf": 1}, d.tech)

    def place_instances(self, d):
        d.pgrid = PlacementGrid(OneDimGrid(self.cell.size.x, (0,)), OneDimGrid(self.cell.size.y, (0,)))
        for k in range(self.params["n"]):
            d.place(self.cell, d.pgrid, (2 * k, 0))

    def route_wires(self, d):
        pass

    def add_pins(self, d):
        pass


@pytest.mark.parametrize("tech", ["finfet", "planar"])
@pytest.mark.parametrize("n", [2, 5])
def test_run_flow_fills_the_free_sites_with_dummies(request, tech, n):
    tech = request.getfixturevalue(tech)
    d = run_flow(EveryOtherSite({"n": n}), {}, tech)
    w = d.instances[0].size.x
    dummies = sorted(vi.origin.x for vi in units_of(d, "dummy"))
    assert dummies == [(2 * k + 1) * w for k in range(n - 1)]
    assert all(vi.origin.y == 0 for vi in d.instances)

    bare = run_flow(EveryOtherSite({"n": n}), {}, tech, FlowFlags(dummies=False))
    assert [vi.master for vi in bare.instances] == ["mos"] * n
