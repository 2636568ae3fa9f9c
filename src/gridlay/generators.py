"""Parameterized design generators and their registry.

Each generator is a staged builder: instance generation, placement, grid
generation, routing, pinning. The stages only talk to the technology through
templates, rule queries, and named grid specs, which is what lets the same
generator run unmodified on every shipped technology. The cells are geometric
stand-ins with correct connectivity topology; electrical behavior is out of
scope.
"""

from __future__ import annotations

from .design import Design, Wire
from .errors import UnknownGenerator
from .geometry import Rect
from .grid import GridSpec, OneDimGrid, PlacementGrid, generate_routing_grid
from .template import ParamSpec, VirtualInstance, generate, param_tokens

REGISTRY: dict[str, type["Generator"]] = {}


def register(cls: type["Generator"]) -> type["Generator"]:
    if cls.name in REGISTRY:
        raise ValueError(f"generator {cls.name!r} already registered")
    REGISTRY[cls.name] = cls
    return cls


def get_generator(name: str) -> type["Generator"]:
    cls = REGISTRY.get(name)
    if cls is None:
        raise UnknownGenerator(
            f"no generator {name!r}; known: {', '.join(sorted(REGISTRY))}"
        )
    return cls


def generator_specs() -> list[tuple[str, str]]:
    """(name, doc line) for every registered generator, sorted by name."""
    return [(name, REGISTRY[name].doc) for name in sorted(REGISTRY)]


class Generator:
    """Base class: subclasses define name/doc/schema and the five stages."""

    name = ""
    doc = ""
    schema: dict[str, ParamSpec] = {}

    def __init__(self, params: dict):
        self.params = params

    def design_name(self) -> str:
        return "_".join([self.name, *param_tokens(self.params)])

    def build_instances(self, d: Design) -> None:
        raise NotImplementedError

    def place_instances(self, d: Design) -> None:
        raise NotImplementedError

    def make_grids(self, d: Design) -> None:
        lo, hi = d.instance_bbox()
        d.rgrid = generate_routing_grid(d.tech, d.tech.grid_spec("sig"), Rect("", lo, hi))

    def route_wires(self, d: Design) -> None:
        raise NotImplementedError

    def add_pins(self, d: Design) -> None:
        raise NotImplementedError


def _row_placement_grid(unit: VirtualInstance) -> PlacementGrid:
    return PlacementGrid(
        OneDimGrid(unit.size.x, (0,)),
        OneDimGrid(unit.size.y, (0,)),
    )


def _signal_track(spec: GridSpec, n: int) -> int:
    """Abstract y index of the n-th signal track, skipping power tracks."""
    kinds = [t.kind for t in spec.ytracks]
    positions = [i for i, k in enumerate(kinds) if k == "signal"]
    if not positions:
        raise ValueError(f"grid {spec.name} has no signal track")
    per = len(positions)
    return len(kinds) * (n // per) + positions[n % per]


def _pin_centre_x(master: VirtualInstance, pin: str) -> int:
    """x centre of a pin of `master`, relative to its origin."""
    r = master.pin_abs(pin)
    return (r.x0 + r.x1) // 2 - master.origin.x


def _power_track(spec: GridSpec) -> int:
    for i, t in enumerate(spec.ytracks):
        if t.kind == "power":
            return i
    raise ValueError(f"grid {spec.name} has no power track")


@register
class DacGenerator(Generator):
    """Binary-weighted current-source array."""

    name = "dac"
    doc = "binary-weighted unit-cell array with per-bit rails (bits=1..8)"
    schema = {"bits": ParamSpec("int", default=2, min=1, max=8)}

    def build_instances(self, d: Design) -> None:
        self.unit = generate(d.tech.template("mos"), {"nf": 1}, d.tech)

    def place_instances(self, d: Design) -> None:
        # 2^bits - 1 mirror units plus one reference unit, packed in a row
        n = 2 ** self.params["bits"]
        d.pgrid = _row_placement_grid(self.unit)
        self.units = [d.place(self.unit, d.pgrid, (k, 0)) for k in range(n)]

    def route_wires(self, d: Design) -> None:
        g = d.rgrid
        spec = d.tech.grid_spec(g.name)
        bits = self.params["bits"]
        n = 2 ** bits
        width = n * self.unit.size.x
        cycle = len(spec.ytracks)
        ix_hi = g.xgrid.index_where("<=", width)

        # Rails sit in the first full track cycle above the cell row: the
        # output rail on signal track 0, bit j's rail on signal track j + 1.
        base = cycle * -(-self.unit.size.y // g.ygrid.period)
        rails = [base + _signal_track(spec, j) for j in range(bits + 1)]
        vss_idx = base + _power_track(spec)
        self.rail_out = d.route(g, [(0, rails[0]), (ix_hi, rails[0])])[0]
        self.rail_bits = [d.route(g, [(0, y), (ix_hi, y)])[0] for y in rails[1:]]
        self.rail_vss = d.route(g, [(0, vss_idx), (ix_hi, vss_idx)])[0]

        # Every unit is an R0 copy of the master, so a unit's pin centre is
        # the master's plus the unit's x origin.
        gate_c, src_c = _pin_centre_x(self.unit, "g"), _pin_centre_x(self.unit, "s")
        for k, unit in enumerate(self.units):
            x = unit.origin.x
            gate_x = g.xgrid.index_where("==", gate_c + x)
            src_x = g.xgrid.index_where("==", src_c + x)
            # unit 0, the reference unit, goes to the output rail; unit k to
            # the rail of bit k.bit_length() - 1
            target = rails[k.bit_length()]
            d.route(g, [(gate_x, 0), (gate_x, target)])
            d.add_via(g, (gate_x, target))
            d.route(g, [(src_x, 0), (src_x, vss_idx)])
            d.add_via(g, (src_x, vss_idx))

    def add_pins(self, d: Design) -> None:
        d.add_pin("out", "out", self.rail_out)
        for j, rail in enumerate(self.rail_bits):
            d.add_pin(f"b{j}", f"b{j}", rail)
        d.add_pin("vss", "vss", self.rail_vss)


@register
class ScanGenerator(Generator):
    """Abutted scan-bit chain with optional level shifting."""

    name = "scan"
    doc = "chained scan cells, scan_in/scan_out by abutment (n_bits>=1)"
    schema = {
        "n_bits": ParamSpec("int", default=1, min=1, max=64),
        "with_levelshift": ParamSpec("bool", default=False),
    }

    def build_instances(self, d: Design) -> None:
        self.cell = generate(
            d.tech.template("scan_bit"),
            {"with_levelshift": self.params["with_levelshift"]},
            d.tech,
        )

    def place_instances(self, d: Design) -> None:
        n = self.params["n_bits"]
        d.pgrid = _row_placement_grid(self.cell)
        self.cells = [d.place(self.cell, d.pgrid, (k, 0)) for k in range(n)]

    def route_wires(self, d: Design) -> None:
        g = d.rgrid
        width = self.params["n_bits"] * self.cell.size.x
        ix_hi = g.xgrid.index_where("<=", width)
        self.rail_clk = d.route(g, [(0, 0), (ix_hi, 0)])[0]
        clk_c = _pin_centre_x(self.cell, "clk")  # each cell is an R0 copy of the master
        for cell in self.cells:
            cx = g.xgrid.index_where("==", clk_c + cell.origin.x)
            d.route(g, [(cx, 0), (cx, 1)])
            d.add_via(g, (cx, 0))

    def _pin_wire(self, d: Design, rect: Rect) -> Wire:
        return d.add_wire(
            Wire(
                layer=rect.layer, axis="h",
                track=(rect.y0 + rect.y1) // 2,
                lo=rect.x0, hi=rect.x1, width=rect.height,
            )
        )

    def add_pins(self, d: Design) -> None:
        d.add_pin("clk", "clk", self.rail_clk)
        first = self.cells[0].pin_abs("scan_in")
        last = self.cells[-1].pin_abs("scan_out")
        d.add_pin("scan_in", "si", self._pin_wire(d, first))
        d.add_pin("scan_out", "so", self._pin_wire(d, last))
