"""The value records are tuples; `Wire` is the one mutable record.

Every record class the package exports, and the GDS model, is a tuple
subclass: it equals, hashes, unpacks and sorts like the tuple of its items,
and none of its fields can be set. `_replace` builds a new record, so a value
a record derives from its items (a via's pads) follows the new items, and a
record whose constructor checks its items checks the new ones too. `Wire`
keeps the constructor, checks, field-wise equality, unhashability and repr
text of a plain record class.
"""

import copy
import pickle
import re

import pytest

import gridlay
from gridlay import gds
from gridlay.design import Violation, Wire
from gridlay.flow import FlowFlags, run_flow
from gridlay.geometry import Point, Rect, Transform
from gridlay.grid import (
    CircularMapping,
    CircularMappingArray,
    IndexWindow,
    OneDimGrid,
    RoutingGrid,
    Track,
    TrackSpec,
)
from gridlay.layoutjson import design_to_document
from gridlay.tech import ViaDef
from gridlay.template import PinDef, VirtualInstance

# The exported classes that are not tuples.
NOT_RECORDS = {"Design", "Wire", "CircularMapping", "CircularMappingArray", "Transform"}
GDS_RECORDS = ("Boundary", "Sref", "Text", "Structure", "Library")


def exported_classes():
    return {
        name: obj for name, obj in vars(gridlay).items()
        if isinstance(obj, type) and not issubclass(obj, Exception)
    }


def samples(tech) -> dict:
    """One instance of every record class, by class name."""
    d = run_flow("dac", {"bits": 2}, tech)
    vi = d.instances[0]
    lib = gds.read_library(gds.write_gds(d))
    top = lib.structures[-1]
    out = {
        "Point": vi.origin,
        "Rect": d.rects[0],
        "Violation": Violation("m1", d.rects[0], d.rects[1], 4),
        "PlacedVia": d.vias[0],
        "Pin": d.pins[0],
        "FlowFlags": FlowFlags(),
        "GridSpec": tech.grid_spec("sig"),
        "TrackSpec": tech.grid_spec("sig").xtracks[0],
        "IndexWindow": IndexWindow(0, 1, 0, 1),
        "OneDimGrid": d.pgrid.xgrid,
        "PlacementGrid": d.pgrid,
        "RoutingGrid": d.rgrid,
        "Track": d.rgrid.xtracks.get(0),
        "LayoutDocument": design_to_document(d),
        "CutRule": tech.layer("m1").cut,
        "LayerDef": tech.layer("m1"),
        "TechDB": tech,
        "ViaDef": next(iter(tech.vias.values())),
        "ParamSpec": tech.template("mos").schema["nf"],
        "PinDef": vi.pins["g"],
        "SubElement": vi.subelements[0],
        "Template": tech.template("mos"),
        "VirtualInstance": vi,
        "Library": lib,
        "Structure": top,
    }
    for cls in (gds.Boundary, gds.Sref, gds.Text):
        out[cls.__name__] = next(e for e in top.elements if type(e) is cls)
    return out


def test_every_exported_class_but_the_named_ones_is_a_tuple():
    classes = exported_classes()
    assert NOT_RECORDS <= set(classes)
    assert [name for name, cls in classes.items()
            if name not in NOT_RECORDS and not issubclass(cls, tuple)] == []


def test_every_record_is_a_tuple_whose_fields_cannot_be_set(finfet):
    objs = samples(finfet)
    assert set(objs) == set(exported_classes()) - NOT_RECORDS | set(GDS_RECORDS)
    for name, obj in objs.items():
        assert type(obj).__name__ == name
        assert isinstance(obj, tuple), name
        assert tuple(obj) == tuple(getattr(obj, f) for f in obj._fields), name
        for field in obj._fields:
            with pytest.raises(AttributeError):
                setattr(obj, field, getattr(obj, field))


def routing_grid() -> RoutingGrid:
    axis = OneDimGrid(100, (0, 40, 85))
    return RoutingGrid("t", axis, axis, CircularMapping([Track("m1", 20)] * 3),
                       CircularMapping([Track("m2", 30)] * 3),
                       CircularMappingArray([[None] * 3] * 3))


def instance(size: Point) -> VirtualInstance:
    pin = PinDef(Rect("m1", Point(5, 5), Point(15, 8), "pin"))
    return VirtualInstance("t", {}, Point(0, 0), Transform.R0, size, (), {"a": pin})


# A checked record, a `_replace` its constructor rejects, and the error.
REPLACED = {
    "OneDimGrid": (lambda: OneDimGrid(100, (0,))._replace(period=0),
                   "grid period must be positive"),
    "TrackSpec": (lambda: TrackSpec("m1")._replace(wmul=0), "wmul must be >= 1"),
    "Track": (lambda: Track("m1", 20)._replace(width=0), "track widths must be positive"),
    "RoutingGrid": (lambda: routing_grid()._replace(
        xtracks=CircularMapping([Track("m1", 20)] * 2)), "track records do not match their axes"),
    "VirtualInstance": (lambda: instance(Point(20, 20))._replace(size=Point(10, 10)),
                        "instance t: pin a outside bbox"),
}


@pytest.mark.parametrize("name", REPLACED)
def test_replace_runs_the_constructor_checks(name):
    build, message = REPLACED[name]
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_replace_builds_the_record_it_names():
    assert OneDimGrid(100, (0,))._replace(period=50) == OneDimGrid(50, (0,))
    vi = instance(Point(20, 20))
    moved = vi._replace(origin=Point(5, 0))
    assert moved == vi.at(Point(5, 0), Transform.R0)
    assert moved._local is not vi._local  # a fresh cache, unlike at()


def test_via_pads_follow_replace(finfet):
    v = next(iter(finfet.vias.values()))
    assert v.rects  # built before the copy
    moved = v._replace(cut_size=(9, 9))
    fresh = ViaDef(**{**v._asdict(), "cut_size": (9, 9)})
    assert moved.rects == fresh.rects != v.rects
    assert moved.rects[0].width == moved.rects[0].height == 9


def test_wire_keyword_construction_and_defaults():
    w = Wire(layer="m1", axis="v", track=7, lo=0, hi=30, width=20)
    assert (w.layer, w.axis, w.track, w.lo, w.hi, w.width) == ("m1", "v", 7, 0, 30, 20)
    assert (w.is_pin, w.net, w.color) == (False, None, None)
    assert Wire("m1", "v", 7, 0, 30, 20, True, "n", "A").color == "A"


def test_wire_swaps_lo_and_hi():
    w = Wire("m1", "h", 100, 30, -10, 20)
    assert (w.lo, w.hi, w.length) == (-10, 30, 40)


@pytest.mark.parametrize("axis,width,message", [
    ("x", 20, "bad wire axis 'x'"), ("h", 0, "wire width must be positive"),
])
def test_wire_rejects_bad_axis_and_width(axis, width, message):
    with pytest.raises(ValueError, match=message):
        Wire("m1", axis, 0, 0, 10, width)


def test_wire_equality_is_field_wise_and_wires_are_unhashable():
    a = Wire("m1", "h", 0, 0, 10, 20)
    b = Wire("m1", "h", 0, 10, 0, 20)
    assert a == b and a is not b
    b.color = "A"
    assert a != b
    assert a != ("m1", "h", 0, 0, 10, 20, False, None, None)  # not a tuple
    with pytest.raises(TypeError):
        hash(a)


def test_rect_copies_and_pickles_through_its_constructor():
    r = Rect("m1", Point(5, 6), Point(1, 2), "pin")
    for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(twin) is Rect and twin == r


def test_circular_mappings_hash_by_their_items():
    assert hash(CircularMapping([1, 2, 3])) == hash(CircularMapping((1, 2, 3)))
    assert {CircularMapping([1, 2]): 0} == {CircularMapping((1, 2)): 0}


def test_wire_repr_is_the_field_listing():
    w = Wire("m1", "h", 100, 30, -10, 20, net="a")
    assert repr(w) == ("Wire(layer='m1', axis='h', track=100, lo=-10, hi=30, width=20, "
                       "is_pin=False, net='a', color=None)")
