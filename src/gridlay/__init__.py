"""gridlay: procedural IC layout generation.

Templates instantiate into virtual instances placed by exact integer
transform algebra; routing grids are generated on demand from track patterns;
post-processing handles cut patterns, minimum-area extension, patterning
colors, and dummy fill; designs export to GDSII, canonical JSON, and SVG.
"""

from .design import Design, Pin, PlacedVia, Violation, Wire, check_all, check_spacing
from .errors import (
    BadParams,
    DuplicatePin,
    FlowError,
    GdsOverflow,
    InfeasibleSpec,
    LayoutError,
    MissingVia,
    NoCutRule,
    NoDummyTemplate,
    NonRectilinear,
    NotColorable,
    NotOnGrid,
    ParseError,
    UnknownGenerator,
    UnknownLayer,
    UnknownPin,
    UnknownWire,
    ValidationError,
)
from .flow import FlowFlags, run_flow
from .gds import read_library, write_gds, write_library
from .geometry import Point, Rect, Transform, apply, apply_rect, compose
from .grid import (
    CircularMapping,
    CircularMappingArray,
    GridSpec,
    IndexWindow,
    OneDimGrid,
    PlacementGrid,
    RoutingGrid,
    Track,
    TrackSpec,
    generate_routing_grid,
    overlap_range,
)
from .layoutjson import (
    LayoutDocument,
    design_to_document,
    document_to_design,
    read_layout_json,
    write_layout_json,
)
from .postprocess import (
    assign_colors,
    cut_pattern_gen,
    extend_min_area,
    fill_dummies,
)
from .svg import write_svg
from .tech import CutRule, LayerDef, TechDB, ViaDef, load_tech, load_tech_file
from .template import (
    ParamSpec,
    PinDef,
    SubElement,
    Template,
    VirtualInstance,
    array_of,
    generate,
)

__version__ = "0.1.0"
