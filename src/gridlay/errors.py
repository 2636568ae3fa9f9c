"""Exception types raised by the layout engine, and the field readers the
tech and layout-JSON loaders check their input with."""

from typing import Any, Callable, Iterator, NamedTuple


class LayoutError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LayoutError):
    """A document could not be parsed at all (malformed JSON, bad GDS record)."""


class ValidationError(LayoutError):
    """A parsed document violates the schema; the message names the field."""


class Kind(NamedTuple):
    """What a JSON field must hold: a test for its value, and how errors say it."""

    test: Callable[[Any], bool]
    what: str


# JSON true/false are Python bools, which are ints: integer kinds test the exact type.
STR = Kind(lambda v: type(v) is str, "a string")
INT = Kind(lambda v: type(v) is int, "an integer")
POS_INT = Kind(lambda v: type(v) is int and v > 0, "a positive integer")
NONNEG_INT = Kind(lambda v: type(v) is int and v >= 0, "a non-negative integer")
BOOL = Kind(lambda v: type(v) is bool, "a boolean")
LIST = Kind(lambda v: type(v) is list, "an array")
OBJECT = Kind(lambda v: type(v) is dict, "an object")
INT_LIST = Kind(lambda v: type(v) is list and all(type(c) is int for c in v), "a list of integers")
# Unrolled: the layout reader checks one PAIR per instance and via, one QUAD per raw rect.
PAIR = Kind(lambda v: type(v) is list and len(v) == 2 and type(v[0]) is int and type(v[1]) is int,
            "a list of 2 integers")
QUAD = Kind(lambda v: type(v) is list and len(v) == 4 and type(v[0]) is int and type(v[1]) is int
            and type(v[2]) is int and type(v[3]) is int, "a list of 4 integers")


def one_of(*choices) -> Kind:
    return Kind(lambda v: v in choices, f"one of {list(choices)}")


def key_of(mapping, what: str) -> Kind:
    """A string naming an entry of `mapping`, such as a layer of a tech."""
    return Kind(lambda v: type(v) is str and v in mapping, what)


def or_null(kind: Kind) -> Kind:
    return Kind(lambda v: v is None or kind.test(v), f"{kind.what} or null")


_REQUIRED = object()


def _name(where: str, k: int | None) -> str:
    return where if k is None else f"{where}[{k}]"


def check(value, kind: Kind, where: str, k: int | None = None):
    """`value` if it is of `kind`; else a ValidationError naming it `where[k]`, or `where`."""
    if kind.test(value):
        return value
    raise ValidationError(f"{_name(where, k)}: must be {kind.what}, got {value!r}")


def read(obj, key: str, kind: Kind, where: str, k: int | None = None, default=_REQUIRED):
    """Field `key` of the entry `obj` named `where` (or `where[k]`), checked
    against `kind`; `default` if absent and given. The name is formatted only
    when a check fails, so reading a valid document formats no strings.
    """
    try:
        value = obj.get(key, _REQUIRED)
    except AttributeError:
        return check(obj, OBJECT, where, k)  # raises: the entry is no JSON object
    if kind.test(value):
        return value
    if value is _REQUIRED:
        if default is not _REQUIRED:
            return default
        raise ValidationError(f"{_name(where, k)}: missing field {key!r}")
    raise ValidationError(f"{_name(where, k)}.{key}: must be {kind.what}, got {value!r}")


def read_fields(obj, fields, where: str, k: int | None = None) -> list:
    """The values of the required (key, kind) `fields` of entry `obj`, checked
    as `read` checks them: one call per entry in the loops over a large document.
    """
    try:
        get = obj.get
    except AttributeError:
        return check(obj, OBJECT, where, k)  # raises: the entry is no JSON object
    values = []
    for key, kind in fields:
        value = get(key, _REQUIRED)
        if not kind.test(value):
            read(obj, key, kind, where, k)  # raises, naming the field
        values.append(value)
    return values


def read_columns(entries: list, fields) -> Iterator[tuple] | None:
    """The values of the required (key, kind) `fields` of each object in
    `entries`, checked one field over the whole list at a time; None when some
    entry is no object, lacks a field or holds a value not of its kind.
    """
    try:
        columns = [[e[key] for e in entries] for key, _ in fields]
    except (KeyError, TypeError):  # some entry lacks the field, or is no object
        return None
    for (_, kind), column in zip(fields, columns):
        if not all(map(kind.test, column)):
            return None
    return zip(*columns)


def read_section(entries: list, fields, where: str) -> Iterator:
    """The values of `fields` of each entry of the list named `where`, as
    `read_fields` reads them. The list is checked column by column, and its
    entries are read one by one only when a column fails, so the error names
    the first entry at fault in list order and its first bad field.
    """
    rows = read_columns(entries, fields)
    if rows is None:
        return (read_fields(e, fields, where, k) for k, e in enumerate(entries))
    return rows


class UnknownLayer(LayoutError):
    pass


class UnknownPin(LayoutError):
    pass


class UnknownWire(LayoutError):
    pass


class UnknownGenerator(LayoutError):
    pass


class DuplicatePin(LayoutError):
    pass


class NotOnGrid(LayoutError):
    """An exact reverse-mapping query hit a coordinate between grid lines."""


class InfeasibleSpec(LayoutError):
    """A grid spec cannot be realized (empty pattern, or cycle larger than the region)."""


class BadParams(LayoutError):
    """Template or generator parameters violate their schema."""


class NonRectilinear(LayoutError):
    """Consecutive routing waypoints share neither a row nor a column."""


class MissingVia(LayoutError):
    """The grid's via map has no entry for a required track intersection."""


class NoCutRule(LayoutError):
    pass


class NotColorable(LayoutError):
    pass


class NoDummyTemplate(LayoutError):
    pass


class GdsOverflow(LayoutError):
    """A coordinate does not fit the 32-bit range of the GDSII stream format."""


class FlowError(LayoutError):
    """An error raised inside a generation stage, annotated with the stage name."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage
        self.cause = cause
