"""ODD specification model: class hierarchy, interval-bounded attributes,
and discretization of raw sensor readings.

An ODD (operational design domain) spec is a tree of classes. A leaf class
describes one measurable operating condition (rain intensity, fog visibility,
ego speed, ...) whose value range is carved into named attributes, each
bounded by an interval in the half-open bracket notation `[0.25, 0.77[`.
Discretizing a reading returns the attribute whose interval contains it, or
``OUT_OF_ODD`` when no interval does. Leaving the ODD is a first-class
result, not an error: the runtime monitor acts on it.

Each class with attributes is compiled once per spec into one lookup table,
``(points, labels)``: ``points`` is the class's sorted distinct finite
interval endpoints followed by ``+inf``, and ``labels[i]`` is the pair
(label of the open gap just below ``points[i]``, label of ``points[i]``).
A label is an attribute name, OUT_OF_ODD, or the tuple of names whose
intervals overlap there. Discretizing a finite reading is one bisection and
one comparison; parsing, ``validate_odd``, ``discretize`` and the runtime
monitor's ``step`` read the same table.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Mapping, NamedTuple, Union

from . import _base


class OddModelError(_base.ModelError):
    """Base class for ODD spec errors."""


class DocumentError(OddModelError, _base.DocumentError):
    """The document is structurally unreadable (not a schema-shaped object)."""


class MalformedInterval(OddModelError, _base.DocumentError):
    """Interval text does not match the bracket grammar."""


class EmptyInterval(OddModelError):
    """Interval bounds admit no value."""


class DuplicateName(OddModelError):
    pass


class UnknownParent(OddModelError):
    pass


class MalformedHierarchy(OddModelError):
    """Class parent links do not form a single-rooted tree."""


class OverlappingIntervals(OddModelError):
    pass


class EmptyClass(OddModelError):
    """A leaf class declares no attributes, so nothing can be discretized."""


class UnknownClass(OddModelError):
    pass


class AmbiguousState(OddModelError):
    """A value falls inside more than one attribute interval of a class."""


class NonFiniteReading(OddModelError):
    """A reading is NaN or infinite: a sensor defect, not an ODD exit."""


class OutOfOdd:
    """Singleton marker: a reading lies outside every interval of its class."""

    _instance = None

    def __new__(cls) -> "OutOfOdd":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "OutOfOdd"


OUT_OF_ODD = OutOfOdd()

#: A discretization result: an attribute name, or the out-of-ODD marker.
State = Union[str, OutOfOdd]


@dataclass(frozen=True)
class Interval:
    """A real interval with independently open or closed endpoints.

    Unbounded sides are stored as ``-inf`` / ``+inf`` and are always
    exclusive: an inclusive one, or a NaN bound, raises MalformedInterval.
    A degenerate point interval (``lo == hi``) is allowed only when both
    endpoints are inclusive; other bounds that admit no value raise
    EmptyInterval.
    """

    lo: float
    hi: float
    lo_inclusive: bool
    hi_inclusive: bool

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise MalformedInterval("interval bounds must not be NaN")
        if math.isinf(self.lo) and self.lo_inclusive:
            raise MalformedInterval("an unbounded low endpoint cannot be inclusive")
        if math.isinf(self.hi) and self.hi_inclusive:
            raise MalformedInterval("an unbounded high endpoint cannot be inclusive")
        if self.lo > self.hi:
            raise EmptyInterval(f"lo {self.lo} exceeds hi {self.hi}")
        if self.lo == self.hi and not (self.lo_inclusive and self.hi_inclusive):
            raise EmptyInterval(
                f"point interval at {self.lo} requires both endpoints inclusive"
            )

    def contains(self, value: float) -> bool:
        """Exact membership test; boundary comparisons carry no epsilon."""
        above = value >= self.lo if self.lo_inclusive else value > self.lo
        below = value <= self.hi if self.hi_inclusive else value < self.hi
        return above and below


_INTERVAL_RE = re.compile(r"\s*([\[\](])\s*([^,\s]+)\s*,\s*([^,\s]+)\s*([\[\])])\s*")


def _format_bound(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def parse_interval(text: str) -> Interval:
    """Parse bracket notation like ``[0.25, 0.77[`` into an :class:`Interval`.

    Bracket orientation encodes inclusivity: ``[a`` includes the low bound,
    ``a]`` includes the high bound, and the flipped forms exclude it. The
    ASCII spellings ``(a, b)`` are accepted as synonyms of ``]a, b[``.
    ``+`` as the high token means unbounded above, ``-`` as the low token
    unbounded below; an unbounded side must use an exclusive bracket.
    Whitespace may stand only around the brackets, the comma and each bound,
    and a bound is read by ``_base.number_text``. Text outside this grammar,
    or a bound that is not a finite number, raises MalformedInterval; bounds
    that admit no value raise EmptyInterval.
    """
    m = _INTERVAL_RE.fullmatch(text)
    if m is None:
        raise MalformedInterval(f"not an interval: {text!r}")
    open_b, lo_tok, hi_tok, close_b = m.groups()
    lo_inclusive = open_b == "["
    hi_inclusive = close_b == "]"

    try:
        lo = -math.inf if lo_tok == "-" else _base.number_text(lo_tok)
        hi = math.inf if hi_tok == "+" else _base.number_text(hi_tok)
    except ValueError as exc:
        raise MalformedInterval(f"bad bound in {text!r}: {exc}") from None
    return Interval(lo, hi, lo_inclusive, hi_inclusive)


def format_interval(interval: Interval) -> str:
    """Render an interval back to the bracket grammar accepted by
    :func:`parse_interval` (half-open spelling, never the paren form)."""
    open_b = "[" if interval.lo_inclusive else "]"
    close_b = "]" if interval.hi_inclusive else "["
    lo = "-" if math.isinf(interval.lo) else _format_bound(interval.lo)
    hi = "+" if math.isinf(interval.hi) else _format_bound(interval.hi)
    return f"{open_b}{lo}, {hi}{close_b}"


class OddAttribute(NamedTuple):
    """A named state of an ODD class, e.g. ``Rain_Moderate`` with its bounds."""

    name: str
    unit: str
    bounds: Interval


class OddClass(NamedTuple):
    name: str
    parent: str | None
    attributes: tuple[OddAttribute, ...]
    partition: bool = False


@dataclass(frozen=True)
class OddSpec:
    """Fully linked ODD specification. Immutable after parsing; all
    operations on it are pure and safe for concurrent readers. Parsing builds
    its lookup tables; a spec built by hand builds them on first use and
    keeps them, and readers that race to build them each get equal ones."""

    root: str
    classes: dict[str, OddClass]

    def children(self, name: str) -> tuple[str, ...]:
        return tuple(c.name for c in self.classes.values() if c.parent == name)

    @cached_property
    def _tables(self) -> dict[str, tuple[tuple[float, ...], tuple[tuple, ...]]]:
        """The ``(points, labels)`` table of every class with attributes."""
        return {name: _compile_class(cls) for name, cls in self.classes.items() if cls.attributes}


class Observation(NamedTuple):
    """One timestamped environment sample.

    ``readings`` maps leaf class names to raw measurements. The (x, y)
    location is carried for reporting but not interpreted.
    """

    time: float
    x: float
    y: float
    readings: Mapping[str, float]


class OddDefect(NamedTuple):
    kind: str
    class_name: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}({self.class_name}): {self.detail}"


class Interpretation(NamedTuple):
    """Per-class discretization of an observation.

    ``states`` holds the successful entries (attribute name or OUT_OF_ODD);
    entries that raised are collected in ``errors`` instead of aborting the
    whole observation. Both are required, so no two share a dict.
    """

    states: dict[str, State]
    errors: dict[str, OddModelError]


@_base.document_reader("ODD document", DocumentError)
def parse_odd_spec(document: Union[str, dict]) -> OddSpec:
    """Parse and validate an ODD spec document (JSON text or parsed object).

    The document schema is ``{"classes": [{name, parent, partition,
    attributes: [{name, unit, interval}]}]}`` with intervals in the string
    grammar of :func:`parse_interval`. Names, units, intervals and parents
    (but the root's null) must be JSON strings and ``partition`` a JSON
    boolean, else the document is malformed.
    Validation enforces unique names, a single-rooted parent tree, non-empty
    leaf classes, and pairwise disjoint intervals for classes flagged
    ``partition: true``.
    """
    scalar = _base.json_scalar
    classes: dict[str, OddClass] = {}
    for entry in document["classes"]:
        name = scalar(entry["name"], "class name")
        if name in classes:
            raise DuplicateName(f"class {name!r} declared twice")
        attrs = {}
        for attr in entry.get("attributes", []):
            attr_name = scalar(attr["name"], f"an attribute name of {name!r}")
            if attr_name in attrs:
                raise DuplicateName(f"attribute {attr_name!r} declared twice in {name!r}")
            unit = scalar(attr["unit"], f"the unit of {attr_name!r}")
            interval = scalar(attr["interval"], f"the interval of {attr_name!r}")
            attrs[attr_name] = OddAttribute(attr_name, unit, parse_interval(interval))
        parent = entry.get("parent")
        classes[name] = OddClass(
            name=name,
            parent=parent if parent is None else scalar(parent, f"the parent of {name!r}"),
            attributes=tuple(attrs.values()),
            partition=scalar(entry.get("partition", False), f"partition of {name!r}", bool),
        )

    roots = [c.name for c in classes.values() if c.parent is None]
    if len(roots) != 1:
        raise MalformedHierarchy(f"expected exactly one root class, found {roots}")
    for cls in classes.values():
        if cls.parent is not None and cls.parent not in classes:
            raise UnknownParent(f"class {cls.name!r} names unknown parent {cls.parent!r}")
    # With one root and every parent declared, the links form a tree unless
    # they hold a cycle: any other chain of parents ends at the root.
    _, cycle = _base.dag_order(
        {c.name: [] if c.parent is None else [c.parent] for c in classes.values()}
    )
    if cycle:
        raise MalformedHierarchy(f"cycle in parent links: {' -> '.join(map(repr, cycle))}")

    spec = OddSpec(root=roots[0], classes=classes)
    tables = spec._tables
    parents = {c.parent for c in classes.values()}
    for cls in classes.values():
        if cls.name not in parents and not cls.attributes:
            raise EmptyClass(f"leaf class {cls.name!r} has no attributes")
        if cls.partition and cls.attributes:
            for defect in _class_overlaps(cls, tables[cls.name]):
                raise OverlappingIntervals(str(defect))
    return spec


def _class_overlaps(cls: OddClass, table) -> list[OddDefect]:
    """One defect per pair of attributes that a label of the class table
    names together, in attribute order. The witness is the lowest table point
    both hold, else a finite value in the lowest gap they share, written in
    ``:g`` form unless that would round it."""
    points, labels = table
    witness: dict[tuple[str, str], float] = {}
    for at in (1, 0):  # the table points, then the gaps below them
        for lo, point, label in zip((-math.inf, *points), points, labels):
            if type(label[at]) is tuple:
                for pair in combinations(label[at], 2):
                    witness.setdefault(pair, point if at else _inside(lo, point))
    rank = {a.name: i for i, a in enumerate(cls.attributes)}
    defects = []
    for (a, b), value in sorted(witness.items(), key=lambda kv: [rank[n] for n in kv[0]]):
        text = f"{value:g}" if float(f"{value:g}") == value else repr(value)
        defects.append(OddDefect("OverlappingIntervals", cls.name,
                                 f"{a} and {b} both contain {text}"))
    return defects


def _inside(lo: float, hi: float) -> float:
    """A finite value in ``]lo, hi[``: the midpoint, or one in from the finite
    end (one float step where floats are spaced wider than 1)."""
    if lo == -math.inf:
        return 0.0 if hi == math.inf else hi - max(1.0, math.ulp(hi))
    return lo + max(1.0, math.ulp(lo)) if hi == math.inf else lo / 2 + hi / 2


def validate_odd(spec: OddSpec) -> list[OddDefect]:
    """Report interval overlaps in every class, partition-flagged or not.

    Partition classes are already rejected at parse time; running this on a
    parsed spec surfaces overlaps an author left in non-partition classes
    (e.g. two states sharing a boundary point).
    """
    return [defect for name, table in spec._tables.items()
            for defect in _class_overlaps(spec.classes[name], table)]


def _compile_class(cls: OddClass) -> tuple[tuple[float, ...], tuple[tuple, ...]]:
    bounds = [a.bounds for a in cls.attributes]
    points = (*sorted({x for b in bounds for x in (b.lo, b.hi) if math.isfinite(x)}), math.inf)
    labels, below = [], -math.inf
    for point in points:
        # An endpoint never lies inside a gap, so an interval holds all of the
        # gap or none of it.
        labels.append((_label(cls, [b.lo <= below and point <= b.hi for b in bounds]),
                       _label(cls, [b.contains(point) for b in bounds])))
        below = point
    return points, tuple(labels)


def _label(cls: OddClass, hits: list[bool]):
    names = tuple(a.name for a, hit in zip(cls.attributes, hits) if hit)
    if not names:
        return OUT_OF_ODD
    return names[0] if len(names) == 1 else names


def discretize(spec: OddSpec, class_name: str, value: float) -> State:
    """Map a raw value onto the attribute of ``class_name`` containing it.

    Returns OUT_OF_ODD when no interval contains the value. Raises, checked
    in this order: UnknownClass for a name the spec lacks, EmptyClass for a
    class without attributes, NonFiniteReading for a NaN or infinite value,
    and AmbiguousState when more than one interval contains the value, which
    signals a defect in a non-partition class rather than a property of the
    value.
    """
    try:
        points, labels = spec._tables[class_name]
    except KeyError:
        if class_name not in spec.classes:
            raise UnknownClass(f"no ODD class named {class_name!r}") from None
        raise EmptyClass(f"class {class_name!r} has no attributes to discretize against") from None
    if not -math.inf < value < math.inf:
        raise NonFiniteReading(f"reading {value!r} of class {class_name!r} is not finite")
    i = bisect_left(points, value)
    state = labels[i][1] if points[i] == value else labels[i][0]
    if type(state) is tuple:
        raise AmbiguousState(
            f"value {value!r} falls in {list(state)} of class {class_name!r}"
        )
    return state


def interpret(spec: OddSpec, obs: Observation) -> Interpretation:
    """Discretize every reading of an observation, collecting per-entry errors."""
    states: dict[str, State] = {}
    errors: dict[str, OddModelError] = {}
    for class_name in sorted(obs.readings):
        try:
            states[class_name] = discretize(spec, class_name, obs.readings[class_name])
        except OddModelError as exc:
            errors[class_name] = exc
    return Interpretation(states=states, errors=errors)


def in_odd(spec: OddSpec, obs: Observation) -> bool:
    """True iff no reading of the observation discretizes to OUT_OF_ODD.

    Entries that raise (unknown class, ambiguous state, NaN or infinite
    reading) are defects, not ODD exits; they do not flip the flag.
    """
    interp = interpret(spec, obs)
    return not any(state is OUT_OF_ODD for state in interp.states.values())


def odd_spec_to_document(spec: OddSpec) -> dict:
    """Serialize back to the document schema; inverse of :func:`parse_odd_spec`."""
    classes = []
    for cls in spec.classes.values():
        classes.append(
            {
                "name": cls.name,
                "parent": cls.parent,
                "partition": cls.partition,
                "attributes": [
                    {"name": a.name, "unit": a.unit, "interval": format_interval(a.bounds)}
                    for a in cls.attributes
                ],
            }
        )
    return {"classes": classes}


def load_odd_spec(path) -> OddSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_odd_spec(fh.read())
