import copy
import json
import math
import random
import re
from bisect import bisect_left

import pytest
from hypothesis import assume, given, settings, strategies as st

from odd_assure import odd_model
from odd_assure.fixtures import AVP_BINDINGS, AVP_ODD_DOCUMENT, avp_odd_spec
from odd_assure.odd_model import (
    OUT_OF_ODD,
    AmbiguousState,
    DuplicateName,
    EmptyClass,
    EmptyInterval,
    Interval,
    MalformedHierarchy,
    MalformedInterval,
    NonFiniteReading,
    Observation,
    OverlappingIntervals,
    UnknownClass,
    UnknownParent,
    discretize,
    format_interval,
    in_odd,
    interpret,
    parse_interval,
    parse_odd_spec,
    validate_odd,
)

from . import oracles
from .oracles import odd_hierarchy_error, scan_interval_membership


class TestParseInterval:
    @pytest.mark.parametrize(
        "text,lo,hi,lo_inc,hi_inc",
        [
            ("[0.25, 0.77[", 0.25, 0.77, True, False),
            ("[0, +[", 0.0, math.inf, True, False),
            ("[31, 60]", 31.0, 60.0, True, True),
            ("]0, 1]", 0.0, 1.0, False, True),
            ("[0, 1)", 0.0, 1.0, True, False),  # paren spelling normalizes
            ("(0, 1]", 0.0, 1.0, False, True),
            ("]-, 60.48]", -math.inf, 60.48, False, True),
            ("[ 1e-4 , 1e-3 [", 1e-4, 1e-3, True, False),
            ("(0, 1)", 0.0, 1.0, False, False),
        ],
    )
    def test_grammar(self, text, lo, hi, lo_inc, hi_inc):
        iv = parse_interval(text)
        assert (iv.lo, iv.hi, iv.lo_inclusive, iv.hi_inclusive) == (lo, hi, lo_inc, hi_inc)

    @pytest.mark.parametrize(
        "text",
        ["", "0, 1", "[0 1]", "[a, b]", "[0,1,2]", "[+, 1]", "[0, +]", "[-, 1]", "[nan, 1]",
         "[1 0, 2 0[", "[0.2 5, 1[", "[- 5, 0["],
    )
    def test_malformed(self, text):
        with pytest.raises(MalformedInterval):
            parse_interval(text)

    @pytest.mark.parametrize("text", ["[2, 1]", "[1, 1[", "]1, 1]", "]1, 1["])
    def test_empty(self, text):
        with pytest.raises(EmptyInterval):
            parse_interval(text)

    def test_point_interval_allowed(self):
        iv = parse_interval("[5, 5]")
        assert iv.contains(5.0) and not iv.contains(5.0000001)
        assert not iv.contains(math.nextafter(5.0, 6.0))  # no epsilon at a boundary

    @pytest.mark.parametrize("bounds", [
        (-math.inf, 1.0, True, False),
        (0.0, math.inf, False, True),
        (math.nan, 1.0, True, False),  # parse_interval rejects NaN before this check
    ])
    def test_constructor_rejects_malformed_bounds(self, bounds):
        with pytest.raises(MalformedInterval):
            Interval(*bounds)

    def test_roundtrip_examples(self):
        for text in ("[0.25, 0.77[", "[31, 60]", "[0, +[", "]-, 60.48]"):
            assert parse_interval(format_interval(parse_interval(text))) == parse_interval(text)
        assert format_interval(parse_interval("(0, 1)")) == "]0, 1["  # never the paren form

    @given(
        lo=st.floats(-1e12, 1e12, allow_nan=False),
        hi=st.floats(-1e12, 1e12, allow_nan=False),
        lo_inc=st.booleans(),
        hi_inc=st.booleans(),
    )
    def test_roundtrip_property(self, lo, hi, lo_inc, hi_inc):
        assume(lo < hi)
        iv = Interval(lo, hi, lo_inc, hi_inc)
        assert parse_interval(format_interval(iv)) == iv


class TestIntervalSemantics:
    def test_membership_matches_text_scan(self):
        rng = random.Random(1)
        texts = ["[0, 0.25[", "[0.25, 0.77[", "[0.77, +[", "[31, 60]", "]-, 10]", "]1, 2["]
        for text in texts:
            iv = parse_interval(text)
            for _ in range(500):
                v = rng.uniform(-5, 100)
                assert iv.contains(v) == scan_interval_membership(text, v)

    def test_overlap_is_symmetric_and_matches_sampling(self):
        rng = random.Random(2)
        for _ in range(300):
            a = Interval(rng.uniform(0, 10), rng.uniform(10.001, 20), rng.random() < 0.5, rng.random() < 0.5)
            b = Interval(rng.uniform(0, 10), rng.uniform(10.001, 20), rng.random() < 0.5, rng.random() < 0.5)
            self.check_overlap_report(rng, a, b)
        # Small integer bounds, some unbounded, so intervals also touch at an
        # endpoint or miss each other.
        ends = [-math.inf, 0.0, 1.0, 2.0, 3.0, math.inf]
        for _ in range(300):
            a, b = (self.grid_interval(rng, ends) for _ in "ab")
            self.check_overlap_report(rng, a, b)

    @staticmethod
    def grid_interval(rng, ends) -> Interval:
        lo, hi = sorted(rng.sample(ends, 2))
        if rng.random() < 0.1 and math.isfinite(lo):
            return Interval(lo, lo, True, True)
        return Interval(lo, hi, math.isfinite(lo) and rng.random() < 0.5,
                        math.isfinite(hi) and rng.random() < 0.5)

    @staticmethod
    def check_overlap_report(rng, a, b):
        # validate_odd names the pair exactly when some value lies in both,
        # whichever comes first, and its witness is a value both hold.
        report, swapped = overlap_report(a, b), overlap_report(b, a)
        assert [r.split()[-1] for r in report] == [r.split()[-1] for r in swapped]
        finite = [x for x in (a.lo, a.hi, b.lo, b.hi) if math.isfinite(x)]
        hit = any(
            a.contains(v) and b.contains(v)
            for v in [rng.uniform(-1, 21) for _ in range(200)] + finite
        )
        if hit:
            assert report
        if report:
            witness = float(report[0].split()[-1])
            assert a.contains(witness) and b.contains(witness), (a, b, report)

    def test_touching_boundary_overlap(self):
        closed = parse_interval("[31, 60]")
        high = parse_interval("[60, +[")
        low = parse_interval("[0, 31[")
        assert overlap_report(closed, high) == ["S0 and S1 both contain 60"]
        assert overlap_report(low, closed) == []  # 31 excluded from the low side

    @pytest.mark.parametrize("a, b, witness", [
        ("]-, 5[", "]-, 3[", "2"),      # one in from the finite end
        ("]5, +[", "]7, +[", "8"),
        ("]-, +[", "]-, +[", "0"),
        ("]0, 4[", "]0, 3[", "1.5"),    # the midpoint of the lowest shared gap
        ("]0, 5[", "]1, 3]", "3"),      # a shared endpoint before any gap
        ("]1000000, +[", "]2000000, +[", "2000001.0"),  # :g would print 2e+06
        ("[0, 1234567]", "[1234567, 2000000]", "1234567.0"),  # :g: 1.23457e+06
        ("[0, 0.1234567]", "[0.1234567, 1]", "0.1234567"),    # :g: 0.123457
        # Where floats are spaced wider than 1, one step in is one float step,
        # and the midpoint of two huge bounds does not overflow.
        ("]1e17, +[", "]2e17, +[", "2.0000000000000003e+17"),
        ("]-, 1e17[", "]-, 2e17[", "9.999999999999998e+16"),
        ("]1e308, 1.7e308[", "]1e308, 1.6e308[", "1.3e+308"),
    ])
    def test_overlap_witness_is_a_value_both_hold(self, a, b, witness):
        a, b = parse_interval(a), parse_interval(b)
        assert overlap_report(a, b) == [f"S0 and S1 both contain {witness}"]
        assert a.contains(float(witness)) and b.contains(float(witness))


def overlap_report(*bounds: Interval) -> list[str]:
    """``validate_odd``'s details for one class holding ``bounds`` as S0, S1, ..."""
    cls = odd_model.OddClass("C", None, tuple(
        odd_model.OddAttribute(f"S{i}", "u", b) for i, b in enumerate(bounds)))
    return [d.detail for d in validate_odd(odd_model.OddSpec("C", {"C": cls}))]


_CLASS_NAMES = ["", "a", "b", "c", "d", "e"]


@st.composite
def parent_maps(draw):
    """Parent links over a few class names, "" among them: arbitrary maps
    (cycles, unknown parents, no root or two), and trees with one link
    possibly rewired, so valid trees come up too."""
    names = draw(st.lists(st.sampled_from(_CLASS_NAMES), min_size=1, max_size=6, unique=True))
    targets = st.one_of(st.none(), st.sampled_from(names + ["ghost"]))
    if draw(st.booleans()):
        parents = {names[0]: None}
        for i, name in enumerate(names[1:], 1):
            parents[name] = draw(st.sampled_from(names[:i]))
        if draw(st.booleans()):
            parents[draw(st.sampled_from(names))] = draw(targets)
    else:
        parents = {name: draw(targets) for name in names}
    return dict(draw(st.permutations(list(parents.items()))))


class TestParseOddSpec:
    @settings(max_examples=300, deadline=None)
    @given(parent_maps())
    def test_hierarchy_rule_matches_parent_walk(self, parents):
        document = {
            "classes": [
                {"name": name, "parent": parent,
                 "attributes": [{"name": "s", "unit": "u", "interval": "[0, 1["}]}
                for name, parent in parents.items()
            ]
        }
        expected = odd_hierarchy_error(parents)
        if expected is None:
            spec = parse_odd_spec(document)
            assert spec.root == next(n for n, p in parents.items() if p is None)
            return
        with pytest.raises(odd_model.OddModelError) as info:
            parse_odd_spec(document)
        assert type(info.value) is expected
        if str(info.value).startswith("cycle"):
            # the message walks the cycle from child to parent
            cycle = re.findall(r"'([^']*)'", str(info.value))
            assert len(cycle) >= 2 and cycle[0] == cycle[-1]
            assert all(parents[a] == b for a, b in zip(cycle, cycle[1:]))

    def test_avp_fixture_parses(self):
        spec = avp_odd_spec()
        assert spec.root == "ODD"
        assert len(spec.classes["Rain"].attributes) == 3
        assert spec.classes["Rain"].parent == "Weather_conditions"
        assert spec.children("Fog") == ()

    def test_accepts_json_text(self):
        spec = parse_odd_spec(json.dumps(AVP_ODD_DOCUMENT))
        assert spec == avp_odd_spec()

    def test_empty_leaf_class(self):
        with pytest.raises(EmptyClass):
            parse_odd_spec({"classes": [{"name": "Lonely", "parent": None, "attributes": []}]})

    def test_partition_overlap_rejected(self):
        doc = {
            "classes": [
                {
                    "name": "Rain",
                    "parent": None,
                    "partition": True,
                    "attributes": [
                        {"name": "Rain_light", "unit": "cm/h", "interval": "[0, 0.30["},
                        {"name": "Rain_Moderate", "unit": "cm/h", "interval": "[0.25, 0.77["},
                    ],
                }
            ]
        }
        with pytest.raises(OverlappingIntervals):
            parse_odd_spec(doc)

    def test_duplicate_attribute(self):
        attribute = {"name": "x", "unit": "u", "interval": "[0, 1["}
        doc = {"classes": [{"name": "A", "parent": None, "attributes": [attribute, attribute]}]}
        with pytest.raises(DuplicateName, match="attribute 'x' declared twice in 'A'"):
            parse_odd_spec(doc)

    @pytest.mark.parametrize("edit, detail", [
        (lambda rain: rain.update(name=5), "class name must be a string, got 5"),
        (lambda rain: rain.update(partition="no"), 'partition of \'Rain\' must be true or false, got "no"'),
        (lambda rain: rain["attributes"][0].update(name=7),
         "an attribute name of 'Rain' must be a string, got 7"),
        (lambda rain: rain["attributes"][0].update(unit=["m"]),
         'the unit of \'Rain_light\' must be a string, got ["m"]'),
        # UnknownParent (exit 1) before; a null parent is still the root
        (lambda rain: rain.update(parent=5), "the parent of 'Rain' must be a string, got 5"),
        (lambda rain: rain.update(parent=False), "the parent of 'Rain' must be a string, got false"),
    ])
    def test_names_units_and_partition_have_their_json_types(self, edit, detail):
        doc = copy.deepcopy(AVP_ODD_DOCUMENT)
        edit(next(c for c in doc["classes"] if c["name"] == "Rain"))
        with pytest.raises(odd_model.DocumentError) as raised:
            parse_odd_spec(doc)
        assert str(raised.value) == f"malformed ODD document: {detail}"

    def test_duplicate_class(self):
        doc = {
            "classes": [
                {"name": "A", "parent": None,
                 "attributes": [{"name": "x", "unit": "u", "interval": "[0, 1["}]},
                {"name": "A", "parent": None, "attributes": []},
            ]
        }
        with pytest.raises(DuplicateName):
            parse_odd_spec(doc)

    def test_unknown_parent(self):
        doc = {
            "classes": [
                {"name": "A", "parent": "Ghost",
                 "attributes": [{"name": "x", "unit": "u", "interval": "[0, 1["}]},
            ]
        }
        with pytest.raises((UnknownParent, MalformedHierarchy)):
            parse_odd_spec(doc)

    def test_two_roots_rejected(self):
        doc = {
            "classes": [
                {"name": "A", "parent": None,
                 "attributes": [{"name": "x", "unit": "u", "interval": "[0, 1["}]},
                {"name": "B", "parent": None,
                 "attributes": [{"name": "y", "unit": "u", "interval": "[0, 1["}]},
            ]
        }
        with pytest.raises(MalformedHierarchy):
            parse_odd_spec(doc)

    def test_parent_cycle_rejected(self):
        doc = {
            "classes": [
                {"name": "root", "parent": None, "attributes": []},
                {"name": "A", "parent": "B", "attributes": []},
                {"name": "B", "parent": "A", "attributes": []},
            ]
        }
        with pytest.raises(MalformedHierarchy, match="cycle in parent links: '(A|B)' -> "):
            parse_odd_spec(doc)

    def test_roundtrip_semantic_equality(self):
        spec = avp_odd_spec()
        again = parse_odd_spec(odd_model.odd_spec_to_document(spec))
        assert again == spec


@pytest.fixture(scope="module")
def spec():
    return avp_odd_spec()


class TestDiscretize:

    @pytest.mark.parametrize(
        "class_name,value,expected",
        [
            ("Rain", 1.0, "Rain_Heavy"),
            ("Rain", 0.0, "Rain_light"),
            ("Rain", 0.25, "Rain_Moderate"),
            ("Rain", 0.77, "Rain_Heavy"),
            ("Ego_speed", 31.0, "Speed_Medium"),
            ("Ego_speed", 59.9, "Speed_Medium"),
            ("Fog", 244.0, "Fog_Severity_3"),
            ("Env_lighting", 107.527, "Sunlight"),
        ],
    )
    def test_table_values(self, spec, class_name, value, expected):
        assert discretize(spec, class_name, value) == expected

    def test_out_of_odd(self, spec):
        assert discretize(spec, "Fog", -1.0) is OUT_OF_ODD
        assert discretize(spec, "Vehicle_lighting", 200.0) is OUT_OF_ODD
        assert repr(OUT_OF_ODD) == "OutOfOdd"

    def test_unknown_class(self, spec):
        with pytest.raises(UnknownClass):
            discretize(spec, "Wind", 3.0)

    def test_grouping_class_rejected(self, spec):
        with pytest.raises(EmptyClass):
            discretize(spec, "Weather_conditions", 3.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_reading(self, spec, value):
        with pytest.raises(NonFiniteReading):
            discretize(spec, "Rain", value)
        # the class is checked before the value
        with pytest.raises(UnknownClass):
            discretize(spec, "Wind", value)
        with pytest.raises(EmptyClass):
            discretize(spec, "Weather_conditions", value)

    def test_speed_overlap_is_ambiguous(self, spec):
        with pytest.raises(AmbiguousState) as err:
            discretize(spec, "Ego_speed", 60.0)
        assert "Speed_Medium" in str(err.value) and "Speed_High" in str(err.value)

    def test_pure_function(self, spec):
        results = {discretize(spec, "Rain", 0.5) for _ in range(20)}
        assert results == {"Rain_Moderate"}

    def test_matches_interval_scan_on_random_values(self, spec):
        rng = random.Random(42)
        by_class = {
            "Rain": ["[0, 0.25[", "[0.25, 0.77[", "[0.77, +["],
            "Fog": ["[1610, +[", "[805, 1610[", "[244, 805[", "[60, 244[", "[0, 60["],
        }
        names = {
            "Rain": ["Rain_light", "Rain_Moderate", "Rain_Heavy"],
            "Fog": ["Fog_Severity_1", "Fog_Severity_2", "Fog_Severity_3", "Fog_Severity_4", "Fog_Severity_5"],
        }
        for _ in range(1000):
            cls = rng.choice(["Rain", "Fog"])
            v = rng.uniform(-10, 2500)
            matches = [
                name
                for name, text in zip(names[cls], by_class[cls])
                if scan_interval_membership(text, v)
            ]
            got = discretize(spec, cls, v)
            if matches:
                assert got == matches[0]
            else:
                assert got is OUT_OF_ODD

    def test_partition_classes_have_unique_states(self, spec):
        rng = random.Random(7)
        for name in ("Rain", "Fog", "Snow", "Env_lighting", "Vehicle_lighting"):
            cls = spec.classes[name]
            for _ in range(10_000):
                v = rng.uniform(-100, 3000)
                hits = sum(a.bounds.contains(v) for a in cls.attributes)
                assert hits <= 1


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except odd_model.OddModelError as exc:
        return type(exc), str(exc)


def _probes(points):
    """Every point, its float neighbours, both zeros, the infinities and NaN."""
    values = [0.0, -0.0, math.inf, -math.inf, math.nan]
    for p in points:
        values += [p, math.nextafter(p, -math.inf), math.nextafter(p, math.inf)]
    return values


@st.composite
def odd_classes(draw):
    """A non-partition class over a few shared endpoints, so that intervals
    touch, nest, overlap and leave gaps; some are points, some unbounded."""
    points = sorted(set(draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, -0.0, 60.0]),
        min_size=1, max_size=4,
    ))))
    attributes = []
    for i in range(draw(st.integers(1, 4))):
        lo = draw(st.sampled_from([-math.inf, *points]))
        hi = draw(st.sampled_from([x for x in (*points, math.inf) if x >= lo]))
        if lo == hi:
            bounds = Interval(lo, hi, True, True)
        else:
            bounds = Interval(lo, hi, draw(st.booleans()) and lo > -math.inf,
                              draw(st.booleans()) and hi < math.inf)
        attributes.append(odd_model.OddAttribute(f"S{i}", "u", bounds))
    return odd_model.OddClass("C", "ODD", tuple(attributes)), points


class TestCompiledDiscretize:
    """discretize reads a per-spec table; tests/oracles.py keeps the scan
    over every interval it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(drawn=odd_classes(), extra=st.lists(st.floats(), max_size=5))
    def test_matches_interval_scan(self, drawn, extra):
        cls, points = drawn
        spec = odd_model.OddSpec("ODD", {"ODD": odd_model.OddClass("ODD", None, ()), "C": cls})
        for value in _probes(points) + extra:
            assert _outcome(discretize, spec, "C", value) == _outcome(
                oracles.discretize, spec, "C", value), value
        for name in ("ODD", "Nope"):
            assert _outcome(discretize, spec, name, 1.0) == _outcome(
                oracles.discretize, spec, name, 1.0)

    def test_avp_classes_match_interval_scan(self, spec):
        for name, cls in spec.classes.items():
            points = {x for a in cls.attributes for x in (a.bounds.lo, a.bounds.hi)
                      if math.isfinite(x)}
            for value in _probes(sorted(points)):
                assert _outcome(discretize, spec, name, value) == _outcome(
                    oracles.discretize, spec, name, value), (name, value)

    def test_overlap_message_unchanged(self, spec):
        with pytest.raises(AmbiguousState, match=re.escape(
                "value 60.0 falls in ['Speed_High', 'Speed_Medium'] of class 'Ego_speed'")):
            discretize(spec, "Ego_speed", 60.0)
        assert discretize(spec, "Ego_speed", math.nextafter(60.0, 0.0)) == "Speed_Medium"
        assert discretize(spec, "Ego_speed", math.nextafter(60.0, math.inf)) == "Speed_High"

    def test_spec_compiled_once(self):
        spec = avp_odd_spec()
        tables = vars(spec)["_tables"]  # parsing built them
        discretize(spec, "Rain", 0.1)
        in_odd(spec, Observation(0.0, 0.0, 0.0, {"Fog": 30.0, "Rain": 0.1}))
        validate_odd(spec)
        assert spec._tables is tables
        assert "Weather_conditions" not in tables  # no attributes, so no table
        assert tables["Fog"][0] == (0.0, 60.0, 244.0, 805.0, 1610.0, math.inf)
        # each endpoint, then +inf, with (label of the gap below, label at it)
        assert tables["Rain"] == ((0.0, 0.25, 0.77, math.inf), (
            (OUT_OF_ODD, "Rain_light"), ("Rain_light", "Rain_Moderate"),
            ("Rain_Moderate", "Rain_Heavy"), ("Rain_Heavy", OUT_OF_ODD)))


def _verdict(spec, name, value):
    """"in", "out" or "ambiguous": what ``discretize`` gives the value."""
    try:
        state = discretize(spec, name, value)
    except AmbiguousState:
        return "ambiguous"
    return "out" if state is OUT_OF_ODD else "in"


def _table_verdict(table, value):
    """The verdict a bisection of the verdict table gives the value."""
    points, labels = table
    i = bisect_left(points, value)
    label = labels[i][points[i] == value]
    if type(label) is tuple:
        return "ambiguous"
    return "out" if label is OUT_OF_ODD else "in" if label is odd_model._IN_ODD else label


# overlapping (C and B at 0, G inside F), point (B, E) and unbounded (A, F) intervals
MIXED_CLASS = odd_model.OddClass("C", "ODD", tuple(
    odd_model.OddAttribute(name, "u", parse_interval(text)) for name, text in (
        ("A", "]-, 0["), ("B", "[0, 0]"), ("C", "[0, 5]"), ("D", "]5, 10["), ("E", "[10, 10]"),
        ("F", "[20, +["), ("G", "[30, 40]"))))


class TestVerdictTable:
    """An unbound class's runtime table keeps only what step reads of it: in
    the ODD, out of it, or ambiguous."""

    @staticmethod
    def check(cls):
        spec = odd_model.OddSpec("ODD", {"ODD": odd_model.OddClass("ODD", None, ()), cls.name: cls})
        table = spec._tables[cls.name]
        verdicts = odd_model._verdict_table(table)
        points, labels = verdicts
        assert len(points) == len(labels) and points[-1] == math.inf
        assert set(points) <= set(table[0]) and list(points) == sorted(points)
        assert not any(type(label) is str for pair in labels for label in pair)
        finite = table[0][:-1]
        values = [v for v in _probes(finite) if math.isfinite(v)]
        values += [odd_model._inside(lo, hi) for lo, hi in zip((-math.inf, *finite), table[0])]
        for value in values:
            assert _table_verdict(verdicts, value) == _verdict(spec, cls.name, value), value
        for point in points[:-1]:
            below, above = math.nextafter(point, -math.inf), math.nextafter(point, math.inf)
            if below in finite or above in finite:
                continue  # a gap no float lies in has no verdict
            assert len({_verdict(spec, cls.name, v) for v in (below, point, above)}) > 1, point
        return verdicts

    def test_avp_unbound_classes(self, spec):
        sizes = {name: len(self.check(spec.classes[name])[0])
                 for name in spec._tables if name not in AVP_BINDINGS}
        assert len(sizes) == 10 and set(sizes.values()) == {2, 3}
        assert sizes["Env_lighting"] == 2 and len(spec._tables["Env_lighting"][0]) == 6

    def test_overlapping_point_and_unbounded_intervals(self):
        points, labels = self.check(MIXED_CLASS)
        # ]-inf, 10] in, ]10, 20[ out, [20, 30[ in, [30, 40] ambiguous, above in;
        # 0 is ambiguous (B and C)
        assert points == (0.0, 10.0, 20.0, 30.0, 40.0, math.inf)
        assert labels[0][1] == ("B", "C") and labels[3][1] == ("F", "G")

    @settings(max_examples=300, deadline=None)
    @given(drawn=odd_classes())
    def test_drawn_classes(self, drawn):
        self.check(drawn[0])


class TestInterpret:

    def test_example_readings(self, spec):
        obs = Observation(0.0, 0.0, 0.0, {"Rain": 0.1, "Ego_speed": 70.0})
        interp = interpret(spec, obs)
        assert interp.states == {"Rain": "Rain_light", "Ego_speed": "Speed_High"}
        assert not interp.errors

    def test_empty_observation(self, spec):
        interp = interpret(spec, Observation(0.0, 0.0, 0.0, {}))
        assert interp.states == {} and interp.errors == {}

    def test_errors_collected_not_raised(self, spec):
        obs = Observation(0.0, 0.0, 0.0, {"Rain": 0.1, "Nope": 1.0, "Ego_speed": 60.0})
        interp = interpret(spec, obs)
        assert interp.states == {"Rain": "Rain_light"}
        assert isinstance(interp.errors["Nope"], UnknownClass)
        assert isinstance(interp.errors["Ego_speed"], AmbiguousState)

    def test_in_odd(self, spec):
        assert in_odd(spec, Observation(0.0, 0.0, 0.0, {"Rain": 0.1}))
        assert not in_odd(spec, Observation(0.0, 0.0, 0.0, {"Rain": -5.0}))

    def test_defects_do_not_leave_the_odd(self, spec):
        readings = {"Nope": 1.0, "Ego_speed": 60.0, "Rain": math.nan, "Fog": math.inf}
        assert in_odd(spec, Observation(0.0, 0.0, 0.0, readings))
        assert not in_odd(spec, Observation(0.0, 0.0, 0.0, dict(readings, Snow=-1.0)))

    def test_in_odd_agrees_with_definition(self, spec):
        rng = random.Random(9)
        for _ in range(300):
            obs = Observation(
                0.0, 0.0, 0.0,
                {
                    "Rain": rng.uniform(-1, 2),
                    "Fog": rng.uniform(-100, 3000),
                    "Snow": rng.uniform(-1, 3),
                },
            )
            interp = interpret(spec, obs)
            expected = all(s is not OUT_OF_ODD for s in interp.states.values())
            assert in_odd(spec, obs) == expected


def test_validate_odd_reports_partition_classes_too():
    # a spec built without parse_odd_spec may hold an overlapping partition class
    bounds = [parse_interval("[0, 2["), parse_interval("[1, 3[")]
    cls = odd_model.OddClass("C", "ODD", tuple(
        odd_model.OddAttribute(f"S{i}", "u", b) for i, b in enumerate(bounds)), partition=True)
    spec = odd_model.OddSpec("ODD", {"ODD": odd_model.OddClass("ODD", None, ()), "C": cls})
    assert [str(d) for d in validate_odd(spec)] == [
        "OverlappingIntervals(C): S0 and S1 both contain 1"]


def test_validate_odd_reports_speed_overlap():
    defects = validate_odd(avp_odd_spec())
    assert len(defects) == 1
    d = defects[0]
    assert d.class_name == "Ego_speed"
    assert "Speed_High" in d.detail and "Speed_Medium" in d.detail and "60" in d.detail
