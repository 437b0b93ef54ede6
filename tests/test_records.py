"""The package's record types.

A class defined with ``@dataclass`` must earn it: it validates itself in
``__post_init__`` or keeps something derived in a ``cached_property``. A plain
record is a ``typing.NamedTuple``, which costs a fraction of a dataclass to
define at import. The named tuples below keep the field names, order,
defaults, ``repr`` and ``str`` of the frozen dataclasses they were: every
expected text here was printed by those dataclasses.
"""

import dataclasses
import importlib
import json
import math
import pkgutil
from functools import cached_property

import pytest

import odd_assure
from odd_assure import bayes_core as bc
from odd_assure import boundary_refinement as br
from odd_assure import confidence_templates as ct
from odd_assure import hara_fta as hf
from odd_assure import odd_model as om
from odd_assure import runtime_monitor as rm

MODULES = [importlib.import_module(f"odd_assure.{info.name}")
           for info in pkgutil.iter_modules(odd_assure.__path__)]


def defined_classes():
    for module in MODULES:
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield value


def test_every_dataclass_validates_or_caches():
    found = [cls for cls in defined_classes() if dataclasses.is_dataclass(cls)]
    assert found
    for cls in found:
        assert "__post_init__" in vars(cls) or any(
            isinstance(value, cached_property) for value in vars(cls).values()
        ), f"{cls.__qualname__} is a dataclass with neither __post_init__ nor a cached_property"


IV = om.Interval(0.0, math.inf, True, False)
IV_TEXT = "Interval(lo=0.0, hi=inf, lo_inclusive=True, hi_inclusive=False)"

# (record, fields, defaults, repr)
RECORDS = [
    (bc._Plan(("A",), (None, (0, -1)), (((0, 1), ((0,), (0, 1)), ()),), 4),
     ("ev_vars", "takes", "steps", "cells"), {},
     "_Plan(ev_vars=('A',), takes=(None, (0, -1)), steps=(((0, 1), ((0,), (0, 1)), ()),), "
     "cells=4)"),
    (rm._TickTable(("N",), ({"a": 0, None: slice(None)},), None,
                   {"C": ((1.0,), (("a", "a"),), "N")}, {("N", "a"): '"N": "a"'}, {"s": '"s": '},
                   {"C": '"C"'}, {}, [(None, None)]),
     ("nodes", "states", "joint", "readers", "evidence_json", "state_json", "class_json", "memo",
      "last"),
     {},
     "_TickTable(nodes=('N',), states=({'a': 0, None: slice(None, None, None)},), joint=None, "
     "readers={'C': ((1.0,), (('a', 'a'),), 'N')}, evidence_json={('N', 'a'): '\"N\": \"a\"'}, "
     "state_json={'s': '\"s\": '}, class_json={'C': '\"C\"'}, memo={}, last=[(None, None)])"),
    (om.OddAttribute("Rain_light", "mm/h", IV), ("name", "unit", "bounds"), {},
     f"OddAttribute(name='Rain_light', unit='mm/h', bounds={IV_TEXT})"),
    (om.OddClass("Rain", "Weather", (om.OddAttribute("Rain_light", "mm/h", IV),)),
     ("name", "parent", "attributes", "partition"), {"partition": False},
     "OddClass(name='Rain', parent='Weather', attributes=(OddAttribute(name='Rain_light', "
     f"unit='mm/h', bounds={IV_TEXT}),), partition=False)"),
    (om.OddDefect("OverlappingIntervals", "Rain", "a and b both contain 1"),
     ("kind", "class_name", "detail"), {},
     "OddDefect(kind='OverlappingIntervals', class_name='Rain', detail='a and b both contain 1')"),
    (om.Interpretation({"Rain": "Rain_light"}, {"Fog": om.NonFiniteReading("x")}),
     ("states", "errors"), {},
     "Interpretation(states={'Rain': 'Rain_light'}, errors={'Fog': NonFiniteReading('x')})"),
    (hf.CausalEntry(("A", "B"), hf.GateOp.OR), ("children", "op"), {},
     "CausalEntry(children=('A', 'B'), op=<GateOp.OR: 'OR'>)"),
    (hf.Gate("H", ("A", "B"), hf.GateOp.AND), ("parent", "children", "op"), {},
     "Gate(parent='H', children=('A', 'B'), op=<GateOp.AND: 'AND'>)"),
    (hf.Fta("H", (hf.Event("H", "hazard", False),), (hf.Gate("H", ("A",), hf.GateOp.OR),)),
     ("top", "events", "gates"), {},
     "Fta(top='H', events=(Event(id='H', text='hazard', atomic=False, oper_conditions=(), "
     "role=None),), gates=(Gate(parent='H', children=('A',), op=<GateOp.OR: 'OR'>),))"),
    (hf.ChainEdge(hf.DependsKind.TRIGGER, "O", "H"), ("kind", "src", "dst"), {},
     "ChainEdge(kind=<DependsKind.TRIGGER: 'trigger'>, src='O', dst='H')"),
    (hf.FtaDefect("SelfLoop", ("H",), "gate feeds its own parent"),
     ("kind", "event_ids", "message"), {},
     "FtaDefect(kind='SelfLoop', event_ids=('H',), message='gate feeds its own parent')"),
    (ct.CoverageResult("s", 1, 4, 0.25), ("scenario", "n_occurrences", "n_total", "m"), {},
     "CoverageResult(scenario='s', n_occurrences=1, n_total=4, m=0.25)"),
    (ct.TemplateConfig(("F",), {"F": [[0.5, 0.5]]}), ("feature_names", "cpts"),
     {"feature_names": ("Feat_1", "Feat_2"), "cpts": {}},
     "TemplateConfig(feature_names=('F',), cpts={'F': [[0.5, 0.5]]})"),
    (br.Split("Fog", 0.5, br.Leaf("Yes", 3, 0), br.Leaf("No", 0, 2)),
     ("feature", "threshold", "left", "right"), {},
     "Split(feature='Fog', threshold=0.5, left=Leaf(label='Yes', n_yes=3, n_no=0), "
     "right=Leaf(label='No', n_yes=0, n_no=2))"),
    (br.Leaf("Yes", 3, 1), ("label", "n_yes", "n_no"), {}, "Leaf(label='Yes', n_yes=3, n_no=1)"),
    (br.DecisionTree(br.Leaf("No", 1, 2), ("Fog",)),
     ("root", "feature_names", "constant_features"), {"constant_features": False},
     "DecisionTree(root=Leaf(label='No', n_yes=1, n_no=2), feature_names=('Fog',), "
     "constant_features=False)"),
    (br.Rule((("Fog", "<=", 0.5),), "Yes"), ("conjuncts", "outcome"), {},
     "Rule(conjuncts=(('Fog', '<=', 0.5),), outcome='Yes')"),
    (br.BoundaryProposal("Fog", (IV,), (IV,)), ("class_name", "current", "proposed"), {},
     f"BoundaryProposal(class_name='Fog', current=({IV_TEXT},), proposed=({IV_TEXT},))"),
    (br.RefinementReport((br.BoundaryProposal("Fog", (IV,), ()),), (br.Rule((), "Yes"),), False),
     ("proposals", "yes_regions", "exit_everywhere"), {},
     f"RefinementReport(proposals=(BoundaryProposal(class_name='Fog', current=({IV_TEXT},), "
     "proposed=()),), yes_regions=(Rule(conjuncts=(), outcome='Yes'),), exit_everywhere=False)"),
]
IDS = [type(record).__name__ for record, *_ in RECORDS]


def test_the_plain_records_are_named_tuples():
    records = {cls for cls in defined_classes() if issubclass(cls, tuple)}
    assert {type(record) for record, *_ in RECORDS} <= records
    assert len(RECORDS) == 19


@pytest.mark.parametrize("record, fields, defaults, text", RECORDS, ids=IDS)
def test_fields_defaults_and_repr(record, fields, defaults, text):
    cls = type(record)
    assert cls._fields == fields and cls._field_defaults == defaults
    assert repr(record) == text
    assert cls(*record) == cls(**record._asdict()) == record
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)


def test_defects_print_as_before():
    assert str(om.OddDefect("OverlappingIntervals", "Rain", "a and b both contain 1")) == (
        "OverlappingIntervals(Rain): a and b both contain 1"
    )
    assert str(hf.FtaDefect("SelfLoop", ("H",), "gate feeds its own parent")) == (
        "SelfLoop['H']: gate feeds its own parent"
    )


def test_no_two_records_share_a_mutable_default():
    config = ct.TemplateConfig()
    assert config.feature_names == ("Feat_1", "Feat_2") and config.cpts == {}
    with pytest.raises(TypeError):
        config.cpts["Feat_1"] = [[0.5, 0.5]]
    assert ct.TemplateConfig() == config == ct.TemplateConfig.from_document({})
    with pytest.raises(TypeError):
        om.Interpretation()


def test_coverage_json_keeps_its_key_order():
    result = ct.CoverageResult("s", 1, 4, 0.25)
    assert json.dumps(result._asdict()) == (
        '{"scenario": "s", "n_occurrences": 1, "n_total": 4, "m": 0.25}'
    )
