"""Every JSON value of the AVP documents, swapped for a value of each other
JSON type, makes its reader raise the module's document error.

The scan runs at parser level, not through CLI processes, so it takes
seconds. Four values may also be null, as the schemas define: an ODD class
``parent`` (null for the root), an event ``role``, the BN ``objective`` and
the manifest's ``acp.objective``. Swapping one of them between a string and
null is not a type error; a class tree with no root or two roots, say, is a
model error, and a null objective is reported when the bundle is built.
"""

import copy
import json
from pathlib import Path

import pytest

from odd_assure import bayes_core, fixtures, hara_fta, odd_model
from odd_assure import runtime_monitor as rm

SWAPS = (None, True, 5, "x", [1], {"k": 1})


def json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def value_paths(value, path=()):
    """The path of every value in a JSON document, the root's ``()`` first."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from value_paths(child, path + (key,))


def swapped(document, path, value):
    if not path:
        return copy.deepcopy(value)
    document = copy.deepcopy(document)
    target = document
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = copy.deepcopy(value)
    return document


def _observation() -> dict:
    first = rm.synth_trace(fixtures.fog_ramp_script())[0]
    return json.loads(rm.observation_to_line(first))


def _manifest() -> dict:
    return {
        "odd": "avp_odd.json", "net": "avp_confidence_bn.json", "bindings": fixtures.AVP_BINDINGS,
        "acp": {"solution_id": fixtures.AVP_SOLUTION_ID, "objective": fixtures.HAZARD_ID,
                "state_values": fixtures.AVP_STATE_VALUES},
        "oodd_policy": "drop", "worst_states": {},
    }


# reader, the AVP document it reads, the error a malformed one raises, and
# the path of each value that may be a string or null
READERS = {
    "odd": (odd_model.parse_odd_spec, lambda: fixtures.AVP_ODD_DOCUMENT, odd_model.DocumentError,
            lambda path: path[::2] == ("classes", "parent")),
    "hara": (hara_fta.parse_hara, lambda: fixtures.AVP_HARA_DOCUMENT, hara_fta.DocumentError,
             lambda path: path[::2] == ("events", "role")),
    "bn": (bayes_core.parse_bn, lambda: bayes_core.bn_to_document(fixtures.avp_monitor_bn()),
           bayes_core.DocumentError, lambda path: path == ("objective",)),
    "manifest": (lambda doc: rm._read_manifest(doc, Path(".")), _manifest, rm.DocumentError,
                 lambda path: path == ("acp", "objective")),
    "script": (rm.synth_trace, fixtures.fog_ramp_script, rm.BadScript, lambda path: False),
    "observation": (rm.parse_observation, _observation, rm.DocumentError, lambda path: False),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_every_value_of_another_type_is_malformed(name):
    read, document, error, nullable = READERS[name]
    document = copy.deepcopy(document())
    read(copy.deepcopy(document))  # the document itself is valid
    escaped = []
    for path in value_paths(document):
        old = document
        for key in path:
            old = old[key]
        for value in SWAPS:
            kinds = {json_type(old), json_type(value)}
            if len(kinds) == 1 or (nullable(path) and kinds == {"str", "NoneType"}):
                continue
            try:
                read(swapped(document, path, value))
            except error:
                continue
            except Exception as exc:  # noqa: BLE001 - the escape is the finding
                escaped.append(f"{list(path)}: {json.dumps(value)} -> {type(exc).__name__}: {exc}")
            else:
                escaped.append(f"{list(path)}: {json.dumps(value)} -> accepted")
    assert escaped == []
