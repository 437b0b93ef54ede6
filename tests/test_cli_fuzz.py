"""Mutation fuzzing of every AVP bundle input through the CLI entry point.

Each example copies the bundle, damages one file (drops a key or cell, swaps
a value's type, injects NaN or infinity, truncates a line, or inserts bytes
that are not UTF-8) and runs every command that reads that file. Whatever
the damage, ``main`` returns 0, 1 or 2 instead of raising, and an exit 2
names the damaged file. A CSV line with one cell repeated is always an exit 2.
"""

import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from odd_assure import cli
from odd_assure.fixtures import HAZARD_ID, fog_ramp_script, write_avp_bundle
from odd_assure.runtime_monitor import observation_to_line, synth_trace

from .test_cli import error_text

MONITOR = ("monitor", "{d}/avp_bundle.json", "--stream", "{d}/stream.jsonl")
MONITOR_CSV = MONITOR + ("--format", "csv")
COMPILE = ("compile-fta", "{d}/avp_hara.json", "{d}/avp_priors.json", "{d}/out.json")

# file -> the commands that read it; {d} is the bundle directory
COMMANDS = {
    "avp_odd.json": [("validate", "{d}/avp_odd.json")],
    "avp_hara.json": [("validate", "{d}/avp_odd.json", "--hara", "{d}/avp_hara.json"), COMPILE],
    "avp_priors.json": [COMPILE],
    "avp_confidence_bn.json": [
        ("validate", "{d}/avp_odd.json", "--bn", "{d}/avp_confidence_bn.json"),
        ("infer", "{d}/avp_confidence_bn.json", "--query", HAZARD_ID,
         "--evidence", "Fog=Fog_Severity_3", "--values", "occurs=0", "--values", "not_occurs=1"),
    ],
    "avp_bundle.json": [MONITOR, MONITOR_CSV],
    "stream.jsonl": [MONITOR, MONITOR_CSV],
    "fog_ramp.json": [("synth", "{d}/fog_ramp.json", "--out", "{d}/out.jsonl")],
    "avp_trace.csv": [("refine", "{d}/avp_trace.csv", "--odd", "{d}/avp_odd.json")],
    "avp_states.csv": [("coverage", "{d}/avp_states.csv", "--scenario", "Rain=Rain_Heavy")],
    "avp_ontology.nt": [("onto", "check", "{d}/avp_ontology.nt")],
}

MUTATIONS = ("drop", "swap", "non_finite", "truncate", "not_utf8")
SWAPS = (None, True, 5, "x", [1], {"k": 1})
NON_FINITE = (math.nan, math.inf, -math.inf)
TEXT_SWAPS = ("x", "5", "")
TEXT_NON_FINITE = ("nan", "inf", "-inf")


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pristine")
    write_avp_bundle(directory)
    lines = [observation_to_line(obs) for obs in synth_trace(fog_ramp_script(ticks=20))]
    (directory / "stream.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert set(COMMANDS) <= {p.name for p in directory.iterdir()}
    return directory


def _nodes(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _mutate_tree(doc, mutation: str, data):
    paths = [p for p in _nodes(doc) if p or mutation != "drop"]
    if not paths:
        return doc
    path = data.draw(st.sampled_from(paths))
    if mutation == "drop":
        value = None
    else:
        old = doc
        for key in path:
            old = old[key]
        choices = NON_FINITE if mutation == "non_finite" else [
            v for v in SWAPS if type(v) is not type(old)
        ]
        value = data.draw(st.sampled_from(choices))
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if mutation == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _mutate(raw: bytes, name: str, mutation: str, data) -> bytes:
    if mutation == "not_utf8":
        at = data.draw(st.integers(0, len(raw)))
        return raw[:at] + b"\xff\xfe" + raw[at:]
    lines = raw.decode("utf-8").splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    if mutation == "truncate":
        cut = data.draw(st.integers(0, len(lines[i])))
        return "".join(line + "\n" for line in lines[:i] + [lines[i][:cut]]).encode()
    if name.endswith(".json"):
        return json.dumps(_mutate_tree(json.loads(raw), mutation, data)).encode()
    if name.endswith(".jsonl"):
        lines[i] = json.dumps(_mutate_tree(json.loads(lines[i]), mutation, data))
    else:
        sep = "," if name.endswith(".csv") else " "
        cells = lines[i].split(sep)
        j = data.draw(st.integers(0, len(cells) - 1))
        if mutation == "drop":
            del cells[j]
        elif mutation == "extra":
            cells.insert(j, cells[j])
        else:
            choices = TEXT_NON_FINITE if mutation == "non_finite" else TEXT_SWAPS
            cells[j] = data.draw(st.sampled_from(choices))
        lines[i] = sep.join(cells)
    return ("\n".join(lines) + "\n").encode()


def _exits(pristine, caplog, name, mutation, data) -> list[tuple[int, bool]]:
    """Each exit code of the commands that read ``name``, run on a copy of the
    bundle with that file mutated, and whether the error names the file."""
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for source in pristine.iterdir():
            shutil.copy(source, directory)
        path = directory / name
        path.write_bytes(_mutate(path.read_bytes(), name, mutation, data))
        exits = []
        for argv in COMMANDS[name]:
            caplog.clear()
            code = cli.main([arg.format(d=directory) for arg in argv])
            exits.append((code, str(path) in error_text(caplog)))
        return exits


# About 6 s on a 2-vCPU VM; the example count keeps the whole test under 20 s.
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(name=st.sampled_from(sorted(COMMANDS)), mutation=st.sampled_from(MUTATIONS), data=st.data())
def test_mutated_input_exits_cleanly(pristine, caplog, name, mutation, data):
    for code, named in _exits(pristine, caplog, name, mutation, data):
        assert code in (0, 1, 2)
        assert named or code != 2


# A repeated header cell repeats a column; any other gives its row an extra cell.
@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(n for n in COMMANDS if n.endswith(".csv"))), data=st.data())
def test_extra_cell_exits_two(pristine, caplog, name, data):
    assert _exits(pristine, caplog, name, "extra", data) == [(2, True)] * len(COMMANDS[name])
