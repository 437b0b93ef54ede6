import copy
import csv
import gc
import hashlib
import io
import json
import logging
import math
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import odd_assure
from odd_assure import (
    _base,
    bayes_core,
    boundary_refinement,
    cli,
    confidence_templates,
    hara_fta,
    odd_model,
    runtime_monitor,
    safety_ontology,
)
from odd_assure.fixtures import (
    AVP_HARA_DOCUMENT,
    AVP_LEAF_PRIORS,
    AVP_ODD_DOCUMENT,
    HAZARD_ID,
    avp_fta,
    fog_ramp_script,
    write_avp_bundle,
)

from .oracles import (
    enumerate_posterior,
    gate_formula_top_probability,
    report_csv_line,
    report_json_line,
)
from .test_hara_fta import malformed_hara_document


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("avp")
    write_avp_bundle(directory)
    return directory


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def run_python(*args, text=True):
    """Run a fresh interpreter that imports this checkout's package."""
    src = str(Path(odd_assure.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, *(str(a) for a in args)], capture_output=True, text=text, env=env, timeout=120,
    )


def run_cli_process(*argv, text=True):
    """Run the CLI in a fresh interpreter so stderr is exactly what a user sees."""
    return run_python("-m", "odd_assure.cli", *argv, text=text)


def test_importing_the_package_loads_no_module():
    # every name is imported from its module; the package re-exports none
    result = run_python("-c", "import sys, odd_assure; print(sorted(m for m in sys.modules "
                              "if m.startswith('odd_assure.') or m.split('.')[0] == 'numpy'))")
    assert result.returncode == 0 and result.stdout == "[]\n"


def assert_malformed(result, path):
    assert result.returncode == 2
    assert f"{path}: malformed" in result.stderr
    assert "Traceback" not in result.stderr


def error_text(caplog) -> str:
    return "\n".join(r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR)


def _edited(doc, edit) -> bytes:
    doc = copy.deepcopy(doc)
    edit(doc)
    return json.dumps(doc).encode()


def _script(edit) -> bytes:
    return _edited(fog_ramp_script(), edit)


def _rain(edit) -> bytes:
    """The AVP ODD document with its Rain class edited."""
    return _edited(AVP_ODD_DOCUMENT, lambda doc: edit(doc["classes"][3]))


def _hara(edit) -> bytes:
    """The AVP HARA document, edited."""
    return _edited(AVP_HARA_DOCUMENT, edit)


def _bn(edit) -> bytes:
    """A one-node BN document with its CPT edited."""
    doc = {"nodes": [{"id": "n", "states": ["t", "f"]}],
           "cpts": [{"node": "n", "parents": [], "rows": [[0.5, 0.5]]}]}
    return _edited(doc, lambda doc: edit(doc["cpts"][0]))


def _bn_fork(edit) -> bytes:
    """A BN document with nodes A and B the parents of C, edited."""
    doc = {"nodes": [{"id": n, "states": ["t", "f"]} for n in "ABC"],
           "edges": [["A", "C"], ["B", "C"]],
           "cpts": [{"node": "A", "parents": [], "rows": [[0.5, 0.5]]},
                    {"node": "B", "parents": [], "rows": [[0.5, 0.5]]},
                    {"node": "C", "parents": ["A", "B"], "rows": [[0.5, 0.5]] * 4}],
           "objective": "C"}
    return _edited(doc, edit)


NOT_UTF8 = b"\xff\xfe\x00bad"
HUGE_CELL = b"1" * 200_000  # past csv's field size limit of 131072 characters
DEEP = b"[" * 100_000 + b"]" * 100_000  # past the JSON decoder's recursion limit
SYNTH = ("synth", "{file}")
VALIDATE = ("validate", "{file}")
INFER_N = ("infer", "{file}", "--query", "n")
INFER_C = ("infer", "{file}", "--query", "C")
VALIDATE_HARA = ("validate", "{odd}", "--hara", "{file}")

# Inputs of the wrong shape for their reader, and files that are not UTF-8.
MALFORMED_INPUTS = {
    "stream_readings_list": (
        b'{"t": 0, "readings": [1]}\n', ("monitor", "{bundle}", "--stream", "{file}")
    ),
    "stream_nested_too_deep": (DEEP + b"\n", ("monitor", "{bundle}", "--stream", "{file}")),
    "bn_nodes_nested_too_deep": (b'{"nodes": ' + DEEP + b', "cpts": []}', INFER_N),
    "validate_bn_nested_too_deep": (
        b'{"nodes": ' + DEEP + b', "cpts": []}', ("validate", "{odd}", "--bn", "{file}")
    ),
    "script_segment_number": (_script(lambda s: s["channels"]["Fog"].update(segments=[1])), SYNTH),
    "script_segments_number": (_script(lambda s: s["channels"]["Fog"].update(segments=5)), SYNTH),
    "script_noise_text": (_script(lambda s: s["channels"]["Fog"].update(noise="x")), SYNTH),
    "script_t0_text": (_script(lambda s: s.update(t0="x")), SYNTH),
    "script_dt_nan": (_script(lambda s: s.update(dt=math.nan)), SYNTH),
    "script_t0_inf": (_script(lambda s: s.update(t0=math.inf)), SYNTH),
    # each of these wrote Infinity or NaN readings or times and exited 0
    "script_times_overflow": (_script(lambda s: s.update(t0=1e308, dt=1e308)), SYNTH),
    "script_ramp_overflows": (_script(lambda s: s["channels"]["Fog"]["segments"][0].update(
        start=-1e308, end=1e308)), SYNTH),
    "script_noise_overflows": (
        json.dumps({"channels": {"Fog": {"value": 1.7e308, "ticks": 3, "noise": 1.7e308}}}).encode(),
        SYNTH,
    ),
    "script_value_nan_token": (b'{"channels": {"Fog": {"value": NaN, "ticks": 3}}}', SYNTH),
    "script_bool_and_text_numbers": (json.dumps({
        "t0": True, "dt": "0.5", "channels": {"Fog": {"value": "30", "ticks": 2, "noise": False}},
    }).encode(), SYNTH),
    "script_ticks_bool": (
        json.dumps({"channels": {"Fog": {"value": 30.0, "ticks": True}}}).encode(), SYNTH
    ),
    "manifest_state_value_bool": (json.dumps({
        "odd": "odd.json", "net": "net.json",
        "acp": {"solution_id": "S", "objective": HAZARD_ID, "state_values": {"a": True}},
    }).encode(), ("monitor", "{file}")),
    "priors_text_number": (b'{"x": "0.5"}', ("compile-fta", "{hara}", "{file}", "{file}.out")),
    "bn_rows_bool": (_bn(lambda cpt: cpt.update(rows=[[True, False]])), INFER_N),
    "bn_rows_text": (_bn(lambda cpt: cpt.update(rows=[["0.5", "0.5"]])), INFER_N),
    # each of these would be read as a network, were strings and long lists not refused
    "bn_states_text": (_bn_fork(lambda doc: doc["nodes"][0].update(states="tf")), INFER_C),
    "bn_parents_text": (_bn_fork(lambda doc: doc["cpts"][2].update(parents="AB")), INFER_C),
    "bn_edge_text": (_bn_fork(lambda doc: doc["edges"].__setitem__(0, "AC")), INFER_C),
    "bn_edge_three_items": (
        _bn_fork(lambda doc: doc["edges"].__setitem__(0, ["A", "C", "B"])), INFER_C
    ),
    "bn_objective_number": (_bn_fork(lambda doc: doc.update(objective=1)), INFER_C),
    # read as a table whose off-diagonal rows no assignment reaches
    "bn_parent_twice": (_bn_fork(lambda doc: (
        doc.update(edges=[["A", "C"]]), doc["cpts"][2].update(parents=["A", "A"]))), INFER_C),
    # each of these was read as a HARA, a string as the list of its characters
    "hara_hazards_text": (_hara(lambda doc: doc.update(hazards=HAZARD_ID)), VALIDATE_HARA),
    "hara_children_text": (_hara(lambda doc: doc["causal"][0].update(children="AB")), VALIDATE_HARA),
    "hara_occurrence_text": (
        _hara(lambda doc: doc["chains"][0].update(occurrence="Presence_of_object")), VALIDATE_HARA
    ),
    "hara_consequence_text": (
        _hara(lambda doc: doc["chains"][0].update(consequence="Brake_execution")), VALIDATE_HARA
    ),
    "hara_edges_empty_text": (_hara(lambda doc: doc["chains"][0].update(edges="")), VALIDATE_HARA),
    "hara_conditions_empty_text": (
        _hara(lambda doc: doc["events"][1].update(oper_conditions="")), VALIDATE_HARA
    ),
    "hara_condition_text": (
        _hara(lambda doc: doc["events"][1].update(oper_conditions=["Road_type"])), VALIDATE_HARA
    ),
    "hara_condition_three_items": (_hara(lambda doc: doc["events"][1].update(
        oper_conditions=[["Road_type", "Open_Parking", "Closed_Parking"]])), VALIDATE_HARA),
    "hara_atomic_text": (_hara(lambda doc: doc["events"][1].update(atomic="false")), VALIDATE_HARA),
    "hara_atomic_number": (_hara(lambda doc: doc["events"][0].update(atomic=0)), VALIDATE_HARA),
    "hara_event_id_number": (_hara(lambda doc: (
        doc["events"][4].update(id=7), doc["causal"][0]["children"].__setitem__(3, 7),
        doc.update(chains=[]))), VALIDATE_HARA),
    "hara_role_false": (_hara(lambda doc: doc["events"][1].update(role=False)), VALIDATE_HARA),
    "odd_interval_number": (_rain(lambda c: c["attributes"][0].update(interval=5)), VALIDATE),
    "odd_interval_garbled": (_rain(lambda c: c["attributes"][0].update(interval="[0, x[")), VALIDATE),
    "odd_interval_no_comma": (_rain(lambda c: c["attributes"][0].update(interval="(0 1)")), VALIDATE),
    "odd_interval_space_in_bound": (
        _rain(lambda c: c["attributes"][0].update(interval="[0, 0.2 5[")), VALIDATE
    ),
    "odd_class_name_list": (_rain(lambda c: c.update(name=["x"])), VALIDATE),
    "odd_class_name_number": (_rain(lambda c: c.update(name=5)), VALIDATE),
    "odd_attributes_number": (_rain(lambda c: c.update(attributes=5)), VALIDATE),
    # each of these printed ok: "no" read as true, a number and a list as a name and a unit
    "odd_partition_text": (_rain(lambda c: c.update(partition="no")), VALIDATE),
    "odd_attribute_name_number": (_rain(lambda c: c["attributes"][0].update(name=7)), VALIDATE),
    "odd_attribute_unit_list": (_rain(lambda c: c["attributes"][0].update(unit=["m"])), VALIDATE),
    "validate_not_utf8": (NOT_UTF8, VALIDATE),
    "infer_not_utf8": (NOT_UTF8, ("infer", "{file}", "--query", HAZARD_ID)),
    "monitor_not_utf8": (NOT_UTF8, ("monitor", "{file}")),
    "onto_check_not_utf8": (NOT_UTF8, ("onto", "check", "{file}")),
    "refine_not_utf8": (NOT_UTF8, ("refine", "{file}")),
    "coverage_not_utf8": (NOT_UTF8, ("coverage", "{file}", "--scenario", "Rain=Rain_Heavy")),
    "refine_cell_underscore": (b"a,label\n1_0,Yes\n", ("refine", "{file}")),
    "refine_cell_non_ascii_digit": ("a,label\n\u0663,Yes\n".encode(), ("refine", "{file}")),
    "refine_cell_padded": (b"a,label\n 1,Yes\n", ("refine", "{file}")),
    "refine_cell_past_field_limit": (
        b"a,label\n1,Yes\n" + HUGE_CELL + b",No\n", ("refine", "{file}")
    ),
    "coverage_cell_past_field_limit": (
        b"Rain\n" + HUGE_CELL + b"\n", ("coverage", "{file}", "--scenario", "Rain=Rain_Heavy")
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_two_naming_file(bundle_dir, tmp_path, caplog, case):
    content, argv = MALFORMED_INPUTS[case]
    path = tmp_path / case
    path.write_bytes(content)
    paths = {"bundle": bundle_dir / "avp_bundle.json", "hara": bundle_dir / "avp_hara.json",
             "odd": bundle_dir / "avp_odd.json"}
    assert run_cli(*(a.format(file=path, **paths) for a in argv)) == 2
    assert str(path) in error_text(caplog)


_CHAIN = f"of chain {HAZARD_ID!r}"


# An identifier of another type was read as a reference: the first two exited
# 1 ("edge references unknown node 5", UnknownParent), the third 2 only through
# a TypeError from sorting the edges. Each HARA identifier exited 1 naming an
# unknown event or a DanglingReference.
@pytest.mark.parametrize("content, argv, detail", [
    (_bn_fork(lambda doc: doc["edges"].__setitem__(0, ["A", 5])), INFER_C, "an edge end"),
    (_rain(lambda c: c.update(parent=5)), VALIDATE, "the parent of 'Rain'"),
    (_bn_fork(lambda doc: doc["edges"].__setitem__(0, [5, "C"])), INFER_C, "an edge end"),
    (_hara(lambda doc: doc["hazards"].__setitem__(0, 5)), VALIDATE_HARA, "a hazards entry"),
    (_hara(lambda doc: doc["causal"][0].update(parent=5)), VALIDATE_HARA, "causal parent"),
    (_hara(lambda doc: doc["causal"][0]["children"].__setitem__(1, 5)), VALIDATE_HARA,
     f"a children entry of {HAZARD_ID!r}"),
    (_hara(lambda doc: doc["chains"][0].update(hazardous=5)), VALIDATE_HARA, "chain hazardous"),
    (_hara(lambda doc: doc["chains"][0]["occurrence"].__setitem__(0, 5)), VALIDATE_HARA,
     f"an occurrence entry {_CHAIN}"),
    (_hara(lambda doc: doc["chains"][0]["consequence"].__setitem__(0, 5)), VALIDATE_HARA,
     f"a consequence entry {_CHAIN}"),
    (_hara(lambda doc: doc["chains"][0]["edges"][0].update({"from": 5})), VALIDATE_HARA,
     f"edge from {_CHAIN}"),
    (_hara(lambda doc: doc["chains"][0]["edges"][0].update(to=5)), VALIDATE_HARA,
     f"edge to {_CHAIN}"),
], ids=["bn_edge_target_number", "odd_parent_number", "bn_edge_source_number",
        "hara_hazard_number", "hara_causal_parent_number", "hara_child_number",
        "hara_chain_hazardous_number", "hara_occurrence_number", "hara_consequence_number",
        "hara_edge_from_number", "hara_edge_to_number"])
def test_identifier_of_another_type_exits_two(bundle_dir, tmp_path, caplog, capsys, content, argv,
                                              detail):
    path = tmp_path / "document.json"
    path.write_bytes(content)
    assert run_cli(*(a.format(file=path, odd=bundle_dir / "avp_odd.json") for a in argv)) == 2
    assert error_text(caplog).startswith(f"{path}: malformed ")
    assert error_text(caplog).endswith(f": {detail} must be a string, got 5")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("base, document_error", [
    (odd_model.OddModelError, odd_model.DocumentError),
    (hara_fta.HaraError, hara_fta.DocumentError),
    (bayes_core.BayesError, bayes_core.DocumentError),
    (confidence_templates.TemplateError, confidence_templates.DocumentError),
    (boundary_refinement.RefinementError, boundary_refinement.DocumentError),
    (runtime_monitor.MonitorError, runtime_monitor.DocumentError),
    (safety_ontology.OntologyError, safety_ontology.ParseError),
], ids=lambda error: error.__name__)
def test_module_errors_share_the_two_bases(base, document_error):
    # the CLI maps a _base.DocumentError to exit 2 and any other ModelError to exit 1
    assert issubclass(base, _base.ModelError) and not issubclass(base, _base.DocumentError)
    assert issubclass(document_error, base) and issubclass(document_error, _base.DocumentError)


@pytest.mark.parametrize(
    "argv",
    [
        ("infer", "{bn}", "--query", HAZARD_ID, "--evidence", "Fog"),
        ("infer", "{bn}", "--query", HAZARD_ID, "--values", "occurs=x"),
        ("infer", "{bn}", "--query", HAZARD_ID, "--values", "occurs=nan"),
        ("coverage", "{states}", "--scenario", "Rain"),
        ("infer", "{bn}", "--query", HAZARD_ID, "--values", "occurs= 1"),
    ],
)
def test_malformed_assignment_is_a_usage_error(bundle_dir, capsys, argv):
    paths = {"bn": bundle_dir / "avp_confidence_bn.json", "states": bundle_dir / "avp_states.csv"}
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*(a.format(**paths) for a in argv))
    assert exit_info.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("token, is_number", [
    ("0", True), ("-0", True), (".5", True), ("1.", True), ("+7", True), ("1e-5", True),
    ("1.7976931348623157e308", True),
    ("1_0", False), ("\u0663", False), ("\uff15", False), ("1e400", False), ("nan", False),
    ("inf", False), ("0x10", False),
], ids=repr)
def test_one_number_grammar_for_bounds_values_and_terms(bundle_dir, capsys, token, is_number):
    # \u0663 is an Arabic-Indic three, \uff15 a full-width five; float() reads both
    number = float(token) if is_number else None
    if is_number:
        assert odd_model.parse_interval(f"[{token}, +[").lo == number
    else:
        with pytest.raises(odd_model.MalformedInterval):
            odd_model.parse_interval(f"[{token}, +[")

    argv = ["infer", str(bundle_dir / "avp_confidence_bn.json"), "--query", HAZARD_ID,
            "--values", f"occurs={token}"]
    if is_number:
        assert cli.build_parser().parse_args(argv).values == [("occurs", number)]
    else:
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*argv)
        assert exit_info.value.code == 2
        assert "expected STATE=NUMBER" in capsys.readouterr().err

    # in the ontology a token that is not a number is an identifier
    text = f"a hasACP {token} .\n"
    if token == "1e400":
        with pytest.raises(safety_ontology.ParseError, match="overflows a float"):
            safety_ontology.import_graph(text)
        return
    term = safety_ontology.Literal(number) if is_number else token
    assert safety_ontology.import_graph(text).triples == {safety_ontology.Triple("a", "hasACP", term)}
    assert safety_ontology.parse_term(token) == term


class TestValidate:
    def test_fixture_bundle_clean(self, bundle_dir, capsys):
        code = run_cli(
            "validate", bundle_dir / "avp_odd.json",
            "--hara", bundle_dir / "avp_hara.json",
            "--bn", bundle_dir / "avp_confidence_bn.json",
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_partition_overlap_exits_one(self, tmp_path, capsys):
        doc = {
            "classes": [
                {
                    "name": "Rain",
                    "parent": None,
                    "partition": True,
                    "attributes": [
                        {"name": "a", "unit": "u", "interval": "[0, 2["},
                        {"name": "b", "unit": "u", "interval": "[1, 3["},
                    ],
                }
            ]
        }
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("validate", path) == 1

    def test_missing_file_exits_two(self):
        assert run_cli("validate", "no_such_file.json") == 2

    def test_unreadable_json_exits_two(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text("{not json", encoding="utf-8")
        assert run_cli("validate", path) == 2

    def test_deep_causal_chain_validates(self, bundle_dir, tmp_path, capsys):
        n = 3000  # well past the interpreter's default recursion limit
        ids = [f"e{i}" for i in range(n)]
        doc = {
            "hazards": [ids[0]],
            "events": [{"id": i, "atomic": i == ids[-1]} for i in ids],
            "causal": [
                {"parent": ids[i], "op": "OR", "children": [ids[i + 1]]} for i in range(n - 1)
            ],
        }
        hara = tmp_path / "deep.json"
        hara.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("validate", bundle_dir / "avp_odd.json", "--hara", hara) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_defect_of_a_shared_event_prints_once(self, bundle_dir, tmp_path, capsys):
        doc = {
            "hazards": ["H1", "H2"],
            "events": [{"id": "H1"}, {"id": "H2"}, {"id": "M"},
                       {"id": "E", "atomic": True, "oper_conditions": [["Rain", "Rain_Purple"]]}],
            "causal": [{"parent": h, "op": "OR", "children": ["M", "E"]} for h in ("H1", "H2")],
        }
        hara = tmp_path / "shared.json"
        hara.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("validate", bundle_dir / "avp_odd.json", "--hara", hara) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"{hara}: MissingGate['M']: non-atomic event has no gate",
            f"{hara}: UnknownOperCondState['E']: 'Rain_Purple' is neither attribute nor "
            "subclass of 'Rain'",
        ]

    @pytest.mark.parametrize(
        "malformed", ["unknown_role", "chain_without_hazardous", "unknown_edge_kind"]
    )
    def test_malformed_hara_exits_two_naming_file(self, bundle_dir, tmp_path, malformed):
        hara = tmp_path / f"{malformed}.json"
        hara.write_text(json.dumps(malformed_hara_document(malformed)), encoding="utf-8")
        result = run_cli_process("validate", bundle_dir / "avp_odd.json", "--hara", hara)
        assert_malformed(result, hara)


class TestCompileFta:
    def test_compile_roundtrip(self, bundle_dir, tmp_path, capsys):
        out = tmp_path / "compiled.json"
        priors = tmp_path / "priors.json"
        priors.write_text(json.dumps(AVP_LEAF_PRIORS), encoding="utf-8")
        assert run_cli("compile-fta", bundle_dir / "avp_hara.json", priors, out) == 0
        assert run_cli("validate", bundle_dir / "avp_odd.json", "--bn", out) == 0

        from odd_assure import bayes_core

        net = bayes_core.load_bn(out)
        assert net.objective == HAZARD_ID
        expected = gate_formula_top_probability(avp_fta(), AVP_LEAF_PRIORS)
        got = bayes_core.posterior(net, HAZARD_ID).as_dict()["occurs"]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_missing_prior_exits_one(self, bundle_dir, tmp_path):
        priors = tmp_path / "priors.json"
        priors.write_text(json.dumps({"Presence_of_object": 0.5}), encoding="utf-8")
        assert run_cli("compile-fta", bundle_dir / "avp_hara.json", priors, tmp_path / "o.json") == 1

    @pytest.mark.parametrize(
        "priors_doc", [{"Presence_of_object": "x"}, [0.5], {"Presence_of_object": [0.5]}]
    )
    def test_malformed_priors_exit_two_naming_file(self, bundle_dir, tmp_path, priors_doc):
        priors = tmp_path / "priors.json"
        priors.write_text(json.dumps(priors_doc), encoding="utf-8")
        result = run_cli_process(
            "compile-fta", bundle_dir / "avp_hara.json", priors, tmp_path / "o.json"
        )
        assert_malformed(result, priors)

    @pytest.mark.parametrize("value", ["0.5", True, None])
    def test_priors_must_be_json_numbers(self, value):
        with pytest.raises(_base.DocumentError, match="malformed priors document: prior 'x'"):
            cli._priors({"x": value})

    def test_empty_hara_exits_two(self, tmp_path, caplog):
        hara = tmp_path / "hara.json"
        hara.write_text(json.dumps({"hazards": [], "events": [], "causal": []}), encoding="utf-8")
        priors = tmp_path / "priors.json"
        priors.write_text("{}", encoding="utf-8")
        assert run_cli("compile-fta", hara, priors, tmp_path / "o.json") == 2
        assert f"{hara}: no hazards declared" in error_text(caplog)


class TestInfer:
    def test_deterministic_chain(self, tmp_path, capsys):
        doc = {
            "nodes": [{"id": "A", "states": ["t", "f"]}, {"id": "B", "states": ["t", "f"]}],
            "edges": [["A", "B"]],
            "cpts": [
                {"node": "A", "parents": [], "rows": [[0.5, 0.5]]},
                {"node": "B", "parents": ["A"], "rows": [[1.0, 0.0], [0.0, 1.0]]},
            ],
            "objective": None,
        }
        path = tmp_path / "bn.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("infer", path, "--query", "A", "--evidence", "B=t") == 0
        out = capsys.readouterr().out
        assert "A=t 1.000000" in out

    def test_prior_without_evidence(self, bundle_dir, capsys):
        assert run_cli("infer", bundle_dir / "avp_confidence_bn.json", "--query", "Rain") == 0
        out = capsys.readouterr().out
        assert "Rain=Rain_light 0.600000" in out

    def test_mean_variance_output(self, bundle_dir, capsys):
        code = run_cli(
            "infer", bundle_dir / "avp_confidence_bn.json",
            "--query", HAZARD_ID,
            "--evidence", "Fog=Fog_Severity_5",
            "--values", "occurs=0", "--values", "not_occurs=1",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean " in out and "variance " in out

    @pytest.mark.parametrize("value", ["1e200", "1.7976931348623157e308"])
    def test_non_finite_moments_exit_one_printing_nothing(self, bundle_dir, capsys, caplog, value):
        code = run_cli(
            "infer", bundle_dir / "avp_confidence_bn.json", "--query", HAZARD_ID,
            "--values", f"occurs={value}", "--values", "not_occurs=0",
        )
        assert code == 1
        assert capsys.readouterr().out == ""
        assert f"state values {{'occurs': {float(value)!r}, 'not_occurs': 0.0}}" in error_text(caplog)

    def test_matches_enumeration(self, bundle_dir, capsys):
        from odd_assure import bayes_core

        net = bayes_core.load_bn(bundle_dir / "avp_confidence_bn.json")
        run_cli(
            "infer", bundle_dir / "avp_confidence_bn.json",
            "--query", HAZARD_ID, "--evidence", "Fog=Fog_Severity_3",
        )
        out = capsys.readouterr().out
        printed = {}
        for line in out.strip().splitlines():
            key, value = line.split()
            printed[key.split("=")[1]] = float(value)
        expected = enumerate_posterior(net, HAZARD_ID, {"Fog": "Fog_Severity_3"})
        for state, prob in expected.items():
            assert printed[state] == pytest.approx(prob, abs=5e-7)

    def test_zero_probability_evidence_exits_one(self, tmp_path):
        doc = {
            "nodes": [{"id": "A", "states": ["t", "f"]}, {"id": "B", "states": ["t", "f"]}],
            "edges": [["A", "B"]],
            "cpts": [
                {"node": "A", "parents": [], "rows": [[1.0, 0.0]]},
                {"node": "B", "parents": ["A"], "rows": [[1.0, 0.0], [0.0, 1.0]]},
            ],
            "objective": None,
        }
        path = tmp_path / "bn.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("infer", path, "--query", "A", "--evidence", "B=f") == 1

    def test_evidence_on_seventy_nodes(self, tmp_path, capsys):
        # More observed children than one np.einsum call takes as operands
        kids = [f"B{i}" for i in range(70)]
        doc = {
            "nodes": [{"id": n, "states": ["t", "f"]} for n in ("A", *kids)],
            "edges": [["A", k] for k in kids],
            "cpts": [{"node": "A", "parents": [], "rows": [[0.5, 0.5]]}]
            + [{"node": k, "parents": ["A"], "rows": [[0.99, 0.01], [0.5, 0.5]]} for k in kids],
            "objective": None,
        }
        path = tmp_path / "bn.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        evidence = [arg for k in kids for arg in ("--evidence", f"{k}=t")]
        assert run_cli("infer", path, "--query", "A", *evidence) == 0
        # P(A=t | evidence) = 1 / (1 + (0.5 / 0.99)**70)
        assert "A=t 1.000000" in capsys.readouterr().out


class TestCoverage:
    def test_planted_frequency(self, tmp_path, capsys):
        rows = ["Rain,Fog"]
        rng = random.Random(1)
        hits = 0
        for i in range(200):
            if i < 50:
                rows.append("Rain_Heavy,Fog_Severity_5")
                hits += 1
            else:
                rows.append(rng.choice(["Rain_light,Fog_Severity_1", "Rain_Heavy,Fog_Severity_2"]))
        path = tmp_path / "data.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = run_cli(
            "coverage", path, "--scenario", "Rain=Rain_Heavy", "--scenario", "Fog=Fog_Severity_5"
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["n_occurrences"] == hits
        assert result["m"] == hits / 200

    def test_scenario_file(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("Rain\nRain_Heavy\nRain_light\n", encoding="utf-8")
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            json.dumps({"id": "s1", "conditions": [["Rain", "Rain_Heavy"]]}), encoding="utf-8"
        )
        assert run_cli("coverage", data, "--scenario-file", scenario) == 0
        assert json.loads(capsys.readouterr().out)["m"] == 0.5

    def test_options_and_file_read_the_same_conjunction(self, tmp_path, capsys):
        # either way the conditions are a conjunction, and no row has both Rain states
        data = tmp_path / "data.csv"
        data.write_text("Rain\nRain_Heavy\nRain_light\n", encoding="utf-8")
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"id": "scenario", "conditions": [
            ["Rain", "Rain_Heavy"], ["Rain", "Rain_light"]]}), encoding="utf-8")
        assert run_cli("coverage", data, "--scenario-file", scenario) == 0
        from_file = capsys.readouterr().out
        assert run_cli("coverage", data, "--scenario", "Rain=Rain_Heavy",
                       "--scenario", "Rain=Rain_light") == 0
        assert capsys.readouterr().out == from_file
        assert json.loads(from_file)["m"] == 0.0

    # "FC" was read as the condition F=C, and the third item was cut off
    @pytest.mark.parametrize("condition", ["FC", ["Rain", "Rain_Heavy", "extra"]])
    def test_condition_not_a_pair_exits_two_naming_file(self, tmp_path, caplog, condition):
        data = tmp_path / "data.csv"
        data.write_text("Rain\nRain_Heavy\n", encoding="utf-8")
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"conditions": [condition]}), encoding="utf-8")
        assert run_cli("coverage", data, "--scenario-file", scenario) == 2
        assert f"{scenario}: malformed scenario document: a condition must be an array" \
            in error_text(caplog)

    def test_scenario_file_without_conditions_exits_two_naming_file(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("Rain\nRain_Heavy\n", encoding="utf-8")
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"id": "s1"}), encoding="utf-8")
        result = run_cli_process("coverage", data, "--scenario-file", scenario)
        assert_malformed(result, scenario)

    def test_unknown_class_exits_one_naming_it(self, bundle_dir, caplog, capsys):
        states = bundle_dir / "avp_states.csv"
        assert run_cli("coverage", states, "--scenario", "Rain=Rain_Heavy",
                       "--scenario", "Nope=X") == 1
        assert error_text(caplog) == "scenario 'scenario': the dataset has no column 'Nope'"
        assert capsys.readouterr().out == ""

    def test_no_scenario_is_a_usage_error(self, bundle_dir, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("coverage", bundle_dir / "avp_states.csv")
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: odd-assure coverage ")
        assert "one of the arguments --scenario --scenario-file is required" in err

    def test_both_scenario_sources_are_a_usage_error(self, bundle_dir, tmp_path, capsys):
        # the file's scenario alone was read, and the option silently dropped
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"conditions": [["Rain", "Rain_Heavy"]]}), encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            run_cli("coverage", bundle_dir / "avp_states.csv", "--scenario", "Fog=Fog_Severity_5",
                    "--scenario-file", scenario)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: odd-assure coverage ")
        assert "argument --scenario-file: not allowed with argument --scenario" in captured.err

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:2] + ["Rain_light"] + lines[3:],
         "row 3 has 1 cells, the header has 2"),
        (lambda lines: lines[:2] + [lines[2] + ",Rain_light"] + lines[3:],
         "row 3 has 3 cells, the header has 2"),
        (lambda lines: ["Rain,Rain"] + lines[1:], "row 1 repeats column 'Rain'"),
        # csv's own error, once printed bare: no "malformed dataset", no row
        (lambda lines: lines[:2] + [HUGE_CELL.decode() + ",x"] + lines[3:],
         "row 3: field larger than field limit (131072)"),
    ], ids=["missing_cell", "extra_cell", "repeated_column", "cell_past_field_limit"])
    def test_malformed_dataset_exits_two_naming_file_and_row(
        self, bundle_dir, tmp_path, caplog, capsys, edit, message
    ):
        # each of these was read as a dataset of four rows
        lines = (bundle_dir / "avp_states.csv").read_text(encoding="utf-8").splitlines()[:5]
        data = tmp_path / "states.csv"
        data.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        assert run_cli("coverage", data, "--scenario", "Rain=Rain_Heavy") == 2
        assert error_text(caplog) == f"{data}: malformed dataset: {message}"
        assert capsys.readouterr().out == ""

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("Rain,Fog\n\nRain_Heavy,Fog_Severity_1\n\nRain_light,Fog_Severity_1\n",
                        encoding="utf-8")
        assert run_cli("coverage", data, "--scenario", "Rain=Rain_Heavy") == 0
        assert json.loads(capsys.readouterr().out)["n_total"] == 2


class TestRefine:
    def test_rules_and_report(self, bundle_dir, tmp_path, capsys):
        rng = random.Random(2)
        lines = ["Vehicle_lighting,label"]
        for _ in range(200):
            v = rng.uniform(0, 150)
            lines.append(f"{v},{'Yes' if v <= 60.48 else 'No'}")
        trace = tmp_path / "trace.csv"
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        report_path = tmp_path / "report.json"
        code = run_cli(
            "refine", trace, "--odd", bundle_dir / "avp_odd.json",
            "--max-depth", 3, "--min-leaf", 5, "--report-out", report_path,
        )
        assert code == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert all(line.startswith("IF Vehicle_lighting") for line in out_lines)
        assert any(line.endswith("THEN Yes") for line in out_lines)
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["proposals"][0]["class"] == "Vehicle_lighting"
        assert not report["exit_everywhere"]

    def test_deep_tree_has_no_depth_limit(self, tmp_path, capsys):
        # Alternating labels on one feature grow a chain about n/2 deep.
        n = 1500
        trace = tmp_path / "alternating.csv"
        trace.write_text(
            "x,label\n" + "".join(f"{i},{'Yes' if i % 2 else 'No'}\n" for i in range(n)),
            encoding="utf-8",
        )
        assert run_cli("refine", trace, "--max-depth", 100000, "--min-leaf", 1) == 0
        assert len(capsys.readouterr().out.splitlines()) == n


    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:2] + [lines[2] + ",7"] + lines[3:], "row 3 has 4 cells, the header has 3"),
        (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:],
         "row 3 has 2 cells, the header has 3"),
        (lambda lines: [line + "," + line.split(",")[1] for line in lines],
         "row 1 repeats column 'Fog'"),
        (lambda lines: lines[:2] + [HUGE_CELL.decode() + ",1,Yes"] + lines[3:],
         "row 3: field larger than field limit (131072)"),
    ], ids=["extra_cell", "short_row", "repeated_column", "cell_past_field_limit"])
    def test_malformed_trace_exits_two_naming_file_and_row(self, bundle_dir, tmp_path, edit, message):
        # the first was read as a trace and the extra cell ignored, the third
        # split on the last Fog column; both exited 0. The fourth printed
        # csv's error bare, with neither "malformed trace" nor the row.
        lines = (bundle_dir / "avp_trace.csv").read_text(encoding="utf-8").splitlines()
        trace = tmp_path / "trace.csv"
        trace.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        result = run_cli_process("refine", trace, "--odd", bundle_dir / "avp_odd.json")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"ERROR odd_assure: {trace}: malformed trace: {message}\n"


class TestMonitorAndSynth:
    def test_synth_then_monitor_jsonl(self, bundle_dir, tmp_path, capsys):
        stream = tmp_path / "stream.jsonl"
        assert run_cli("synth", bundle_dir / "fog_ramp.json", "--seed", 3, "--out", stream) == 0
        assert run_cli("monitor", bundle_dir / "avp_bundle.json", "--stream", stream) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 100
        first, last = json.loads(lines[0]), json.loads(lines[-1])
        assert first["evidence"]["Fog"] == "Fog_Severity_1"
        assert last["evidence"]["Fog"] == "Fog_Severity_5"
        assert first["mean"] > last["mean"]

    def test_monitor_csv_format(self, bundle_dir, tmp_path, capsys):
        stream = tmp_path / "stream.jsonl"
        run_cli("synth", bundle_dir / "fog_ramp.json", "--out", stream)
        assert run_cli("monitor", bundle_dir / "avp_bundle.json", "--stream", stream, "--format", "csv") == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == list(cli.runtime_monitor.REPORT_CSV_COLUMNS)
        assert len(rows) == 101

    def test_monitor_bad_stream_exits_two(self, bundle_dir, tmp_path):
        stream = tmp_path / "stream.jsonl"
        stream.write_text('{"t": 0}\nnot json\n', encoding="utf-8")
        assert run_cli("monitor", bundle_dir / "avp_bundle.json", "--stream", stream) == 2

    @pytest.mark.parametrize("t", ['"nan"', "NaN", "Infinity", '"-inf"'])
    def test_monitor_non_finite_timestamp_exits_two_naming_line(
        self, bundle_dir, tmp_path, caplog, capsys, t
    ):
        stream = tmp_path / "stream.jsonl"
        stream.write_text(
            '{"t": 0, "readings": {"Fog": 100.0}}\n' f'{{"t": {t}, "readings": {{}}}}\n',
            encoding="utf-8",
        )
        assert run_cli("monitor", bundle_dir / "avp_bundle.json", "--stream", stream) == 2
        # a string is not a number, whatever it spells
        detail = f"t must be a number, got {t}" if t.startswith('"') else "t must be finite"
        assert f"{stream} line 2: malformed observation: {detail}" in error_text(caplog)
        assert len(capsys.readouterr().out.splitlines()) == 1

    @pytest.mark.parametrize(
        "damage, name, code",
        [
            pytest.param(damage, name, 2, id=f"{damage}-{name}")
            for damage in ("not_utf8", "missing")
            for name in ("avp_odd.json", "avp_confidence_bn.json")
        ]
        + [
            # semantic errors in a well-formed file keep exit 1
            pytest.param("empty_interval", "avp_odd.json", 1, id="empty_interval-avp_odd.json"),
            pytest.param("cpt_sum", "avp_confidence_bn.json", 1, id="cpt_sum-avp_confidence_bn.json"),
        ],
    )
    def test_monitor_names_broken_referenced_file(
        self, bundle_dir, tmp_path, caplog, damage, name, code
    ):
        for source in bundle_dir.iterdir():
            (tmp_path / source.name).write_bytes(source.read_bytes())
        broken = tmp_path / name
        document = json.loads(broken.read_text(encoding="utf-8"))
        if damage == "missing":
            broken.unlink()
        elif damage == "not_utf8":
            broken.write_bytes(NOT_UTF8)
        elif damage == "empty_interval":
            document["classes"][3]["attributes"][0]["interval"] = "[1, 0["
            broken.write_text(json.dumps(document), encoding="utf-8")
        else:
            fog = next(c for c in document["cpts"] if c["node"] == "Fog")
            fog["rows"][0] = [0.8] * len(fog["rows"][0])
            broken.write_text(json.dumps(document), encoding="utf-8")
        stream = tmp_path / "stream.jsonl"
        stream.write_text('{"t": 0, "readings": {"Fog": 100.0}}\n', encoding="utf-8")
        assert run_cli("monitor", tmp_path / "avp_bundle.json", "--stream", stream) == code
        assert f"{tmp_path / 'avp_bundle.json'}: {broken}: " in error_text(caplog)

    def test_monitor_drops_nan_reading_as_defective(self, bundle_dir, tmp_path, capsys):
        stream = tmp_path / "stream.jsonl"
        stream.write_text('{"t": 0, "readings": {"Fog": NaN, "Rain": 0.1}}\n', encoding="utf-8")
        assert run_cli("monitor", bundle_dir / "avp_bundle.json", "--stream", stream) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["in_odd"] is True
        assert report["dropped_readings"] == ["Fog"]
        assert report["evidence"] == {"Rain": "Rain_light"}

    @pytest.mark.parametrize(
        "section, value", [("bindings", [1]), ("worst_states", [1]), ("state_values", "x")]
    )
    def test_monitor_non_object_manifest_section_exits_two(
        self, bundle_dir, tmp_path, section, value
    ):
        manifest = json.loads((bundle_dir / "avp_bundle.json").read_text(encoding="utf-8"))
        (manifest["acp"] if section == "state_values" else manifest)[section] = value
        for key in ("odd", "net"):
            manifest[key] = str(bundle_dir / manifest[key])
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        stream = tmp_path / "stream.jsonl"
        stream.write_text('{"t": 0, "readings": {"Fog": 100.0}}\n', encoding="utf-8")
        assert_malformed(run_cli_process("monitor", path, "--stream", stream), path)

    @pytest.mark.parametrize("objective, code, message", [
        (5, 2, "malformed bundle manifest: acp.objective must be a string, got 5"),
        (True, 2, "malformed bundle manifest: acp.objective must be a string, got true"),
        (["x"], 2, 'malformed bundle manifest: acp.objective must be a string, got ["x"]'),
        (None, 1, f"ACP objective None is not the net objective {HAZARD_ID!r}"),
    ], ids=["number", "bool", "list", "null"])
    def test_monitor_objective_must_be_a_string(
        self, bundle_dir, tmp_path, caplog, capsys, objective, code, message
    ):
        # the first three exited 1: "ACP objective 5 is not the net objective ..."
        manifest = json.loads((bundle_dir / "avp_bundle.json").read_text(encoding="utf-8"))
        manifest["acp"]["objective"] = objective
        for key in ("odd", "net"):
            manifest[key] = str(bundle_dir / manifest[key])
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        assert run_cli("monitor", path, "--stream", "-") == code
        assert error_text(caplog) == f"{path}: {message}"
        assert capsys.readouterr().out == ""

    def test_worst_case_policy_with_states(self, bundle_dir, tmp_path, capsys):
        manifest = json.loads((bundle_dir / "avp_bundle.json").read_text(encoding="utf-8"))
        manifest["oodd_policy"] = "worst-case"
        manifest["worst_states"] = {
            "Fog": "Fog_Severity_5",
            "Rain": "Rain_Heavy",
            "Ego_speed": "Speed_High",
        }
        for key in ("odd", "net"):
            manifest[key] = str(bundle_dir / manifest[key])
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        stream = tmp_path / "stream.jsonl"
        stream.write_text('{"t": 0, "readings": {"Rain": -4.0}}\n', encoding="utf-8")
        assert run_cli("monitor", path, "--stream", stream) == 0
        (line,) = capsys.readouterr().out.strip().splitlines()
        report = json.loads(line)
        assert report["evidence"] == {"Rain": "Rain_Heavy"}
        assert report["in_odd"] is False
        assert report["dropped_readings"] == []

    def test_worst_case_override_without_states_exits_one(self, bundle_dir, tmp_path):
        stream = tmp_path / "stream.jsonl"
        run_cli("synth", bundle_dir / "fog_ramp.json", "--out", stream)
        code = run_cli(
            "monitor", bundle_dir / "avp_bundle.json", "--stream", stream,
            "--oodd-policy", "worst-case",
        )
        assert code == 1  # the bundle declares no worst states

    def test_synth_deterministic_with_seed(self, bundle_dir, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        run_cli("synth", bundle_dir / "fog_ramp.json", "--seed", 5, "--out", a)
        run_cli("synth", bundle_dir / "fog_ramp.json", "--seed", 5, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("value", ["true", '"12.5"', "null", "[1]"])
    def test_monitor_non_number_reading_exits_two_naming_line(
        self, bundle_dir, tmp_path, caplog, capsys, value
    ):
        stream = tmp_path / "stream.jsonl"
        stream.write_text(
            '{"t": 0, "readings": {"Fog": 100.0}}\n'
            f'{{"t": 1, "readings": {{"Fog": 100.0, "Rain": {value}}}}}\n',
            encoding="utf-8",
        )
        assert run_cli("monitor", bundle_dir / "avp_bundle.json", "--stream", stream) == 2
        assert (f"{stream} line 2: malformed observation: reading 'Rain' must be a number"
                in error_text(caplog))
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_monitor_binding_to_objective_exits_one(self, bundle_dir, tmp_path):
        for source in bundle_dir.iterdir():
            (tmp_path / source.name).write_bytes(source.read_bytes())
        odd = copy.deepcopy(AVP_ODD_DOCUMENT)
        odd["classes"].append({"name": "Hazard", "parent": "ODD", "attributes": [
            {"name": "occurs", "unit": "u", "interval": "[0, 1["},
            {"name": "not_occurs", "unit": "u", "interval": "[1, 2]"},
        ]})
        (tmp_path / "avp_odd.json").write_text(json.dumps(odd), encoding="utf-8")
        manifest = tmp_path / "avp_bundle.json"
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        doc["bindings"]["Hazard"] = HAZARD_ID
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        stream = tmp_path / "stream.jsonl"
        stream.write_text('{"t": 0, "readings": {"Hazard": 0.5}}\n', encoding="utf-8")
        result = run_cli_process("monitor", manifest, "--stream", stream)
        assert result.returncode == 1
        assert f"{manifest}: binding for 'Hazard' names the objective node" in result.stderr
        assert "Traceback" not in result.stderr and result.stdout == ""


def _two_class_bundle(directory: Path) -> Path:
    """Classes A and C both bind node N, B binds M; which of A and C is
    present decides whether N comes before or after M in the evidence."""
    from odd_assure.bayes_core import BnNode, Cpt, build_net, save_bn

    two_states = [{"name": "t", "unit": "u", "interval": "[0, 1["},
                  {"name": "f", "unit": "u", "interval": "[1, 2]"}]
    odd = {"classes": [{"name": "ODD", "parent": None, "attributes": []}] + [
        {"name": name, "parent": "ODD", "partition": True, "attributes": two_states}
        for name in ("A", "B", "C")
    ]}
    (directory / "odd.json").write_text(json.dumps(odd), encoding="utf-8")
    save_bn(build_net(
        [BnNode("N", ("t", "f")), BnNode("M", ("t", "f")), BnNode("O", ("yes", "no"))],
        [("N", "O"), ("M", "O")],
        [Cpt("N", (), ((0.3, 0.7),)), Cpt("M", (), ((0.6, 0.4),)),
         Cpt("O", ("N", "M"), ((0.9, 0.1), (0.5, 0.5), (0.4, 0.6), (0.05, 0.95)))],
        "O",
    ), directory / "net.json")
    manifest = directory / "bundle.json"
    manifest.write_text(json.dumps({
        "odd": "odd.json", "net": "net.json", "bindings": {"A": "N", "B": "M", "C": "N"},
        "acp": {"solution_id": "Sn", "objective": "O", "state_values": {"yes": 1.0, "no": 0.0}},
        "worst_states": {"A": "f", "B": "f", "C": "t"},
    }), encoding="utf-8")
    return manifest


def _random_stream(rng: random.Random, classes: dict, n: int) -> list[str]:
    """Lines whose readings each class carries with probability 0.7, drawn
    from its list of values; NaN is written as JSON NaN."""
    return [
        json.dumps({"t": t / 10, "readings": {
            name: rng.choice(values) for name, values in classes.items() if rng.random() < 0.7
        }})
        for t in range(n)
    ]


# Characters a name may need escaped in JSON or quoted in CSV, or that the
# CSV fields use as separators, among plain ones.
AWKWARD_CHARS = ("a", "Z", "_", " ", '"', "\\", ",", ";", "=", "\n", "\r", "\t", "\x00",
                 "\x1f", "\x7f", "é", "漢", "\u2028", "\U0001f600")
awkward_names = st.text(st.sampled_from(AWKWARD_CHARS), min_size=1, max_size=4)


def _awkward_bundle(directory: Path, data) -> Path:
    """Write a bundle whose class, node and state names are drawn from
    AWKWARD_CHARS and whose probabilities and state values include 0, -0.0,
    1e-300 and the smallest subnormal; return its manifest."""
    from odd_assure.bayes_core import BnNode, Cpt, build_net, save_bn

    tiny = st.sampled_from([0.0, 5e-324, 1e-300, 0.25, 1.0])
    n_bound = data.draw(st.integers(1, 3))
    names = data.draw(st.lists(awkward_names, min_size=2 * n_bound + 3,
                               max_size=2 * n_bound + 3, unique=True))
    nodes, classes = names[:n_bound + 1], names[n_bound + 1:]
    objective, bound, unbound, root = nodes[-1], nodes[:-1], classes[-2], classes[-1]
    states = {node: tuple(data.draw(st.lists(awkward_names, min_size=n, max_size=n, unique=True)))
              for node, n in zip(nodes, [2] * n_bound + [data.draw(st.integers(2, 3))])}
    rows = {2: [(5e-324, 1.0), (1e-300, 1.0), (0.5, 0.5), (1.0, 0.0), (0.3, 0.7)],
            3: [(5e-324, 0.5, 0.5), (1e-300, 0.0, 1.0), (0.2, 0.3, 0.5)]}[len(states[objective])]
    cpts = []
    for node in bound:
        p = data.draw(tiny)
        cpts.append(Cpt(node, (), ((p, 1.0 - p),)))
    cpts.append(Cpt(objective, tuple(bound), tuple(
        data.draw(st.sampled_from(rows)) for _ in range(2 ** n_bound))))
    save_bn(build_net([BnNode(n, states[n]) for n in nodes],
                      [(n, objective) for n in bound], cpts, objective), directory / "net.json")

    def attributes(state_names):
        return [{"name": state_names[0], "unit": "u", "interval": "[0, 1["},
                {"name": state_names[1], "unit": "u", "interval": "[1, 2]"}]

    bindings = dict(zip(classes, bound))
    odd = {"classes": [{"name": root, "parent": None, "attributes": []},
                       {"name": unbound, "parent": root, "attributes": attributes(("u0", "u1"))}]
           + [{"name": c, "parent": root, "attributes": attributes(states[n])}
              for c, n in bindings.items()]}
    (directory / "odd.json").write_text(json.dumps(odd), encoding="utf-8")
    values = st.sampled_from([0.0, -0.0, 1.0, 0.5, 1e-300, 5e-324])
    manifest = directory / "bundle.json"
    manifest.write_text(json.dumps({
        "odd": "odd.json", "net": "net.json", "bindings": bindings,
        "acp": {"solution_id": "Sn", "objective": objective,
                "state_values": {s: data.draw(values) for s in states[objective]}},
        "worst_states": {c: states[n][0] for c, n in bindings.items()},
    }), encoding="utf-8")
    return manifest


class TestMonitorLines:
    """The monitor's stdout is byte for byte what the reference renderers in
    tests/oracles.py give for the reports step makes, whatever the line
    cache holds."""

    @staticmethod
    def expected(manifest, lines, policy, fmt) -> str:
        rm = cli.runtime_monitor
        bundle = rm.load_bundle(manifest)
        if policy:
            bundle = rm.make_bundle(bundle.odd, bundle.net, bundle.bindings, bundle.acp,
                                    oodd_policy=policy, worst_states=bundle.worst_states)
        reports = [rm.step(bundle, rm.parse_observation(line)) for line in lines]
        if fmt == "jsonl":
            return "".join(map(report_json_line, reports))
        out = io.StringIO()
        csv.writer(out).writerow(rm.REPORT_CSV_COLUMNS)
        return out.getvalue() + "".join(map(report_csv_line, reports))

    def check(self, capsys, tmp_path, manifest, lines, policy, fmt):
        stream = tmp_path / "stream.jsonl"
        stream.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["monitor", manifest, "--stream", stream, "--format", fmt]
        assert run_cli(*argv, *(["--oodd-policy", policy] if policy else [])) == 0
        assert capsys.readouterr().out == self.expected(manifest, lines, policy, fmt)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_fog_ramp(self, bundle_dir, tmp_path, capsys, fmt):
        rm = cli.runtime_monitor
        lines = [rm.observation_to_line(o) for o in rm.synth_trace(fog_ramp_script(), seed=2)]
        self.check(capsys, tmp_path, bundle_dir / "avp_bundle.json", lines, None, fmt)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("policy", ["drop", "worst-case"])
    def test_avp_defects_and_exits(self, bundle_dir, tmp_path, capsys, policy, fmt):
        for source in bundle_dir.iterdir():
            (tmp_path / source.name).write_bytes(source.read_bytes())
        manifest = tmp_path / "avp_bundle.json"
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        doc["worst_states"] = {"Fog": "Fog_Severity_5", "Rain": "Rain_Heavy",
                               "Ego_speed": "Speed_High"}
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        lines = _random_stream(random.Random(17), {
            "Fog": [30.0, 60.0, 244.0, 900.0, 2000.0, -1.0, math.nan, -0.0],
            "Rain": [0.0, 0.25, 0.5, 0.77, 3.0, -0.5, math.inf],
            "Ego_speed": [10.0, 31.0, 45.0, 60.0, 80.0, -3.0],
            "Snow": [0.2, 3.0, -1.0],
            "Wind": [1.0],
        }, 300)
        self.check(capsys, tmp_path, manifest, lines, policy, fmt)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("policy", ["drop", "worst-case"])
    def test_two_classes_bind_one_node(self, tmp_path, capsys, policy, fmt):
        values = [0.5, 1.5, 3.0, math.nan]
        lines = _random_stream(random.Random(23), dict.fromkeys("ABC", values), 300)
        self.check(capsys, tmp_path, _two_class_bundle(tmp_path), lines, policy, fmt)

    # About 4 s on a 2-vCPU VM.
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), policy=st.sampled_from(["drop", "worst-case"]),
           cell_limit=st.sampled_from([2**20, 1]), memo_limit=st.sampled_from([1, 2, 1024]))
    def test_awkward_bundles_match_the_oracles(self, data, policy, cell_limit, memo_limit):
        # cell_limit 1 sends every tick through the posterior fallback;
        # memo_limit 1 or 2 evicts entries between a tick and its lines.
        rm = cli.runtime_monitor
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli.bayes_core, "_CELL_LIMIT", cell_limit)
            mp.setattr(rm, "_MEMO_LIMIT", memo_limit)
            directory = Path(tmp)
            manifest = _awkward_bundle(directory, data)
            classes = list(rm.load_bundle(manifest).odd.classes)
            names = classes + data.draw(st.lists(awkward_names, max_size=2))  # some unknown
            readings = st.dictionaries(st.sampled_from(names),
                                       st.sampled_from([0.5, 1.5, -0.0, 7.0, -3.0, math.nan]))
            times = sorted(data.draw(st.lists(
                st.sampled_from([-0.0, 0.0, 5e-324, 1e-300, 0.1, 3.0, 1e300]),
                min_size=1, max_size=12)))
            lines = [rm.observation_to_line(rm.Observation(t, 0.0, 0.0, data.draw(readings)))
                     for t in times]
            stream = directory / "stream.jsonl"
            stream.write_text("\n".join(lines) + "\n", encoding="utf-8")
            for fmt in ("jsonl", "csv"):
                out = io.StringIO()
                with redirect_stdout(out):
                    code = cli.main(["monitor", str(manifest), "--stream", str(stream),
                                     "--format", fmt, "--oodd-policy", policy])
                assert code == 0
                assert out.getvalue() == self.expected(manifest, lines, policy, fmt)

            # Lines rendered after all the ticks, twice over, find some memo
            # entries evicted and others filled by an earlier line.
            bundle = rm.load_bundle(manifest)
            bundle = rm.make_bundle(bundle.odd, bundle.net, bundle.bindings, bundle.acp,
                                    oodd_policy=policy, worst_states=bundle.worst_states)
            reports = [rm.step(bundle, rm.parse_observation(line)) for line in lines]
            for report in reports + reports:
                assert rm.report_to_json_line(bundle, report) == report_json_line(report)
                assert rm.report_to_csv_line(bundle, report) == report_csv_line(report)


class TestOnto:
    def test_check_clean(self, bundle_dir):
        assert run_cli("onto", "check", bundle_dir / "avp_ontology.nt") == 0

    def test_check_violation_exits_one(self, bundle_dir, tmp_path, capsys):
        graph_file = tmp_path / "graph.nt"
        text = (bundle_dir / "avp_ontology.nt").read_text(encoding="utf-8")
        text += "Rain_Heavy hasAttribute Rain_light .\n"
        graph_file.write_text(text, encoding="utf-8")
        assert run_cli("onto", "check", graph_file) == 1
        assert "A4" in capsys.readouterr().out

    def test_query(self, bundle_dir, capsys):
        assert run_cli("onto", "query", bundle_dir / "avp_ontology.nt", "?", "subClassOf", "Weather_conditions") == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == [
            "Fog subClassOf Weather_conditions .",
            "Rain subClassOf Weather_conditions .",
            "Snow subClassOf Weather_conditions .",
        ]

    def test_query_unknown_predicate_exits_one_naming_it(self, bundle_dir, caplog, capsys):
        assert run_cli("onto", "query", bundle_dir / "avp_ontology.nt", "?", "bogus", "?") == 1
        assert error_text(caplog) == "predicate 'bogus' is not in the vocabulary"
        assert capsys.readouterr().out == ""

    def test_query_parse_error_exits_two(self, tmp_path):
        path = tmp_path / "g.nt"
        path.write_text("garbage\n", encoding="utf-8")
        assert run_cli("onto", "check", path) == 2

    def test_query_bad_term_exits_two_naming_the_term(self, bundle_dir, caplog):
        assert run_cli("onto", "query", bundle_dir / "avp_ontology.nt", '"abc', "?", "?") == 2
        assert error_text(caplog) == """term '"abc': unterminated literal '"abc'"""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_avp_bundle_bytes_are_pinned(tmp_path):
    # sha256 of every file write_avp_bundle writes, so a fixture that derives
    # a fact from another document cannot change a byte of the example
    write_avp_bundle(tmp_path)
    assert {path.name: _sha256(path.read_bytes()) for path in tmp_path.iterdir()} == {
        "avp_bundle.json": "4ed1276b3ecc8be34878b2fe208613ec1bc91249fb1e63ef454acf33fab8848f",
        "avp_confidence_bn.json": "cd2411a3a485c29a3b153987a819d0c23d03cfcb8bc386e12a58f43992042cf3",
        "avp_hara.json": "6f0ed973d422d45408d7dd3b20daf15d1cb2e4a45c2a12d5389df638a85c8eec",
        "avp_odd.json": "e86f46d7dc9de827aa7970bdd69ef48283d1f6850af197884d27565dc2dbf019",
        "avp_ontology.nt": "54cd5355209a91e51d4e839ec1d49b2268afa2d8a4bf0168d785bd08c4683409",
        "avp_priors.json": "047494542d597a9e26296c2cc94e185f78c0e86a24984d84edc7a6729559345e",
        "avp_states.csv": "77ed0eb3bcaae8d5d251db7a5281e00e2fd47b53c9cec8ccc818c8b64c626278",
        "avp_trace.csv": "5391b867f382d22222499b2a54ce03c3337817f9d06b47a7d0a793c265f8e431",
        "fog_ramp.json": "0ca224a078e7ca119b0e2018ccf24ccae80c56e8808b4ddc3b9ef808bf400924",
    }


class TestFrozenStartUpHeap:
    """``main`` freezes the heap its command starts with; each command still
    ends as it did before: same bytes out, same exit code, files complete."""

    # sha256 of the fixture commands' outputs, pinned so that how a process
    # exits cannot change a byte of what it wrote.
    SYNTH_SEED_3 = "335e12a023650035932c062ffac16a492c18357040129f5f65c9053f20ef9d35"
    MONITOR = {"jsonl": "5b7635477df57970a115357e890d0de853593a0eade02a307717eb44ab34add3",
               "csv": "98a99401c87b72ff17d5306b90642ddc0c7f93222a604fd9db1234f42a75f2dd"}
    COMPILED_BN = "c5c2bc6c155ef461ddac67f8d88b21067af6c66f2b344956df0293b8b938c111"

    def test_main_freezes_the_heap_its_command_starts_with(self, bundle_dir, capsys):
        assert gc.get_freeze_count() == 0
        assert run_cli("validate", bundle_dir / "avp_odd.json") == 0
        assert gc.get_freeze_count() > 0

    def test_importing_the_cli_leaves_the_collector_alone(self):
        result = run_python("-c", "import gc, odd_assure.cli; print(gc.get_freeze_count())")
        assert (result.returncode, result.stdout) == (0, "0\n")

    def test_synth_then_monitor_in_fresh_processes(self, bundle_dir, tmp_path):
        stream = tmp_path / "stream.jsonl"
        result = run_cli_process("synth", bundle_dir / "fog_ramp.json", "--seed", 3, "--out", stream)
        assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
        assert _sha256(stream.read_bytes()) == self.SYNTH_SEED_3
        for fmt, digest in self.MONITOR.items():
            result = run_cli_process("monitor", bundle_dir / "avp_bundle.json", "--stream", stream,
                                     "--format", fmt, text=False)
            assert (result.returncode, _sha256(result.stdout), result.stderr) == (0, digest, b"")

    def test_compile_fta_output_reads_back_complete(self, bundle_dir, tmp_path):
        out = tmp_path / "compiled.json"
        result = run_cli_process(
            "compile-fta", bundle_dir / "avp_hara.json", bundle_dir / "avp_priors.json", out
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
        assert _sha256(out.read_bytes()) == self.COMPILED_BN
        assert bayes_core.load_bn(out).objective == HAZARD_ID

    def test_malformed_stream_exits_two_naming_it(self, bundle_dir, tmp_path):
        stream = tmp_path / "stream.jsonl"
        stream.write_text('{"t": 0}\nnot json\n', encoding="utf-8")
        result = run_cli_process("monitor", bundle_dir / "avp_bundle.json", "--stream", stream)
        assert result.returncode == 2
        assert f"{stream} line 2: malformed observation" in result.stderr
        assert "Traceback" not in result.stderr
        assert len(result.stdout.splitlines()) == 1  # the report of line 1 is flushed

    def test_usage_error_exits_two_unfrozen(self, bundle_dir, capsys):
        argv = ("monitor", bundle_dir / "avp_bundle.json", "--format", "xml")
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*argv)
        assert exit_info.value.code == 2
        assert gc.get_freeze_count() == 0  # parse_args failed before the freeze
        result = run_cli_process(*argv)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("usage: odd-assure monitor ")
        assert "Traceback" not in result.stderr
