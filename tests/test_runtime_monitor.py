import dataclasses
import json
import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from odd_assure import bayes_core, cli, confidence_templates, odd_model, runtime_monitor as rm
from odd_assure.fixtures import (
    AVP_BINDINGS,
    AVP_STATE_VALUES,
    HAZARD_ID,
    avp_acp,
    avp_bundle,
    avp_monitor_bn,
    avp_odd_spec,
    fog_ramp_script,
    write_avp_bundle,
)
from odd_assure.confidence_templates import AcpBinding
from odd_assure.odd_model import Observation
from odd_assure.runtime_monitor import (
    BadScript,
    BindingMismatch,
    OutOfOrderTimestamp,
    load_bundle,
    make_bundle,
    parse_observation,
    run,
    step,
    synth_trace,
)

from .oracles import (all_assignments, enumerate_joint, enumerate_posterior, random_net,
                      report_csv_line, report_json_line)

AVP_WORST_STATES = {"Fog": "Fog_Severity_5", "Rain": "Rain_Heavy", "Ego_speed": "Speed_High"}


@pytest.fixture(scope="module")
def bundle():
    return avp_bundle()


class TestLoadBundle:
    def test_fixture_bundle_loads(self, tmp_path):
        manifest = write_avp_bundle(tmp_path)
        bundle = load_bundle(manifest)
        assert bundle.net.objective == HAZARD_ID
        assert bundle.acp.solution_id == "Sn8.1"
        assert bundle.odd.root == "ODD"

    @pytest.mark.parametrize(
        "section, value",
        [
            ("bindings", [1]),
            ("bindings", [["Fog", "Fog"]]),
            ("bindings", {"Fog": ["Fog"]}),
            ("worst_states", {"Fog": None}),
            ("worst_states", "Fog_Severity_5"),
            ("acp.state_values", [1.0, 0.0]),
            ("acp", ["Sn8.1"]),
        ],
    )
    def test_non_object_sections_rejected(self, tmp_path, section, value):
        manifest = write_avp_bundle(tmp_path)
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        *parents, key = section.split(".")
        target = doc
        for name in parents:
            target = target[name]
        target[key] = value
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        kind = "an object of str values" if key in ("bindings", "worst_states") else "an object"
        with pytest.raises(rm.DocumentError) as raised:
            load_bundle(manifest)
        assert str(raised.value) == (
            f"malformed bundle manifest: {section} must be {kind}, got {json.dumps(value)}")

    @pytest.mark.parametrize("value", [7, None, ["Sn8.1"]])
    def test_solution_id_is_a_string(self, tmp_path, value):
        manifest = write_avp_bundle(tmp_path)
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        doc["acp"]["solution_id"] = value
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(rm.DocumentError) as raised:
            load_bundle(manifest)
        assert str(raised.value) == (
            f"malformed bundle manifest: acp.solution_id must be a string, got {json.dumps(value)}")

    def test_non_numeric_state_value_rejected(self, tmp_path):
        manifest = write_avp_bundle(tmp_path)
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        doc["acp"]["state_values"][next(iter(doc["acp"]["state_values"]))] = "high"
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(rm.DocumentError, match="malformed bundle manifest"):
            load_bundle(manifest)

    @pytest.mark.parametrize("value", ["0.5", True, None])
    def test_state_values_must_be_json_numbers(self, tmp_path, value):
        manifest = write_avp_bundle(tmp_path)
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        doc["acp"]["state_values"]["occurs"] = value
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(rm.DocumentError, match="state value 'occurs' must be a number"):
            load_bundle(manifest)

    def test_relative_paths_resolve_against_the_manifest(self, tmp_path, monkeypatch):
        manifest = write_avp_bundle(tmp_path / "bundle")
        monkeypatch.chdir(tmp_path)
        assert load_bundle(manifest.relative_to(tmp_path)) == avp_bundle()

    def test_loaded_bundle_is_validated_and_immutable(self, tmp_path):
        manifest = write_avp_bundle(tmp_path)
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        manifest.write_text(json.dumps(dict(doc, bindings={"Fog": "FogBank"})), encoding="utf-8")
        with pytest.raises(BindingMismatch, match="unknown node 'FogBank'"):
            load_bundle(manifest)
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(AttributeError):
            load_bundle(manifest).oodd_policy = rm.WORST_CASE

    def test_binding_to_missing_node(self):
        with pytest.raises(BindingMismatch):
            make_bundle(avp_odd_spec(), avp_monitor_bn(), {"Fog": "FogBank"}, avp_acp())

    def test_state_name_mismatch(self):
        with pytest.raises(BindingMismatch):
            # Rain's attribute names do not match the Fog node's states
            make_bundle(avp_odd_spec(), avp_monitor_bn(), {"Rain": "Fog"}, avp_acp())

    def test_acp_objective_must_match(self):
        acp = AcpBinding("Sn8.1", "Fog", {s: 0.0 for s in avp_monitor_bn().nodes["Fog"].states})
        with pytest.raises(BindingMismatch):
            make_bundle(avp_odd_spec(), avp_monitor_bn(), AVP_BINDINGS, acp)

    def test_objective_must_be_named(self):
        # a manifest with "objective": null over a network without one
        shape = avp_monitor_bn()
        net = bayes_core.build_net(shape.nodes.values(), shape.edges, shape.cpts.values())
        with pytest.raises(BindingMismatch, match="neither the ACP nor the network names"):
            make_bundle(avp_odd_spec(), net, AVP_BINDINGS, AcpBinding("Sn8.1", None, {}))

    def test_binding_to_objective_node(self):
        # the objective cannot also be evidence: the first tick would raise
        shape = random_net(random.Random(3), 3)
        net = bayes_core.build_net(shape.nodes.values(), shape.edges, shape.cpts.values(), "n2")
        with pytest.raises(BindingMismatch, match="binding for 'Cn2' names the objective node 'n2'"):
            make_bundle(two_state_odd(["Cn2"]), net, {"Cn2": "n2"},
                        AcpBinding("Sn", "n2", {"t": 1.0, "f": 0.0}))

    def test_worst_case_policy_needs_states(self):
        with pytest.raises(BindingMismatch):
            make_bundle(
                avp_odd_spec(), avp_monitor_bn(), AVP_BINDINGS, avp_acp(),
                oodd_policy=rm.WORST_CASE,
            )

    @pytest.mark.parametrize("bindings, policy, message", [
        ({"Rain": "Fog"}, rm.DROP, "do not match attributes of class 'Rain'"),
        (AVP_BINDINGS, rm.WORST_CASE, "needs a worst state for 'Fog'"),
        ({"Hail": "Fog"}, rm.DROP, "binding names unknown ODD class 'Hail'"),
    ], ids=["state_mismatch", "worst_case_without_states", "unknown_class"])
    def test_direct_construction_is_validated(self, bindings, policy, message):
        # a bundle checks itself, however it is built, before any tick
        with pytest.raises(BindingMismatch, match=message):
            rm.ModelBundle(avp_odd_spec(), avp_monitor_bn(), bindings, avp_acp(), policy)

    def test_replace_is_validated(self):
        bundle = avp_bundle()
        with pytest.raises(BindingMismatch, match="needs a worst state"):
            dataclasses.replace(bundle, oodd_policy=rm.WORST_CASE)
        with pytest.raises(rm.DocumentError, match="unknown out-of-ODD policy 'pin'"):
            dataclasses.replace(bundle, oodd_policy="pin")
        with pytest.raises(BindingMismatch, match="worst state 'Fog_Purple' is not a state of 'Fog'"):
            dataclasses.replace(bundle, oodd_policy=rm.WORST_CASE,
                                worst_states=dict(AVP_WORST_STATES, Fog="Fog_Purple"))
        worst = dataclasses.replace(bundle, oodd_policy=rm.WORST_CASE,
                                    worst_states=AVP_WORST_STATES)
        assert worst.bindings is bundle.bindings and worst.oodd_policy == rm.WORST_CASE


def light_bundle(policy=rm.DROP, p_dark=0.0):
    """Light level deterministically "Bright"; observing "Dark" is impossible
    evidence and must flag the tick, not crash the stream. Out of the ODD,
    the worst-case policy pins the light to "Dark"."""
    from odd_assure.bayes_core import BnNode, Cpt, build_net
    from odd_assure.odd_model import parse_odd_spec

    odd = parse_odd_spec(
        {
            "classes": [
                {
                    "name": "Light",
                    "parent": None,
                    "partition": True,
                    "attributes": [
                        {"name": "Dark", "unit": "Lux", "interval": "[0, 1["},
                        {"name": "Bright", "unit": "Lux", "interval": "[1, +["},
                    ],
                }
            ]
        }
    )
    net = build_net(
        [BnNode("Light", ("Dark", "Bright")), BnNode("ok", ("yes", "no"))],
        [("Light", "ok")],
        [
            Cpt("Light", (), ((p_dark, 1.0 - p_dark),)),
            Cpt("ok", ("Light",), ((0.5, 0.5), (0.9, 0.1))),
        ],
        objective="ok",
    )
    return make_bundle(
        odd, net, {"Light": "Light"}, AcpBinding("Sn1", "ok", {"yes": 1.0, "no": 0.0}),
        oodd_policy=policy, worst_states={"Light": "Dark"},
    )


def avp_observations(n=40, seed=61):
    """Readings spread over every bound state, some out of the ODD."""
    rng = random.Random(seed)
    return [
        Observation(float(t), 0.0, 0.0, {
            "Fog": rng.uniform(0.0, 2500.0),
            "Rain": rng.uniform(-0.5, 1.5),
            "Ego_speed": rng.uniform(0.0, 80.0),
        })
        for t in range(n)
    ]


def light_observations():
    return [Observation(float(t), 0.0, 0.0, {"Light": lux} if lux is not None else {})
            for t, lux in enumerate([0.5, 5.0, None, -1.0, 0.2, 30.0])]


def two_state_odd(class_names, states=("t", "f")):
    """One partitioned class per name, the first state on [0, 1[ and the
    second on [1, 2]; readings outside [0, 2] leave the ODD."""
    return odd_model.parse_odd_spec({"classes": [
        {"name": "ODD", "parent": None, "attributes": []},
        *({"name": name, "parent": "ODD", "partition": True, "attributes": [
            {"name": states[0], "unit": "u", "interval": "[0, 1["},
            {"name": states[1], "unit": "u", "interval": "[1, 2]"},
        ]} for name in class_names),
    ]})


# a reading in each two_state_odd state, out of the ODD above and below,
# non-finite, or missing
TWO_STATE_READINGS = (0.5, 1.5, 7.0, -3.0, math.nan, None)


def wide_bundle(policy=rm.DROP, n_features=4):
    """A small testing-adequacy bundle: one two-state class per feature."""
    names = tuple(f"W{i}" for i in range(n_features))
    odd = two_state_odd(names, ("adequate", "inadequate"))
    net = confidence_templates.build_testing_adequacy_bn(
        confidence_templates.TemplateConfig(feature_names=names)
    )
    acp = AcpBinding("SnW", confidence_templates.TEST_OBJECTIVE,
                     {"adequate": 1.0, "inadequate": 0.0})
    return make_bundle(odd, net, {n: n for n in names}, acp, oodd_policy=policy,
                       worst_states={n: "inadequate" for n in names})


def wide_observations(n=40, seed=67, n_features=4):
    """Readings for wide_bundle(n_features=n_features): each feature in either
    state, out of the ODD, non-finite or missing, so with 12 features the
    evidence sets are mostly distinct."""
    rng = random.Random(seed)
    return [
        Observation(float(t), 0.0, 0.0, {
            f"W{i}": value for i in range(n_features)
            if (value := rng.choice(TWO_STATE_READINGS)) is not None
        })
        for t in range(n)
    ]


class TestStep:
    def test_empty_observation_gives_prior(self, bundle):
        obs = Observation(0.0, 0.0, 0.0, {})
        report = step(bundle, obs)
        prior = enumerate_posterior(bundle.net, HAZARD_ID, {})
        for state, prob in report.posterior.as_dict().items():
            assert prob == pytest.approx(prior[state], abs=1e-9)
        assert report == step(avp_bundle(), obs)
        assert report.evidence == {}
        assert report.in_odd

    def test_fog_severities_match_enumeration(self, bundle):
        for fog_raw, fog_state in ((30.0, "Fog_Severity_5"), (2000.0, "Fog_Severity_1")):
            report = step(bundle, Observation(0.0, 0.0, 0.0, {"Fog": fog_raw}))
            assert report.evidence == {"Fog": fog_state}
            expected = enumerate_posterior(bundle.net, HAZARD_ID, report.evidence)
            for state, prob in zip(report.posterior.states, report.posterior.probs):
                assert prob == pytest.approx(expected[state], abs=1e-9)

    def test_out_of_odd_reading_dropped(self, bundle):
        obs = Observation(0.0, 0.0, 0.0, {"Rain": -1.0})
        report = step(bundle, obs)
        assert not report.in_odd
        assert report.dropped_readings == ("Rain",)
        assert report.evidence == {}
        prior = enumerate_posterior(bundle.net, HAZARD_ID, {})
        for state, prob in report.posterior.as_dict().items():
            assert prob == pytest.approx(prior[state], abs=1e-9)
        assert report == step(avp_bundle(), obs)

    def test_fresh_bundles_give_identical_reports(self):
        obs = avp_observations()
        assert [step(avp_bundle(), o) for o in obs] == [step(avp_bundle(), o) for o in obs]

    def test_worst_case_policy_pins_state(self):
        bundle = make_bundle(
            avp_odd_spec(), avp_monitor_bn(), AVP_BINDINGS, avp_acp(),
            oodd_policy=rm.WORST_CASE, worst_states=AVP_WORST_STATES,
        )
        report = step(bundle, Observation(0.0, 0.0, 0.0, {"Rain": -1.0}))
        assert report.evidence == {"Rain": "Rain_Heavy"}
        assert report.dropped_readings == ()
        assert not report.in_odd

    def test_defective_reading_flagged(self, bundle):
        report = step(bundle, Observation(0.0, 0.0, 0.0, {"Ghost": 1.0, "Fog": 30.0}))
        assert report.dropped_readings == ("Ghost",)
        assert report.evidence == {"Fog": "Fog_Severity_5"}

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_reading_dropped_as_defective(self, bundle, value):
        obs = Observation(0.0, 0.0, 0.0, {"Fog": value, "Rain": 0.1})
        report = step(bundle, obs)
        assert report.in_odd and odd_model.in_odd(bundle.odd, obs)
        assert report.dropped_readings == ("Fog",)
        assert report.evidence == {"Rain": "Rain_light"}

    def test_unbound_class_not_evidence(self, bundle):
        report = step(bundle, Observation(0.0, 0.0, 0.0, {"Snow": 0.2, "Fog": 30.0}))
        assert report.evidence == {"Fog": "Fog_Severity_5"}
        assert report.in_odd
        assert report.dropped_readings == ()

    @pytest.mark.parametrize("policy", [rm.DROP, rm.WORST_CASE])
    @pytest.mark.parametrize("reading, in_odd", [
        ({"Ghost": 1.0}, True),  # no such class in the ODD
        ({"Weather_conditions": 1.0}, True),  # a class without attributes
        ({"Ego_speed": 60.0}, True),  # Speed_Medium and Speed_High overlap at 60
        ({"Snow": -1.0}, False),  # unbound, out of the ODD: never pinned
    ])
    def test_readings_dropped_whatever_the_policy(self, reading, in_odd, policy):
        bundle = make_bundle(avp_odd_spec(), avp_monitor_bn(), AVP_BINDINGS, avp_acp(),
                             oodd_policy=policy, worst_states=AVP_WORST_STATES)
        report = step(bundle, Observation(0.0, 0.0, 0.0, {**reading, "Fog": 30.0}))
        assert report.dropped_readings == tuple(reading)
        assert report.in_odd is in_odd
        assert report.evidence == {"Fog": "Fog_Severity_5"}

    def test_readings_read_in_class_name_order(self):
        bundle = make_bundle(avp_odd_spec(), avp_monitor_bn(), AVP_BINDINGS, avp_acp(),
                             oodd_policy=rm.WORST_CASE, worst_states=AVP_WORST_STATES)
        readings = {"Snow": -1.0, "Rain": -1.0, "Ghost": 1.0, "Fog": 30.0, "Ego_speed": 60.0}
        report = step(bundle, Observation(0.0, 0.0, 0.0, readings))
        assert report.dropped_readings == ("Ego_speed", "Ghost", "Snow")
        assert list(report.evidence.items()) == [("Fog", "Fog_Severity_5"), ("Rain", "Rain_Heavy")]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), policy=st.sampled_from([rm.DROP, rm.WORST_CASE]))
    def test_lookup_matches_discretize(self, data, policy):
        # step bisects its own copy of the compiled tables; every value must
        # get the state odd_model.discretize gives, with overlapping
        # (ambiguous) intervals, unbounded sides and point intervals. C is
        # bound, U has the same intervals unbound, and the root has none.
        grid = [-math.inf, -1e300, -2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, 1e300, math.inf]
        attributes = []
        for _ in range(data.draw(st.integers(2, 4))):
            lo, hi = sorted(data.draw(st.lists(st.sampled_from(grid), min_size=2, max_size=2)))
            if lo == hi and math.isinf(lo):
                continue
            lo_in = math.isfinite(lo) and (lo == hi or data.draw(st.booleans()))
            hi_in = math.isfinite(hi) and (lo == hi or data.draw(st.booleans()))
            interval = "{}{}, {}{}".format("[" if lo_in else "]", "-" if lo == -math.inf else lo,
                                           "+" if hi == math.inf else hi, "]" if hi_in else "[")
            attributes.append({"name": f"s{len(attributes)}", "unit": "u", "interval": interval})
        if len(attributes) < 2:
            return
        spec = odd_model.parse_odd_spec({"classes": [
            {"name": "ODD", "parent": None, "attributes": []},
            {"name": "C", "parent": "ODD", "attributes": attributes},
            {"name": "U", "parent": "ODD", "attributes": attributes},
        ]})
        states = tuple(a["name"] for a in attributes)
        net = bayes_core.build_net(
            [bayes_core.BnNode("X", states), bayes_core.BnNode("O", ("yes", "no"))], [("X", "O")],
            [bayes_core.Cpt("X", (), ((1.0 / len(states),) * len(states),)),
             bayes_core.Cpt("O", ("X",), ((0.5, 0.5),) * len(states))], "O")
        bundle = make_bundle(spec, net, {"C": "X"}, AcpBinding("Sn", "O", {"yes": 1.0, "no": 0.0}),
                             policy, {"C": "s0"})

        points = sorted({x for a in spec.classes["C"].attributes
                         for x in (a.bounds.lo, a.bounds.hi) if math.isfinite(x)})
        values = [-0.0, 0.0, math.nan, math.inf, -math.inf, -1.7e308, 1.7e308]
        for a, b in zip([-1e301] + points, points + [1e301]):
            values += [a, math.nextafter(a, -math.inf), math.nextafter(a, math.inf), (a + b) / 2]
        for value in values:
            report = step(bundle, Observation(0.0, 0.0, 0.0, {"C": value, "ODD": 1.0, "U": value}))
            evidence, dropped, in_odd = {}, ["ODD"], True
            for name in ("C", "U"):
                try:
                    state = odd_model.discretize(spec, name, value)
                except odd_model.OddModelError:
                    dropped.append(name)
                    continue
                if state is odd_model.OUT_OF_ODD:
                    in_odd = False
                    if name == "U" or policy == rm.DROP:
                        dropped.append(name)
                    else:
                        evidence["X"] = "s0"
                elif name == "C":
                    evidence["X"] = state
            assert report.evidence == evidence, value
            assert report.dropped_readings == tuple(sorted(dropped)), value
            assert report.in_odd is in_odd, value

    def test_step_is_pure(self, bundle):
        obs = Observation(1.0, 2.0, 3.0, {"Fog": 100.0, "Rain": 0.5})
        assert step(bundle, obs) == step(bundle, obs)

    def test_same_evidence_same_report_fields(self, bundle):
        # different raw values inside one severity bin produce identical output
        a = step(bundle, Observation(0.0, 0.0, 0.0, {"Fog": 61.0}))
        b = step(bundle, Observation(0.0, 0.0, 0.0, {"Fog": 243.0}))
        assert a.evidence == b.evidence == {"Fog": "Fog_Severity_4"}
        assert a.posterior == b.posterior and a.mean == b.mean

    def test_mean_variance_recomputable(self, bundle):
        report = step(bundle, Observation(0.0, 0.0, 0.0, {"Fog": 30.0}))
        mean, variance = bayes_core.mean_variance(report.posterior, AVP_STATE_VALUES)
        assert report.mean == mean and report.variance == variance

    def test_zero_probability_evidence_degenerate_tick(self):
        report = step(light_bundle(), Observation(0.0, 0.0, 0.0, {"Light": 0.5}))
        assert report.degenerate
        assert report.posterior is None and report.mean is None and report.variance is None
        assert report.evidence == {"Light": "Dark"}
        doc = rm.report_to_document(report)
        assert doc["degenerate"] is True and doc["mean"] is None

    def test_popoviciu_bounds(self, bundle):
        rng = random.Random(3)
        for _ in range(50):
            obs = Observation(
                0.0, 0.0, 0.0,
                {
                    "Fog": rng.uniform(0, 3000),
                    "Rain": rng.uniform(0, 2),
                    "Ego_speed": rng.choice([10.0, 45.0, 80.0]),
                },
            )
            report = step(bundle, obs)
            assert 0.0 <= report.mean <= 1.0
            assert 0.0 <= report.variance <= 0.25


REPORT = rm.ConfidenceReport(
    2.0, {"Fog": "Fog_Severity_5"}, bayes_core.Posterior("ok", ("yes", "no"), (0.25, 0.75)),
    0.25, 0.1875, False, ("Snow",),
)


class TestRecords:
    """Observation and ConfidenceReport are NamedTuples with the fields,
    order, default, text and equality of the frozen dataclasses they were."""

    def test_observation_construction(self):
        obs = Observation(time=1.5, x=2.0, y=3.0, readings={"Fog": 30.0})
        assert obs == Observation(1.5, 2.0, 3.0, {"Fog": 30.0})
        assert Observation._fields == ("time", "x", "y", "readings")
        assert (obs.time, obs.x, obs.y, obs.readings) == (1.5, 2.0, 3.0, {"Fog": 30.0})

    def test_report_construction_and_degenerate_default(self):
        keywords = rm.ConfidenceReport(
            time=2.0, evidence={"Fog": "Fog_Severity_5"}, posterior=REPORT.posterior,
            mean=0.25, variance=0.1875, in_odd=False, dropped_readings=("Snow",),
        )
        assert keywords == REPORT == rm.ConfidenceReport(*REPORT[:7], False)
        assert REPORT.degenerate is False
        assert rm.ConfidenceReport._fields == (
            "time", "evidence", "posterior", "mean", "variance", "in_odd",
            "dropped_readings", "degenerate",
        )

    def test_repr_text(self):
        assert repr(Observation(1.5, 2.0, 3.0, {"Fog": 30.0})) == (
            "Observation(time=1.5, x=2.0, y=3.0, readings={'Fog': 30.0})"
        )
        assert repr(REPORT) == (
            "ConfidenceReport(time=2.0, evidence={'Fog': 'Fog_Severity_5'}, "
            "posterior=Posterior(node='ok', states=('yes', 'no'), probs=(0.25, 0.75)), "
            "mean=0.25, variance=0.1875, in_odd=False, dropped_readings=('Snow',), "
            "degenerate=False)"
        )
        degenerate = step(light_bundle(), Observation(0.5, 0.0, 0.0, {"Light": 0.5}))
        assert repr(degenerate) == (
            "ConfidenceReport(time=0.5, evidence={'Light': 'Dark'}, posterior=None, "
            "mean=None, variance=None, in_odd=True, dropped_readings=(), degenerate=True)"
        )

    def test_report_equality(self, bundle):
        obs = Observation(1.0, 0.0, 0.0, {"Fog": 30.0, "Snow": -1.0})
        report = step(bundle, obs)
        assert report == step(avp_bundle(), obs) == rm.ConfidenceReport(*report)
        for field, other in [("time", 2.0), ("in_odd", True), ("dropped_readings", ()),
                             ("evidence", {}), ("degenerate", True)]:
            assert report != report._replace(**{field: other})

    @pytest.mark.parametrize("record, field", [
        (Observation(1.0, 0.0, 0.0, {}), "time"),
        (Observation(1.0, 0.0, 0.0, {}), "readings"),
        (REPORT, "mean"),
        (REPORT, "degenerate"),
    ])
    def test_fields_cannot_be_assigned(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


class TestJointTable:
    """Ticks are answered from P(objective, bound nodes); a bundle whose
    table would be too large is queried with bayes_core.posterior."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_nodes=st.integers(2, 7),
        p_deterministic=st.sampled_from([0.0, 0.5]),
        policy=st.sampled_from([rm.DROP, rm.WORST_CASE]),
    )
    def test_matches_enumeration(self, seed, n_nodes, p_deterministic, policy):
        rng = random.Random(seed)
        shape = random_net(rng, n_nodes, p_deterministic)
        objective = f"n{n_nodes - 1}"  # random_net's last node has no children
        net = bayes_core.build_net(shape.nodes.values(), shape.edges, shape.cpts.values(), objective)
        bound = rng.sample(sorted(set(net.nodes) - {objective}), rng.randint(1, n_nodes - 1))
        bindings = {f"C{node}": node for node in bound}
        worst = {name: rng.choice(("t", "f")) for name in bindings}
        values = {s: rng.random() for s in ("t", "f")}
        bundle = make_bundle(two_state_odd(bindings), net, bindings,
                             AcpBinding("Sn", objective, values), policy, worst)
        for t in range(8):
            readings = {name: rng.choice(TWO_STATE_READINGS) for name in bindings}
            obs = Observation(float(t), 0.0, 0.0,
                              {k: v for k, v in readings.items() if v is not None})
            report = step(bundle, obs)

            evidence, dropped = {}, []
            for name in sorted(obs.readings):
                value = obs.readings[name]
                if math.isnan(value) or (policy == rm.DROP and not 0.0 <= value <= 2.0):
                    dropped.append(name)
                elif 0.0 <= value <= 2.0:
                    evidence[bindings[name]] = "t" if value < 1.0 else "f"
                else:
                    evidence[bindings[name]] = worst[name]
            assert report.evidence == evidence
            assert report.dropped_readings == tuple(dropped)
            assert report.in_odd == all(math.isnan(v) or 0.0 <= v <= 2.0
                                        for v in obs.readings.values())

            p_evidence = sum(enumerate_joint(net, a) for a in all_assignments(net)
                             if all(a[k] == v for k, v in evidence.items()))
            assert report.degenerate == (p_evidence <= bayes_core.ZERO_EVIDENCE_TOL)
            if report.degenerate:
                assert report.posterior is report.mean is report.variance is None
                continue
            expected = enumerate_posterior(net, objective, evidence)
            for state, prob in report.posterior.as_dict().items():
                assert abs(prob - expected[state]) <= 1e-9
            mean = sum(p * values[s] for s, p in expected.items())
            assert abs(report.mean - mean) <= 1e-9

    @pytest.mark.parametrize("policy", [rm.DROP, rm.WORST_CASE])
    @pytest.mark.parametrize("make, observations", [
        (lambda policy: make_bundle(avp_odd_spec(), avp_monitor_bn(), AVP_BINDINGS, avp_acp(),
                                    oodd_policy=policy, worst_states=AVP_WORST_STATES),
         avp_observations),
        (wide_bundle, wide_observations),
        (light_bundle, light_observations),
    ], ids=["avp", "wide", "light"])
    def test_posterior_fallback_matches(self, monkeypatch, make, observations, policy):
        obs = observations()
        table = make(policy)
        expected = [step(table, o) for o in obs]
        assert table._ticks.joint is not None
        monkeypatch.setattr(bayes_core, "_CELL_LIMIT", 1)
        fallback = make(policy)
        got = [step(fallback, o) for o in obs]
        assert fallback._ticks.joint is None
        for want, have in zip(expected, got):
            assert (have.evidence, have.dropped_readings, have.in_odd, have.degenerate) == (
                want.evidence, want.dropped_readings, want.in_odd, want.degenerate)
            if want.degenerate:
                continue
            assert have.posterior.states == want.posterior.states
            for a, b in zip(have.posterior.probs, want.posterior.probs):
                assert abs(a - b) <= 1e-12
            assert abs(have.mean - want.mean) <= 1e-12
            assert abs(have.variance - want.variance) <= 1e-12
        if observations is light_observations:
            assert any(r.degenerate for r in expected)

    @pytest.mark.parametrize("cell_limit", [2**20, 1])
    def test_evidence_within_tolerance_of_zero_is_degenerate(self, monkeypatch, cell_limit):
        monkeypatch.setattr(bayes_core, "_CELL_LIMIT", cell_limit)
        dark = Observation(0.0, 0.0, 0.0, {"Light": 0.5})
        assert step(light_bundle(p_dark=1e-13), dark).degenerate
        assert not step(light_bundle(p_dark=1e-11), dark).degenerate

    @staticmethod
    def count_tables(monkeypatch) -> list:
        calls = []
        build = bayes_core._joint_table

        def counted(net, keep):
            calls.append(keep)
            return build(net, keep)

        monkeypatch.setattr(bayes_core, "_joint_table", counted)
        return calls

    def test_table_is_built_once_per_bundle(self, monkeypatch):
        calls = self.count_tables(monkeypatch)
        bundle = make_bundle(avp_odd_spec(), avp_monitor_bn(), AVP_BINDINGS, avp_acp(),
                             oodd_policy=rm.WORST_CASE, worst_states=AVP_WORST_STATES)
        for obs in avp_observations(100):
            rm.report_to_json_line(bundle, step(bundle, obs))
        assert len(calls) == 1

    def test_step_reads_the_tables_discretize_reads(self, monkeypatch):
        calls = []
        compile_class = odd_model._compile_class
        monkeypatch.setattr(odd_model, "_compile_class",
                            lambda cls: calls.append(cls.name) or compile_class(cls))
        bundle = avp_bundle()
        obs = avp_observations(10)
        step(bundle, obs[0])
        tables = bundle.odd._tables
        for o in obs:
            step(bundle, o)
            odd_model.interpret(bundle.odd, o)
        assert bundle.odd._tables is tables
        assert sorted(calls) == sorted(tables)  # each class compiled once
        readers = bundle._ticks.readers
        assert readers.keys() == tables.keys()
        for name, (points, labels) in tables.items():
            if name in AVP_BINDINGS:
                assert readers[name][0] is points and readers[name][1] is labels
            else:  # an unbound class reads the verdicts of the same compiled table
                assert readers[name][:2] == odd_model._verdict_table((points, labels))
            assert readers[name][2] == AVP_BINDINGS.get(name)

    def test_monitor_policy_override_builds_one_table(self, monkeypatch, tmp_path, capsys):
        # The CLI re-wraps the loaded bundle for --oodd-policy before any tick
        manifest = write_avp_bundle(tmp_path)
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        doc["worst_states"] = AVP_WORST_STATES
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        stream = tmp_path / "stream.jsonl"
        stream.write_text("".join(rm.observation_to_line(o) + "\n" for o in avp_observations()),
                          encoding="utf-8")
        calls = self.count_tables(monkeypatch)
        argv = ["monitor", str(manifest), "--stream", str(stream), "--oodd-policy", rm.WORST_CASE]
        assert cli.main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == len(avp_observations())
        assert len(calls) == 1


class TestSharedBundle:
    @pytest.mark.parametrize(
        "make, observations",
        [(avp_bundle, avp_observations), (light_bundle, light_observations)],
    )
    def test_concurrent_steps_share_a_bundle(self, make, observations):
        # Eight threads start together on a bundle whose network has cold
        # caches; every report must equal the serial one on a twin bundle.
        # Report lines are rendered from the shared bundle's line cache too.
        obs = observations()
        expected = [step(make(), o) for o in obs]
        lines = [json.dumps(rm.report_to_document(r)) + "\n" for r in expected]
        # Parsing builds the ODD tables, so the shared bundle gets a spec
        # built by hand, whose tables the threads race to build too.
        shared = make()
        shared = dataclasses.replace(shared, odd=odd_model.OddSpec(shared.odd.root, shared.odd.classes))
        assert "_tables" not in vars(shared.odd) and "_ticks" not in vars(shared)
        start = threading.Barrier(8, timeout=30)

        def worker(offset):
            start.wait()
            out = []
            for i in (j % len(obs) for j in range(offset, offset + 2 * len(obs))):
                report = step(shared, obs[i])
                out.append((i, report, rm.report_to_json_line(shared, report)))
            return out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = [r for rs in pool.map(worker, range(8), timeout=60) for r in rs]
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 8 * 2 * len(obs)
        assert all(report == expected[i] for i, report, _ in results)
        assert all(line == lines[i] for i, _, line in results)
        assert len({tuple(sorted(r.evidence.items())) for r in expected}) >= min(len(obs) // 2, 4)
        if make is light_bundle:
            assert any(r.degenerate for r in expected)


RENDERERS = [rm.report_to_json_line, rm.report_to_csv_line]


class TestMemoRecords:
    """``step`` hands its memo record to the renderers with the report's
    evidence dict; a report rendered any other way finds its record by key,
    and every line is the one its report gives."""

    @pytest.mark.parametrize("render", RENDERERS)
    def test_line_rendered_after_a_later_step_is_the_same(self, render):
        obs = wide_observations(60)
        bundle = wide_bundle()
        at_once = [render(bundle, step(bundle, o)) for o in obs]
        bundle = wide_bundle()
        reports = [step(bundle, o) for o in obs]
        # each report rendered after every later step, last first
        later = [render(bundle, r) for r in reversed(reports)][::-1]
        assert later == at_once
        assert len({tuple(r.evidence.items()) for r in reports}) > 10

    @pytest.mark.parametrize("render", RENDERERS)
    def test_editing_report_evidence_changes_no_later_line(self, render):
        obs = wide_observations(60)
        clean = wide_bundle()
        expected = [render(clean, step(clean, o)) for o in obs]
        flip = {"adequate": "inadequate", "inadequate": "adequate"}
        bundle = wide_bundle()
        for o in obs:
            report = step(bundle, o)
            flipped = {node: flip[state] for node, state in report.evidence.items()}
            report.evidence.clear()
            report.evidence.update(flipped)
            render(bundle, report)
        # every assignment is now in the memo, its part made from an edited report
        assert [render(bundle, step(bundle, o)) for o in obs] == expected

    def test_two_threads_give_the_single_thread_lines(self):
        obs = wide_observations(400, 83, n_features=12)
        single = wide_bundle(n_features=12)
        expected = []
        for o in obs:
            report = step(single, o)
            expected.append(tuple(render(single, report) for render in RENDERERS))
        shared = wide_bundle(n_features=12)
        start = threading.Barrier(2, timeout=30)

        def worker(reverse):
            start.wait()
            order = range(len(obs) - 1, -1, -1) if reverse else range(len(obs))
            out = {}
            for i in order:
                report = step(shared, obs[i])
                out[i] = tuple(render(shared, report) for render in RENDERERS)
            return out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                results = list(pool.map(worker, (False, True), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for out in results:
            assert [out[i] for i in range(len(obs))] == expected

    def test_evicting_stream_matches_the_oracles(self, monkeypatch):
        # more distinct evidence sets than the memo keeps, so it is emptied
        # while the stream runs; lines rendered at once, as the monitor
        # command renders them, and again after the whole stream
        obs = wide_observations(1500, 89, n_features=12)
        bundle = wide_bundle(n_features=12)
        reports = list(run(bundle, obs))
        lines = [(rm.report_to_json_line(bundle, r), rm.report_to_csv_line(bundle, r))
                 for r in reports]
        assert len({tuple(r.evidence.items()) for r in reports}) > rm._MEMO_LIMIT
        assert len(bundle._ticks.memo) < rm._MEMO_LIMIT
        assert lines == [(report_json_line(r), report_csv_line(r)) for r in reports]
        assert [(rm.report_to_json_line(bundle, r), rm.report_to_csv_line(bundle, r))
                for r in reports] == lines
        monkeypatch.setattr(rm, "_MEMO_LIMIT", 10**6)  # evicts nothing
        assert list(run(wide_bundle(n_features=12), obs)) == reports


class TestRun:
    def test_empty_stream(self, bundle):
        assert list(run(bundle, [])) == []

    def test_order_preserved(self, bundle):
        trace = synth_trace(fog_ramp_script(ticks=10), seed=1)
        reports = list(run(bundle, trace))
        assert [r.time for r in reports] == [o.time for o in trace]

    def test_concatenation_property(self, bundle):
        trace = synth_trace(fog_ramp_script(ticks=8), seed=2)
        whole = list(run(bundle, trace))
        parts = list(run(bundle, trace[:3])) + list(run(bundle, trace[3:]))
        assert whole == parts

    def test_out_of_order_raises(self, bundle):
        stream = [
            Observation(1.0, 0.0, 0.0, {}),
            Observation(0.5, 0.0, 0.0, {}),
        ]
        with pytest.raises(OutOfOrderTimestamp):
            list(run(bundle, stream))

    @pytest.mark.parametrize("policy", ["raise", "warn"])
    @pytest.mark.parametrize("time", [math.nan, math.inf])
    def test_non_finite_time_raises(self, bundle, policy, time):
        stream = [Observation(0.0, 0.0, 0.0, {}), Observation(time, 0.0, 0.0, {})]
        with pytest.raises(rm.MonitorError, match="timestamp must be finite"):
            list(run(bundle, stream, on_out_of_order=policy))

    def test_unknown_out_of_order_policy(self, bundle):
        with pytest.raises(rm.MonitorError, match="^on_out_of_order must be 'raise' or 'warn', got 'x'$"):
            list(run(bundle, [], on_out_of_order="x"))

    def test_equal_timestamps_are_in_order(self, bundle):
        stream = [Observation(1.0, 0.0, 0.0, {}), Observation(1.0, 0.0, 0.0, {"Fog": 30.0})]
        assert list(run(bundle, stream)) == [step(bundle, o) for o in stream]

    def test_out_of_order_warn_passes_through(self, bundle):
        stream = [
            Observation(1.0, 0.0, 0.0, {}),
            Observation(0.5, 0.0, 0.0, {}),
        ]
        reports = list(run(bundle, stream, on_out_of_order="warn"))
        assert [r.time for r in reports] == [1.0, 0.5]


class TestSynthTrace:
    def test_ramp_endpoints_and_monotonicity(self):
        trace = synth_trace(fog_ramp_script(ticks=10), seed=0)
        fog = [o.readings["Fog"] for o in trace]
        assert len(trace) == 10
        assert fog[0] == 2000.0 and fog[-1] == 30.0
        assert all(a >= b for a, b in zip(fog, fog[1:]))

    def test_seed_determinism(self):
        script = {
            "channels": {
                "Fog": {"segments": [{"mode": "ramp", "start": 100, "end": 0, "ticks": 20}], "noise": 5.0}
            }
        }
        a = synth_trace(script, seed=42)
        b = synth_trace(script, seed=42)
        c = synth_trace(script, seed=43)
        assert a == b
        assert a != c

    def test_noise_within_amplitude(self):
        script = {"channels": {"Fog": {"value": 100.0, "ticks": 200, "noise": 5.0}}}
        values = [o.readings["Fog"] for o in synth_trace(script, seed=3)]
        assert all(95.0 <= v <= 105.0 for v in values)
        assert len(set(values)) == len(values)

    def test_zero_noise_matches_analytic_ramp(self):
        n = 50
        script = {
            "channels": {"Fog": {"segments": [{"mode": "ramp", "start": 10.0, "end": 20.0, "ticks": n}]}}
        }
        trace = synth_trace(script, seed=9)
        for i, obs in enumerate(trace):
            expected = 10.0 + (20.0 - 10.0) * i / (n - 1)
            assert obs.readings["Fog"] == pytest.approx(expected, abs=1e-12)

    def test_piecewise_segments(self):
        script = {
            "channels": {
                "Fog": {
                    "segments": [
                        {"mode": "const", "value": 5.0, "ticks": 3},
                        {"mode": "ramp", "start": 5.0, "end": 8.0, "ticks": 4},
                        {"mode": "ramp", "start": 9.0, "end": 20.0, "ticks": 1},  # its start
                    ]
                }
            }
        }
        values = [o.readings["Fog"] for o in synth_trace(script, seed=0)]
        assert values == [5.0, 5.0, 5.0, 5.0, 6.0, 7.0, 8.0, 9.0]

    def test_timestamps_spacing(self):
        script = dict(fog_ramp_script(ticks=4), t0=10.0, dt=0.5)
        times = [o.time for o in synth_trace(script, seed=0)]
        assert times == [10.0, 10.5, 11.0, 11.5]

    @pytest.mark.parametrize(
        "script",
        [
            {},
            {"channels": {}},
            {"channels": {"Fog": {"segments": [{"mode": "ramp", "ticks": 3}]}}},
            {"channels": {"Fog": {"segments": [{"mode": "const", "value": 1.0, "ticks": 0}]}}},
            {"channels": {"Fog": {"segments": [{"mode": "warp", "ticks": 3}]}}},
            {
                "channels": {
                    "Fog": {"segments": [{"mode": "const", "value": 1.0, "ticks": 3}]},
                    "Rain": {"segments": [{"mode": "const", "value": 1.0, "ticks": 4}]},
                }
            },
            # a time or value that is not finite
            dict(fog_ramp_script(ticks=3), t0=1e308, dt=1e308),
            {"channels": {"Fog": {"value": 1.7e308, "ticks": 3, "noise": 1.7e308}}},
            {"channels": {"Fog": {"value": math.nan, "ticks": 3}}},
            {"channels": {"Fog": {"value": -math.inf, "ticks": 3}}},
        ],
    )
    def test_bad_scripts(self, script):
        with pytest.raises(BadScript):
            synth_trace(script, seed=0)

    @pytest.mark.parametrize("script", [
        {"t0": True, "dt": "0.5", "channels": {"Fog": {"value": "30", "ticks": 2, "noise": False}}},
        *({key: value, "channels": {"Fog": {"value": 30.0, "ticks": 2}}}
          for key in ("t0", "dt", "x", "y") for value in (True, "1", None)),
        {"channels": {"Fog": {"value": 30.0, "ticks": True}}},
        {"channels": {"Fog": {"value": 30.0, "ticks": 2.0}}},
        {"channels": {"Fog": {"value": "30", "ticks": 2}}},
        {"channels": {"Fog": {"value": False, "ticks": 2}}},
        {"channels": {"Fog": {"value": 30.0, "ticks": 2, "noise": False}}},
        {"channels": {"Fog": {"value": 30.0, "ticks": 2, "noise": "0.1"}}},
        *({"channels": {"Fog": {"segments": [{"mode": "ramp", "start": 0.0, "end": 1.0, "ticks": 3,
                                              **bad}]}}}
          for bad in ({"start": "0"}, {"end": True})),
        {"channels": {"Fog": {"value": 10**400, "ticks": 2}}},
    ])
    def test_non_number_script_values_rejected(self, script):
        # JSON numbers only: a bool or numeric string is not one, and ticks
        # must be an integer
        with pytest.raises(BadScript, match="malformed scenario script|integer ticks"):
            synth_trace(script, seed=0)

    def test_integer_script_values_read_as_floats(self):
        script = {"t0": 1, "dt": 2, "channels": {"Fog": {"value": 30, "ticks": 2, "noise": 0}}}
        trace = synth_trace(script, seed=0)
        assert [(o.time, o.readings) for o in trace] == [(1.0, {"Fog": 30.0}), (3.0, {"Fog": 30.0})]
        assert all(type(o.readings["Fog"]) is float for o in trace)

    @pytest.mark.parametrize("key", ["t0", "dt", "x", "y"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_script_parameter(self, key, value):
        with pytest.raises(BadScript, match="must be finite"):
            synth_trace(dict(fog_ramp_script(ticks=3), **{key: value}), seed=0)

    @pytest.mark.parametrize("dt", [0.0, -0.5])
    def test_time_step_must_be_positive(self, dt):
        with pytest.raises(BadScript, match="^dt must be positive$"):
            synth_trace(dict(fog_ramp_script(ticks=3), dt=dt), seed=0)

    @pytest.mark.parametrize("noise", [math.nan, math.inf, -1.0])
    def test_bad_noise_amplitude(self, noise):
        script = fog_ramp_script(ticks=3)
        script["channels"]["Fog"]["noise"] = noise
        with pytest.raises(BadScript, match="noise amplitude"):
            synth_trace(script, seed=0)

    @settings(max_examples=500, deadline=None)
    @given(
        start=st.floats(allow_nan=False, allow_infinity=False),
        end=st.floats(allow_nan=False, allow_infinity=False),
        ticks=st.integers(2, 300),
    )
    def test_ramp_endpoints_exact_and_monotone(self, start, end, ticks):
        script = {
            "channels": {"Fog": {"segments": [{"mode": "ramp", "start": start, "end": end, "ticks": ticks}]}}
        }
        if math.isinf(end - start):  # the step overflows, so the first value is NaN
            with pytest.raises(BadScript, match="is not finite"):
                synth_trace(script, seed=0)
            return
        values = [o.readings["Fog"] for o in synth_trace(script, seed=0)]
        assert len(values) == ticks
        assert values[0] == start and values[-1] == end
        pairs = list(zip(values, values[1:]))
        assert all(a <= b for a, b in pairs) if start <= end else all(a >= b for a, b in pairs)


class TestObservationLines:
    def test_parse_line(self):
        obs = parse_observation('{"t": 1.5, "x": 2.0, "y": 3.0, "readings": {"Fog": 30.0}}')
        assert obs == Observation(1.5, 2.0, 3.0, {"Fog": 30.0})

    def test_integers_read_as_floats(self):
        obs = parse_observation('{"t": 2, "x": 1, "y": -1, "readings": {"Fog": 30, "Rain": 0.5}}')
        assert obs == Observation(2.0, 1.0, -1.0, {"Fog": 30.0, "Rain": 0.5})
        assert all(type(v) is float for v in (obs.time, obs.x, obs.y, *obs.readings.values()))

    def test_non_numbers_rejected(self):
        with pytest.raises(rm.DocumentError,
                           match="malformed observation: t must be a number, got true"):
            parse_observation('{"t": true, "readings": {"Fog": "12.5", "Rain": false}}')
        with pytest.raises(rm.DocumentError, match="reading 'Fog' must be a number, got \"12.5\""):
            parse_observation('{"t": 1, "readings": {"Fog": "12.5", "Rain": false}}')

    @pytest.mark.parametrize("value", [True, False, None, "1.5", [1.5], {"v": 1.5}])
    @pytest.mark.parametrize("field", ["t", "x", "y", "Fog"])
    def test_only_json_numbers_accepted(self, field, value):
        doc = {"t": 0, "x": 0, "y": 0, "readings": {"Fog": 30}}
        (doc["readings"] if field == "Fog" else doc)[field] = value
        with pytest.raises(rm.DocumentError, match="malformed observation"):
            parse_observation(json.dumps(doc))

    @pytest.mark.parametrize("t", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(rm.DocumentError, match="malformed observation: t must be finite"):
            parse_observation('{"t": %s, "readings": {}}' % t)

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(rm.DocumentError, match="reading 'Fog' is too large for a float"):
            parse_observation('{"t": 0, "readings": {"Fog": 1%s}}' % ("0" * 400))

    def test_nan_reading_parses_and_is_dropped(self, bundle):
        obs = parse_observation('{"t": 0, "readings": {"Fog": NaN, "Rain": 0.1}}')
        assert math.isnan(obs.readings["Fog"])
        report = step(bundle, obs)
        assert report.dropped_readings == ("Fog",) and report.in_odd
        assert report.evidence == {"Rain": "Rain_light"}

    def test_line_of_an_evicted_entry_is_rendered_whole(self, monkeypatch):
        monkeypatch.setattr(rm, "_MEMO_LIMIT", 2)
        bundle = avp_bundle()
        reports = [step(bundle, Observation(float(t), 0.0, 0.0, {"Fog": fog}))
                   for t, fog in enumerate((30.0, 100.0, 500.0))]
        # the third distinct evidence found the memo full and emptied it
        assert list(bundle._ticks.memo) == [tuple(reports[2].evidence.items())]
        for report in reports + reports:
            line = rm.report_to_json_line(bundle, report)
            assert line == json.dumps(rm.report_to_document(report)) + "\n"

    def test_dropped_names_are_written_as_json_dumps_writes_them(self):
        # names the ODD declares come from the bundle's pre-escaped text, the
        # rest from json.dumps; the line must not tell them apart
        declared = ('Q"uote', "back\\slash", "Nebel\u00e9\u2603")
        odd = two_state_odd(("W0", *declared), ("adequate", "inadequate"))
        net = confidence_templates.build_testing_adequacy_bn(
            confidence_templates.TemplateConfig(feature_names=("W0",)))
        acp = AcpBinding("SnW", confidence_templates.TEST_OBJECTIVE,
                         {"adequate": 1.0, "inadequate": 0.0})
        bundle = make_bundle(odd, net, {"W0": "W0"}, acp)
        names = (*declared, "W0", "ODD", 'Un"known', "\u00fcber\\")
        rng = random.Random(71)
        dropped = set()
        for t in range(80):
            readings = {name: rng.choice((0.5, 7.0, math.nan)) for name in names
                        if rng.random() < 0.7}
            report = step(bundle, Observation(float(t), 0.0, 0.0, readings))
            dropped.update(report.dropped_readings)
            line = rm.report_to_json_line(bundle, report)
            assert line == json.dumps(rm.report_to_document(report)) + "\n"
        assert dropped == set(names)

    def test_roundtrip(self):
        obs = Observation(1.0, 0.0, 0.0, {"Fog": 30.0, "Rain": 0.1})
        assert parse_observation(rm.observation_to_line(obs)) == obs

    def test_report_document_shape(self, bundle):
        report = step(bundle, Observation(0.0, 0.0, 0.0, {"Fog": 30.0}))
        doc = rm.report_to_document(report)
        parsed = json.loads(json.dumps(doc))
        assert parsed["in_odd"] is True
        assert parsed["evidence"] == {"Fog": "Fog_Severity_5"}
        assert parsed["posterior"][ "occurs"] + parsed["posterior"]["not_occurs"] == pytest.approx(1.0)
