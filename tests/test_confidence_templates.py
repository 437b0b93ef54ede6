import itertools
import math
import random
import re

import pytest

from odd_assure import _base, bayes_core, confidence_templates as ct
from odd_assure.confidence_templates import (
    AcpBinding,
    BadThresholds,
    DimMismatch,
    EmptyDataset,
    InvalidConfig,
    KindMismatch,
    LengthMismatch,
    ScenarioSpec,
    TemplateConfig,
    TooFewSamples,
    build_data_appropriateness_bn,
    build_model_robustness_bn,
    build_testing_adequacy_bn,
    metric_to_state,
    model_uncertainty_from_samples,
    scenario_coverage,
)

# aliased so pytest does not collect the library function as a test
distance = ct.test_distance
from odd_assure.odd_model import discretize, parse_odd_spec


def parents_of(net, node):
    return set(net.cpts[node].parent_order)


class TestDataAppropriatenessTemplate:
    def test_default_structure(self):
        net = build_data_appropriateness_bn()
        assert len(net.nodes) == 8
        assert parents_of(net, "DataComp") == {"OddSuff", "DataMetric"}
        assert parents_of(net, "OddSuff") == {"ObjFun", "OddFC"}
        assert parents_of(net, "Feat_i") == {"Feat_1", "Feat_2"}
        assert parents_of(net, "ObjFun") == {"Feat_i"}
        assert net.objective == "DataComp"

    def test_single_feature_collapses_hub(self):
        net = build_data_appropriateness_bn(TemplateConfig(feature_names=("Feat_1",)))
        assert "Feat_i" not in net.nodes
        assert parents_of(net, "ObjFun") == {"Feat_1"}
        assert len(net.nodes) == 6

    def test_wider_feature_layer(self):
        config = TemplateConfig(feature_names=("F_a", "F_b", "F_c"))
        net = build_data_appropriateness_bn(config)
        assert parents_of(net, "Feat_i") == {"F_a", "F_b", "F_c"}

    def test_objective_is_terminal_dag(self):
        net = build_data_appropriateness_bn()
        assert all(src != "DataComp" for src, _ in net.edges)
        order, cycle = _base.dag_order({nid: cpt.parent_order for nid, cpt in net.cpts.items()})
        assert sorted(order) == sorted(net.nodes) and not cycle

    def test_no_features_rejected(self):
        with pytest.raises(InvalidConfig):
            build_data_appropriateness_bn(TemplateConfig(feature_names=()))

    def test_repeated_feature_names_rejected(self):
        with pytest.raises(InvalidConfig, match="^feature names repeat$"):
            build_data_appropriateness_bn(TemplateConfig(feature_names=("F_a", "F_b", "F_a")))


@pytest.mark.parametrize(
    "build", [build_data_appropriateness_bn, build_model_robustness_bn, build_testing_adequacy_bn]
)
def test_feature_layer_is_the_only_wiring_that_varies(build):
    # TemplateConfig: every node but the feature layer is required
    wirings = set()
    for features in (("A",), ("A", "B"), tuple(f"F{i}" for i in range(5))):
        net = build(TemplateConfig(feature_names=features))
        layer = {*features, "Feat_i"}
        assert set(features) <= set(net.nodes)
        wirings.add((frozenset(net.nodes) - layer,
                     frozenset(e for e in net.edges if not layer & set(e))))
    assert len(wirings) == 1


class TestModelRobustnessTemplate:
    def test_structure(self):
        net = build_model_robustness_bn()
        assert parents_of(net, "ModelUnc") == {"DataComp", "BnModelUnc"}
        assert net.objective == "ModelUnc"

    def test_objective_out_degree_zero(self):
        net = build_model_robustness_bn()
        assert all(src != "ModelUnc" for src, _ in net.edges)


class TestTestingAdequacyTemplate:
    def test_structure(self):
        net = build_testing_adequacy_bn()
        assert parents_of(net, "TestUnc") == {"ModelUnc", "TestDist"}
        assert net.objective == "TestUnc"

    def test_training_vs_testing_configs_share_structure(self):
        training = build_testing_adequacy_bn()
        override = {"TestDist": [[0.7, 0.2, 0.1]]}
        testing = build_testing_adequacy_bn(TemplateConfig(cpts=override))
        assert set(training.nodes) == set(testing.nodes)
        assert training.edges == testing.edges
        assert training.cpts["TestDist"].rows.tolist() != testing.cpts["TestDist"].rows.tolist()

    def test_cpt_override_must_normalize(self):
        with pytest.raises(InvalidConfig):
            build_testing_adequacy_bn(TemplateConfig(cpts={"TestDist": [[0.7, 0.2, 0.2]]}))

    @pytest.mark.parametrize("entry", [None, "x"])
    def test_cpt_override_must_be_numbers(self, entry):
        with pytest.raises(InvalidConfig):
            build_testing_adequacy_bn(TemplateConfig(cpts={"TestDist": [[entry, 0.5, 0.5]]}))

    def test_unknown_override_rejected(self):
        with pytest.raises(InvalidConfig):
            build_testing_adequacy_bn(TemplateConfig(cpts={"Ghost": [[0.5, 0.5]]}))

    @pytest.mark.parametrize("n_features", [1, 2, 12])
    def test_preset_rows_match_per_row_formula(self, n_features):
        # goodness of each state, written out independently of the module
        goodness = {
            "Feat_i": (1.0, 0.0), "ObjFun": (1.0, 0.0), "OddFC": (1.0, 0.0),
            "OddSuff": (1.0, 0.0), "DataMetric": (0.0, 0.5, 1.0), "DataComp": (1.0, 0.0),
            "BnModelUnc": (1.0, 0.5, 0.0), "ModelUnc": (1.0, 0.0),
            "TestDist": (1.0, 0.5, 0.0), "TestUnc": (1.0, 0.0),
        }
        features = tuple(f"F{i}" for i in range(n_features))
        goodness.update({f: (1.0, 0.0) for f in features})
        net = build_testing_adequacy_bn(TemplateConfig(feature_names=features))
        for nid, cpt in net.cpts.items():
            if not cpt.parent_order:
                continue
            expected = []
            # first parent most significant, as in the Cpt row layout
            for combo in itertools.product(*(goodness[p] for p in cpt.parent_order)):
                p_good = 0.05 + 0.9 * (sum(combo) / len(combo))
                if len(goodness[nid]) == 2:
                    expected.append((p_good, 1.0 - p_good))
                else:
                    expected.append((p_good, (1.0 - p_good) * 0.6, (1.0 - p_good) * 0.4))
            assert cpt.rows.tolist() == [list(row) for row in expected], nid

    def test_posterior_runs_end_to_end(self):
        net = build_testing_adequacy_bn()
        post = bayes_core.posterior(
            net, "TestUnc", bayes_core.EvidenceSet({"DataMetric": "High", "TestDist": "Low"})
        )
        assert sum(post.probs) == pytest.approx(1.0, abs=1e-9)


class TestScenarioCoverage:
    def test_exact_quarter(self):
        rows = [{"Rain": "Rain_Heavy"}] * 25 + [{"Rain": "Rain_light"}] * 75
        result = scenario_coverage(rows, ScenarioSpec("s", (("Rain", "Rain_Heavy"),)))
        assert result.m == 0.25
        assert (result.n_occurrences, result.n_total) == (25, 100)

    def test_nothing_matches(self):
        rows = [{"Rain": "Rain_light"}] * 10
        result = scenario_coverage(rows, ScenarioSpec("s", (("Rain", "Rain_Heavy"),)))
        assert result.m == 0.0

    def test_conjunction_semantics(self):
        rows = [
            {"Rain": "Rain_Heavy", "Fog": "Fog_Severity_5"},
            {"Rain": "Rain_Heavy", "Fog": "Fog_Severity_1"},
            {"Rain": "Rain_light", "Fog": "Fog_Severity_5"},
        ]
        scenario = ScenarioSpec("s", (("Rain", "Rain_Heavy"), ("Fog", "Fog_Severity_5")))
        assert scenario_coverage(rows, scenario).n_occurrences == 1

    def test_condition_on_a_missing_column(self):
        rows = [{"Rain": "Rain_Heavy", "Fog": "Fog_Severity_5"}] * 3
        scenario = ScenarioSpec("s", (("Rain", "Rain_Heavy"), ("Snow", "Snow_light")))
        with pytest.raises(ct.UnknownScenarioReference, match="the dataset has no column 'Snow'"):
            scenario_coverage(rows, scenario)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            scenario_coverage([], ScenarioSpec("s", (("Rain", "Rain_Heavy"),)))

    def test_empty_conditions_rejected(self):
        with pytest.raises(InvalidConfig):
            ScenarioSpec("s", ())

    def test_matches_linear_scan_on_random_data(self):
        rng = random.Random(41)
        states = ["a", "b", "c"]
        for _ in range(50):
            rows = [
                {"X": rng.choice(states), "Y": rng.choice(states)}
                for _ in range(rng.randint(1, 200))
            ]
            want_x, want_y = rng.choice(states), rng.choice(states)
            scenario = ScenarioSpec("s", (("X", want_x), ("Y", want_y)))
            expected = len([r for r in rows if r["X"] == want_x and r["Y"] == want_y])
            result = scenario_coverage(rows, scenario)
            assert result.n_occurrences == expected
            assert result.m == expected / len(rows)


class TestMetricToState:
    def test_low_bin(self):
        assert metric_to_state(0.25, (0.3, 0.7), ("Low", "Med", "High")) == "Low"

    def test_threshold_goes_up(self):
        assert metric_to_state(0.3, (0.3, 0.7), ("Low", "Med", "High")) == "Med"

    def test_top_bin(self):
        assert metric_to_state(0.9, (0.3, 0.7), ("Low", "Med", "High")) == "High"

    def test_bad_thresholds(self):
        with pytest.raises(BadThresholds):
            metric_to_state(0.5, (0.7, 0.3), ("Low", "Med", "High"))
        with pytest.raises(BadThresholds):
            metric_to_state(0.5, (0.3,), ("Low", "Med", "High"))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_refused(self, value):
        # discretize refuses the same reading with NonFiniteReading
        with pytest.raises(ct.TemplateError, match=f"^metric value {value!r} is not finite$"):
            metric_to_state(value, (0.3, 0.6), ("Low", "Medium", "High"))

    @pytest.mark.parametrize("thresholds", [(math.nan, 0.6), (0.6, math.nan), (0.3, math.inf)])
    def test_non_finite_threshold_is_refused(self, thresholds):
        with pytest.raises(BadThresholds, match="^thresholds must be finite"):
            metric_to_state(0.5, thresholds, ("Low", "Medium", "High"))

    def test_agrees_with_discretize_bins(self):
        # the same bins spelled as an ODD class must discretize identically
        doc = {
            "classes": [
                {
                    "name": "M",
                    "parent": None,
                    "partition": True,
                    "attributes": [
                        {"name": "Low", "unit": "ratio", "interval": "]-, 0.3["},
                        {"name": "Med", "unit": "ratio", "interval": "[0.3, 0.7["},
                        {"name": "High", "unit": "ratio", "interval": "[0.7, +["},
                    ],
                }
            ]
        }
        spec = parse_odd_spec(doc)
        rng = random.Random(43)
        for _ in range(500):
            v = rng.uniform(-0.5, 1.5)
            assert metric_to_state(v, (0.3, 0.7), ("Low", "Med", "High")) == discretize(spec, "M", v)
        for boundary in (0.3, 0.7):
            assert metric_to_state(boundary, (0.3, 0.7), ("Low", "Med", "High")) == discretize(
                spec, "M", boundary
            )


class TestTestDistance:
    @pytest.mark.parametrize(
        "metric,pair",
        [
            ("hamming", ((1, 0, 1), (1, 0, 1))),
            ("manhattan", ((1.0, 2.0), (1.0, 2.0))),
            ("euclidean", ((1.0, 2.0), (1.0, 2.0))),
            ("jaccard", ({1, 2}, {1, 2})),
        ],
    )
    def test_identity(self, metric, pair):
        assert distance(pair[0], pair[1], metric) == 0.0

    def test_hamming_single_difference(self):
        assert distance((1, 0, 1), (1, 1, 1), "hamming") == 1.0

    def test_jaccard_distance_form(self):
        assert distance({1, 2}, {2, 3}, "jaccard") == pytest.approx(1 - 1 / 3)
        assert distance(set(), set(), "jaccard") == 0.0

    def test_manhattan(self):
        assert distance((0.0, 0.0), (3.0, 4.0), "manhattan") == 7.0

    def test_terms_add_left_to_right_on_every_python(self):
        # Python's sum, compensated from 3.12 on, gives 1.0 and sqrt(0.8999999999999999)
        assert distance([0.1] * 10, [0.0] * 10, "manhattan") == 0.9999999999999999
        assert distance([0.3] * 10, [0.0] * 10, "euclidean") == math.sqrt(0.8999999999999998)
        # int terms add as floats: an exact int sum gives 2.0**53 + 2 and 2.0**27 + 2**-25
        assert distance([2**53, 1, 1], [0, 0, 0], "manhattan") == 2.0**53
        assert distance([2**27] + [1] * 8, [0] * 9, "euclidean") == 2.0**27

    def test_euclidean_squared_matches_direct_loop(self):
        rng = random.Random(47)
        for _ in range(200):
            n = rng.randint(1, 8)
            a = [rng.uniform(-5, 5) for _ in range(n)]
            b = [rng.uniform(-5, 5) for _ in range(n)]
            d = distance(a, b, "euclidean")
            assert d * d == pytest.approx(sum((x - y) ** 2 for x, y in zip(a, b)), rel=1e-12)

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            distance({1}, {2}, "euclidean")
        with pytest.raises(KindMismatch):
            distance((1, 2), (1, 2), "jaccard")
        with pytest.raises(KindMismatch, match="^unknown metric 'cosine'$"):
            distance((1, 2), (1, 2), "cosine")

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            distance((1, 2), (1, 2, 3), "hamming")

    def test_symmetry_and_triangle(self):
        rng = random.Random(53)
        for metric in ("hamming", "manhattan", "euclidean"):
            for _ in range(100):
                n = rng.randint(1, 6)
                pts = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(3)]
                d_ab = distance(pts[0], pts[1], metric)
                d_ba = distance(pts[1], pts[0], metric)
                assert d_ab == d_ba
                d_ac = distance(pts[0], pts[2], metric)
                d_cb = distance(pts[2], pts[1], metric)
                assert d_ab <= d_ac + d_cb + 1e-12
        for _ in range(100):
            a = set(rng.sample(range(8), rng.randint(0, 5)))
            b = set(rng.sample(range(8), rng.randint(0, 5)))
            assert distance(a, b, "jaccard") == distance(b, a, "jaccard")


class TestModelUncertainty:
    def test_identical_samples(self):
        assert model_uncertainty_from_samples([(1.0, 2.0), (1.0, 2.0)]) == 0.0

    def test_bernoulli_variance(self):
        assert model_uncertainty_from_samples([(0.0,), (1.0,)]) == 0.25

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            model_uncertainty_from_samples([(1.0,)])

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            model_uncertainty_from_samples([(1.0,), (1.0, 2.0)])

    def test_matches_two_pass_computation(self):
        rng = random.Random(59)
        for _ in range(100):
            n, d = rng.randint(2, 20), rng.randint(1, 5)
            samples = [[rng.gauss(0, 1) for _ in range(d)] for _ in range(n)]
            got = model_uncertainty_from_samples(samples)
            dims = []
            for j in range(d):
                column = [s[j] for s in samples]
                mu = sum(column) / n
                dims.append(sum((x - mu) ** 2 for x in column) / n)
            assert got == pytest.approx(sum(dims) / d, rel=1e-10)


class TestAcpBinding:
    def test_state_values_range_checked(self):
        with pytest.raises(InvalidConfig):
            AcpBinding("Sn8.1", "DataComp", {"complete": 1.5, "incomplete": 0.0})

    def test_config_from_document(self):
        override = {"DataMetric": [[0.1, 0.2, 0.7]]}
        config = TemplateConfig.from_document(
            {"template": "data_appropriateness", "feature_names": ["F1"], "cpts": override}
        )
        assert config == TemplateConfig(feature_names=("F1",), cpts=override)
        net = build_data_appropriateness_bn(config)
        assert net.objective == "DataComp"
        assert net.cpts["DataMetric"].rows.tolist() == override["DataMetric"]
        assert TemplateConfig.from_document({}) == TemplateConfig()

    @pytest.mark.parametrize(
        "keys", [["acp"], ["drop_nodes", "metric_thresholds"], ["cpt_preset", "binding"]]
    )
    def test_config_rejects_unknown_keys(self, keys):
        document = {"feature_names": ["F1"], **dict.fromkeys(keys, 1)}
        with pytest.raises(ct.DocumentError, match=re.escape(f"unknown keys {sorted(keys)}")):
            TemplateConfig.from_document(document)

    def test_build_from_document_dispatch(self):
        net = ct.build_from_document({"template": "model_robustness"})
        assert net.objective == "ModelUnc"
        with pytest.raises(InvalidConfig):
            ct.build_from_document({"template": "mystery"})
        with pytest.raises(ct.DocumentError, match="unknown keys"):
            ct.build_from_document({"template": "testing_adequacy", "cpt_preset": "galactic"})

    @pytest.mark.parametrize("rows, detail", [
        ([["0.5", "0.5"]], "a cpt entry of 'A' must be a number"),
        ([[True, False]], "a cpt entry of 'A' must be a number"),
        ([[None, 1.0]], "a cpt entry of 'A' must be a number"),
        ([[0.5, 10**400]], "a cpt entry of 'A' is too large"),
        ([0.5, 0.5], "'float' object is not iterable"),  # a row that is not a list
    ])
    def test_cpt_entries_must_be_json_numbers(self, rows, detail):
        document = {"template": "testing_adequacy", "feature_names": ["A"], "cpts": {"A": rows}}
        with pytest.raises(_base.DocumentError, match=re.escape(f"malformed template config: {detail}")):
            ct.build_from_document(document)
        with pytest.raises(_base.DocumentError, match=re.escape(f"malformed template config: {detail}")):
            TemplateConfig.from_document(document)

    @pytest.mark.parametrize("document, detail", [
        # each was read as a config: a string as its characters, pairs as an object
        ({"feature_names": "AB"}, 'feature_names must be an array, got "AB"'),
        ({"feature_names": {"A": 1, "B": 2}}, "feature_names must be an array"),
        ({"cpts": [["A", [[0.5, 0.5]]]]}, 'cpts must be an object, got [["A", [[0.5, 0.5]]]]'),
        ({"cpts": []}, "cpts must be an object, got []"),
    ])
    def test_feature_names_must_be_an_array_and_cpts_an_object(self, document, detail):
        document = {"template": "testing_adequacy", **document}
        for read in (TemplateConfig.from_document, ct.build_from_document):
            with pytest.raises(ct.DocumentError,
                               match=re.escape(f"malformed template config: {detail}")):
                read(document)

    @pytest.mark.parametrize(
        "document",
        [
            "[1]",
            "{bad",
            {"template": "data_appropriateness", "feature_names": 5},
            {"template": "data_appropriateness", "cpts": [1]},
        ],
    )
    def test_malformed_document_raises_document_error(self, document):
        with pytest.raises(_base.DocumentError, match="malformed template config"):
            ct.build_from_document(document)
