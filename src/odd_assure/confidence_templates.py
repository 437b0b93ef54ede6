"""Assurance network templates and the metrics that feed them evidence.

Three stacked templates quantify, respectively, how appropriate the training
data is, how robust the model is, and how adequate its testing was. Each
template is a fixed node/edge skeleton whose terminal node is the objective;
the CPT numbers shipped here are illustrative presets ("fixture" provenance)
meant to be replaced by per-project tables or refit from operational data.

Evidence enters through three measured quantities: scenario coverage of a
dataset, dispersion of stochastic prediction samples, and prediction-vs-truth
distance. Each is discretized into node states with half-open,
lower-inclusive bins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import _base, bayes_core
from .bayes_core import BayesNet, BnNode, Cpt, build_net


class TemplateError(_base.ModelError):
    pass


class DocumentError(TemplateError, _base.DocumentError):
    pass


class InvalidConfig(TemplateError):
    pass


class EmptyDataset(TemplateError):
    pass


class BadThresholds(TemplateError):
    pass


class KindMismatch(TemplateError):
    """Metric and operand kinds disagree (sets vs sequences vs vectors)."""


class LengthMismatch(TemplateError):
    pass


class TooFewSamples(TemplateError):
    pass


class DimMismatch(TemplateError):
    pass


class UnknownScenarioReference(TemplateError):
    pass


@dataclass(frozen=True)
class ScenarioSpec:
    """A conjunction of (class, attribute state) pairs describing one
    safety-relevant situation."""

    id: str
    conditions: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.conditions:
            raise InvalidConfig(f"scenario {self.id!r} has no conditions")


class CoverageResult(NamedTuple):
    scenario: str
    n_occurrences: int
    n_total: int
    m: float


@dataclass(frozen=True)
class AcpBinding:
    """Attachment of a network's objective node to a GSN solution, with the
    value each objective state contributes to the confidence mean."""

    solution_id: str
    objective: str
    state_values: Mapping[str, float]

    def __post_init__(self) -> None:
        for state, v in self.state_values.items():
            if not 0.0 <= v <= 1.0:
                raise InvalidConfig(f"state value for {state!r} is {v!r}, outside [0, 1]")


# ---------------------------------------------------------------------------
# Template skeletons

FEATURE_HUB = "Feat_i"
DATA_OBJECTIVE = "DataComp"
MODEL_OBJECTIVE = "ModelUnc"
TEST_OBJECTIVE = "TestUnc"

# (states, goodness per state) for every non-feature template node. Binary
# nodes put their "good" state first; three-valued evidence nodes grade it.
_NODE_PRESETS: dict[str, tuple[tuple[str, ...], tuple[float, ...]]] = {
    FEATURE_HUB: (("adequate", "inadequate"), (1.0, 0.0)),
    "ObjFun": (("satisfied", "unsatisfied"), (1.0, 0.0)),
    "OddFC": (("covered", "uncovered"), (1.0, 0.0)),
    "OddSuff": (("sufficient", "insufficient"), (1.0, 0.0)),
    "DataMetric": (("Low", "Medium", "High"), (0.0, 0.5, 1.0)),
    DATA_OBJECTIVE: (("complete", "incomplete"), (1.0, 0.0)),
    "BnModelUnc": (("Low", "Medium", "High"), (1.0, 0.5, 0.0)),
    MODEL_OBJECTIVE: (("robust", "uncertain"), (1.0, 0.0)),
    "TestDist": (("Low", "Medium", "High"), (1.0, 0.5, 0.0)),
    TEST_OBJECTIVE: (("adequate", "inadequate"), (1.0, 0.0)),
}
_FEATURE_STATES = ("adequate", "inadequate")
_ROOT_PRIORS: dict[str, tuple[float, ...]] = {
    "OddFC": (0.8, 0.2),
    "DataMetric": (0.2, 0.5, 0.3),
    "BnModelUnc": (0.6, 0.3, 0.1),
    "TestDist": (0.5, 0.3, 0.2),
}
_FEATURE_PRIOR = (0.9, 0.1)

_CONFIG_KEYS = {"template", "feature_names", "cpts"}


class TemplateConfig(NamedTuple):
    """Configuration for the template builders.

    ``feature_names`` sets the width of the feature layer, the one part of a
    template's wiring that varies; every other node is required. ``cpts``
    overrides the fixture tables per node (rows in the wiring's parent
    order); its default is an empty read-only mapping, so no two configs
    share a dict.
    """

    feature_names: tuple[str, ...] = ("Feat_1", "Feat_2")
    cpts: Mapping[str, Sequence[Sequence[float]]] = MappingProxyType({})

    @staticmethod
    @_base.document_reader("template config", DocumentError)
    def from_document(document) -> "TemplateConfig":
        """Read ``feature_names`` (a JSON array) and ``cpts`` (a JSON object);
        keys but these and ``template`` are rejected, and so is a CPT entry
        that is not a JSON number."""
        unknown = set(document) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        tables = _base.json_object(document.get("cpts", {}), "cpts")
        cpts = {node: [[_base.number(p, f"a cpt entry of {node!r}") for p in row] for row in rows]
                for node, rows in tables.items()}
        names = document.get("feature_names", ["Feat_1", "Feat_2"])
        return TemplateConfig(_base.json_array(names, "feature_names"), cpts)


def _preset_rows(node: str, parents: Sequence[str]) -> Sequence[Sequence[float]]:
    """Fixture CPT: P(good) = 0.05 + 0.9 * mean parent goodness. Every
    template node with parents is binary."""
    if not parents:
        return (_ROOT_PRIORS.get(node, _FEATURE_PRIOR),)
    # One axis per parent, first parent outermost: the grid flattens in
    # Cpt row order. Summing in parent order matches a per-row sum exactly.
    grids = np.ix_(*(np.asarray(_node_states_goodness(p)[1]) for p in parents))
    p_good = (0.05 + 0.9 * (sum(grids) / len(parents))).ravel()
    return np.column_stack((p_good, 1.0 - p_good))


def _node_states_goodness(node: str) -> tuple[tuple[str, ...], tuple[float, ...]]:
    if node in _NODE_PRESETS:
        return _NODE_PRESETS[node]
    return _FEATURE_STATES, (1.0, 0.0)


def _template_net(config: TemplateConfig, extra_nodes: Sequence[str],
                  extra_edges: Sequence[tuple[str, str]], objective: str) -> BayesNet:
    if not config.feature_names:
        raise InvalidConfig("at least one feature node is required")
    if len(set(config.feature_names)) != len(config.feature_names):
        raise InvalidConfig("feature names repeat")

    features = list(config.feature_names)
    node_ids = list(features)
    edges: list[tuple[str, str]] = []
    if len(features) == 1:
        # Degenerate layer: the single feature feeds the objective function
        # directly, no aggregation hub.
        edges.append((features[0], "ObjFun"))
    else:
        node_ids.append(FEATURE_HUB)
        edges.extend((f, FEATURE_HUB) for f in features)
        edges.append((FEATURE_HUB, "ObjFun"))
    node_ids += ["ObjFun", "OddFC", "OddSuff", "DataMetric", DATA_OBJECTIVE]
    edges += [
        ("ObjFun", "OddSuff"),
        ("OddFC", "OddSuff"),
        ("OddSuff", DATA_OBJECTIVE),
        ("DataMetric", DATA_OBJECTIVE),
    ]
    node_ids += list(extra_nodes)
    edges += list(extra_edges)

    for name in config.cpts:
        if name not in node_ids:
            raise InvalidConfig(f"cpt override for unknown node {name!r}")

    nodes = []
    for nid in node_ids:
        states, _ = _node_states_goodness(nid)
        nodes.append(BnNode(nid, states))
    tables = []
    for nid in node_ids:
        parents = tuple(src for src, dst in edges if dst == nid)
        rows = config.cpts[nid] if nid in config.cpts else _preset_rows(nid, parents)
        tables.append((nid, parents, rows))
    try:
        return build_net(nodes, edges, Cpt._many(tables), objective=objective)
    except bayes_core.BayesError as exc:
        raise InvalidConfig(str(exc)) from exc


def build_data_appropriateness_bn(config: TemplateConfig | None = None) -> BayesNet:
    """Network quantifying dataset completeness for the safety objective.

    Features aggregate into the objective function node; ODD functional
    coverage and the objective function feed ODD sufficiency, which combines
    with the scenario-coverage metric into the DataComp objective.
    """
    return _template_net(config or TemplateConfig(), (), (), DATA_OBJECTIVE)


def build_model_robustness_bn(config: TemplateConfig | None = None) -> BayesNet:
    """Data-appropriateness network extended with the sampled model
    uncertainty node; objective is ModelUnc."""
    return _template_net(
        config or TemplateConfig(),
        ("BnModelUnc", MODEL_OBJECTIVE),
        ((DATA_OBJECTIVE, MODEL_OBJECTIVE), ("BnModelUnc", MODEL_OBJECTIVE)),
        MODEL_OBJECTIVE,
    )


def build_testing_adequacy_bn(config: TemplateConfig | None = None) -> BayesNet:
    """Model-robustness network extended with the test-distance node;
    objective is TestUnc."""
    return _template_net(
        config or TemplateConfig(),
        ("BnModelUnc", MODEL_OBJECTIVE, "TestDist", TEST_OBJECTIVE),
        (
            (DATA_OBJECTIVE, MODEL_OBJECTIVE),
            ("BnModelUnc", MODEL_OBJECTIVE),
            (MODEL_OBJECTIVE, TEST_OBJECTIVE),
            ("TestDist", TEST_OBJECTIVE),
        ),
        TEST_OBJECTIVE,
    )


TEMPLATE_BUILDERS = {
    "data_appropriateness": build_data_appropriateness_bn,
    "model_robustness": build_model_robustness_bn,
    "testing_adequacy": build_testing_adequacy_bn,
}


@_base.document_reader("template config", DocumentError)
def build_from_document(document) -> BayesNet:
    """Build the template a config document names (its ``template`` field)."""
    name = document.get("template")
    if name not in TEMPLATE_BUILDERS:
        raise InvalidConfig(
            f"template must be one of {sorted(TEMPLATE_BUILDERS)}, got {name!r}"
        )
    return TEMPLATE_BUILDERS[name](TemplateConfig.from_document(document))


# ---------------------------------------------------------------------------
# Evidence metrics


def scenario_coverage(
    records: Sequence[Mapping[str, str]], scenario: ScenarioSpec
) -> CoverageResult:
    """Fraction of dataset rows matching every condition of the scenario.

    The dataset's columns are the keys of its first row (every row has the
    header's keys); a condition on any other class raises
    UnknownScenarioReference."""
    if not records:
        raise EmptyDataset("coverage of an empty dataset is undefined")
    for cls, _ in scenario.conditions:
        if cls not in records[0]:
            raise UnknownScenarioReference(
                f"scenario {scenario.id!r}: the dataset has no column {cls!r}")
    hits = 0
    for row in records:
        if all(row.get(cls) == state for cls, state in scenario.conditions):
            hits += 1
    return CoverageResult(
        scenario=scenario.id, n_occurrences=hits, n_total=len(records), m=hits / len(records)
    )


def metric_to_state(
    value: float, thresholds: Sequence[float], states: Sequence[str]
) -> str:
    """Discretize a metric value into half-open, lower-inclusive bins.

    A value equal to a threshold belongs to the bin above it, matching the
    bracket convention of the ODD interval grammar. A NaN or infinite
    threshold raises BadThresholds, and such a value a TemplateError, as
    ``odd_model.discretize`` refuses such a reading.
    """
    if len(states) != len(thresholds) + 1:
        raise BadThresholds(f"{len(states)} states need {len(states) - 1} thresholds")
    if not all(map(math.isfinite, thresholds)):
        raise BadThresholds(f"thresholds must be finite, not {list(thresholds)!r}")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise BadThresholds("thresholds must be strictly increasing")
    if not math.isfinite(value):
        raise TemplateError(f"metric value {value!r} is not finite")
    for i, t in enumerate(thresholds):
        if value < t:
            return states[i]
    return states[-1]


def test_distance(pred, truth, metric: str) -> float:
    """Distance between a prediction and its ground truth.

    ``jaccard`` compares sets (distance form, 0 for two empty sets);
    ``hamming`` counts differing positions of equal-length sequences;
    ``manhattan`` and ``euclidean`` add over numeric vectors left to right
    from 0.0, so int terms add as floats, rounded at each step.
    """
    metric = metric.lower()
    if metric == "jaccard":
        if not isinstance(pred, (set, frozenset)) or not isinstance(truth, (set, frozenset)):
            raise KindMismatch("jaccard distance needs two sets")
        union = pred | truth
        if not union:
            return 0.0
        return 1.0 - len(pred & truth) / len(union)
    if isinstance(pred, (set, frozenset)) or isinstance(truth, (set, frozenset)):
        raise KindMismatch(f"{metric} distance needs sequences, not sets")
    if len(pred) != len(truth):
        raise LengthMismatch(f"lengths differ: {len(pred)} vs {len(truth)}")
    if metric == "hamming":
        return float(sum(1 for a, b in zip(pred, truth) if a != b))
    if metric in ("manhattan", "l1"):
        return float(reduce(add, (abs(a - b) for a, b in zip(pred, truth)), 0.0))
    if metric in ("euclidean", "l2"):
        return math.sqrt(reduce(add, ((a - b) ** 2 for a, b in zip(pred, truth)), 0.0))
    raise KindMismatch(f"unknown metric {metric!r}")


def model_uncertainty_from_samples(samples: Sequence[Sequence[float]]) -> float:
    """Mean over output dimensions of the per-dimension population variance
    of stochastic prediction samples (e.g. dropout-enabled forward passes,
    which are produced outside this toolkit and supplied as data)."""
    if len(samples) < 2:
        raise TooFewSamples("need at least 2 samples")
    widths = {len(s) for s in samples}
    if len(widths) != 1:
        raise DimMismatch(f"sample dimensions differ: {sorted(widths)}")
    arr = np.asarray(samples, dtype=float)
    return float(arr.var(axis=0, ddof=0).mean())
