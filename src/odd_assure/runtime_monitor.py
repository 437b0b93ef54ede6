"""Runtime confidence monitor: observations in, posterior reports out.

A model bundle ties an ODD spec to a Bayesian network by binding leaf ODD
classes to network nodes whose states are the class's attribute names. Each
tick discretizes the incoming readings, feeds the resulting states in as
evidence, and reports the posterior over the objective node together with its
mean and variance under the bundle's state values. Ticks are independent: no
state is carried between observations, so a shared bundle may serve many
threads.

A tick reads each reading's state from the ODD spec's compiled class
tables. Only the bound nodes ever carry evidence, so the network is reduced
once per bundle to the joint table P(objective, bound nodes). A tick indexes
the observed axes, sums the others out and normalizes; a bounded memo keyed
by the evidence keeps each distinct outcome, and ``report_to_json_line``
adds to it the part of a report line that depends only on the evidence. A
network whose table would be too large is queried with
``bayes_core.posterior`` instead, through the same memo.

Readings that leave the ODD are, by default, dropped from the evidence and
flagged; a bundle may instead declare a worst-case state per class to pin
them to.
"""

from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from . import _base, bayes_core, odd_model
from .bayes_core import BayesNet, EvidenceSet, Posterior
from .confidence_templates import AcpBinding
from .odd_model import Observation, OddSpec, OUT_OF_ODD

DROP = "drop"
WORST_CASE = "worst-case"

_MEMO_LIMIT = 1024  # outcomes kept per bundle; emptied when full

log = logging.getLogger("odd_assure.runtime_monitor")


class MonitorError(Exception):
    pass


class DocumentError(MonitorError, _base.DocumentError):
    pass


class BindingMismatch(MonitorError):
    """A binding points at a missing node or the state sets disagree."""


class OutOfOrderTimestamp(MonitorError):
    pass


class BadScript(MonitorError, _base.DocumentError):
    pass


@dataclass(frozen=True)
class ModelBundle:
    odd: OddSpec
    net: BayesNet
    bindings: Mapping[str, str]  # ODD class name -> BN node id
    acp: AcpBinding
    oodd_policy: str = DROP
    worst_states: Mapping[str, str] = field(default_factory=dict)
    # Filled by the first step()
    _ticks: "_TickTable | None" = field(default=None, init=False, repr=False, compare=False)

    @property
    def state_values(self) -> Mapping[str, float]:
        return self.acp.state_values


class ConfidenceReport(NamedTuple):
    time: float
    evidence: dict[str, str]
    posterior: Posterior | None
    mean: float | None
    variance: float | None
    in_odd: bool
    dropped_readings: tuple[str, ...]
    degenerate: bool = False


def _check_bindings(bundle: ModelBundle) -> None:
    for class_name, node_id in bundle.bindings.items():
        cls = bundle.odd.classes.get(class_name)
        if cls is None:
            raise BindingMismatch(f"binding names unknown ODD class {class_name!r}")
        if node_id not in bundle.net.nodes:
            raise BindingMismatch(f"binding for {class_name!r} names unknown node {node_id!r}")
        if node_id == bundle.acp.objective:
            raise BindingMismatch(
                f"binding for {class_name!r} names the objective node {node_id!r}"
            )
        attr_names = {a.name for a in cls.attributes}
        node_states = set(bundle.net.nodes[node_id].states)
        if attr_names != node_states:
            raise BindingMismatch(
                f"states of node {node_id!r} {sorted(node_states)} do not match "
                f"attributes of class {class_name!r} {sorted(attr_names)}"
            )
    if bundle.oodd_policy not in (DROP, WORST_CASE):
        raise DocumentError(f"unknown out-of-ODD policy {bundle.oodd_policy!r}")
    if bundle.oodd_policy == WORST_CASE:
        for class_name in bundle.bindings:
            worst = bundle.worst_states.get(class_name)
            if worst is None:
                raise BindingMismatch(f"worst-case policy needs a worst state for {class_name!r}")
            if worst not in {a.name for a in bundle.odd.classes[class_name].attributes}:
                raise BindingMismatch(f"worst state {worst!r} is not a state of {class_name!r}")
    objective = bundle.acp.objective
    if objective != bundle.net.objective:
        raise BindingMismatch(
            f"ACP objective {objective!r} is not the net objective {bundle.net.objective!r}"
        )
    missing = set(bundle.net.nodes[objective].states) - set(bundle.acp.state_values)
    if missing:
        raise BindingMismatch(f"state values missing for objective states {sorted(missing)}")


def _object(value, what: str, values: type = object) -> dict:
    """``value`` if it is a JSON object whose values are all ``values``."""
    if not isinstance(value, dict) or not all(isinstance(v, values) for v in value.values()):
        kind = "an object" if values is object else f"an object of {values.__name__} values"
        raise DocumentError(f"malformed bundle manifest: {what} must be {kind}")
    return value


def load_bundle(manifest_path) -> ModelBundle:
    """Load a bundle manifest and the files it references.

    Manifest schema: ``{"odd": path, "net": path, "bindings": {class: node},
    "acp": {solution_id, objective, state_values}, "oodd_policy": "drop" |
    "worst-case", "worst_states": {class: state}}``. Relative paths resolve
    against the manifest's directory. All cross-references are validated
    before the immutable bundle is returned.
    """
    manifest_path = Path(manifest_path)
    odd_path, net_path, parts = _read_manifest(
        manifest_path.read_text(encoding="utf-8"), manifest_path.parent
    )
    bundle = ModelBundle(
        _load_referenced(odd_model.load_odd_spec, odd_path),
        _load_referenced(bayes_core.load_bn, net_path),
        **parts,
    )
    _check_bindings(bundle)
    return bundle


def _load_referenced(load, path: Path):
    """Load a file the manifest names; an unreadable, malformed or invalid
    one is named in the error."""
    try:
        return load(path)
    except (OSError, UnicodeDecodeError, _base.DocumentError) as exc:
        raise DocumentError(f"{path}: {exc}") from exc
    except (odd_model.OddModelError, bayes_core.BayesError) as exc:
        raise MonitorError(f"{path}: {exc}") from exc


@_base.document_reader("bundle manifest", DocumentError)
def _read_manifest(manifest, directory: Path) -> tuple[Path, Path, dict]:
    odd_path, net_path = directory / manifest["odd"], directory / manifest["net"]
    acp_doc = _object(manifest["acp"], "acp")
    state_values = _object(acp_doc["state_values"], "acp.state_values")
    parts = dict(
        bindings=dict(_object(manifest.get("bindings", {}), "bindings", str)),
        acp=AcpBinding(
            solution_id=acp_doc["solution_id"],
            objective=acp_doc["objective"],
            state_values={k: _base.number(v, f"state value {k!r}")
                          for k, v in state_values.items()},
        ),
        oodd_policy=manifest.get("oodd_policy", DROP),
        worst_states=dict(_object(manifest.get("worst_states", {}), "worst_states", str)),
    )
    return odd_path, net_path, parts


def make_bundle(odd: OddSpec, net: BayesNet, bindings: Mapping[str, str], acp: AcpBinding,
                oodd_policy: str = DROP, worst_states: Mapping[str, str] | None = None) -> ModelBundle:
    """Assemble and validate a bundle from in-memory parts."""
    bundle = ModelBundle(odd, net, dict(bindings), acp, oodd_policy, dict(worst_states or {}))
    _check_bindings(bundle)
    return bundle


@dataclass(frozen=True)
class _TickTable:
    """What every tick of one bundle shares.

    ``joint`` is P(objective, *nodes) from ``bayes_core._joint_table``, the
    only copy kept, or None when the bundle is queried through
    ``bayes_core.posterior``. ``states`` maps each bound node's states to
    their indices. ``readers`` maps each ODD class to its compiled table
    (None without attributes) and its bound node (None if unbound), so a
    tick resolves a reading with one lookup. ``memo`` maps the evidence
    items, in insertion order, to [posterior, mean, variance, line part]:
    the first three all None for a degenerate tick, the last None until
    ``report_to_json_line`` fills it.
    It lives on the bundle, not the network, because the mean and variance
    depend on the bundle's state values.
    """

    nodes: tuple[str, ...]
    states: tuple[dict[str, int], ...]
    joint: np.ndarray | None
    readers: dict[str, tuple]
    memo: dict


def _tick_table(bundle: ModelBundle) -> _TickTable:
    table = bundle._ticks
    if table is None:
        net, objective = bundle.net, bundle.acp.objective
        nodes = tuple(sorted(set(bundle.bindings.values())))
        states = tuple({s: i for i, s in enumerate(net.node(n).states)} for n in nodes)
        # The objective's axis is innermost in memory and first in the view;
        # the order, and so the rounding, of a tick's sums follows this layout.
        joint = bayes_core._joint_table(net, (*nodes, objective))
        if joint is not None:
            joint = np.moveaxis(joint, -1, 0)
        readers = {name: (compiled, bundle.bindings.get(name))
                   for name, compiled in odd_model._compiled(bundle.odd).items()}
        table = _TickTable(nodes, states, joint, readers, {})
        object.__setattr__(bundle, "_ticks", table)
    return table


def _outcome(bundle: ModelBundle, table: _TickTable, evidence: dict[str, str]) -> list:
    """The memo entry [posterior, mean, variance, line part] for the
    evidence; the first three are None when it has ~zero probability."""
    key = tuple(evidence.items())
    outcome = table.memo.get(key)
    if outcome is None:
        objective = bundle.acp.objective
        if table.joint is None:
            try:
                post = bayes_core.posterior(bundle.net, objective, EvidenceSet(evidence))
            except bayes_core.ZeroProbabilityEvidence:
                post = None
        else:
            cells = table.joint[(slice(None), *(
                index[evidence[node]] if node in evidence else slice(None)
                for node, index in zip(table.nodes, table.states)
            ))]
            unnormalized = cells.reshape(len(cells), -1).sum(axis=1)
            z = float(unnormalized.sum())
            post = None if z <= bayes_core.ZERO_EVIDENCE_TOL else Posterior(
                objective, bundle.net.nodes[objective].states, tuple((unnormalized / z).tolist())
            )
        outcome = [None, None, None, None] if post is None else [
            post, *bayes_core.mean_variance(post, bundle.state_values), None
        ]
        if len(table.memo) >= _MEMO_LIMIT:
            table.memo.clear()
        table.memo[key] = outcome
    return outcome


def step(bundle: ModelBundle, obs: Observation) -> ConfidenceReport:
    """Evaluate one observation against the bundle.

    Readings are discretized in class-name order. Those of bound classes
    become evidence; out-of-ODD and defective readings (unknown or
    attribute-less class, NaN or infinite value, ambiguous state) are
    dropped and flagged, or, under the worst-case policy, an out-of-ODD
    reading of a bound class is pinned to its worst state. Only an
    out-of-ODD reading clears ``in_odd``. Evidence with ~zero probability
    yields a degenerate report instead of raising.
    """
    ticks = _tick_table(bundle)
    readers, readings = ticks.readers, obs.readings
    worst_case = bundle.oodd_policy == WORST_CASE
    evidence: dict[str, str] = {}
    dropped: list[str] = []
    in_odd = True
    for class_name in sorted(readings):
        table, node_id = readers.get(class_name, (None, None))
        state = None if table is None else table.label(readings[class_name])
        if state is None or type(state) is tuple:
            dropped.append(class_name)
            continue
        if state is OUT_OF_ODD:
            in_odd = False
            if worst_case and node_id is not None:
                evidence[node_id] = bundle.worst_states[class_name]
            else:
                dropped.append(class_name)
        elif node_id is not None:
            evidence[node_id] = state

    post, mean, variance, _ = _outcome(bundle, ticks, evidence)
    return ConfidenceReport(obs.time, evidence, post, mean, variance, in_odd, tuple(dropped),
                            post is None)


def run(
    bundle: ModelBundle,
    stream: Iterable[Observation],
    on_out_of_order: str = "raise",
) -> Iterator[ConfidenceReport]:
    """One report per observation, in input order; ticks are independent.

    Timestamps must be finite, or MonitorError is raised whatever
    ``on_out_of_order`` says. They must also be non-decreasing; a violation
    raises OutOfOrderTimestamp or, with ``on_out_of_order="warn"``, is passed
    through untouched.
    """
    if on_out_of_order not in ("raise", "warn"):
        raise MonitorError(f"on_out_of_order must be 'raise' or 'warn', got {on_out_of_order!r}")
    last_time = None
    for obs in stream:
        if not math.isfinite(obs.time):
            raise MonitorError(f"timestamp must be finite, got {obs.time!r}")
        if last_time is not None and obs.time < last_time:
            if on_out_of_order == "raise":
                raise OutOfOrderTimestamp(f"time {obs.time} after {last_time}")
            log.warning("out-of-order timestamp %s after %s", obs.time, last_time)
        last_time = obs.time if last_time is None else max(last_time, obs.time)
        yield step(bundle, obs)


# ---------------------------------------------------------------------------
# Observation stream I/O


@_base.document_reader("observation", DocumentError)
def parse_observation(doc) -> Observation:
    """Read one stream line ``{"t", "x", "y", "readings": {class: value}}``.
    Every value must be a JSON number. ``t`` must be finite; a non-finite
    reading is left for ``step`` to drop."""
    time = doc["t"]
    if type(time) not in _base.NUMBER_TYPES or not -math.inf < time < math.inf:
        raise ValueError(f"t must be finite, got {time!r}")
    return Observation(
        time=_base.number(time, "t"),
        x=_base.number(doc.get("x", 0.0), "x"),
        y=_base.number(doc.get("y", 0.0), "y"),
        readings={
            k: v if type(v) is float else _base.number(v, f"reading {k!r}")
            for k, v in doc.get("readings", {}).items()
        },
    )


def observation_to_line(obs: Observation) -> str:
    return json.dumps(
        {"t": obs.time, "x": obs.x, "y": obs.y, "readings": dict(obs.readings)}
    )


def report_to_document(report: ConfidenceReport) -> dict:
    return {
        "t": report.time,
        "evidence": report.evidence,
        "posterior": report.posterior.as_dict() if report.posterior else None,
        "mean": report.mean,
        "variance": report.variance,
        "in_odd": report.in_odd,
        "dropped_readings": list(report.dropped_readings),
        "degenerate": report.degenerate,
    }


def report_to_json_line(bundle: ModelBundle, report: ConfidenceReport) -> str:
    """``json.dumps(report_to_document(report))`` and a newline, for a
    report that ``step`` made from ``bundle``.

    The evidence, posterior, mean and variance of a report follow from its
    evidence alone. That part of the line is cut from the first line with
    the same evidence items, in the same insertion order (the order the line
    lists them in), and kept in the bundle's memo entry for that evidence,
    so a later line formats only ``t``, ``in_odd``, ``dropped_readings`` and
    ``degenerate``. A line whose entry has been evicted is rendered whole.
    """
    entry = _tick_table(bundle).memo.get(tuple(report.evidence.items()))
    middle = None if entry is None else entry[3]
    if middle is None:
        line = json.dumps(report_to_document(report))
        if entry is not None:
            # t is a number, so the first ", " ends it; "in_odd" is the first
            # key after variance, and no later value can hold it unescaped.
            entry[3] = line[line.index(", "):line.rindex(', "in_odd": ')]
        return line + "\n"
    t = report.time
    # json.dumps spells a finite float with float.__repr__
    t = float.__repr__(t) if type(t) is float and -math.inf < t < math.inf else json.dumps(t)
    dropped = json.dumps(list(report.dropped_readings)) if report.dropped_readings else "[]"
    return (
        f'{{"t": {t}{middle}, "in_odd": {"true" if report.in_odd else "false"}, '
        f'"dropped_readings": {dropped}, '
        f'"degenerate": {"true" if report.degenerate else "false"}}}\n'
    )


REPORT_CSV_COLUMNS = (
    "t",
    "in_odd",
    "mean",
    "variance",
    "degenerate",
    "evidence",
    "dropped_readings",
    "posterior",
)


def report_to_csv_row(report: ConfidenceReport) -> list[str]:
    post = report.posterior
    return [
        repr(report.time),
        str(report.in_odd).lower(),
        "" if report.mean is None else f"{report.mean:.6f}",
        "" if report.variance is None else f"{report.variance:.6f}",
        str(report.degenerate).lower(),
        ";".join(f"{k}={v}" for k, v in sorted(report.evidence.items())),
        ";".join(report.dropped_readings),
        "" if post is None else ";".join(
            f"{s}={p:.6f}" for s, p in zip(post.states, post.probs)
        ),
    ]


# ---------------------------------------------------------------------------
# Synthetic traces (stands in for a live simulation feed)


@_base.document_reader("scenario script", BadScript)
def synth_trace(config, seed: int = 0) -> list[Observation]:
    """Generate a deterministic observation trace from a scenario script.

    Script schema: ``{"t0": s, "dt": s, "x": v, "y": v, "channels": {class:
    {"segments": [{"mode": "const"|"ramp", ...fields, "ticks": n}], "noise":
    amplitude}}}``. Ramps hit their endpoints exactly; noise adds a uniform
    [-amplitude, amplitude] term drawn from the seeded generator. All
    channels must cover the same number of ticks. Every value must be a JSON
    number and every ``ticks`` a JSON integer.
    """
    if not config["channels"]:
        raise BadScript("script declares no channels")

    t0, dt, x, y = (_base.number(config.get(name, default), name)
                    for name, default in (("t0", 0.0), ("dt", 1.0), ("x", 0.0), ("y", 0.0)))
    if not all(map(math.isfinite, (t0, dt, x, y))):
        raise BadScript("t0, dt, x and y must be finite")
    if dt <= 0:
        raise BadScript("dt must be positive")

    series: dict[str, list[float]] = {}
    noise_amp: dict[str, float] = {}
    for class_name, channel in config["channels"].items():
        where = f"channel {class_name!r}"
        segments = channel.get("segments")
        if segments is None:
            segments = [dict(channel, ticks=channel.get("ticks"))]
        values: list[float] = []
        for seg in segments:
            ticks = seg.get("ticks")
            if type(ticks) is not int or ticks < 1:
                raise BadScript(f"channel {class_name!r}: segment needs integer ticks >= 1")
            mode = seg.get("mode", "const")
            if mode == "const":
                values.extend([_base.number(seg["value"], f"{where}: value")] * ticks)
            elif mode == "ramp":
                start, end = (_base.number(seg[k], f"{where}: {k}") for k in ("start", "end"))
                if ticks == 1:
                    values.append(start)
                else:
                    step_size = (end - start) / (ticks - 1)
                    values.extend(start + i * step_size for i in range(ticks - 1))
                    values.append(end)
            else:
                raise BadScript(f"channel {class_name!r}: unknown mode {mode!r}")
        series[class_name] = values
        amp = _base.number(channel.get("noise", 0.0), f"{where}: noise")
        if not 0 <= amp < math.inf:
            raise BadScript(f"channel {class_name!r}: noise amplitude must be finite and >= 0")
        noise_amp[class_name] = amp

    lengths = {len(v) for v in series.values()}
    if len(lengths) != 1:
        raise BadScript(f"channels cover different tick counts: {sorted(lengths)}")
    n_ticks = lengths.pop()

    rng = random.Random(seed)
    observations = []
    for i in range(n_ticks):
        readings = {}
        for class_name in sorted(series):
            value = series[class_name][i]
            amp = noise_amp[class_name]
            if amp > 0.0:
                value += rng.uniform(-amp, amp)
            readings[class_name] = value
        observations.append(Observation(time=t0 + i * dt, x=x, y=y, readings=readings))
    return observations
