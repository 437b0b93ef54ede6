"""Runtime confidence monitor: observations in, posterior reports out.

A model bundle ties an ODD spec to a Bayesian network by binding leaf ODD
classes to network nodes whose states are the class's attribute names. Each
tick discretizes the incoming readings, feeds the resulting states in as
evidence, and reports the posterior over the objective node together with its
mean and variance under the bundle's state values. Ticks are independent: no
state is carried between observations, so a shared bundle may serve many
threads. A tick leaves only its (evidence dict, memo record) pair for the
renderers, stored and read whole, so no thread sees a torn pair.

A tick bisects each reading into the ODD spec's class tables, the ones
``odd_model.discretize`` reads.
Only the bound nodes ever carry evidence, so the network is reduced once per
bundle to the joint table P(objective, bound nodes). A tick indexes the
observed axes, sums the others out and normalizes; a bounded memo keyed by
the evidence keeps one record per assignment, and ``report_to_json_line``
and ``report_to_csv_line`` add to it the part of a report line that depends
only on the evidence. A network whose table would be too large is queried
with ``bayes_core.posterior`` instead, through the same memo.

Readings that leave the ODD are, by default, dropped from the evidence and
flagged; a bundle may instead declare a worst-case state per class to pin
them to.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from . import _base, bayes_core, odd_model
from .bayes_core import BayesNet, EvidenceSet, Posterior
from .confidence_templates import AcpBinding
from .odd_model import Observation, OddSpec, OUT_OF_ODD

DROP = "drop"
WORST_CASE = "worst-case"

_MEMO_LIMIT = 1024  # records kept per bundle; emptied when full
_INF = math.inf
_ALL = slice(None)
_FLOAT = {float}

log = logging.getLogger("odd_assure.runtime_monitor")


class MonitorError(_base.ModelError):
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
    """An ODD spec, a network and the bindings between them, checked on
    construction: a bad binding raises BindingMismatch and an unknown
    out-of-ODD policy DocumentError."""

    odd: OddSpec
    net: BayesNet
    bindings: Mapping[str, str]  # ODD class name -> BN node id
    acp: AcpBinding
    oodd_policy: str = DROP
    worst_states: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_bindings(self)

    @property
    def state_values(self) -> Mapping[str, float]:
        return self.acp.state_values

    @cached_property
    def _ticks(self) -> "_TickTable":
        """What every tick shares, built by the first one."""
        net, objective = self.net, self.acp.objective
        nodes = tuple(sorted(set(self.bindings.values())))
        states = tuple({s: i for i, s in enumerate(net.node(n).states)} | {None: _ALL}
                       for n in nodes)
        # The objective's axis is innermost in memory and first in the view;
        # the order, and so the rounding, of a tick's sums follows this layout.
        joint = bayes_core._joint_table(net, (*nodes, objective))
        if joint is not None:
            joint = np.moveaxis(joint, -1, 0)
        readers = {name: (*table, self.bindings.get(name))
                   for name, table in self.odd._tables.items()}
        evidence_json = {(node, state): f"{json.dumps(node)}: {json.dumps(state)}"
                         for node in nodes for state in net.node(node).states}
        state_json = {state: f"{json.dumps(state)}: " for state in net.node(objective).states}
        class_json = {name: json.dumps(name) for name in self.odd.classes}
        return _TickTable(nodes, states, joint, readers, evidence_json, state_json, class_json,
                          {}, [(None, None)])


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
    if objective is None:
        raise BindingMismatch("neither the ACP nor the network names an objective node")
    missing = set(bundle.net.nodes[objective].states) - set(bundle.acp.state_values)
    if missing:
        raise BindingMismatch(f"state values missing for objective states {sorted(missing)}")


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
    return ModelBundle(
        _load_referenced(odd_model.load_odd_spec, odd_path),
        _load_referenced(bayes_core.load_bn, net_path),
        **parts,
    )


def _load_referenced(load, path: Path):
    """Load a file the manifest names; an unreadable, malformed or invalid
    one is named in the error."""
    try:
        return load(path)
    except (OSError, UnicodeDecodeError, _base.DocumentError) as exc:
        raise DocumentError(f"{path}: {exc}") from exc
    except _base.ModelError as exc:
        raise MonitorError(f"{path}: {exc}") from exc


@_base.document_reader("bundle manifest", DocumentError)
def _read_manifest(manifest, directory: Path) -> tuple[Path, Path, dict]:
    odd_path, net_path = directory / manifest["odd"], directory / manifest["net"]
    json_object = _base.json_object
    acp_doc = json_object(manifest["acp"], "acp")
    state_values = json_object(acp_doc["state_values"], "acp.state_values")
    objective = acp_doc["objective"]  # null: _check_bindings reports the mismatch
    if objective is not None:
        _base.json_scalar(objective, "acp.objective")
    parts = dict(
        bindings=dict(json_object(manifest.get("bindings", {}), "bindings", str)),
        acp=AcpBinding(
            solution_id=_base.json_scalar(acp_doc["solution_id"], "acp.solution_id"),
            objective=objective,
            state_values={k: _base.number(v, f"state value {k!r}")
                          for k, v in state_values.items()},
        ),
        oodd_policy=_base.json_scalar(manifest.get("oodd_policy", DROP), "oodd_policy"),
        worst_states=dict(json_object(manifest.get("worst_states", {}), "worst_states", str)),
    )
    return odd_path, net_path, parts


def make_bundle(odd: OddSpec, net: BayesNet, bindings: Mapping[str, str], acp: AcpBinding,
                oodd_policy: str = DROP, worst_states: Mapping[str, str] | None = None) -> ModelBundle:
    """Assemble a bundle from in-memory parts, copying the two mappings."""
    return ModelBundle(odd, net, dict(bindings), acp, oodd_policy, dict(worst_states or {}))


class _TickTable(NamedTuple):
    """What every tick of one bundle shares.

    ``joint`` is P(objective, *nodes) from ``bayes_core._joint_table``, the
    only copy kept, or None when the bundle is queried through
    ``bayes_core.posterior``. ``states`` maps each bound node's states to
    their indices, and None (no evidence on the node) to all of them, so a
    tick's index takes one lookup per node. ``readers`` maps each ODD class
    with attributes to (points, labels, bound node or None), where (points,
    labels) is the spec's table for the class (see ``odd_model``), so a
    finite reading costs one bisection and one comparison.
    ``evidence_json`` maps each (bound node, state) to its JSON text
    ``"node": "state"``, ``state_json`` each objective state to
    ``"state": `` and ``class_json`` each ODD class name to its JSON string.
    ``memo`` maps the evidence items, in insertion order, to their
    ``_MemoRecord``. ``last`` holds one pair, the latest tick's evidence dict
    and record, which ``step`` replaces with one store.
    It lives on the bundle, not the network, because the mean and variance
    depend on the bundle's state values.
    """

    nodes: tuple[str, ...]
    states: tuple[dict[str | None, int | slice], ...]
    joint: np.ndarray | None
    readers: dict[str, tuple]
    evidence_json: dict[tuple[str, str], str]
    state_json: dict[str, str]
    class_json: dict[str, str]
    memo: dict
    last: list


class _MemoRecord:
    """What one evidence assignment gives. ``key`` is its items in insertion
    order; ``posterior``, ``mean`` and ``variance`` are all None when it has
    ~zero probability; ``json`` and ``csv`` are the parts of a report line
    that follow from the evidence alone, None until ``report_to_json_line``
    and ``report_to_csv_line`` first format them from the record."""

    __slots__ = ("key", "posterior", "mean", "variance", "json", "csv")

    def __init__(self, key: tuple, posterior=None, mean=None, variance=None) -> None:
        self.key, self.posterior, self.mean, self.variance = key, posterior, mean, variance
        self.json = self.csv = None


def _outcome(bundle: ModelBundle, ticks: _TickTable, evidence: dict, key) -> _MemoRecord:
    """Compute and memoize under ``key`` the record for the evidence."""
    objective, joint, memo = bundle.acp.objective, ticks.joint, ticks.memo
    try:
        if joint is None:
            post = bayes_core.posterior(bundle.net, objective, EvidenceSet(evidence))
        else:
            cells = joint[(_ALL, *map(dict.__getitem__, ticks.states,
                                      map(evidence.get, ticks.nodes)))]
            post = bayes_core._normalized(bundle.net.nodes[objective],
                                          cells.reshape(len(cells), -1).sum(axis=1), evidence)
    except bayes_core.ZeroProbabilityEvidence:
        record = _MemoRecord(key)
    else:
        record = _MemoRecord(key, post, *bayes_core.mean_variance(post, bundle.state_values))
    if len(memo) >= _MEMO_LIMIT:
        memo.clear()
    memo[key] = record
    return record


def step(bundle: ModelBundle, obs: Observation) -> ConfidenceReport:
    """Evaluate one observation against the bundle.

    Readings are discretized in class-name order. Those of bound classes
    become evidence; out-of-ODD and defective readings (unknown or
    attribute-less class, NaN or infinite value, ambiguous state) are
    dropped and flagged, or, under the worst-case policy, an out-of-ODD
    reading of a bound class is pinned to its worst state. Only an
    out-of-ODD reading clears ``in_odd``. Evidence with ~zero probability
    yields a degenerate report instead of raising. Its record is left for
    the renderers (see ``_record``).
    """
    ticks = bundle._ticks
    readers, readings = ticks.readers, obs.readings
    evidence: dict[str, str] = {}
    dropped: list[str] = []
    in_odd = True
    for class_name in sorted(readings):
        value = readings[class_name]
        reader = readers.get(class_name)
        if reader is None or not -_INF < value < _INF:
            dropped.append(class_name)
            continue
        points, labels, node_id = reader
        i = bisect_left(points, value)
        state = labels[i][points[i] == value]
        if type(state) is tuple:
            dropped.append(class_name)
        elif state is OUT_OF_ODD:
            in_odd = False
            if node_id is not None and bundle.oodd_policy == WORST_CASE:
                evidence[node_id] = bundle.worst_states[class_name]
            else:
                dropped.append(class_name)
        elif node_id is not None:
            evidence[node_id] = state

    key = tuple(evidence.items())
    record = ticks.memo.get(key) or _outcome(bundle, ticks, evidence, key)
    ticks.last[0] = (evidence, record)
    post = record.posterior
    return ConfidenceReport(obs.time, evidence, post, record.mean, record.variance, in_odd,
                            tuple(dropped), post is None)


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
    last_time = -_INF  # the latest timestamp so far
    for obs in stream:
        time = obs.time
        if not math.isfinite(time):
            raise MonitorError(f"timestamp must be finite, got {time!r}")
        if time < last_time:
            if on_out_of_order == "raise":
                raise OutOfOrderTimestamp(f"time {time} after {last_time}")
            log.warning("out-of-order timestamp %s after %s", time, last_time)
        elif time > last_time:
            last_time = time
        yield step(bundle, obs)


# ---------------------------------------------------------------------------
# Observation stream I/O


@_base.document_reader("observation", DocumentError)
def parse_observation(doc) -> Observation:
    """Read one stream line ``{"t", "x", "y", "readings": {class: value}}``.
    Every value must be a JSON number. ``t`` must be finite; a non-finite
    reading is left for ``step`` to drop."""
    time, x, y = doc["t"], doc.get("x", 0.0), doc.get("y", 0.0)
    if type(time) is not float:
        time = _base.number(time, "t")
    if not -_INF < time < _INF:
        raise ValueError(f"t must be finite, got {time!r}")
    if type(x) is not float:
        x = _base.number(x, "x")
    if type(y) is not float:
        y = _base.number(y, "y")
    readings = doc.get("readings", {})
    if type(readings) is dict and set(map(type, readings.values())) <= _FLOAT:
        readings = readings.copy()
    else:
        readings = {k: v if type(v) is float else _base.number(v, f"reading {k!r}")
                    for k, v in readings.items()}
    return Observation(time, x, y, readings)


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


def _record(ticks: _TickTable, report: ConfidenceReport) -> _MemoRecord:
    """The memo record of the report's evidence: the one ``step`` left with
    the report's own evidence dict, else the memo's for the evidence items,
    else (evicted) a new one made from the report and kept nowhere."""
    evidence, record = ticks.last[0]  # one load: a whole pair, whichever thread stored it
    if evidence is not report.evidence:
        key = tuple(report.evidence.items())
        record = ticks.memo.get(key) or _MemoRecord(key, report.posterior, report.mean,
                                                    report.variance)
    return record


def _json_part(ticks: _TickTable, record: _MemoRecord, report: ConfidenceReport) -> str:
    """The ``evidence`` to ``variance`` part of a JSON line for the record,
    formatted with the bundle's pre-escaped fragments; its numbers are finite
    floats, which ``json.dumps`` spells with ``float.__repr__``."""
    report_to_document(report)  # a traced benchmark pass times serialization from this call
    evidence = ", ".join(map(ticks.evidence_json.__getitem__, record.key))
    post = record.posterior
    if post is None:
        return f', "evidence": {{{evidence}}}, "posterior": null, "mean": null, "variance": null'
    state_json, text = ticks.state_json, float.__repr__
    post = ", ".join([state_json[state] + text(p) for state, p in zip(post.states, post.probs)])
    return (f', "evidence": {{{evidence}}}, "posterior": {{{post}}}, '
            f'"mean": {text(record.mean)}, "variance": {text(record.variance)}')


def report_to_json_line(bundle: ModelBundle, report: ConfidenceReport) -> str:
    """``json.dumps(report_to_document(report))`` and a newline, for a
    report that ``step`` made from ``bundle``.

    The evidence, posterior, mean and variance of a report follow from its
    evidence alone. That part of the line is formatted once per memo record,
    from the record's own evidence items (in insertion order, the order the
    line lists them in), posterior and moments with the bundle's pre-escaped
    node, state and objective-state fragments, and kept in the record; a
    later line formats only ``t``, ``in_odd``, ``dropped_readings`` and
    ``degenerate``. A line whose record has been evicted is formatted the
    same way and not kept. Dropped class names the ODD declares are written
    from the bundle's pre-escaped names.
    """
    ticks = bundle._ticks
    record = _record(ticks, report)
    part = record.json
    if part is None:
        part = record.json = _json_part(ticks, record, report)
    t = report.time
    # json.dumps spells a finite float with float.__repr__
    t = float.__repr__(t) if type(t) is float and -_INF < t < _INF else json.dumps(t)
    dropped = ""
    if report.dropped_readings:
        names = ticks.class_json
        dropped = ", ".join([names.get(n) or json.dumps(n) for n in report.dropped_readings])
    return (
        f'{{"t": {t}{part}, "in_odd": {"true" if report.in_odd else "false"}, '
        f'"dropped_readings": [{dropped}], '
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


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it in a row of several fields."""
    if text.isprintable() and "," not in text and '"' not in text:
        return text
    buffer = io.StringIO()
    csv.writer(buffer).writerow((text, ""))
    return buffer.getvalue()[:-3]  # the separator and the "\r\n" terminator


def _csv_part(record: _MemoRecord) -> tuple[str, str, str]:
    """The quoted ``mean,variance``, ``evidence`` and ``posterior`` fields of
    ``report_to_csv_row`` for the record."""
    # time, in_odd and dropped readings are placeholders these fields do not show
    row = report_to_csv_row(ConfidenceReport(0.0, dict(record.key), record.posterior,
                                             record.mean, record.variance, True, ()))
    return f"{_csv_field(row[2])},{_csv_field(row[3])}", _csv_field(row[5]), _csv_field(row[7])


def report_to_csv_line(bundle: ModelBundle, report: ConfidenceReport) -> str:
    """What ``csv.writer`` writes for ``report_to_csv_row(report)``, for a
    report that ``step`` made from ``bundle``.

    The ``mean``, ``variance``, ``evidence`` and ``posterior`` fields follow
    from the evidence alone. They are taken from ``report_to_csv_row`` of the
    memo record's own evidence once per record and kept in it, quoted, so a
    later row formats only ``t``, ``in_odd``, ``degenerate`` and
    ``dropped_readings``. A row whose record has been evicted is formatted
    the same way and not kept.
    """
    record = _record(bundle._ticks, report)
    if record.csv is None:
        record.csv = _csv_part(record)
    mean_variance, evidence, post = record.csv
    t = report.time
    t = float.__repr__(t) if type(t) is float else _csv_field(repr(t))
    dropped = _csv_field(";".join(report.dropped_readings)) if report.dropped_readings else ""
    return (
        f'{t},{"true" if report.in_odd else "false"},{mean_variance},'
        f'{"true" if report.degenerate else "false"},{evidence},{dropped},{post}\r\n'
    )


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
    number and every ``ticks`` a JSON integer. A time or value that is not
    finite, NaN read from the script or one that overflows, is a BadScript.
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
    for class_name, channel in _base.json_object(config["channels"], "channels", dict).items():
        where = f"channel {class_name!r}"
        segments = channel.get("segments")
        if segments is None:
            segments = [dict(channel, ticks=channel.get("ticks"))]
        values: list[float] = []
        for seg in segments:
            ticks = _base.json_scalar(seg.get("ticks"), f"{where}: ticks", int)
            if ticks < 1:
                raise BadScript(f"{where}: segment needs ticks >= 1")
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
    if not math.isfinite(t0 + (n_ticks - 1) * dt):  # times rise with i, so the last is largest
        raise BadScript(f"the last time, t0 + {n_ticks - 1} * dt, overflows a float")

    rng = random.Random(seed)
    observations = []
    for i in range(n_ticks):
        readings = {}
        for class_name in sorted(series):
            value = series[class_name][i]
            amp = noise_amp[class_name]
            if amp > 0.0:
                value += rng.uniform(-amp, amp)
            if not math.isfinite(value):
                raise BadScript(f"channel {class_name!r}: tick {i} value {value!r} is not finite")
            readings[class_name] = value
        observations.append(Observation(time=t0 + i * dt, x=x, y=y, readings=readings))
    return observations
