"""Learn refined ODD attribute boundaries from labeled operational traces.

Traces label each sampled operating point Yes (safe inside the ODD) or No
(exit-ODD behaviour observed). A binary CART tree with Gini impurity fits
those labels; its leaves convert to IF/THEN rules whose Yes regions, projected
per feature, propose updated in-ODD intervals. Proposals are reports, never
in-place spec edits.

Fitting is deterministic: the tree depends only on the multiset of records,
thresholds are midpoints between consecutive distinct values, and ties go to
the lexicographically smaller feature, then the lower threshold.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from . import _base
from .odd_model import Interval, OddSpec, format_interval

YES = "Yes"
NO = "No"


class RefinementError(_base.ModelError):
    pass


class DocumentError(RefinementError, _base.DocumentError):
    pass


class TooFewRecords(RefinementError, _base.DocumentError):
    pass


class MissingFeature(RefinementError):
    pass


class UnknownFeature(RefinementError):
    pass


@dataclass(frozen=True)
class TraceRecord:
    features: Mapping[str, float]
    label: str

    def __post_init__(self) -> None:
        if self.label not in (YES, NO):
            raise DocumentError(f"label must be Yes or No, got {self.label!r}")


class Trace(Sequence[TraceRecord]):
    """Trace rows as columns: a float matrix ``x`` over the sorted feature
    ``names``, and the Yes/No ``labels``; a row reads as a :class:`TraceRecord`.
    :func:`parse_trace` and :meth:`from_records` build and check traces."""

    def __init__(self, names: tuple[str, ...], x: np.ndarray, labels: list[str]):
        self.names, self.x, self.labels = names, x, labels

    @classmethod
    def from_records(cls, records: Sequence[TraceRecord]) -> "Trace":
        """The columns of ``records``, which must share one feature set."""
        names = sorted(records[0].features) if len(records) else []
        if any(sorted(rec.features) != names for rec in records):
            raise DocumentError("records disagree on the feature set")
        x = np.array([[r.features[n] for n in names] for r in records], dtype=float)
        return cls(tuple(names), x.reshape(len(records), len(names)), [r.label for r in records])

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Trace(self.names, self.x[i], self.labels[i])
        return TraceRecord(dict(zip(self.names, self.x[i].tolist())), self.labels[i])


class Leaf(NamedTuple):
    label: str
    n_yes: int
    n_no: int


class Split(NamedTuple):
    feature: str
    threshold: float
    left: Union["Split", Leaf]   # feature <= threshold
    right: Union["Split", Leaf]  # feature > threshold


class DecisionTree(NamedTuple):
    root: Union[Split, Leaf]
    feature_names: tuple[str, ...]
    constant_features: bool = False  # impure root that no split could separate


class Rule(NamedTuple):
    """Conjunction of threshold tests with a Yes/No outcome; one per leaf."""

    conjuncts: tuple[tuple[str, str, float], ...]  # (feature, "<=" or ">", threshold)
    outcome: str


class BoundaryProposal(NamedTuple):
    class_name: str
    current: tuple[Interval, ...]
    proposed: tuple[Interval, ...]


class RefinementReport(NamedTuple):
    proposals: tuple[BoundaryProposal, ...]
    yes_regions: tuple[Rule, ...]  # full conjunctive regions, kept for audit
    exit_everywhere: bool


def _gini(n_yes, n_no):
    """Gini impurity of non-empty counts, for ints or element-wise for
    integer arrays, with the same float operations either way."""
    total = n_yes + n_no
    p_yes = n_yes / total
    p_no = n_no / total
    return 1.0 - p_yes * p_yes - p_no * p_no


def _majority(n_yes: int, n_no: int) -> str:
    # Tie goes to No: an undecided region is treated as exit-ODD.
    return YES if n_yes > n_no else NO


def fit_tree(records: Sequence[TraceRecord], max_depth: int = 6, min_leaf: int = 20) -> DecisionTree:
    """Fit a binary CART classifier over the trace records.

    Splitting stops at ``max_depth``, when a side would fall under
    ``min_leaf`` records, or at zero impurity. A root that is impure but
    admits no valid split becomes a single majority leaf with the
    ``constant_features`` flag raised. Records not in a :class:`Trace` are
    converted by :meth:`Trace.from_records`.
    """
    if min_leaf < 1 or max_depth < 0:
        raise RefinementError("max_depth must be >= 0 and min_leaf >= 1")
    if len(records) < 2 * min_leaf:
        raise TooFewRecords(f"{len(records)} records cannot fill two leaves of {min_leaf}")
    trace = records if isinstance(records, Trace) else Trace.from_records(records)

    # The tree depends only on the multiset of records: each split is scored
    # from sorted column values and whole-run Yes counts, so input order is kept.
    names, x = trace.names, trace.x
    y = np.array([1 if label == YES else 0 for label in trace.labels], dtype=int)

    # An explicit stack keeps deep trees clear of the recursion limit. grow
    # returns a leaf, or a split's tasks: its (feature, threshold) join, which
    # joins the two subtrees last built, then its right and left subtrees.
    def grow(idx: np.ndarray, depth: int):
        labels = y[idx]
        n_yes = int(labels.sum())
        n_no = len(idx) - n_yes
        impurity = _gini(n_yes, n_no)
        if impurity == 0.0 or depth >= max_depth:
            return Leaf(_majority(n_yes, n_no), n_yes, n_no)
        best = None  # (weighted impurity, feature pos, threshold)
        for pos in range(len(names)):
            found = _best_threshold(x[idx, pos], labels, n_yes, impurity, min_leaf)
            if found is not None and (best is None or found[0] < best[0]):
                best = (found[0], pos, found[1])
        if best is None:
            return Leaf(_majority(n_yes, n_no), n_yes, n_no)
        _, pos, threshold = best
        mask = x[idx, pos] <= threshold
        return [(names[pos], float(threshold)), (idx[~mask], depth + 1), (idx[mask], depth + 1)]

    built: list = []
    todo: list = [(np.arange(len(y)), 0)]
    while todo:
        task = todo.pop()
        if isinstance(task[0], np.ndarray):
            grown = grow(*task)
            if isinstance(grown, Leaf):
                built.append(grown)
            else:
                todo += grown
        else:
            right = built.pop()
            built.append(Split(*task, built.pop(), right))

    root = built.pop()
    constant = isinstance(root, Leaf) and _gini(root.n_yes, root.n_no) > 0.0
    return DecisionTree(root=root, feature_names=tuple(names), constant_features=constant)


def _best_threshold(col: np.ndarray, labels: np.ndarray, n_yes: int, impurity: float,
                    min_leaf: int) -> tuple[float, float] | None:
    """The lowest weighted Gini over the midpoints between consecutive
    distinct values of ``col``, as ``(weighted, threshold)``; the lowest
    threshold wins a tie. Only splits that leave ``min_leaf`` records on each
    side and lower ``impurity`` count; None if there is none.

    One sort and one cumulative count of Yes labels score every midpoint.
    The left count comes from ``searchsorted``, not from the position, since
    a midpoint of adjacent floats can round onto the upper value, which then
    also goes left.
    """
    n = len(col)
    order = np.argsort(col, kind="stable")
    values = col[order]
    yes_upto = np.cumsum(labels[order])
    last = np.flatnonzero(values[1:] != values[:-1])  # last of each run of equal values
    thresholds = (values[last] + values[last + 1]) / 2.0
    nl = np.searchsorted(values, thresholds, side="right")
    nr = n - nl
    keep = (nl >= min_leaf) & (nr >= min_leaf)
    thresholds, nl, nr = thresholds[keep], nl[keep], nr[keep]
    yl = yes_upto[nl - 1]
    yr = n_yes - yl
    weighted = (nl * _gini(yl, nl - yl) + nr * _gini(yr, nr - yr)) / n
    below = np.flatnonzero(weighted < impurity)
    if not len(below):
        return None
    at = below[np.argmin(weighted[below])]
    return float(weighted[at]), thresholds[at]


def predict(tree: DecisionTree, features: Mapping[str, float]) -> str:
    """Descend the tree to a leaf label; values equal to a threshold go left."""
    node = tree.root
    while isinstance(node, Split):
        if node.feature not in features:
            raise MissingFeature(f"no value for feature {node.feature!r}")
        node = node.left if features[node.feature] <= node.threshold else node.right
    return node.label


def extract_rules(tree: DecisionTree) -> list[Rule]:
    """One rule per leaf, in left-to-right leaf order.

    Along a path, repeated tests of one feature collapse to the tightest
    bound per direction (minimum of the <= thresholds, maximum of the >
    thresholds), keeping the position of the first occurrence. Each node
    extends its parent's collapsed conjuncts, so a node costs time in the
    number of features, not in its depth.
    """
    rules: list[Rule] = []
    # (node, collapsed conjuncts, (feature, op) -> position in the conjuncts)
    todo = [(tree.root, (), {})]
    while todo:
        node, conjuncts, slot = todo.pop()
        if isinstance(node, Leaf):
            rules.append(Rule(conjuncts, node.label))
            continue
        for op, child in ((">", node.right), ("<=", node.left)):
            todo.append((child, *_tighten(conjuncts, slot, (node.feature, op), node.threshold)))
    return rules


def _tighten(conjuncts: tuple, slot: dict, key: tuple[str, str], threshold: float):
    """``conjuncts`` and ``slot`` with the test ``key`` at ``threshold``
    added, or merged into the earlier test of the same feature and op."""
    i = slot.get(key)
    if i is None:
        return conjuncts + ((*key, threshold),), {**slot, key: len(conjuncts)}
    kept = conjuncts[i][2]
    bound = min(kept, threshold) if key[1] == "<=" else max(kept, threshold)
    return conjuncts[:i] + ((*key, bound),) + conjuncts[i + 1:], slot


def format_rule(rule: Rule) -> str:
    """Render `IF f <= v AND ... THEN Yes|No` with 2-decimal thresholds;
    an unconditional rule has no IF clause."""
    if not rule.conjuncts:
        return f"THEN {rule.outcome}"
    tests = " AND ".join(f"{f} {op} {v:.2f}" for f, op, v in rule.conjuncts)
    return f"IF {tests} THEN {rule.outcome}"


def rule_interval(rule: Rule, feature: str) -> Interval:
    """Projection of a rule's region onto one feature."""
    lo, hi = -math.inf, math.inf
    lo_inc, hi_inc = False, False
    for f, op, threshold in rule.conjuncts:
        if f != feature:
            continue
        if op == "<=":
            if threshold < hi:
                hi, hi_inc = threshold, True
        else:
            if threshold > lo:
                lo, lo_inc = threshold, False
    return Interval(lo, hi, lo_inc, hi_inc)


def _merge_intervals(intervals: list[Interval]) -> tuple[Interval, ...]:
    if not intervals:
        return ()
    ordered = sorted(intervals, key=lambda iv: (iv.lo, not iv.lo_inclusive))
    merged = [ordered[0]]
    for iv in ordered[1:]:
        last = merged[-1]
        touches = iv.lo < last.hi or (
            iv.lo == last.hi and (iv.lo_inclusive or last.hi_inclusive)
        )
        if touches:
            if (iv.hi, iv.hi_inclusive) > (last.hi, last.hi_inclusive):
                merged[-1] = Interval(last.lo, iv.hi, last.lo_inclusive, iv.hi_inclusive)
        else:
            merged.append(iv)
    return tuple(merged)


def refine_boundaries(spec: OddSpec, rules: Iterable[Rule]) -> RefinementReport:
    """Propose per-feature in-ODD intervals from the Yes rules.

    Every feature tested by some rule must name an ODD class. The proposal
    for a feature is the merged union of the projections of the Yes rules
    that test it; this per-feature projection is conservative, so the
    untouched conjunctive regions ride along in the report for audit.
    """
    rules = list(rules)
    tested = sorted({f for r in rules for f, _, _ in r.conjuncts})
    for feature in tested:
        if feature not in spec.classes:
            raise UnknownFeature(f"rule feature {feature!r} is not an ODD class")

    yes_rules = [r for r in rules if r.outcome == YES]
    proposals = []
    for feature in tested:
        relevant = [r for r in yes_rules if any(f == feature for f, _, _ in r.conjuncts)]
        proposed = _merge_intervals([rule_interval(r, feature) for r in relevant])
        current = tuple(a.bounds for a in spec.classes[feature].attributes)
        proposals.append(BoundaryProposal(feature, current, proposed))
    return RefinementReport(
        proposals=tuple(proposals),
        yes_regions=tuple(yes_rules),
        exit_everywhere=not yes_rules,
    )


def report_to_document(report: RefinementReport) -> dict:
    return {
        "exit_everywhere": report.exit_everywhere,
        "proposals": [
            {
                "class": p.class_name,
                "current": [format_interval(iv) for iv in p.current],
                "proposed": [format_interval(iv) for iv in p.proposed],
            }
            for p in report.proposals
        ],
        "yes_regions": [format_rule(r) for r in report.yes_regions],
    }


def parse_trace(text: str) -> Trace:
    """Parse a delimited trace, a header of feature names plus a `label`
    column holding Yes/No, into columns. The table is read by
    ``_base.csv_table``, so a row is named by the line it ends on. A feature
    cell is read by ``_base.number_text``, so ``nan``, ``1e999``, ``1_0`` and
    a padded cell are bad numeric values; the first bad row names the error."""
    try:
        header, rows, ends = _base.csv_table(io.StringIO(text))
    except ValueError as exc:
        raise DocumentError(f"malformed trace: {exc}") from exc
    if "label" not in header:
        raise DocumentError("trace needs a header row with a 'label' column")
    features = [n for n in header if n != "label"]
    if not features:
        raise DocumentError("trace has no feature columns")
    if not rows:
        raise TooFewRecords("trace has no data rows")
    column = {name: i for i, name in enumerate(header)}
    names = sorted(features)
    # One screen of the body (not the header) spares checking each cell: on
    # text without these characters, float's finite values are number_text's.
    # A quote can wrap a line break.
    body = text.partition("\n")[2]
    plain = body.isascii() and not any(c in body for c in '_ \t\f\v"')
    to_float = float if plain else _base.number_text
    labels = list(map(itemgetter(column["label"]), rows))
    try:
        x = np.column_stack([np.fromiter(map(to_float, map(itemgetter(column[n]), rows)), float,
                                         len(rows)) for n in names])
    except ValueError:
        x = None
    if x is None or not np.isfinite(x).all() or not set(labels) <= {YES, NO}:
        for cells, end in zip(rows, ends):  # the first bad row names the error
            try:
                for n in features:
                    _base.number_text(cells[column[n]])
            except ValueError as exc:
                raise DocumentError(f"row {end}: bad numeric value ({exc})") from exc
            TraceRecord({}, cells[column["label"]])  # raises on a label but Yes or No
    return Trace(tuple(names), x, labels)


def load_trace(path) -> Trace:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_trace(fh.read())
