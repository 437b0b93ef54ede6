"""Discrete Bayesian networks: construction, fault-tree compilation, exact
inference, CPT fitting, and posterior summary statistics.

Inference is exact variable elimination over numpy-backed factors with a
greedy min-fill ordering. The ordering only affects cost, never the result;
the test suite holds every posterior against an independent enumeration of
the full joint.

Each CPT holds its table once, as a read-only array: a copy of its input, or
a view of a block checked in one pass with the network's other tables. A
network caches one plan per (kept variables, set of evidence variables): the
evidence slicing, the elimination order, and one ``np.einsum`` call per
elimination step and for the final product (a few past einsum's operand
limit). A runtime monitor asks once per bundle for a joint table, the
marginal over a fixed set of variables from which any evidence on them is
answered by indexing; the bundle keeps it. The caches only ever store
identical values, so a network can still serve many threads.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from operator import add
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import _base
from .hara_fta import Fta, GateOp, validate_fta

PROB_TOL = 1e-9
ZERO_EVIDENCE_TOL = 1e-12

OCCURS = "occurs"
NOT_OCCURS = "not_occurs"
EVENT_STATES = (OCCURS, NOT_OCCURS)


class BayesError(_base.ModelError):
    """Base class for Bayesian network errors."""


class DocumentError(BayesError, _base.DocumentError):
    pass


class UnknownNode(BayesError):
    pass


class UnknownState(BayesError):
    pass


class IncompleteAssignment(BayesError):
    pass


class ZeroProbabilityEvidence(BayesError):
    """The evidence has probability ~0 under the network; no posterior exists."""


class MissingPrior(BayesError):
    pass


class InvalidFta(BayesError):
    """The fault tree failed structural validation; defects attached."""

    def __init__(self, defects):
        super().__init__("; ".join(str(d) for d in defects))
        self.defects = list(defects)


class EmptyData(BayesError):
    pass


class MissingStateValue(BayesError):
    pass


class BadCpt(BayesError):
    pass


@dataclass(frozen=True)
class BnNode:
    id: str
    states: tuple[str, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(name, str) for name in (self.id, *self.states)):
            raise DocumentError(f"node {self.id!r}: the id and state names must be strings")
        if len(self.states) < 2:
            raise DocumentError(f"node {self.id!r} needs at least 2 states")
        if len(set(self.states)) != len(self.states):
            raise DocumentError(f"node {self.id!r} repeats a state name")

    def state_index(self, state: str) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise UnknownState(f"node {self.id!r} has no state {state!r}") from None


@dataclass(frozen=True, eq=False)
class Cpt:
    """Conditional probability table in row-major parent order.

    Row ``r`` covers the parent-state combination whose mixed-radix digits
    (first parent most significant) encode ``r``; each row is a probability
    vector over the child's states. ``rows`` accepts any nested sequence or
    array of numbers and is kept as a read-only, C-contiguous (rows, states)
    float array: a copy, or rows of a block shared with the other tables of a
    network (``Cpt._many``). Two tables are equal when node, parent order and
    every entry are.
    """

    node: str
    parent_order: tuple[str, ...]
    rows: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", _read_table(self.node, self.rows))

    @classmethod
    def _many(cls, tables: Sequence[tuple[str, tuple[str, ...], object]]) -> list[Cpt]:
        """One table per (node, parent_order, rows), as ``Cpt`` builds each. The
        tables whose rows are lists or tuples of one length are read and checked
        as one block, and get its row slices; if a block fails, all are read
        one by one, so the error is the first bad table's own."""
        groups: dict[int | None, list[int]] = {}
        for i, (_, _, rows) in enumerate(tables):
            listed = type(rows) in (list, tuple) and rows and type(rows[0]) in (list, tuple)
            groups.setdefault(len(rows[0]) if listed else None, []).append(i)
        arrays: list = [None] * len(tables)
        try:
            for width, members in groups.items():
                if width is None:
                    for i in members:
                        arrays[i] = _read_table(tables[i][0], tables[i][2])
                    continue
                block = _read_table(None, list(chain.from_iterable(tables[i][2] for i in members)))
                stop = 0
                for i in members:
                    start, stop = stop, stop + len(tables[i][2])
                    arrays[i] = block[start:stop]
        except (BadCpt, OverflowError):  # OverflowError: an int too large for a float
            arrays = [_read_table(node, rows) for node, _, rows in tables]
        made = [object.__new__(cls) for _ in tables]
        for cpt, (node, parents, _), rows in zip(made, tables, arrays):
            vars(cpt).update(node=node, parent_order=parents, rows=rows)
        return made

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cpt):
            return NotImplemented
        return (self.node, self.parent_order) == (other.node, other.parent_order) and (
            np.array_equal(self.rows, other.rows)
        )


def _read_table(node, rows) -> np.ndarray:
    """``rows`` as a read-only (rows, states) float copy with equal-length rows
    of finite entries in [0, 1] summing to 1 within PROB_TOL, else BadCpt."""
    try:
        rows = np.array(rows, dtype=float)
    except (TypeError, ValueError):
        rows = np.empty(())  # fails the shape check below
    if rows.shape == (0,):
        rows = rows.reshape(0, 0)  # an empty table; build_net rejects it
    if rows.ndim != 2:
        raise BadCpt(f"cpt rows for {node!r} are not equal-length numbers")
    rows.flags.writeable = False
    # min and max are NaN if any entry is, and NaN fails both comparisons
    if not (rows.min(initial=0.0) >= 0.0 and rows.max(initial=1.0) <= 1.0):
        what = "entries outside [0, 1]" if np.isfinite(rows).all() else "non-finite entries"
        raise BadCpt(f"cpt for {node!r} has {what}")
    drift = rows.sum(axis=1)
    drift -= 1.0
    if np.abs(drift, out=drift).max(initial=0.0) > PROB_TOL:
        total = reduce(add, rows[int(np.argmax(drift > PROB_TOL))].tolist(), 0.0)
        raise BadCpt(f"cpt row for {node!r} sums to {total!r}, not 1 within {PROB_TOL}")
    return rows


def _grid_rows(weights: Sequence[Sequence[float]],
               p_first: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """A two-state node's rows in Cpt row order from one weight per parent
    state: ``(p, 1 - p)`` with ``p = p_first(total)``, ``total`` the row's
    parent weights added in parent order from 0, as a per-row sum adds them."""
    # One axis per parent, first parent outermost: the grid flattens in Cpt row order.
    p = p_first(sum(np.ix_(*map(np.asarray, weights)))).ravel()
    return np.column_stack((p, 1.0 - p))


@dataclass(frozen=True)
class EvidenceSet:
    assignments: Mapping[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignments", dict(self.assignments))


@dataclass(frozen=True)
class Posterior:
    node: str
    states: tuple[str, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if abs(reduce(add, self.probs, 0.0) - 1.0) > PROB_TOL:
            raise BayesError(f"posterior over {self.node!r} does not normalize")

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.states, self.probs))


@dataclass(frozen=True)
class BayesNet:
    """Immutable DAG of discrete nodes with one CPT per node.

    Node and CPT storage is canonicalized by node id so that posteriors do
    not depend on insertion order. ``objective``, when set, is the node whose
    posterior serves as the confidence estimate and must have no out-edges.
    """

    nodes: dict[str, BnNode]
    edges: tuple[tuple[str, str], ...]
    cpts: dict[str, Cpt]
    objective: str | None = None

    def node(self, node_id: str) -> BnNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNode(f"no node named {node_id!r}") from None

    @cached_property
    def _plans(self) -> dict:
        """Elimination plans by (keep, evidence variables), filled by _plan."""
        return {}

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, ...]:
        """Every CPT as an array with one axis per parent, then the node, in
        node order.

        The C-order reshape decodes the row layout: the first parent is the
        outermost axis, as it is the most significant digit of a row number.
        """
        return tuple(
            self.cpts[nid].rows.reshape(
                [len(self.nodes[p].states) for p in self.cpts[nid].parent_order]
                + [len(node.states)]
            )
            for nid, node in self.nodes.items()
        )


def build_net(
    nodes: Iterable[BnNode],
    edges: Iterable[tuple[str, str]],
    cpts: Iterable[Cpt],
    objective: str | None = None,
) -> BayesNet:
    """Assemble and validate a network; raises on any invariant violation,
    such as a CPT whose parents are not its node's in-edges, each named once."""
    nodes = list(nodes)
    cpts = list(cpts)
    node_map = {n.id: n for n in sorted(nodes, key=lambda n: n.id)}
    if len(node_map) != len(nodes):
        raise DocumentError("a node id is declared twice")
    edge_list = tuple(sorted(set(edges)))
    cpt_map = {c.node: c for c in cpts}
    if len(cpt_map) != len(cpts):
        raise DocumentError("a node has more than one CPT")

    in_edges: dict[str, set[str]] = {nid: set() for nid in node_map}
    for src, dst in edge_list:
        for ref in (src, dst):
            if ref not in node_map:
                raise UnknownNode(f"edge references unknown node {ref!r}")
        in_edges[dst].add(src)
    for nid in node_map:
        if nid not in cpt_map:
            raise DocumentError(f"node {nid!r} has no CPT")
    for cpt in cpt_map.values():
        if cpt.node not in node_map:
            raise UnknownNode(f"cpt for unknown node {cpt.node!r}")
        parents = in_edges[cpt.node]
        if len(cpt.parent_order) != len(parents) or set(cpt.parent_order) != parents:
            raise DocumentError(
                f"cpt parents {cpt.parent_order} of {cpt.node!r} do not match "
                f"in-edges {sorted(parents)}"
            )
        expected_rows = 1
        for p in cpt.parent_order:
            expected_rows *= len(node_map[p].states)
        n_rows, width = cpt.rows.shape
        if n_rows != expected_rows:
            raise BadCpt(f"cpt for {cpt.node!r} has {n_rows} rows, expected {expected_rows}")
        if width != len(node_map[cpt.node].states):
            raise BadCpt(f"cpt row width mismatch for {cpt.node!r}")

    if _base.dag_order(in_edges)[1]:
        raise DocumentError("edge set contains a cycle")
    if objective is not None:
        if objective not in node_map:
            raise UnknownNode(f"objective {objective!r} is not a node")
        if any(src == objective for src, _ in edge_list):
            raise DocumentError(f"objective {objective!r} must have no out-edges")

    return BayesNet(nodes=node_map, edges=edge_list, cpts=cpt_map, objective=objective)


# ---------------------------------------------------------------------------
# Variable elimination, planned once per (kept variables, evidence variables)

_PLAN_LIMIT = 128  # plans kept per network; the cache is emptied when full
_CELL_LIMIT = 2**20  # largest factor a joint table may need, in cells
_OPERANDS = 31  # factors per np.einsum call; numpy 1.x takes no more than 31


def _min_fill_order(scopes: Sequence[tuple[str, ...]], keep: set[str]) -> list[str]:
    """Greedy elimination order over every variable not in ``keep``.

    Each step eliminates the variable whose neighbours miss the fewest edges
    of a clique (its fill), the smallest name first among ties. A heap holds
    (fill, name) entries and skips those whose fill is out of date.

    A variable of fill 0 is simplicial: its neighbours already form a clique,
    so eliminating it adds no edge (Kjaerulff 1990). Each neighbour then only
    loses it, and with it the missing edges from it to the neighbour's other
    neighbours outside that clique, so that neighbour's fill falls by their
    count, with no recount. A variable is simplicial from the start when its
    widest scope holds all its neighbours. A fill that falls but stays above
    0 is pushed only once the heap's best entry is above 0, since until then
    a fill-0 variable goes first. Eliminating a variable of fill above 0
    adds edges: its neighbours are recounted, and the common neighbours of
    each new edge lose one. Either way every fill stays exact, so the order
    is the one a recount of every fill before each step would give.
    """
    neighbors: dict[str, set[str]] = {}
    widest: dict[str, int] = {}  # distinct variables in each one's first scope
    for scope in sorted(scopes, key=len, reverse=True):
        for v in scope:
            if v in neighbors:
                neighbors[v].update(scope)
            else:
                neighbors[v] = set(scope)
                widest[v] = len(neighbors[v])
    for v, adj in neighbors.items():
        adj.discard(v)

    def count_fill(v: str) -> int:
        adj = neighbors[v]
        # each missing pair is seen from both ends; adj - neighbors[a] also
        # holds a itself
        missing = sum(map(len, map(adj.difference, map(neighbors.__getitem__, adj))))
        return (missing - len(adj)) // 2

    fill = {v: 0 if len(adj) + 1 == widest[v] else count_fill(v)
            for v, adj in neighbors.items() if v not in keep}
    heap = [(f, v) for v, f in fill.items()]
    heapq.heapify(heap)
    fallen = set()  # variables whose fill fell but stayed above 0, not yet pushed
    order = []
    while fill:
        if fallen and heap[0][0]:
            for a in fallen:
                if a in fill:
                    heapq.heappush(heap, (fill[a], a))
            fallen.clear()
        f, v = heapq.heappop(heap)
        if fill.get(v) != f:
            continue
        del fill[v]
        order.append(v)
        adj = neighbors.pop(v)
        if not f:
            for a in adj:
                others = neighbors[a]
                others.discard(v)
                if a in fill:
                    # adj holds a and, but for a, lies inside others
                    drop = len(others) - len(adj) + 1
                    if drop:
                        fill[a] -= drop
                        if fill[a]:
                            fallen.add(a)
                        else:
                            heapq.heappush(heap, (0, a))
            continue
        lowered = set()
        for a in adj:
            for b in adj - neighbors[a]:
                if a < b:  # a new edge; b == a is skipped too
                    for w in (neighbors[a] & neighbors[b]) - adj - {v}:
                        if w in fill:
                            fill[w] -= 1
                            lowered.add(w)
        for a in adj:
            neighbors[a] |= adj
            neighbors[a].discard(a)
            neighbors[a].discard(v)
        for a in adj:
            if a in fill:
                fill[a] = count_fill(a)
                heapq.heappush(heap, (fill[a], a))
        for w in lowered:
            heapq.heappush(heap, (fill[w], w))
    return order


class _Plan(NamedTuple):
    """Everything about a query that depends only on the kept variables and
    on which variables carry evidence, not on their states.

    ``takes`` gives, per CPT array, the evidence position indexing each axis
    (-1 keeps the axis), or None when no axis carries evidence. Factors are
    numbered in creation order, CPTs first. Each step is one ``np.einsum`` in
    sublist form: the ids of the factors it multiplies, each factor's axis
    labels, and the labels of the result, which becomes the next factor. An
    elimination step sums out one variable; the last step is the final
    product, with the kept variables in keep order. A product of more than
    _OPERANDS factors takes several steps, the first of which only multiply;
    either way its factors are multiplied in ascending id order. ``cells`` is
    the size of the largest product, counted over all of its variables
    although einsum never lays the product out.
    """

    ev_vars: tuple[str, ...]
    takes: tuple[tuple[int, ...] | None, ...]
    steps: tuple[tuple, ...]
    cells: int


def _compile(net: BayesNet, keep: tuple[str, ...], ev_vars: tuple[str, ...]) -> _Plan:
    position = {v: i for i, v in enumerate(ev_vars)}
    cards = {nid: len(node.states) for nid, node in net.nodes.items()}
    takes, scopes = [], []
    for nid in net.nodes:
        axes = net.cpts[nid].parent_order + (nid,)
        if position.keys().isdisjoint(axes):
            takes.append(None)
            scopes.append(axes)
        else:
            takes.append(tuple(position.get(v, -1) for v in axes))
            scopes.append(tuple(v for v in axes if v not in position))

    holders: dict[str, list[int]] = {}  # ascending, as new ids are the largest
    for fid, scope in enumerate(scopes):
        for v in scope:
            holders.setdefault(v, []).append(fid)
    live = dict.fromkeys(range(len(scopes)))
    cells = 1
    steps = []

    def step(fids: list[int], label, out: tuple[str, ...]) -> int:
        """Plan one einsum of ``fids`` into ``out`` under ``label``; return the
        id of the resulting factor."""
        steps.append((tuple(fids), tuple([tuple(map(label, scopes[f])) for f in fids]),
                      tuple(map(label, out))))
        scopes.append(out)
        return len(scopes) - 1

    def product(fids: list[int], var: str | None) -> int:
        """Plan the product of ``fids`` summed over ``var`` (None: the final
        product, in keep order); return the id of the resulting factor."""
        nonlocal cells
        merged = tuple(dict.fromkeys(chain.from_iterable(map(scopes.__getitem__, fids))))
        size = math.prod(map(cards.__getitem__, merged))
        if size > cells:
            cells = size
        # A variable's label is its place in the product, so einsum's limit of
        # 52 labels could only bind on a product of more than 2**52 cells.
        label = merged.index
        # Past numpy's operand limit the first factors are multiplied into one,
        # which then goes first: the multiplications keep their order.
        while len(fids) > _OPERANDS:
            head = fids[:_OPERANDS]
            out = tuple(dict.fromkeys(chain.from_iterable(map(scopes.__getitem__, head))))
            fids = [step(head, label, out), *fids[_OPERANDS:]]
        if var is None:
            return step(fids, label, keep)
        k = label(var)
        return step(fids, label, merged[:k] + merged[k + 1:])

    for var in _min_fill_order(scopes, set(keep)):
        # holders keeps the ids of factors already multiplied; live tells them apart
        fids = [*filter(live.__contains__, holders.pop(var))]
        for fid in fids:
            del live[fid]
        fid = product(fids, var)
        for v in scopes[fid]:
            holders[v].append(fid)
        live[fid] = None
    product(list(live), None)
    return _Plan(ev_vars, tuple(takes), tuple(steps), cells)


def _plan(net: BayesNet, keep: tuple[str, ...], ev_vars: frozenset) -> _Plan:
    """The cached plan for ``keep`` under evidence on ``ev_vars``."""
    plans, plan_key = net._plans, (keep, ev_vars)
    plan = plans.get(plan_key)
    if plan is None:
        plan = _compile(net, keep, tuple(sorted(ev_vars)))
        if len(plans) >= _PLAN_LIMIT:
            plans.clear()
        plans[plan_key] = plan
    return plan


def _run(plan: _Plan, arrays: tuple[np.ndarray, ...], key: tuple[int, ...]) -> np.ndarray:
    """Unnormalized P(kept variables, evidence) for the evidence states in
    ``key``, with one axis per kept variable, in keep order."""
    values = [
        arr if take is None else arr[tuple(slice(None) if p < 0 else key[p] for p in take)]
        for arr, take in zip(arrays, plan.takes)
    ]
    for fids, labels, out in plan.steps:
        operands = []
        for fid, axes in zip(fids, labels):
            operands += (values[fid], axes)
            values[fid] = None  # let intermediate factors go once used
        # order="C" lays a product of several factors out in label order,
        # whatever the layout of its inputs
        values.append(np.einsum(*operands, out, order="C"))
    return values[-1]


def posterior(net: BayesNet, query: str, evidence: EvidenceSet | None = None) -> Posterior:
    """P(query | evidence) by variable elimination.

    Evidence is sliced out of the factors first, every other variable is
    summed out along a min-fill order, and the surviving factor over the
    query is normalized by P(evidence).

    The slicing, the order and every product's labels depend only on the
    query and on which variables carry evidence, so they are planned once
    per such pair and kept on the network; each call does the arithmetic.
    Names are checked on every call, and zero-probability evidence raises
    every time.
    """
    assignments = evidence.assignments if evidence is not None else {}
    query_node = net.node(query)
    if query in assignments:
        raise BayesError(f"query node {query!r} is part of the evidence")
    indexed = {nid: net.node(nid).state_index(s) for nid, s in assignments.items()}

    plan = _plan(net, (query,), frozenset(indexed))
    unnormalized = _run(plan, net._arrays, tuple(indexed[v] for v in plan.ev_vars))
    return _normalized(query_node, unnormalized, assignments)


def _normalized(node: BnNode, unnormalized: np.ndarray, evidence: Mapping[str, str]) -> Posterior:
    """``node``'s posterior from its unnormalized weights under ``evidence``;
    ZeroProbabilityEvidence if their sum, P(evidence), is ~zero. Bit for bit
    numpy's ``u / u.sum()``, done on Python floats."""
    weights = unnormalized.tolist()
    # np.sum adds fewer than 8 terms one by one from 0.0, and pairs longer runs
    # up; Python's sum is compensated from 3.12 on, so it would not match.
    z = reduce(add, weights, 0.0) if len(weights) < 8 else float(unnormalized.sum())
    if z <= ZERO_EVIDENCE_TOL:
        raise ZeroProbabilityEvidence(f"evidence {dict(evidence)} has probability {z!r}")
    post = object.__new__(Posterior)  # normalized here, so Posterior's check is skipped
    vars(post).update(node=node.id, states=node.states, probs=tuple([w / z for w in weights]))
    return post


def _joint_table(net: BayesNet, keep: tuple[str, ...]) -> np.ndarray | None:
    """P(keep) with no evidence: one axis per variable of ``keep``, in that
    order, each as long as the variable has states.

    Conditioning on any evidence over ``keep`` is then indexing and summing
    this table. The table is the network polynomial restricted to ``keep``
    (Darwiche 2003), computed by one run of the cached evidence-free plan;
    the caller keeps it. None means a product on the way would exceed
    _CELL_LIMIT cells; the caller then queries with ``posterior``.
    """
    plan = _plan(net, keep, frozenset())
    if plan.cells > _CELL_LIMIT:
        return None
    table = _run(plan, net._arrays, ())
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# Fault-tree compilation


def gate_cpt(op: GateOp, n_parents: int) -> tuple[tuple[float, ...], ...]:
    """Deterministic CPT rows for a binary gate node over binary parents.

    Rows are in row-major parent order with state index 0 = occurs. AND: the
    child occurs iff every parent occurs; OR: iff at least one parent does.
    """
    if n_parents < 1:
        raise BayesError("a gate needs at least one parent")
    # Row 0 is every parent occurring and the last row is none occurring, so
    # AND fires only in row 0 and OR in every row but the last.
    fired, idle = ((1.0, 0.0),), ((0.0, 1.0),)
    quiet_rows = 2**n_parents - 1
    return fired + idle * quiet_rows if op is GateOp.AND else fired * quiet_rows + idle


def compile_fta_to_bn(fta: Fta, leaf_priors: Mapping[str, float]) -> BayesNet:
    """Compile a fault tree into a Bayesian network.

    Every event becomes a binary (occurs, not_occurs) node. Gate edges are
    reversed so that cause events are the parents of the event they produce;
    non-atomic events get the deterministic gate CPT, atomic events their
    prior, and the top event becomes the objective node.
    """
    defects = validate_fta(fta)
    if defects:
        raise InvalidFta(defects)

    leaves = [e.id for e in fta.atomic_events()]
    missing = sorted(set(leaves) - set(leaf_priors))
    extra = sorted(set(leaf_priors) - set(leaves))
    if missing or extra:
        raise MissingPrior(
            f"priors must cover exactly the atomic events; missing {missing}, unexpected {extra}"
        )
    for eid, p in leaf_priors.items():
        if not 0.0 <= p <= 1.0:
            raise MissingPrior(f"prior for {eid!r} is {p!r}, outside [0, 1]")

    nodes = [BnNode(e.id, EVENT_STATES) for e in fta.events]
    edges = []
    tables = []
    for gate in fta.gates:
        for child in gate.children:
            edges.append((child, gate.parent))
        tables.append((gate.parent, gate.children, gate_cpt(gate.op, len(gate.children))))
    for eid in leaves:
        p = float(leaf_priors[eid])
        tables.append((eid, (), ((p, 1.0 - p),)))

    return build_net(nodes, edges, Cpt._many(tables), objective=fta.top)


# ---------------------------------------------------------------------------
# CPT fitting and posterior summaries


def fit_cpts(
    net: BayesNet, records: Sequence[Mapping[str, str]], smoothing: float = 0.0
) -> BayesNet:
    """Re-estimate every CPT from complete records by smoothed relative
    frequency: (count + smoothing) / (row_total + smoothing * n_states).

    Parent combinations never seen in the data fall back to a uniform row,
    which is also the exact limit of full smoothing. The structure is kept;
    a new network is returned.
    """
    if not 0.0 <= smoothing < math.inf:
        raise BayesError(f"smoothing must be finite and >= 0, not {smoothing!r}")
    if not records and smoothing == 0.0:
        raise EmptyData("no records and no smoothing to fall back on")

    new_cpts = []
    for (nid, node), arr in zip(net.nodes.items(), net._arrays):
        cpt = net.cpts[nid]
        counts = np.zeros(arr.shape, dtype=float)
        for rec in records:
            missing = [k for k in (nid, *cpt.parent_order) if k not in rec]
            if missing:
                raise IncompleteAssignment(f"record misses {missing}")
            index = [net.nodes[p].state_index(rec[p]) for p in cpt.parent_order]
            counts[(*index, node.state_index(rec[nid]))] += 1.0
        counts = counts.reshape(-1, len(node.states)) + smoothing
        totals = counts.sum(axis=1, keepdims=True)
        empty = totals[:, 0] == 0.0
        counts[empty] = 1.0
        totals = counts.sum(axis=1, keepdims=True)
        new_cpts.append(Cpt(nid, cpt.parent_order, counts / totals))

    return build_net(net.nodes.values(), net.edges, new_cpts, objective=net.objective)


def mean_variance(post: Posterior, state_values: Mapping[str, float]) -> tuple[float, float]:
    """First two moments of the value distribution induced by a posterior.

    ``state_values`` assigns each state a number (conventionally in [0, 1]);
    the result is (sum p*v, sum p*v^2 - mean^2). Raises ``MissingStateValue``
    if a state has no value, and ``BayesError`` naming the values if either
    moment is not finite.
    """
    try:
        values = [state_values[s] for s in post.states]
    except KeyError:
        missing = [s for s in post.states if s not in state_values]
        raise MissingStateValue(f"no value for states {missing}") from None
    # plain adds from 0.0, as _normalized's; Python's sum is compensated from 3.12 on
    mean = second = 0.0
    try:
        for p, v in zip(post.probs, values):
            mean += p * v
            second += p * v ** 2
    except OverflowError:  # ** raises where * would give inf
        mean = second = math.inf
    variance = second - mean * mean
    if not math.isfinite(variance):  # as it is whenever the mean is not finite
        values = dict(zip(post.states, values))
        raise BayesError(f"state values {values} give a non-finite mean or variance")
    # cancellation in second - mean^2 can land an ulp below zero
    return mean, max(0.0, variance)


# ---------------------------------------------------------------------------
# File format


@_base.document_reader("BN document", DocumentError)
def parse_bn(document) -> BayesNet:
    """Parse a BN document (JSON text or parsed object) in any JSON layout.

    Schema: ``{"nodes": [{id, states}], "edges": [[src, dst]], "cpts":
    [{node, parents, rows}], "objective": id|null}``. Every row entry must be
    a JSON number. Rows whose sum drifts from 1 by at most 1e-9 are
    renormalized; larger drift is rejected. Sums are exact (``math.fsum``),
    so which rows are renormalized does not depend on the interpreter's
    ``sum``. A parsed document is never changed: a renormalized row is a copy.
    A malformed table is reported only if every table before it is valid.
    """
    nodes = [BnNode(n["id"], _base.json_array(n["states"], "states")) for n in document["nodes"]]
    edges = [_base.json_array(e, "an edge", 2) for e in document.get("edges", [])]
    for end in chain.from_iterable(edges):
        _base.json_scalar(end, "an edge end")
    tables = []
    for c in document["cpts"]:
        try:
            rows = c["rows"]
            # One scan over the table; only a table that fails it is read entry
            # by entry, for the error naming the first entry that is no number.
            if not set(map(type, chain.from_iterable(rows))) <= {float}:
                rows = [[_base.number(p, "a cpt entry") for p in row] for row in rows]
            try:
                rows = [
                    row if total == 1.0 or not abs(total - 1.0) <= PROB_TOL  # NaN: not in tolerance
                    else _renormalized(row, total)
                    for row, total in zip(rows, map(math.fsum, rows))
                ]
            except (OverflowError, ValueError):  # fsum of huge entries, or of inf and -inf
                pass
            tables.append((c["node"], _base.json_array(c.get("parents", []), "parents"), rows))
        except _base.MALFORMED:
            Cpt._many(tables)  # a bad table before this one is reported first
            raise
    # Cpt rejects entries outside [0, 1], non-finite ones and larger drift.
    cpts = Cpt._many(tables)
    objective = document.get("objective")
    if objective is not None:
        _base.json_scalar(objective, "objective")
    return build_net(nodes, edges, cpts, objective=objective)


def _renormalized(row: list[float], total: float) -> list[float]:
    """``row`` scaled to sum to exactly 1, as a new list.

    The residual of the scaling is folded into the largest entry: it stays
    positive, and reloading the serialized row is a no-op.
    """
    row = [p / total for p in row]
    top = row.index(max(row))
    row[top] = math.fsum([1.0, *(-p for i, p in enumerate(row) if i != top)])
    return row


def bn_to_document(net: BayesNet) -> dict:
    return {
        "nodes": [{"id": n.id, "states": list(n.states)} for n in net.nodes.values()],
        "edges": [list(e) for e in net.edges],
        "cpts": [
            {
                "node": c.node,
                "parents": list(c.parent_order),
                "rows": c.rows.tolist(),
            }
            for c in net.cpts.values()
        ],
        "objective": net.objective,
    }


def load_bn(path) -> BayesNet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_bn(fh.read())


def _quoted(strings: Iterable[str]) -> str:
    """The strings as JSON, by json's own escaper, separated by ", "."""
    return ", ".join(map(json.encoder.encode_basestring_ascii, strings))


def _array(items: Iterable[str]) -> str:
    """A JSON array of encoded items, one item per line."""
    body = ",\n  ".join(items)
    return f"[\n  {body}\n]" if body else "[]"


def save_bn(net: BayesNet, path) -> None:
    """Write ``bn_to_document(net)`` as JSON text with one node, one edge and
    one CPT row per line, so that two versions of a network diff line by line.

    Every string goes through json's escaper and every number through one
    ``json.dumps`` call. ``load_bn`` reads the file back ``==`` ``net``.
    """
    doc = bn_to_document(net)
    # Only numbers stand around the "]], [[" between two tables and the
    # "], [" between two rows, so neither cut can fall inside a string.
    tables = json.dumps([c["rows"] for c in doc["cpts"]])[3:-3].split("]], [[")
    text = "".join((
        '{"nodes": ',
        _array(f'{{"id": {_quoted([n["id"]])}, "states": [{_quoted(n["states"])}]}}'
               for n in doc["nodes"]),
        ',\n"edges": ',
        _array(f"[{_quoted(e)}]" for e in doc["edges"]),
        ',\n"cpts": ',
        _array(f'{{"node": {_quoted([c["node"]])}, "parents": [{_quoted(c["parents"])}], '
               '"rows": [\n    [' + table.replace("], [", "],\n    [") + "]\n  ]}"
               for c, table in zip(doc["cpts"], tables)),
        ',\n"objective": ',
        json.dumps(doc["objective"]),
        "}\n",
    ))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
