"""Discrete Bayesian networks: construction, fault-tree compilation, exact
inference, CPT fitting, and posterior summary statistics.

Inference is exact variable elimination over numpy-backed factors with a
greedy min-fill ordering. The ordering only affects cost, never the result;
the test suite holds every posterior against an independent enumeration of
the full joint.

Each CPT holds its table once, as a read-only array copied when it is
built. A network caches one plan per (query, set of evidence variables): the
elimination order and the layout of every product. Each plan serves repeated
evidence from a bounded memo of finished posteriors. The caches only ever
store identical values, so a network can still serve many threads.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import _base
from .hara_fta import Fta, GateOp, validate_fta

PROB_TOL = 1e-9
ZERO_EVIDENCE_TOL = 1e-12

OCCURS = "occurs"
NOT_OCCURS = "not_occurs"
EVENT_STATES = (OCCURS, NOT_OCCURS)


class BayesError(Exception):
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
    array of numbers and is kept as a read-only (rows, states) float array.
    Two tables are equal when node, parent order and every entry are.
    """

    node: str
    parent_order: tuple[str, ...]
    rows: np.ndarray

    def __post_init__(self) -> None:
        try:
            rows = np.array(self.rows, dtype=float)
        except (TypeError, ValueError):
            rows = np.empty(())  # fails the shape check below
        if rows.shape == (0,):
            rows = rows.reshape(0, 0)  # an empty table; build_net rejects it
        if rows.ndim != 2:
            raise BadCpt(f"cpt rows for {self.node!r} are not equal-length numbers")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        # min and max are NaN if any entry is, and NaN fails both comparisons
        if not (rows.min(initial=0.0) >= 0.0 and rows.max(initial=1.0) <= 1.0):
            what = "entries outside [0, 1]" if np.isfinite(rows).all() else "non-finite entries"
            raise BadCpt(f"cpt for {self.node!r} has {what}")
        drift = rows.sum(axis=1)
        drift -= 1.0
        if np.abs(drift, out=drift).max(initial=0.0) > PROB_TOL:
            total = sum(rows[int(np.argmax(drift > PROB_TOL))].tolist())
            raise BadCpt(f"cpt row for {self.node!r} sums to {total!r}, not 1 within {PROB_TOL}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cpt):
            return NotImplemented
        return (self.node, self.parent_order) == (other.node, other.parent_order) and (
            np.array_equal(self.rows, other.rows)
        )


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
        if abs(sum(self.probs) - 1.0) > PROB_TOL:
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
    # Inference caches, filled on first use by posterior()
    _arrays: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def node(self, node_id: str) -> BnNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNode(f"no node named {node_id!r}") from None


def build_net(
    nodes: Iterable[BnNode],
    edges: Iterable[tuple[str, str]],
    cpts: Iterable[Cpt],
    objective: str | None = None,
) -> BayesNet:
    """Assemble and validate a network; raises on any invariant violation."""
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
        if set(cpt.parent_order) != in_edges[cpt.node]:
            raise DocumentError(
                f"cpt parents {cpt.parent_order} of {cpt.node!r} do not match "
                f"in-edges {sorted(in_edges[cpt.node])}"
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


def topological_order(net: BayesNet) -> list[str]:
    # build_net rejects cycles and ties every CPT's parents to the in-edges
    order, _ = _base.dag_order({nid: cpt.parent_order for nid, cpt in net.cpts.items()})
    return order


# ---------------------------------------------------------------------------
# Variable elimination, planned once per (query, evidence variables)

_PLAN_LIMIT = 128  # plans kept per network; the cache is emptied when full
_MEMO_LIMIT = 1024  # evidence assignments remembered per plan, likewise


def _cpt_arrays(net: BayesNet) -> tuple[np.ndarray, ...]:
    """Every CPT as an array with one axis per parent, then the node, in node
    order; laid out on first use and kept on the network.

    The C-order reshape decodes the row layout: the first parent is the
    outermost axis, as it is the most significant digit of a row number.
    """
    arrays = net._arrays
    if arrays is None:
        arrays = tuple(
            net.cpts[nid].rows.reshape(
                [len(net.nodes[p].states) for p in net.cpts[nid].parent_order]
                + [len(node.states)]
            )
            for nid, node in net.nodes.items()
        )
        object.__setattr__(net, "_arrays", arrays)
    return arrays


def _min_fill_order(scopes: Sequence[tuple[str, ...]], keep: set[str]) -> list[str]:
    """Greedy elimination order over every variable not in ``keep``.

    Each step eliminates the variable whose neighbours miss the fewest edges
    of a clique (its fill), the smallest name first among ties. A heap holds
    (fill, name) entries and skips those whose fill is out of date.
    Eliminating v changes only the fill of v's neighbours, which are
    recounted, and of the common neighbours of each new edge, which lose one.
    """
    neighbors: dict[str, set[str]] = {}
    for scope in scopes:
        for v in scope:
            neighbors.setdefault(v, set()).update(scope)
    for v, adj in neighbors.items():
        adj.discard(v)

    def count_fill(v: str) -> int:
        adj = neighbors[v]
        # each missing pair is seen from both ends; adj - neighbors[a] also
        # holds a itself
        return sum(len(adj - neighbors[a]) - 1 for a in adj) // 2

    fill = {v: count_fill(v) for v in neighbors if v not in keep}
    heap = [(f, v) for v, f in fill.items()]
    heapq.heapify(heap)
    order = []
    while heap:
        f, v = heapq.heappop(heap)
        if fill.get(v) != f:
            continue
        del fill[v]
        order.append(v)
        adj = neighbors.pop(v)
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


def _broadcast(src: tuple[str, ...], target: tuple[str, ...], cards: Mapping[str, int]):
    """Axis permutation and shape that lay a factor over ``src`` out along
    ``target``, with length-1 axes for the variables it lacks."""
    perm = tuple(src.index(v) for v in target if v in src)
    shape = tuple(cards[v] if v in src else 1 for v in target)
    return perm, shape


@dataclass(frozen=True)
class _Plan:
    """Everything about a query that depends only on which variables carry
    evidence, not on their states.

    ``takes`` gives, per CPT array, the evidence position indexing each axis
    (-1 keeps the axis), or None when no axis carries evidence. Factors are
    numbered in creation order, CPTs first. Each step multiplies a chain of
    factors and sums one axis out of the product, which becomes the next
    factor; ``final`` is the chain of the factors left, over the query. A
    chain is its first factor plus (factor, its layout, the running
    product's layout) links.
    """

    ev_vars: tuple[str, ...]
    takes: tuple[tuple[int, ...] | None, ...]
    steps: tuple[tuple[tuple, int], ...]
    final: tuple
    memo: dict = field(default_factory=dict)


def _compile(net: BayesNet, query: str, ev_vars: tuple[str, ...]) -> _Plan:
    position = {v: i for i, v in enumerate(ev_vars)}
    cards = {nid: len(node.states) for nid, node in net.nodes.items()}
    takes, scopes = [], []
    for nid in net.nodes:
        axes = net.cpts[nid].parent_order + (nid,)
        take = tuple(position.get(v, -1) for v in axes)
        takes.append(take if any(p >= 0 for p in take) else None)
        scopes.append(tuple(v for v in axes if v not in position))

    holders: dict[str, set[int]] = {}
    for fid, scope in enumerate(scopes):
        for v in scope:
            holders.setdefault(v, set()).add(fid)
    live = dict.fromkeys(range(len(scopes)))

    def chain(fids: list[int]) -> tuple[tuple, tuple[str, ...]]:
        # The same products, in the same order, as multiplying the factors
        # pairwise left to right: merged scope = running scope + new vars.
        merged = scopes[fids[0]]
        links = []
        for fid in fids[1:]:
            target = merged + tuple(v for v in scopes[fid] if v not in merged)
            links.append((fid, _broadcast(scopes[fid], target, cards),
                          _broadcast(merged, target, cards)))
            merged = target
        return (fids[0], tuple(links)), merged

    steps = []
    for var in _min_fill_order(scopes, {query}):
        fids = sorted(holders[var])
        product, merged = chain(fids)
        for fid in fids:
            del live[fid]
            for v in scopes[fid]:
                holders[v].discard(fid)
        scopes.append(tuple(v for v in merged if v != var))
        new = len(scopes) - 1
        for v in scopes[new]:
            holders[v].add(new)
        live[new] = None
        steps.append((product, merged.index(var)))
    final, _ = chain(list(live))
    return _Plan(ev_vars, tuple(takes), tuple(steps), final)


def _contract(values: list, chain: tuple) -> np.ndarray:
    first, links = chain
    product = values[first]
    values[first] = None  # let intermediate factors go once used
    for fid, (perm, shape), (acc_perm, acc_shape) in links:
        product = (np.transpose(product, acc_perm).reshape(acc_shape)
                   * np.transpose(values[fid], perm).reshape(shape))
        values[fid] = None
    return product


def _run(plan: _Plan, arrays: tuple[np.ndarray, ...], key: tuple[int, ...]) -> np.ndarray:
    """Unnormalized P(query, evidence) for the evidence states in ``key``."""
    values = [
        arr if take is None
        else arr[tuple(slice(None) if p < 0 else key[p] for p in take)].copy()
        for arr, take in zip(arrays, plan.takes)
    ]
    for product, axis in plan.steps:
        values.append(_contract(values, product).sum(axis=axis))
    return _contract(values, plan.final)


def joint_probability(net: BayesNet, full_assignment: Mapping[str, str]) -> float:
    """Probability of one complete assignment: the product over every node of
    its CPT entry given the assigned parent states."""
    missing = sorted(set(net.nodes) - set(full_assignment))
    if missing:
        raise IncompleteAssignment(f"assignment misses nodes {missing}")
    prob = 1.0
    for (nid, node), arr in zip(net.nodes.items(), _cpt_arrays(net)):
        index = [net.nodes[p].state_index(full_assignment[p]) for p in net.cpts[nid].parent_order]
        prob *= float(arr[(*index, node.state_index(full_assignment[nid]))])
    return prob


def posterior(net: BayesNet, query: str, evidence: EvidenceSet | None = None) -> Posterior:
    """P(query | evidence) by variable elimination.

    Evidence is sliced out of the factors first, every other variable is
    summed out along a min-fill order, and the surviving factor over the
    query is normalized by P(evidence).

    The slicing, the order and every product's layout depend only on the
    query and on which variables carry evidence, so they are planned once
    per such pair and kept on the network. Each plan also remembers the
    outcome for up to about a thousand evidence assignments, so a repeated
    assignment is answered without arithmetic. Names are checked on every
    call, and zero-probability evidence raises every time.
    """
    assignments = evidence.assignments if evidence is not None else {}
    query_node = net.node(query)
    if query in assignments:
        raise BayesError(f"query node {query!r} is part of the evidence")
    indexed = {nid: net.node(nid).state_index(s) for nid, s in assignments.items()}

    plans, plan_key = net._plans, (query, frozenset(indexed))
    plan = plans.get(plan_key)
    if plan is None:
        plan = _compile(net, query, tuple(sorted(indexed)))
        if len(plans) >= _PLAN_LIMIT:
            plans.clear()
        plans[plan_key] = plan
    key = tuple(indexed[v] for v in plan.ev_vars)
    outcome = plan.memo.get(key)
    if outcome is None:
        unnormalized = _run(plan, _cpt_arrays(net), key)
        z = float(unnormalized.sum())
        if z <= ZERO_EVIDENCE_TOL:
            outcome = z
        else:
            probs = unnormalized / z
            outcome = Posterior(query, query_node.states, tuple(float(p) for p in probs))
        if len(plan.memo) >= _MEMO_LIMIT:
            plan.memo.clear()
        plan.memo[key] = outcome
    if not isinstance(outcome, Posterior):
        raise ZeroProbabilityEvidence(f"evidence {dict(assignments)} has probability {outcome!r}")
    return outcome


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

    gated = {g.parent for g in fta.gates}
    leaves = [e.id for e in fta.events if e.id not in gated]
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
    cpts = []
    for gate in fta.gates:
        for child in gate.children:
            edges.append((child, gate.parent))
        rows = gate_cpt(gate.op, len(gate.children))
        cpts.append(Cpt(node=gate.parent, parent_order=gate.children, rows=rows))
    for eid in leaves:
        p = float(leaf_priors[eid])
        cpts.append(Cpt(node=eid, parent_order=(), rows=((p, 1.0 - p),)))

    return build_net(nodes, edges, cpts, objective=fta.top)


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
    for (nid, node), arr in zip(net.nodes.items(), _cpt_arrays(net)):
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
    the result is (sum p*v, sum p*v^2 - mean^2).
    """
    missing = [s for s in post.states if s not in state_values]
    if missing:
        raise MissingStateValue(f"no value for states {missing}")
    mean = sum(p * state_values[s] for p, s in zip(post.probs, post.states))
    second = sum(p * state_values[s] ** 2 for p, s in zip(post.probs, post.states))
    # cancellation in second - mean^2 can land an ulp below zero
    return mean, max(0.0, second - mean * mean)


# ---------------------------------------------------------------------------
# File format


@_base.document_reader("BN document", DocumentError)
def parse_bn(document) -> BayesNet:
    """Parse a BN document (JSON text or parsed object).

    Schema: ``{"nodes": [{id, states}], "edges": [[src, dst]], "cpts":
    [{node, parents, rows}], "objective": id|null}``. Rows whose sum drifts
    from 1 by at most 1e-9 are renormalized; larger drift is rejected.
    """
    nodes = [BnNode(n["id"], tuple(n["states"])) for n in document["nodes"]]
    edges = [(e[0], e[1]) for e in document.get("edges", [])]
    cpts = []
    for c in document["cpts"]:
        rows = []
        for row in c["rows"]:
            row = [float(p) for p in row]
            if not all(map(math.isfinite, row)):
                raise BadCpt(f"cpt row for {c['node']!r} has non-finite entries")
            total = sum(row)
            if abs(total - 1.0) > PROB_TOL:
                raise BadCpt(
                    f"cpt row for {c['node']!r} sums to {total!r}, drift exceeds {PROB_TOL}"
                )
            if total != 1.0:
                # Renormalize, folding the residual ulp into the last
                # entry so that reloading the serialized row is a no-op.
                row = [p / total for p in row]
                row[-1] = max(0.0, 1.0 - sum(row[:-1]))
            rows.append(row)
        cpts.append(Cpt(c["node"], tuple(c.get("parents", [])), rows))
    return build_net(nodes, edges, cpts, objective=document.get("objective"))


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


def save_bn(net: BayesNet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bn_to_document(net), fh, indent=2)
        fh.write("\n")
