"""Discrete Bayesian networks: construction, fault-tree compilation, exact
inference, CPT fitting, and posterior summary statistics.

Inference is exact variable elimination over numpy-backed factors with a
greedy min-fill ordering. The ordering only affects cost, never the result;
the test suite holds every posterior against an independent enumeration of
the full joint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
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


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table in row-major parent order.

    Row ``r`` covers the parent-state combination whose mixed-radix digits
    (first parent most significant) encode ``r``; each row is a probability
    vector over the child's states.
    """

    node: str
    parent_order: tuple[str, ...]
    table: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        for row in self.table:
            if any(p < 0.0 or p > 1.0 for p in row):
                raise BadCpt(f"cpt for {self.node!r} has entries outside [0, 1]")
            if abs(sum(row) - 1.0) > PROB_TOL:
                raise BadCpt(
                    f"cpt row for {self.node!r} sums to {sum(row)!r}, not 1 within {PROB_TOL}"
                )

    def row_index(self, parent_states: Sequence[int], parent_cards: Sequence[int]) -> int:
        idx = 0
        for digit, card in zip(parent_states, parent_cards):
            idx = idx * card + digit
        return idx


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
        if len(cpt.table) != expected_rows:
            raise BadCpt(
                f"cpt for {cpt.node!r} has {len(cpt.table)} rows, expected {expected_rows}"
            )
        for row in cpt.table:
            if len(row) != len(node_map[cpt.node].states):
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
# Factors and variable elimination


@dataclass(frozen=True)
class _Factor:
    vars: tuple[str, ...]
    values: np.ndarray  # shape: one axis per var, in vars order

    def multiply(self, other: "_Factor") -> "_Factor":
        merged = self.vars + tuple(v for v in other.vars if v not in self.vars)
        a = self._expand(merged)
        b = other._expand(merged)
        return _Factor(merged, a * b)

    def _expand(self, target_vars: tuple[str, ...]) -> np.ndarray:
        src = self.values
        # Move existing axes into target positions, add length-1 axes for the rest.
        shape = []
        for v in target_vars:
            shape.append(src.shape[self.vars.index(v)] if v in self.vars else 1)
        perm = [self.vars.index(v) for v in target_vars if v in self.vars]
        arranged = np.transpose(src, perm)
        return arranged.reshape(shape)

    def marginalize(self, var: str) -> "_Factor":
        axis = self.vars.index(var)
        rest = tuple(v for v in self.vars if v != var)
        return _Factor(rest, self.values.sum(axis=axis))

    def restrict(self, var: str, index: int) -> "_Factor":
        axis = self.vars.index(var)
        rest = tuple(v for v in self.vars if v != var)
        return _Factor(rest, np.take(self.values, index, axis=axis))


def _cpt_factor(net: BayesNet, node_id: str) -> _Factor:
    node = net.nodes[node_id]
    cpt = net.cpts[node_id]
    parent_cards = [len(net.nodes[p].states) for p in cpt.parent_order]
    arr = np.asarray(cpt.table, dtype=float).reshape(parent_cards + [len(node.states)])
    return _Factor(cpt.parent_order + (node_id,), arr)


def _min_fill_order(factor_scopes: list[tuple[str, ...]], keep: set[str]) -> list[str]:
    """Greedy elimination order minimizing fill-in edges; lexicographic tie-break."""
    neighbors: dict[str, set[str]] = {}
    for scope in factor_scopes:
        for v in scope:
            neighbors.setdefault(v, set()).update(u for u in scope if u != v)
    remaining = sorted(v for v in neighbors if v not in keep)
    order = []
    while remaining:
        best, best_fill = None, None
        for v in remaining:
            live = [u for u in neighbors[v] if u in remaining or u in keep]
            fill = sum(
                1
                for i, a in enumerate(live)
                for b in live[i + 1:]
                if b not in neighbors.get(a, ())
            )
            if best_fill is None or fill < best_fill:
                best, best_fill = v, fill
        live = [u for u in neighbors[best] if u != best]
        for a in live:
            neighbors[a].update(u for u in live if u != a)
            neighbors[a].discard(best)
        order.append(best)
        remaining.remove(best)
    return order


def _validate_evidence(net: BayesNet, evidence: EvidenceSet) -> dict[str, int]:
    indexed = {}
    for nid, state in evidence.assignments.items():
        indexed[nid] = net.node(nid).state_index(state)
    return indexed


def joint_probability(net: BayesNet, full_assignment: Mapping[str, str]) -> float:
    """Probability of one complete assignment: the product over every node of
    its CPT entry given the assigned parent states."""
    missing = sorted(set(net.nodes) - set(full_assignment))
    if missing:
        raise IncompleteAssignment(f"assignment misses nodes {missing}")
    prob = 1.0
    for nid, node in net.nodes.items():
        cpt = net.cpts[nid]
        state_idx = node.state_index(full_assignment[nid])
        parent_idx = [
            net.nodes[p].state_index(full_assignment[p]) for p in cpt.parent_order
        ]
        parent_cards = [len(net.nodes[p].states) for p in cpt.parent_order]
        row = cpt.table[cpt.row_index(parent_idx, parent_cards)]
        prob *= row[state_idx]
    return prob


def posterior(net: BayesNet, query: str, evidence: EvidenceSet | None = None) -> Posterior:
    """P(query | evidence) by variable elimination.

    Evidence is sliced out of the factors first, every other variable is
    summed out along a min-fill order, and the surviving factor over the
    query is normalized by P(evidence).
    """
    evidence = evidence or EvidenceSet({})
    query_node = net.node(query)
    if query in evidence.assignments:
        raise BayesError(f"query node {query!r} is part of the evidence")
    ev_idx = _validate_evidence(net, evidence)

    factors = []
    for nid in net.nodes:
        f = _cpt_factor(net, nid)
        for ev_var, idx in ev_idx.items():
            if ev_var in f.vars:
                f = f.restrict(ev_var, idx)
        factors.append(f)

    order = _min_fill_order([f.vars for f in factors], keep={query})
    for var in order:
        related = [f for f in factors if var in f.vars]
        others = [f for f in factors if var not in f.vars]
        product = related[0]
        for f in related[1:]:
            product = product.multiply(f)
        factors = others + [product.marginalize(var)]

    result = factors[0]
    for f in factors[1:]:
        result = result.multiply(f)
    if result.vars != (query,):
        result = _Factor((query,), result._expand((query,)).reshape(-1))
    unnormalized = result.values
    z = float(unnormalized.sum())
    if z <= ZERO_EVIDENCE_TOL:
        raise ZeroProbabilityEvidence(
            f"evidence {dict(evidence.assignments)} has probability {z!r}"
        )
    probs = unnormalized / z
    return Posterior(node=query, states=query_node.states, probs=tuple(float(p) for p in probs))


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
        cpts.append(
            Cpt(node=gate.parent, parent_order=gate.children, table=gate_cpt(gate.op, len(gate.children)))
        )
    for eid in leaves:
        p = float(leaf_priors[eid])
        cpts.append(Cpt(node=eid, parent_order=(), table=((p, 1.0 - p),)))

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
    if not records and smoothing == 0.0:
        raise EmptyData("no records and no smoothing to fall back on")
    if smoothing < 0.0:
        raise BayesError("smoothing must be >= 0")

    new_cpts = []
    for nid, node in net.nodes.items():
        cpt = net.cpts[nid]
        parent_cards = [len(net.nodes[p].states) for p in cpt.parent_order]
        n_rows = len(cpt.table)
        n_states = len(node.states)
        counts = np.zeros((n_rows, n_states), dtype=float)
        for rec in records:
            missing = [k for k in (nid, *cpt.parent_order) if k not in rec]
            if missing:
                raise IncompleteAssignment(f"record misses {missing}")
            parent_idx = [net.nodes[p].state_index(rec[p]) for p in cpt.parent_order]
            row = cpt.row_index(parent_idx, parent_cards)
            counts[row, node.state_index(rec[nid])] += 1.0
        counts += smoothing
        totals = counts.sum(axis=1, keepdims=True)
        empty = totals[:, 0] == 0.0
        counts[empty] = 1.0
        totals = counts.sum(axis=1, keepdims=True)
        table = tuple(tuple(float(p) for p in row) for row in counts / totals)
        new_cpts.append(replace(cpt, table=table))

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


def parse_bn(document) -> BayesNet:
    """Parse a BN document (JSON text or parsed object).

    Schema: ``{"nodes": [{id, states}], "edges": [[src, dst]], "cpts":
    [{node, parents, rows}], "objective": id|null}``. Rows whose sum drifts
    from 1 by at most 1e-9 are renormalized; larger drift is rejected.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise DocumentError("document must be an object")
    try:
        nodes = [BnNode(n["id"], tuple(n["states"])) for n in document["nodes"]]
        edges = [(e[0], e[1]) for e in document.get("edges", [])]
        cpts = []
        for c in document["cpts"]:
            rows = []
            for row in c["rows"]:
                row = [float(p) for p in row]
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
                rows.append(tuple(row))
            cpts.append(Cpt(c["node"], tuple(c.get("parents", [])), tuple(rows)))
    except (KeyError, TypeError, IndexError) as exc:
        raise DocumentError(f"malformed BN document: {exc!r}") from exc
    return build_net(nodes, edges, cpts, objective=document.get("objective"))


def bn_to_document(net: BayesNet) -> dict:
    return {
        "nodes": [{"id": n.id, "states": list(n.states)} for n in net.nodes.values()],
        "edges": [list(e) for e in net.edges],
        "cpts": [
            {
                "node": c.node,
                "parents": list(c.parent_order),
                "rows": [list(row) for row in c.table],
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
