"""Independent reference implementations used to check the library.

Everything here is deliberately naive: joint probabilities by full
enumeration, gate probabilities by the closed-form recursion, interval
membership by a hand-rolled scan, discretization by testing every interval
of a class, ODD class trees by walking the parent
links from every class, min-fill orders by recounting every fill
each round, CART splits by a mask per candidate threshold, rules by
collapsing each leaf's whole path, axiom checks and pattern queries by
rescanning the graph for every term, ontology lines by a character loop,
traces through ``csv.DictReader``, monitor report lines by ``json.dumps`` of
the whole report document and ``csv.writer`` of the whole row. None of it
shares code with the inference, parsing, fitting, indexing or rendering
paths it is used to verify; the axiom
check and the query read only the rule tables, the canonical sort key and the
message helpers of the module.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
import re

import numpy as np

from odd_assure import safety_ontology as so
from odd_assure.bayes_core import PROB_TOL, BayesNet, BnNode, Cpt, build_net
from odd_assure.boundary_refinement import (
    NO,
    YES,
    DecisionTree,
    Leaf,
    Rule,
    Split,
    TooFewRecords,
    TraceRecord,
)
from odd_assure.boundary_refinement import DocumentError as RefinementDocumentError
from odd_assure.hara_fta import (
    CausalEntry,
    CausalRelation,
    Event,
    EventRole,
    Fta,
    GateOp,
    compute_fta,
    role_candidates,
)
from odd_assure.odd_model import (
    OUT_OF_ODD,
    AmbiguousState,
    EmptyClass,
    MalformedHierarchy,
    NonFiniteReading,
    UnknownClass,
    UnknownParent,
)


def cpt_lookup(net: BayesNet, node_id: str, assignment: dict[str, str]) -> float:
    """P(node = assignment[node] | parents per assignment), straight off the
    row-major table convention."""
    cpt = net.cpts[node_id]
    row = 0
    for parent in cpt.parent_order:
        states = net.nodes[parent].states
        row = row * len(states) + states.index(assignment[parent])
    return cpt.rows[row, net.nodes[node_id].states.index(assignment[node_id])]


def enumerate_joint(net: BayesNet, assignment: dict[str, str]) -> float:
    p = 1.0
    for node_id in net.nodes:
        p *= cpt_lookup(net, node_id, assignment)
    return p


def all_assignments(net: BayesNet):
    names = list(net.nodes)
    state_lists = [net.nodes[n].states for n in names]
    for combo in itertools.product(*state_lists):
        yield dict(zip(names, combo))


def enumerate_posterior(net: BayesNet, query: str, evidence: dict[str, str]) -> dict[str, float]:
    """P(query | evidence) as a dict, by summing the joint over every full
    assignment consistent with the evidence."""
    totals = {state: 0.0 for state in net.nodes[query].states}
    for assignment in all_assignments(net):
        if any(assignment[k] != v for k, v in evidence.items()):
            continue
        totals[assignment[query]] += enumerate_joint(net, assignment)
    z = sum(totals.values())
    if z == 0.0:
        raise ZeroDivisionError("evidence has zero probability")
    return {state: p / z for state, p in totals.items()}


# ---------------------------------------------------------------------------
# Random network generation


def random_net(rng: random.Random, n_nodes: int, p_deterministic: float = 0.0) -> BayesNet:
    """Random DAG over binary nodes with random CPTs. Edges always point from
    a lower to a higher index, which guarantees acyclicity. With
    ``p_deterministic`` > 0, that share of rows is (1, 0) or (0, 1), so some
    evidence has probability zero."""
    names = [f"n{i}" for i in range(n_nodes)]
    edges = []
    for j in range(1, n_nodes):
        for i in range(j):
            if rng.random() < 0.35:
                edges.append((names[i], names[j]))
    nodes = [BnNode(n, ("t", "f")) for n in names]
    cpts = []
    for j, name in enumerate(names):
        parents = tuple(src for src, dst in edges if dst == name)
        rows = []
        for _ in range(2 ** len(parents)):
            p = rng.uniform(0.02, 0.98)
            if p_deterministic and rng.random() < p_deterministic:
                p = float(p < 0.5)
            rows.append((p, 1.0 - p))
        cpts.append(Cpt(name, parents, tuple(rows)))
    return build_net(nodes, edges, cpts)


def renormalized_rows(rows) -> list[list[float]]:
    """CPT rows as ``parse_bn`` keeps them, entry by entry: a row whose exact
    sum is off 1 by at most ``PROB_TOL`` is scaled, and the residual folded
    into its largest entry."""
    out = []
    for row in rows:
        row = [float(p) for p in row]
        total = math.fsum(row)
        if total != 1.0 and abs(total - 1.0) <= PROB_TOL:
            row = [p / total for p in row]
            top = row.index(max(row))
            row[top] = math.fsum([1.0, *(-p for i, p in enumerate(row) if i != top)])
        out.append(row)
    return out


def random_evidence(rng: random.Random, net: BayesNet, exclude: str, max_vars: int) -> dict[str, str]:
    candidates = [n for n in net.nodes if n != exclude]
    rng.shuffle(candidates)
    chosen = candidates[: rng.randint(0, min(max_vars, len(candidates)))]
    return {n: rng.choice(net.nodes[n].states) for n in chosen}


def min_fill_order(factor_scopes: list[tuple[str, ...]], keep: set[str]) -> list[str]:
    """Greedy elimination order minimizing fill-in edges, smallest name first
    among ties: every round recounts every remaining variable's fill."""
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


# ---------------------------------------------------------------------------
# Fault trees


#: The most events random_tree_fta builds: it expands only above depth 4, into at most 3 causes.
TREE_EVENTS = sum(3**depth for depth in range(5))


def random_tree_fta(rng: random.Random, max_events: int = 10) -> tuple[Fta, dict[str, float]]:
    """Random tree-shaped fault tree (no shared subtrees, so the closed-form
    gate recursion below is exact) plus random leaf priors. A ``max_events``
    above ``TREE_EVENTS`` is a ValueError, raised before any random draw."""
    if max_events > TREE_EVENTS:
        raise ValueError(f"a random tree has at most {TREE_EVENTS} events, not {max_events}")
    counter = itertools.count()
    events: list[Event] = []
    mapping: dict[str, CausalEntry] = {}
    budget = rng.randint(1, max_events)

    def build(remaining: list[int], depth: int) -> str:
        eid = f"e{next(counter)}"
        can_expand = remaining[0] >= 2 and depth < 4 and rng.random() < 0.75
        if not can_expand:
            events.append(Event(eid, eid, atomic=True))
            return eid
        n_children = rng.randint(2, min(3, remaining[0]))
        remaining[0] -= n_children
        children = tuple(build(remaining, depth + 1) for _ in range(n_children))
        events.append(Event(eid, eid, atomic=False))
        mapping[eid] = CausalEntry(children, rng.choice((GateOp.AND, GateOp.OR)))
        return eid

    top_id = build([budget], 0)
    top = next(e for e in events if e.id == top_id)
    fta = compute_fta(top, events, CausalRelation(mapping))
    priors = {e.id: rng.random() for e in fta.events if e.atomic}
    return fta, priors


def gate_formula_top_probability(fta: Fta, priors: dict[str, float]) -> float:
    """Closed-form failure probability of the top event for tree FTAs:
    AND multiplies child probabilities, OR complements the product of
    complements."""
    gates = {g.parent: g for g in fta.gates}

    def prob(eid: str) -> float:
        gate = gates.get(eid)
        if gate is None:
            return priors[eid]
        child_probs = [prob(c) for c in gate.children]
        if gate.op is GateOp.AND:
            return math.prod(child_probs)
        return 1.0 - math.prod(1.0 - p for p in child_probs)

    return prob(fta.top)


def forward_sample(net: BayesNet, n: int, rng: random.Random) -> list[dict[str, str]]:
    """Ancestral sampling along a locally computed topological order."""
    remaining = {nid: set(net.cpts[nid].parent_order) for nid in net.nodes}
    order = []
    while remaining:
        ready = sorted(n for n, deps in remaining.items() if not deps)
        order.extend(ready)
        for n_ in ready:
            del remaining[n_]
        for deps in remaining.values():
            deps.difference_update(ready)
    records = []
    for _ in range(n):
        rec: dict[str, str] = {}
        for nid in order:
            states = net.nodes[nid].states
            p = cpt_row(net, nid, rec)
            u = rng.random()
            acc = 0.0
            chosen = states[-1]
            for state, prob in zip(states, p):
                acc += prob
                if u < acc:
                    chosen = state
                    break
            rec[nid] = chosen
        records.append(rec)
    return records


def cpt_row(net: BayesNet, node_id: str, assignment: dict[str, str]) -> tuple[float, ...]:
    cpt = net.cpts[node_id]
    row = 0
    for parent in cpt.parent_order:
        states = net.nodes[parent].states
        row = row * len(states) + states.index(assignment[parent])
    return tuple(cpt.rows[row].tolist())


# ---------------------------------------------------------------------------
# Intervals


def scan_interval_membership(text: str, value: float) -> bool:
    """Re-derive membership straight from the bracket text, independently of
    the Interval class."""
    body = "".join(text.split())
    lo_inc = body[0] == "["
    hi_inc = body[-1] == "]"
    lo_tok, hi_tok = body[1:-1].split(",")
    lo = -math.inf if lo_tok == "-" else float(lo_tok)
    hi = math.inf if hi_tok == "+" else float(hi_tok)
    above = value >= lo if lo_inc else value > lo
    below = value <= hi if hi_inc else value < hi
    return above and below


def discretize(spec, class_name: str, value: float):
    """The attribute of ``class_name`` whose interval holds ``value``, found
    by testing every interval in turn; raises as ``odd_model.discretize``
    does, with the same messages."""
    cls = spec.classes.get(class_name)
    if cls is None:
        raise UnknownClass(f"no ODD class named {class_name!r}")
    if not cls.attributes:
        raise EmptyClass(f"class {class_name!r} has no attributes to discretize against")
    matches = [a.name for a in cls.attributes if a.bounds.contains(value)]
    if not matches:
        if not math.isfinite(value):
            raise NonFiniteReading(f"reading {value!r} of class {class_name!r} is not finite")
        return OUT_OF_ODD
    if len(matches) > 1:
        raise AmbiguousState(f"value {value!r} falls in {matches} of class {class_name!r}")
    return matches[0]


# ---------------------------------------------------------------------------
# ODD class tree


def odd_hierarchy_error(parents: dict) -> type | None:
    """The error class the parent links ``{class: parent or None}`` earn, or
    None for a single-rooted tree: exactly one root, every parent declared,
    and a walk up from every class that reaches the root without revisiting
    a class."""
    roots = [name for name, parent in parents.items() if parent is None]
    if len(roots) != 1:
        return MalformedHierarchy
    if any(p is not None and p not in parents for p in parents.values()):
        return UnknownParent
    for name, parent in parents.items():
        seen = {name}
        while parent is not None:
            if parent in seen:
                return MalformedHierarchy
            seen.add(parent)
            parent = parents[parent]
        if roots[0] not in seen:
            return MalformedHierarchy
    return None


# ---------------------------------------------------------------------------
# Trace parsing


def trace_cell(cell: str) -> float:
    """``float(cell)`` for a cell with no whitespace, ``_`` or non-ASCII
    character, which ``float`` would forgive."""
    if not cell.isascii() or any(c.isspace() or c == "_" for c in cell):
        raise ValueError(f"{cell!r} is not a number")
    return float(cell)


# DictReader's markers: the key of a row's extra cells, the value of a missing cell
_EXTRA, _MISSING = object(), object()


def parse_trace(text: str) -> list:
    """Trace records through ``csv.DictReader``: a dict, a ``trace_cell`` per
    cell and a ``TraceRecord`` per row. Every row is read before a cell is
    checked. A header that repeats a name, or a row with extra or missing
    cells, is malformed; ``line_num`` names the row."""
    reader = csv.DictReader(io.StringIO(text), restkey=_EXTRA, restval=_MISSING)
    header = reader.fieldnames or []
    seen = set()
    for name in header:
        if name in seen:
            raise RefinementDocumentError(f"malformed trace: row 1 repeats column {name!r}")
        seen.add(name)
    rows = []
    for row in reader:
        width = len(header) + len(row.get(_EXTRA, ())) - list(row.values()).count(_MISSING)
        if width != len(header):
            raise RefinementDocumentError(
                f"malformed trace: row {reader.line_num} has {width} cells, "
                f"the header has {len(header)}")
        rows.append((reader.line_num, row))
    if "label" not in header:
        raise RefinementDocumentError("trace needs a header row with a 'label' column")
    features = [n for n in header if n != "label"]
    if not features:
        raise RefinementDocumentError("trace has no feature columns")
    records = []
    for line, row in rows:
        try:
            values = {n: trace_cell(row[n]) for n in features}
        except ValueError as exc:
            raise RefinementDocumentError(f"row {line}: bad numeric value ({exc})") from exc
        if not all(map(math.isfinite, values.values())):
            raise RefinementDocumentError(f"row {line}: feature values must be finite")
        records.append(TraceRecord(values, row["label"]))
    if not records:
        raise TooFewRecords("trace has no data rows")
    return records


# ---------------------------------------------------------------------------
# CART


def _gini(n_yes: int, n_no: int) -> float:
    total = n_yes + n_no
    p_yes = n_yes / total
    p_no = n_no / total
    return 1.0 - p_yes * p_yes - p_no * p_no


def _leaf(n_yes: int, n_no: int) -> Leaf:
    return Leaf(YES if n_yes > n_no else NO, n_yes, n_no)


def fit_tree(records, max_depth: int = 6, min_leaf: int = 20) -> DecisionTree:
    """CART on valid records by brute force: every midpoint between
    consecutive distinct values gets its own mask and its own counts. Ties go
    to the earlier feature name, then the lower threshold."""
    names = sorted(records[0].features)
    ordered = sorted(records, key=lambda r: ([r.features[n] for n in names], r.label))
    x = np.array([[r.features[n] for n in names] for r in ordered], dtype=float)
    y = np.array([1 if r.label == YES else 0 for r in ordered], dtype=int)

    def grow(idx, depth):
        n_yes = int(y[idx].sum())
        n_no = int(len(idx) - n_yes)
        impurity = _gini(n_yes, n_no)
        if impurity == 0.0 or depth >= max_depth:
            return _leaf(n_yes, n_no)
        best = None  # (weighted impurity, feature pos, threshold, mask)
        for pos in range(len(names)):
            col = x[idx, pos]
            values = np.unique(col)
            for lo, hi in zip(values, values[1:]):
                threshold = (lo + hi) / 2.0
                mask = col <= threshold
                nl = int(mask.sum())
                nr = len(idx) - nl
                if nl < min_leaf or nr < min_leaf:
                    continue
                yl = int(y[idx][mask].sum())
                yr = n_yes - yl
                weighted = (nl * _gini(yl, nl - yl) + nr * _gini(yr, nr - yr)) / len(idx)
                if weighted >= impurity:
                    continue
                if best is None or weighted < best[0]:
                    best = (weighted, pos, threshold, mask)
        if best is None:
            return _leaf(n_yes, n_no)
        _, pos, threshold, mask = best
        return Split(names[pos], float(threshold), grow(idx[mask], depth + 1),
                     grow(idx[~mask], depth + 1))

    root = grow(np.arange(len(ordered)), 0)
    constant = isinstance(root, Leaf) and _gini(root.n_yes, root.n_no) > 0.0
    return DecisionTree(root, tuple(names), constant)


def extract_rules(tree: DecisionTree) -> list[Rule]:
    """One rule per leaf, left to right: each leaf's whole path is copied
    down the stack and collapsed on its own, the tightest bound per feature
    and op kept at the position of the first test."""
    rules = []
    todo = [(tree.root, ())]
    while todo:
        node, path = todo.pop()
        if isinstance(node, Leaf):
            rules.append(Rule(tuple(_collapse(path)), node.label))
            continue
        todo.append((node.right, path + ((node.feature, ">", node.threshold),)))
        todo.append((node.left, path + ((node.feature, "<=", node.threshold),)))
    return rules


def _collapse(path) -> list[tuple[str, str, float]]:
    out: list[tuple[str, str, float]] = []
    slot: dict[tuple[str, str], int] = {}
    for feature, op, threshold in path:
        key = (feature, op)
        if key not in slot:
            slot[key] = len(out)
            out.append((feature, op, threshold))
            continue
        i = slot[key]
        kept = out[i][2]
        if op == "<=":
            out[i] = (feature, op, min(kept, threshold))
        else:
            out[i] = (feature, op, max(kept, threshold))
    return out


# ---------------------------------------------------------------------------
# Ontology queries and line format


def query(graph, subject=None, predicate=None, object=None) -> list:
    """Matching triples by a scan of the whole graph and a sort of the hits."""
    hits = [
        t
        for t in graph.triples
        if (subject is None or t.subject == subject)
        and (predicate is None or t.predicate == predicate)
        and (object is None or t.object == object)
    ]
    return sorted(hits, key=so._sort_key)


def _parse_term(token: str, line_no: int):
    if token.startswith('"'):
        if not token.endswith('"') or len(token) < 2:
            raise so.ParseError(f"unterminated literal {token!r}", line_no)
        body = token[1:-1]
        out, i = [], 0
        while i < len(body):
            ch = body[i]
            if ch == "\\":
                if i + 1 >= len(body):
                    raise so.ParseError(f"dangling escape in {token!r}", line_no)
                nxt = body[i + 1]
                out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, nxt))
                i += 2
            else:
                out.append(ch)
                i += 1
        return so.Literal("".join(out))
    if re.fullmatch(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", token, re.ASCII):
        if math.isinf(float(token)):
            raise so.ParseError(f"number {token!r} overflows a float", line_no)
        return so.Literal(float(token))
    if any(c in ' \t\n"' for c in token):
        raise so.ParseError(f"bad identifier {token!r}", line_no)
    return token


def split_terms(line: str, line_no: int) -> list[str]:
    """Tokens of one line by a character loop: quoted literals whole,
    everything else split on ``str.isspace`` runs."""
    tokens, i, n = [], 0, len(line)
    while i < n:
        if line[i].isspace():
            i += 1
            continue
        if line[i] == '"':
            j = i + 1
            while j < n:
                if line[j] == "\\":
                    j += 2
                    continue
                if line[j] == '"':
                    break
                j += 1
            if j >= n:
                raise so.ParseError("unterminated string literal", line_no)
            tokens.append(line[i : j + 1])
            i = j + 1
        else:
            j = i
            while j < n and not line[j].isspace():
                j += 1
            tokens.append(line[i:j])
            i = j
    return tokens


def import_graph(text: str):
    """The line format read by the character loop, every token parsed anew."""
    triples = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = split_terms(line, line_no)
        if len(tokens) != 4 or tokens[-1] != ".":
            raise so.ParseError("expected `subject predicate object .`", line_no)
        subject = _parse_term(tokens[0], line_no)
        predicate = tokens[1]
        if predicate not in so.VOCABULARY:
            raise so.ParseError(f"unknown predicate {predicate!r}", line_no)
        obj = _parse_term(tokens[2], line_no)
        triples.add(so.Triple(subject, predicate, obj))
    return so.TripleGraph(frozenset(triples))


# ---------------------------------------------------------------------------
# Ontology axioms


def _types_of(graph, term) -> set[str]:
    return {
        t.object
        for t in graph.triples
        if t.predicate == so.RDF_TYPE and t.subject == term and isinstance(t.object, str)
    }


def _individuals_of(graph, cls: str) -> list:
    found = {t.subject for t in graph.triples if t.predicate == so.RDF_TYPE and t.object == cls}
    return sorted(found, key=lambda term: so._sort_key((term, "", term))[:2])


def check_axioms(graph) -> list:
    """The closed-world axiom check with a full scan of the graph for every
    type, edge and individual it looks up."""
    fmt = so.format_term
    out = []

    def typed(rules, t, side):
        rule = rules.get(t.predicate)
        term = t.object if side == "object" else t.subject
        if rule is not None and not _types_of(graph, term) & rule[1]:
            out.append(so.AxiomViolation(
                rule[0], t,
                f"{side} of {t.predicate} must be typed "
                f"{' or '.join(sorted(rule[1]))}, got {fmt(term)}",
            ))

    for t in sorted(graph.triples, key=so._sort_key):
        typed(so._RANGE_RULES, t, "object")
        typed(so._DOMAIN_RULES, t, "subject")
        if t.predicate == "hasConfidence" and not {"Goal", "Solution"} <= _types_of(graph, t.subject):
            out.append(so.AxiomViolation(
                "A37", t,
                f"subject of hasConfidence must be typed Goal and Solution, got {fmt(t.subject)}",
            ))
        is_literal = isinstance(t.object, so.Literal)
        if t.predicate == "hasText" and not (is_literal and isinstance(t.object.value, str)):
            out.append(so.AxiomViolation("A40", t, "object of hasText must be a string literal"))
        if t.predicate == "hasACP" and not (
            is_literal
            and isinstance(t.object.value, (int, float))
            and 0.0 <= float(t.object.value) <= 1.0
        ):
            out.append(so.AxiomViolation(
                "A46", t, "object of hasACP must be a numeric literal in [0, 1]"
            ))
        if t.predicate == "supportedBy" and so.Triple(t.object, "supports", t.subject) not in graph.triples:
            out.append(so.AxiomViolation("A28", t, "inverse supports fact is not materialized"))
        if t.predicate in ("hasInference", "hasEvidence") and (
            so.Triple(t.subject, "supportedBy", t.object) not in graph.triples
        ):
            axiom = "A32" if t.predicate == "hasInference" else "A35"
            out.append(so.AxiomViolation(axiom, t, f"{t.predicate} fact lacks its supportedBy fact"))

    for role, cls, axiom in (
        (EventRole.OCCURRENCE, "OccurrenceEvent", "A21"),
        (EventRole.CONSEQUENCE, "ConsequenceEvent", "A22"),
        (EventRole.HAZARDOUS, "HazardousEvent", "A23"),
    ):
        for term in _individuals_of(graph, cls):
            preds = {t.predicate for t in graph.triples if t.subject == term}
            if role not in role_candidates(preds):
                out.append(so.AxiomViolation(
                    axiom, so.Triple(term, so.RDF_TYPE, cls),
                    f"{fmt(term)} is typed {cls} but its dependency edges rule that out",
                ))
    for term in _individuals_of(graph, "ObjNode"):
        is_node = so.Triple(term, so.RDF_TYPE, "Node") in graph.triples
        edges = [t for t in graph.triples if t.predicate == "dependsOn"]
        incoming = any(t.object == term for t in edges)
        outgoing = any(t.subject == term for t in edges)
        if not (is_node and incoming and not outgoing):
            out.append(so.AxiomViolation(
                "A48", so.Triple(term, so.RDF_TYPE, "ObjNode"),
                f"{fmt(term)} must be a Node with incoming and no outgoing dependsOn edges",
            ))
    return out


# ---------------------------------------------------------------------------
# Monitor report lines


def report_json_line(report) -> str:
    """A JSONL report line: ``json.dumps`` of the whole report document,
    built field by field, and a newline."""
    post = report.posterior
    return json.dumps({
        "t": report.time,
        "evidence": report.evidence,
        "posterior": None if post is None else dict(zip(post.states, post.probs)),
        "mean": report.mean,
        "variance": report.variance,
        "in_odd": report.in_odd,
        "dropped_readings": list(report.dropped_readings),
        "degenerate": report.degenerate,
    }) + "\n"


def report_csv_row(report) -> list[str]:
    """The fields of a CSV report row, in ``REPORT_CSV_COLUMNS`` order."""
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


def report_csv_line(report) -> str:
    """What ``csv.writer`` writes for ``report_csv_row(report)``."""
    out = io.StringIO()
    csv.writer(out).writerow(report_csv_row(report))
    return out.getvalue()
