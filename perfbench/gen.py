"""Seeded input generators for the benchmark workloads.

Each generator takes a seed and an output directory, writes the files the
program reads, and writes ``expected.json`` with what it planted. The program
only ever sees the input files; ``expected.json`` is read by the checks.
The same seed always gives byte-identical files.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from odd_assure import bayes_core, confidence_templates, fixtures
from oracles import scan_interval_membership

AVP_TICKS = 10_000
AVP_OOD_PER_READING = 0.02  # share of readings placed outside the ODD
AVP_OMIT_PER_TICK = 0.03  # share of ticks that omit one class

WIDE_FEATURES = 12
WIDE_TICKS = 2_000
WIDE_OMIT = 0.07
WIDE_OOD = 0.03

FTA_EVENTS = 400
TEMPLATE_FEATURES = 16
ONTO_SCALE = 1.4  # about 4k triples
ONTO_PLANTED = 40
ONTO_QUERIES = 120
TRACE_ROWS = 8_000


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _bounds(text: str) -> tuple[float, float]:
    lo_tok, hi_tok = "".join(text.split())[1:-1].split(",")
    lo = -math.inf if lo_tok == "-" else float(lo_tok)
    hi = math.inf if hi_tok == "+" else float(hi_tok)
    return lo, hi


def _leaf_classes(odd_doc: dict) -> dict[str, list[tuple[str, str]]]:
    """Leaf class name -> [(attribute, interval text)], straight off the document."""
    parents = {c["parent"] for c in odd_doc["classes"]}
    return {
        c["name"]: [(a["name"], a["interval"]) for a in c["attributes"]]
        for c in odd_doc["classes"]
        if c["name"] not in parents
    }


def _sample_inside(rng: random.Random, interval: str, others: list[str]) -> float:
    """A 6-significant-digit value strictly inside ``interval`` and in no other
    interval of the class (the non-partition speed class overlaps at 60)."""
    lo, hi = _bounds(interval)
    if math.isinf(hi):
        hi = lo + max(1.0, abs(lo))
    while True:
        value = float(f"{rng.uniform(lo, hi):.6g}")
        if scan_interval_membership(interval, value) and not any(
            scan_interval_membership(o, value) for o in others
        ):
            return value


def _sample_outside(rng: random.Random, intervals: list[str]) -> float:
    lo = min(_bounds(iv)[0] for iv in intervals)
    while True:
        value = float(f"{lo - rng.uniform(0.5, 10.0):.6g}")
        if not any(scan_interval_membership(iv, value) for iv in intervals):
            return value


def _stream(rng, classes, bound, n_ticks, omit, ood, weights=None, accept=None):
    """Observation lines plus the expected evidence, dropped readings and
    in-ODD flag of every tick.

    ``classes`` maps class -> [(attribute, interval)] and ``bound`` maps
    class -> node. ``omit(rng, names)`` gives the classes a tick leaves out,
    ``ood(rng)`` whether a reading leaves the ODD, ``weights`` the odds of
    each attribute (uniform by default). A tick whose evidence fails
    ``accept`` is drawn again.
    """
    lines, expected = [], []
    names = sorted(classes)
    while len(lines) < n_ticks:
        omitted = omit(rng, names)
        readings, evidence, dropped = {}, {}, []
        for name in names:
            if name in omitted:
                continue
            attrs = classes[name]
            intervals = [iv for _, iv in attrs]
            if ood(rng):
                readings[name] = _sample_outside(rng, intervals)
                dropped.append(name)
                continue
            if weights is None:
                k = rng.randrange(len(attrs))
            else:
                k = rng.choices(range(len(attrs)), weights)[0]
            attr, interval = attrs[k]
            readings[name] = _sample_inside(rng, interval, intervals[:k] + intervals[k + 1:])
            if name in bound:
                evidence[bound[name]] = attr
        if accept is not None and not accept(evidence):
            continue
        doc = {"t": round(len(lines) * 0.1, 1), "x": round(rng.uniform(0, 200), 2),
               "y": round(rng.uniform(0, 80), 2), "readings": readings}
        lines.append(json.dumps(doc))
        expected.append({"evidence": evidence, "dropped": dropped, "in_odd": not dropped})
    return "\n".join(lines) + "\n", expected


def gen_monitor_avp(seed: int, out: Path) -> None:
    """The AVP bundle plus a 10k-tick stream over every AVP leaf class."""
    rng = random.Random(seed)
    fixtures.write_avp_bundle(out)
    classes = _leaf_classes(fixtures.AVP_ODD_DOCUMENT)

    def omit(r, names):
        return {r.choice(names)} if r.random() < AVP_OMIT_PER_TICK else set()

    text, expected = _stream(
        rng, classes, fixtures.AVP_BINDINGS, AVP_TICKS, omit,
        lambda r: r.random() < AVP_OOD_PER_READING,
    )
    (out / "stream.jsonl").write_text(text, encoding="utf-8")
    _write_json(out / "expected.json", {"bundle": "avp_bundle.json", "ticks": expected})


def gen_monitor_wide(seed: int, out: Path) -> None:
    """A 12-feature testing-adequacy bundle over 12 two-state ODD classes."""
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)
    names = [f"W{i:02d}" for i in range(1, WIDE_FEATURES + 1)]
    attrs = [("adequate", "[0, 1["), ("inadequate", "[1, 2]")]
    odd_doc = {"classes": [{"name": "ODD", "parent": None, "attributes": []}] + [
        {"name": n, "parent": "ODD", "partition": True,
         "attributes": [{"name": a, "unit": "score", "interval": iv} for a, iv in attrs]}
        for n in names
    ]}
    _write_json(out / "wide_odd.json", odd_doc)
    net = confidence_templates.build_testing_adequacy_bn(
        confidence_templates.TemplateConfig(feature_names=tuple(names))
    )
    bayes_core.save_bn(net, out / "wide_bn.json")
    _write_json(out / "wide_bundle.json", {
        "odd": "wide_odd.json",
        "net": "wide_bn.json",
        "bindings": {n: n for n in names},
        "acp": {"solution_id": "SnW", "objective": confidence_templates.TEST_OBJECTIVE,
                "state_values": {"adequate": 1.0, "inadequate": 0.0}},
        "oodd_policy": "drop",
        "worst_states": {},
    })

    def omit(r, class_names):
        return {n for n in class_names if r.random() < WIDE_OMIT}

    # At most 10 inadequate features keeps P(evidence) >= 1e-10, clear of
    # the zero-evidence tolerance, so no tick is degenerate.
    text, expected = _stream(
        rng, {n: attrs for n in names}, {n: n for n in names}, WIDE_TICKS, omit,
        lambda r: r.random() < WIDE_OOD, weights=(0.6, 0.4),
        accept=lambda ev: sum(s == "inadequate" for s in ev.values()) <= 10,
    )
    (out / "stream.jsonl").write_text(text, encoding="utf-8")
    _write_json(out / "expected.json", {"bundle": "wide_bundle.json", "ticks": expected})


# ---------------------------------------------------------------------------
# assurance_build


def _tree_hara(rng: random.Random, n_events: int):
    """Tree-shaped HARA: breadth-first expansion of leaves into 2-4 causes
    until about ``n_events`` events exist. No subtree is shared, so the
    closed-form gate recursion is exact."""
    top = "H0"
    children: dict[str, list[str]] = {}
    ops: dict[str, str] = {}
    frontier = [top]
    count = 1
    while count < n_events:
        parent = frontier.pop(0)
        k = rng.randint(2, 4)
        kids = [f"E{count + j}" for j in range(k)]
        count += k
        children[parent] = kids
        ops[parent] = rng.choice(("AND", "OR"))
        frontier.extend(kids)
    order = [top]
    for kids in children.values():
        order.extend(kids)
    events = [{"id": e, "text": f"event {e}", "atomic": e not in children,
               "role": "hazardous" if e == top else None, "oper_conditions": []}
              for e in order]
    causal = [{"parent": p, "op": ops[p], "children": kids} for p, kids in children.items()]
    priors = {e: round(rng.uniform(0.01, 0.4), 6) for e in order if e not in children}
    doc = {"hazards": [top], "events": events, "causal": causal, "chains": []}
    return doc, priors


def _ontology(rng: random.Random, scale: float, n_planted: int):
    """A consistent safety ontology plus planted single-axiom violations.

    Returns the N-Triples text, the planted violations as [axiom, s, p, o]
    in N-Triples term syntax, query patterns, and the lines each pattern
    matches.
    """
    triples: list[tuple[str, str, str]] = []
    lit_types: set[str] = set()

    def add(s, p, o):
        triples.append((s, p, o))

    def lit(text, typ):
        term = json.dumps(text)
        if term not in lit_types:
            lit_types.add(term)
            add(term, "rdf_type", typ)
        return term

    n_classes = max(4, int(40 * scale))
    classes = ["ODD"] + [f"C{i}" for i in range(1, n_classes)]
    attrs: list[str] = []
    add("ODD", "rdf_type", "OddClass")
    for i, c in enumerate(classes[1:], start=1):
        add(c, "rdf_type", "OddClass")
        add(c, "subClassOf", classes[rng.randrange(i)])
        for j in range(3):
            a = f"{c}_a{j}"
            attrs.append(a)
            add(a, "rdf_type", "OddAttribute")
            add(c, "hasAttribute", a)
            add(a, "hasDomain", lit(rng.choice(("m", "km/h", "Lux", "cm/h")), "Unit"))
            add(a, "hasDomain", lit(f">= {rng.randint(0, 500)}", "Constraint"))

    hazards = [f"Hz{i}" for i in range(int(30 * scale))]
    occs = [f"Oc{i}" for i in range(int(120 * scale))]
    cons = [f"Cn{i}" for i in range(int(60 * scale))]
    for h in hazards:
        add(h, "rdf_type", "Event")
        add(h, "rdf_type", "HazardousEvent")
    for o in occs:
        add(o, "rdf_type", "Event")
        add(o, "rdf_type", "OccurrenceEvent")
        h = rng.choice(hazards)
        add(o, "trigger", h)
        add(h, "dependsOnOccurrence", o)
        add(o, "hasOperCond", rng.choice(attrs))
    for i, o in enumerate(occs[1:], start=1):
        if rng.random() < 0.5:
            add(o, "dependsOnOccurrence", occs[rng.randrange(i)])
    for i, c in enumerate(cons):
        add(c, "rdf_type", "Event")
        add(c, "rdf_type", "ConsequenceEvent")
        add(c, "dependsOnHazardous", rng.choice(hazards))
        if i and rng.random() < 0.5:
            add(c, "dependsOnConsequence", cons[rng.randrange(i)])

    goals, strategies, solutions = [], [], []
    for i, h in enumerate(hazards):
        g = f"G{i}"
        goals.append(g)
        add(g, "rdf_type", "Goal")
        add(g, "rdf_type", "TopLevelGoal")
        add(g, "relatedTo", h)
        add(g, "hasText", json.dumps(f"Hazard {h} is acceptably mitigated"))
        s = f"S{i}"
        strategies.append(s)
        add(s, "rdf_type", "Strategy")
        add(g, "supportedBy", s)
        add(s, "supports", g)
        for j in range(3):
            sg = f"G{i}_{j}"
            goals.append(sg)
            add(sg, "rdf_type", "Goal")
            add(s, "supportedBy", sg)
            add(sg, "supports", s)
            sn = f"Sn{i}_{j}"
            solutions.append(sn)
            for typ in ("Goal", "Solution", "Evidence"):
                add(sn, "rdf_type", typ)
            add(sg, "hasEvidence", sn)
            add(sg, "supportedBy", sn)
            add(sn, "supports", sg)

    nodes = [f"N{i}" for i in range(int(80 * scale))]
    plain_nodes, objectives = nodes[:-8], nodes[-8:]
    for n in nodes:
        add(n, "rdf_type", "Node")
    # A48: every objective node is a dependsOn sink with at least one edge in
    for i, n in enumerate(plain_nodes):
        add(n, "dependsOn", objectives[i % len(objectives)] if i < len(objectives)
            else rng.choice(objectives))
    for n in objectives:
        add(n, "rdf_type", "ObjNode")
        add(n, "hasCPT", f"{n}_cpt")
        add(f"{n}_cpt", "rdf_type", "CptTable")
        add(n, "hasACP", repr(round(rng.uniform(0.5, 1.0), 3)))
    for k, sn in enumerate(solutions[: len(objectives)]):
        add(sn, "hasConfidence", objectives[k])

    # Each planted triple breaks exactly one axiom of an otherwise clean graph.
    kinds = [
        ("A4", lambda: (rng.choice(goals), "hasAttribute", rng.choice(attrs))),
        ("A5", lambda: (rng.choice(attrs), "hasDomain", json.dumps(f"planted {rng.random():.6f}"))),
        ("A26", lambda: (rng.choice(strategies), "supportedBy", rng.choice(plain_nodes))),
        ("A37", lambda: (rng.choice(strategies), "hasConfidence", rng.choice(objectives))),
        ("A45", lambda: (rng.choice(classes), "hasCPT", f"{rng.choice(objectives)}_cpt")),
        ("A47", lambda: (rng.choice(plain_nodes), "hasACP", repr(round(rng.random(), 3)))),
    ]
    existing = set(triples)
    planted = []
    while len(planted) < n_planted:
        axiom, make = kinds[len(planted) % len(kinds)]
        triple = make()
        if triple in existing:
            continue
        existing.add(triple)
        triples.append(triple)
        s, p, o = triple
        if p == "supportedBy":
            triples.append((o, "supports", s))  # keep A28 satisfied
        planted.append([axiom, s, p, o])

    queries = []
    for _ in range(ONTO_QUERIES):
        kind = rng.randrange(4)
        if kind == 0:
            queries.append([None, "rdf_type", rng.choice(("Goal", "Node", "OddClass", "Event"))])
        elif kind == 1:
            queries.append([rng.choice(occs + cons), None, None])
        elif kind == 2:
            queries.append([None, "subClassOf", rng.choice(classes)])
        else:
            queries.append([None, None, rng.choice(hazards)])
    hits = [
        sorted(" ".join(t) + " ." for t in triples
               if all(q is None or q == v for q, v in zip(pattern, t)))
        for pattern in queries
    ]
    rng.shuffle(triples)
    lines = "".join(" ".join(t) + " .\n" for t in triples)
    return lines, planted, queries, hits


def _labelled_trace(rng: random.Random, n_rows: int):
    """Rows over Fog, Rain and Vehicle_lighting; Yes iff fog visibility is
    above one planted threshold and lighting at or below another. Rain is
    noise. Guard rows 0.05 either side of each threshold, inside the other
    feature's Yes range, pin every CART cut within 0.05 of its threshold."""
    fog_cut = round(rng.uniform(200.0, 300.0), 2)
    light_cut = round(rng.uniform(40.0, 80.0), 2)
    guards = []
    for side in (-0.05, 0.05):
        for _ in range(5):
            guards.append((fog_cut + side, rng.uniform(0.0, light_cut - 1.0)))
            guards.append((rng.uniform(fog_cut + 1.0, 600.0), light_cut + side))
    rows = guards + [(rng.uniform(0.0, 600.0), rng.uniform(0.0, 150.0))
                     for _ in range(n_rows - len(guards))]
    rng.shuffle(rows)
    lines = ["Fog,Rain,Vehicle_lighting,label"]
    for fog, light in rows:
        label = "Yes" if fog > fog_cut and light <= light_cut else "No"
        lines.append(f"{fog:.3f},{rng.uniform(0.0, 2.0):.3f},{light:.3f},{label}")
    return "\n".join(lines) + "\n", {"Fog": [fog_cut, "lo"], "Vehicle_lighting": [light_cut, "hi"]}


def gen_assurance_build(seed: int, out: Path) -> None:
    """Inputs for the four offline jobs: tree HARA, template config,
    ontology, labelled trace."""
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)
    hara, priors = _tree_hara(rng, FTA_EVENTS)
    _write_json(out / "hara.json", hara)
    _write_json(out / "priors.json", priors)

    features = [f"T{i:02d}" for i in range(1, TEMPLATE_FEATURES + 1)]
    # at most 6 inadequate features keeps P(evidence) far above the
    # zero-evidence tolerance
    inadequate = set(rng.sample(features, rng.randint(1, 6)))
    evidence = {f: "inadequate" if f in inadequate else "adequate" for f in features}
    _write_json(out / "template.json", {"feature_names": features, "evidence": evidence})

    nt, planted, queries, hits = _ontology(rng, ONTO_SCALE, ONTO_PLANTED)
    (out / "ontology.nt").write_text(nt, encoding="utf-8")
    _write_json(out / "queries.json", queries)

    trace, thresholds = _labelled_trace(rng, TRACE_ROWS)
    (out / "trace.csv").write_text(trace, encoding="utf-8")
    _write_json(out / "trace_odd.json", fixtures.AVP_ODD_DOCUMENT)

    _write_json(out / "expected.json", {
        "fta": {"top": "H0", "gates": [[c["parent"], c["op"], c["children"]] for c in hara["causal"]],
                "events": [[e["id"], e["atomic"]] for e in hara["events"]], "priors": priors},
        "template": {"features": features, "evidence": evidence},
        "ontology": {"violations": planted, "query_hits": hits},
        "refine": {"thresholds": thresholds},
    })


GENERATORS = {
    "monitor_avp": gen_monitor_avp,
    "monitor_wide": gen_monitor_wide,
    "assurance_build": gen_assurance_build,
}
