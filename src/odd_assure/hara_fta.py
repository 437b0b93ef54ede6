"""Hazard analysis structures: causal event chains and fault tree construction.

A hazard is decomposed into a fault tree by walking a causal relation from
the top event with an explicit worklist. Non-atomic events receive an AND/OR
gate over their cause events; atomic events terminate the walk and carry the
operating conditions (ODD class/attribute references) that make them
observable. Events may be shared between branches, so the result is a DAG
rather than a strict tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Collection, Iterable, Mapping, NamedTuple

from . import _base


class HaraError(_base.ModelError):
    """Base class for hazard analysis errors."""


class DocumentError(HaraError, _base.DocumentError):
    pass


class CyclicCausality(HaraError):
    """The causal relation contains a cycle reachable from the hazard."""


class DanglingReference(HaraError):
    pass


class InconsistentChain(HaraError):
    """An event's dependency edges contradict its declared role."""


class GateOp(str, Enum):
    AND = "AND"
    OR = "OR"


class EventRole(str, Enum):
    OCCURRENCE = "occurrence"
    HAZARDOUS = "hazardous"
    CONSEQUENCE = "consequence"


@dataclass(frozen=True)
class Event:
    """A HARA event. Atomic events are leaves observable through operating
    conditions; only they may carry ``oper_conditions``. The id and text are
    strings."""

    id: str
    text: str
    atomic: bool
    oper_conditions: tuple[tuple[str, str], ...] = ()
    role: EventRole | None = None

    def __post_init__(self) -> None:
        if not (isinstance(self.id, str) and isinstance(self.text, str)):
            raise DocumentError(f"event {self.id!r}: the id and text must be strings")
        if self.oper_conditions and not self.atomic:
            raise DocumentError(
                f"event {self.id!r} is not atomic but declares operating conditions"
            )
        if not all(isinstance(name, str) for pair in self.oper_conditions for name in pair):
            raise DocumentError(f"event {self.id!r}: an operating condition names a non-string")


class CausalEntry(NamedTuple):
    children: tuple[str, ...]
    op: GateOp


@dataclass(frozen=True)
class CausalRelation:
    """Maps an event to its ordered cause events and the gate operator
    combining them."""

    mapping: Mapping[str, CausalEntry]

    def __post_init__(self) -> None:
        for parent, entry in self.mapping.items():
            if not entry.children:
                raise DocumentError(f"causal entry for {parent!r} has no children")
            if parent in entry.children:
                raise DocumentError(f"causal entry for {parent!r} references itself")
            if len(set(entry.children)) != len(entry.children):
                raise DocumentError(f"causal entry for {parent!r} repeats a child")


class Gate(NamedTuple):
    parent: str
    children: tuple[str, ...]
    op: GateOp


class Fta(NamedTuple):
    """Fault tree: top event, ordered event set, and one gate per non-atomic
    event reachable from the top."""

    top: str
    events: tuple[Event, ...]
    gates: tuple[Gate, ...]

    def event(self, event_id: str) -> Event:
        for e in self.events:
            if e.id == event_id:
                return e
        raise KeyError(event_id)

    def atomic_events(self) -> tuple[Event, ...]:
        return tuple(e for e in self.events if e.atomic)


class DependsKind(str, Enum):
    ON_OCCURRENCE = "dependsOnOccurrence"
    ON_HAZARDOUS = "dependsOnHazardous"
    ON_CONSEQUENCE = "dependsOnConsequence"
    TRIGGER = "trigger"


class ChainEdge(NamedTuple):
    kind: DependsKind
    src: str
    dst: str


@dataclass(frozen=True)
class HazardChain:
    """Occurrence events feeding a hazardous event feeding consequence events,
    with typed dependency edges between them."""

    hazardous_event: str
    occurrence_events: tuple[str, ...] = ()
    consequence_events: tuple[str, ...] = ()
    edges: tuple[ChainEdge, ...] = ()

    def __post_init__(self) -> None:
        members = set(self.members())
        for edge in self.edges:
            if edge.src not in members or edge.dst not in members:
                raise DanglingReference(
                    f"chain edge {edge.src!r} -> {edge.dst!r} leaves the chain"
                )
            if edge.kind is DependsKind.TRIGGER:
                if edge.src not in self.occurrence_events or edge.dst != self.hazardous_event:
                    raise InconsistentChain(
                        "trigger edges run strictly from occurrence events to the hazardous event"
                    )

    def members(self) -> tuple[str, ...]:
        return self.occurrence_events + (self.hazardous_event,) + self.consequence_events

    def declared_role(self, event_id: str) -> EventRole:
        if event_id == self.hazardous_event:
            return EventRole.HAZARDOUS
        if event_id in self.occurrence_events:
            return EventRole.OCCURRENCE
        if event_id in self.consequence_events:
            return EventRole.CONSEQUENCE
        raise DanglingReference(f"event {event_id!r} is not part of the chain")


class FtaDefect(NamedTuple):
    kind: str
    event_ids: tuple[str, ...]
    message: str

    def __str__(self) -> str:
        return f"{self.kind}{list(self.event_ids)}: {self.message}"


def compute_fta(hazard: Event, events: Iterable[Event], causal_relation: CausalRelation) -> Fta:
    """Construct the fault tree rooted at ``hazard``.

    The gates are those of the events the hazard reaches, in the order
    :func:`_expand` expands them. The event set is the hazard followed by
    the gates' children, each at its first occurrence, preserving the child
    order given by the causal relation. A cycle among the reached events
    raises CyclicCausality; one the hazard cannot reach does not.
    """
    by_id = {e.id: e for e in events}
    if hazard.id not in by_id:
        raise DanglingReference(f"hazard {hazard.id!r} is not in the event set")
    for parent, entry in causal_relation.mapping.items():
        for ref in (parent, *entry.children):
            if ref not in by_id:
                raise DanglingReference(f"causal relation references unknown event {ref!r}")
        if by_id[parent].atomic:
            raise DocumentError(f"atomic event {parent!r} cannot have cause events")

    mapping = causal_relation.mapping
    reached = _expand(hazard.id, {parent: entry.children for parent, entry in mapping.items()})
    gates = [Gate(eid, *mapping[eid]) for eid in reached if eid in mapping]
    collected = dict.fromkeys([hazard.id, *(child for gate in gates for child in gate.children)])

    _, cycle = _base.dag_order(_cause_edges(collected, gates))
    if cycle:
        raise CyclicCausality(" -> ".join(cycle))
    return Fta(
        top=hazard.id,
        events=tuple(by_id[eid] for eid in collected),
        gates=tuple(gates),
    )


def _expand(top: str, causes: Mapping[str, Iterable[str]]) -> dict[str, None]:
    """The events ``top`` reaches through ``causes`` (event -> cause events),
    as keys in the order a depth-first worklist expands them: pop an event,
    skip it if already expanded, else push its causes in order."""
    expanded: dict[str, None] = {}
    stack = [top]
    while stack:
        current = stack.pop()
        if current not in expanded:
            expanded[current] = None
            stack.extend(causes.get(current, ()))
    return expanded


def _cause_edges(event_ids: Iterable[str], gates: Iterable[Gate]) -> dict[str, set[str]]:
    """Event -> cause events, the direction of the compiled network's edges."""
    causes: dict[str, set[str]] = {eid: set() for eid in event_ids}
    for gate in gates:
        if gate.parent in causes:
            causes[gate.parent].update(c for c in gate.children if c in causes)
    return causes


def role_candidates(out_predicates: Collection[str]) -> set[EventRole]:
    """Closed-world evaluation of the three classification axioms (A21-A23)
    over the names of an event's outgoing dependency predicates.

    Occurrence: lacks a dependsOnHazardous edge or lacks a dependsOnConsequence
    edge. Consequence: lacks a dependsOnOccurrence edge. Hazardous: lacks a
    dependsOnConsequence edge.
    """
    on_occ = DependsKind.ON_OCCURRENCE.value in out_predicates
    on_haz = DependsKind.ON_HAZARDOUS.value in out_predicates
    on_con = DependsKind.ON_CONSEQUENCE.value in out_predicates
    candidates = set()
    if (not on_haz) or (not on_con):
        candidates.add(EventRole.OCCURRENCE)
    if not on_occ:
        candidates.add(EventRole.CONSEQUENCE)
    if not on_con:
        candidates.add(EventRole.HAZARDOUS)
    return candidates


def classify_event(chain: HazardChain, event_id: str) -> EventRole:
    """Classify a chain event from its outgoing dependency edges.

    When the edge pattern admits several roles, the role declared by the
    chain position wins; a declared role outside the admissible set is an
    inconsistency, not a reclassification.
    """
    declared = chain.declared_role(event_id)
    candidates = role_candidates({e.kind.value for e in chain.edges if e.src == event_id})
    if not candidates:
        raise InconsistentChain(f"event {event_id!r} satisfies no role axiom")
    if declared not in candidates:
        raise InconsistentChain(
            f"event {event_id!r} is declared {declared.value} but its edges admit "
            f"only {sorted(r.value for r in candidates)}"
        )
    return declared


def validate_fta(fta: Fta) -> list[FtaDefect]:
    """Check all structural invariants; defects are data, not exceptions."""
    defects: list[FtaDefect] = []
    ids = [e.id for e in fta.events]
    by_id = {e.id: e for e in fta.events}
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        defects.append(FtaDefect("DuplicateEvent", tuple(dupes), "event listed twice"))
    if fta.top not in by_id:
        defects.append(FtaDefect("MissingTop", (fta.top,), "top event not in event set"))
        return defects

    gates_by_parent: dict[str, list[Gate]] = {}
    for gate in fta.gates:
        gates_by_parent.setdefault(gate.parent, []).append(gate)
        if not gate.children:
            defects.append(FtaDefect("EmptyGate", (gate.parent,), "gate has no children"))
        for ref in (gate.parent, *gate.children):
            if ref not in by_id:
                defects.append(
                    FtaDefect("DanglingReference", (ref,), "gate references unknown event")
                )
        if gate.parent in gate.children:
            defects.append(FtaDefect("SelfLoop", (gate.parent,), "gate feeds its own parent"))

    for event in fta.events:
        n_gates = len(gates_by_parent.get(event.id, []))
        if event.atomic and n_gates > 0:
            defects.append(
                FtaDefect("AtomicWithGate", (event.id,), "atomic event must not have a gate")
            )
        if not event.atomic and n_gates == 0:
            defects.append(
                FtaDefect("MissingGate", (event.id,), "non-atomic event has no gate")
            )
        if not event.atomic and n_gates > 1:
            defects.append(
                FtaDefect("DuplicateGate", (event.id,), f"{n_gates} gates on one event")
            )

    causes = _cause_edges(by_id, fta.gates)
    reachable = _expand(fta.top, causes)
    for event in fta.events:
        if event.id not in reachable:
            defects.append(
                FtaDefect("UnreachableEvent", (event.id,), "no path from the top event")
            )

    # Cycle detection over gate edges restricted to known ids. The walker
    # orders every event that reaches no cycle through its gates, so the
    # first event left out is the first one that does.
    order, cycle = _base.dag_order(causes)
    if cycle:
        acyclic = set(order)
        eid = next(e for e in by_id if e not in acyclic)
        defects.append(FtaDefect("CyclicStructure", (eid,), "gate edges form a cycle"))

    return defects


def check_oper_conditions(fta: Fta, spec) -> list[FtaDefect]:
    """Cross-check atomic leaves against a companion ODD spec.

    A condition reference ``(class, name)`` resolves when the class exists
    and ``name`` is one of its attributes or one of its subclasses; hazard
    tables commonly reference conditions at both granularities.
    """
    defects = []
    for event in fta.atomic_events():
        for class_name, ref in event.oper_conditions:
            cls = spec.classes.get(class_name)
            if cls is None:
                defects.append(
                    FtaDefect(
                        "UnknownOperCondClass", (event.id,), f"no ODD class {class_name!r}"
                    )
                )
                continue
            names = {a.name for a in cls.attributes} | set(spec.children(class_name))
            if ref not in names:
                defects.append(
                    FtaDefect(
                        "UnknownOperCondState",
                        (event.id,),
                        f"{ref!r} is neither attribute nor subclass of {class_name!r}",
                    )
                )
    return defects


@_base.document_reader("HARA document", DocumentError)
def parse_hara(document) -> tuple[list[str], dict[str, Event], CausalRelation, list[HazardChain]]:
    """Parse a HARA document (JSON text or parsed object).

    Schema: ``{"hazards": [id], "events": [{id, text, atomic, role,
    oper_conditions: [[class, name]]}], "causal": [{parent, op, children}],
    "chains": [{hazardous, occurrence, consequence, edges}]}``. The chains
    section is optional. Every field the schema shows as an array must be a
    JSON array, each operating condition one of two items, and ``atomic`` a
    JSON boolean, and every event id, in ``events`` or named outside it (a
    hazard, a causal parent or child, a chain member, an edge end), a JSON
    string, else the document is malformed.
    """
    array, scalar = _base.json_array, _base.json_scalar
    events: dict[str, Event] = {}
    for entry in array(document["events"], "events"):
        eid = scalar(entry["id"], "an event id")
        if eid in events:
            raise DocumentError(f"event {eid!r} declared twice")
        atomic = scalar(entry.get("atomic", False), f"atomic of {eid!r}", bool)
        conditions = tuple(array(c, f"event {eid!r}: an operating condition", 2)
                           for c in array(entry.get("oper_conditions", []), "oper_conditions"))
        role = entry.get("role")
        events[eid] = Event(eid, entry.get("text", eid), atomic, conditions,
                            None if role is None else EventRole(role))

    mapping = {}
    for entry in array(document.get("causal", []), "causal"):
        parent = scalar(entry["parent"], "causal parent")
        if parent in mapping:
            raise DocumentError(f"two causal entries for {parent!r}")
        op = GateOp(entry["op"].upper())
        children = tuple(scalar(c, f"a children entry of {parent!r}")
                         for c in array(entry["children"], "children"))
        mapping[parent] = CausalEntry(children, op)
    relation = CausalRelation(mapping)

    hazards = [scalar(h, "a hazards entry") for h in array(document.get("hazards", []), "hazards")]
    for hid in hazards:
        if hid not in events:
            raise DanglingReference(f"hazard {hid!r} not declared in events")

    chains = []
    for entry in array(document.get("chains", []), "chains"):
        hazardous = scalar(entry["hazardous"], "chain hazardous")
        where = f"of chain {hazardous!r}"
        chains.append(
            HazardChain(
                hazardous_event=hazardous,
                occurrence_events=tuple(scalar(e, f"an occurrence entry {where}")
                                        for e in array(entry.get("occurrence", []), "occurrence")),
                consequence_events=tuple(scalar(e, f"a consequence entry {where}")
                                         for e in array(entry.get("consequence", []), "consequence")),
                edges=tuple(
                    ChainEdge(DependsKind(e["kind"]), scalar(e["from"], f"edge from {where}"),
                              scalar(e["to"], f"edge to {where}"))
                    for e in array(entry.get("edges", []), "edges")
                ),
            )
        )
    return hazards, events, relation, chains


def hara_to_document(
    hazards: Iterable[str],
    events: Mapping[str, Event],
    relation: CausalRelation,
    chains: Iterable[HazardChain] = (),
) -> dict:
    return {
        "hazards": list(hazards),
        "events": [
            {
                "id": e.id,
                "text": e.text,
                "atomic": e.atomic,
                "role": e.role.value if e.role else None,
                "oper_conditions": [list(c) for c in e.oper_conditions],
            }
            for e in events.values()
        ],
        "causal": [
            {"parent": parent, "op": entry.op.value, "children": list(entry.children)}
            for parent, entry in relation.mapping.items()
        ],
        "chains": [
            {
                "hazardous": c.hazardous_event,
                "occurrence": list(c.occurrence_events),
                "consequence": list(c.consequence_events),
                "edges": [
                    {"kind": e.kind.value, "from": e.src, "to": e.dst} for e in c.edges
                ],
            }
            for c in chains
        ],
    }


def load_hara(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hara(fh.read())
