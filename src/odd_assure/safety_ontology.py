"""Triple store for the safety ontology with closed-world axiom checking.

ODD structure, hazard events, GSN argument elements, and network metadata all
live in one graph of (subject, predicate, object) facts. The axiom checker
treats the description-logic axioms as integrity constraints: every predicate
has domain/range typing rules, the subsumptions hasInference/hasEvidence into
supportedBy must be materialized, and objective-node membership is derived
from the dependsOn edges. Violations are returned as data, labeled with the
axiom they break.

Graphs are persistent values: mutators return a new graph, so concurrent
readers never see a half-applied update.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Union

from . import _base
from .hara_fta import EventRole, role_candidates

Term = Union[str, "Literal"]


class OntologyError(_base.ModelError):
    pass


class UnknownPredicate(OntologyError):
    pass


class ParseError(OntologyError, _base.DocumentError):
    """Unreadable ontology text, on line ``line_no`` of a graph or, for a term
    parsed on its own (``line_no`` None), in the term ``token``."""

    def __init__(self, message: str, line_no: int | None, token: str = ""):
        super().__init__(f"line {line_no}: {message}" if line_no else f"term {token!r}: {message}")
        self.line_no = line_no


class Literal(NamedTuple):
    """A quoted string or numeric value; everything else is an identifier.
    A record: it equals the plain tuple ``(value,)``."""

    value: Union[str, float, int]

    def __str__(self) -> str:
        return str(self.value)


RDF_TYPE = "rdf_type"

VOCABULARY = frozenset(
    {
        "subClassOf",
        "hasAttribute",
        "hasDomain",
        "hasOperCond",
        "hasOccurrenceEvent",
        "hasConsequenceEvent",
        "trigger",
        "dependsOnOccurrence",
        "dependsOnHazardous",
        "dependsOnConsequence",
        "relatedTo",
        "supportedBy",
        "supports",
        "hasInference",
        "hasEvidence",
        "hasConfidence",
        "hasText",
        "dependsOn",
        "hasCPT",
        "hasACP",
        RDF_TYPE,
    }
)


class Triple(NamedTuple):
    """One fact; a record that equals the plain tuple of its fields."""

    subject: Term
    predicate: str
    object: Term


class AxiomViolation(NamedTuple):
    """A broken axiom; a record that equals the plain tuple of its fields."""

    axiom: str
    triple: Triple
    message: str

    def __str__(self) -> str:
        return f"{self.axiom}: {self.message}"


@dataclass(frozen=True)
class TripleGraph:
    """An immutable set of facts, with one :class:`_GraphIndex` built on first
    use and kept; readers that race to build it each get a complete, equal one."""

    triples: frozenset[Triple] = frozenset()

    @cached_property
    def _index(self) -> "_GraphIndex":
        return _GraphIndex(self.triples)


def assert_all(graph: TripleGraph, triples: Iterable[Triple]) -> TripleGraph:
    """Insert every fact into one new graph (set semantics: re-asserting is
    a no-op).

    supportedBy and supports are each other's inverse, and hasInference /
    hasEvidence are subsumed by supportedBy; the entailed facts are
    materialized on insert so pattern queries see them. Raises
    UnknownPredicate on the first triple outside the vocabulary, and
    OntologyError on one with a NaN or infinite literal, which
    :func:`export_graph` could not write as a number.
    """
    new = set(graph.triples)
    for triple in triples:
        if triple.predicate not in VOCABULARY:
            raise UnknownPredicate(f"predicate {triple.predicate!r} is not in the vocabulary")
        for t in (triple.subject, triple.object):
            if isinstance(t, Literal) and isinstance(t.value, float) and not math.isfinite(t.value):
                raise OntologyError(f"number literal in {triple} is not finite")
        new.add(triple)
        if triple.predicate == "supportedBy":
            new.add(Triple(triple.object, "supports", triple.subject))
        elif triple.predicate == "supports":
            new.add(Triple(triple.object, "supportedBy", triple.subject))
        elif triple.predicate in ("hasInference", "hasEvidence"):
            new.add(Triple(triple.subject, "supportedBy", triple.object))
            new.add(Triple(triple.object, "supports", triple.subject))
    return TripleGraph(frozenset(new))


def retract_triple(graph: TripleGraph, triple: Triple) -> TripleGraph:
    return TripleGraph(graph.triples - {triple})


def query(graph: TripleGraph, subject=None, predicate=None, object=None) -> list[Triple]:
    """All triples matching the bound positions (None = wildcard), in
    canonical lexicographic order. It filters the smallest bucket of the
    graph's index among the bound positions. A bound predicate outside the
    vocabulary raises UnknownPredicate."""
    if predicate is not None and predicate not in VOCABULARY:
        raise UnknownPredicate(f"predicate {predicate!r} is not in the vocabulary")
    pattern = (subject, predicate, object)
    bound = [b.get(term, ()) for b, term in zip(graph._index.buckets, pattern) if term is not None]
    return [
        t
        for t in min(bound, key=len, default=graph._index.ordered)
        if (subject is None or t.subject == subject)
        and (predicate is None or t.predicate == predicate)
        and (object is None or t.object == object)
    ]


def _sort_key(t: Triple) -> tuple:
    """The canonical order's key (kind, text, predicate, kind, text): a
    literal's kind is True and its text is its exported form."""
    subject, predicate, obj = t
    s_kind, o_kind = isinstance(subject, Literal), isinstance(obj, Literal)
    return (s_kind, format_term(subject) if s_kind else subject, predicate,
            o_kind, format_term(obj) if o_kind else obj)


# ---------------------------------------------------------------------------
# Axiom checking

# predicate -> (range axiom, allowed object types) and (domain axiom,
# required subject types). "any" lists accept one matching type; A37 is the
# lone conjunctive domain.
_RANGE_RULES: dict[str, tuple[str, frozenset[str]]] = {
    "subClassOf": ("A1", frozenset({"OddClass"})),
    "hasAttribute": ("A3", frozenset({"OddAttribute"})),
    "hasDomain": ("A5", frozenset({"Unit", "Constraint"})),
    "hasOperCond": ("A7", frozenset({"OddAttribute"})),
    "hasOccurrenceEvent": ("A9", frozenset({"OccurrenceEvent"})),
    "hasConsequenceEvent": ("A11", frozenset({"ConsequenceEvent"})),
    "trigger": ("A13", frozenset({"HazardousEvent"})),
    "dependsOnOccurrence": ("A15", frozenset({"OccurrenceEvent"})),
    "dependsOnHazardous": ("A17", frozenset({"HazardousEvent"})),
    "dependsOnConsequence": ("A19", frozenset({"ConsequenceEvent"})),
    "relatedTo": ("A24", frozenset({"HazardousEvent"})),
    "supportedBy": ("A26", frozenset({"Goal", "Strategy", "Solution"})),
    "hasInference": ("A30", frozenset({"Goal"})),
    "hasEvidence": ("A33", frozenset({"Evidence"})),
    "hasConfidence": ("A36", frozenset({"ObjNode"})),
    "dependsOn": ("A42", frozenset({"Node"})),
    "hasCPT": ("A44", frozenset({"CptTable"})),
}
_DOMAIN_RULES: dict[str, tuple[str, frozenset[str]]] = {
    "subClassOf": ("A2", frozenset({"OddClass"})),
    "hasAttribute": ("A4", frozenset({"OddClass"})),
    "hasDomain": ("A6", frozenset({"OddAttribute"})),
    "hasOperCond": ("A8", frozenset({"Event", "OccurrenceEvent", "ConsequenceEvent"})),
    "hasOccurrenceEvent": ("A10", frozenset({"Event"})),
    "hasConsequenceEvent": ("A12", frozenset({"Event"})),
    "trigger": ("A14", frozenset({"OccurrenceEvent"})),
    "dependsOnOccurrence": ("A16", frozenset({"OccurrenceEvent", "HazardousEvent"})),
    "dependsOnHazardous": ("A18", frozenset({"HazardousEvent", "ConsequenceEvent"})),
    "dependsOnConsequence": ("A20", frozenset({"ConsequenceEvent"})),
    "relatedTo": ("A25", frozenset({"TopLevelGoal"})),
    "supportedBy": ("A27", frozenset({"Goal", "Strategy"})),
    "hasInference": ("A31", frozenset({"Goal"})),
    "hasEvidence": ("A34", frozenset({"Goal"})),
    "dependsOn": ("A43", frozenset({"Node"})),
    "hasCPT": ("A45", frozenset({"Node"})),
    "hasACP": ("A47", frozenset({"ObjNode"})),
}

# A29 (supportedBy subsumes itself) and A41 are tautologies and have no
# checkable content; they are intentionally absent from the rule tables.


class _GraphIndex:
    """A graph's triples in canonical order; ``buckets`` maps each subject,
    predicate and object to its triples in that order, and ``types`` each
    subject to its identifier classes."""

    def __init__(self, triples: frozenset[Triple]):
        self.ordered = tuple(sorted(triples, key=_sort_key))
        self.buckets = by_subject, by_predicate, by_object = {}, {}, {}
        self.types: dict[Term, set[str]] = {}
        for t in self.ordered:
            by_subject.setdefault(t.subject, []).append(t)
            by_predicate.setdefault(t.predicate, []).append(t)
            by_object.setdefault(t.object, []).append(t)
            if t.predicate == RDF_TYPE and isinstance(t.object, str):
                self.types.setdefault(t.subject, set()).add(t.object)

    def types_of(self, term: Term) -> set[str]:
        return self.types.get(term, set())

    def members(self, cls: str) -> list[Term]:
        """The individuals of ``cls``, in the order of the violation list."""
        return [t.subject for t in self.buckets[2].get(cls, ()) if t.predicate == RDF_TYPE]

    def predicates(self, position: int, term: Term) -> set[str]:
        """The predicates of the triples that hold ``term`` at ``position``."""
        return {t.predicate for t in self.buckets[position].get(term, ())}


def check_axioms(graph: TripleGraph) -> list[AxiomViolation]:
    """Closed-world integrity check; empty list means consistent.

    It reads the graph's kept index, so a check is O(n log n) in the number
    of triples, the index's sort dominating, and a repeat check skips it.
    """
    index = graph._index
    violations: list[AxiomViolation] = []

    for t in index.ordered:
        for rules, position, term in (
            (_RANGE_RULES, "object", t.object),
            (_DOMAIN_RULES, "subject", t.subject),
        ):
            rule = rules.get(t.predicate)
            if rule is not None and not index.types_of(term) & rule[1]:
                violations.append(
                    AxiomViolation(
                        rule[0],
                        t,
                        f"{position} of {t.predicate} must be typed "
                        f"{' or '.join(sorted(rule[1]))}, got {format_term(term)}",
                    )
                )
        if t.predicate == "hasConfidence":
            # A37: the subject must be both a Goal and a Solution.
            if not ({"Goal", "Solution"} <= index.types_of(t.subject)):
                violations.append(
                    AxiomViolation(
                        "A37",
                        t,
                        f"subject of hasConfidence must be typed Goal and Solution, "
                        f"got {format_term(t.subject)}",
                    )
                )
        if t.predicate == "hasText":
            if not (isinstance(t.object, Literal) and isinstance(t.object.value, str)):
                violations.append(
                    AxiomViolation("A40", t, "object of hasText must be a string literal")
                )
        if t.predicate == "hasACP":
            ok = isinstance(t.object, Literal) and isinstance(t.object.value, (int, float))
            if ok and not (0.0 <= float(t.object.value) <= 1.0):
                ok = False
            if not ok:
                violations.append(
                    AxiomViolation(
                        "A46", t, "object of hasACP must be a numeric literal in [0, 1]"
                    )
                )
        if t.predicate == "supportedBy":
            if Triple(t.object, "supports", t.subject) not in graph.triples:
                violations.append(
                    AxiomViolation("A28", t, "inverse supports fact is not materialized")
                )
        if t.predicate in ("hasInference", "hasEvidence"):
            axiom = "A32" if t.predicate == "hasInference" else "A35"
            if Triple(t.subject, "supportedBy", t.object) not in graph.triples:
                violations.append(
                    AxiomViolation(axiom, t, f"{t.predicate} fact lacks its supportedBy fact")
                )

    violations.extend(_check_event_classification(index))
    violations.extend(_check_objective_nodes(index))
    return violations


_EVENT_AXIOMS = {
    EventRole.OCCURRENCE: ("OccurrenceEvent", "A21"),
    EventRole.CONSEQUENCE: ("ConsequenceEvent", "A22"),
    EventRole.HAZARDOUS: ("HazardousEvent", "A23"),
}


def _check_event_classification(index: _GraphIndex) -> list[AxiomViolation]:
    violations = []
    for role, (cls, axiom) in _EVENT_AXIOMS.items():
        for term in index.members(cls):
            if role not in role_candidates(index.predicates(0, term)):
                violations.append(
                    AxiomViolation(
                        axiom,
                        Triple(term, RDF_TYPE, cls),
                        f"{format_term(term)} is typed {cls} but its dependency "
                        f"edges rule that out",
                    )
                )
    return violations


def _check_objective_nodes(index: _GraphIndex) -> list[AxiomViolation]:
    """A48: an ObjNode is a Node that is the target of at least one dependsOn
    edge and the source of none (the terminal node of the dependency DAG)."""
    violations = []
    for term in index.members("ObjNode"):
        is_node = "Node" in index.types_of(term)
        incoming = "dependsOn" in index.predicates(2, term)
        outgoing = "dependsOn" in index.predicates(0, term)
        if not (is_node and incoming and not outgoing):
            violations.append(
                AxiomViolation(
                    "A48",
                    Triple(term, RDF_TYPE, "ObjNode"),
                    f"{format_term(term)} must be a Node with incoming and no "
                    f"outgoing dependsOn edges",
                )
            )
    return violations


def classify_goals(graph: TripleGraph) -> dict[Term, str]:
    """Partition Goal individuals: SupportGoal iff the goal supports
    something, TopLevelGoal otherwise."""
    index = graph._index
    return {
        goal: "SupportGoal" if "supports" in index.predicates(0, goal) else "TopLevelGoal"
        for goal in index.members("Goal")
    }


# ---------------------------------------------------------------------------
# Line format

_IDENT_FORBIDDEN = set(' \t\n"')
# A quoted literal, a lone quote (a literal nothing closes) or a run of
# non-whitespace; \S is the complement of str.isspace, as str.split uses.
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|"|\S+', re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def format_term(term: Term) -> str:
    if isinstance(term, Literal):
        if isinstance(term.value, (int, float)):
            return repr(float(term.value))
        escaped = term.value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    return term


def _parse_term(token: str, line_no: int | None) -> Term:
    if token.startswith('"'):
        if not token.endswith('"') or len(token) < 2:
            raise ParseError(f"unterminated literal {token!r}", line_no, token)
        body = token[1:-1]
        if (len(body) - len(body.rstrip("\\"))) % 2:
            raise ParseError(f"dangling escape in {token!r}", line_no, token)
        return Literal(_ESCAPE.sub(lambda m: "\n" if m[1] == "n" else m[1], body))
    # Identifiers must not look like numbers; numeric tokens round-trip unquoted.
    if _base.NUMBER_TEXT.fullmatch(token):
        try:
            return Literal(_base.number_text(token))
        except ValueError as exc:  # exported as `inf`, it would re-import as an identifier
            raise ParseError(str(exc), line_no, token) from None
    if any(c in _IDENT_FORBIDDEN for c in token):
        raise ParseError(f"bad identifier {token!r}", line_no, token)
    return token


def parse_term(token: str) -> Term:
    """Parse one standalone term token (for query patterns and the like). A
    ParseError names the token; its ``line_no`` is None."""
    return _parse_term(token, None)


def export_graph(graph: TripleGraph) -> str:
    """Canonical serialization: one sorted `subject predicate object .` line
    per triple. Equal triple sets export byte-identical text."""
    lines = [f"{format_term(t.subject)} {t.predicate} {format_term(t.object)} ."
             for t in graph._index.ordered]
    return "\n".join(lines) + ("\n" if lines else "")


def import_graph(text: str) -> TripleGraph:
    """Inverse of :func:`export_graph`; raises ParseError with a line number.

    Triples are loaded verbatim (no materialization on import), so a
    hand-written file missing its inverse supports facts will fail the A28
    check rather than being silently repaired.
    """
    terms: dict[str, Term] = {}  # each distinct subject or object token parses once
    triples = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = _TOKEN.findall(line) if '"' in line else line.split()  # split is faster
        if '"' in tokens:
            raise ParseError("unterminated string literal", line_no)
        if len(tokens) != 4 or tokens[-1] != ".":
            raise ParseError("expected `subject predicate object .`", line_no)
        subject, predicate, obj = tokens[:3]
        if subject not in terms:
            terms[subject] = _parse_term(subject, line_no)
        if predicate not in VOCABULARY:
            raise ParseError(f"unknown predicate {predicate!r}", line_no)
        if obj not in terms:
            terms[obj] = _parse_term(obj, line_no)
        triples.add(Triple(terms[subject], predicate, terms[obj]))
    return TripleGraph(frozenset(triples))


def load_graph(path) -> TripleGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return import_graph(fh.read())


def save_graph(graph: TripleGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(export_graph(graph))
