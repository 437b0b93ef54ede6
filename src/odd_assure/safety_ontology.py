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

import re
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
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
    OntologyError on one with a term whose exported token does not read
    back as an equal term, so the graph exports text that imports equal.
    """
    new = set(graph.triples)
    readable: set[tuple] = set()
    for triple in triples:
        if triple.predicate not in VOCABULARY:
            raise UnknownPredicate(f"predicate {triple.predicate!r} is not in the vocabulary")
        unreadable = _unreadable(triple, readable)
        if unreadable:
            raise OntologyError(unreadable)
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
    """A graph's ``triples``, and them ``ordered`` canonically; ``buckets``
    maps each subject, predicate and object to its triples in that order,
    and ``types`` each subject to its identifier classes."""

    def __init__(self, triples: frozenset[Triple]):
        self.triples = triples
        try:
            self.ordered = tuple(sorted(triples, key=_sort_key))
        except (AttributeError, TypeError, OverflowError):  # a term that does not read back
            _refuse_unreadable(triples)
            raise
        self.buckets = by_subject, by_predicate, by_object = {}, {}, {}
        self.types: dict[Term, set[str]] = {}
        for t in self.ordered:
            by_subject.setdefault(t.subject, []).append(t)
            by_predicate.setdefault(t.predicate, []).append(t)
            by_object.setdefault(t.object, []).append(t)
            if t.predicate == RDF_TYPE and isinstance(t.object, str):
                self.types.setdefault(t.subject, set()).add(t.object)

    def members(self, cls: str) -> list[Term]:
        """The individuals of ``cls``, in the order of the violation list."""
        return [t.subject for t in self.buckets[2].get(cls, ()) if t.predicate == RDF_TYPE]

    def predicates(self, position: int, term: Term) -> set[str]:
        """The predicates of the triples that hold ``term`` at ``position``."""
        return {t.predicate for t in self.buckets[position].get(term, ())}


def check_axioms(graph: TripleGraph) -> list[AxiomViolation]:
    """Closed-world integrity check; empty list means consistent.

    It reads the graph's kept index: a first check costs the index's sort
    plus one visit per triple whose predicate has a rule (rdf_type, with
    none, is never walked), and a repeat check skips the sort. Violations
    come in canonical order of their triples, one triple's range first,
    then domain, then its predicate's own axiom.
    """
    index = graph._index
    types, untyped = index.types, frozenset()
    violations: list[AxiomViolation] = []
    for predicate, bucket in index.buckets[1].items():
        hits: list[tuple[int, AxiomViolation]] = []  # (place in the bucket, violation)
        for rules, side, position in ((_RANGE_RULES, 2, "object"), (_DOMAIN_RULES, 0, "subject")):
            if predicate in rules:
                axiom, allowed = rules[predicate]
                rule = f"{position} of {predicate} must be typed {' or '.join(sorted(allowed))}"
                hits += [(i, AxiomViolation(axiom, t, f"{rule}, got {format_term(t[side])}"))
                         for i, t in enumerate(bucket)
                         if types.get(t[side], untyped).isdisjoint(allowed)]
        if predicate in _OWN_AXIOMS:
            axiom, message, broken = _OWN_AXIOMS[predicate]
            hits += [(i, AxiomViolation(axiom, t, message.format(format_term(t.subject))))
                     for i, t in enumerate(bucket) if broken(t, index)]
        hits.sort(key=itemgetter(0))
        violations += [v for _, v in hits]
    # Stable, as distinct triples can share a key (an int past 2**53 and its float).
    violations.sort(key=lambda v: _sort_key(v.triple))
    violations += [AxiomViolation(axiom, Triple(term, RDF_TYPE, cls), f"{format_term(term)} "
                                  f"is typed {cls} but its dependency edges rule that out")
                   for cls, (axiom, role) in _ROLE_AXIOMS.items() for term in index.members(cls)
                   if role not in role_candidates(index.predicates(0, term))]
    # A48: an ObjNode is the terminal node of the dependsOn DAG, a Node with
    # incoming and no outgoing dependsOn edges.
    violations += [AxiomViolation("A48", Triple(term, RDF_TYPE, "ObjNode"), f"{format_term(term)} "
                                  "must be a Node with incoming and no outgoing dependsOn edges")
                   for term in index.members("ObjNode")
                   if not ("Node" in types.get(term, ()) and "dependsOn" in index.predicates(2, term)
                           and "dependsOn" not in index.predicates(0, term))]
    return violations


# predicate -> (axiom, message, whether a triple breaks it given the graph's
# index); a message's {} is the subject's term.
_OWN_AXIOMS = {
    "hasConfidence": ("A37", "subject of hasConfidence must be typed Goal and Solution, got {}",
                      lambda t, index: not {"Goal", "Solution"}.issubset(
                          index.types.get(t.subject, ()))),
    "hasText": ("A40", "object of hasText must be a string literal",
                lambda t, index: not (isinstance(t.object, Literal)
                                      and isinstance(t.object.value, str))),
    "hasACP": ("A46", "object of hasACP must be a numeric literal in [0, 1]",
               lambda t, index: not (isinstance(t.object, Literal)
                                     and isinstance(t.object.value, (int, float))
                                     and 0.0 <= float(t.object.value) <= 1.0)),
    "supportedBy": ("A28", "inverse supports fact is not materialized",
                    lambda t, index: (t.object, "supports", t.subject) not in index.triples),
    "hasInference": ("A32", "hasInference fact lacks its supportedBy fact",
                     lambda t, index: (t.subject, "supportedBy", t.object) not in index.triples),
    "hasEvidence": ("A35", "hasEvidence fact lacks its supportedBy fact",
                    lambda t, index: (t.subject, "supportedBy", t.object) not in index.triples),
}


# class -> (axiom, the EventRole a member's outgoing predicates must allow)
_ROLE_AXIOMS = {
    "OccurrenceEvent": ("A21", EventRole.OCCURRENCE),
    "ConsequenceEvent": ("A22", EventRole.CONSEQUENCE),
    "HazardousEvent": ("A23", EventRole.HAZARDOUS),
}


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
    if not _IDENT_FORBIDDEN.isdisjoint(token):
        raise ParseError(f"bad identifier {token!r}", line_no, token)
    return token


def _reads_back(term: Term) -> bool:
    """Whether ``term``'s exported token, alone at the start of a line, reads
    back as an equal term. That is where a token is read strictest (``#``
    starts a comment there), so a triple of such terms exports one line that
    imports as the triple."""
    try:
        token = format_term(term)
    except (AttributeError, TypeError, OverflowError):  # None, bytes, an int past float range
        return False
    if not (isinstance(token, str) and token.splitlines() == [token]
            and _TOKEN.findall(token) == [token] and token[0] != "#"):
        return False
    try:
        return _parse_term(token, None) == term
    except ParseError:
        return False


def _unreadable(triple: Triple, readable: set[tuple]) -> str | None:
    """Why ``triple`` cannot be exported, naming its first term whose token
    does not read back; None if both read back. ``readable`` caches the keys
    (term, type of its value) that do, as equal terms of one type read alike."""
    for side, term in (("subject", triple.subject), ("object", triple.object)):
        key = (term, type(term.value) if isinstance(term, Literal) else type(term))
        if key not in readable:
            if not _reads_back(term):
                return f"{side} of {_triple_text(triple)} does not read back from its token"
            readable.add(key)
    return None


def _refuse_unreadable(triples: Iterable[Triple]) -> None:
    """Raise OntologyError for the triple with a term that does not read back
    whose message sorts first, if any; each distinct term is read once."""
    readable: set[tuple] = set()
    unreadable = [m for m in (_unreadable(t, readable) for t in triples) if m]
    if unreadable:
        raise OntologyError(min(unreadable))


def _triple_text(triple: Triple) -> str:
    """``repr(triple)``; where an int literal has more digits than str may
    print (``sys.get_int_max_str_digits``), its literals' ints print in hex."""
    try:
        return repr(triple)
    except ValueError:
        subject, obj = (f"Literal(value={hex(t.value)})"
                        if isinstance(t, Literal) and isinstance(t.value, int) else repr(t)
                        for t in (triple.subject, triple.object))
        return f"Triple(subject={subject}, predicate={triple.predicate!r}, object={obj})"


def parse_term(token: str) -> Term:
    """Parse one standalone term token (for query patterns and the like). A
    ParseError names the token; its ``line_no`` is None."""
    return _parse_term(token, None)


def export_graph(graph: TripleGraph) -> str:
    """Canonical serialization: one sorted `subject predicate object .` line
    per triple. Equal triple sets export byte-identical text. A graph built
    without :func:`assert_all` is held to its rule: each distinct term is read
    back once, before the sort, and a term that does not read back raises its
    OntologyError for the triple whose message sorts first, so every export
    names the same triple."""
    _refuse_unreadable(graph.triples)
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
    get = terms.get
    triples = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = _TOKEN.findall(line) if '"' in line else line.split()  # split is faster
        if not tokens or tokens[0][0] == "#":
            continue
        if '"' in tokens:
            raise ParseError("unterminated string literal", line_no)
        if len(tokens) != 4 or tokens[3] != ".":
            raise ParseError("expected `subject predicate object .`", line_no)
        subject, predicate, obj, _ = tokens
        s = get(subject)
        if s is None:
            s = terms[subject] = _parse_term(subject, line_no)
        if predicate not in VOCABULARY:
            raise ParseError(f"unknown predicate {predicate!r}", line_no)
        o = get(obj)
        if o is None:
            o = terms[obj] = _parse_term(obj, line_no)
        triples.add(tuple.__new__(Triple, (s, predicate, o)))  # skips Triple.__new__'s frame
    return TripleGraph(frozenset(triples))


def load_graph(path) -> TripleGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return import_graph(fh.read())


def save_graph(graph: TripleGraph, path) -> None:
    text = export_graph(graph)  # a refused graph leaves ``path`` untouched
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
