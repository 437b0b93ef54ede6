import hashlib
import itertools
import math
import random
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from odd_assure import safety_ontology
from odd_assure.confidence_templates import DATA_OBJECTIVE, build_data_appropriateness_bn
from odd_assure.fixtures import (
    AVP_HARA_DOCUMENT,
    AVP_ODD_DOCUMENT,
    AVP_SOLUTION_ID,
    avp_ontology,
)
from odd_assure.odd_model import parse_interval
from odd_assure.safety_ontology import (
    RDF_TYPE,
    VOCABULARY,
    AxiomViolation,
    Literal,
    OntologyError,
    ParseError,
    Triple,
    TripleGraph,
    UnknownPredicate,
    assert_all,
    check_axioms,
    classify_goals,
    export_graph,
    format_term,
    import_graph,
    query,
    retract_triple,
)

from . import oracles

TERMS = ["a", "b", "c", "G1", Literal("t"), Literal(0.5), Literal(2.0)]
CLASSES = [
    "OddClass", "OddAttribute", "Unit", "Constraint", "Event", "OccurrenceEvent",
    "ConsequenceEvent", "HazardousEvent", "TopLevelGoal", "Goal", "Strategy", "Solution",
    "Evidence", "ObjNode", "Node", "CptTable",
]
any_terms = st.sampled_from(TERMS)
typings = st.builds(
    Triple, any_terms, st.just(RDF_TYPE), st.sampled_from(CLASSES + [Literal("Goal")])
)
facts = st.builds(Triple, any_terms, st.sampled_from(sorted(VOCABULARY)), any_terms)


class TestAssertOneFact:
    def test_set_semantics(self):
        g = TripleGraph()
        t = Triple("Rain", "subClassOf", "Weather_conditions")
        g = assert_all(g, [t])
        g = assert_all(g, [t])
        assert len(query(g, "Rain", "subClassOf", None)) == 1

    def test_unknown_predicate(self):
        with pytest.raises(UnknownPredicate):
            assert_all(TripleGraph(), [Triple("a", "green", "b")])

    def test_supported_by_materializes_inverse(self):
        g = assert_all(TripleGraph(), [Triple("G1", "supportedBy", "S1")])
        assert Triple("S1", "supports", "G1") in g.triples
        g = assert_all(TripleGraph(), [Triple("S1", "supports", "G1")])
        assert Triple("G1", "supportedBy", "S1") in g.triples

    def test_evidence_entails_supported_by(self):
        g = assert_all(TripleGraph(), [Triple("G8", "hasEvidence", "Sn8.1")])
        assert query(g, "G8", "supportedBy", "Sn8.1")
        assert query(g, "Sn8.1", "supports", "G8")
        g = assert_all(g, [Triple("G1", "hasInference", "G8")])
        assert query(g, "G1", "supportedBy", "G8")
        assert query(g, "G8", "supports", "G1")

    def test_insert_retract_replay(self):
        rng = random.Random(3)
        universe = [
            Triple(f"s{rng.randint(0, 5)}", "dependsOn", f"o{rng.randint(0, 5)}")
            for _ in range(60)
        ]
        g = TripleGraph()
        shadow = set()
        for t in universe:
            if rng.random() < 0.7:
                g = assert_all(g, [t])
                shadow.add(t)
            else:
                g = retract_triple(g, t)
                shadow.discard(t)
        assert g.triples == frozenset(shadow)


class TestAssertAll:
    @settings(max_examples=200, deadline=None)
    @given(
        triples=st.lists(
            st.builds(
                Triple,
                any_terms,
                st.sampled_from(
                    ["supportedBy", "supports", "hasInference", "hasEvidence", "dependsOn", "green"]
                ),
                any_terms,
            ),
            max_size=30,
        ),
    )
    def test_equals_folding_one_fact_at_a_time(self, triples):
        start = TripleGraph(frozenset({Triple("a", "dependsOn", "b")}))
        folded = start
        try:
            for t in triples:
                folded = assert_all(folded, [t])
        except UnknownPredicate as exc:
            with pytest.raises(UnknownPredicate, match=re.escape(str(exc))):
                assert_all(start, iter(triples))
            return
        assert assert_all(start, iter(triples)) == folded


def _round_trips(triple: Triple) -> bool:
    """Whether ``triple``'s exported line imports as it. The line is built
    here, not by export_graph, which refuses the triple by the rule under test."""
    try:
        text = f"{format_term(triple.subject)} {triple.predicate} {format_term(triple.object)} .\n"
        return import_graph(text) == TripleGraph(frozenset({triple}))
    except (ParseError, AttributeError, TypeError, OverflowError):
        return False


# Terms of every kind, with the characters the line format reads specially:
# quotes, backslashes, a leading #, whitespace and every str.splitlines break.
awkward_text = st.text(
    st.sampled_from(list('ab1.e+-#"\\ \t\n\r\x0b\x0c\x1c\x85\u2028\u3000')) | st.characters(),
    max_size=4,
)
any_term = st.one_of(
    awkward_text,
    st.builds(Literal, awkward_text),
    st.builds(Literal, st.floats()),
    st.builds(Literal, st.integers() | st.sampled_from([2**53 + 1, 10**400, True])),
)


class TestAssertAllReadsBack:
    """assert_all accepts a term only if its exported token reads back, on
    one line, as an equal term."""

    @pytest.mark.parametrize("term", [
        "1", "x y", "", '"q', 'x"y', "#x", "a\u3000b",
        Literal(10**400), Literal(None), Literal(b"x"), Literal(2**53 + 1),
        Literal("a\rb"), Literal("a\x0bb"), Literal("a\x85b"), Literal("a\u2028b"),
    ])
    @pytest.mark.parametrize("position", ["subject", "object"])
    def test_term_that_does_not_read_back_is_refused(self, term, position):
        triple = Triple("n", "dependsOn", "m")._replace(**{position: term})
        assert not _round_trips(triple._replace(subject=term, object=term))
        message = f"{position} of {triple} does not read back"
        with pytest.raises(OntologyError, match=re.escape(message)):
            assert_all(TripleGraph(), [Triple("a", "dependsOn", "b"), triple])

    def test_term_equal_to_an_accepted_one_is_checked_too(self):
        # Decimal(3) == 3.0, but export_graph cannot write it
        with pytest.raises(OntologyError, match="object of .*Decimal.* does not read back"):
            assert_all(TripleGraph(), [Triple("a", "dependsOn", Literal(3.0)),
                                       Triple("b", "dependsOn", Literal(Decimal(3)))])

    def test_entailed_fact_is_checked_too(self):
        # the materialized inverse would start its line with the object
        with pytest.raises(OntologyError, match="object of .* does not read back"):
            assert_all(TripleGraph(), [Triple("G1", "supportedBy", "#S1")])

    @pytest.mark.parametrize("term", [
        "a", ".", "nan", "x#y", Literal(""), Literal("#x"), Literal('a "b"\\\n\tc'),
        Literal(-0.0), Literal(True), Literal(2**53), Literal(1e-300),
    ])
    def test_term_that_reads_back_is_accepted(self, term):
        g = assert_all(TripleGraph(), [Triple(term, "supportedBy", term)])
        assert import_graph(export_graph(g)) == g

    @settings(max_examples=300, deadline=None)
    @given(triples=st.lists(st.builds(
        Triple, any_term, st.sampled_from(["dependsOn", "supportedBy", "hasEvidence", "hasText"]),
        any_term,
    ), max_size=12))
    def test_accepted_graph_exports_and_reimports_equal(self, triples):
        accepted = []
        for t in triples:
            try:
                assert_all(TripleGraph(), [t])
            except OntologyError:
                # refused only if one of its terms, written at a line's start, does not read back
                terms = (t.subject, t.object)
                assert not all(_round_trips(Triple(x, "dependsOn", x)) for x in terms)
                continue
            accepted.append(t)
        g = assert_all(TripleGraph(), accepted)
        text = export_graph(g)
        assert import_graph(text) == g
        assert export_graph(import_graph(text)) == text


class TestVocabulary:
    # pinned, so an edit to a rule table shows up here as a change of language
    PREDICATES = [
        "dependsOn", "dependsOnConsequence", "dependsOnHazardous", "dependsOnOccurrence",
        "hasACP", "hasAttribute", "hasCPT", "hasConfidence", "hasConsequenceEvent", "hasDomain",
        "hasEvidence", "hasInference", "hasOccurrenceEvent", "hasOperCond", "hasText",
        "rdf_type", "relatedTo", "subClassOf", "supportedBy", "supports", "trigger",
    ]

    def test_pinned(self):
        assert sorted(VOCABULARY) == self.PREDICATES

    def test_every_rule_reads_a_predicate_of_the_vocabulary(self):
        for rules in (safety_ontology._RANGE_RULES, safety_ontology._DOMAIN_RULES,
                      safety_ontology._OWN_AXIOMS):
            assert rules.keys() <= VOCABULARY


class TestQuery:
    @pytest.fixture(scope="module")
    def graph(self):
        return avp_ontology()

    def test_subclass_pattern(self, graph):
        hits = query(graph, None, "subClassOf", "Weather_conditions")
        assert [t.subject for t in hits] == ["Fog", "Rain", "Snow"]

    def test_full_wildcard_is_whole_graph(self, graph):
        assert len(query(graph)) == len(graph.triples)

    def test_predicate_outside_the_vocabulary(self, graph):
        # the predicates import_graph and assert_all accept, no others
        with pytest.raises(UnknownPredicate, match="predicate 'green' is not in the vocabulary"):
            query(graph, None, "green", None)

    def test_matches_linear_filter_on_random_graphs(self):
        rng = random.Random(5)
        subjects = [f"s{i}" for i in range(4)]
        objects = [f"o{i}" for i in range(4)]
        preds = ["dependsOn", "supports", "trigger"]
        triples = {
            Triple(rng.choice(subjects), rng.choice(preds), rng.choice(objects))
            for _ in range(80)
        }
        g = TripleGraph(frozenset(triples))
        for _ in range(50):
            s = rng.choice(subjects + [None])
            p = rng.choice(preds + [None])
            o = rng.choice(objects + [None])
            expected = sorted(
                (
                    t
                    for t in triples
                    if (s is None or t.subject == s)
                    and (p is None or t.predicate == p)
                    and (o is None or t.object == o)
                ),
                key=lambda t: (t.subject, t.predicate, t.object),
            )
            assert query(g, s, p, o) == expected


# Terms of every kind a query compares: identifiers, and int, float and string
# literals, where Literal(1) == Literal(1.0) and ints share their floats' keys.
query_terms = st.one_of(
    st.sampled_from(["a", "b", "G1", "Goal"]),
    st.builds(Literal, st.integers(-3, 3)),
    st.builds(Literal, st.sampled_from([0.0, -0.0, 1.0, 0.5, 2.5, 1e300])),
    st.builds(Literal, st.sampled_from(["", "a", "Goal", "1.0", 'q"t', "x\\y"])),
)
query_triples = st.builds(Triple, query_terms, st.sampled_from([RDF_TYPE, "dependsOn", "hasText"]),
                          query_terms)


class TestQueryMatchesReference:
    """query reads the cached index; the oracle scans and sorts the graph."""

    @settings(max_examples=200, deadline=None)
    @given(triples=st.frozensets(query_triples, max_size=30), pattern=st.tuples(
        *[st.one_of(st.none(), query_terms)] * 2
    ), predicate=st.sampled_from([None, RDF_TYPE, "dependsOn", "hasText", "supports"]))
    def test_every_pattern(self, triples, pattern, predicate):
        g = TripleGraph(triples)
        subject, obj = pattern
        for s, p, o in itertools.product((None, subject), (None, predicate), (None, obj)):
            assert query(g, s, p, o) == oracles.query(g, s, p, o)
        lines = [f"{format_term(t.subject)} {t.predicate} {format_term(t.object)} .\n"
                 for t in oracles.query(g)]
        assert export_graph(g) == "".join(lines)

    def test_avp_fixture(self):
        g = avp_ontology()
        terms = sorted({t.subject for t in g.triples} | {t.object for t in g.triples}, key=str)
        for term in terms:
            for pattern in ((term, None, None), (None, None, term), (term, RDF_TYPE, None)):
                assert query(g, *pattern) == oracles.query(g, *pattern)

    def test_derived_graphs_get_their_own_index(self):
        g = avp_ontology()
        assert query(g, "x") == []
        g2 = assert_all(g, [Triple("x", RDF_TYPE, "Goal")])
        assert query(g2, "x") == [Triple("x", RDF_TYPE, "Goal")]
        assert query(retract_triple(g2, Triple("x", RDF_TYPE, "Goal")), "x") == []
        assert g == avp_ontology()  # the mutators left their input graph as it was

    def test_racing_first_readers_see_a_complete_index(self):
        g = assert_all(avp_ontology(), [Triple("Rain_Heavy", "hasAttribute", "Rain_light")])
        expected = (check_axioms(g), export_graph(g), query(g, predicate=RDF_TYPE))
        assert expected[0]
        start = threading.Barrier(8, timeout=30)

        def read(shared):
            start.wait()
            return check_axioms(shared), export_graph(shared), query(shared, predicate=RDF_TYPE)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(10):
                    shared = TripleGraph(g.triples)
                    assert "_index" not in vars(shared)
                    assert list(pool.map(read, [shared] * 8, timeout=60)) == [expected] * 8
        finally:
            sys.setswitchinterval(interval)


class TestCheckAxioms:
    def test_avp_fixture_clean(self):
        assert check_axioms(avp_ontology()) == []

    def test_avp_fixture_names_odd_and_hara_terms(self):
        # the ontology describes the example's ODD and HARA, so each class,
        # attribute and event it types is one those documents declare
        classes = AVP_ODD_DOCUMENT["classes"]
        declared = {
            "OddClass": {c["name"] for c in classes},
            "OddAttribute": {a["name"] for c in classes for a in c["attributes"]},
            "Event": {e["id"] for e in AVP_HARA_DOCUMENT["events"]},
        }
        typed = {cls: {t.subject for t in query(avp_ontology(), None, RDF_TYPE, cls)}
                 for cls in declared}
        assert all(typed.values())
        assert {cls: names - declared[cls] for cls, names in typed.items()} == {
            cls: set() for cls in declared}

    def test_avp_fixture_constraint_is_the_odd_bound(self):
        # Rain_Heavy's constraint is the lower bound of its ODD interval
        (rain,) = (c for c in AVP_ODD_DOCUMENT["classes"] if c["name"] == "Rain")
        heavy = rain["attributes"][-1]
        bounds = parse_interval(heavy["interval"])
        graph = avp_ontology()
        (constraint,) = (t.subject for t in query(graph, None, RDF_TYPE, "Constraint"))
        assert Triple(heavy["name"], "hasDomain", constraint) in graph.triples
        assert bounds.lo_inclusive and constraint.value[0] == "≥"
        assert float(constraint.value[1:]) == bounds.lo == 0.77

    def test_avp_fixture_network_is_the_data_template(self):
        # the dependsOn edges are the built data template's edges into its
        # objective, and that objective is the one ObjNode
        template = build_data_appropriateness_bn()
        graph = avp_ontology()
        into_objective = {(src, dst) for src, dst in template.edges if dst == DATA_OBJECTIVE}
        assert {(t.subject, t.object) for t in query(graph, None, "dependsOn")} == into_objective
        assert [t.subject for t in query(graph, None, RDF_TYPE, "ObjNode")] == [DATA_OBJECTIVE]

    def test_avp_fixture_evidences_the_monitor_solution(self):
        pairs = {(t.subject, t.object) for t in query(avp_ontology(), None, "hasEvidence")}
        assert ("G8", AVP_SOLUTION_ID) in pairs

    def test_rain_abox_clean(self):
        g = TripleGraph()
        g = assert_all(
            g,
            [
                Triple("Rain", RDF_TYPE, "OddClass"),
                Triple("Rain_Heavy", RDF_TYPE, "OddAttribute"),
                Triple(Literal("cm/h"), RDF_TYPE, "Unit"),
                Triple(Literal("≥0.77"), RDF_TYPE, "Constraint"),
                Triple("Rain", "hasAttribute", "Rain_Heavy"),
                Triple("Rain_Heavy", "hasDomain", Literal("cm/h")),
                Triple("Rain_Heavy", "hasDomain", Literal("≥0.77")),
            ],
        )
        assert check_axioms(g) == []

    def test_untyped_subject_of_has_attribute(self):
        g = TripleGraph()
        g = assert_all(
            g,
            [
                Triple("Rain_Heavy", RDF_TYPE, "OddAttribute"),
                Triple("Mystery", "hasAttribute", "Rain_Heavy"),
            ],
        )
        violations = check_axioms(g)
        assert [v.axiom for v in violations] == ["A4"]

    def test_goal_classification_consistency(self):
        g = assert_all(
            TripleGraph(),
            [
                Triple("e", RDF_TYPE, "Event"),
                Triple("e", RDF_TYPE, "ConsequenceEvent"),
                Triple("o", RDF_TYPE, "Event"),
                Triple("o", RDF_TYPE, "OccurrenceEvent"),
                Triple("e", "dependsOnOccurrence", "o"),
            ],
        )
        violations = check_axioms(g)
        # e depends on an occurrence, so it cannot be a consequence (A22);
        # the subject typing of dependsOnOccurrence also fails (A16)
        assert {v.axiom for v in violations} == {"A22", "A16"}

    def test_objective_node_shape(self):
        g = assert_all(
            TripleGraph(),
            [
                Triple("DataComp", RDF_TYPE, "Node"),
                Triple("DataComp", RDF_TYPE, "ObjNode"),
            ],
        )
        # no incoming dependsOn yet
        assert [v.axiom for v in check_axioms(g)] == ["A48"]
        g = assert_all(
            g,
            [
                Triple("OddSuff", RDF_TYPE, "Node"),
                Triple("OddSuff", "dependsOn", "DataComp"),
            ],
        )
        assert check_axioms(g) == []

    def test_violations_vanish_with_offending_triple(self):
        g = avp_ontology()
        bad = Triple("Rain_Heavy", "hasAttribute", "Rain_light")
        g_bad = assert_all(g, [bad])
        assert [v.axiom for v in check_axioms(g_bad)] == ["A4"]
        assert check_axioms(retract_triple(g_bad, bad)) == []

    def test_trigger_typing_rules(self):
        g = assert_all(
            TripleGraph(),
            [
                Triple("o", RDF_TYPE, "OccurrenceEvent"),
                Triple("h", RDF_TYPE, "HazardousEvent"),
                Triple("o", "trigger", "h"),
            ],
        )
        assert check_axioms(g) == []
        g2 = assert_all(g, [Triple("h", "trigger", "o")])
        assert {v.axiom for v in check_axioms(g2)} == {"A13", "A14"}

    def test_has_text_rejects_non_strings(self):
        g = assert_all(
            TripleGraph(),
            [Triple("G1", "hasText", Literal(3.5))],
        )
        assert [v.axiom for v in check_axioms(g)] == ["A40"]

    def test_has_acp_value_range(self):
        g = assert_all(
            TripleGraph(),
            [
                Triple("n", RDF_TYPE, "Node"),
                Triple("n", RDF_TYPE, "ObjNode"),
                Triple("m", RDF_TYPE, "Node"),
                Triple("m", "dependsOn", "n"),
                Triple("n", "hasACP", Literal(1.5)),
            ],
        )
        assert [v.axiom for v in check_axioms(g)] == ["A46"]

    def test_claim_point_needs_an_objective_node(self):
        g = assert_all(avp_ontology(), [Triple("Sn8.1", "hasConfidence", "OddSuff")])
        assert [v.axiom for v in check_axioms(g)] == ["A36"]

    def test_matches_rule_by_rule_filter(self):
        # independent per-axiom filters for A3/A4 (hasAttribute) and
        # A44/A45 (hasCPT) on fuzzed graphs
        rng = random.Random(9)
        for _ in range(50):
            names = [f"x{i}" for i in range(5)]
            triples = set()
            for _ in range(rng.randint(1, 16)):
                kind = rng.random()
                if kind < 0.4:
                    triples.add(
                        Triple(
                            rng.choice(names),
                            RDF_TYPE,
                            rng.choice(["OddClass", "OddAttribute", "Node", "CptTable"]),
                        )
                    )
                elif kind < 0.7:
                    triples.add(Triple(rng.choice(names), "hasAttribute", rng.choice(names)))
                else:
                    triples.add(Triple(rng.choice(names), "hasCPT", rng.choice(names)))
            g = TripleGraph(frozenset(triples))
            violations = {(v.axiom, v.triple) for v in check_axioms(g)}
            for t in triples:
                if t.predicate == "hasAttribute":
                    typed_class = Triple(t.subject, RDF_TYPE, "OddClass") in triples
                    typed_attr = Triple(t.object, RDF_TYPE, "OddAttribute") in triples
                    assert (("A4", t) in violations) == (not typed_class)
                    assert (("A3", t) in violations) == (not typed_attr)
                elif t.predicate == "hasCPT":
                    typed_node = Triple(t.subject, RDF_TYPE, "Node") in triples
                    typed_table = Triple(t.object, RDF_TYPE, "CptTable") in triples
                    assert (("A45", t) in violations) == (not typed_node)
                    assert (("A44", t) in violations) == (not typed_table)


class TestCheckAxiomsMatchesReference:
    """check_axioms indexes the graph once; the oracle rescans it for every
    lookup. The violation lists must be equal, order and messages included."""

    @settings(max_examples=300, deadline=None)
    @given(triples=st.frozensets(st.one_of(typings, facts), max_size=40))
    def test_fuzzed_graphs(self, triples):
        g = TripleGraph(triples)
        assert check_axioms(g) == oracles.check_axioms(g)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_damaged_fixture(self, data):
        fixture = sorted(avp_ontology().triples, key=repr)
        kept = data.draw(st.lists(st.booleans(), min_size=len(fixture), max_size=len(fixture)))
        extra = data.draw(st.frozensets(st.one_of(typings, facts), max_size=10))
        g = TripleGraph(frozenset(t for t, keep in zip(fixture, kept) if keep) | extra)
        assert check_axioms(g) == oracles.check_axioms(g)

    def test_violation_order_across_and_within_triples(self):
        # canonical order puts n before s; one triple's range or domain
        # violation comes before its predicate's own axiom
        g = TripleGraph(frozenset({
            Triple("s", "hasConfidence", "o"), Triple("n", "hasACP", Literal(2)),
            Triple("m", RDF_TYPE, "ObjNode"),
        }))
        found = check_axioms(g)
        assert [(v.axiom, v.triple.subject) for v in found] == [
            ("A47", "n"), ("A46", "n"), ("A36", "s"), ("A37", "s"), ("A48", "m"),
        ]
        assert found == oracles.check_axioms(g)

    @pytest.mark.parametrize("triples, unreadable", [
        # Literal(0.0) and Literal(-0.0) are one dict key but export apart
        ([Triple(Literal(0.0), "dependsOn", "a"), Triple("a", "dependsOn", Literal(-0.0)),
          Triple(Literal(-0.0), RDF_TYPE, "Node"), Triple(Literal(-0.5), "dependsOn", Literal(0)),
          Triple("b", "hasACP", Literal(-0.0)), Triple("c", "hasACP", Literal(0.0)),
          Triple("a", RDF_TYPE, "ObjNode")], None),
        # distinct triples with one sort key: an int past 2**53 and its float;
        # the int exports as the float, so export_graph refuses the graph
        ([Triple("a", "dependsOn", Literal(2**53 + 1)), Triple("a", "dependsOn", Literal(2.0**53)),
          Triple("a", "hasACP", Literal(2**53 + 1)), Triple("a", "hasACP", Literal(2.0**53))],
         Triple("a", "dependsOn", Literal(2**53 + 1))),
    ], ids=["signed-zero", "shared-key"])
    def test_terms_that_are_equal_or_export_alike(self, triples, unreadable):
        g = TripleGraph(frozenset(triples))
        assert check_axioms(g) == oracles.check_axioms(g)
        terms = {t.subject for t in triples} | {t.object for t in triples} | {None}
        for s, o in itertools.product(terms, terms):
            assert query(g, s, None, o) == oracles.query(g, s, None, o)
        if unreadable is None:
            lines = [f"{format_term(t.subject)} {t.predicate} {format_term(t.object)} .\n"
                     for t in oracles.query(g)]
            assert export_graph(g) == "".join(lines)
        else:
            message = f"object of {unreadable} does not read back"
            with pytest.raises(OntologyError, match=re.escape(message)):
                export_graph(g)

    def test_thousand_triples(self):
        g = _renamed_avp_copies(14)
        assert 1000 <= len(g.triples) <= 1100
        found = check_axioms(g)
        assert found == oracles.check_axioms(g)
        assert len(found) > 100 and len({v.triple.predicate for v in found}) >= 10
        text = export_graph(g)
        assert import_graph(text) == oracles.import_graph(text) == g
        for pattern in ((None, RDF_TYPE, "Goal"), ("G1_3", None, None), (None, "supports", None),
                        (None, None, Literal("cm/h")), ("Rain_Heavy_5", "hasAttribute", None)):
            assert query(g, *pattern) == oracles.query(g, *pattern)

    def test_class_names_as_plain_objects(self):
        """A class name in the object position of another predicate makes no
        member of that class."""
        g = assert_all(avp_ontology(), [
            Triple("x", "dependsOn", "ObjNode"),
            Triple("y", "relatedTo", "Goal"),
            Triple("z", "trigger", "OccurrenceEvent"),
        ])
        assert check_axioms(g) == oracles.check_axioms(g)
        goals = {t.subject for t in g.triples if t.predicate == RDF_TYPE and t.object == "Goal"}
        assert set(classify_goals(g)) == goals

    def test_check_does_not_scan_the_graph(self, monkeypatch):
        g = assert_all(
            avp_ontology(),
            [Triple("Rain_Heavy", "hasAttribute", "Rain_light"), Triple("x", RDF_TYPE, "ObjNode")],
        )
        expected = oracles.check_axioms(g)
        goals = classify_goals(TripleGraph(g.triples))  # an equal graph with its own index
        assert expected
        builds = []

        def index(triples):
            builds.append(triples)
            return build(triples)

        build = safety_ontology._GraphIndex
        monkeypatch.setattr(safety_ontology, "_GraphIndex", index)
        assert check_axioms(g) == expected
        assert classify_goals(g) == goals
        assert query(g, predicate=RDF_TYPE) == oracles.query(g, predicate=RDF_TYPE)
        assert builds == [g.triples]  # one index, built on first use and kept on the graph

    @pytest.mark.parametrize("triple, side", [
        (Triple("n", "hasACP", Literal(10**400)), "object"),  # format_term: OverflowError
        (Triple("n", "hasText", Literal(None)), "object"),  # format_term: AttributeError
        (Triple(5, "dependsOn", "b"), "subject"),  # 5 < "a": TypeError
    ], ids=["int-past-float-range", "none-literal", "int-identifier"])
    def test_readers_refuse_a_term_the_canonical_sort_cannot_take(self, triple, side):
        # a graph built directly, not through assert_all, is read as given
        message = f"{side} of {triple} does not read back from its token"
        for read in (check_axioms, query, classify_goals):
            g = TripleGraph(frozenset({Triple("a", "dependsOn", "b"), triple}))
            with pytest.raises(OntologyError, match=f"^{re.escape(message)}$"):
                read(g)

    @pytest.mark.parametrize("triples", [
        [Triple("a", "nope", "b")],  # sorts, and exports a line import_graph refuses
        [Triple("a", 5, "b"), Triple("a", "dependsOn", "b")],  # 5 < "dependsOn": TypeError
    ], ids=["unknown-name", "int-beside-a-name"])
    def test_readers_refuse_a_predicate_outside_the_vocabulary(self, triples):
        # a graph built directly, not through assert_all, is read as given
        message = f"predicate of {triples[0]} is not in the vocabulary"
        for read in (export_graph, check_axioms, query, classify_goals):
            with pytest.raises(OntologyError, match=f"^{re.escape(message)}$"):
                read(TripleGraph(frozenset(triples)))


class TestClassifyGoals:
    def test_support_goal(self):
        g = assert_all(
            TripleGraph(),
            [
                Triple("G1", RDF_TYPE, "Goal"),
                Triple("G2", RDF_TYPE, "Goal"),
                Triple("G1", "supportedBy", "G2"),
            ],
        )
        assert classify_goals(g) == {"G1": "TopLevelGoal", "G2": "SupportGoal"}

    def test_isolated_goal_is_top_level(self):
        g = assert_all(TripleGraph(), [Triple("G", RDF_TYPE, "Goal")])
        assert classify_goals(g) == {"G": "TopLevelGoal"}

    def test_roots_of_random_gsn_trees(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 12)
            g = TripleGraph()
            parents = {}
            for i in range(n):
                g = assert_all(g, [Triple(f"G{i}", RDF_TYPE, "Goal")])
                if i > 0:
                    parents[i] = rng.randrange(i)
                    g = assert_all(g, [Triple(f"G{parents[i]}", "supportedBy", f"G{i}")])
            classified = classify_goals(g)
            for i in range(n):
                expected = "TopLevelGoal" if i == 0 else "SupportGoal"
                assert classified[f"G{i}"] == expected
            partition = set(classified.values())
            assert partition <= {"TopLevelGoal", "SupportGoal"}


class TestLineFormat:
    def test_empty_graph_exports_empty(self):
        assert export_graph(TripleGraph()) == ""

    @pytest.mark.parametrize("triple, side", [
        (Triple("n", "hasACP", Literal(10**400)), "object"),  # past float range
        (Triple("#x", "dependsOn", "b"), "subject"),  # its line would read as a comment
    ])
    def test_graph_built_directly_with_unreadable_term_is_refused(self, triple, side, tmp_path):
        g = TripleGraph(frozenset({Triple("a", "dependsOn", "b"), triple}))
        message = f"{side} of {triple} does not read back from its token"
        with pytest.raises(OntologyError, match=f"^{re.escape(message)}$"):
            export_graph(g)
        path = tmp_path / "g.nt"
        with pytest.raises(OntologyError, match=f"^{re.escape(message)}$"):
            safety_ontology.save_graph(g, path)
        assert not path.exists()

    def test_int_literal_too_long_to_print_is_named_in_hex(self, tmp_path):
        triple = Triple("n", "hasACP", Literal(10**5000))
        try:
            shown = repr(triple)
        except ValueError:  # past sys.get_int_max_str_digits
            shown = f"Triple(subject='n', predicate='hasACP', object=Literal(value={hex(10**5000)}))"
        message = f"object of {shown} does not read back from its token"
        with pytest.raises(OntologyError, match=f"^{re.escape(message)}$"):
            export_graph(TripleGraph(frozenset({triple})))
        with pytest.raises(OntologyError, match=f"^{re.escape(message)}$"):
            assert_all(TripleGraph(), [triple])

    def test_refused_graph_names_the_same_triple_in_any_order(self):
        unreadable = [Triple(f"#{i}", "dependsOn", "b") for i in range(30)]
        unreadable += [Triple("n", "hasACP", Literal(10**400)), Triple("#1", "trigger", "#2")]
        messages = set()
        for seed in range(8):
            shuffled = unreadable + [Triple(f"a{i}", "dependsOn", "b") for i in range(30)]
            random.Random(seed).shuffle(shuffled)
            with pytest.raises(OntologyError) as err:
                export_graph(TripleGraph(frozenset(shuffled)))
            messages.add(str(err.value))
        # "object of ..." sorts before every "subject of ..."
        assert messages == {f"object of {unreadable[30]} does not read back from its token"}

    def test_roundtrip_avp(self):
        g = avp_ontology()
        text = export_graph(g)
        again = import_graph(text)
        assert again.triples == g.triples
        assert export_graph(again) == text

    def test_canonical_bytes(self):
        g = avp_ontology()
        triples = sorted(g.triples, key=lambda t: str(t))
        random.Random(13).shuffle(triples)
        g2 = TripleGraph(frozenset(triples))
        assert export_graph(g2) == export_graph(g)

    def test_literal_escaping(self):
        tricky = 'say "hi"\\ twice\nplease'
        g = assert_all(TripleGraph(), [Triple("G1", "hasText", Literal(tricky))])
        again = import_graph(export_graph(g))
        (t,) = again.triples
        assert t.object == Literal(tricky)

    def test_numeric_literals_roundtrip(self):
        g = assert_all(TripleGraph(), [Triple("n", "hasACP", Literal(0.8200000000000001))])
        again = import_graph(export_graph(g))
        (t,) = again.triples
        assert t.object.value == 0.8200000000000001

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", ["subject", "object"])
    def test_number_literal_that_is_not_finite_is_refused(self, value, position):
        # Exported as `nan` or `inf`, it would re-import as an identifier
        triple = Triple("n", "hasACP", Literal(0.5))._replace(**{position: Literal(value)})
        message = f"{position} of {triple} does not read back"
        with pytest.raises(OntologyError, match=re.escape(message)):
            assert_all(TripleGraph(), [triple])

    def test_asserted_graph_roundtrips(self):
        g = assert_all(TripleGraph(), [
            Triple("n", "hasACP", Literal(0.8200000000000001)), Triple("n", "hasACP", Literal(-3)),
            Triple(Literal(1e-300), "relatedTo", Literal("a \"quoted\"\nline")),
            Triple("G1", "hasEvidence", "Sn8.1"), Triple("S1", "supports", "G1"),
        ])
        assert import_graph(export_graph(g)) == g

    @pytest.mark.parametrize("token", ["1e400", "-1e400", "1e309", "+99999e999"])
    def test_number_that_overflows_a_float_is_rejected(self, token):
        # Read as inf, it would export as `inf` and re-import as an identifier
        with pytest.raises(ParseError, match="overflows a float") as err:
            import_graph(f"a dependsOn b .\na hasACP {token} .\n")
        assert err.value.line_no == 2

    def test_largest_finite_number_roundtrips(self):
        g = import_graph("a hasACP 1.7976931348623157e308 .\n")
        assert import_graph(export_graph(g)) == g
        (t,) = g.triples
        assert t.object.value == sys.float_info.max

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            import_graph("a dependsOn b .\nthis is not a triple\n")
        assert err.value.line_no == 2
        assert str(err.value).startswith("line 2: ")

    @pytest.mark.parametrize("token, message", [
        ('"abc', "unterminated literal"), ('"a\\"', "dangling escape"),
        ("1e400", "overflows a float"), ("a b", "bad identifier"),
    ])
    def test_standalone_term_error_names_the_term(self, token, message):
        # a term parsed on its own has no line number to give
        with pytest.raises(ParseError, match=message) as err:
            safety_ontology.parse_term(token)
        assert str(err.value).startswith(f"term {token!r}: ") and err.value.line_no is None

    def test_unknown_predicate_rejected(self):
        with pytest.raises(ParseError):
            import_graph("a sparkles b .\n")

    def test_import_does_not_materialize(self):
        g = import_graph("G1 rdf_type Goal .\nG2 rdf_type Goal .\nG1 supportedBy G2 .\n")
        assert len(g.triples) == 3
        assert [v.axiom for v in check_axioms(g)] == ["A28"]

    def test_str_split_breaks_on_isspace_runs(self):
        spaces = "".join(chr(c) for c in range(0x3001) if chr(c).isspace())
        line = "a" + spaces + "b c\u3000\x0bd"
        assert line.split() == oracles.split_terms(line, 1) == ["a", "b", "c", "d"]

    def test_quoted_line_tokenizer_breaks_on_exactly_the_isspace_code_points(self):
        # every code point but the quote, in order: a token boundary the
        # regex and str.split disagree on would split or join a token
        text = "".join(chr(c) for c in range(0x110000) if c != ord('"'))
        assert safety_ontology._TOKEN.findall(text) == text.split()
        spaces = [c for c in text if c.isspace()]
        line = '"a b"'.join(spaces) + '"c\u3000d"'
        assert safety_ontology._TOKEN.findall(line) == ['"a b"'] * (len(spaces) - 1) + ['"c\u3000d"']

    def test_fuzzed_roundtrip(self):
        rng = random.Random(17)
        preds = ["dependsOn", "supports", "hasText", "hasACP"]
        for _ in range(30):
            triples = set()
            for _ in range(rng.randint(0, 25)):
                pred = rng.choice(preds)
                if pred == "hasText":
                    obj = Literal("".join(rng.choice('ab"\\\n x') for _ in range(rng.randint(0, 6))))
                elif pred == "hasACP":
                    obj = Literal(round(rng.random(), 6))
                else:
                    obj = f"o{rng.randint(0, 9)}"
                triples.add(Triple(f"s{rng.randint(0, 9)}", pred, obj))
            g = TripleGraph(frozenset(triples))
            assert import_graph(export_graph(g)).triples == g.triples


# Pieces of ontology lines: good and bad terms, quotes with escapes and a
# dangling backslash, and whitespace that str.isspace and splitlines treat
# differently (\x0b and \x0c also end a line; U+3000 does not).
line_tokens = st.sampled_from([
    "a", "b", "G1", "1", "-2.5e3", ".5", "1.", "+7", "1e400", "x.y", "a\"b", "#c",
    '"t"', '"a b"', '"q\\"x"', '"\\\\"', '"e\\n"', '"dangling\\"', '"open', '""',
    ".", "dependsOn", "hasText", "rdf_type", "sparkles", "ext",
])
separators = st.sampled_from([" "] * 12 + ["\t", "  ", "\u3000", "\xa0", "\x0b", "\x0c", "\r"])


@st.composite
def ontology_text(draw):
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["triple"] * 6 + ["tokens", "comment", "blank"]))
        if kind == "triple":
            predicate = draw(st.sampled_from(["dependsOn", "hasText", RDF_TYPE, "ext", "sparkles"]))
            toks = [draw(line_tokens), predicate, draw(line_tokens), "."]
        elif kind == "tokens":
            toks = draw(st.lists(line_tokens, max_size=5))
        else:
            toks = ["# note"] if kind == "comment" else []
        seps = [draw(separators) for _ in toks]
        lines.append(draw(separators) + "".join(t + sep for t, sep in zip(toks, seps)))
    return "\n".join(lines)


class TestImportMatchesReference:
    """import_graph splits quote-free lines with str.split and parses each
    distinct token once; the oracle runs the character loop on every line."""

    @staticmethod
    def outcome(parse, text):
        try:
            g = parse(text)
        except ParseError as exc:
            return ("error", str(exc), exc.line_no)
        return ("graph", g)

    @classmethod
    def accepted_lines(cls, text):
        """The lines of ``text`` that import_graph accepts one at a time; they
        make a text it accepts. A drawn text's first bad line refuses it, so
        few whole drawn texts import."""
        return "\n".join(line for line in text.splitlines()
                         if cls.outcome(import_graph, line)[0] == "graph")

    @settings(max_examples=400, deadline=None)
    @given(text=ontology_text())
    def test_fuzzed_text(self, text):
        # the whole text compares the refusals, its accepted lines the graphs
        for compared in (text, self.accepted_lines(text)):
            assert self.outcome(import_graph, compared) == self.outcome(oracles.import_graph, compared)

    @settings(max_examples=400, deadline=None)
    @given(text=ontology_text())
    def test_accepted_text_exports_and_reads_back(self, text):
        # one token rule reads and writes every term, so nothing import_graph
        # accepts is refused by export_graph
        graph = import_graph(self.accepted_lines(text))
        assert import_graph(export_graph(graph)) == graph

    def test_identifier_never_starts_with_a_hash(self):
        with pytest.raises(ParseError, match="^line 1: bad identifier '#c'$") as err:
            import_graph("a dependsOn #c .\n")
        assert err.value.line_no == 1
        with pytest.raises(ParseError, match="^term '#x': bad identifier '#x'$"):
            safety_ontology.parse_term("#x")

    @pytest.mark.parametrize("text, line_no", [
        ('a hasText "dangling\\" .\n', 1),
        ("a dependsOn b .\n# c\nc sparkles 1 .\n", 3),
        ('a dependsOn b .\nx"y sparkles z .\n', 2),  # the subject fails before the predicate
        ('a hasText "t" .\n"u" hasText b"c .\n', 2),
        ('a dependsOn b .\n\nc hasText "open .\n', 3),
        ("a dependsOn b .\na\x0bdependsOn b .\n", 2),  # \x0b ends the line
        ("a\u3000dependsOn\u3000b\u3000.\nx y\n", 2),
        ('a dependsOn b .\nc hasText "t" "u" .\n', 2),
    ])
    def test_errors_name_the_reference_line(self, text, line_no):
        got = self.outcome(import_graph, text)
        assert got == self.outcome(oracles.import_graph, text)
        assert got[0] == "error" and got[2] == line_no

    @pytest.mark.parametrize("text, line_no", [
        ("a dependsOn b .\n \t\u3000 \nc dependsOn d .\n", None),  # a whitespace-only line
        ("   # comment\na dependsOn b .\n", None),
        ('# "quoted" comment\na dependsOn b .\n# "open\n', None),
        ("a\tdependsOn\tb\t.\n\tc dependsOn\td .\n", None),
        ("a dependsOn b .\na dependsOn b . c\n", 2),  # five tokens
        ('a dependsOn b .\na hasText "t" . c\n', 2),
        ("a b c ;\n", 1),
    ])
    def test_line_shapes(self, text, line_no):
        got = self.outcome(import_graph, text)
        assert got == self.outcome(oracles.import_graph, text)
        assert got[0] == ("graph" if line_no is None else "error")
        if line_no is not None:
            assert got[1:] == (f"line {line_no}: expected `subject predicate object .`", line_no)

    def test_megabyte_literal_full_of_escapes(self):
        # user-sized input must not reach a recursion limit
        text = 'a hasText "' + '\\"\\\\\\n.' * 150_000 + '" .\n'
        assert len(text) > 1_000_000
        graph = import_graph(text)
        assert graph == oracles.import_graph(text)
        assert graph.triples == {Triple("a", "hasText", Literal('"\\\n.' * 150_000))}

    def test_bench_sized_graph(self):
        text = export_graph(avp_ontology()) + "".join(
            f'n{i} dependsOn n{i + 1} .\nn{i} hasText "t {i}" .\n' for i in range(500)
        )
        assert import_graph(text) == oracles.import_graph(text)


def _renamed_avp_copies(copies: int) -> TripleGraph:
    """Copies of the AVP ontology, each individual renamed per copy (literals
    and the classes that rdf_type names are shared), each copy without a
    different seventh of its facts and with facts that break typing, literal
    and objective-node axioms, so violations of many predicates interleave."""
    fixture = sorted(avp_ontology().triples, key=safety_ontology._sort_key)
    classes = {t.object for t in fixture if t.predicate == RDF_TYPE}
    triples = set()
    for k in range(copies):
        def rename(term):
            return term if isinstance(term, Literal) or term in classes else f"{term}_{k}"

        triples |= {Triple(rename(s), p, rename(o))
                    for i, (s, p, o) in enumerate(fixture) if i % 7 != k % 7}
        triples |= {
            Triple(rename("n"), "hasACP", Literal(k / 4)),
            Triple(rename("G1"), "hasText", Literal(float(k))),
            Triple(rename("Rain_Heavy"), "hasAttribute", rename("Rain_light")),
            Triple(rename("x"), RDF_TYPE, "ObjNode"),
        }
    return TripleGraph(frozenset(triples))


def _damaged_avp_ontology() -> TripleGraph:
    """The AVP ontology without every fifth exported fact, plus facts that
    break typing, literal and inverse axioms."""
    lines = export_graph(avp_ontology()).splitlines()
    kept = import_graph("\n".join(line for i, line in enumerate(lines) if i % 5))
    return TripleGraph(kept.triples | {
        Triple("G1", "hasText", Literal(3.0)),
        Triple(Literal("x"), "supportedBy", "S1"),
        Triple("n", "hasACP", Literal(1.5)),
        Triple("Rain_Heavy", "hasAttribute", "Rain_light"),
        Triple("x", RDF_TYPE, "ObjNode"),
        Triple("q", "hasEvidence", Literal(0.25)),
    })


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestRecords:
    """Literal, Triple and AxiomViolation are named tuples. The digests were
    taken when they were frozen dataclasses, and taken again when the AVP
    ontology's heavy-rain attribute took the ODD's name: the export text and
    the violation list, each record in its repr, must not change."""

    @pytest.mark.parametrize("make, violations, export_digest, violation_digest", [
        (avp_ontology, 0, "54cd5355209a91e51d4e839ec1d49b2268afa2d8a4bf0168d785bd08c4683409",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (_damaged_avp_ontology, 19,
         "a92beed36e05cff0749ec034714c2417201a303dcba2842a9ada4d8736f85d52",
         "e08c64270912b32e2ba8fcf31c1092d4dd3aaa607d37c8f5619d1dba18e2b333"),
    ])
    def test_export_and_violations_unchanged(self, make, violations, export_digest,
                                             violation_digest):
        g = make()
        assert _sha256(export_graph(g)) == export_digest
        found = check_axioms(g)
        assert len(found) == violations and found == oracles.check_axioms(g)
        assert _sha256("\n".join(map(repr, found))) == violation_digest

    def test_repr_and_str(self):
        t = Triple("G1", "hasText", Literal(3.0))
        v = AxiomViolation("A40", t, "object of hasText must be a string literal")
        assert repr(v) == (
            "AxiomViolation(axiom='A40', triple=Triple(subject='G1', predicate='hasText', "
            "object=Literal(value=3.0)), message='object of hasText must be a string literal')"
        )
        assert str(v) == "A40: object of hasText must be a string literal"
        assert str(Literal("t")) == "t" and str(t) == repr(t)

    def test_fields_cannot_be_assigned(self):
        t = Triple("a", "dependsOn", "b")
        for record, name in ((Literal("t"), "value"), (t, "subject"), (t, "object"),
                             (AxiomViolation("A42", t, "m"), "message")):
            with pytest.raises(AttributeError):
                setattr(record, name, "x")

    def test_records_equal_plain_tuples(self):
        t = Triple("a", "hasACP", Literal(0.5))
        assert t == ("a", "hasACP", (0.5,)) and hash(t) == hash(("a", "hasACP", (0.5,)))
        assert AxiomViolation("A46", t, "m") == ("A46", t, "m")
        assert (t.subject, t.predicate, t.object) == tuple(t)
