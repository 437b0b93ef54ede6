import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from odd_assure.fixtures import avp_ontology
from odd_assure.safety_ontology import (
    RDF_TYPE,
    VOCABULARY,
    Literal,
    ParseError,
    Triple,
    TripleGraph,
    TypeViolation,
    UnknownPredicate,
    assert_all,
    assert_triple,
    attach_confidence,
    check_axioms,
    classify_goals,
    export_graph,
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


class TestAssertTriple:
    def test_set_semantics(self):
        g = TripleGraph()
        t = Triple("Rain", "subClassOf", "Weather_conditions")
        g = assert_triple(g, t)
        g = assert_triple(g, t)
        assert len(query(g, "Rain", "subClassOf", None)) == 1

    def test_unknown_predicate(self):
        with pytest.raises(UnknownPredicate):
            assert_triple(TripleGraph(), Triple("a", "green", "b"))

    def test_extension_predicates(self):
        g = TripleGraph(extension_predicates=frozenset({"green"}))
        g = assert_triple(g, Triple("a", "green", "b"))
        assert query(g, None, "green", None)

    def test_supported_by_materializes_inverse(self):
        g = assert_triple(TripleGraph(), Triple("G1", "supportedBy", "S1"))
        assert Triple("S1", "supports", "G1") in g.triples

    def test_evidence_entails_supported_by(self):
        g = assert_triple(TripleGraph(), Triple("G8", "hasEvidence", "Sn8.1"))
        assert query(g, "G8", "supportedBy", "Sn8.1")
        g = assert_triple(g, Triple("G1", "hasInference", "G8"))
        assert query(g, "G1", "supportedBy", "G8")

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
                g = assert_triple(g, t)
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
        extensions=st.sampled_from([frozenset(), frozenset({"green"})]),
    )
    def test_equals_folding_assert_triple(self, triples, extensions):
        start = TripleGraph(frozenset({Triple("a", "dependsOn", "b")}), extensions)
        folded = start
        try:
            for t in triples:
                folded = assert_triple(folded, t)
        except UnknownPredicate as exc:
            with pytest.raises(UnknownPredicate, match=re.escape(str(exc))):
                assert_all(start, iter(triples))
            return
        assert assert_all(start, iter(triples)) == folded


class TestQuery:
    @pytest.fixture(scope="module")
    def graph(self):
        return avp_ontology()

    def test_subclass_pattern(self, graph):
        hits = query(graph, None, "subClassOf", "Weather_conditions")
        assert [t.subject for t in hits] == ["Fog", "Rain", "Snow"]

    def test_full_wildcard_is_whole_graph(self, graph):
        assert len(query(graph)) == len(graph.triples)

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


class TestCheckAxioms:
    def test_avp_fixture_clean(self):
        assert check_axioms(avp_ontology()) == []

    def test_rain_abox_clean(self):
        g = TripleGraph()
        g = assert_all(
            g,
            [
                Triple("Rain", RDF_TYPE, "OddClass"),
                Triple("Rain_heavy", RDF_TYPE, "OddAttribute"),
                Triple(Literal("cm/h"), RDF_TYPE, "Unit"),
                Triple(Literal("≥0.77"), RDF_TYPE, "Constraint"),
                Triple("Rain", "hasAttribute", "Rain_heavy"),
                Triple("Rain_heavy", "hasDomain", Literal("cm/h")),
                Triple("Rain_heavy", "hasDomain", Literal("≥0.77")),
            ],
        )
        assert check_axioms(g) == []

    def test_untyped_subject_of_has_attribute(self):
        g = TripleGraph()
        g = assert_all(
            g,
            [
                Triple("Rain_heavy", RDF_TYPE, "OddAttribute"),
                Triple("Mystery", "hasAttribute", "Rain_heavy"),
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
        bad = Triple("Rain_heavy", "hasAttribute", "Rain_light")
        g_bad = assert_triple(g, bad)
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
        g2 = assert_triple(g, Triple("h", "trigger", "o"))
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

    def test_check_does_not_scan_the_graph(self, monkeypatch):
        g = assert_all(
            avp_ontology(),
            [Triple("Rain_heavy", "hasAttribute", "Rain_light"), Triple("x", RDF_TYPE, "ObjNode")],
        )
        expected = oracles.check_axioms(g)
        goals = classify_goals(g)
        assert expected

        def scan(*_):
            raise AssertionError("a per-term scan of the graph")

        monkeypatch.setattr(TripleGraph, "types_of", scan)
        monkeypatch.setattr(TripleGraph, "individuals_of", scan)
        assert check_axioms(g) == expected
        assert classify_goals(g) == goals


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
        g = assert_triple(TripleGraph(), Triple("G", RDF_TYPE, "Goal"))
        assert classify_goals(g) == {"G": "TopLevelGoal"}

    def test_roots_of_random_gsn_trees(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 12)
            g = TripleGraph()
            parents = {}
            for i in range(n):
                g = assert_triple(g, Triple(f"G{i}", RDF_TYPE, "Goal"))
                if i > 0:
                    parents[i] = rng.randrange(i)
                    g = assert_triple(g, Triple(f"G{parents[i]}", "supportedBy", f"G{i}"))
            classified = classify_goals(g)
            for i in range(n):
                expected = "TopLevelGoal" if i == 0 else "SupportGoal"
                assert classified[f"G{i}"] == expected
            partition = set(classified.values())
            assert partition <= {"TopLevelGoal", "SupportGoal"}


class TestAttachConfidence:
    def test_attach_keeps_graph_clean(self):
        g = avp_ontology()
        g = attach_confidence(g, "Sn8.1", "DataComp", 0.82)
        assert Triple("Sn8.1", "hasConfidence", "DataComp") in g.triples
        assert Triple("DataComp", "hasACP", Literal(0.82)) in g.triples
        assert check_axioms(g) == []

    def test_non_solution_rejected(self):
        with pytest.raises(TypeViolation):
            attach_confidence(avp_ontology(), "G1", "DataComp", 0.5)

    def test_non_objnode_rejected(self):
        with pytest.raises(TypeViolation):
            attach_confidence(avp_ontology(), "Sn8.1", "OddSuff", 0.5)

    def test_value_out_of_range(self):
        with pytest.raises(TypeViolation):
            attach_confidence(avp_ontology(), "Sn8.1", "DataComp", 1.2)


class TestLineFormat:
    def test_empty_graph_exports_empty(self):
        assert export_graph(TripleGraph()) == ""

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
        g = assert_triple(
            TripleGraph(), Triple("G1", "hasText", Literal(tricky))
        )
        again = import_graph(export_graph(g))
        (t,) = again.triples
        assert t.object == Literal(tricky)

    def test_numeric_literals_roundtrip(self):
        g = assert_triple(TripleGraph(), Triple("n", "hasACP", Literal(0.8200000000000001)))
        again = import_graph(export_graph(g))
        (t,) = again.triples
        assert t.object.value == 0.8200000000000001

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            import_graph("a dependsOn b .\nthis is not a triple\n")
        assert err.value.line_no == 2

    def test_unknown_predicate_rejected(self):
        with pytest.raises(ParseError):
            import_graph("a sparkles b .\n")

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
