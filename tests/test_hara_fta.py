import copy
import random
import re

import pytest

from odd_assure import hara_fta
from odd_assure.fixtures import (
    AVP_HARA_DOCUMENT,
    HAZARD_ID,
    avp_fta,
    avp_hara,
    avp_odd_spec,
)
from odd_assure.hara_fta import (
    CausalEntry,
    CausalRelation,
    ChainEdge,
    CyclicCausality,
    DanglingReference,
    DependsKind,
    DocumentError,
    Event,
    EventRole,
    Fta,
    Gate,
    GateOp,
    HazardChain,
    InconsistentChain,
    check_oper_conditions,
    classify_event,
    compute_fta,
    parse_hara,
    validate_fta,
)


def _events(*ids, atomic=()):
    return [Event(i, i, atomic=i in atomic) for i in ids]


class TestComputeFta:
    def test_avp_hazard_structure(self):
        fta = avp_fta()
        assert fta.top == HAZARD_ID
        assert [e.id for e in fta.events] == [
            HAZARD_ID,
            "Presence_of_object",
            "Detection_of_object",
            "Brake_execution",
            "Forward_collision",
        ]
        assert len(fta.gates) == 1
        gate = fta.gates[0]
        assert gate.op is GateOp.OR and gate.parent == HAZARD_ID
        assert all(e.atomic for e in fta.events if e.id != HAZARD_ID)
        # atomic leaves carry their operating-condition references
        detection = fta.event("Detection_of_object")
        assert ("Weather_conditions", "Fog") in detection.oper_conditions
        assert ("Ego_speed", "Speed_High") in detection.oper_conditions

    def test_atomic_top_yields_bare_tree(self):
        top = Event("h", "hazard", atomic=True)
        fta = compute_fta(top, [top], CausalRelation({}))
        assert fta.events == (top,) and fta.gates == ()

    def test_shared_event_collected_once(self):
        events = _events("top", "a", "b", "shared", atomic=("shared",))
        rel = CausalRelation(
            {
                "top": CausalEntry(("a", "b"), GateOp.AND),
                "a": CausalEntry(("shared",), GateOp.OR),
                "b": CausalEntry(("shared",), GateOp.OR),
            }
        )
        fta = compute_fta(events[0], events, rel)
        assert [e.id for e in fta.events] == ["top", "a", "b", "shared"]
        assert len(fta.gates) == 3

    def test_cycle_rejected(self):
        events = _events("top", "a", "b")
        rel = CausalRelation(
            {
                "top": CausalEntry(("a",), GateOp.OR),
                "a": CausalEntry(("b",), GateOp.OR),
                "b": CausalEntry(("a",), GateOp.OR),
            }
        )
        with pytest.raises(CyclicCausality, match="^a -> b -> a$"):
            compute_fta(events[0], events, rel)

    def test_dangling_reference(self):
        events = _events("top")
        rel = CausalRelation({"top": CausalEntry(("ghost",), GateOp.OR)})
        with pytest.raises(DanglingReference):
            compute_fta(events[0], events, rel)

    def test_atomic_event_with_causes_rejected(self):
        events = _events("top", "a", atomic=("top", "a"))
        rel = CausalRelation({"top": CausalEntry(("a",), GateOp.OR)})
        with pytest.raises(DocumentError, match="^atomic event 'top' cannot have cause events$"):
            compute_fta(events[0], events, rel)

    def test_hazard_missing_from_events(self):
        with pytest.raises(DanglingReference):
            compute_fta(Event("h", "h", atomic=True), _events("other", atomic=("other",)), CausalRelation({}))

    def test_deterministic(self):
        events = _events("top", "a", "b", "c", atomic=("a", "b", "c"))
        rel = CausalRelation({"top": CausalEntry(("c", "a", "b"), GateOp.OR)})
        first = compute_fta(events[0], events, rel)
        second = compute_fta(events[0], list(reversed(events)), rel)
        assert first == second
        assert first.gates[0].children == ("c", "a", "b")  # relation order kept

    def test_event_set_is_reachable_set(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(2, 10)
            ids = [f"e{i}" for i in range(n)]
            mapping = {}
            for i in range(n):
                later = ids[i + 1 :]
                if later and rng.random() < 0.7:
                    children = tuple(
                        sorted(rng.sample(later, rng.randint(1, min(3, len(later)))))
                    )
                    mapping[ids[i]] = CausalEntry(children, rng.choice(list(GateOp)))
            events = [Event(i, i, atomic=i not in mapping) for i in ids]
            fta = compute_fta(events[0], events, CausalRelation(mapping))

            # independent BFS over the raw relation
            reachable = {ids[0]}
            frontier = [ids[0]]
            while frontier:
                cur = frontier.pop(0)
                children = mapping[cur].children if cur in mapping else ()
                for child in children:
                    if child not in reachable:
                        reachable.add(child)
                        frontier.append(child)
            assert {e.id for e in fta.events} == reachable
            assert {g.parent for g in fta.gates} == {i for i in reachable if i in mapping}

    def test_event_lookup_of_unknown_id(self):
        with pytest.raises(KeyError, match="nope"):
            avp_fta().event("nope")


class TestClassifyEvent:
    @pytest.fixture(scope="module")
    def chain(self):
        return avp_hara()[3][0]

    def test_forward_collision_is_consequence(self, chain):
        assert classify_event(chain, "Forward_collision") is EventRole.CONSEQUENCE

    def test_single_event_chain(self):
        chain = HazardChain(hazardous_event="h")
        assert classify_event(chain, "h") is EventRole.HAZARDOUS

    def test_declared_role_breaks_ties(self, chain):
        # Brake_execution has only a dependsOnHazardous edge, which admits
        # every role; the declared consequence position wins.
        assert classify_event(chain, "Brake_execution") is EventRole.CONSEQUENCE

    def test_inconsistent_declaration(self):
        chain = HazardChain(
            hazardous_event="h",
            occurrence_events=("o",),
            consequence_events=("c",),
            edges=(
                ChainEdge(DependsKind.ON_OCCURRENCE, "c", "o"),
            ),
        )
        with pytest.raises(InconsistentChain):
            classify_event(chain, "c")

    def test_trigger_edges_constrained(self):
        with pytest.raises(InconsistentChain):
            HazardChain(
                hazardous_event="h",
                occurrence_events=("o",),
                consequence_events=("c",),
                edges=(ChainEdge(DependsKind.TRIGGER, "c", "h"),),
            )

    def test_unknown_event(self, chain):
        with pytest.raises(DanglingReference):
            classify_event(chain, "ghost")

    def test_matches_axiom_formulas_on_random_chains(self):
        rng = random.Random(11)
        for _ in range(300):
            occ = tuple(f"o{i}" for i in range(rng.randint(0, 3)))
            con = tuple(f"c{i}" for i in range(rng.randint(0, 3)))
            members = list(occ) + ["h"] + list(con)
            edges = []
            for src in members:
                for dst in members:
                    if src == dst or rng.random() > 0.25:
                        continue
                    kind = rng.choice(
                        (DependsKind.ON_OCCURRENCE, DependsKind.ON_HAZARDOUS, DependsKind.ON_CONSEQUENCE)
                    )
                    edges.append(ChainEdge(kind, src, dst))
            chain = HazardChain("h", occ, con, tuple(edges))
            for event in members:
                out = {e.kind.value for e in chain.edges if e.src == event}
                occ_ok = ("dependsOnHazardous" not in out) or ("dependsOnConsequence" not in out)
                con_ok = "dependsOnOccurrence" not in out
                haz_ok = "dependsOnConsequence" not in out
                admissible = set()
                if occ_ok:
                    admissible.add(EventRole.OCCURRENCE)
                if con_ok:
                    admissible.add(EventRole.CONSEQUENCE)
                if haz_ok:
                    admissible.add(EventRole.HAZARDOUS)
                declared = chain.declared_role(event)
                if declared in admissible:
                    assert classify_event(chain, event) is declared
                else:
                    with pytest.raises(InconsistentChain):
                        classify_event(chain, event)

    def test_edge_leaving_the_chain(self):
        with pytest.raises(DanglingReference, match="^chain edge 'O' -> 'X' leaves the chain$"):
            HazardChain("H", ("O",), ("C",), (ChainEdge(DependsKind.ON_OCCURRENCE, "O", "X"),))


class TestValidateFta:
    def test_avp_tree_clean(self):
        assert validate_fta(avp_fta()) == []

    def test_atomic_with_gate(self):
        events = (Event("top", "top", atomic=False), Event("a", "a", atomic=True))
        fta = Fta(
            top="top",
            events=events,
            gates=(
                Gate("top", ("a",), GateOp.OR),
                Gate("a", ("top",), GateOp.OR),
            ),
        )
        kinds = {d.kind for d in validate_fta(fta)}
        assert "AtomicWithGate" in kinds

    def test_missing_gate(self):
        fta = Fta(top="top", events=(Event("top", "top", atomic=False),), gates=())
        kinds = {d.kind for d in validate_fta(fta)}
        assert kinds == {"MissingGate"}

    def test_unreachable_event(self):
        events = (Event("top", "top", atomic=True), Event("island", "x", atomic=True))
        fta = Fta(top="top", events=events, gates=())
        kinds = {d.kind for d in validate_fta(fta)}
        assert kinds == {"UnreachableEvent"}

    @pytest.mark.parametrize("events, top, gates, kind", [
        ("top top", "top", [], "DuplicateEvent"),
        ("top", "ghost", [], "MissingTop"),
        ("top", "top", [("top", ())], "EmptyGate"),
        ("top", "top", [("top", ("ghost",))], "DanglingReference"),
        ("top", "top", [("top", ("top",))], "SelfLoop"),
        ("top a", "top", [("top", ("a",)), ("top", ("a",))], "DuplicateGate"),
    ])
    def test_defects_are_data_not_exceptions(self, events, top, gates, kind):
        # structures compute_fta never builds are reported, not raised
        fta = Fta(top=top, events=tuple(_events(*events.split())),
                  gates=tuple(Gate(p, children, GateOp.OR) for p, children in gates))
        assert kind in {d.kind for d in validate_fta(fta)}

    def test_fuzzed_trees_agree_with_independent_checker(self):
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(1, 7)
            ids = [f"e{i}" for i in range(n)]
            atomic = {i for i in ids if rng.random() < 0.5}
            gates = []
            for i in ids:
                if rng.random() < 0.5:
                    children = tuple(rng.sample(ids, rng.randint(1, n)))
                    gates.append(Gate(i, children, rng.choice(list(GateOp))))
            fta = Fta(
                top=ids[0],
                events=tuple(Event(i, i, atomic=i in atomic) for i in ids),
                gates=tuple(gates),
            )
            defects = validate_fta(fta)

            # independent checker: degree counts + cycle detect + reachability
            by_parent = {}
            ok = True
            for g in gates:
                by_parent.setdefault(g.parent, []).append(g)
            for i in ids:
                n_gates = len(by_parent.get(i, []))
                if i in atomic and n_gates != 0:
                    ok = False
                if i not in atomic and n_gates != 1:
                    ok = False
            for g in gates:
                if g.parent in g.children:
                    ok = False
            adjacency = {i: set() for i in ids}
            for g in gates:
                adjacency[g.parent].update(g.children)
            reach = {ids[0]}
            frontier = [ids[0]]
            while frontier:
                for nxt in adjacency[frontier.pop()]:
                    if nxt not in reach:
                        reach.add(nxt)
                        frontier.append(nxt)
            if reach != set(ids):
                ok = False
            seen_state = {}

            def has_cycle(node):
                seen_state[node] = 1
                for nxt in adjacency[node]:
                    state = seen_state.get(nxt, 0)
                    if state == 1 or (state == 0 and has_cycle(nxt)):
                        return True
                seen_state[node] = 2
                return False

            if any(seen_state.get(i, 0) == 0 and has_cycle(i) for i in ids):
                ok = False
            assert (defects == []) == ok


class TestDepthAndCycles:
    def test_deep_chain_has_no_depth_limit(self):
        n = 3000  # well past the interpreter's default recursion limit
        ids = [f"e{i}" for i in range(n)]
        events = [Event(i, i, atomic=i == ids[-1]) for i in ids]
        rel = CausalRelation(
            {ids[i]: CausalEntry((ids[i + 1],), GateOp.OR) for i in range(n - 1)}
        )
        fta = compute_fta(events[0], events, rel)
        assert [e.id for e in fta.events] == ids
        assert len(fta.gates) == n - 1
        assert validate_fta(fta) == []

    def test_cycle_the_hazard_cannot_reach_is_not_an_error(self):
        events = _events("top", "leaf", "x", "y", atomic=("leaf",))
        rel = CausalRelation(
            {
                "top": CausalEntry(("leaf",), GateOp.OR),
                "x": CausalEntry(("y",), GateOp.OR),
                "y": CausalEntry(("x",), GateOp.OR),
            }
        )
        fta = compute_fta(events[0], events, rel)
        assert [e.id for e in fta.events] == ["top", "leaf"]

    def test_gate_cycle_yields_one_cyclic_structure_defect(self):
        events = tuple(_events("top", "a", "b", "c", atomic=("c",)))
        gates = (
            Gate("top", ("a",), GateOp.OR),
            Gate("a", ("b",), GateOp.OR),
            Gate("b", ("a", "c"), GateOp.AND),
        )
        defects = validate_fta(Fta(top="top", events=events, gates=gates))
        cyclic = [d for d in defects if d.kind == "CyclicStructure"]
        # the first event in event order from which the cycle is reachable
        assert [d.event_ids for d in cyclic] == [("top",)]


class TestHaraDocument:
    def test_roundtrip(self):
        hazards, events, relation, chains = avp_hara()
        doc = hara_fta.hara_to_document(hazards, events, relation, chains)
        again = parse_hara(doc)
        assert again == (hazards, events, relation, chains)

    def test_oper_conditions_cross_check_clean(self):
        assert check_oper_conditions(avp_fta(), avp_odd_spec()) == []

    def test_oper_conditions_cross_check_flags_unknown(self):
        spec = avp_odd_spec()
        events = [
            Event("top", "top", atomic=False),
            Event("leaf", "leaf", atomic=True, oper_conditions=(("Rain", "Rain_Purple"),)),
        ]
        fta = compute_fta(
            events[0], events, CausalRelation({"top": CausalEntry(("leaf",), GateOp.OR)})
        )
        kinds = {d.kind for d in check_oper_conditions(fta, spec)}
        assert kinds == {"UnknownOperCondState"}

    def test_oper_conditions_cross_check_flags_unknown_class(self):
        events = [
            Event("top", "top", atomic=False),
            Event("leaf", "leaf", atomic=True, oper_conditions=(("Hail", "Hail_Heavy"),)),
        ]
        fta = compute_fta(
            events[0], events, CausalRelation({"top": CausalEntry(("leaf",), GateOp.OR)})
        )
        kinds = {d.kind for d in check_oper_conditions(fta, avp_odd_spec())}
        assert kinds == {"UnknownOperCondClass"}

    def test_conditions_on_non_atomic_rejected(self):
        with pytest.raises(DocumentError):
            Event("e", "e", atomic=False, oper_conditions=(("Rain", "Rain_Heavy"),))

    def test_bad_gate_op(self):
        doc = dict(AVP_HARA_DOCUMENT, causal=[{"parent": HAZARD_ID, "op": "XOR", "children": ["Presence_of_object"]}])
        with pytest.raises(DocumentError):
            parse_hara(doc)

    @pytest.mark.parametrize("malformed, message", [pytest.param(*case, id=case[0]) for case in [
        ("unknown_role", "malformed HARA document: 'bystander' is not a valid EventRole"),
        ("chain_without_hazardous", "malformed HARA document: missing key 'hazardous'"),
        ("unknown_edge_kind", "malformed HARA document: 'dependsOnWeather' is not a valid DependsKind"),
        ("childless_causal_entry", f"causal entry for {HAZARD_ID!r} has no children"),
        ("causal_child_is_its_parent", f"causal entry for {HAZARD_ID!r} references itself"),
        ("repeated_causal_child", f"causal entry for {HAZARD_ID!r} repeats a child"),
        ("event_declared_twice", "event 'Presence_of_object' declared twice"),
        ("two_causal_entries", f"two causal entries for {HAZARD_ID!r}"),
    ]])
    def test_malformed_sections_raise_document_error(self, malformed, message):
        doc = malformed_hara_document(malformed)
        with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
            parse_hara(doc)

    def test_undeclared_hazard(self):
        doc = copy.deepcopy(AVP_HARA_DOCUMENT)
        doc["hazards"].append("Ghost")
        with pytest.raises(DanglingReference, match="^hazard 'Ghost' not declared in events$"):
            parse_hara(doc)


class TestHaraTypes:
    """parse_hara reads a field the schema shows as an array only from a JSON
    array, ``atomic`` only from a JSON boolean, ``role`` only from a role name
    or null, and ids and texts only from strings."""

    @pytest.mark.parametrize("edit, detail", [
        (lambda doc: doc.update(hazards=HAZARD_ID), "hazards must be an array"),
        (lambda doc: doc.update(events={"id": HAZARD_ID}), "events must be an array"),
        (lambda doc: doc.update(causal=""), "causal must be an array"),
        (lambda doc: doc.update(chains=""), "chains must be an array"),
        (lambda doc: doc["causal"][0].update(children="AB"), "children must be an array"),
        (lambda doc: doc["chains"][0].update(occurrence="AB"), "occurrence must be an array"),
        (lambda doc: doc["chains"][0].update(consequence=""), "consequence must be an array"),
        (lambda doc: doc["chains"][0].update(edges=""), "edges must be an array"),
        (lambda doc: doc["events"][1].update(oper_conditions=""),
         "oper_conditions must be an array"),
        (lambda doc: doc["events"][1].update(oper_conditions=["Rain"]),
         'event \'Presence_of_object\': an operating condition must be an array, got "Rain"'),
        (lambda doc: doc["events"][1].update(oper_conditions=[["Rain", "Rain_Heavy", "x"]]),
         "event 'Presence_of_object': an operating condition must be an array of 2 items, "
         'got ["Rain", "Rain_Heavy", "x"]'),
        (lambda doc: doc["events"][1].update(atomic="false"),
         'atomic of \'Presence_of_object\' must be true or false, got "false"'),
        (lambda doc: doc["events"][0].update(atomic=0),
         f"atomic of {HAZARD_ID!r} must be true or false, got 0"),
        (lambda doc: doc["events"][1].update(role=False), "False is not a valid EventRole"),
        (lambda doc: doc["events"][1].update(role=""), "'' is not a valid EventRole"),
    ])
    def test_other_json_types_are_malformed(self, edit, detail):
        doc = copy.deepcopy(AVP_HARA_DOCUMENT)
        edit(doc)
        with pytest.raises(DocumentError, match=re.escape(f"malformed HARA document: {detail}")):
            parse_hara(doc)

    @pytest.mark.parametrize("field", ["id", "text"])
    def test_event_id_and_text_are_strings(self, field):
        # an integer id would reach the DAG walker's sort beside string ids
        doc = copy.deepcopy(AVP_HARA_DOCUMENT)
        doc["events"][4][field] = 7
        detail = {"id": "malformed HARA document: an event id must be a string, got 7",
                  "text": "the id and text must be strings"}[field]
        with pytest.raises(DocumentError, match=detail):
            parse_hara(doc)

    def test_chains_and_atomic_are_optional(self):
        doc = copy.deepcopy(AVP_HARA_DOCUMENT)
        del doc["chains"], doc["events"][0]["atomic"]
        hazards, events, relation, chains = parse_hara(doc)
        assert chains == [] and events[HAZARD_ID].atomic is False
        assert (hazards, events, relation) == avp_hara()[:3]


def malformed_hara_document(kind):
    """The AVP HARA document with one defect planted."""
    doc = copy.deepcopy(AVP_HARA_DOCUMENT)
    causal = doc["causal"][0]
    {
        "unknown_role": lambda: doc["events"][0].update(role="bystander"),
        "chain_without_hazardous": lambda: doc["chains"][0].pop("hazardous"),
        "unknown_edge_kind": lambda: doc["chains"][0]["edges"][0].update(kind="dependsOnWeather"),
        "childless_causal_entry": lambda: causal.update(children=[]),
        "causal_child_is_its_parent": lambda: causal["children"].append(causal["parent"]),
        "repeated_causal_child": lambda: causal["children"].append(causal["children"][0]),
        "event_declared_twice": lambda: doc["events"].append(doc["events"][1]),
        "two_causal_entries": lambda: doc["causal"].append(causal),
    }[kind]()
    return doc
