import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from odd_assure import bayes_core
from odd_assure.bayes_core import (
    BadCpt,
    BnNode,
    Cpt,
    EvidenceSet,
    EmptyData,
    IncompleteAssignment,
    InvalidFta,
    MissingPrior,
    MissingStateValue,
    Posterior,
    UnknownNode,
    UnknownState,
    ZeroProbabilityEvidence,
    build_net,
    compile_fta_to_bn,
    fit_cpts,
    gate_cpt,
    joint_probability,
    mean_variance,
    parse_bn,
    posterior,
)
from odd_assure.confidence_templates import TemplateConfig, build_testing_adequacy_bn
from odd_assure.fixtures import (
    AVP_LEAF_PRIORS,
    HAZARD_ID,
    avp_compiled_bn,
    avp_fta,
    avp_monitor_bn,
)
from odd_assure.hara_fta import CausalEntry, CausalRelation, Event, GateOp, compute_fta

from .oracles import (
    all_assignments,
    enumerate_joint,
    enumerate_posterior,
    forward_sample,
    gate_formula_top_probability,
    min_fill_order,
    random_evidence,
    random_net,
    random_tree_fta,
)


def _binary(name, p, parents=(), rows=None):
    if rows is None:
        rows = ((p, 1.0 - p),)
    return BnNode(name, ("t", "f")), Cpt(name, parents, rows)


def single_node_net(p=0.3):
    node, cpt = _binary("n", p)
    return build_net([node], [], [cpt])


def chain_net():
    """A -> B with B deterministic in A."""
    a, cpt_a = _binary("A", 0.5)
    b = BnNode("B", ("t", "f"))
    cpt_b = Cpt("B", ("A",), ((1.0, 0.0), (0.0, 1.0)))
    return build_net([a, b], [("A", "B")], [cpt_a, cpt_b])


class TestConstruction:
    def test_cpt_rows_must_normalize(self):
        with pytest.raises(BadCpt):
            Cpt("n", (), ((0.5, 0.4),))

    def test_cpt_entries_in_range(self):
        with pytest.raises(BadCpt):
            Cpt("n", (), ((1.5, -0.5),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_cpt_entries_finite(self, bad):
        with pytest.raises(BadCpt, match="non-finite"):
            Cpt("Z", (), ((bad, 1.0),))
        with pytest.raises(BadCpt, match="non-finite"):
            Cpt("Z", ("a",), ((0.5, 0.5), (1.0, bad)))

    def test_cpt_rows_equal_length(self):
        with pytest.raises(BadCpt):
            Cpt("n", ("a",), ((0.5, 0.5), (1.0,)))

    def test_cpt_equality_ignores_input_container(self, tmp_path):
        rows = ((0.25, 0.75), (0.5, 0.5))
        built = [
            Cpt("B", ("A",), rows),
            Cpt("B", ("A",), [list(row) for row in rows]),
            Cpt("B", ("A",), np.array(rows)),
        ]
        assert built[0] == built[1] == built[2]
        assert built[0] != Cpt("B", ("A",), ((0.25, 0.75), (0.75, 0.25)))
        a, cpt_a = _binary("A", 0.5)
        b = BnNode("B", ("t", "f"))
        for i, cpt_b in enumerate(built):
            net = build_net([a, b], [("A", "B")], [cpt_a, cpt_b])
            path = tmp_path / f"net{i}.json"
            bayes_core.save_bn(net, path)
            assert bayes_core.load_bn(path) == net

    def test_node_needs_two_states(self):
        with pytest.raises(bayes_core.DocumentError):
            BnNode("n", ("only",))

    def test_edge_cycle_rejected(self):
        a = BnNode("a", ("t", "f"))
        b = BnNode("b", ("t", "f"))
        cpt_a = Cpt("a", ("b",), ((0.5, 0.5), (0.5, 0.5)))
        cpt_b = Cpt("b", ("a",), ((0.5, 0.5), (0.5, 0.5)))
        with pytest.raises(bayes_core.DocumentError):
            build_net([a, b], [("a", "b"), ("b", "a")], [cpt_a, cpt_b])

    def test_cpt_parents_must_match_edges(self):
        a, cpt_a = _binary("a", 0.5)
        b, cpt_b = _binary("b", 0.5)
        with pytest.raises(bayes_core.DocumentError):
            build_net([a, b], [("a", "b")], [cpt_a, cpt_b])

    def test_objective_must_be_terminal(self):
        a, cpt_a = _binary("a", 0.5)
        b = BnNode("b", ("t", "f"))
        cpt_b = Cpt("b", ("a",), ((0.5, 0.5), (0.5, 0.5)))
        with pytest.raises(bayes_core.DocumentError):
            build_net([a, b], [("a", "b")], [cpt_a, cpt_b], objective="a")

    def test_row_count_checked(self):
        a, cpt_a = _binary("a", 0.5)
        b = BnNode("b", ("t", "f"))
        cpt_b = Cpt("b", ("a",), ((0.5, 0.5),))
        with pytest.raises(BadCpt):
            build_net([a, b], [("a", "b")], [cpt_a, cpt_b])


class TestJointProbability:
    def test_single_node(self):
        assert joint_probability(single_node_net(0.3), {"n": "t"}) == 0.3

    def test_two_independent_nodes(self):
        a, cpt_a = _binary("a", 0.3)
        b, cpt_b = _binary("b", 0.5)
        net = build_net([a, b], [], [cpt_a, cpt_b])
        assert joint_probability(net, {"a": "t", "b": "t"}) == pytest.approx(0.15, abs=0)

    def test_incomplete_assignment(self):
        with pytest.raises(IncompleteAssignment):
            joint_probability(chain_net(), {"A": "t"})

    def test_unknown_state(self):
        with pytest.raises(UnknownState):
            joint_probability(single_node_net(), {"n": "maybe"})

    def test_joint_sums_to_one_on_random_nets(self):
        rng = random.Random(3)
        for _ in range(20):
            net = random_net(rng, rng.randint(2, 6))
            total = sum(
                joint_probability(net, assignment) for assignment in all_assignments(net)
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_matches_enumeration_factorization(self):
        rng = random.Random(4)
        net = random_net(rng, 6)
        for assignment in list(all_assignments(net))[:32]:
            assert joint_probability(net, assignment) == pytest.approx(
                enumerate_joint(net, assignment), abs=1e-15
            )


class TestPosterior:
    def test_deterministic_chain_inversion(self):
        post = posterior(chain_net(), "A", EvidenceSet({"B": "t"}))
        assert post.as_dict() == {"t": 1.0, "f": 0.0}

    def test_no_evidence_gives_prior(self):
        post = posterior(single_node_net(0.3), "n")
        assert post.probs == pytest.approx((0.3, 0.7), abs=1e-12)

    def test_query_in_evidence_rejected(self):
        with pytest.raises(bayes_core.BayesError):
            posterior(chain_net(), "A", EvidenceSet({"A": "t"}))

    def test_unknown_query(self):
        with pytest.raises(UnknownNode):
            posterior(chain_net(), "Z")

    def test_zero_probability_evidence(self):
        # impossible joint evidence through a deterministic link
        net2 = chain_net()
        c = BnNode("C", ("t", "f"))
        cpt_c = Cpt("C", ("B",), ((1.0, 0.0), (0.0, 1.0)))
        net3 = build_net(
            list(net2.nodes.values()) + [c],
            list(net2.edges) + [("B", "C")],
            list(net2.cpts.values()) + [cpt_c],
        )
        with pytest.raises(ZeroProbabilityEvidence):
            posterior(net3, "A", EvidenceSet({"B": "t", "C": "f"}))

    def test_matches_enumeration_on_random_nets(self):
        rng = random.Random(7)
        worst = 0.0
        for _ in range(60):
            net = random_net(rng, rng.randint(2, 9))
            query = rng.choice(list(net.nodes))
            evidence = random_evidence(rng, net, query, max_vars=3)
            try:
                expected = enumerate_posterior(net, query, evidence)
            except ZeroDivisionError:
                continue
            got = posterior(net, query, EvidenceSet(evidence)).as_dict()
            worst = max(worst, max(abs(got[s] - expected[s]) for s in expected))
        assert worst <= 1e-9

    def test_insertion_order_invariance(self):
        rng = random.Random(8)
        net = random_net(rng, 7)
        nodes = list(net.nodes.values())
        edges = list(net.edges)
        cpts = list(net.cpts.values())
        rng.shuffle(nodes)
        rng.shuffle(edges)
        rng.shuffle(cpts)
        shuffled = build_net(nodes, edges, cpts)
        for query in net.nodes:
            a = posterior(net, query).probs
            b = posterior(shuffled, query).probs
            assert a == b

    def test_matches_enumeration_on_multistate_nets(self):
        rng = random.Random(101)
        for _ in range(30):
            n = rng.randint(2, 5)
            names = [f"m{i}" for i in range(n)]
            cards = {name: rng.randint(2, 4) for name in names}
            nodes = [
                bayes_core.BnNode(name, tuple(f"s{k}" for k in range(cards[name])))
                for name in names
            ]
            edges = [
                (names[i], names[j])
                for j in range(1, n)
                for i in range(j)
                if rng.random() < 0.4
            ]
            cpts = []
            for j, name in enumerate(names):
                parents = tuple(src for src, dst in edges if dst == name)
                n_rows = 1
                for p in parents:
                    n_rows *= cards[p]
                rows = []
                for _ in range(n_rows):
                    raw = [rng.uniform(0.05, 1.0) for _ in range(cards[name])]
                    total = sum(raw)
                    row = [x / total for x in raw]
                    row[-1] = 1.0 - sum(row[:-1])
                    rows.append(tuple(row))
                cpts.append(Cpt(name, parents, tuple(rows)))
            net = build_net(nodes, edges, cpts)
            query = rng.choice(names)
            evidence = random_evidence(rng, net, query, max_vars=2)
            expected = enumerate_posterior(net, query, evidence)
            got = posterior(net, query, EvidenceSet(evidence)).as_dict()
            for state, prob in expected.items():
                assert got[state] == pytest.approx(prob, abs=1e-9)

    def test_large_chain_is_tractable(self):
        # 40-node chain: enumerating the joint (2^40 assignments) is out of
        # reach, so finishing at all shows elimination keeps factors small
        n = 40
        nodes = [BnNode(f"c{i}", ("t", "f")) for i in range(n)]
        edges = [(f"c{i}", f"c{i+1}") for i in range(n - 1)]
        cpts = [Cpt("c0", (), ((0.6, 0.4),))]
        for i in range(1, n):
            cpts.append(
                Cpt(f"c{i}", (f"c{i-1}",), ((0.9, 0.1), (0.2, 0.8)))
            )
        net = build_net(nodes, edges, cpts)
        post = posterior(net, f"c{n-1}", EvidenceSet({"c0": "t"}))
        assert sum(post.probs) == pytest.approx(1.0, abs=1e-9)
        # two-state Markov chain: iterate the transition row directly
        p_t = 1.0
        for _ in range(n - 1):
            p_t = p_t * 0.9 + (1.0 - p_t) * 0.2
        assert post.as_dict()["t"] == pytest.approx(p_t, abs=1e-9)

    def test_concurrent_queries_share_a_net(self):
        # Eight threads start together on a net with cold caches, so they
        # race to plan and to fill the memo for the same queries.
        def outcome(net, query, evidence):
            try:
                return posterior(net, query, evidence)
            except ZeroProbabilityEvidence:
                return ZeroProbabilityEvidence

        def make_net():
            return random_net(random.Random(103), 9, p_deterministic=0.5)

        rng = random.Random(104)
        names = sorted(make_net().nodes)
        cases = []
        for _ in range(12):
            query = rng.choice(names)
            cases.append((query, EvidenceSet(random_evidence(rng, make_net(), query, 4))))
        serial_net = make_net()
        expected = [outcome(serial_net, q, e) for q, e in cases]
        assert ZeroProbabilityEvidence in expected
        assert sum(isinstance(r, Posterior) for r in expected) >= 6

        shared = make_net()
        start = threading.Barrier(8, timeout=30)

        def worker(offset):
            start.wait()
            turn = range(offset, offset + 2 * len(cases))  # every case twice
            return [(i % len(cases), outcome(shared, *cases[i % len(cases)])) for i in turn]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = [r for rs in pool.map(worker, range(8), timeout=60) for r in rs]
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 8 * 2 * len(cases)
        assert all(got == expected[i] for i, got in results)

    def test_caches_stay_bounded(self, monkeypatch):
        monkeypatch.setattr(bayes_core, "_PLAN_LIMIT", 2)
        monkeypatch.setattr(bayes_core, "_MEMO_LIMIT", 3)
        rng = random.Random(105)
        net = random_net(rng, 6)
        cases = [(q, random_evidence(rng, net, q, 3)) for q in sorted(net.nodes) * 3]
        for _ in range(2):
            for query, evidence in cases:
                got = posterior(net, query, EvidenceSet(evidence)).as_dict()
                expected = enumerate_posterior(net, query, evidence)
                assert all(abs(got[s] - expected[s]) <= 1e-9 for s in expected)
                assert len(net._plans) <= 2
                assert all(len(plan.memo) <= 3 for plan in net._plans.values())

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_nodes=st.integers(2, 8),
        p_deterministic=st.sampled_from([0.0, 0.4]),
    )
    def test_plans_match_enumeration_on_miss_and_hit(self, seed, n_nodes, p_deterministic):
        rng = random.Random(seed)
        net = random_net(rng, n_nodes, p_deterministic)
        for _ in range(4):
            query = rng.choice(sorted(net.nodes))
            evidence = random_evidence(rng, net, query, max_vars=3)
            p_evidence = sum(
                enumerate_joint(net, a)
                for a in all_assignments(net)
                if all(a[k] == v for k, v in evidence.items())
            )
            reordered = dict(reversed(list(evidence.items())))
            # the first call plans or runs, the second (in another dict
            # order) is served from the plan's memo
            if p_evidence <= bayes_core.ZERO_EVIDENCE_TOL:
                for ev in (evidence, reordered):
                    with pytest.raises(ZeroProbabilityEvidence):
                        posterior(net, query, EvidenceSet(ev))
                continue
            expected = enumerate_posterior(net, query, evidence)
            first = posterior(net, query, EvidenceSet(evidence))
            again = posterior(net, query, EvidenceSet(reordered))
            assert again is first
            for state, prob in first.as_dict().items():
                assert abs(prob - expected[state]) <= 1e-9

    def test_names_checked_on_every_call(self):
        net = chain_net()
        posterior(net, "A", EvidenceSet({"B": "t"}))
        with pytest.raises(UnknownState):
            posterior(net, "A", EvidenceSet({"B": "maybe"}))
        with pytest.raises(UnknownNode):
            posterior(net, "A", EvidenceSet({"Z": "t"}))
        with pytest.raises(bayes_core.BayesError):
            posterior(net, "B", EvidenceSet({"B": "t"}))

    def test_deep_chain_plans_without_recursion(self):
        n = 3000  # well past the interpreter's default recursion limit
        ids = [f"e{i:04d}" for i in range(n)]
        events = [Event(eid, eid, atomic=eid == ids[-1]) for eid in ids]
        relation = CausalRelation(
            {ids[i]: CausalEntry((ids[i + 1],), GateOp.OR) for i in range(n - 1)}
        )
        net = compile_fta_to_bn(compute_fta(events[0], events, relation), {ids[-1]: 0.25})
        post = posterior(net, net.objective, EvidenceSet({ids[n // 2]: "occurs"}))
        assert post.as_dict() == {"occurs": 1.0, "not_occurs": 0.0}
        assert posterior(net, net.objective).as_dict()["occurs"] == pytest.approx(0.25, abs=1e-12)

    def test_evidence_on_multistate_nodes(self):
        color = BnNode("color", ("red", "green", "blue"))
        cpt_color = Cpt("color", (), ((0.2, 0.3, 0.5),))
        alarm = BnNode("alarm", ("on", "off"))
        cpt_alarm = Cpt(
            "alarm", ("color",), ((0.9, 0.1), (0.5, 0.5), (0.1, 0.9))
        )
        net = build_net([color, alarm], [("color", "alarm")], [cpt_color, cpt_alarm])
        got = posterior(net, "color", EvidenceSet({"alarm": "on"})).as_dict()
        expected = enumerate_posterior(net, "color", {"alarm": "on"})
        for state in expected:
            assert got[state] == pytest.approx(expected[state], abs=1e-12)


_VARS = [f"v{i}" for i in range(12)]


class TestMinFillOrder:
    @settings(max_examples=300, deadline=None)
    @given(
        scopes=st.lists(
            st.lists(st.sampled_from(_VARS), max_size=5, unique=True).map(tuple), max_size=12
        ),
        keep=st.sets(st.sampled_from(_VARS), max_size=2),
    )
    def test_matches_reference(self, scopes, keep):
        assert bayes_core._min_fill_order(scopes, keep) == min_fill_order(scopes, keep)

    def test_polytree_orders_match_reference(self):
        rng = random.Random(43)
        for _ in range(20):
            fta, _ = random_tree_fta(rng, max_events=40)
            scopes = [(c, g.parent) for g in fta.gates for c in g.children]
            scopes += [g.children + (g.parent,) for g in fta.gates]
            assert bayes_core._min_fill_order(scopes, {fta.top}) == min_fill_order(
                scopes, {fta.top}
            )


class TestGateCpt:
    def test_and_truth_row(self):
        rows = gate_cpt(GateOp.AND, 2)
        assert rows[0] == (1.0, 0.0)          # (occurs, occurs)
        assert rows[1] == (0.0, 1.0)          # (occurs, not)
        assert rows[3] == (0.0, 1.0)          # (not, not)

    def test_or_all_not(self):
        rows = gate_cpt(GateOp.OR, 3)
        assert rows[-1] == (0.0, 1.0)         # (not, not, not)
        assert rows[0] == (1.0, 0.0)

    @pytest.mark.parametrize("op", [GateOp.AND, GateOp.OR])
    @pytest.mark.parametrize("n", list(range(1, 11)))
    def test_truth_table_oracle(self, op, n):
        rows = gate_cpt(op, n)
        assert len(rows) == 2**n
        for r, row in enumerate(rows):
            bits = [(r >> (n - 1 - j)) & 1 == 0 for j in range(n)]  # True = occurs
            expected = all(bits) if op is GateOp.AND else any(bits)
            assert row == ((1.0, 0.0) if expected else (0.0, 1.0))


class TestCompileFta:
    def test_or_gate_two_leaves(self):
        events = [Event("top", "top", atomic=False), Event("a", "a", atomic=True), Event("b", "b", atomic=True)]
        fta = compute_fta(
            events[0], events, CausalRelation({"top": CausalEntry(("a", "b"), GateOp.OR)})
        )
        net = compile_fta_to_bn(fta, {"a": 0.5, "b": 0.5})
        assert net.objective == "top"
        assert posterior(net, "top").as_dict()["occurs"] == pytest.approx(0.75, abs=1e-12)

    def test_and_gate_two_leaves(self):
        events = [Event("top", "top", atomic=False), Event("a", "a", atomic=True), Event("b", "b", atomic=True)]
        fta = compute_fta(
            events[0], events, CausalRelation({"top": CausalEntry(("a", "b"), GateOp.AND)})
        )
        net = compile_fta_to_bn(fta, {"a": 0.5, "b": 0.5})
        assert posterior(net, "top").as_dict()["occurs"] == pytest.approx(0.25, abs=1e-12)

    def test_missing_prior(self):
        with pytest.raises(MissingPrior):
            compile_fta_to_bn(avp_fta(), {"Presence_of_object": 0.5})

    def test_extra_prior(self):
        priors = dict(AVP_LEAF_PRIORS, ghost=0.5)
        with pytest.raises(MissingPrior):
            compile_fta_to_bn(avp_fta(), priors)

    def test_prior_out_of_range(self):
        priors = dict(AVP_LEAF_PRIORS, Presence_of_object=1.5)
        with pytest.raises(MissingPrior):
            compile_fta_to_bn(avp_fta(), priors)

    def test_invalid_fta_defects_propagate(self):
        from odd_assure.hara_fta import Fta

        fta = Fta(top="top", events=(Event("top", "top", atomic=False),), gates=())
        with pytest.raises(InvalidFta) as err:
            compile_fta_to_bn(fta, {})
        assert any(d.kind == "MissingGate" for d in err.value.defects)

    def test_avp_tree_matches_gate_formula(self):
        net = avp_compiled_bn()
        expected = gate_formula_top_probability(avp_fta(), AVP_LEAF_PRIORS)
        got = posterior(net, HAZARD_ID).as_dict()["occurs"]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_random_trees_match_gate_formula(self):
        rng = random.Random(13)
        for _ in range(50):
            fta, priors = random_tree_fta(rng)
            net = compile_fta_to_bn(fta, priors)
            expected = gate_formula_top_probability(fta, priors)
            got = posterior(net, fta.top).as_dict()["occurs"]
            assert abs(got - expected) <= 1e-12

    def test_monotone_in_leaf_priors(self):
        rng = random.Random(17)
        for _ in range(20):
            fta, priors = random_tree_fta(rng)
            base = posterior(compile_fta_to_bn(fta, priors), fta.top).as_dict()["occurs"]
            leaf = rng.choice(sorted(priors))
            bumped = dict(priors)
            bumped[leaf] = min(1.0, priors[leaf] + rng.uniform(0, 1 - priors[leaf]))
            raised = posterior(compile_fta_to_bn(fta, bumped), fta.top).as_dict()["occurs"]
            assert raised >= base - 1e-12


class TestFitCpts:
    def test_relative_frequency(self):
        net = single_node_net(0.5)
        records = [{"n": "t"}] * 7 + [{"n": "f"}] * 3
        fitted = fit_cpts(net, records, smoothing=0.0)
        assert fitted.cpts["n"].rows[0].tolist() == [0.7, 0.3]

    def test_laplace_limit(self):
        fitted = fit_cpts(chain_net(), [], smoothing=1.0)
        for cpt in fitted.cpts.values():
            for row in cpt.rows.tolist():
                assert row == pytest.approx((0.5, 0.5), abs=0)

    def test_empty_data_no_smoothing(self):
        with pytest.raises(EmptyData):
            fit_cpts(single_node_net(), [], smoothing=0.0)

    @pytest.mark.parametrize("smoothing", [-1.0, math.nan, math.inf])
    def test_smoothing_must_be_finite_and_non_negative(self, smoothing):
        with pytest.raises(bayes_core.BayesError, match="smoothing must be"):
            fit_cpts(chain_net(), [{"A": "t", "B": "t"}], smoothing=smoothing)

    def test_structure_unchanged(self):
        net = chain_net()
        fitted = fit_cpts(net, [{"A": "t", "B": "t"}, {"A": "f", "B": "f"}], smoothing=1.0)
        assert fitted.edges == net.edges
        assert set(fitted.nodes) == set(net.nodes)

    def test_smoothing_never_hits_bounds(self):
        records = [{"A": "t", "B": "t"}] * 50
        fitted = fit_cpts(chain_net(), records, smoothing=0.5)
        for cpt in fitted.cpts.values():
            for row in cpt.rows.tolist():
                assert all(0.0 < p < 1.0 for p in row)

    def test_recovers_known_net_from_samples(self):
        rng = random.Random(29)
        net = random_net(rng, 4)
        records = forward_sample(net, 10_000, rng)
        fitted = fit_cpts(net, records, smoothing=1.0)
        for nid, cpt in net.cpts.items():
            for row, fitted_row in zip(cpt.rows.tolist(), fitted.cpts[nid].rows.tolist()):
                for p, q in zip(row, fitted_row):
                    assert abs(p - q) <= 0.05


class TestMeanVariance:
    def test_degenerate(self):
        post = Posterior("n", ("t", "f"), (1.0, 0.0))
        assert mean_variance(post, {"t": 1.0, "f": 0.0}) == (1.0, 0.0)

    def test_bernoulli(self):
        post = Posterior("n", ("t", "f"), (0.5, 0.5))
        mean, var = mean_variance(post, {"t": 1.0, "f": 0.0})
        assert (mean, var) == (0.5, 0.25)

    def test_missing_state_value(self):
        post = Posterior("n", ("t", "f"), (0.5, 0.5))
        with pytest.raises(MissingStateValue):
            mean_variance(post, {"t": 1.0})

    def test_matches_direct_summation(self):
        rng = random.Random(31)
        for _ in range(200):
            k = rng.randint(2, 5)
            raw = [rng.random() for _ in range(k)]
            total = sum(raw)
            probs = tuple(p / total for p in raw)
            states = tuple(f"s{i}" for i in range(k))
            values = {s: rng.random() for s in states}
            post = Posterior("n", states, probs)
            mean, var = mean_variance(post, values)
            direct_mean = sum(p * values[s] for p, s in zip(probs, states))
            direct_var = sum(p * (values[s] - direct_mean) ** 2 for p, s in zip(probs, states))
            assert mean == pytest.approx(direct_mean, abs=1e-12)
            assert var == pytest.approx(direct_var, abs=1e-12)
            assert var >= -1e-15


def _renormalised_on_load():
    return parse_bn({
        "nodes": [{"id": "n", "states": ["t", "f"]}, {"id": "m", "states": ["t", "f"]}],
        "edges": [["n", "m"]],
        "cpts": [
            {"node": "n", "parents": [], "rows": [[0.3000000001, 0.7]]},
            {"node": "m", "parents": ["n"], "rows": [[0.1, 0.2 + 0.7], [0.5, 0.5]]},
        ],
        "objective": "m",
    })


_TWELVE_FEATURES = TemplateConfig(feature_names=tuple(f"F{i}" for i in range(12)))


def _fitted_monitor_net():
    net = avp_monitor_bn()
    return fit_cpts(net, forward_sample(net, 500, random.Random(41)), smoothing=1.0)


# Each network to round-trip, with the CPTs that parse_bn renormalises on the
# first load. The (0.6, 0.3, 0.1) priors of the AVP monitor's Rain node and of
# the templates' BnModelUnc node sum to 0.9999999999999999, not 1.
_ROUNDTRIP_NETS = {
    "avp_compiled": (avp_compiled_bn, set()),
    "avp_monitor": (avp_monitor_bn, {"Rain"}),
    "template_12": (lambda: build_testing_adequacy_bn(_TWELVE_FEATURES), {"BnModelUnc"}),
    "fitted": (_fitted_monitor_net, set()),
    "renormalised_on_load": (_renormalised_on_load, set()),
}


def _assert_reloaded(net, again, renormalised):
    """``again`` equals ``net`` but for the renormalised CPTs, and loading it
    once more changes nothing."""
    assert {nid for nid, cpt in net.cpts.items() if again.cpts[nid] != cpt} == renormalised
    kept = {nid: again.cpts[nid] if nid in renormalised else cpt for nid, cpt in net.cpts.items()}
    assert again == build_net(net.nodes.values(), net.edges, kept.values(), net.objective)
    assert parse_bn(bayes_core.bn_to_document(again)) == again


class TestBnDocument:
    @pytest.mark.parametrize("case", _ROUNDTRIP_NETS)
    def test_roundtrip_bit_exact(self, case):
        make, renormalised = _ROUNDTRIP_NETS[case]
        net = make()
        doc = bayes_core.bn_to_document(net)
        again = parse_bn(doc)
        _assert_reloaded(net, again, renormalised)

    def test_renormalizes_small_drift(self):
        doc = {
            "nodes": [{"id": "n", "states": ["t", "f"]}],
            "edges": [],
            "cpts": [{"node": "n", "parents": [], "rows": [[0.3000000001, 0.7]]}],
            "objective": None,
        }
        net = parse_bn(doc)
        assert sum(net.cpts["n"].rows[0].tolist()) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_non_finite_entries(self, bad):
        text = (
            '{"nodes": [{"id": "n", "states": ["t", "f"]}], "edges": [], '
            f'"cpts": [{{"node": "n", "parents": [], "rows": [[{bad}, 1.0]]}}]}}'
        )
        with pytest.raises(BadCpt, match="non-finite"):
            parse_bn(text)

    def test_rejects_large_drift(self):
        doc = {
            "nodes": [{"id": "n", "states": ["t", "f"]}],
            "edges": [],
            "cpts": [{"node": "n", "parents": [], "rows": [[0.4, 0.7]]}],
            "objective": None,
        }
        with pytest.raises(BadCpt):
            parse_bn(doc)

    @pytest.mark.parametrize("case", _ROUNDTRIP_NETS)
    def test_file_roundtrip(self, case, tmp_path):
        make, renormalised = _ROUNDTRIP_NETS[case]
        net = make()
        path = tmp_path / "net.json"
        bayes_core.save_bn(net, path)
        _assert_reloaded(net, bayes_core.load_bn(path), renormalised)
