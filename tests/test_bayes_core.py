import copy
import dataclasses
import hashlib
import json
import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import chain, product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from odd_assure import bayes_core
from odd_assure.bayes_core import (
    BadCpt,
    BayesError,
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
    mean_variance,
    parse_bn,
    posterior,
)
from odd_assure.confidence_templates import TemplateConfig, build_testing_adequacy_bn
from odd_assure.fixtures import (
    AVP_LEAF_PRIORS,
    HAZARD_ID,
    avp_bundle,
    avp_fta,
    avp_monitor_bn,
)
from odd_assure.hara_fta import CausalEntry, CausalRelation, Event, GateOp, compute_fta

from . import oracles
from .oracles import (
    TREE_EVENTS,
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

    def test_row_total_in_the_message_adds_left_to_right(self):
        # Python's sum, compensated from 3.12 on, gives 1.1
        with pytest.raises(BadCpt, match=r"^cpt row for 'n' sums to 1\.0999999999999999, not 1 "):
            Cpt("n", (), ([0.1] * 11,))

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

    def test_cpt_is_not_equal_to_other_types(self):
        cpt = Cpt("n", (), ((0.5, 0.5),))
        assert cpt.__eq__(object()) is NotImplemented
        assert cpt != object() and not cpt == ((0.5, 0.5),)

    def test_empty_cpt_is_refused_by_build_net(self):
        empty = Cpt("x", (), [])
        assert empty.rows.shape == (0, 0)
        with pytest.raises(BadCpt, match=r"^cpt for 'x' has 0 rows, expected 1$"):
            build_net([BnNode("x", ("t", "f"))], [], [empty])

    def test_cpt_rows_are_a_read_only_copy(self):
        rows = np.array([[0.25, 0.75]])
        cpt = Cpt("n", (), rows)
        rows[0] = (0.5, 0.5)
        assert cpt.rows.tolist() == [[0.25, 0.75]]
        with pytest.raises(ValueError):
            cpt.rows[0, 0] = 0.5

    @pytest.mark.parametrize("nodes, edges, cpts, objective, error, message", [
        ("aa", [], "a", None, bayes_core.DocumentError, "declared twice"),
        ("a", [], "aa", None, bayes_core.DocumentError, "more than one CPT"),
        ("a", [("a", "x")], "a", None, UnknownNode, "unknown node 'x'"),
        ("ab", [], "a", None, bayes_core.DocumentError, "'b' has no CPT"),
        ("a", [], "ax", None, UnknownNode, "cpt for unknown node 'x'"),
        ("a", [], "w", None, BadCpt, "width mismatch"),
        ("a", [], "a", "x", UnknownNode, "objective 'x' is not a node"),
    ])
    def test_build_net_rejects_each_invariant_violation(self, nodes, edges, cpts, objective,
                                                        error, message):
        made = {name: _binary(name, 0.5) for name in "abx"}
        made["w"] = (None, Cpt("a", (), ((0.2, 0.3, 0.5),)))  # three entries, two states
        with pytest.raises(error, match=message):
            build_net([made[n][0] for n in nodes], edges, [made[c][1] for c in cpts], objective)

    def test_cpt_names_each_parent_once(self):
        # with "A" twice, two of C's four rows were unreachable: a query read the diagonal
        a, cpt_a = _binary("A", 0.3)
        c, cpt_c = _binary("C", None, ("A", "A"), ((0.9, 0.1), (0.5, 0.5), (0.5, 0.5), (0.2, 0.8)))
        with pytest.raises(bayes_core.DocumentError) as raised:
            build_net([a, c], [("A", "C")], [cpt_a, cpt_c])
        assert str(raised.value) == "cpt parents ('A', 'A') of 'C' do not match in-edges ['A']"

    def test_node_needs_two_states(self):
        with pytest.raises(bayes_core.DocumentError):
            BnNode("n", ("only",))

    def test_node_names_each_state_once(self):
        with pytest.raises(bayes_core.DocumentError, match="^node 'n' repeats a state name$"):
            BnNode("n", ("t", "f", "t"))

    @pytest.mark.parametrize("node", [{"id": 1, "states": ["t", "f"]},
                                      {"id": "n", "states": ["t", None]}])
    def test_ids_and_state_names_are_strings(self, node):
        doc = {"nodes": [node], "cpts": [{"node": node["id"], "rows": [[0.5, 0.5]]}]}
        with pytest.raises(bayes_core.DocumentError, match="must be strings"):
            parse_bn(doc)

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
        for _ in range(2):  # raises every time, not only while no plan is cached
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
        # race to plan the same queries.
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
        rng = random.Random(105)
        net = random_net(rng, 6)
        cases = [(q, random_evidence(rng, net, q, 3)) for q in sorted(net.nodes) * 3]
        for _ in range(2):
            for query, evidence in cases:
                got = posterior(net, query, EvidenceSet(evidence)).as_dict()
                expected = enumerate_posterior(net, query, evidence)
                assert all(abs(got[s] - expected[s]) <= 1e-9 for s in expected)
                assert len(net._plans) <= 2

    def test_plan_cache_is_not_a_field(self):
        # filled plans change neither equality nor repr, nor the fields
        net, fresh = avp_monitor_bn(), avp_monitor_bn()
        posterior(net, net.objective, EvidenceSet({}))
        assert net._plans and not fresh._plans
        assert net == fresh and repr(net) == repr(fresh)
        assert [f.name for f in dataclasses.fields(net)] == ["nodes", "edges", "cpts", "objective"]

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
            # the first call plans, the second (in another dict order) runs
            # the cached plan and must give the same floats
            if p_evidence <= bayes_core.ZERO_EVIDENCE_TOL:
                for ev in (evidence, reordered):
                    with pytest.raises(ZeroProbabilityEvidence):
                        posterior(net, query, EvidenceSet(ev))
                continue
            expected = enumerate_posterior(net, query, evidence)
            first = posterior(net, query, EvidenceSet(evidence))
            again = posterior(net, query, EvidenceSet(reordered))
            assert again == first
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


def _widened(net: bayes_core.BayesNet, rng: random.Random) -> bayes_core.BayesNet:
    """``net`` plus a three-state node with no edges and a four-state root
    with one two-state child, so that misordered axes change the shape."""

    def row(k):
        raw = [rng.uniform(0.05, 1.0) for _ in range(k)]
        return [w / math.fsum(raw) for w in raw]

    nodes = [*net.nodes.values(), BnNode("iso", ("a", "b", "c")),
             BnNode("root", ("w", "x", "y", "z")), BnNode("kid", ("t", "f"))]
    cpts = [*net.cpts.values(), Cpt("iso", (), [row(3)]), Cpt("root", (), [row(4)]),
            Cpt("kid", ("root",), [row(2) for _ in range(4)])]
    return build_net(nodes, [*net.edges, ("root", "kid")], cpts)


class TestJointTable:
    """``_joint_table`` is one run of the evidence-free plan, whose final
    einsum puts the axes in keep order."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(1, 5))
    def test_matches_enumerated_marginal(self, seed, n_nodes):
        rng = random.Random(seed)
        net = _widened(random_net(rng, n_nodes, p_deterministic=0.3), rng)
        names = sorted(net.nodes)
        keeps = [("root",), ("iso",), ("kid", "root"), ("root", "iso", "kid")]
        keeps += [tuple(rng.sample(names, rng.randint(1, len(names)))) for _ in range(3)]
        for keep in keeps:
            keep = tuple(rng.sample(keep, len(keep)))  # shuffled
            table = bayes_core._joint_table(net, keep)
            assert table.shape == tuple(len(net.nodes[v].states) for v in keep)
            expected = np.zeros(table.shape)
            for assignment in all_assignments(net):
                index = tuple(net.nodes[v].states.index(assignment[v]) for v in keep)
                expected[index] += enumerate_joint(net, assignment)
            assert np.abs(table - expected).max() <= 1e-12
            assert not table.flags.writeable

    def test_every_variable_of_a_cpt_observed(self):
        # Slicing the evidence out of such a CPT leaves a 0-d factor
        rng = random.Random(17)
        checked = 0
        for _ in range(40):
            net = _widened(random_net(rng, rng.randint(2, 6)), rng)
            nid = rng.choice([n for n in sorted(net.nodes) if net.cpts[n].parent_order])
            evidence = {v: rng.choice(net.nodes[v].states)
                        for v in (*net.cpts[nid].parent_order, nid)}
            for query in sorted(set(net.nodes) - set(evidence)):
                plan = bayes_core._plan(net, (query,), frozenset(evidence))
                assert plan.takes[list(net.nodes).index(nid)].count(-1) == 0
                got = posterior(net, query, EvidenceSet(evidence)).as_dict()
                expected = enumerate_posterior(net, query, evidence)
                assert all(abs(got[s] - expected[s]) <= 1e-12 for s in expected)
                checked += 1
        assert checked >= 100


class TestManyFactorsPerProduct:
    """Products of more factors than one ``np.einsum`` call takes."""

    N = 70

    def test_fully_observed_roots(self):
        # Each observed root is sliced to a 0-d factor that stays live until
        # the final product
        rng = random.Random(3)
        priors = [1.0] + [rng.uniform(0.99, 1.0) for _ in range(self.N - 1)]
        nodes, cpts = zip(_binary("q", 0.3), *(_binary(f"r{i}", p) for i, p in enumerate(priors)))
        net = build_net(nodes, [], cpts)
        evidence = {f"r{i}": "t" for i in range(self.N)}
        got = posterior(net, "q", EvidenceSet(evidence)).as_dict()
        assert len(bayes_core._plan(net, ("q",), frozenset(evidence)).steps) > 1
        assert abs(got["t"] - 0.3) <= 1e-12
        with pytest.raises(ZeroProbabilityEvidence):
            posterior(net, "q", EvidenceSet({**evidence, "r0": "f"}))

    @pytest.mark.parametrize("observed", [N, N - 1])
    def test_root_with_many_children(self, observed):
        # Querying the root multiplies its prior and every sliced child in the
        # final product; querying a child sums the root out of all of them
        rng = random.Random(observed)
        # Likely observations keep P(evidence) clear of ZERO_EVIDENCE_TOL
        rows = [(rng.uniform(0.9, 1.0), rng.uniform(0.9, 1.0)) for _ in range(self.N)]
        nodes, cpts = zip(_binary("root", 0.4), *(
            _binary(f"c{i}", None, ("root",), ((a, 1 - a), (b, 1 - b)))
            for i, (a, b) in enumerate(rows)))
        net = build_net(nodes, [("root", f"c{i}") for i in range(self.N)], cpts)
        evidence = {f"c{i}": "t" for i in range(observed)}
        # P(root, evidence) for each root state
        weight = [0.4 * math.prod(row[0] for row in rows[:observed]),
                  0.6 * math.prod(row[1] for row in rows[:observed])]
        if observed == self.N:
            got = posterior(net, "root", EvidenceSet(evidence)).probs
            expected = [w / sum(weight) for w in weight]
        else:
            got = posterior(net, f"c{observed}", EvidenceSet(evidence)).probs
            a, b = rows[observed]
            occurs = (weight[0] * a + weight[1] * b) / sum(weight)
            expected = [occurs, 1 - occurs]
        assert max(abs(g - e) for g, e in zip(got, expected)) <= 1e-12


class TestMinFillOrder:
    @settings(max_examples=300, deadline=None)
    @given(
        scopes=st.lists(
            st.lists(st.sampled_from(_VARS), max_size=5, unique=True).map(tuple), max_size=12
        ),
        keep=st.sets(st.sampled_from(_VARS), max_size=2),
    )
    # a scope that repeats a variable is no wider than its distinct
    # variables: v2's neighbours v0 and v3 miss an edge
    @example(scopes=[("v0", "v0", "v2"), ("v2", "v3")], keep=set())
    @example(scopes=[("v2", "v3"), ("v0", "v0", "v2"), ("v3", "v4")], keep={"v0"})
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

    def test_200_event_polytree_matches_reference(self):
        fta, _ = _breadth_first_fta(random.Random(47), 200)
        assert len(fta.events) >= 200
        scopes = [g.children + (g.parent,) for g in fta.gates]
        scopes += [(e.id,) for e in fta.events if e.atomic]
        order = bayes_core._min_fill_order(scopes, {fta.top})
        assert order == min_fill_order(scopes, {fta.top})
        # every pop of a polytree's elimination is a fill-0 pop
        assert set(_fills_at_elimination(scopes, order)) == {0}

    def test_loopy_networks_mixing_fill_0_and_fill_above_0_pops(self):
        rng = random.Random(53)
        mixed = 0
        for _ in range(60):
            net = random_net(rng, rng.randint(5, 11))
            keep = set(rng.sample(sorted(net.nodes), rng.randint(0, 2)))
            scopes = [net.cpts[n].parent_order + (n,) for n in net.nodes]
            order = bayes_core._min_fill_order(scopes, keep)
            assert order == min_fill_order(scopes, keep)
            fills = _fills_at_elimination(scopes, order)
            mixed += 0 in fills and max(fills) > 0
        assert mixed >= 10

    @pytest.mark.parametrize("keep", [{"k"}, {"k", "z"}, {"z"}, set()])
    def test_fill_0_pop_next_to_a_kept_variable(self, keep):
        # "a" goes first, simplicial in the clique a - k - b: b's fill falls,
        # a kept k has none; the cycle k - b - c - d - k left then takes a
        # fill > 0 pop
        scopes = [("a", "k", "b"), ("b", "c"), ("c", "d"), ("d", "k"), ("d", "z")]
        order = bayes_core._min_fill_order(scopes, keep)
        assert order == min_fill_order(scopes, keep)
        assert order[0] == "a"
        fills = _fills_at_elimination(scopes, order)
        assert 0 in fills and max(fills) > 0


def _fills_at_elimination(scopes, order) -> list[int]:
    """The fill of each variable of ``order`` when it is eliminated, counted
    afresh on the graph of ``scopes`` as the eliminations before it left it."""
    neighbors: dict = {}
    for scope in scopes:
        for v in scope:
            neighbors.setdefault(v, set()).update(u for u in scope if u != v)
    fills = []
    for v in order:
        adj = sorted(neighbors.pop(v))
        fills.append(sum(b not in neighbors[a] for i, a in enumerate(adj) for b in adj[i + 1:]))
        for a in adj:
            neighbors[a].update(u for u in adj if u != a)
            neighbors[a].discard(v)
    return fills


class TestRandomTreeFta:
    def test_refuses_a_size_it_cannot_reach_before_drawing(self):
        rng = random.Random(3)
        state = rng.getstate()
        with pytest.raises(ValueError, match=f"at most {TREE_EVENTS} events, not {TREE_EVENTS + 1}"):
            random_tree_fta(rng, TREE_EVENTS + 1)
        assert rng.getstate() == state

    def test_trees_stay_within_the_bound(self):
        for seed in range(20):
            fta, _ = random_tree_fta(random.Random(seed), TREE_EVENTS)
            assert len(fta.events) <= TREE_EVENTS


def _breadth_first_fta(rng: random.Random, n_events: int):
    """A tree fault tree grown breadth first, 2-4 causes per expanded event,
    until at least ``n_events`` events exist, and its leaf priors.
    ``random_tree_fta`` stops at depth 4, so at 121 events."""
    children: dict[str, list[str]] = {}
    frontier, count = ["e0"], 1
    while count < n_events:
        parent = frontier.pop(0)
        kids = [f"e{count + j}" for j in range(rng.randint(2, 4))]
        count += len(kids)
        children[parent] = kids
        frontier += kids
    ids = ["e0", *chain.from_iterable(children.values())]
    events = [Event(e, e, atomic=e not in children) for e in ids]
    relation = CausalRelation({p: CausalEntry(tuple(kids), rng.choice((GateOp.AND, GateOp.OR)))
                               for p, kids in children.items()})
    fta = compute_fta(events[0], events, relation)
    return fta, {e.id: rng.random() for e in fta.events if e.atomic}


def _plan_digest(queries) -> str:
    """sha256 over repr((ev_vars, takes, steps, cells)) of each freshly
    compiled plan of ``queries``, (net, keep, evidence variables) each."""
    digest = hashlib.sha256()
    for net, keep, ev_vars in queries:
        plan = bayes_core._compile(net, tuple(keep), tuple(sorted(ev_vars)))
        digest.update(repr((plan.ev_vars, plan.takes, plan.steps, plan.cells)).encode())
    return digest.hexdigest()


def _tree_queries(trees):
    """The top event with no evidence and with evidence on every third leaf."""
    for fta, priors in trees:
        net = compile_fta_to_bn(fta, priors)
        yield net, (fta.top,), ()
        yield net, (fta.top,), sorted(set(priors) - {fta.top})[::3]


def _template_queries(width):
    rng = random.Random(width)
    features = [f"T{i:02d}" for i in range(width)]
    net = build_testing_adequacy_bn(TemplateConfig(tuple(features)))
    yield net, (net.objective,), ()
    yield net, (net.objective,), features
    for _ in range(4):
        yield net, (net.objective,), rng.sample(features, rng.randint(1, width))


def _avp_queries():
    for net in (compile_fta_to_bn(avp_fta(), AVP_LEAF_PRIORS), avp_monitor_bn()):
        for query in net.nodes:
            yield net, (query,), ()
    bundle = avp_bundle()
    rng = random.Random(5)
    for query in bundle.net.nodes:
        others = sorted(set(bundle.net.nodes) - {query})
        yield bundle.net, (query,), rng.sample(others, rng.randint(1, 4))
    # the joint table a monitor tick reads
    yield bundle.net, (*sorted(set(bundle.bindings.values())), bundle.acp.objective), ()


def _random_net_queries():
    rng = random.Random(59)
    for _ in range(150):
        net = random_net(rng, rng.randint(2, 10))
        keep = rng.sample(sorted(net.nodes), rng.randint(1, min(2, len(net.nodes))))
        others = sorted(set(net.nodes) - set(keep))
        yield net, keep, rng.sample(others, rng.randint(0, min(3, len(others))))


def _many_factor_queries():
    """Products of more factors than one np.einsum call takes."""
    n = TestManyFactorsPerProduct.N
    nodes, cpts = zip(_binary("root", 0.4), *(
        _binary(f"c{i}", None, ("root",), ((0.9, 0.1), (0.2, 0.8))) for i in range(n)))
    net = build_net(nodes, [("root", f"c{i}") for i in range(n)], cpts)
    children = [f"c{i}" for i in range(n)]
    yield net, ("root",), children
    yield net, ("c0",), children[1:]
    yield net, ("root", "c0"), children[1::2]
    yield net, ("root",), ()


class TestPlansPinned:
    """Plans are bit-identical to those of the recounting min-fill planner:
    each digest was taken from it."""

    @pytest.mark.parametrize("name, queries, expected", [
        ("trees_40", lambda: _tree_queries(random_tree_fta(random.Random(s), 40)
                                           for s in range(12)),
         "f87e9ea3ddda5b519f13fb14c60806624ae220bb62d28ad830b79a4eac6c9621"),
        ("tree_200", lambda: _tree_queries(_breadth_first_fta(random.Random(s), 200)
                                           for s in range(3)),
         "59bc88a2c289cecf002a1aed59f9baf6b98c420a612781afa9ebd1de1e7dfdf2"),
        ("tree_400", lambda: _tree_queries(_breadth_first_fta(random.Random(s), 400)
                                           for s in range(3)),
         "36f84a6987d3359b21b59f3e8c8d930b8ae16a825baa023216cae7bfad00ec9a"),
        ("avp", _avp_queries, "9dc470194c326a0d54e4051589d80be3ac35cd3f0a87b4e9b04ea6f63e8d00e5"),
        ("template_4", lambda: _template_queries(4),
         "e0b596abbaf246e006245838e1f439e97965c69c079109f90f597c0144049c03"),
        ("template_12", lambda: _template_queries(12),
         "e3a7295d27c8ce3bde8d002d7b60ed283c05b11c745160034673d1f65c24bea8"),
        ("template_16", lambda: _template_queries(16),
         "6ac7ee5465e11010c7f858c2eddbf1fcfaeda41759ee8e017bb1170dc5c1236c"),
        ("many_factors", _many_factor_queries,
         "57dccf47fcf39778778d1e4f7cabb52bd6c06567bbed802baabb9da80375f512"),
        ("random_nets", _random_net_queries,
         "7a62290153f920a806e0f526f4660f5cfb7aa5031f4603a33075b9941cf0833f"),
    ])
    def test_plan_digest(self, name, queries, expected):
        assert _plan_digest(queries()) == expected, name


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
    def test_gate_needs_a_parent(self, op):
        with pytest.raises(bayes_core.BayesError, match="^a gate needs at least one parent$"):
            gate_cpt(op, 0)

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
        net = compile_fta_to_bn(avp_fta(), AVP_LEAF_PRIORS)
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

    def test_record_missing_a_node(self):
        with pytest.raises(IncompleteAssignment, match=r"record misses \['B'\]"):
            fit_cpts(chain_net(), [{"A": "t", "B": "t"}, {"A": "t"}])

    def test_record_with_an_unknown_state(self):
        with pytest.raises(UnknownState, match="node 'B' has no state 'maybe'"):
            fit_cpts(chain_net(), [{"A": "t", "B": "maybe"}])

    @pytest.mark.parametrize("smoothing", [-1.0, math.nan, math.inf])
    def test_smoothing_must_be_finite_and_non_negative(self, smoothing):
        with pytest.raises(bayes_core.BayesError, match="smoothing must be"):
            fit_cpts(chain_net(), [{"A": "t", "B": "t"}], smoothing=smoothing)

    def test_unseen_parent_combination_is_uniform(self):
        fitted = fit_cpts(chain_net(), [{"A": "t", "B": "t"}] * 3)
        assert fitted.cpts["B"].rows.tolist() == [[1.0, 0.0], [0.5, 0.5]]

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


def _hexes(floats) -> list[str]:
    return [float.hex(x) for x in floats]


class TestNormalized:
    """_normalized divides in Python floats; every posterior must equal what
    numpy's ``u / u.sum()`` gives, bit for bit, for any number of states."""

    @staticmethod
    def node(k):  # what _normalized reads of a node; a BnNode has 2 states or more
        return SimpleNamespace(id="n", states=tuple(f"s{i}" for i in range(k)))

    @settings(max_examples=400, deadline=None)
    @given(weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    def test_matches_numpy_bit_for_bit(self, weights):
        u = np.array(weights)
        z = float(u.sum())
        assume(z > bayes_core.ZERO_EVIDENCE_TOL)
        post = bayes_core._normalized(self.node(len(weights)), u, {})
        assert _hexes(post.probs) == _hexes((u / z).tolist())

    @pytest.mark.parametrize("k", [1, 2, 7, 8, 20])
    @pytest.mark.parametrize("scale", [0.0, 1e-13])
    def test_zero_sum_raises(self, k, scale):
        u = np.full(k, scale / k)
        with pytest.raises(ZeroProbabilityEvidence,
                           match=rf"^evidence \{{'A': 'a'\}} has probability {float(u.sum())!r}$"):
            bayes_core._normalized(self.node(k), u, {"A": "a"})

    def test_builds_the_posterior_a_checked_construction_builds(self):
        # _normalized skips Posterior's normalization check, having just normalized
        post = bayes_core._normalized(self.node(3), np.array([1.0, 2.0, 1.0]), {})
        assert post == Posterior("n", ("s0", "s1", "s2"), (0.25, 0.5, 0.25))
        assert repr(post) == (
            "Posterior(node='n', states=('s0', 's1', 's2'), probs=(0.25, 0.5, 0.25))")
        with pytest.raises(dataclasses.FrozenInstanceError):
            post.probs = (1.0, 0.0, 0.0)

    # (1.0, 1e100, -1e100) adds to 0.0 left to right, to 1.0 under 3.12's compensated sum
    @pytest.mark.parametrize("probs", [(0.5, 0.6), (0.5, 0.4), (1.0 + 2e-9, 0.0),
                                       (1.0, 1e100, -1e100)])
    def test_a_directly_built_posterior_must_normalize(self, probs):
        with pytest.raises(BayesError, match=r"^posterior over 'n' does not normalize$"):
            Posterior("n", ("a", "b", "c")[:len(probs)], probs)


class TestGridRows:
    """_grid_rows lays out a two-state node's rows for every template and the
    AVP network; each must equal a per-row formula over the parent states,
    bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), mean_form=st.booleans(),
           base=st.floats(0.0, 0.1))
    def test_matches_the_per_row_formula_bit_for_bit(self, data, n, mean_form, base):
        weights = [data.draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=3))
                   for _ in range(n)]
        if mean_form:  # the templates' P(good) from mean parent goodness
            def p_first(total):
                return 0.05 + 0.9 * (total / n)
        else:  # the AVP network's P(occurs) from a base rate and weighted risks
            def p_first(total):
                return base + total
        expected = []
        # first parent most significant, as in the Cpt row layout
        for combo in product(*weights):
            total = 0
            for w in combo:  # plain adds in parent order, not 3.12's compensated sum
                total += w
            p = p_first(total)
            expected.append((p, 1.0 - p))
        rows = bayes_core._grid_rows(weights, p_first)
        assert rows.shape == (len(expected), 2)
        assert [_hexes(row) for row in rows.tolist()] == [_hexes(row) for row in expected]


class TestMeanVariance:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), k=st.integers(1, 20))
    def test_matches_the_generator_formula_bit_for_bit(self, data, k):
        raw = data.draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
        probs = tuple(w / sum(raw) for w in raw)
        states = tuple(f"s{i}" for i in range(k))
        values = dict(zip(states, data.draw(
            st.lists(st.floats(-1e6, 1e6), min_size=k, max_size=k))))
        post = Posterior("n", states, probs)
        # plain left-to-right adds from 0.0, not the built-in sum, which is
        # compensated from Python 3.12 on
        mean = second = 0.0
        for p, s in zip(probs, states):
            mean += p * values[s]
            second += p * values[s] ** 2
        assert _hexes(mean_variance(post, values)) == _hexes((mean, max(0.0, second - mean * mean)))

    def test_degenerate(self):
        post = Posterior("n", ("t", "f"), (1.0, 0.0))
        assert mean_variance(post, {"t": 1.0, "f": 0.0}) == (1.0, 0.0)

    def test_bernoulli(self):
        post = Posterior("n", ("t", "f"), (0.5, 0.5))
        mean, var = mean_variance(post, {"t": 1.0, "f": 0.0})
        assert (mean, var) == (0.5, 0.25)

    def test_missing_state_value(self):
        post = Posterior("n", ("t", "u", "f"), (0.5, 0.25, 0.25))
        with pytest.raises(MissingStateValue, match=r"^no value for states \['u', 'f'\]$"):
            mean_variance(post, {"t": 1.0})

    @pytest.mark.parametrize("value, text", [(1e200, "1e+200"), (10**400, "1" + "0" * 400)])
    def test_overflow_names_the_values(self, value, text):
        post = Posterior("n", ("t", "f"), (0.5, 0.5))
        with pytest.raises(BayesError) as raised:
            mean_variance(post, {"f": 0.0, "t": value})
        assert str(raised.value) == (
            f"state values {{'t': {text}, 'f': 0.0}} give a non-finite mean or variance")

    @pytest.mark.parametrize("value", [1e200, 1.7976931348623157e308, 10**400, math.inf,
                                       -math.inf, math.nan],
                             ids=["1e200", "max_float", "int_1e400", "inf", "-inf", "nan"])
    @pytest.mark.parametrize("probs", [(0.5, 0.5), (0.0, 1.0)])
    def test_non_finite_moments_raise(self, value, probs):
        post = Posterior("n", ("t", "f"), probs)
        with pytest.raises(BayesError, match=r"state values \{'t': .*, 'f': 0\.0\} give a non-finite"):
            mean_variance(post, {"t": value, "f": 0.0})

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
# the templates' BnModelUnc node sum to 0.9999999999999999 under a plain
# left-to-right sum, but to 1.0 exactly, so they load unchanged.
_ROUNDTRIP_NETS = {
    "avp_compiled": (lambda: compile_fta_to_bn(avp_fta(), AVP_LEAF_PRIORS), set()),
    "avp_monitor": (avp_monitor_bn, set()),
    "template_12": (lambda: build_testing_adequacy_bn(_TWELVE_FEATURES), set()),
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


def _assert_one_item_per_line(text, net):
    """``text`` is ``bn_to_document(net)`` with every node, edge and CPT row
    alone on its line, and each CPT opening its rows on a line of its own.

    A line, less its indent and trailing comma, that is one JSON value is an
    item; a line ending in ``"rows": [`` opens a CPT.
    """
    doc = bayes_core.bn_to_document(net)
    assert json.loads(text) == doc
    items, tables = [], []
    for line in text.splitlines():
        line = line.strip().removesuffix(",")
        if line.endswith('"rows": ['):
            tables.append(json.loads(line + "]}"))
            continue
        try:
            items.append(json.loads(line))
        except ValueError:
            pass
    assert items == doc["nodes"] + doc["edges"] + [row for c in doc["cpts"] for row in c["rows"]]
    assert tables == [{**c, "rows": []} for c in doc["cpts"]]


# Names holding what JSON escapes and the separators a writer might cut at
_AWKWARD = st.lists(
    st.sampled_from(['"', "\\", "], [", "]], [[", '}, {"id": ', '"], ["', "\n", "\u00e9",
                     "\u2603", "\U0001f600", "a", " "]),
    min_size=1, max_size=3,
).map("".join)


@st.composite
def awkward_nets(draw):
    ids = draw(st.lists(_AWKWARD, min_size=1, max_size=5, unique=True))
    states = {nid: draw(st.lists(_AWKWARD, min_size=2, max_size=3, unique=True)) for nid in ids}
    edges = [[a, b] for i, a in enumerate(ids) for b in ids[i + 1:] if draw(st.booleans())]
    cpts = []
    for nid in ids:
        parents = draw(st.permutations([a for a, b in edges if b == nid]))
        rows = []
        for _ in range(math.prod(len(states[p]) for p in parents)):
            weights = draw(st.lists(st.floats(0.0, 1.0), min_size=len(states[nid]),
                                    max_size=len(states[nid])))
            weights[0] += 1.0
            rows.append([w / math.fsum(weights) for w in weights])
        cpts.append({"node": nid, "parents": parents, "rows": rows})
    sinks = [nid for nid in ids if all(a != nid for a, _ in edges)]
    return parse_bn({
        "nodes": [{"id": nid, "states": states[nid]} for nid in ids],
        "edges": edges,
        "cpts": cpts,
        "objective": draw(st.sampled_from([None, *sinks])),
    })


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

    @settings(max_examples=500, deadline=None)
    @given(
        weights=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=2,
                         max_size=6).filter(lambda w: math.fsum(w) > 0.0),
        drift=st.floats(-9e-10, 9e-10),
    )
    # the last entry is 0 and the others sum to just over 1 once rescaled
    @example(weights=[0.911, 0.213, 0.0], drift=4.66e-10)
    def test_renormalisation_is_idempotent(self, weights, drift):
        total = math.fsum(weights)
        row = [w / total * (1.0 + drift) for w in weights]
        net = parse_bn({
            "nodes": [{"id": "n", "states": [f"s{i}" for i in range(len(row))]}],
            "cpts": [{"node": "n", "parents": [], "rows": [row]}],
        })
        assert net.cpts["n"].rows.tolist() == oracles.renormalized_rows([row])
        assert math.fsum(net.cpts["n"].rows[0].tolist()) == 1.0
        assert parse_bn(bayes_core.bn_to_document(net)) == net

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_non_finite_entries(self, bad):
        text = (
            '{"nodes": [{"id": "n", "states": ["t", "f"]}], "edges": [], '
            f'"cpts": [{{"node": "n", "parents": [], "rows": [[{bad}, 1.0]]}}]}}'
        )
        with pytest.raises(BadCpt, match="non-finite"):
            parse_bn(text)

    @pytest.mark.parametrize("rows", [[[True, False]], [["0.5", "0.5"]], [[None, 1.0]]])
    def test_rejects_entries_that_are_not_json_numbers(self, rows):
        doc = {
            "nodes": [{"id": "n", "states": ["t", "f"]}],
            "cpts": [{"node": "n", "parents": [], "rows": rows}],
        }
        with pytest.raises(bayes_core.DocumentError, match="malformed BN document: a cpt entry"):
            parse_bn(doc)

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

    def test_parse_leaves_the_document_unchanged(self):
        doc = {
            "nodes": [{"id": "n", "states": ["t", "f"]}, {"id": "m", "states": ["t", "f"]}],
            "edges": [["n", "m"]],
            "cpts": [
                {"node": "n", "parents": [], "rows": [[0.3000000001, 0.7]]},
                {"node": "m", "parents": ["n"], "rows": [[0.1, 0.9], [0.5, 0.5000000002]]},
            ],
        }
        before = copy.deepcopy(doc)
        net = parse_bn(doc)
        assert doc == before
        assert net.cpts["n"].rows.tolist() == oracles.renormalized_rows(before["cpts"][0]["rows"])
        assert net.cpts["m"].rows.tolist() == oracles.renormalized_rows(before["cpts"][1]["rows"])
        assert net.cpts["m"].rows[0].tolist() == [0.1, 0.9]

    @pytest.mark.parametrize("rows, message", [
        ([[1e308, 1e308]], r"entries outside \[0, 1\]"),
        ([[0.5, 0.5], [1e308, 1e308]], r"entries outside \[0, 1\]"),
        ([[math.inf, -math.inf]], "non-finite entries"),
    ])
    def test_rows_whose_sum_fails_are_rejected_as_cpts(self, rows, message):
        # math.fsum raises on these rows; the table is rejected as the Cpt rejects it
        doc = {
            "nodes": [{"id": "n", "states": ["t", "f"]}, {"id": "m", "states": ["t", "f"]}],
            "edges": [["m", "n"]] if len(rows) == 2 else [],
            "cpts": [{"node": "n", "parents": ["m"] if len(rows) == 2 else [], "rows": rows},
                     {"node": "m", "parents": [], "rows": [[0.5, 0.5]]}],
        }
        with pytest.raises(BadCpt, match=message):
            parse_bn(doc)

    @pytest.mark.parametrize("case", _ROUNDTRIP_NETS)
    def test_file_holds_one_node_edge_or_row_per_line(self, case, tmp_path):
        net = _ROUNDTRIP_NETS[case][0]()
        path = tmp_path / "net.json"
        bayes_core.save_bn(net, path)
        _assert_one_item_per_line(path.read_text(encoding="utf-8"), net)

    @pytest.mark.parametrize("case", _ROUNDTRIP_NETS)
    def test_loads_files_indented_by_json(self, case, tmp_path):
        # the layout json.dumps(..., indent=2) wrote, one number per line
        net = _ROUNDTRIP_NETS[case][0]()
        path = tmp_path / "net.json"
        path.write_text(json.dumps(bayes_core.bn_to_document(net), indent=2) + "\n", encoding="utf-8")
        assert bayes_core.load_bn(path) == net

    @settings(max_examples=150, deadline=None)
    @given(net=awkward_nets())
    def test_file_roundtrip_with_awkward_names(self, net, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "awkward_net.json"
        bayes_core.save_bn(net, path)
        _assert_one_item_per_line(path.read_text(encoding="utf-8"), net)
        assert bayes_core.load_bn(path) == net


def _mixed_width_net(rng: random.Random) -> bayes_core.BayesNet:
    """``oracles.random_net`` with three- and four-state nodes added, each a
    child of up to two earlier nodes, so that its tables come in several
    widths. Every table is built on its own by ``Cpt(...)``."""
    doc = bayes_core.bn_to_document(random_net(rng, rng.randint(2, 7)))
    cards = {n["id"]: 2 for n in doc["nodes"]}
    for k in range(rng.randint(2, 5)):
        name, width = f"w{k}", rng.choice((3, 4))
        parents = rng.sample(sorted(cards), rng.randint(0, 2))
        rows = []
        for _ in range(math.prod(cards[p] for p in parents)):
            raw = [rng.uniform(0.05, 1.0) for _ in range(width)]
            rows.append([x / math.fsum(raw) for x in raw])
        doc["nodes"].append({"id": name, "states": [f"s{i}" for i in range(width)]})
        doc["edges"] += [[p, name] for p in parents]
        doc["cpts"].append({"node": name, "parents": parents, "rows": rows})
        cards[name] = width
    return build_net(
        [BnNode(n["id"], tuple(n["states"])) for n in doc["nodes"]],
        [tuple(e) for e in doc["edges"]],
        [Cpt(c["node"], tuple(c["parents"]), oracles.renormalized_rows(c["rows"]))
         for c in doc["cpts"]],
    )


def _assert_kept_rows(net):
    for cpt in net.cpts.values():
        assert cpt.rows.dtype == np.float64
        assert cpt.rows.flags.c_contiguous and not cpt.rows.flags.writeable


class TestTablesCheckedTogether:
    """parse_bn and compile_fta_to_bn check all tables of a network in one
    pass per row width; the result must be the tables ``Cpt(...)`` builds one
    at a time, and the error the one a table-by-table check raises."""

    def test_parsed_tables_equal_tables_built_one_at_a_time(self):
        rng = random.Random(211)
        for _ in range(40):
            net = _mixed_width_net(rng)
            assert len({c.rows.shape[1] for c in net.cpts.values()}) > 1
            parsed = parse_bn(bayes_core.bn_to_document(net))
            assert parsed.cpts == net.cpts
            _assert_kept_rows(parsed)
            for query in net.nodes:
                evidence = EvidenceSet(random_evidence(rng, net, query, 2))
                assert posterior(parsed, query, evidence) == posterior(net, query, evidence)

    def test_compiled_tables_equal_tables_built_one_at_a_time(self):
        rng = random.Random(223)
        for _ in range(40):
            fta, priors = random_tree_fta(rng, max_events=14)
            net = compile_fta_to_bn(fta, priors)
            expected = {g.parent: Cpt(g.parent, g.children, gate_cpt(g.op, len(g.children)))
                        for g in fta.gates}
            expected.update({eid: Cpt(eid, (), ((p, 1.0 - p),)) for eid, p in priors.items()})
            assert net.cpts == expected
            _assert_kept_rows(net)

    @pytest.mark.parametrize("bad, error, message", [
        # bad tables of both widths, the three-state one first
        ({1: [[0.5, 0.25, 0.5]], 4: [[0.5, 0.75]]}, BadCpt, "cpt row for 'w1' sums to 1.25"),
        ({2: [[0.5, 0.75]], 3: [[0.5, 0.25, 0.5]]}, BadCpt, "cpt row for 'b2' sums to 1.25"),
        ({1: [[1.5, -0.25, -0.25]], 2: [[0.5, math.nan]]}, BadCpt,
         r"cpt for 'w1' has entries outside \[0, 1\]"),
        ({0: [[0.5, 0.5], [0.5]]}, BadCpt, "cpt rows for 'b0' are not equal-length numbers"),
        # a table that is not numbers after a table out of range, and before one
        ({2: [[1.5, -0.5]], 3: [["x", 0.5, 0.5]]}, BadCpt, r"cpt for 'b2' has entries outside"),
        ({2: [[1.5, -0.5]], 3: "rows"}, BadCpt, r"cpt for 'b2' has entries outside"),
        ({1: [["x", 0.5, 0.5]], 2: [[1.5, -0.5]]}, bayes_core.DocumentError,
         'malformed BN document: a cpt entry must be a number, got "x"'),
    ])
    def test_first_bad_table_in_document_order_is_reported(self, bad, error, message):
        # parentless tables alternate between two and three states: b0, w1, b2, w3, b4, w5
        doc = {"nodes": [], "cpts": []}
        for i in range(6):
            name, width = (f"b{i}", 2) if i % 2 == 0 else (f"w{i}", 3)
            doc["nodes"].append({"id": name, "states": [f"s{k}" for k in range(width)]})
            rows = bad.get(i, [[1.0] + [0.0] * (width - 1)])
            doc["cpts"].append({"node": name, "parents": [], "rows": rows})
        with pytest.raises(error, match=message):
            parse_bn(doc)

    def test_errors_match_a_table_by_table_check_on_random_documents(self):
        rng = random.Random(227)
        corruptions = [
            lambda row: row.__setitem__(0, -0.25),
            lambda row: row.__setitem__(-1, 1.25),
            lambda row: row.__setitem__(0, math.nan),
            lambda row: row.__setitem__(-1, "x"),
            lambda row: row.__setitem__(0, row[0] + 0.25),
            lambda row: row.pop(),
        ]
        for _ in range(300):
            doc = bayes_core.bn_to_document(_mixed_width_net(rng))
            rng.shuffle(doc["cpts"])
            for _ in range(rng.randint(1, 3)):
                rows = rng.choice(doc["cpts"])["rows"]
                rng.choice(corruptions)(rng.choice(rows))
            expected = None
            for c in doc["cpts"]:
                if any(isinstance(p, str) for row in c["rows"] for p in row):
                    expected = (bayes_core.DocumentError,
                                'malformed BN document: a cpt entry must be a number, got "x"')
                    break
                try:
                    Cpt(c["node"], tuple(c["parents"]), oracles.renormalized_rows(c["rows"]))
                except BadCpt as exc:
                    expected = (BadCpt, str(exc))
                    break
            if expected is None:  # the corrupted entries made a row in tolerance again
                parse_bn(doc)
                continue
            with pytest.raises(expected[0]) as err:
                parse_bn(doc)
            assert str(err.value) == expected[1]
