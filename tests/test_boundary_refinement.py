import copy
import csv
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from odd_assure import _base, cli
from odd_assure.boundary_refinement import (
    NO,
    YES,
    DecisionTree,
    DocumentError,
    Leaf,
    MissingFeature,
    RefinementError,
    Rule,
    Split,
    TooFewRecords,
    Trace,
    TraceRecord,
    UnknownFeature,
    extract_rules,
    fit_tree,
    format_rule,
    load_trace,
    parse_trace,
    predict,
    refine_boundaries,
)
from odd_assure.fixtures import avp_odd_spec, example_trace_csv
from odd_assure.odd_model import Interval

from . import oracles

RULE_LINE = re.compile(
    r"^IF [A-Za-z_][A-Za-z_0-9]* (<=|>) -?\d+\.\d{2}"
    r"( AND [A-Za-z_][A-Za-z_0-9]* (<=|>) -?\d+\.\d{2})* THEN (Yes|No)$"
)


def records_from(points, label_fn):
    return [
        TraceRecord({name: v for name, v in zip(("Fog", "Rain"), pt)}, label_fn(pt))
        for pt in points
    ]


def planted_grid(rng, n, x_cut, y_cut):
    """Noiseless axis-aligned concept: Yes iff Fog <= x_cut and Rain <= y_cut."""
    points = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
    return records_from(points, lambda p: YES if p[0] <= x_cut and p[1] <= y_cut else NO)


class TestFitTree:
    def test_single_split_on_separable_data(self):
        records = [TraceRecord({"v": float(i)}, YES if i > 5 else NO) for i in range(11)]
        tree = fit_tree(records, max_depth=3, min_leaf=1)
        assert isinstance(tree.root, Split)
        assert tree.root.feature == "v"
        assert tree.root.threshold == 5.5
        assert isinstance(tree.root.left, Leaf) and tree.root.left.label == NO
        assert tree.root.right.label == YES

    def test_pure_root_is_single_leaf(self):
        records = [TraceRecord({"v": float(i)}, YES) for i in range(10)]
        tree = fit_tree(records, min_leaf=1)
        assert tree.root == Leaf(YES, 10, 0)
        assert not tree.constant_features

    def test_constant_features_flagged(self):
        records = [TraceRecord({"v": 1.0}, YES if i % 2 else NO) for i in range(10)]
        tree = fit_tree(records, min_leaf=1)
        assert isinstance(tree.root, Leaf)
        assert tree.constant_features

    def test_too_few_records(self):
        records = [TraceRecord({"v": 1.0}, YES)] * 5
        with pytest.raises(TooFewRecords):
            fit_tree(records, min_leaf=3)

    @pytest.mark.parametrize("max_depth, min_leaf", [(-1, 1), (3, 0)])
    def test_tree_limits_must_be_in_range(self, max_depth, min_leaf):
        records = [TraceRecord({"v": float(i)}, YES if i % 2 else NO) for i in range(10)]
        with pytest.raises(RefinementError, match="^max_depth must be >= 0 and min_leaf >= 1$"):
            fit_tree(records, max_depth, min_leaf)

    def test_inconsistent_features_rejected(self):
        records = [TraceRecord({"a": 1.0}, YES), TraceRecord({"b": 1.0}, NO)]
        with pytest.raises(DocumentError):
            fit_tree(records, min_leaf=1)

    def test_order_invariance(self):
        rng = random.Random(3)
        records = planted_grid(rng, 300, 60.0, 40.0)
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert fit_tree(records, min_leaf=5) == fit_tree(shuffled, min_leaf=5)

    def test_planted_concept_recovery(self):
        # recovered thresholds sit at sample midpoints, so the deviation from
        # the planted boundary is a sampling gap; this seed is representative
        rng = random.Random(0)
        records = planted_grid(rng, 1000, 60.0, 40.0)
        tree = fit_tree(records, max_depth=4, min_leaf=5)
        thresholds = {}

        def collect(node):
            if isinstance(node, Split):
                thresholds.setdefault(node.feature, []).append(node.threshold)
                collect(node.left)
                collect(node.right)

        collect(tree.root)
        assert any(abs(t - 60.0) <= 0.5 for t in thresholds["Fog"])
        assert any(abs(t - 40.0) <= 0.5 for t in thresholds["Rain"])
        # noiseless separable data is reproduced perfectly
        for rec in records:
            assert predict(tree, rec.features) == rec.label

    def test_gini_strictly_decreases_along_splits(self):
        rng = random.Random(7)
        records = planted_grid(rng, 400, 50.0, 50.0)
        tree = fit_tree(records, max_depth=5, min_leaf=10)

        def gini(n_yes, n_no):
            tot = n_yes + n_no
            if tot == 0:
                return 0.0
            return 1 - (n_yes / tot) ** 2 - (n_no / tot) ** 2

        def counts(node):
            if isinstance(node, Leaf):
                return node.n_yes, node.n_no
            ly, ln = counts(node.left)
            ry, rn = counts(node.right)
            return ly + ry, ln + rn

        def walk(node):
            if isinstance(node, Leaf):
                return
            y, n = counts(node)
            ly, ln = counts(node.left)
            ry, rn = counts(node.right)
            parent = gini(y, n)
            weighted = ((ly + ln) * gini(ly, ln) + (ry + rn) * gini(ry, rn)) / (y + n)
            assert weighted < parent
            walk(node.left)
            walk(node.right)

        walk(tree.root)

    def test_min_leaf_respected(self):
        rng = random.Random(9)
        records = planted_grid(rng, 200, 50.0, 50.0)
        tree = fit_tree(records, max_depth=6, min_leaf=25)

        def check(node):
            if isinstance(node, Leaf):
                assert node.n_yes + node.n_no >= 25
            else:
                check(node.left)
                check(node.right)

        check(tree.root)


@st.composite
def tie_heavy_traces(draw):
    """Small traces whose values come from a few-value pool: a run of
    adjacent floats (so some midpoints round onto the upper value), a few
    other values and repeats of all of them; some features are constant."""
    names = draw(st.lists(st.sampled_from(["Fog", "Rain", "a", "speed"]), min_size=1,
                          max_size=3, unique=True))
    base = draw(st.floats(-1e6, 1e6, allow_nan=False))
    pool = [base]
    for _ in range(4):
        pool.append(float(np.nextafter(pool[-1], math.inf)))
    pool += draw(st.lists(st.floats(-100, 100, allow_nan=False), max_size=3))
    n = draw(st.integers(2, 60))
    columns = {}
    for name in names:
        if draw(st.booleans()) and draw(st.booleans()):
            columns[name] = [draw(st.sampled_from(pool))] * n
        else:
            columns[name] = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    labels = draw(st.lists(st.sampled_from([YES, NO]), min_size=n, max_size=n))
    records = [
        TraceRecord({name: columns[name][i] for name in names}, labels[i]) for i in range(n)
    ]
    min_leaf = draw(st.integers(1, n // 2))
    max_depth = draw(st.integers(0, 4))
    return records, max_depth, min_leaf


class TestFitTreeMatchesReference:
    """fit_tree scores splits from one sort per feature and node; the oracle
    builds a mask per candidate threshold. Trees must be equal, floats and
    tie-breaks included."""

    @settings(max_examples=300, deadline=None)
    @given(case=tie_heavy_traces())
    def test_tie_heavy_traces(self, case):
        records, max_depth, min_leaf = case
        assert fit_tree(records, max_depth, min_leaf) == oracles.fit_tree(
            records, max_depth, min_leaf
        )

    @pytest.mark.parametrize("max_depth,min_leaf", [(6, 20), (4, 5), (0, 1), (3, 200)])
    def test_fixture_trace(self, max_depth, min_leaf):
        records = parse_trace(example_trace_csv())
        assert fit_tree(records, max_depth, min_leaf) == oracles.fit_tree(
            records, max_depth, min_leaf
        )

    def test_planted_grid(self):
        records = planted_grid(random.Random(4), 2000, 60.0, 40.0)
        assert fit_tree(records) == oracles.fit_tree(records)

    def test_midpoint_rounding_onto_upper_value(self):
        # 1 + 2**-52 has an odd last bit, so its midpoint with the next
        # float rounds up onto that float, and the records there go left:
        # the first threshold already separates the labels and must win.
        lo = 1.0 + 2.0**-52
        mid = float(np.nextafter(lo, 2.0))
        assert (lo + mid) / 2.0 == mid
        values = [lo] * 2 + [mid] * 2 + [2.0] * 4
        labels = [YES] * 4 + [NO] * 4
        records = [TraceRecord({"v": v}, label) for v, label in zip(values, labels)]
        tree = fit_tree(records, max_depth=1, min_leaf=1)
        assert tree == oracles.fit_tree(records, max_depth=1, min_leaf=1)
        assert tree.root == Split("v", mid, Leaf(YES, 4, 0), Leaf(NO, 0, 4))


class TestPredict:
    def test_boundary_goes_left(self):
        tree = fit_tree(
            [TraceRecord({"v": float(i)}, YES if i > 5 else NO) for i in range(11)],
            min_leaf=1,
        )
        assert predict(tree, {"v": tree.root.threshold}) == NO

    def test_missing_feature(self):
        tree = fit_tree(
            [TraceRecord({"v": float(i)}, YES if i > 5 else NO) for i in range(11)],
            min_leaf=1,
        )
        with pytest.raises(MissingFeature):
            predict(tree, {"w": 1.0})

    def test_agrees_with_rule_evaluation(self):
        rng = random.Random(11)
        records = planted_grid(rng, 500, 30.0, 70.0)
        tree = fit_tree(records, max_depth=5, min_leaf=10)
        rules = extract_rules(tree)

        def rule_matches(rule, features):
            for f, op, t in rule.conjuncts:
                v = features[f]
                if op == "<=" and not v <= t:
                    return False
                if op == ">" and not v > t:
                    return False
            return True

        for _ in range(500):
            features = {"Fog": rng.uniform(-10, 110), "Rain": rng.uniform(-10, 110)}
            matching = [r for r in rules if rule_matches(r, features)]
            assert len(matching) == 1  # rules partition the feature space
            assert matching[0].outcome == predict(tree, features)


class TestExtractRules:
    def test_depth_one_rules(self):
        records = [
            TraceRecord({"Vehicle_lighting": v}, YES if v <= 60.48 else NO)
            for v in [10, 20, 30, 40, 50, 60.48, 60.49, 70, 80, 90]
        ]
        tree = fit_tree(records, max_depth=1, min_leaf=1)
        lines = [format_rule(r) for r in extract_rules(tree)]
        assert len(lines) == 2
        assert lines[0].startswith("IF Vehicle_lighting <= ") and lines[0].endswith("THEN Yes")
        assert lines[1].startswith("IF Vehicle_lighting > ") and lines[1].endswith("THEN No")

    def test_single_leaf_unconditional(self):
        tree = fit_tree([TraceRecord({"v": 1.0 * i}, YES) for i in range(4)], min_leaf=1)
        (rule,) = extract_rules(tree)
        assert rule.conjuncts == ()
        assert format_rule(rule) == "THEN Yes"

    def test_redundant_bounds_collapse(self):
        # v <= 10 then v <= 4 along one path must keep only v <= 4
        inner = Split("v", 4.0, Leaf(YES, 5, 0), Leaf(NO, 0, 5))
        tree_root = Split("v", 10.0, inner, Leaf(NO, 0, 5))
        rules = extract_rules(DecisionTree(tree_root, ("v",)))
        assert rules[0].conjuncts == (("v", "<=", 4.0),)
        assert rules[1].conjuncts == (("v", "<=", 10.0), ("v", ">", 4.0))

    def test_rule_grammar(self):
        rng = random.Random(13)
        records = planted_grid(rng, 600, 45.0, 55.0)
        tree = fit_tree(records, max_depth=6, min_leaf=5)
        for rule in extract_rules(tree):
            assert RULE_LINE.match(format_rule(rule)), format_rule(rule)

    def test_every_record_satisfies_exactly_one_rule(self):
        rng = random.Random(15)
        records = planted_grid(rng, 400, 20.0, 80.0)
        tree = fit_tree(records, max_depth=4, min_leaf=10)
        rules = extract_rules(tree)
        for rec in records:
            hits = [
                r
                for r in rules
                if all(
                    (rec.features[f] <= t) if op == "<=" else (rec.features[f] > t)
                    for f, op, t in r.conjuncts
                )
            ]
            assert len(hits) == 1
            assert hits[0].outcome == predict(tree, rec.features)


_TREES = st.recursive(
    st.builds(Leaf, st.sampled_from([YES, NO]), st.integers(0, 9), st.integers(0, 9)),
    lambda kids: st.builds(
        Split, st.sampled_from(["a", "b", "c"]), st.sampled_from([-1.5, 0.0, 0.5, 2.0]), kids, kids
    ),
    max_leaves=40,
)


class TestExtractRulesMatchesReference:
    """extract_rules carries the collapsed conjuncts down the tree; the
    oracle collapses every leaf's whole path. The rules must be equal."""

    @settings(max_examples=300, deadline=None)
    @given(root=_TREES)
    def test_random_trees(self, root):
        tree = DecisionTree(root, ("a", "b", "c"))
        assert extract_rules(tree) == oracles.extract_rules(tree)

    def test_deep_alternating_tree(self):
        # Alternating labels on one feature grow a chain about n/2 deep.
        n = 3000
        records = [TraceRecord({"x": float(i)}, YES if i % 2 else NO) for i in range(n)]
        tree = fit_tree(records, max_depth=100000, min_leaf=1)
        rules = extract_rules(tree)
        assert len(rules) == n
        assert rules == oracles.extract_rules(tree)


class TestRefineBoundaries:
    def test_single_yes_rule_projection(self):
        spec = avp_odd_spec()
        rule = Rule((("Vehicle_lighting", "<=", 60.48),), YES)
        report = refine_boundaries(spec, [rule, Rule((("Vehicle_lighting", ">", 60.48),), NO)])
        (proposal,) = report.proposals
        assert proposal.class_name == "Vehicle_lighting"
        assert proposal.proposed == (Interval(-math.inf, 60.48, False, True),)
        assert not report.exit_everywhere

    def test_no_yes_rules(self):
        spec = avp_odd_spec()
        report = refine_boundaries(spec, [Rule((("Fog", "<=", 10.0),), NO)])
        assert report.exit_everywhere
        (proposal,) = report.proposals
        assert proposal.proposed == ()

    def test_unknown_feature(self):
        with pytest.raises(UnknownFeature):
            refine_boundaries(avp_odd_spec(), [Rule((("Wind", "<=", 1.0),), YES)])

    def test_spec_is_never_edited(self):
        spec = avp_odd_spec()
        before = copy.deepcopy(spec)
        refine_boundaries(spec, [Rule((("Fog", "<=", 10.0),), YES), Rule((("Fog", ">", 10.0),), NO)])
        assert spec == before

    def test_disjoint_projections_stay_split(self):
        spec = avp_odd_spec()
        rules = [
            Rule((("Fog", "<=", 10.0),), YES),
            Rule((("Fog", ">", 50.0), ("Fog", "<=", 80.0)), YES),
        ]
        (proposal,) = refine_boundaries(spec, rules).proposals
        assert proposal.proposed == (
            Interval(-math.inf, 10.0, False, True),
            Interval(50.0, 80.0, False, True),
        )

    def test_overlapping_projections_merge(self):
        spec = avp_odd_spec()
        rules = [
            Rule((("Fog", "<=", 50.0),), YES),
            Rule((("Fog", ">", 20.0), ("Fog", "<=", 80.0)), YES),
        ]
        (proposal,) = refine_boundaries(spec, rules).proposals
        assert proposal.proposed == (Interval(-math.inf, 80.0, False, True),)

    def test_yes_records_covered_by_proposals(self):
        # replay oracle: each Yes record's own rule features stay inside
        # some proposed interval for that feature
        rng = random.Random(17)
        points = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(500)]
        records = [
            TraceRecord(
                {"Fog": fog, "Rain": rain},
                YES if fog <= 55 and rain <= 35 else NO,
            )
            for fog, rain in points
        ]
        tree = fit_tree(records, max_depth=4, min_leaf=5)
        rules = extract_rules(tree)
        report = refine_boundaries(avp_odd_spec(), rules)
        proposed = {p.class_name: p.proposed for p in report.proposals}

        def matching_rule(features):
            for r in rules:
                if all(
                    (features[f] <= t) if op == "<=" else (features[f] > t)
                    for f, op, t in r.conjuncts
                ):
                    return r
            raise AssertionError("rules must cover the space")

        for rec in records:
            if rec.label != YES:
                continue
            rule = matching_rule(rec.features)
            assert rule.outcome == YES
            for feature in {f for f, _, _ in rule.conjuncts}:
                assert any(iv.contains(rec.features[feature]) for iv in proposed[feature])


class TestTraceFormat:
    def test_parse_and_fit(self, tmp_path):
        lines = ["Fog,Rain,label"]
        rng = random.Random(19)
        for _ in range(50):
            fog = rng.uniform(0, 100)
            rain = rng.uniform(0, 100)
            label = YES if fog <= 50 else NO
            lines.append(f"{fog},{rain},{label}")
        path = tmp_path / "trace.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        records = load_trace(path)
        assert len(records) == 50
        tree = fit_tree(records, min_leaf=5)
        assert isinstance(tree.root, Split)

    def test_missing_label_column(self):
        with pytest.raises(DocumentError):
            parse_trace("a,b\n1,2\n")

    def test_bad_label(self):
        with pytest.raises(DocumentError):
            parse_trace("a,label\n1,maybe\n")

    def test_bad_number(self):
        with pytest.raises(DocumentError):
            parse_trace("a,label\nfoo,Yes\n")

    # \u0663 is an Arabic-Indic three; float() reads it, and each cell below, as a number
    @pytest.mark.parametrize("cell", ["1_0", "\u0663", " 1", "1 ", "\t1", "\f1", "\v1",
                                      '"1\n"', '"1\r\n"'])
    def test_number_cells_follow_the_number_grammar(self, cell):
        # a row is named by the line it ends on, past a quoted line break too
        row = 3 + cell.count("\n")
        with pytest.raises(DocumentError, match=rf"row {row}: bad numeric value \(.* is not a number\)"):
            parse_trace(f"a,b,label\n1,2,Yes\n1,{cell},Yes\n")

    @settings(max_examples=300, deadline=None)
    @given(cell=st.text(alphabet="0123456789.eE+-_ \t\u0663\uff15naif", max_size=6))
    def test_finite_cells_are_those_of_the_number_grammar(self, cell):
        try:
            number = parse_trace(f"a,label\n{cell},Yes\n").x[0, 0]
        except DocumentError:
            number = None
        grammar = _base.NUMBER_TEXT.fullmatch(cell) and math.isfinite(float(cell))
        assert number == (float(cell) if grammar else None)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_feature_names_row(self, value):
        with pytest.raises(DocumentError, match="row 3: feature values must be finite"):
            parse_trace(f"a,b,label\n1,2,Yes\n1,{value},Yes\n")

    @pytest.mark.parametrize("text, message", [
        ("a,label\n1,Yes,7\n2,No\n", "row 2 has 3 cells, the header has 2"),
        ("a,label\n1,Yes\n2\n", "row 3 has 1 cells, the header has 2"),
        ("a,a,label\n1,100,Yes\n2,200,No\n", "row 1 repeats column 'a'"),
        ("label,label\n1,Yes\n", "row 1 repeats column 'label'"),
    ], ids=["extra_cell", "short_row", "repeated_feature", "repeated_label"])
    def test_rows_have_one_cell_per_column(self, text, message):
        # the first two read as two rows, the third split on the second `a`
        with pytest.raises(DocumentError, match=f"^malformed trace: {message}$"):
            parse_trace(text)

    @pytest.mark.parametrize("prefix", ["a,label\n\n\n1,Yes\n\n", '"a\nb",label\n1,Yes\n'],
                             ids=["blank_lines", "quoted_line_break"])
    def test_bad_row_is_named_by_the_line_coverage_names(self, tmp_path, prefix):
        # a short row is the one error both readers report: line 6, or line 4
        data = tmp_path / "data.csv"
        data.write_text(prefix + "x\n", encoding="utf-8")
        with pytest.raises(_base.DocumentError) as coverage:
            cli._read_rows(data)
        row = re.fullmatch(r"malformed dataset: row (\d+) has 1 cells, the header has 2",
                           str(coverage.value)).group(1)
        assert row == str(prefix.count("\n") + 1)
        with pytest.raises(DocumentError, match=f"^malformed trace: row {row} has 1 cells"):
            load_trace(data)
        for bad, message in (("x,No", "bad numeric value"), ("nan,No", "feature values must be")):
            with pytest.raises(DocumentError, match=f"^row {row}: {message}"):
                parse_trace(prefix + bad + "\n")


# Trace text: header names that repeat or lack `label`, rows that are blank,
# short or long, and cells that are numbers, padded numbers, non-finite or not
# numbers at all.
trace_names = st.sampled_from(["a", "b", "a", "c", ""])
trace_cells = st.sampled_from(
    ["1", "2.5", "-3e2", " 4 ", "0", "1_0", "nan", "inf", "-Infinity", "x", "", "Yes", "No",
     '"5"', '"6,7"', "\u0663", '"8\n"', "\t9"]
)


@st.composite
def trace_text(draw):
    # a header that repeats a name fails before any row is read, so most do not
    unique = draw(st.sampled_from([True, True, True, False]))
    header = draw(st.lists(trace_names, min_size=0, max_size=4, unique=unique))
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 1, 2]))):
        header.insert(draw(st.integers(0, len(header))), "label")
    lines = [",".join(header)] if draw(st.sampled_from([True] * 9 + [False])) else [""]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["good"] * 6 + ["blank", "cells", "random"]))
        if kind == "blank":
            lines.append("")
            continue
        # "cells" fills the header's width with any cells; "random" any width
        width = len(header) if kind != "random" else draw(st.integers(0, len(header) + 2))
        cells = []
        for name in header[:width]:
            if kind == "good":
                cells.append(draw(st.sampled_from(["Yes", "No"])) if name == "label"
                             else draw(st.sampled_from(["1", "2.5", "-3e2", "4", "0", '"5"'])))
            else:
                cells.append(draw(trace_cells))
        cells += [draw(trace_cells) for _ in range(width - len(header))]
        lines.append(",".join(cells))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


def trace_outcome(parse, text):
    try:
        return ("records", list(parse(text)))
    except (DocumentError, TooFewRecords) as exc:
        return (type(exc).__name__, str(exc))


class TestTraceMatchesReference:
    """parse_trace reads columns through _base.csv_table; the oracle reads rows
    with csv.DictReader. Records and error messages must be equal."""

    @settings(max_examples=500, deadline=None)
    @given(text=trace_text())
    def test_fuzzed_traces(self, text):
        got = trace_outcome(parse_trace, text)
        assert got == trace_outcome(oracles.parse_trace, text)
        if got[0] == "records":
            trace = parse_trace(text)
            assert list(trace.names) == sorted(set(trace.names)) == sorted(got[1][0].features)
            assert trace.x.shape == (len(got[1]), len(trace.names))

    @pytest.mark.parametrize("text", [
        "a,label\n1\n",  # a short row
        "a,b,label\n1,Yes\n",
        "a,label,a\n1,Yes\n",  # a repeated column, whatever the rows hold
        "a,label,a\n1,Yes,2\n3,No,x\n",
        "a,label\n1,Yes,extra,cells\n2,No\n",  # a long row
        "a,label\n1,Yes\n2,No\n3\nx,No\n",  # every row is read before a cell is checked
        "a,label\n\n\n1,Yes\n\nx,No\n",  # blank lines are skipped but counted
        "\na,label\n1,Yes\n",  # a blank first line is the header
        "a,label,label\n1,Yes,No\n2,No,maybe\n",
        "a,b,label\n1,inf,Yes\n2,x,No\n",  # row 2 fails first though row 3 does not parse
        "a,label\n",
        "label,label\n1,Yes\n",
        "a,label\n1_0,Yes\n",  # float() reads the next three cells, the grammar does not
        "a,label\n\u0663,Yes\n",
        "a,label\n 1,Yes\n",
        'a,label\n"1\n",Yes\n',  # a quoted line break: the row ends on line 3
        'a,label\n"1\n2",Yes\nx,No\n',
        'a,label\n"5",Yes\n2,No\n',  # a quoted number is a number
        "a b,label\n1,Yes\n",  # the header is not screened
        "a_b,label\n1,Yes\n",
        "a,label\nnan,Yes\n1_0,No\n",  # the first bad row fails, whatever the rest holds
    ])
    def test_edge_cases(self, text):
        assert trace_outcome(parse_trace, text) == trace_outcome(oracles.parse_trace, text)

    def test_unreadable_row_after_a_bad_one(self):
        # every row is read before a cell is checked, so the unreadable row
        # fails first; parse_trace names it, the oracle lets csv's error out
        huge = "1" * 200_000  # past csv's field size limit
        for first in ("x", "1"):
            text = f"a,label\n{first},Yes\n{huge},No\n"
            with pytest.raises(DocumentError, match=r"^malformed trace: row 3: field larger "):
                parse_trace(text)
            with pytest.raises(csv.Error):
                oracles.parse_trace(text)

    def test_trace_is_a_sequence_of_records(self):
        trace = parse_trace("b,a,label\n1,2,Yes\n3,4,No\n5,6,Yes\n")
        assert trace.names == ("a", "b")
        assert trace.x.tolist() == [[2.0, 1.0], [4.0, 3.0], [6.0, 5.0]]
        assert trace[1] == TraceRecord({"a": 4.0, "b": 3.0}, NO)
        assert trace[-1] == TraceRecord({"a": 6.0, "b": 5.0}, YES)
        assert list(trace[1:]) == [trace[1], trace[2]]
        assert len(trace) == 3 and trace.index(trace[2]) == 2
        with pytest.raises(IndexError):
            trace[3]

    def test_from_records_matches_parse(self):
        text = example_trace_csv()
        trace = parse_trace(text)
        again = Trace.from_records(list(trace))
        assert again.names == trace.names and again.labels == trace.labels
        assert np.array_equal(again.x, trace.x)
        assert fit_tree(trace, 4, 5) == fit_tree(list(trace), 4, 5) == oracles.fit_tree(list(trace), 4, 5)
        assert Trace.from_records([]).x.shape == (0, 0)

    def test_bench_sized_trace(self):
        rng = random.Random(3)
        rows = [f"{rng.uniform(0, 600):.3f},{rng.uniform(0, 2):.3f},{rng.choice(['Yes', 'No'])}"
                for _ in range(3000)]
        text = "Fog,Rain,label\n" + "\n".join(rows) + "\n"
        records = oracles.parse_trace(text)
        assert list(parse_trace(text)) == records
        assert fit_tree(parse_trace(text)) == oracles.fit_tree(records)
