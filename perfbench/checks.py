"""Output checks against the generators' plants and the independent oracles
in ``tests/oracles.py``.

A checker is built once per run and applied to the outputs of every pass.
``check`` returns the number of ticks or jobs whose output is wrong, plus the
counts the traced run reports.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

from odd_assure import bayes_core, confidence_templates
from odd_assure.hara_fta import Event, Fta, Gate, GateOp
from oracles import enumerate_joint, enumerate_posterior, gate_formula_top_probability

# every count the checks report; a workload reports 0 for the others
COUNTS = ("runtime_monitor.ticks", "runtime_monitor.out_of_odd_ticks",
          "runtime_monitor.dropped_readings", "runtime_monitor.degenerate_ticks",
          "safety_ontology.triples", "safety_ontology.violations", "boundary_refinement.rules")
POSTERIOR_TOL = 1e-9
GATE_TOL = 1e-12
THRESHOLD_TOL = 0.5
WIDE_SAMPLE = 4  # monitor_wide ticks checked against enumeration per run


def consistent_posterior(net, query: str, evidence: dict[str, str]) -> dict[str, float]:
    """P(query | evidence) by summing the joint over the assignments that
    agree with the evidence; only the free nodes are enumerated."""
    free = [n for n in net.nodes if n not in evidence]
    totals = {s: 0.0 for s in net.nodes[query].states}
    for combo in itertools.product(*(net.nodes[n].states for n in free)):
        assignment = dict(evidence)
        assignment.update(zip(free, combo))
        totals[assignment[query]] += enumerate_joint(net, assignment)
    z = sum(totals.values())
    return {s: p / z for s, p in totals.items()}


class MonitorChecker:
    """Every tick: evidence, dropped readings and the in-ODD flag as planted,
    never degenerate, mean in [0, 1]. The mean must match the ``oracle`` on
    every tick, or with ``sample`` set on the ticks whose evidence set is one
    of a seeded sample of that many ticks."""

    def __init__(self, workdir: Path, oracle, sample: int | None, seed: int) -> None:
        expected = json.loads((workdir / "expected.json").read_text(encoding="utf-8"))
        self.expected = expected["ticks"]
        manifest = json.loads((workdir / expected["bundle"]).read_text(encoding="utf-8"))
        self.net = bayes_core.load_bn(workdir / manifest["net"])
        self.objective = manifest["acp"]["objective"]
        self.values = manifest["acp"]["state_values"]
        self.oracle = oracle
        self.sampled = None
        if sample is not None:
            picks = random.Random(seed).sample(range(len(self.expected)), sample)
            self.sampled = {_key(self.expected[i]["evidence"]) for i in picks}
        self.means: dict = {}

    def oracle_mean(self, evidence: dict[str, str]):
        key = _key(evidence)
        if self.sampled is not None and key not in self.sampled:
            return None
        if key not in self.means:
            post = self.oracle(self.net, self.objective, evidence)
            self.means[key] = sum(p * self.values[s] for s, p in post.items())
        return self.means[key]

    def check(self, outputs: list[str]) -> tuple[int, dict]:
        failed = abs(len(outputs) - len(self.expected))
        counts = dict.fromkeys(COUNTS, 0)
        counts["runtime_monitor.ticks"] = len(outputs)
        for want, line in zip(self.expected, outputs):
            got = json.loads(line)
            counts["runtime_monitor.out_of_odd_ticks"] += not got["in_odd"]
            counts["runtime_monitor.dropped_readings"] += len(got["dropped_readings"])
            counts["runtime_monitor.degenerate_ticks"] += bool(got["degenerate"])
            ok = (
                got["evidence"] == want["evidence"]
                and got["dropped_readings"] == want["dropped"]
                and got["in_odd"] == want["in_odd"]
                and not got["degenerate"]
                and 0.0 <= got["mean"] <= 1.0
            )
            if ok:
                mean = self.oracle_mean(got["evidence"])
                ok = mean is None or abs(got["mean"] - mean) <= POSTERIOR_TOL
            failed += not ok
        return failed, counts


def _key(evidence: dict[str, str]):
    return frozenset(evidence.items())


class AssuranceChecker:
    """One verdict per job: FTA top event against the closed-form gate
    recursion, template posterior against enumeration, ontology violations
    and query hits against the plants, refined boundaries within 0.5 of the
    planted thresholds."""

    def __init__(self, workdir: Path) -> None:
        self.expected = json.loads((workdir / "expected.json").read_text(encoding="utf-8"))
        fta = self.expected["fta"]
        tree = Fta(
            top=fta["top"],
            events=tuple(Event(eid, eid, atomic) for eid, atomic in fta["events"]),
            gates=tuple(Gate(p, tuple(children), GateOp(op)) for p, op, children in fta["gates"]),
        )
        self.top = gate_formula_top_probability(tree, fta["priors"])
        template = self.expected["template"]
        net = confidence_templates.build_testing_adequacy_bn(
            confidence_templates.TemplateConfig(feature_names=tuple(template["features"]))
        )
        self.template = consistent_posterior(net, net.objective, template["evidence"])

    def verdicts(self, outputs: dict) -> dict[str, bool]:
        onto = self.expected["ontology"]
        got_onto = outputs["onto_check"]
        return {
            "fta_infer": abs(outputs["fta_infer"]["top"] - self.top) <= GATE_TOL,
            "template_infer": outputs["template_infer"]["posterior"].keys() == self.template.keys()
            and all(abs(outputs["template_infer"]["posterior"][s] - p) <= POSTERIOR_TOL
                    for s, p in self.template.items()),
            "onto_check": sorted(got_onto["violations"]) == sorted(onto["violations"])
            and [sorted(h) for h in got_onto["query_hits"]] == onto["query_hits"],
            "refine": self._refine_ok(outputs["refine"]["proposals"]),
        }

    def _refine_ok(self, proposals: dict) -> bool:
        planted = self.expected["refine"]["thresholds"]
        if proposals.keys() != planted.keys():
            return False
        for feature, (cut, side) in planted.items():
            if len(proposals[feature]) != 1:
                return False
            lo, hi = proposals[feature][0]
            bound, open_end = (lo, hi) if side == "lo" else (hi, -lo)
            if not (abs(bound - cut) <= THRESHOLD_TOL and open_end == math.inf):
                return False
        return True

    def check(self, outputs: dict) -> tuple[int, dict]:
        failed = sum(not ok for ok in self.verdicts(outputs).values())
        counts = dict.fromkeys(COUNTS, 0)
        counts.update({
            "safety_ontology.triples": outputs["onto_check"]["triples"],
            "safety_ontology.violations": len(outputs["onto_check"]["violations"]),
            "boundary_refinement.rules": outputs["refine"]["rules"],
        })
        return failed, counts


def make_checker(workload: str, workdir: Path, seed: int):
    if workload == "monitor_avp":
        return MonitorChecker(workdir, enumerate_posterior, None, seed)
    if workload == "monitor_wide":
        return MonitorChecker(workdir, consistent_posterior, WIDE_SAMPLE, seed)
    return AssuranceChecker(workdir)
