"""Self-tests of the benchmark: generators are deterministic per seed and
every output check rejects a perturbed result.

Run from the root of the checkout: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import gen  # noqa: E402
import worker  # noqa: E402
from odd_assure import cli, runtime_monitor  # noqa: E402


@pytest.fixture
def workdir(request):
    path = ROOT / ".perfbench_work" / "selftest" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def small(monkeypatch):
    """Shrink the inputs so the self-tests stay fast; the planted properties
    do not depend on size."""
    monkeypatch.setattr(gen, "AVP_TICKS", 300)
    monkeypatch.setattr(gen, "WIDE_TICKS", 60)
    monkeypatch.setattr(gen, "FTA_EVENTS", 60)
    monkeypatch.setattr(gen, "ONTO_SCALE", 0.3)
    monkeypatch.setattr(gen, "ONTO_PLANTED", 12)


def _files(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_generator_is_byte_identical_per_seed(workload, workdir, small):
    gen.GENERATORS[workload](7, workdir / "a")
    gen.GENERATORS[workload](7, workdir / "b")
    gen.GENERATORS[workload](8, workdir / "c")
    assert _files(workdir / "a") == _files(workdir / "b")
    assert _files(workdir / "a") != _files(workdir / "c")


def _monitor_reports(workdir: Path) -> list[str]:
    bundle = runtime_monitor.load_bundle(next(workdir.glob("*_bundle.json")))
    with open(workdir / "stream.jsonl", encoding="utf-8") as fh:
        observations = [runtime_monitor.parse_observation(line) for line in fh]
    return [json.dumps(runtime_monitor.report_to_document(r))
            for r in runtime_monitor.run(bundle, observations)]


def _perturbations(reports: list[str], tick: int):
    """(label, perturbed copy of reports) pairs, each touching one tick."""
    doc = json.loads(reports[tick])
    edits = {
        "mean": dict(doc, mean=doc["mean"] + 1e-7),
        "in_odd": dict(doc, in_odd=not doc["in_odd"]),
        "dropped": dict(doc, dropped_readings=doc["dropped_readings"] + ["Extra"]),
        "evidence": dict(doc, evidence={}),
        "degenerate": dict(doc, degenerate=True),
    }
    for label, edited in edits.items():
        copy = list(reports)
        copy[tick] = json.dumps(edited)
        yield label, copy
    yield "missing", reports[:tick] + reports[tick + 1:]


@pytest.mark.parametrize("workload", ["monitor_avp", "monitor_wide"])
def test_monitor_check_rejects_perturbed_ticks(workload, workdir, small):
    gen.GENERATORS[workload](3, workdir)
    checker = checks.make_checker(workload, workdir, 3)
    reports = _monitor_reports(workdir)
    assert checker.check(reports)[0] == 0
    # a tick whose mean the oracle checks (every tick on monitor_avp)
    tick = next(i for i, line in enumerate(reports)
                if checker.oracle_mean(json.loads(line)["evidence"]) is not None)
    for label, perturbed in _perturbations(reports, tick):
        assert checker.check(perturbed)[0] >= 1, label


def test_monitor_counts_match_plants(workdir, small):
    gen.gen_monitor_avp(4, workdir)
    expected = json.loads((workdir / "expected.json").read_text())["ticks"]
    _, counts = checks.make_checker("monitor_avp", workdir, 4).check(_monitor_reports(workdir))
    assert counts["runtime_monitor.out_of_odd_ticks"] == sum(not t["in_odd"] for t in expected)
    assert counts["runtime_monitor.dropped_readings"] == sum(len(t["dropped"]) for t in expected)
    assert counts["runtime_monitor.out_of_odd_ticks"] > 0


def test_monitor_pass_through_cli(workdir, small):
    """The worker's stand-ins see one report per line, in order."""
    gen.gen_monitor_avp(5, workdir)
    result = worker.run_monitor(cli, workdir, None)
    assert result["items"] == gen.AVP_TICKS
    reports = (workdir / "reports.jsonl").read_text().splitlines()
    assert checks.make_checker("monitor_avp", workdir, 5).check(reports)[0] == 0


def test_assurance_checks_reject_each_perturbed_job(workdir, small):
    gen.gen_assurance_build(2, workdir)
    checker = checks.make_checker("assurance_build", workdir, 2)
    outputs = {name: job(workdir) for name, job in worker.JOBS}
    assert checker.verdicts(outputs) == dict.fromkeys(outputs, True)

    def perturbed(job, edit):
        copy = json.loads(json.dumps(outputs))
        edit(copy[job])
        return checker.verdicts(copy)

    cases = {
        "fta_infer": lambda o: o.update(top=o["top"] + 1e-11),
        "template_infer": lambda o: o["posterior"].update(
            {k: v + 1e-8 for k, v in o["posterior"].items()}),
        "onto_check": lambda o: o["violations"].pop(),
        "refine": lambda o: o["proposals"]["Fog"][0].__setitem__(0, o["proposals"]["Fog"][0][0] + 0.6),
    }
    for job, edit in cases.items():
        verdicts = perturbed(job, edit)
        assert not verdicts[job], job
        assert all(ok for name, ok in verdicts.items() if name != job), job
    verdicts = perturbed("onto_check", lambda o: o["query_hits"][0].append("X rdf_type Goal ."))
    assert not verdicts["onto_check"]


def test_host_speed_scales_each_interval_by_its_sample():
    host = worker.HostSpeed()
    nominal = worker.REF_NOMINAL_NS
    host.intervals = [(0, 100, nominal), (100, 200, 2 * nominal)]
    assert host.scaled(0, 200) == 150
    assert host.scaled(50, 150) == 50 + 25
    assert host.scaled(200, 300) == 0
