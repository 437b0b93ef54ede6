"""One benchmark pass in a fresh single-threaded process.

Usage: python3 perfbench/worker.py WORKLOAD INPUT_DIR TRACE(0|1)

Imports the program, does the workload's work once, writes the outputs the
checks need into INPUT_DIR (reports.jsonl or outputs.json) and prints one
JSON document on stdout: timestamps of the program clock (see ``HostSpeed``;
``first_ns`` is comparable with the parent's monotonic clock), the work time
scaled to the reference speed for untraced passes, and, when tracing,
per-layer numbers.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
from pathlib import Path

# ---------------------------------------------------------------------------
# Host speed. On a shared VM the other tenants slow all interpreter work by up
# to 3x for periods of seconds to minutes. Throughout an untraced pass a
# timer signal runs a fixed pure-Python reference loop every SAMPLE_S
# seconds; each interval between samples is scaled by the loop's nominal
# time over its time measured at the interval's end. The handler's own time
# is left out of every timestamp ``clock`` gives.

SAMPLE_S = 0.05
REF_NOMINAL_NS = 460_000  # the reference loop's median on the reference VM in fast periods


class _Slot:
    __slots__ = ("a", "b")

    def __init__(self, a, b) -> None:
        self.a, self.b = a, b


def reference_loop() -> None:
    """Fixed pure-Python work: dict, tuple, str, object and sort traffic."""
    table = {}
    for i in range(400):
        table[(i % 31, "x")] = str(i)
        sum(j * j for j in range(10))
    out = []
    for i in range(300):
        slot = _Slot(i, (i, "s"))
        out.append(slot.a + len(slot.b))
        if len(out) > 50:
            out.clear()
    sorted(range(200), key=lambda x: -x)


class HostSpeed:
    """Samples the reference loop from SIGALRM while started.

    ``intervals`` holds [start, end, reference ns] per sample, in the
    program clock (monotonic time minus the time spent in the handler)."""

    def __init__(self) -> None:
        self.paused = 0
        self.begin = None
        self.sampling = False
        self.intervals: list[tuple[int, int, int]] = []

    def start(self) -> None:
        self.begin = clock()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.sample()

    def sample(self, *_) -> None:
        if self.sampling:  # a signal that arrives during the handler
            return
        self.sampling = True
        enter = time.monotonic_ns()
        reference_loop()
        ref = time.monotonic_ns() - enter
        start = self.intervals[-1][1] if self.intervals else self.begin
        self.intervals.append((start, enter - self.paused, ref))
        self.paused += time.monotonic_ns() - enter
        self.sampling = False

    def scaled(self, a: int, b: int) -> float:
        """The program-clock span [a, b] in ns at the reference's nominal
        speed."""
        total = 0.0
        for start, end, ref in self.intervals:
            overlap = min(b, end) - max(a, start)
            if overlap > 0:
                total += overlap * REF_NOMINAL_NS / ref
        return total


host = HostSpeed()


def clock() -> int:
    return time.monotonic_ns() - host.paused


class Feed:
    """Stand-in for stdin: hands the monitor one line of the stream file at a
    time and stamps when each line was handed in."""

    def __init__(self, stream, tracer) -> None:
        self.stream = stream
        self.handed: list[int] = []
        self.tracer = tracer

    def __iter__(self):
        for line in self.stream:
            if self.tracer is not None:
                self.tracer.item = len(self.handed)
            self.handed.append(clock())
            yield line


class Sink:
    """Stand-in for stdout: writes the reports through to a file and stamps
    when each report line is complete."""

    def __init__(self, out, tracer) -> None:
        self.out = out
        self.written: list[int] = []
        self.tracer = tracer

    def write(self, text: str) -> int:
        self.out.write(text)
        if text.endswith("\n"):
            now = clock()
            self.written.append(now)
            if self.tracer is not None:
                # serialize = report_to_document + json.dumps + print
                self.tracer.enclose(
                    "runtime_monitor.serialize",
                    self.tracer.last("runtime_monitor.report_to_document"),
                    now,
                )
        return len(text)

    def flush(self) -> None:
        pass


def _quantile(sorted_values, pct: int):
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, -(-pct * len(sorted_values) // 100))
    return sorted_values[rank - 1]


def run_monitor(cli, indir: Path, tracer) -> dict:
    bundle = next(indir.glob("*_bundle.json"))
    with open(indir / "stream.jsonl", encoding="utf-8") as stream, \
            open(indir / "reports.jsonl", "w", encoding="utf-8") as out:
        feed, sink = Feed(stream, tracer), Sink(out, tracer)
        saved = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = feed, sink
        try:
            status = cli.main(["monitor", str(bundle), "--stream", "-"])
        finally:
            sys.stdin, sys.stdout = saved
    if status != 0 or len(sink.written) != len(feed.handed):
        raise SystemExit(f"monitor exited {status} after {len(sink.written)} of "
                         f"{len(feed.handed)} reports")
    latencies = sorted(w - h for w, h in zip(sink.written, feed.handed))
    return {
        "first_ns": feed.handed[0],
        "end_ns": sink.written[-1],
        "items": len(feed.handed),
        "tick_p50_ns": _quantile(latencies, 50),
        "tick_p99_ns": _quantile(latencies, 99),
    }


# ---------------------------------------------------------------------------
# assurance_build jobs; each reads its input files and returns what the
# checks need


def job_fta(indir: Path) -> dict:
    from odd_assure import bayes_core, hara_fta

    hazards, events, relation, _ = hara_fta.load_hara(indir / "hara.json")
    priors = json.loads((indir / "priors.json").read_text(encoding="utf-8"))
    fta = hara_fta.compute_fta(events[hazards[0]], events.values(), relation)
    net = bayes_core.compile_fta_to_bn(fta, priors)
    bayes_core.save_bn(net, indir / "compiled_bn.json")
    net = bayes_core.load_bn(indir / "compiled_bn.json")
    return {"top": bayes_core.posterior(net, net.objective).as_dict()["occurs"]}


def job_template(indir: Path) -> dict:
    from odd_assure import bayes_core, confidence_templates

    doc = json.loads((indir / "template.json").read_text(encoding="utf-8"))
    config = confidence_templates.TemplateConfig(feature_names=tuple(doc["feature_names"]))
    net = confidence_templates.build_testing_adequacy_bn(config)
    post = bayes_core.posterior(net, net.objective, bayes_core.EvidenceSet(doc["evidence"]))
    return {"posterior": post.as_dict()}


def job_onto(indir: Path) -> dict:
    from odd_assure import safety_ontology as so

    graph = so.load_graph(indir / "ontology.nt")
    violations = so.check_axioms(graph)
    queries = json.loads((indir / "queries.json").read_text(encoding="utf-8"))
    hits = []
    for pattern in queries:
        terms = [None if tok is None else so.parse_term(tok) for tok in pattern]
        hits.append([
            f"{so.format_term(t.subject)} {t.predicate} {so.format_term(t.object)} ."
            for t in so.query(graph, *terms)
        ])
    return {
        "triples": len(graph.triples),
        "violations": [
            [v.axiom, so.format_term(v.triple.subject), v.triple.predicate,
             so.format_term(v.triple.object)]
            for v in violations
        ],
        "query_hits": hits,
    }


def job_refine(indir: Path) -> dict:
    from odd_assure import boundary_refinement as br, odd_model

    records = br.parse_trace((indir / "trace.csv").read_text(encoding="utf-8"))
    tree = br.fit_tree(records, max_depth=6, min_leaf=20)
    rules = br.extract_rules(tree)
    report = br.refine_boundaries(odd_model.load_odd_spec(indir / "trace_odd.json"), rules)
    return {
        "rules": len(rules),
        "proposals": {p.class_name: [[iv.lo, iv.hi] for iv in p.proposed] for p in report.proposals},
    }


JOBS = (("fta_infer", job_fta), ("template_infer", job_template),
        ("onto_check", job_onto), ("refine", job_refine))


def run_assurance(indir: Path, tracer) -> dict:
    job_ns, spans, outputs = {}, {}, {}
    first = clock()
    for item, (name, job) in enumerate(JOBS):
        if tracer is not None:
            tracer.item = item
        start = clock()
        outputs[name] = job(indir)
        end = clock()
        job_ns[name] = end - start
        spans[name] = start, end
    end = clock()
    (indir / "outputs.json").write_text(json.dumps(outputs), encoding="utf-8")
    return {"first_ns": first, "end_ns": end, "items": len(JOBS), "job_ns": job_ns,
            "job_spans": spans}


def layer_numbers(tracer, result: dict) -> dict:
    """Per-layer numbers of this pass from its spans.

    Every traced function gets its call count and its share of the pass's
    work time (spans of nested layers overlap, so shares do not add up).
    The remaining numbers are the per-call and total times the ROADMAP's
    baselines are quoted in.
    """
    from tracing import TRACED

    spans = tracer.durations()
    work = result["end_ns"] - result["first_ns"]

    def times(name, kind="total"):
        return spans.get(name, {}).get(kind, [])

    def mean_us(name, kind="total"):
        values = times(name, kind)
        return sum(values) / len(values) / 1e3 if values else 0.0

    out = {}
    for name in TRACED + ("runtime_monitor.serialize",):
        out[f"{name}.calls"] = len(times(name))
        out[f"{name}.share"] = sum(times(name)) / work
    for name in ("runtime_monitor.step", "cli.main"):
        out[f"{name}.self_share"] = sum(times(name, "self")) / work
    posts = sorted(times("bayes_core.posterior"))
    calls = tracer.evidence_calls
    out.update({
        "odd_model.interpret.us": mean_us("odd_model.interpret"),
        "runtime_monitor.parse_observation.us": mean_us("runtime_monitor.parse_observation"),
        "runtime_monitor.step.self_us": mean_us("runtime_monitor.step", "self"),
        "runtime_monitor.serialize.us": mean_us("runtime_monitor.serialize"),
        "bayes_core.posterior.us": mean_us("bayes_core.posterior"),
        "bayes_core.posterior.p99_us": _quantile(posts, 99) / 1e3 if posts else 0.0,
        "bayes_core.posterior.distinct_evidence": len(tracer.evidence_keys),
        "bayes_core.posterior.evidence_repeat_frac":
            1.0 - len(tracer.evidence_keys) / calls if calls else 0.0,
        "safety_ontology.query.us": mean_us("safety_ontology.query"),
        "cli.main.self_ms": sum(times("cli.main", "self")) / 1e6,
    })
    for name in ("odd_model.load_odd_spec", "runtime_monitor.load_bundle",
                 "bayes_core.build_net", "bayes_core.compile_fta_to_bn", "bayes_core.load_bn",
                 "bayes_core.save_bn", "hara_fta.load_hara", "hara_fta.compute_fta",
                 "hara_fta.validate_fta", "confidence_templates.build_testing_adequacy_bn",
                 "safety_ontology.import_graph", "safety_ontology.check_axioms",
                 "boundary_refinement.parse_trace", "boundary_refinement.fit_tree",
                 "boundary_refinement.extract_rules", "boundary_refinement.refine_boundaries"):
        out[f"{name}.ms"] = sum(times(name)) / 1e6
    return out


def main(argv: list[str]) -> None:
    workload, indir, trace = argv[0], Path(argv[1]), argv[2] == "1"
    start = clock()
    if not trace:
        host.start()
    from odd_assure import cli

    import_ns = clock() - start
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    if workload.startswith("monitor_"):
        result = run_monitor(cli, indir, tracer)
    else:
        result = run_assurance(indir, tracer)
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["import_ns"] = import_ns
    spans = result.pop("job_spans", {})
    result["start_ns"] = start
    if tracer is None:
        host.stop()
        refs = sorted(ref for _, _, ref in host.intervals)
        result.update(
            setup_ref_ns=host.scaled(start, result["first_ns"]),
            work_ref_ns=host.scaled(result["first_ns"], result["end_ns"]),
            paused_ns=host.paused,
            host_slowdown=refs[len(refs) // 2] / REF_NOMINAL_NS,
        )
        if spans:
            result["job_ref_ns"] = {name: host.scaled(*span) for name, span in spans.items()}
    else:
        result["layers"] = layer_numbers(tracer, result)
        tracer.dump(indir / "spans.tsv")
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
