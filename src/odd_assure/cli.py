"""Command-line entry point wiring the file formats to the module operations.

One subcommand per workflow: validate the analysis artifacts, compile a fault
tree into a network, run a posterior query, measure scenario coverage, refine
ODD boundaries from traces, monitor an observation stream, synthesize a
stream, and check or query the safety ontology.

Diagnostics go to stderr, data to stdout. Exit codes: 0 success, 1 validation
or inference failure, 2 unreadable input. The ODD_ASSURE_LOG environment
variable (error, warn, info, debug) sets the stderr log level.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import json
import logging
import os
import sys

from . import (
    _base,
    bayes_core,
    boundary_refinement,
    confidence_templates,
    hara_fta,
    odd_model,
    runtime_monitor,
    safety_ontology,
)

log = logging.getLogger("odd_assure")

EXIT_OK = 0
EXIT_DEFECTS = 1
EXIT_UNREADABLE = 2

_PARSE_FAILURES = (OSError, UnicodeDecodeError, _base.DocumentError)


class FileContextError(Exception):
    """Wraps a module error with the name of the file being processed."""

    def __init__(self, path, cause: Exception):
        super().__init__(f"{path}: {cause}")
        self.cause = cause


def _load(loader, path, *args):
    try:
        return loader(path, *args)
    except _PARSE_FAILURES + (_base.ModelError,) as exc:
        raise FileContextError(path, exc) from exc


def _configure_logging() -> None:
    level_name = os.environ.get("ODD_ASSURE_LOG", "warn").lower()
    level = {
        "error": logging.ERROR,
        "warn": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }.get(level_name, logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s")


def _read_json(path, reader):
    with open(path, "r", encoding="utf-8") as fh:
        return reader(fh.read())


@_base.document_reader("scenario document")
def _scenario(doc) -> confidence_templates.ScenarioSpec:
    conditions = tuple(_base.json_array(c, "a condition", 2) for c in doc["conditions"])
    return confidence_templates.ScenarioSpec(doc.get("id", "scenario"), conditions)


@_base.document_reader("priors document")
def _priors(doc) -> dict[str, float]:
    return {k: _base.number(v, f"prior {k!r}") for k, v in _base.json_object(doc, "priors").items()}


def _read_rows(path) -> list[dict]:
    """The dataset's rows, each a dict keyed by the header (``_base.csv_table``)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.readlines()  # decoded first: a UnicodeDecodeError is a ValueError too
    try:
        header, rows, _ = _base.csv_table(lines)
    except ValueError as exc:
        raise _base.DocumentError(f"malformed dataset: {exc}") from exc
    return [dict(zip(header, cells)) for cells in rows]


# ---------------------------------------------------------------------------
# validate


def _cmd_validate(args) -> int:
    defects: list[str] = []
    spec = _load(odd_model.load_odd_spec, args.odd_file)
    # Overlaps in partition classes fail the parse above (exit 1 through the
    # exception path); overlaps left in non-partition classes are warnings.
    for defect in odd_model.validate_odd(spec):
        log.warning("%s: %s", args.odd_file, defect)

    if args.hara:
        hazards, events, relation, chains = _load(hara_fta.load_hara, args.hara)
        try:
            for hazard_id in hazards:
                fta = hara_fta.compute_fta(events[hazard_id], events.values(), relation)
                for defect in hara_fta.validate_fta(fta):
                    defects.append(f"{args.hara}: {defect}")
                for defect in hara_fta.check_oper_conditions(fta, spec):
                    defects.append(f"{args.hara}: {defect}")
        except hara_fta.HaraError as exc:
            raise FileContextError(args.hara, exc) from exc
        for chain in chains:
            for event_id in chain.members():
                try:
                    hara_fta.classify_event(chain, event_id)
                except hara_fta.InconsistentChain as exc:
                    defects.append(f"{args.hara}: InconsistentChain: {exc}")

    if args.bn:
        _load(bayes_core.load_bn, args.bn)  # build_net re-validates every invariant

    for line in dict.fromkeys(defects):  # hazards sharing an event share its defects
        print(line)
    if defects:
        return EXIT_DEFECTS
    print("ok")
    return EXIT_OK


# ---------------------------------------------------------------------------
# compile-fta


def _cmd_compile_fta(args) -> int:
    hazards, events, relation, _ = _load(hara_fta.load_hara, args.hara_file)
    priors = _load(_read_json, args.priors_file, _priors)
    try:
        if not hazards:
            raise hara_fta.DocumentError("no hazards declared")
        hazard_id = args.hazard or hazards[0]
        if hazard_id not in events:
            raise hara_fta.DanglingReference(f"no event {hazard_id!r}")
        fta = hara_fta.compute_fta(events[hazard_id], events.values(), relation)
    except hara_fta.HaraError as exc:
        raise FileContextError(args.hara_file, exc) from exc
    net = bayes_core.compile_fta_to_bn(fta, priors)
    bayes_core.save_bn(net, args.out_file)
    log.info("wrote %s (%d nodes)", args.out_file, len(net.nodes))
    return EXIT_OK


# ---------------------------------------------------------------------------
# infer


def _assignment(text: str) -> tuple[str, str]:
    """Argument type of a NAME=STATE option."""
    name, sep, state = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected NAME=STATE, got {text!r}")
    return name, state


def _value_assignment(text: str) -> tuple[str, float]:
    """Argument type of a STATE=VALUE option; the value is a finite number."""
    name, value = _assignment(text)
    try:
        return name, _base.number_text(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected STATE=NUMBER, got {text!r}") from None


def _cmd_infer(args) -> int:
    net = _load(bayes_core.load_bn, args.bn_file)
    evidence = bayes_core.EvidenceSet(dict(args.evidence))
    post = bayes_core.posterior(net, args.query, evidence)
    lines = [f"{post.node}={state} {prob:.6f}" for state, prob in zip(post.states, post.probs)]
    if args.values:  # before anything is printed, so that an error prints nothing
        mean, variance = bayes_core.mean_variance(post, dict(args.values))
        lines += [f"mean {mean:.6f}", f"variance {variance:.6f}"]
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# coverage


def _cmd_coverage(args) -> int:
    rows = _load(_read_rows, args.dataset)
    if args.scenario_file:
        scenario = _load(_read_json, args.scenario_file, _scenario)
    else:
        scenario = confidence_templates.ScenarioSpec("scenario", tuple(args.scenario))
    result = confidence_templates.scenario_coverage(rows, scenario)
    print(json.dumps(result._asdict()))  # scenario, n_occurrences, n_total, m
    return EXIT_OK


# ---------------------------------------------------------------------------
# refine


def _cmd_refine(args) -> int:
    records = _load(boundary_refinement.load_trace, args.trace_file)
    try:
        tree = boundary_refinement.fit_tree(
            records, max_depth=args.max_depth, min_leaf=args.min_leaf
        )
    except _base.DocumentError as exc:
        raise FileContextError(args.trace_file, exc) from exc
    if tree.constant_features:
        log.warning("no separating split found; emitting a single majority rule")
    rules = boundary_refinement.extract_rules(tree)
    for rule in rules:
        print(boundary_refinement.format_rule(rule))
    if args.odd:
        spec = _load(odd_model.load_odd_spec, args.odd)
        report = boundary_refinement.refine_boundaries(spec, rules)
        doc = boundary_refinement.report_to_document(report)
        if args.report_out:
            with open(args.report_out, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, indent=2) + "\n")
        else:
            print(json.dumps(doc))
    return EXIT_OK


# ---------------------------------------------------------------------------
# monitor


def _cmd_monitor(args) -> int:
    bundle = _load(runtime_monitor.load_bundle, args.bundle)
    if args.oodd_policy:
        bundle = dataclasses.replace(bundle, oodd_policy=args.oodd_policy)

    if args.stream == "-":
        lines = sys.stdin
    else:
        lines = open(args.stream, "r", encoding="utf-8")
    if args.format == "csv":
        csv.writer(sys.stdout).writerow(runtime_monitor.REPORT_CSV_COLUMNS)
        render = runtime_monitor.report_to_csv_line
    else:
        render = runtime_monitor.report_to_json_line

    def observations():
        try:
            for line_no, line in enumerate(lines, start=1):
                if line.strip():
                    yield runtime_monitor.parse_observation(line)
        except UnicodeDecodeError as exc:
            raise FileContextError(args.stream, exc) from exc
        except runtime_monitor.DocumentError as exc:
            raise FileContextError(f"{args.stream} line {line_no}", exc) from exc

    try:
        reports = runtime_monitor.run(
            bundle, observations(), on_out_of_order=args.on_out_of_order
        )
        write = sys.stdout.write
        for report in reports:
            write(render(bundle, report))
    finally:
        if lines is not sys.stdin:
            lines.close()
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth


def _cmd_synth(args) -> int:
    trace = _load(_read_json, args.script, lambda doc: runtime_monitor.synth_trace(doc, args.seed))
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for obs in trace:
            print(runtime_monitor.observation_to_line(obs), file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


# ---------------------------------------------------------------------------
# onto


def _cmd_onto(args) -> int:
    graph = _load(safety_ontology.load_graph, args.graph_file)
    if args.onto_command == "check":
        violations = safety_ontology.check_axioms(graph)
        for v in violations:
            print(v)
        return EXIT_DEFECTS if violations else EXIT_OK
    # query: ? is the wildcard in each of the three positions
    terms = []
    for token in (args.subject, args.predicate, args.object):
        terms.append(None if token == "?" else safety_ontology.parse_term(token))
    for triple in safety_ontology.query(graph, *terms):
        print(
            f"{safety_ontology.format_term(triple.subject)} {triple.predicate} "
            f"{safety_ontology.format_term(triple.object)} ."
        )
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odd-assure",
        description="Turn ODD and hazard analysis files into executable "
        "Bayesian confidence models and monitor live observations with them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run all structural validators over the given files")
    p.add_argument("odd_file")
    p.add_argument("--hara", help="HARA file to validate and cross-check against the ODD")
    p.add_argument("--bn", help="Bayesian network file to validate")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("compile-fta", help="compile a hazard's fault tree into a BN file")
    p.add_argument("hara_file")
    p.add_argument("priors_file", help="JSON map of atomic event id to prior probability")
    p.add_argument("out_file")
    p.add_argument("--hazard", help="hazard id (default: first hazard in the file)")
    p.set_defaults(func=_cmd_compile_fta)

    p = sub.add_parser("infer", help="print a posterior distribution from a BN file")
    p.add_argument("bn_file")
    p.add_argument("--query", required=True, help="node to query")
    p.add_argument("--evidence", action="append", default=[], type=_assignment,
                   metavar="NODE=STATE")
    p.add_argument("--values", action="append", default=[], type=_value_assignment,
                   metavar="STATE=VALUE", help="state values; prints mean/variance when given")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("coverage", help="scenario coverage of an attribute-state dataset")
    p.add_argument("dataset", help="CSV with one column per ODD class, cells are states")
    scenario = p.add_mutually_exclusive_group(required=True)
    scenario.add_argument("--scenario", action="append", default=[], type=_assignment,
                          metavar="CLASS=STATE")
    scenario.add_argument("--scenario-file", help="JSON scenario spec {id, conditions}")
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser("refine", help="fit a boundary tree to a trace and print the rules")
    p.add_argument("trace_file", help="CSV of feature columns plus a Yes/No `label` column")
    p.add_argument("--odd", help="ODD spec to project boundary proposals against")
    p.add_argument("--max-depth", type=int, default=6)
    p.add_argument("--min-leaf", type=int, default=20)
    p.add_argument("--report-out", help="write the proposal report to this file")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("monitor", help="stream observations through a model bundle")
    p.add_argument("bundle", help="bundle manifest JSON")
    p.add_argument("--stream", default="-", help="observation JSONL file, or - for stdin")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl",
                   help="report format; csv columns: " + ",".join(runtime_monitor.REPORT_CSV_COLUMNS))
    p.add_argument("--oodd-policy", choices=(runtime_monitor.DROP, runtime_monitor.WORST_CASE),
                   help="override the bundle's out-of-ODD reading policy")
    p.add_argument("--on-out-of-order", choices=("raise", "warn"), default="raise")
    p.set_defaults(func=_cmd_monitor)

    p = sub.add_parser("synth", help="generate a synthetic observation stream")
    p.add_argument("script", help="scenario script JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("onto", help="check or query a safety ontology graph")
    onto_sub = p.add_subparsers(dest="onto_command", required=True)
    pc = onto_sub.add_parser("check", help="exit nonzero iff axiom violations exist")
    pc.add_argument("graph_file")
    pc.set_defaults(func=_cmd_onto)
    pq = onto_sub.add_parser("query", help="pattern query; ? is a wildcard")
    pq.add_argument("graph_file")
    pq.add_argument("subject")
    pq.add_argument("predicate")
    pq.add_argument("object")
    pq.set_defaults(func=_cmd_onto)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    Once the command line is parsed, every object that exists then (the
    imported modules, numpy's included) is left outside the cyclic garbage
    collector until the process exits (``gc.freeze()``), so interpreter
    shutdown does not walk and free that start-up heap. An in-process caller
    that keeps running afterwards can call ``gc.unfreeze()``."""
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    gc.freeze()
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream consumer hung up; keep the interpreter's shutdown flush
        # from stack-tracing into a dead pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except FileContextError as exc:
        log.error("%s", exc)
        return (
            EXIT_UNREADABLE
            if isinstance(exc.cause, _PARSE_FAILURES)
            else EXIT_DEFECTS
        )
    except _PARSE_FAILURES as exc:  # ahead of ModelError, which many of them also are
        log.error("%s", exc)
        return EXIT_UNREADABLE
    except _base.ModelError as exc:
        log.error("%s", exc)
        return EXIT_DEFECTS


if __name__ == "__main__":
    sys.exit(main())
