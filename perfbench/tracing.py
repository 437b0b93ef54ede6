"""Span recording around the program's module-level functions.

The tracer replaces a function with a timing wrapper in every ``odd_assure``
module that holds a reference to it. The program looks these names up through
the module at call time, so the wrapper sees every call. Spans stay in memory
until the pass ends.
"""

from __future__ import annotations

import importlib
import sys
import time

# Layer boundaries timed in the traced run: <module>.<function>.
TRACED = (
    "cli.main",
    "odd_model.interpret",
    "odd_model.load_odd_spec",
    "runtime_monitor.load_bundle",
    "runtime_monitor.parse_observation",
    "runtime_monitor.step",
    "runtime_monitor.report_to_document",
    "bayes_core.posterior",
    "bayes_core.mean_variance",
    "bayes_core.build_net",
    "bayes_core.compile_fta_to_bn",
    "bayes_core.load_bn",
    "bayes_core.save_bn",
    "hara_fta.load_hara",
    "hara_fta.compute_fta",
    "hara_fta.validate_fta",
    "confidence_templates.build_testing_adequacy_bn",
    "safety_ontology.import_graph",
    "safety_ontology.check_axioms",
    "safety_ontology.query",
    "boundary_refinement.parse_trace",
    "boundary_refinement.fit_tree",
    "boundary_refinement.extract_rules",
    "boundary_refinement.refine_boundaries",
)

NAME, START, END, PARENT, ITEM = range(5)


class Tracer:
    """Records [name, start_ns, end_ns, parent index, item id] per call.

    ``item`` is the tick or job the caller is working on; the benchmark sets
    it. Evidence sets passed to ``posterior`` are counted so that the share
    of repeated evidence can be reported.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = 0
        self.evidence_calls = 0
        self.evidence_keys: set = set()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.monotonic_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, self.item])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][END] = clock()
                stack.pop()

        return traced

    def _count_evidence(self, fn):
        def counted(net, query, evidence=None):
            self.evidence_calls += 1
            items = frozenset(evidence.assignments.items()) if evidence else frozenset()
            self.evidence_keys.add((id(net), query, items))
            return fn(net, query, evidence)

        return counted

    def install(self) -> None:
        for qualified in TRACED:
            module_name, attr = qualified.rsplit(".", 1)
            original = getattr(importlib.import_module(f"odd_assure.{module_name}"), attr)
            wrapper = self._wrap(qualified, original)
            if qualified == "bayes_core.posterior":
                wrapper = self._count_evidence(wrapper)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("odd_assure"):
                    continue
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, wrapper)

    def enclose(self, name: str, child: int, end_ns: int) -> None:
        """Add a span ``name`` from the start of span ``child`` to ``end_ns``
        under the child's parent, and move the child beneath it."""
        span = self.spans[child]
        self.spans.append([name, span[START], end_ns, span[PARENT], span[ITEM]])
        span[PARENT] = len(self.spans) - 1

    def last(self, name: str) -> int:
        for idx in range(len(self.spans) - 1, -1, -1):
            if self.spans[idx][NAME] == name:
                return idx
        raise LookupError(name)

    def durations(self) -> dict[str, dict[str, list[int]]]:
        """Per span name: total and self durations (ns) of every call. Self
        time is the span minus the time its child spans cover."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, list[int]]] = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"total": [], "self": []})
            entry["total"].append(end - start)
            entry["self"].append(end - start - child_ns[idx])
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\titem\n")
            for span in self.spans:
                fh.write("\t".join(str(v) for v in span) + "\n")
