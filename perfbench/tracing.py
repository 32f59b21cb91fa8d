"""Per-layer tracing from outside the program.

`Tracer.install` replaces the public functions listed in `TARGETS` with
wrappers that record a span (name, start, end, parent) per call, and every
reference to them held by a miniref module, so calls between layers are
seen as well as calls from the benchmark.  Self time is a span's duration
minus the durations of its direct child spans.  Nothing under `src/` is
edited; `uninstall` puts the originals back.  The metrics reported are the
`per_layer` list of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SPAN_CAP = 50_000  # spans kept for the spans file; later calls are only counted


def _candidates(tr, result):
    tr.extra["matcher.match.candidates"] += len(result)


def _accepted(tr, result):
    tr.extra["semlib.eval_condition.accepted"] += bool(result[0])


def _decided(tr, result):
    tr.extra["verifier.prover.scc_prove.decided"] += result.status in ("proved", "disproved")


def _samples(tr, result):
    tr.extra["verifier.dynamic.dynamic_verify.samples"] += sum(n for _, n in result.checked)


# (module under miniref, attribute path, layer name, observer of the result)
TARGETS = (
    ("graph", "SemanticGraph.rebuild", "graph.rebuild", None),
    ("graph", "SemanticGraph.txn_begin", "graph.txn_begin", None),
    ("graph", "SemanticGraph.txn_rollback", "graph.txn_rollback", None),
    ("graph", "SemanticGraph.txn_replace", "graph.txn_replace", None),
    ("printer", "splice", "printer.splice", None),
    ("engine", "Engine.run", "engine.run", None),
    ("matcher", "match", "matcher.match", _candidates),
    ("semlib", "eval_condition", "semlib.eval_condition", _accepted),
    ("lexer", "tokenize", "lexer.tokenize", None),
    ("parser", "parse_module", "parser.parse_module", None),
    ("tree", "copy_fresh", "tree.copy_fresh", None),
    ("dsl", "parse_refl", "dsl.parse_refl", None),
    ("verifier.goals", "goal_from_rule", "verifier.goals", None),
    ("verifier.goals", "goals_from_dataflow", "verifier.goals", None),
    ("verifier.goals", "goals_from_application", "verifier.goals", None),
    ("verifier.prover", "scc_prove", "verifier.prover.scc_prove", _decided),
    ("verifier.rules", "step_config", "verifier.rules.step_config", None),
    ("verifier.interp", "interpret", "verifier.interp.interpret", None),
    ("verifier.dynamic", "dynamic_verify", "verifier.dynamic.dynamic_verify", _samples),
)

# Ratio metric -> (numerator counter, layer whose calls are the base)
RATIOS = {
    "semlib.eval_condition.accept_ratio": ("semlib.eval_condition.accepted",
                                           "semlib.eval_condition"),
    "verifier.prover.scc_prove.decided_ratio": ("verifier.prover.scc_prove.decided",
                                                "verifier.prover.scc_prove"),
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {name: 0 for _, _, name, _ in TARGETS}
        self.self_s: dict[str, float] = {name: 0.0 for name in self.calls}
        self.extra: dict[str, int] = defaultdict(int)  # counters kept by the observers
        self.spans: list[list] = []  # [name, start, end, parent span index or None]
        self.dropped = 0
        self._stack: list[list] = []  # [name, start, child seconds, span index]
        self._patches: list[tuple] = []
        self.t0 = time.perf_counter()

    def _wrap(self, name: str, fn, observe):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            stack = self._stack
            span = None
            if len(self.spans) < SPAN_CAP:
                span = len(self.spans)
                self.spans.append([name, start - self.t0, None,
                                   stack[-1][3] if stack else None])
            else:
                self.dropped += 1
            frame = [name, start, 0.0, span]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if span is not None:
                    self.spans[span][2] = end - self.t0
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in the currently imported miniref."""
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "miniref" or n.startswith("miniref.")]
        for module_name, path, name, observe in TARGETS:
            owner = sys.modules[f"miniref.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, observe)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            for mod in loaded:  # `from .x import f` copies held by other modules
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self, overhead_ratio: float) -> dict:
        """Every per-layer metric of BENCHMARK.json, by name."""
        out = {}
        for m in json.loads(BENCHMARK.read_text())["per_layer"]:
            metric = m["name"]
            layer, _, stat = metric.rpartition(".")
            if metric == "trace.overhead_ratio":
                value = overhead_ratio
            elif stat == "calls":
                value = self.calls[layer]
            elif stat == "self_ms":
                value = self.self_s[layer] * 1000.0
            elif metric in RATIOS:
                num, base = RATIOS[metric]
                calls = self.calls[base]
                value = self.extra[num] / calls if calls else 0.0
            else:
                value = self.extra[metric]
            out[metric] = {"value": value, "unit": m["unit"]}
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({"clock": "seconds since the tracer was created",
                       "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "dropped": self.dropped}, f)
