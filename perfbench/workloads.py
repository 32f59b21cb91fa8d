"""The three workloads: seeded operations on miniref and their checks.

An operation's `run` does the user-visible work (what one `refl` command
does, minus file I/O) and is timed; its `check` compares the result with
the oracle in `oracle.py` and is not timed.  Program functions are always
looked up through their module (`P.parser.parse_module`), so that the
traced run sees the calls once `tracing.Tracer.install` has wrapped them.
"""

from __future__ import annotations

import importlib
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import oracle

MODULES = (
    "tree", "lexer", "parser", "printer", "graph", "matcher", "semlib", "dsl",
    "engine", "verifier.config", "verifier.rules", "verifier.interp",
    "verifier.prover", "verifier.goals", "verifier.dynamic",
)


@dataclass
class Op:
    kind: str  # operation type; with `size`, names the op in reports
    size: int
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when correct, else the reason
    # The exact reason `check` gives for a fault named in README.md; any
    # other failure of the op is unexpected.
    known_fault: str | None = None
    warm_up: bool = True  # False where another kind's warm-up runs the same code

    @property
    def label(self) -> str:
        return f"{self.kind}@{self.size}"


def load_program(src: Path) -> SimpleNamespace:
    """Import miniref afresh (dropping any earlier import) and return its
    modules by short name, e.g. `P.parser`, `P.interp`."""
    for name in [m for m in sys.modules if m == "miniref" or m.startswith("miniref.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {m: importlib.import_module(f"miniref.{m}") for m in MODULES}
    return SimpleNamespace(src=src, **{m.rpartition(".")[2]: mod for m, mod in mods.items()})


def load_catalog(P) -> list:
    defs = []
    for path in sorted((P.src / "miniref" / "definitions").glob("*.refl")):
        defs.extend(P.dsl.parse_refl(path.read_text()))
    return defs


def _apply(P, defs, source: bytes, module: str, refactoring: str, target, args=()):
    """Parse, build the graph, run one refactoring and render the module.
    `target(graph)` picks the target once the graph exists."""
    graph = P.graph.build_graph([P.parser.parse_module(source)])
    outcome = P.engine.Engine(graph, defs).run(refactoring, target(graph), list(args))
    return outcome.ok, outcome.reason, graph.render(module)


def _expect_bytes(expected: bytes, ok_wanted: bool = True):
    def check(result) -> str | None:
        ok, reason, rendered = result
        if ok != ok_wanted:
            return f"refactoring {'failed: ' + reason if ok_wanted else 'succeeded'}"
        if rendered != expected:
            line = next(
                (i for i, (a, b) in enumerate(
                    zip(rendered.split(b"\n"), expected.split(b"\n")), 1) if a != b),
                min(rendered.count(b"\n"), expected.count(b"\n")) + 1,
            )
            what = "rejected refactoring changed the source" if not ok_wanted else \
                "output differs from the oracle"
            return f"{what} at line {line}"
        return None

    return check


# -- rename_callers -------------------------------------------------------------------

CALLER_LADDER = (5, 10, 20, 40)
# The stepwise rename keeps failing on the export list for every module, so
# its inputs are fixed: the share of failed ops must not depend on --seed.
STEPWISE_SEED = 7
STEPWISE_FAULT = "the export list still names the old function"
# Functions that do not call the target, in the one module renamed at a
# size where txn_begin's whole-module copy is a visible share of peak memory.
LARGE_FILLER = 300


def _function(spec: oracle.CallerModule):
    return lambda g: g.functions[(spec.module, spec.target, spec.arity)]


def _expect_stepwise(spec: oracle.CallerModule):
    """The stepwise rename's known fault is exactly the correct output with
    the old name left in the export list; any other output is a failure."""
    correct = _expect_bytes(spec.render(name=spec.new_name))
    faulty = spec.render(name=spec.new_name, exported=spec.target)

    def check(result) -> str | None:
        ok, _, rendered = result
        return STEPWISE_FAULT if ok and rendered == faulty else correct(result)

    return check


def rename_callers(P, seed: int) -> list[Op]:
    defs = load_catalog(P)
    rng = random.Random(seed)
    ops = []
    for n in CALLER_LADDER:
        spec = oracle.caller_module(rng, n, 2)
        ops.append(Op("rename_function", n, lambda s=spec: _apply(
            P, defs, s.render(), s.module, "rename_function", _function(s), [s.new_name]),
            _expect_bytes(spec.render(name=spec.new_name))))
        spec = oracle.caller_module(rng, n, 3)
        ops.append(Op("tuple_function_arguments", n, lambda s=spec: _apply(
            P, defs, s.render(), s.module, "tuple_function_arguments", _function(s)),
            _expect_bytes(spec.render(tupled=True))))
        spec = oracle.caller_module(random.Random(STEPWISE_SEED * 1000 + n), n, 2)
        ops.append(Op("rename_function_stepwise", n, lambda s=spec: _apply(
            P, defs, s.render(), s.module, "rename_function_stepwise",
            lambda g, s=s: g.node(_function(s)(g).form), [s.new_name]),
            _expect_stepwise(spec), known_fault=STEPWISE_FAULT))
        spec = oracle.caller_module(rng, n, 3)
        ops.append(Op("rename_clash", n, lambda s=spec: _apply(
            P, defs, s.render(), s.module, "rename_function", _function(s), ["twin"]),
            _expect_bytes(spec.render(), ok_wanted=False)))
    spec = oracle.caller_module(rng, 1, 2, filler=LARGE_FILLER)
    ops.append(Op("rename_large_module", LARGE_FILLER, lambda s=spec: _apply(
        P, defs, s.render(), s.module, "rename_function", _function(s), [s.new_name]),
        _expect_bytes(spec.render(name=spec.new_name)), warm_up=False))
    return ops


# -- test_long_lists --------------------------------------------------------------------

LIST_LADDER = (4, 8, 16, 32, 64)


def test_long_lists(P, seed: int) -> list[Op]:
    load_catalog(P)  # part of every workload's set-up, though no op here uses it
    rng = random.Random(seed)
    ops = []
    for length in LIST_LADDER:
        pair = oracle.fold_pair(rng, length)
        total = str(pair.total)

        def refl_test(before: bytes, after: bytes):
            return P.dynamic.dynamic_verify(
                P.parser.parse_module(before), P.parser.parse_module(after), samples=1)

        def check_equiv(report) -> str | None:
            if report.checked != [("run/0", 1)] or report.cutoffs:
                return f"expected one sample of run/0, got {report.checked}, " \
                       f"{report.cutoffs} cutoffs"
            if report.divergences:
                return "refl test found a divergence in an equivalent pair"
            return None

        def check_mutant(report, total=total) -> str | None:
            if len(report.divergences) != 1:
                return f"expected 1 divergence in a mutant pair, got {len(report.divergences)}"
            d = report.divergences[0]
            got = (oracle.term_text(getattr(d.before, "term", None)),
                   oracle.term_text(getattr(d.after, "term", None)))
            want = (total, str(int(total) + 1))
            return None if got == want else f"mutant results {got}, expected {want}"

        def run_pair(pair=pair):
            return [P.interp.interpret(P.parser.parse_expr("run()"),
                                       defs=P.parser.parse_module(src))
                    for src in (pair.direct(), pair.accumulator())]

        def check_values(results, total=total) -> str | None:
            got = [oracle.term_text(getattr(r, "term", None)) for r in results]
            return None if got == [total, total] else f"run() gave {got}, expected {total}"

        ops.append(Op("test_equiv", length, lambda p=pair: refl_test(
            p.direct(), p.accumulator()), check_equiv))
        ops.append(Op("test_mutant", length, lambda p=pair: refl_test(
            p.direct(), p.mutant()), check_mutant))
        ops.append(Op("interpret_pair", length, run_pair, check_values))
    return ops


# -- refactor_verify ----------------------------------------------------------------------

# Per round: 7 sub-millisecond ops (verify-rule, the looping pair),
# 6 * TRUST_MODULES trust-loop ops and TUPLES_PER_WIDTH tuples per width.
# These counts put op_ms_p50 in the middle of the extract_listhead,
# add_module_qualifier and width-50 ops, and op_ms_p90 in the middle of the
# width-200 ops, away from the gaps between op sizes, where a pooled
# quantile jumps with the host's speed.
TRUST_MODULES = 3
TUPLES_PER_WIDTH = 2
VERIFY_RULES = ("extract_listhead", "wrap_into_fun", "add_module_qualifier",
                "listcomprehension_to_map", "fun2value", "common_tail")
WIDTH_LADDER = (50, 100, 200, 400)
TEST_SAMPLES = 5
LOOP_FAULT = "verify-app PROVED f(X) -> f(X) equal to f(X) -> X"


def _verify_app(P, before: bytes, after: bytes):
    """`refl verify-app`, then `refl test` (its default sampling seed, so the
    samples do not vary with --seed) when a goal stays UNKNOWN."""
    b, a = P.parser.parse_module(before), P.parser.parse_module(after)
    statuses = [P.prover.scc_prove(g).status for g in P.goals.goals_from_application(b, a)]
    report = None
    if "unknown" in statuses:
        report = P.dynamic.dynamic_verify(b, a, samples=TEST_SAMPLES)
    return statuses, report


def refactor_verify(P, seed: int) -> list[Op]:
    defs = load_catalog(P)
    user_defs = P.dsl.parse_refl(oracle.GROUP_PREFIX)
    rng = random.Random(seed)
    ops = []

    def trust_loop(case: oracle.RuleCase):
        ok, reason, after = _apply(
            P, defs, case.source, case.module, case.rule,
            lambda g: g.node(g.lookup_at(case.module, *case.at)))
        if not ok:
            return ok, reason, after, None, None
        return (ok, reason, after) + _verify_app(P, case.source, after)

    def check_trust(case: oracle.RuleCase):
        def check(result) -> str | None:
            ok, reason, after, statuses, report = result
            if not ok:
                return f"refactoring failed: {reason}"
            if "disproved" in statuses:
                return f"verify-app DISPROVED an equivalent pair: {statuses}"
            if report is not None and not report.ok:
                return "refl test found a divergence in an equivalent pair"
            call = P.parser.parse_expr(f"f({case.arg})")
            got = P.interp.interpret(call, defs=P.parser.parse_module(after))
            got = oracle.term_text(getattr(got, "term", None))
            return None if got == case.expected else \
                f"f({case.arg}) = {got} after the rewrite, expected {case.expected}"
        return check

    for index in range(TRUST_MODULES):
        for case in oracle.rule_cases(rng, index):
            ops.append(Op(case.rule, index, lambda c=case: trust_loop(c), check_trust(case)))

    catalog = {d.name: d for d in defs}

    def verify_rule(name: str):
        d = catalog[name]
        if isinstance(d, P.dsl.RuleDef):
            goals = [P.goals.goal_from_rule(d)]
        else:
            goals = P.goals.goals_from_dataflow(d)
        return [P.prover.scc_prove(g).status for g in goals]

    def check_rule(statuses) -> str | None:
        return f"verify-rule DISPROVED a catalog rule: {statuses}" \
            if "disproved" in statuses else None

    for name in VERIFY_RULES:
        ops.append(Op("verify_rule_" + name, 0, lambda n=name: verify_rule(n), check_rule))

    def check_loop(result) -> str | None:
        statuses, report = result
        if "proved" in statuses:
            return LOOP_FAULT
        if report is not None and report.ok:
            return "refl test found no divergence in an inequivalent pair"
        return None

    ops.append(Op("verify_app_loop", 0, lambda: _verify_app(
        P, oracle.LOOP_BEFORE, oracle.LOOP_AFTER), check_loop, known_fault=LOOP_FAULT))

    for width in WIDTH_LADDER:
        for _ in range(TUPLES_PER_WIDTH):
            wide = oracle.wide_tuple(rng, width)
            ops.append(Op("group_prefix", width, lambda w=wide: _apply(
                P, user_defs, w.render(), "wide", "group_prefix",
                lambda g: g.node(g.lookup_at("wide", 5, 5)), [w.split]),
                _expect_bytes(wide.render(grouped=True))))
    return ops


WORKLOADS = {
    "rename_callers": rename_callers,
    "test_long_lists": test_long_lists,
    "refactor_verify": refactor_verify,
}


def warmup_ops(ops: list[Op]) -> list[Op]:
    """One op of each kind that needs a warm-up, at its smallest size."""
    seen: dict[str, Op] = {}
    for op in filter(lambda op: op.warm_up, ops):
        if op.kind not in seen or op.size < seen[op.kind].size:
            seen[op.kind] = op
    return list(seen.values())
