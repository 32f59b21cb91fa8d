"""The `refl` command line tool.

Subcommands:
  apply           run a refactoring on a source file, print a diff or rewrite
  verify-rule     build and prove the equivalence goal(s) of a definition
  check-contract  report on a signature scheme's instantiation contract
  verify-app      prove exported-function equivalence of two modules
  test            randomized before/after testing of two modules
  graph           dump the semantic graph of a module

Definitions (the packaged catalog and each --defs file) are checked when
they load: a fault in any of them stops the command before it reads a
module.

Exit codes: 0 success / proved / no divergence; 1 refactoring failure,
contract violation, disproof, or divergence; 2 not proved but not
disproved; 3 usage, parse or definition error.
"""

from __future__ import annotations

import argparse
import difflib
import sys
from importlib import resources
from pathlib import Path

from .dsl import ReflSyntaxError, RuleDef, SchemeDef, parse_refl
from .engine import Engine, validate
from .graph import GraphError, build_graph
from .lexer import MiniErlangSyntaxError
from .parser import parse_module
from .verifier import (
    GoalError,
    dynamic_verify,
    format_trace,
    goal_from_rule,
    goals_from_application,
    goals_from_dataflow,
    scc_prove,
)
from .verifier.prover import render_goal

OK, FAILED, UNKNOWN, USAGE = 0, 1, 2, 3


class DefinitionError(Exception):
    """Definitions that do not parse or validate: one argument per fault,
    naming its file."""


def _load_definitions(extra: list[str]) -> list:
    pkg = resources.files("miniref") / "definitions"
    entries = sorted(pkg.iterdir(), key=lambda p: p.name)
    files = [(e.name, e) for e in entries if e.name.endswith(".refl")]
    files += [(path, Path(path)) for path in extra]
    defs: list = []
    origin: dict[int, str] = {}
    for name, entry in files:
        try:
            parsed = parse_refl(entry.read_text())
        except ReflSyntaxError as e:
            raise DefinitionError(f"{name}: {e}") from None
        for d in parsed:
            origin[id(d)] = name
            defs.append(d)
    diags = validate(defs)
    if diags:
        raise DefinitionError(*(f"{origin[id(d)]}: {msg}" for d, msg in diags))
    return defs


def _read_module(path: str):
    return parse_module(Path(path).read_bytes())


def _find_def(defs, name: str):
    for d in defs:
        if d.name == name:
            return d
    return None


def _parse_at(spec: str):
    parts = spec.rsplit(":", 2)
    if len(parts) == 3:
        parts = parts[1:]
    if len(parts) != 2:
        raise ValueError(spec)
    return int(parts[0]), int(parts[1])


def cmd_apply(args) -> int:
    defs = _load_definitions(args.defs)
    module = _read_module(args.file)
    graph = build_graph([module])
    engine = Engine(graph, defs)
    if args.at:
        line, col = _parse_at(args.at)
        target = graph.node(graph.lookup_at(module.name, line, col))
    elif args.fun:
        fname, _, arity = args.fun.partition("/")
        key = (module.name, fname, int(arity))
        if key not in graph.functions:
            print(f"no function {args.fun} in {module.name}", file=sys.stderr)
            return USAGE
        target = graph.functions[key]
    else:
        print("apply needs --at or --fun", file=sys.stderr)
        return USAGE
    refac_args = [int(a) if a.lstrip("-").isdigit() else a for a in args.args]
    outcome = engine.run(args.refactoring, target, refac_args)
    if not outcome.ok:
        print(f"failed: {outcome.reason}", file=sys.stderr)
        return FAILED
    rendered = graph.render(module.name)
    if args.write:
        Path(args.file).write_bytes(rendered)
        return OK
    before = module.text.decode("utf-8", "replace").splitlines(keepends=True)
    after = rendered.decode("utf-8", "replace").splitlines(keepends=True)
    sys.stdout.writelines(
        difflib.unified_diff(before, after, fromfile=args.file, tofile=args.file)
    )
    return OK


def _report_goals(goals, depth: int, trace: bool) -> int:
    worst = OK
    for goal in goals:
        result = scc_prove(goal, max_depth=depth)
        status = result.status.upper()
        print(f"{goal.name}: {status}" + (f" ({result.reason})" if result.reason else ""))
        for note in goal.notes:
            print(f"  note: {note}")
        if trace:
            for line in format_trace(result).splitlines():
                print(f"  {line}")
        if result.status == "disproved":
            worst = FAILED
        elif result.status == "unknown" and worst != FAILED:
            worst = UNKNOWN
    return worst


def cmd_verify_rule(args) -> int:
    defs = _load_definitions(args.defs)
    d = _find_def(defs, args.name)
    if d is None:
        print(f"unknown definition {args.name}", file=sys.stderr)
        return USAGE
    if isinstance(d, SchemeDef) and d.kind == "signature":
        print(f"{args.name} is a signature scheme; use check-contract", file=sys.stderr)
        return USAGE
    try:
        if isinstance(d, SchemeDef):
            goals = goals_from_dataflow(d)
        elif isinstance(d, RuleDef):
            goals = [goal_from_rule(d)]
        else:
            print(f"{args.name} has no equivalence goal", file=sys.stderr)
            return USAGE
    except GoalError as e:
        print(str(e), file=sys.stderr)
        return USAGE
    for goal in goals:
        print(f"goal {goal.name}: {render_goal(goal)}")
    return _report_goals(goals, args.depth, args.trace)


def cmd_check_contract(args) -> int:
    defs = _load_definitions(args.defs)
    d = _find_def(defs, args.name)
    if d is None or not (isinstance(d, SchemeDef) and d.kind == "signature"):
        print(f"{args.name} is not a signature scheme", file=sys.stderr)
        return USAGE
    engine = Engine(build_graph([]), defs)
    ok, why = engine.check_signature_contract(d.rule)
    if ok:
        print(f"{args.name}: contract satisfied")
        return OK
    print(f"{args.name}: contract violated: {why}")
    return FAILED


def cmd_verify_app(args) -> int:
    before = _read_module(args.before)
    after = _read_module(args.after)
    try:
        goals = goals_from_application(before, after)
    except GoalError as e:
        print(str(e), file=sys.stderr)
        return FAILED
    return _report_goals(goals, args.depth, args.trace)


def cmd_test(args) -> int:
    before = _read_module(args.before)
    after = _read_module(args.after)
    report = dynamic_verify(before, after, samples=args.samples, seed=args.seed)
    for fn, n in report.checked:
        print(f"{fn}: {n} samples")
    for d in report.divergences:
        print(f"divergence: {d.describe()}")
    print(f"cutoffs: {report.cutoffs}")
    print(f"stuck on both sides: {report.stuck}")
    print(f"{len(report.divergences)} divergence(s)")
    return OK if report.ok else FAILED


def cmd_graph(args) -> int:
    module = _read_module(args.file)
    graph = build_graph([module])
    if args.dot:
        print(graph.to_dot())
        return OK
    for key, fn in sorted(graph.functions.items()):
        purity = "pure" if fn.pure else "impure"
        print(f"{key[0]}:{key[1]}/{key[2]} [{purity}] refs={len(fn.refs)}")
    return OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="refl", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def defs_opt(p):
        p.add_argument("--defs", action="append", default=[], metavar="FILE.refl",
                       help="additional definition files")

    p = sub.add_parser("apply", help="apply a refactoring to a source file")
    p.add_argument("file")
    p.add_argument("refactoring")
    p.add_argument("args", nargs="*")
    p.add_argument("--at", metavar="[FILE:]LINE:COL", help="target expression position")
    p.add_argument("--fun", metavar="NAME/ARITY", help="target function")
    p.add_argument("--write", action="store_true", help="rewrite the file in place")
    defs_opt(p)
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("verify-rule", help="prove a definition's equivalence goals")
    p.add_argument("name")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--depth", type=int, default=32)
    defs_opt(p)
    p.set_defaults(fn=cmd_verify_rule)

    p = sub.add_parser("check-contract", help="check a signature scheme contract")
    p.add_argument("name")
    defs_opt(p)
    p.set_defaults(fn=cmd_check_contract)

    p = sub.add_parser("verify-app", help="prove equivalence of two module versions")
    p.add_argument("before")
    p.add_argument("after")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--depth", type=int, default=32)
    p.set_defaults(fn=cmd_verify_app)

    p = sub.add_parser("test", help="randomized before/after testing")
    p.add_argument("before")
    p.add_argument("after")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_test)

    p = sub.add_parser("graph", help="dump the semantic graph")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(fn=cmd_graph)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE if e.code else OK
    try:
        return args.fn(args)
    except DefinitionError as e:
        for line in e.args:
            print(f"error: {line}", file=sys.stderr)
        return USAGE
    except (MiniErlangSyntaxError, GraphError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE
    except RecursionError:
        print("error: input nests too deeply", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
