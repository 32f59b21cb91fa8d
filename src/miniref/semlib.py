"""Built-in semantic functions/predicates and the rule-condition evaluator.

Conditions are evaluated left-to-right, call-by-value; the only side effect
is binding metavariables (`M = expr`, and `fresh(M)` when M is unbound).
The catalog is closed: user-defined functions are rejected.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import tree as t
from .dsl import CAnd, CAtom, CBind, CCall, CInt, CNot, COr, CThis, CVar, CondExpr
from .graph import FunctionSem, ModuleSem, SemanticGraph, VarSem
from .matcher import Bindings, val_eq


class SemError(Exception):
    pass


# --- coercions --------------------------------------------------------------


def to_name(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (t.Atom, t.Var)):
        return v.name
    if isinstance(v, (FunctionSem, ModuleSem, VarSem)):
        return v.name
    raise SemError(f"cannot coerce {type(v).__name__} to a name")


def to_int(v) -> int:
    if isinstance(v, bool):
        raise SemError("cannot coerce a boolean to an integer")
    if isinstance(v, int):
        return v
    if isinstance(v, t.Integer):
        return v.value
    raise SemError(f"cannot coerce {type(v).__name__} to an integer")


def to_node(v, graph: SemanticGraph) -> t.Node:
    if isinstance(v, t.Node):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return graph.node(v)
    raise SemError(f"cannot coerce {type(v).__name__} to a node")


def to_list(v) -> list:
    if isinstance(v, list):
        return v
    if isinstance(v, (t.Cons, t.Nil)):
        elems, tail = t.unlist(v)
        if tail is not None:
            raise SemError("improper list has no length")
        return elems
    raise SemError(f"cannot coerce {type(v).__name__} to a list")


def _enclosing_module(graph: SemanticGraph, v) -> ModuleSem:
    if isinstance(v, ModuleSem):
        return v
    if isinstance(v, str):
        return graph.module_sems[v]
    node = to_node(v, graph)
    name = graph.node_module.get(node.nid)
    if name is None:
        raise SemError("node is not part of any module")
    return graph.module_sems[name]


def _enclosing_function(graph: SemanticGraph, v) -> FunctionSem:
    if isinstance(v, FunctionSem):
        return v
    node = to_node(v, graph)
    fn = graph.enclosing_function(node.nid)
    if fn is None:
        raise SemError("node is not inside a function")
    return fn


def _pattern_bound(node: t.Node) -> list[str]:
    """Names bound by patterns and generators within a subtree, in order."""
    out: list[str] = []

    def add_pattern(p: t.Node) -> None:
        for n in t.walk(p):
            if isinstance(n, t.Var) and n.name != "_" and n.name not in out:
                out.append(n.name)

    for n in t.walk(node):
        if isinstance(n, t.Generator):
            add_pattern(n.pattern)
        elif isinstance(n, t.Match):
            add_pattern(n.pattern)
        elif isinstance(n, t.Clause):
            for p in n.patterns:
                add_pattern(p)
    return out


# --- catalog ----------------------------------------------------------------


def _atom(graph: SemanticGraph, args: list) -> bool:
    v = args[0]
    return isinstance(v, t.Atom) or (isinstance(v, str) and v[:1].islower())


def _function_exists(graph: SemanticGraph, args: list) -> bool:
    mod = _enclosing_module(graph, args[0])
    return (mod.name, to_name(args[1]), to_int(args[2])) in graph.functions


def _function_references(graph: SemanticGraph, args: list) -> list[t.Node]:
    fn = _enclosing_function(graph, args[0])
    # call sites only; export entries are bookkeeping, not code
    return [graph.node(ref) for kind, ref in fn.refs if kind != "export"]


def _vars(graph: SemanticGraph, args: list) -> list[str]:
    out: list[str] = []
    for n in t.walk(to_node(args[0], graph)):
        if isinstance(n, t.Var) and n.name != "_" and n.name not in out:
            out.append(n.name)
    return out


def _bound_vars(graph: SemanticGraph, args: list) -> list[str]:
    out: list[str] = []
    for node in args[0] if isinstance(args[0], list) else args:
        for bname in _pattern_bound(to_node(node, graph)):
            if bname not in out:
                out.append(bname)
    return out


def _intersect(graph: SemanticGraph, args: list) -> list:
    a, b = to_list(args[0]), to_list(args[1])
    return [x for x in a if any(val_eq(x, y) for y in b)]


def _copy(graph: SemanticGraph, args: list) -> t.Node:
    dup = t.copy_fresh(to_node(args[0], graph))
    graph.register_detached(dup)
    return dup


def _exported_functions(graph: SemanticGraph, args: list) -> list[FunctionSem]:
    mod = _enclosing_module(graph, args[0])
    return [
        graph.functions[(mod.name, e.name, e.arity)]
        for e in graph.module(mod.name).exports
        if (mod.name, e.name, e.arity) in graph.functions
    ]


_FRESH_BASE = "V"


def fresh_name(taken: set[str]) -> str:
    if _FRESH_BASE not in taken:
        return _FRESH_BASE
    i = 1
    while f"{_FRESH_BASE}{i}" in taken:
        i += 1
    return f"{_FRESH_BASE}{i}"


def _fresh(arg: CondExpr, b: Bindings, graph: SemanticGraph, this: t.Node):
    """`fresh(M)`: binds an unbound M to a name unused in THIS's function
    and scope, and tests a bound one for the same."""
    if not isinstance(arg, CVar):
        raise SemError("fresh expects a metavariable argument")
    mv = arg.name
    taken = graph.function_bound_names(this.nid) | graph.scope_names(this.nid)
    # names handed out by earlier fresh(..) conjuncts are taken too
    taken |= {v for k, v in b.map.items() if k != mv and isinstance(v, str)}
    taken |= {v.name for k, v in b.map.items() if k != mv and isinstance(v, t.Var)}
    if mv in b:
        return to_name(b[mv]) not in taken, b
    return True, b.bind(mv, fresh_name(taken))


class Semantic(NamedTuple):
    """A catalog entry: `fn(graph, args)` gives the value for the list of
    argument values `args`.  With `binds`, `fn(metavariable, bindings, graph,
    THIS)` is instead a condition that binds its metavariable argument."""

    arity: int
    fn: Callable
    binds: bool = False


# The closed catalog of semantic functions.  The evaluator and the
# validator (`engine.validate`) both read it, and nothing else names them.
SEMANTIC: dict[str, Semantic] = {
    "atom": Semantic(1, _atom),
    "pure": Semantic(1, lambda graph, a: graph.is_pure(to_node(a[0], graph).nid)),
    "length": Semantic(1, lambda graph, a: len(to_list(a[0]))),
    "module": Semantic(1, lambda graph, a: _enclosing_module(graph, a[0])),
    "name": Semantic(1, lambda graph, a: to_name(a[0])),
    "function": Semantic(1, lambda graph, a: _enclosing_function(graph, a[0])),
    "function_exists": Semantic(3, _function_exists),
    "function_clauses": Semantic(
        1, lambda graph, a: [graph.node(c) for c in _enclosing_function(graph, a[0]).clauses]
    ),
    "function_references": Semantic(1, _function_references),
    "definition": Semantic(1, lambda graph, a: graph.node(_enclosing_function(graph, a[0]).form)),
    "vars": Semantic(1, _vars),
    "bound_vars": Semantic(1, _bound_vars),
    "intersect": Semantic(2, _intersect),
    "copy": Semantic(1, _copy),
    "exported_functions": Semantic(1, _exported_functions),
    "fresh": Semantic(1, _fresh, binds=True),
}


def semantic(name: str, nargs: int) -> Semantic:
    """The catalog entry of `name`, applied to `nargs` arguments."""
    sem = SEMANTIC.get(name)
    if sem is None:
        raise SemError(f"unknown semantic function {name}")
    if nargs != sem.arity:
        raise SemError(f"{name} expects {sem.arity} argument(s), got {nargs}")
    return sem


def call_semantic(name: str, args: list, graph: SemanticGraph):
    sem = SEMANTIC.get(name)
    if sem is None or len(args) != sem.arity or sem.binds:
        semantic(name, len(args))  # raises for an unknown name or a wrong arity
        raise SemError(f"{name} binds a metavariable and has no value")
    return sem.fn(graph, args)


def sem_val_eq(a, b) -> bool:
    """val_eq extended with the semantic-node-to-name coercion."""
    if isinstance(a, (FunctionSem, ModuleSem, VarSem)) != isinstance(
        b, (FunctionSem, ModuleSem, VarSem)
    ):
        a = a.name if isinstance(a, (FunctionSem, ModuleSem, VarSem)) else a
        b = b.name if isinstance(b, (FunctionSem, ModuleSem, VarSem)) else b
    return val_eq(a, b)


# --- condition evaluation ---------------------------------------------------


def eval_expr(c: CondExpr, b: Bindings, graph: SemanticGraph, this: t.Node):
    if isinstance(c, CVar):
        if c.name not in b:
            raise SemError(f"unbound metavariable {c.name}")
        return b[c.name]
    if isinstance(c, CThis):
        return this
    if isinstance(c, CAtom):
        return c.name
    if isinstance(c, CInt):
        return c.value
    if isinstance(c, CCall):
        args = [eval_expr(a, b, graph, this) for a in c.args]
        return call_semantic(c.name, args, graph)
    raise SemError(f"cannot evaluate {type(c).__name__} as a value")


def eval_condition(
    c: CondExpr, b: Bindings, graph: SemanticGraph, this: t.Node
) -> tuple[bool, Bindings]:
    if isinstance(c, CAnd):
        ok, b = eval_condition(c.left, b, graph, this)
        if not ok:
            return False, b
        return eval_condition(c.right, b, graph, this)
    if isinstance(c, COr):
        ok, nb = eval_condition(c.left, b, graph, this)
        if ok:
            return True, nb
        return eval_condition(c.right, b, graph, this)
    if isinstance(c, CNot):
        ok, _ = eval_condition(c.arg, b, graph, this)
        return not ok, b
    if isinstance(c, CBind):
        value = eval_expr(c.expr, b, graph, this)
        if c.name in b:
            return sem_val_eq(b[c.name], value), b
        nb = b.bind(c.name, value)
        return nb is not None, nb if nb is not None else b
    if isinstance(c, CCall):
        sem = SEMANTIC.get(c.name)
        if sem is None or len(c.args) != sem.arity:
            semantic(c.name, len(c.args))  # raises for an unknown name or a wrong arity
        if sem.binds:
            return sem.fn(c.args[0], b, graph, this)
        return bool(sem.fn(graph, [eval_expr(a, b, graph, this) for a in c.args])), b
    return bool(eval_expr(c, b, graph, this)), b
