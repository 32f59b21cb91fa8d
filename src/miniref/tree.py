"""AST node types for the mini-Erlang subset.

Every node carries a unique id and an optional span, in characters, into the
decoded source text it was parsed from.  Nodes built by transformations have
no span.  Structural equality deliberately ignores ids and spans.

The pattern-language extensions (metavariables) and the verifier's symbolic
leaves (math variables) live here too, so the printer and equality helpers
cover every term the toolchain manipulates.

This module also holds the one generic view of the syntax that every other
module traverses through: `struct_fields` names a node class's structural
fields (all but the id, the span and a module's source text), and
`children`, `walk`, `rebuild`, `struct_key`, `struct_eq` and `copy_fresh`
are written over it once.  Each field of a given class holds either a
child node, a list of child nodes, or a scalar; none of these traversals
recurses, so a long list or a deep term costs no Python stack.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, fields

_ids = itertools.count(1)


def new_id() -> int:
    return next(_ids)


@dataclass(eq=False)
class Node:
    nid: int = field(default_factory=new_id, kw_only=True, repr=False)
    span: tuple[int, int] | None = field(default=None, kw_only=True, repr=False)


class Expr(Node):
    pass


@dataclass(eq=False)
class Atom(Expr):
    name: str


@dataclass(eq=False)
class Integer(Expr):
    value: int


@dataclass(eq=False)
class Var(Expr):
    name: str


@dataclass(eq=False)
class Nil(Expr):
    pass


@dataclass(eq=False)
class Cons(Expr):
    head: Expr
    tail: Expr


@dataclass(eq=False)
class Tuple(Expr):
    elems: list[Expr]


@dataclass(eq=False)
class Match(Expr):
    pattern: Expr
    expr: Expr


@dataclass(eq=False)
class Clause(Node):
    """A function or case/fun clause.  `name` is set for function clauses."""

    name: str | None
    patterns: list[Expr]
    body: list[Expr]


@dataclass(eq=False)
class Case(Expr):
    scrutinee: Expr
    clauses: list[Clause]


@dataclass(eq=False)
class Fun(Expr):
    clauses: list[Clause]


@dataclass(eq=False)
class Call(Expr):
    """Application with an arbitrary callee: `foo(1)`, `X()`, `(fun ...)()`."""

    callee: Expr
    args: list[Expr]


@dataclass(eq=False)
class RemoteCall(Expr):
    module: Expr
    name: Expr
    args: list[Expr]


@dataclass(eq=False)
class Block(Expr):
    exprs: list[Expr]


@dataclass(eq=False)
class Generator(Node):
    pattern: Expr
    source: Expr


@dataclass(eq=False)
class Filter(Node):
    expr: Expr


@dataclass(eq=False)
class ListComp(Expr):
    head: Expr
    qualifiers: list[Node]


@dataclass(eq=False)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


# --- module structure -------------------------------------------------------


@dataclass(eq=False)
class ExportEntry(Node):
    name: str
    arity: int


@dataclass(eq=False)
class FunctionForm(Node):
    clauses: list[Clause]

    @property
    def name(self) -> str:
        return self.clauses[0].name or ""

    @property
    def arity(self) -> int:
        return len(self.clauses[0].patterns)


@dataclass(eq=False)
class SourceModule(Node):
    name: str
    exports: list[ExportEntry]
    forms: list[FunctionForm]
    text: bytes = b""


# --- pattern-language extensions -------------------------------------------


@dataclass(eq=False)
class Metavar(Expr):
    name: str


@dataclass(eq=False)
class ListMetavar(Expr):
    """Matches zero or more consecutive siblings; written `Name..`."""

    name: str


@dataclass(eq=False)
class ClausePat(Node):
    """Clause-shaped DSL pattern: `Name(Args..) -> Body..`."""

    name: Expr
    patterns: list[Expr]
    body: list[Expr]


# --- symbolic leaves used by the verifier -----------------------------------


@dataclass(eq=False)
class MathVar(Expr):
    """A mathematical variable standing for an arbitrary expression or value."""

    name: str


@dataclass(eq=False)
class SymVar(Expr):
    """The program variable whose name is the value of a math variable."""

    name: str


@dataclass(eq=False)
class SeqVar(Expr):
    """A math variable standing for a sequence of sibling expressions."""

    name: str


# --- generic traversal ------------------------------------------------------


@functools.cache
def struct_fields(cls: type) -> tuple[str, ...]:
    """The structural fields of a node class, in declaration order."""
    return tuple(f.name for f in fields(cls) if f.name not in ("nid", "span", "text"))


def children(node: Node) -> list[Node]:
    out: list[Node] = []
    for name in struct_fields(type(node)):
        v = getattr(node, name)
        if isinstance(v, Node):
            out.append(v)
        elif isinstance(v, list):
            out.extend(v)
    return out


def walk(node: Node):
    """Pre-order traversal of node and all descendants."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(children(n)))


def rebuild(node: Node, f) -> Node:
    """A new node of `node`'s class with a fresh id and no span: `f` maps
    each node field and each list field (as a whole); scalars are kept."""
    kwargs = {}
    for name in struct_fields(type(node)):
        v = getattr(node, name)
        if isinstance(v, Node):
            v = f(v)
            if isinstance(v, list):
                raise ValueError("sequence value in a single-node position")
        elif isinstance(v, list):
            v = f(v)
        kwargs[name] = v
    return type(node)(**kwargs)


def _tokens(node: Node):
    """One token per node in pre-order: its class, its scalars and the
    length of each list field.  The class fixes which fields are nodes,
    lists or scalars, so the stream determines the tree."""
    stack = [node]
    while stack:
        n = stack.pop()
        tok: list = [type(n)]
        kids: list[Node] = []
        for name in struct_fields(type(n)):
            v = getattr(n, name)
            if isinstance(v, Node):
                kids.append(v)
            elif isinstance(v, list):
                tok.append(len(v))
                kids.extend(v)
            else:
                tok.append(v)
        yield tuple(tok)
        stack.extend(reversed(kids))


def struct_key(node: Node) -> tuple:
    """A hashable key capturing the tree's structure, ignoring ids and spans.

    The key is flat (a tuple of per-node tokens), so hashing and comparing
    it do not recurse however deep the tree is."""
    return tuple(_tokens(node))


def struct_eq(a: Node, b: Node) -> bool:
    """`struct_key(a) == struct_key(b)`, stopping at the first difference."""
    return a is b or all(x == y for x, y in itertools.zip_longest(_tokens(a), _tokens(b)))


def copy_fresh(node: Node) -> Node:
    """Copy with fresh node ids and no spans (a detached new subtree)."""
    copies: dict[int, Node] = {}

    def copied(v):
        return [copies[id(x)] for x in v] if isinstance(v, list) else copies[id(v)]

    for n in reversed(list(walk(node))):
        copies[id(n)] = rebuild(n, copied)
    return copies[id(node)]


def mklist(elems: list[Expr], tail: Expr | None = None) -> Expr:
    out: Expr = tail if tail is not None else Nil()
    for e in reversed(elems):
        out = Cons(e, out)
    return out


def unlist(node: Expr) -> tuple[list[Expr], Expr | None]:
    """Flatten a cons chain into (elements, improper-tail-or-None)."""
    elems: list[Expr] = []
    while isinstance(node, Cons):
        elems.append(node.head)
        node = node.tail
    if isinstance(node, Nil):
        return elems, None
    return elems, node


PATTERN_TYPES = (Var, Atom, Integer, Nil, Cons, Tuple, Metavar, ListMetavar)


def is_pattern(node: Node) -> bool:
    return all(isinstance(n, PATTERN_TYPES) for n in walk(node))
