"""First-order matching of metavariable patterns against syntax subtrees.

`match` returns every consistent extension of a seed binding set, in a
deterministic order: list-metavariable splits are enumerated left to right,
shortest first.  `instantiate` builds a fresh subtree from a replacement
pattern through `tree.rebuild`, and copies bound subtrees with
`tree.copy_fresh`, so the result never aliases the matched code.
"""

from __future__ import annotations

from . import tree as t


class MatchError(Exception):
    pass


def val_eq(a, b) -> bool:
    if isinstance(a, t.Node) and isinstance(b, t.Node):
        return t.struct_eq(a, b)
    if isinstance(a, t.Node) or isinstance(b, t.Node):
        node, val = (a, b) if isinstance(a, t.Node) else (b, a)
        return _node_value(node) == val and val is not None
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(val_eq(x, y) for x, y in zip(a, b))
    return a == b


def _node_value(node: t.Node):
    """The loose-typing coercion of a constant node to a plain value."""
    if isinstance(node, t.Atom):
        return node.name
    if isinstance(node, t.Integer):
        return node.value
    if isinstance(node, t.Var):
        return node.name
    return None


class Bindings:
    """Single-assignment metavariable environment."""

    def __init__(self, mapping: dict | None = None):
        self.map = dict(mapping) if mapping else {}

    def __contains__(self, name: str) -> bool:
        return name in self.map

    def __getitem__(self, name: str):
        return self.map[name]

    def get(self, name: str, default=None):
        return self.map.get(name, default)

    def __eq__(self, other) -> bool:
        return isinstance(other, Bindings) and self.keys() == other.keys() and all(
            val_eq(self.map[k], other.map[k]) for k in self.map
        )

    def __repr__(self) -> str:
        return f"Bindings({self.map!r})"

    def keys(self):
        return set(self.map)

    def bind(self, name: str, value) -> "Bindings | None":
        """A new environment with name bound; None on conflicting rebind."""
        if name in self.map:
            return self if val_eq(self.map[name], value) else None
        out = Bindings(self.map)
        out.map[name] = value
        return out

    def merge(self, other: "Bindings") -> "Bindings | None":
        out = self
        for k, v in other.map.items():
            out = out.bind(k, v)
            if out is None:
                return None
        return out


def match(pattern: t.Node, node: t.Node, seed: Bindings | None = None) -> list[Bindings]:
    return _match(pattern, node, seed if seed is not None else Bindings())


def _match(p: t.Node, n: t.Node, b: Bindings) -> list[Bindings]:
    if isinstance(p, t.Metavar):
        nb = b.bind(p.name, n)
        return [nb] if nb is not None else []
    if isinstance(p, t.ListMetavar):
        # a bare list metavariable outside a sequence matches a single node
        nb = b.bind(p.name, [n])
        return [nb] if nb is not None else []
    if isinstance(p, (t.Cons, t.Nil)) and isinstance(n, (t.Cons, t.Nil)):
        return _match_list(p, n, b)
    if isinstance(p, t.ClausePat) and isinstance(n, t.Clause):
        return _match_clause(p, n, b)
    if type(p) is not type(n):
        return []
    results = [b]
    for name in t.struct_fields(type(p)):
        pv, nv = getattr(p, name), getattr(n, name)
        if isinstance(pv, t.Node) and isinstance(nv, t.Node):
            step = _match
        elif isinstance(pv, list) and isinstance(nv, list):
            step = _match_seq
        elif not isinstance(pv, (t.Node, list)) and pv == nv:
            continue
        else:
            return []
        results = [r for cur in results for r in step(pv, nv, cur)]
        if not results:
            return []
    return results


def _match_clause(p: t.ClausePat, n: t.Clause, b: Bindings) -> list[Bindings]:
    if isinstance(p.name, t.Metavar):
        seeds = [b.bind(p.name.name, n.name)] if n.name is not None else []
        seeds = [s for s in seeds if s is not None]
    elif isinstance(p.name, t.Atom):
        seeds = [b] if p.name.name == n.name else []
    else:
        return []
    results = seeds
    results = [r for cur in results for r in _match_seq(p.patterns, n.patterns, cur)]
    return [r for cur in results for r in _match_seq(p.body, n.body, cur)]


def _match_list(p: t.Expr, n: t.Expr, b: Bindings) -> list[Bindings]:
    p_elems, p_tail = t.unlist(p)
    n_elems, n_suffixes = [], [n]
    cur = n
    while isinstance(cur, t.Cons):
        n_elems.append(cur.head)
        cur = cur.tail
        n_suffixes.append(cur)
    n_tail = None if isinstance(cur, t.Nil) else cur
    if p_tail is None:
        if n_tail is not None:
            return []
        return _match_seq(p_elems, n_elems, b)
    out = []
    if _has_listmeta(p_elems):
        start = sum(0 if isinstance(x, t.ListMetavar) else 1 for x in p_elems)
        splits = range(start, len(n_elems) + 1)
    else:
        splits = [len(p_elems)]
    for j in splits:
        if j > len(n_elems):
            break
        for cur_b in _match_seq(p_elems, n_elems[:j], b):
            out.extend(_match(p_tail, n_suffixes[j], cur_b))
    return out


def _has_listmeta(patterns: list[t.Node]) -> bool:
    return any(isinstance(p, t.ListMetavar) for p in patterns)


def _match_seq(patterns: list[t.Node], nodes: list[t.Node], b: Bindings) -> list[Bindings]:
    if not patterns:
        return [b] if not nodes else []
    head, rest = patterns[0], patterns[1:]
    if isinstance(head, t.ListMetavar):
        if head.name in b:
            bound = b[head.name]
            if not isinstance(bound, list):
                bound = [bound]
            k = len(bound)
            if k > len(nodes) or not val_eq(bound, nodes[:k]):
                return []
            return _match_seq(rest, nodes[k:], b)
        min_rest = sum(0 if isinstance(p, t.ListMetavar) else 1 for p in rest)
        out = []
        for k in range(0, len(nodes) - min_rest + 1):
            nb = b.bind(head.name, list(nodes[:k]))
            if nb is None:
                continue
            out.extend(_match_seq(rest, nodes[k:], nb))
        return out
    if not nodes:
        return []
    return [r for cur in _match(head, nodes[0], b) for r in _match_seq(rest, nodes[1:], cur)]


# --- instantiation ----------------------------------------------------------


def _materialize(value) -> t.Node:
    if isinstance(value, t.Node):
        return t.copy_fresh(value)
    if hasattr(value, "sid") and hasattr(value, "name"):
        value = value.name  # semantic node: coerce to its name
    if isinstance(value, bool):
        return t.Atom("true" if value else "false")
    if isinstance(value, int):
        return t.Integer(value)
    if isinstance(value, str):
        if value[:1].isupper() or value[:1] == "_":
            return t.Var(value)
        return t.Atom(value)
    if isinstance(value, list):
        return t.mklist([_materialize(v) for v in value])
    raise MatchError(f"no syntactic form for value {value!r}")


def instantiate(pattern: t.Node, b: Bindings):
    """Fresh AST (or list of ASTs for a sequence pattern) from a replacement."""
    if isinstance(pattern, list):
        out = []
        for p in pattern:
            r = instantiate(p, b)
            out.extend(r) if isinstance(r, list) else out.append(r)
        return out
    if isinstance(pattern, t.Metavar):
        if pattern.name not in b:
            raise MatchError(f"unbound metavariable {pattern.name}")
        return _materialize(b[pattern.name])
    if isinstance(pattern, t.ListMetavar):
        if pattern.name not in b:
            raise MatchError(f"unbound metavariable {pattern.name}..")
        value = b[pattern.name]
        if not isinstance(value, list):
            value = [value]
        return [_materialize(v) for v in value]
    if isinstance(pattern, t.ClausePat):
        name = instantiate(pattern.name, b)
        if isinstance(name, (t.Atom, t.Var)):
            name = name.name
        else:
            raise MatchError("clause name must instantiate to a name")
        return t.Clause(name, instantiate(pattern.patterns, b), instantiate(pattern.body, b))
    if isinstance(pattern, (t.Cons, t.Nil)):
        elems, tail = t.unlist(pattern)
        new_elems = instantiate(elems, b)
        new_tail = instantiate(tail, b) if tail is not None else None
        if isinstance(new_tail, list):
            raise MatchError("list tail cannot be a sequence")
        return t.mklist(new_elems, new_tail)
    return t.rebuild(pattern, lambda v: instantiate(v, b))
