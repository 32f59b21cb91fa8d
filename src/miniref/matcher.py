"""First-order matching of metavariable patterns against syntax subtrees.

`match` returns every consistent extension of a seed binding set, in a
deterministic order: list-metavariable splits are enumerated left to right,
shortest first.  An unbound list metavariable only tries the lengths that
the rest of its sequence can accept: when every list metavariable after it
is bound, the fixed elements and those bindings leave it exactly one length,
so the trailing `B..` of `{A.., B..}` takes the whole rest in one bind.
Matching a sequence costs time linear in its length plus one bind per split
tried: `{A.., B..}` against an n-tuple makes 2n + 2 binds for its n + 1
results, where enumerating every split of `B..` made about n * n / 2.
`instantiate` builds a fresh subtree from a replacement pattern through
`tree.rebuild`, and copies bound subtrees with `tree.copy_fresh`, so the
result never aliases the matched code.
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
    if p_tail is None:
        return _match_seq(p_elems, n_elems, b) if isinstance(cur, t.Nil) else []
    # the elements take a prefix and the tail pattern the rest, shorter prefixes first
    names, _, fixed = _layout(p_elems)
    lo, hi = _bounds(b, names, fixed, len(n_elems))
    return [
        r
        for end in range(lo, hi + 1)
        for cur_b in _match_seq(p_elems, n_elems[:end], b)
        for r in _match(p_tail, n_suffixes[end], cur_b)
    ]


def _match_seq(patterns: list[t.Node], nodes: list[t.Node], b: Bindings) -> list[Bindings]:
    """Every extension of `b` under which `patterns` match all of `nodes`.

    A depth-first search over an explicit stack of branch iterators, so
    neither a long sequence nor many list metavariables use Python stack.
    A fixed element consumes one node; a bound list metavariable is compared
    in place; an unbound one branches over the split lengths that `_bounds`
    leaves for the patterns after it, shortest first.
    """
    if not patterns:
        return [] if nodes else [b]
    names, rests, _ = _layout(patterns)
    n, m = len(nodes), len(patterns)
    out, stack, state = [], [], (0, 0, b)
    while state is not None:
        j, i, b = state
        while j < m:
            p = patterns[j]
            if not isinstance(p, t.ListMetavar):
                rs = _match(p, nodes[i], b) if i < n else []
                if len(rs) != 1:  # no candidate, or several to branch over
                    stack.append(iter([(j + 1, i + 1, r) for r in rs]))
                    break
                b, i, j = rs[0], i + 1, j + 1
            elif p.name in b:
                bound = _as_seq(b[p.name])
                if not val_eq(bound, nodes[i : i + len(bound)]):
                    break
                i, j = i + len(bound), j + 1
            else:
                fixed, count = rests[j]
                room = n - i
                lo, hi = _bounds(b, names[:count], fixed, room)
                if lo != hi:
                    stack.append(_splits(b, p.name, nodes, i, range(room - hi, room - lo + 1), j + 1))
                    break
                k = room - lo  # the one length left: bind it without branching
                b, i, j = b.bind(p.name, nodes[i : i + k]), i + k, j + 1
        else:
            if i == n:
                out.append(b)
        state = _resume(stack)
    return out


def _resume(stack: list):
    """The next state of the innermost branch left, or None when none is."""
    while stack:
        state = next(stack[-1], None)
        if state is not None:
            return state
        stack.pop()
    return None


def _layout(patterns: list[t.Node]) -> tuple[list[str], dict[int, tuple[int, int]], int]:
    """The names of the list metavariables in `patterns`, last first; for
    the position of each, the number of fixed elements and of list
    metavariables after it; and the number of fixed elements."""
    names, rests, fixed = [], {}, 0
    for j in range(len(patterns) - 1, -1, -1):
        if isinstance(patterns[j], t.ListMetavar):
            rests[j] = (fixed, len(names))
            names.append(patterns[j].name)
        else:
            fixed += 1
    return names, rests, fixed


def _bounds(b: Bindings, names: list[str], fixed: int, room: int) -> tuple[int, int]:
    """The fewest and most of `room` nodes that `fixed` fixed elements and the
    list metavariables `names` can consume: exactly their total length when
    `b` binds all of those metavariables.  Empty when the fewest exceeds the
    most."""
    taken = fixed
    for name in names:
        if name not in b:
            return fixed, room
        taken += len(_as_seq(b[name]))
    return taken, min(taken, room)


def _splits(b: Bindings, name: str, nodes: list[t.Node], i: int, lengths: range, j: int):
    for k in lengths:
        yield j, i + k, b.bind(name, nodes[i : i + k])


def _as_seq(value) -> list:
    return value if isinstance(value, list) else [value]


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
