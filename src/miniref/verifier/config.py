"""Program configurations, symbolic environments, and constraints.

A configuration holds the code under execution, a variable environment,
and the visible function definitions.  Environments and definition sets
can carry a *frame variable* standing for an arbitrary unknown rest,
which is what lets a single configuration describe every concrete state
that matches it.  Math variables (`MathVar`), symbolic name variables
(`SymVar`) and sequence variables (`SeqVar`) are the symbolic leaves;
everything else is ordinary syntax.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import tree as t

Term = t.Expr


# --- environments and definition sets ---------------------------------------


@dataclass(frozen=True)
class SymEnv:
    """Variable bindings plus an optional frame for the unknown rest."""

    entries: tuple[tuple[str, Term], ...] = ()
    frame: str | None = None

    def lookup(self, name: str) -> Term | None:
        for k, v in self.entries:
            if k == name:
                return v
        return None

    def bind(self, name: str, value: Term) -> "SymEnv":
        return SymEnv(self.entries + ((name, value),), self.frame)

    def key(self):
        return (tuple((k, t.struct_key(v)) for k, v in self.entries), self.frame)


@dataclass(frozen=True)
class SymDefs:
    """Function definitions by name/arity plus an optional frame."""

    entries: tuple[tuple[tuple[str, int], tuple[t.Clause, ...]], ...] = ()
    frame: str | None = None

    def lookup(self, name: str, arity: int) -> tuple[t.Clause, ...] | None:
        for k, clauses in self.entries:
            if k == (name, arity):
                return clauses
        return None

    def key(self):
        return (
            tuple(
                (k, tuple(t.struct_key(c) for c in clauses)) for k, clauses in self.entries
            ),
            self.frame,
        )

    @staticmethod
    def of_module(module: t.SourceModule) -> "SymDefs":
        entries = tuple(
            ((form.name, form.arity), tuple(form.clauses)) for form in module.forms
        )
        return SymDefs(entries, None)


@dataclass(frozen=True)
class Config:
    code: Term
    env: SymEnv = field(default_factory=SymEnv)
    defs: SymDefs = field(default_factory=SymDefs)

    def key(self):
        return (t.struct_key(self.code), self.env.key(), self.defs.key())


@dataclass(frozen=True)
class EqConfig:
    """The paired configuration equivalence goals are stated over."""

    cfg1: Config
    cfg2: Config

    def side(self, which: str) -> Config:
        return self.cfg1 if which == "cfg1" else self.cfg2

    def with_side(self, which: str, cfg: Config) -> "EqConfig":
        if which == "cfg1":
            return EqConfig(cfg, self.cfg2)
        return EqConfig(self.cfg1, cfg)

    def key(self):
        return (self.cfg1.key(), self.cfg2.key())


# --- constraints ------------------------------------------------------------


class Constraint:
    """First-order condition conjoined to a configuration pattern."""

    def key(self):
        raise NotImplementedError


def _tkey(x):
    return t.struct_key(x) if isinstance(x, t.Node) else x


@dataclass(frozen=True)
class Fresh(Constraint):
    """Unexpanded freshness assumption on a math variable."""

    var: str

    def key(self):
        return ("fresh", self.var)


@dataclass(frozen=True)
class NotInKeys(Constraint):
    var: str
    env_frame: str | None

    def key(self):
        return ("notinkeys", self.var, self.env_frame)


@dataclass(frozen=True)
class IsVar(Constraint):
    var: str

    def key(self):
        return ("isvar", self.var)


@dataclass(frozen=True)
class IsAtom(Constraint):
    var: str

    def key(self):
        return ("isatom", self.var)


@dataclass(frozen=True)
class Pure(Constraint):
    term: Term

    def key(self):
        return ("pure", _tkey(self.term))


@dataclass(frozen=True)
class Eq(Constraint):
    left: Term
    right: Term

    def key(self):
        return ("eq", _tkey(self.left), _tkey(self.right))


@dataclass(frozen=True)
class Neq(Constraint):
    left: Term
    right: Term

    def key(self):
        return ("neq", _tkey(self.left), _tkey(self.right))


@dataclass(frozen=True)
class Matches(Constraint):
    term: Term
    pattern: Term

    def key(self):
        return ("matches", _tkey(self.term), _tkey(self.pattern))


@dataclass(frozen=True)
class NotMatches(Constraint):
    term: Term
    pattern: Term

    def key(self):
        return ("notmatches", _tkey(self.term), _tkey(self.pattern))


# --- term utilities ---------------------------------------------------------


def term_eq(a, b) -> bool:
    if isinstance(a, t.Node) and isinstance(b, t.Node):
        return t.struct_eq(a, b)
    return a == b


_LEAVES = (t.Atom, t.Integer, t.Nil, t.Fun, t.MathVar, t.SymVar, t.SeqVar)


def is_value(term: Term) -> bool:
    """Terms that need no further evaluation.

    Symbolic leaves count as values: math variables range over the value
    domain, so a proof may leave them opaque.  The walk keeps its own
    stack, so neither a long list nor a deeply nested term recurses.
    """
    pending = [term]
    while pending:
        term = pending.pop()
        while isinstance(term, t.Cons):  # left to right, so a non-value is found early
            if isinstance(term.head, _LEAVES):
                term = term.tail
            else:
                pending.append(term.tail)
                term = term.head
        if isinstance(term, t.Tuple):
            pending.extend(reversed(term.elems))
        elif not isinstance(term, _LEAVES):
            return False
    return True


def is_ground(term: Term) -> bool:
    return not any(
        isinstance(n, (t.MathVar, t.SymVar, t.SeqVar, t.Metavar, t.ListMetavar))
        for n in t.walk(term)
    )


def mathvar_names(term: Term) -> set[str]:
    return {
        n.name for n in t.walk(term) if isinstance(n, (t.MathVar, t.SymVar, t.SeqVar))
    }


def subst_math(term, env: dict):
    """Replace math/name/sequence variables by terms from `env`.

    Sequence variables may map to lists and are spliced into the
    surrounding sibling list; a list value elsewhere is an error.  Terms
    are immutable, so the values are shared, not copied.
    """
    if isinstance(term, list):
        out = []
        for e in term:
            r = subst_math(e, env)
            out.extend(r) if isinstance(r, list) else out.append(r)
        return out
    if isinstance(term, (t.MathVar, t.SeqVar)) and term.name in env:
        v = env[term.name]
        return list(v) if isinstance(v, list) else v
    if isinstance(term, t.SymVar) and term.name in env:
        v = env[term.name]
        return t.Atom(v) if isinstance(v, str) else v
    if not isinstance(term, t.Node):
        return term
    return t.rebuild(term, lambda child: subst_math(child, env))


def subst_program_vars(term, env: dict):
    """Replace free program variables by value terms.

    A fun clause's patterns bind fresh names that shadow the outer ones, so
    they are left alone and its body is substituted without those names.
    Elsewhere the single-assignment subset rejects a rebinding of the same
    name in an inner scope earlier, so the substitution cannot capture.
    """
    if isinstance(term, list):
        return [subst_program_vars(e, env) for e in term]
    if isinstance(term, t.Fun):
        return t.Fun([_subst_fun_clause(c, env) for c in term.clauses])
    if isinstance(term, (t.Var, t.MathVar)) and term.name in env:
        # a math variable may have held a pattern position, standing for a
        # program variable; its uses are the same math variable
        return env[term.name]
    if not isinstance(term, t.Node):
        return term
    return t.rebuild(term, lambda child: subst_program_vars(child, env))


def _subst_fun_clause(clause: t.Clause, env: dict) -> t.Clause:
    bound = {
        n.name for p in clause.patterns for n in t.walk(p) if isinstance(n, (t.Var, t.MathVar))
    }
    inner = {k: v for k, v in env.items() if k not in bound}
    return t.Clause(
        clause.name,
        subst_program_vars(clause.patterns, {}),
        subst_program_vars(clause.body, inner),
    )


def unify(pattern, subject, binding: dict | None = None) -> dict | None:
    """One-way matching: bind the pattern's math variables to subject terms."""
    b = dict(binding) if binding else {}
    return _unify(pattern, subject, b)


def _unify(p, s, b):
    if isinstance(p, (t.MathVar, t.SymVar)):
        if p.name in b:
            return b if term_eq(b[p.name], s) else None
        if isinstance(p, t.SymVar) and not isinstance(s, (t.Atom, t.SymVar)):
            return None
        b[p.name] = s
        return b
    if isinstance(p, t.SeqVar):
        # only matches another sequence variable one-to-one outside a list
        if isinstance(s, t.SeqVar):
            if p.name in b:
                return b if term_eq(b[p.name], s) else None
            b[p.name] = s
            return b
        return None
    if type(p) is not type(s):
        return None
    for name in t.struct_fields(type(p)):
        pv, sv = getattr(p, name), getattr(s, name)
        if isinstance(pv, t.Node):
            if not isinstance(sv, t.Node):
                return None
            b = _unify(pv, sv, b)
        elif isinstance(pv, list):
            if not isinstance(sv, list) or len(pv) != len(sv):
                return None
            for pe, se in zip(pv, sv):
                b = _unify(pe, se, b)
                if b is None:
                    return None
        else:
            if pv != sv:
                return None
        if b is None:
            return None
    return b


def satisfies(gamma: Config, rho: dict, pattern: Config) -> bool:
    """Ground configuration `gamma` matches `pattern` under valuation `rho`."""
    code = subst_math(pattern.code, rho)
    if isinstance(code, list) or not term_eq(code, gamma.code):
        return False
    for k, v in pattern.env.entries:
        gv = gamma.env.lookup(k)
        if gv is None or not term_eq(subst_math(v, rho), gv):
            return False
    if pattern.env.frame is None and len(gamma.env.entries) != len(pattern.env.entries):
        return False
    return True
