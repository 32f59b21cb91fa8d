"""Small-step rules for the evaluated subset, shared by prover and interpreter.

The semantics is one decomposition-and-contraction table, `_decide`: for
a term that is not a value it returns either a contraction (a `Step`
naming the rule that fires at this node), a `Focus` (the leftmost child
still to be evaluated, plus a plug that rebuilds this one node around a
new child), or None when the term is stuck.  Congruence is not a rule of
its own: it is the chain of focuses from the root down to the redex, so
evaluation is deterministic.  Two drivers run the table:

  try_step / step_config  decompose from the root on every call and plug
                          the step's branches back into the whole term;
                          the prover and `replay` use these.
  interp.interpret        keeps the plugs between steps (refocusing), so
                          a step does not re-descend from the root.

A step may split into several branches when a symbolic scrutinee makes
clause selection undecidable; every branch carries the constraint that
chose it.  Terms are immutable: contractions share the subterms they
keep and substitution shares the values it inserts.  Rule tags:

  seq-match-to-case   begin P = E, Es end  ->  case E of P -> begin Es end end
  block-elim          begin E end  ->  E
  seq-discard         drop an evaluated non-final block element
  case-match          select a clause, substitute the bindings into its body
  case-mismatch       discard a clause whose pattern cannot match
  case-split          undecidable clause selection; fork on the match
  var-lookup          read a program variable from the environment
  match-extend-env    V = value  binds V and yields the value
  match-to-case       P = value  with a compound pattern, via a case
  call-unfold         unfold a call through the definition set
  fun-beta            apply a fun literal to evaluated arguments
  apply-desugar       apply(F, [A1, ..]) -> F(A1, ..)
  qualified-call-elim single-module semantics: M:F(As) -> F(As)
  int-add             integer addition
  list-append         ++ on two proper list values
  comp-empty          comprehension over [] yields []
  comp-step           comprehension consumes a matching generator head
  comp-skip           comprehension drops a non-matching generator head
  comp-filter         comprehension filter decided by a boolean value
  atom-to-list        character-code list of an atom
  length              length of a proper list value
  map-unfold          unfold one element of a well-known list map
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .. import tree as t
from .config import (
    Config,
    Matches,
    NotMatches,
    SymDefs,
    SymEnv,
    is_ground,
    is_value,
    subst_program_vars,
    term_eq,
)

Branch = tuple  # (code', env', extra constraints)


@dataclass(frozen=True)
class Step:
    tag: str
    branches: tuple


def _one(tag: str, code, env, extra=()) -> Step:
    return Step(tag, ((code, env, tuple(extra)),))


# --- symbolic pattern matching ----------------------------------------------


def sym_match(value, pat, env: SymEnv, cs):
    """Decide whether `value` matches `pat`: yes/no/maybe.

    Yes carries (pvars, mvars): program-variable bindings and bindings of
    math variables that stood in pattern positions.
    """
    keys = {c.key() for c in cs}
    return _sm(value, pat, env, keys, {}, {})


def _sm(v, p, env, keys, pvars, mvars):
    if isinstance(p, t.MathVar):
        # a math variable in a pattern position denotes a program variable;
        # fresh ones always match and bind
        if ("isvar", p.name) in keys and ("notinkeys", p.name, env.frame) in keys:
            if p.name in mvars:
                return ("yes", (pvars, mvars)) if term_eq(mvars[p.name], v) else ("no", None)
            mvars[p.name] = v
            return ("yes", (pvars, mvars))
        return ("maybe", None)
    if isinstance(p, t.Var):
        if p.name == "_":
            return ("yes", (pvars, mvars))
        bound = env.lookup(p.name)
        if bound is None and p.name in pvars:
            bound = pvars[p.name]
        if bound is not None:
            if term_eq(bound, v):
                return ("yes", (pvars, mvars))
            if _ground_distinct(bound, v):
                return ("no", None)
            return ("maybe", None)
        if env.frame is not None:
            return ("maybe", None)  # the unknown rest may already bind it
        pvars[p.name] = v
        return ("yes", (pvars, mvars))
    if isinstance(p, t.Atom):
        if isinstance(v, t.Atom):
            return ("yes", (pvars, mvars)) if v.name == p.name else ("no", None)
        return ("no", None) if _definitely_not(v, t.Atom) else ("maybe", None)
    if isinstance(p, t.Integer):
        if isinstance(v, t.Integer):
            return ("yes", (pvars, mvars)) if v.value == p.value else ("no", None)
        return ("no", None) if _definitely_not(v, t.Integer) else ("maybe", None)
    if isinstance(p, t.Nil):
        if isinstance(v, t.Nil):
            return ("yes", (pvars, mvars))
        return ("no", None) if _definitely_not(v, t.Nil) else ("maybe", None)
    if isinstance(p, t.Cons):
        if isinstance(v, t.Cons):
            r = _sm(v.head, p.head, env, keys, pvars, mvars)
            if r[0] != "yes":
                return r
            return _sm(v.tail, p.tail, env, keys, pvars, mvars)
        return ("no", None) if _definitely_not(v, t.Cons) else ("maybe", None)
    if isinstance(p, t.Tuple):
        if isinstance(v, t.Tuple):
            if len(v.elems) != len(p.elems):
                return ("no", None)
            for ve, pe in zip(v.elems, p.elems):
                r = _sm(ve, pe, env, keys, pvars, mvars)
                if r[0] != "yes":
                    return r
            return ("yes", (pvars, mvars))
        return ("no", None) if _definitely_not(v, t.Tuple) else ("maybe", None)
    return ("maybe", None)


def _ground_distinct(a, b) -> bool:
    return is_ground(a) and is_ground(b) and not term_eq(a, b)


def _definitely_not(v, ctor) -> bool:
    """`v` is a value whose head constructor rules out `ctor`."""
    concrete = (t.Atom, t.Integer, t.Nil, t.Cons, t.Tuple, t.Fun)
    return isinstance(v, concrete) and not isinstance(v, ctor)


def _apply_bindings(terms, pvars, mvars):
    out = terms
    if pvars or mvars:
        out = subst_program_vars(out, {**pvars, **mvars})
    return out


def _body_term(body: list) -> t.Expr:
    return body[0] if len(body) == 1 else t.Block([e for e in body])


# --- the decomposition-and-contraction table ---------------------------------


@dataclass(frozen=True)
class Focus:
    """Evaluate `child` next; `plug(new)` rebuilds the parent around `new`."""

    child: t.Expr
    plug: Callable[[t.Expr], t.Expr]


def _at(node: t.Node, field: str, index: int | None = None) -> Focus:
    """Focus on `node.field`, or on its `index`-th element for a list field."""
    seq = getattr(node, field)

    def plug(new):
        kept = {f: getattr(node, f) for f in t.struct_fields(type(node))}
        kept[field] = new if index is None else seq[:index] + [new] + seq[index + 1 :]
        return type(node)(**kept)

    return Focus(seq if index is None else seq[index], plug)


def _first_open(node: t.Node, field: str) -> Focus | None:
    """Focus on the leftmost element of `node.field` that is not a value."""
    for i, e in enumerate(getattr(node, field)):
        if not is_value(e):
            return _at(node, field, i)
    return None


def _decide(code, env: SymEnv, defs: SymDefs, cs) -> Step | Focus | None:
    """One row of the table for a `code` that is not a value: the rule
    that contracts it, the child to evaluate first, or None when stuck."""
    if isinstance(code, t.Block):
        return _decide_block(code, env)
    if isinstance(code, t.Case):
        return _decide_case(code, env, cs)
    if isinstance(code, t.Match):
        return _decide_match(code, env)
    if isinstance(code, t.Var):
        v = env.lookup(code.name)
        if v is None:
            return None
        return _one("var-lookup", v, env)
    if isinstance(code, t.Call):
        return _decide_call(code, env, defs, cs)
    if isinstance(code, t.RemoteCall):
        return _decide_remote(code, env)
    if isinstance(code, t.BinOp):
        return _decide_binop(code, env)
    if isinstance(code, t.Cons):
        return _at(code, "head" if not is_value(code.head) else "tail")
    if isinstance(code, t.Tuple):
        return _first_open(code, "elems")
    if isinstance(code, t.ListComp):
        return _decide_comp(code, env, cs)
    return None


def _decide_block(code: t.Block, env) -> Step | Focus | None:
    es = code.exprs
    if len(es) == 1:
        return _one("block-elim", es[0], env)
    if not es:
        return None
    head = es[0]
    if isinstance(head, t.Match):
        clause = t.Clause(None, [head.pattern], [t.Block(es[1:])])
        return _one("seq-match-to-case", t.Case(head.expr, [clause]), env)
    if is_value(head):
        return _one("seq-discard", t.Block(es[1:]), env)
    return _at(code, "exprs", 0)


def _decide_case(code: t.Case, env, cs) -> Step | Focus | None:
    if not is_value(code.scrutinee):
        return _at(code, "scrutinee")
    if not code.clauses:
        return None
    first, rest = code.clauses[0], code.clauses[1:]
    if len(first.body) == 1 and isinstance(first.body[0], t.Block) and first.body[0].exprs:
        flat = t.Clause(first.name, first.patterns, list(first.body[0].exprs))
        return _one("block-elim", t.Case(code.scrutinee, [flat] + rest), env)
    verdict, payload = sym_match(code.scrutinee, first.patterns[0], env, cs)
    if verdict == "yes":
        pvars, mvars = payload
        return _one("case-match", _body_term(_apply_bindings(first.body, pvars, mvars)), env)
    if verdict == "no":
        if not rest:
            return None
        return _one("case-mismatch", t.Case(code.scrutinee, rest), env)
    if not rest:
        return None  # cannot fork out of the last clause soundly
    return Step(
        "case-split",
        (
            (_body_term(first.body), env, (Matches(code.scrutinee, first.patterns[0]),)),
            (
                t.Case(code.scrutinee, rest),
                env,
                (NotMatches(code.scrutinee, first.patterns[0]),),
            ),
        ),
    )


def _decide_match(code: t.Match, env) -> Step | Focus | None:
    if not is_value(code.expr):
        return _at(code, "expr")
    pat = code.pattern
    if isinstance(pat, t.Var) and pat.name != "_" and env.lookup(pat.name) is None:
        if env.frame is not None:
            return None
        return Step("match-extend-env", ((code.expr, env.bind(pat.name, code.expr), ()),))
    clause = t.Clause(None, [pat], [code.expr])
    return _one("match-to-case", t.Case(code.expr, [clause]), env)


_APPLY = ("apply", 2)


def _decide_call(code: t.Call, env, defs, cs) -> Step | Focus | None:
    callee = code.callee
    if not isinstance(callee, (t.Atom, t.Fun, t.MathVar, t.SymVar)) and not is_value(callee):
        return _at(code, "callee")
    focus = _first_open(code, "args")
    if focus is not None:
        return focus
    if isinstance(callee, t.Atom) and (callee.name, len(code.args)) == _APPLY:
        if defs.lookup("apply", 2) is None:
            elems, tail = t.unlist(code.args[1])
            if tail is None and elems is not None and isinstance(code.args[1], (t.Cons, t.Nil)):
                return _one("apply-desugar", t.Call(code.args[0], elems), env)
            return None
    if isinstance(callee, t.Fun):
        return _beta(callee.clauses, code.args, env, cs, "fun-beta")
    if isinstance(callee, t.Atom):
        builtin = _builtin(callee.name, code.args)
        if builtin is not None:
            return _one(builtin[0], builtin[1], env)
        clauses = defs.lookup(callee.name, len(code.args))
        if clauses is None:
            return None
        return _beta(clauses, code.args, env, cs, "call-unfold")
    return None


def _beta(clauses, args, env, cs, tag: str) -> Step | None:
    formals_env = SymEnv((), None)  # formals live in a fresh scope
    keys = {c.key() for c in cs}
    for clause in clauses:
        if len(clause.patterns) != len(args):
            return None
        pvars, mvars = {}, {}
        verdict = "yes"
        for a, p in zip(args, clause.patterns):
            verdict, payload = _sm(a, p, formals_env, keys, pvars, mvars)
            if verdict != "yes":
                break
        if verdict == "yes":
            body = _apply_bindings(clause.body, pvars, mvars)
            return _one(tag, _body_term(body), env)
        if verdict == "maybe":
            return None
        # definite mismatch: try the next clause
    return None


def _builtin(name: str, args: list):
    if name == "atom_to_list" and len(args) == 1 and isinstance(args[0], t.Atom):
        return ("atom-to-list", t.mklist([t.Integer(ord(c)) for c in args[0].name]))
    if name == "length" and len(args) == 1:
        elems = _proper(args[0])
        if elems is not None:
            return ("length", t.Integer(len(elems)))
    return None


def _proper(term) -> list | None:
    if not isinstance(term, (t.Cons, t.Nil)):
        return None
    elems, tail = t.unlist(term)
    return elems if tail is None else None


def _decide_remote(code: t.RemoteCall, env) -> Step | Focus | None:
    if (
        isinstance(code.module, t.Atom)
        and code.module.name == "lists"
        and isinstance(code.name, t.Atom)
        and code.name.name == "map"
        and len(code.args) == 2
    ):
        focus = _first_open(code, "args")
        if focus is not None:
            return focus
        f, lst = code.args
        if isinstance(lst, t.Nil):
            return _one("map-unfold", t.Nil(), env)
        if isinstance(lst, t.Cons):
            rest = t.RemoteCall(code.module, code.name, [f, lst.tail])
            return _one("map-unfold", t.Cons(t.Call(f, [lst.head]), rest), env)
        return None
    if isinstance(code.name, (t.Atom, t.SymVar)):
        # single-module semantics: a qualified call is the local call
        return _one("qualified-call-elim", t.Call(code.name, code.args), env)
    return None


def _decide_binop(code: t.BinOp, env) -> Step | Focus | None:
    if not is_value(code.left):
        return _at(code, "left")
    if not is_value(code.right):
        return _at(code, "right")
    if code.op == "+" and isinstance(code.left, t.Integer) and isinstance(code.right, t.Integer):
        return _one("int-add", t.Integer(code.left.value + code.right.value), env)
    if code.op == "++":
        left = _proper(code.left)
        if left is not None and isinstance(code.right, (t.Cons, t.Nil)):
            return _one("list-append", t.mklist(left, code.right), env)
    return None


def _decide_comp(code: t.ListComp, env, cs) -> Step | Focus | None:
    if not code.qualifiers:
        return _one("comp-step", t.Cons(code.head, t.Nil()), env)
    q, rest = code.qualifiers[0], code.qualifiers[1:]
    if isinstance(q, t.Filter):
        if not is_value(q.expr):
            return _within(_at(code, "qualifiers", 0), "expr")
        if isinstance(q.expr, t.Atom) and q.expr.name == "true":
            return _one("comp-filter", t.ListComp(code.head, rest), env)
        if isinstance(q.expr, t.Atom) and q.expr.name == "false":
            return _one("comp-filter", t.Nil(), env)
        return None
    if isinstance(q, t.Generator):
        if not is_value(q.source):
            return _within(_at(code, "qualifiers", 0), "source")
        if isinstance(q.source, t.Nil):
            return _one("comp-empty", t.Nil(), env)
        if isinstance(q.source, t.Cons):
            verdict, payload = sym_match(q.source.head, q.pattern, SymEnv((), None), cs)
            tail_comp = t.ListComp(code.head, [t.Generator(q.pattern, q.source.tail)] + rest)
            if verdict == "no":
                return _one("comp-skip", tail_comp, env)
            if verdict == "yes":
                pvars, mvars = payload
                first = t.ListComp(
                    _apply_bindings([code.head], pvars, mvars)[0],
                    _apply_bindings(rest, pvars, mvars),
                )
                return _one("comp-step", t.BinOp("++", first, tail_comp), env)
        return None
    return None


def _within(outer: Focus, field: str) -> Focus:
    """Focus one level further down, into `field` of the focused qualifier."""
    inner = _at(outer.child, field)
    return Focus(inner.child, lambda new: outer.plug(inner.plug(new)))


# --- the driver that decomposes from the root ---------------------------------


def try_step(code, env: SymEnv, defs: SymDefs, cs=()) -> Step | None:
    """The step at the leftmost redex of `code`, its branches plugged back
    into the whole term; None for a value or a stuck term."""
    if is_value(code):
        return None
    plugs = []
    decision = _decide(code, env, defs, cs)
    while isinstance(decision, Focus):
        plugs.append(decision.plug)
        decision = _decide(decision.child, env, defs, cs)
    if decision is None:
        return None
    return Step(
        decision.tag,
        tuple((_plug_all(plugs, c), e, x) for c, e, x in decision.branches),
    )


def _plug_all(plugs: list, code):
    """Rebuild the whole term around `code` from a stack of plugs."""
    for plug in reversed(plugs):
        code = plug(code)
    return code


# --- configuration-level stepping and the rule catalog -----------------------


def step_config(cfg: Config, cs=()) -> Step | None:
    return try_step(cfg.code, cfg.env, cfg.defs, cs)


_CATALOG = [
    ("seq-match-to-case", "block starting with a match becomes a case"),
    ("block-elim", "singleton block unwraps"),
    ("seq-discard", "evaluated non-final block element is dropped"),
    ("case-match", "first clause matches; bindings substituted into the body"),
    ("case-mismatch", "first clause cannot match and is discarded"),
    ("case-split", "clause selection forks on an undecidable match"),
    ("var-lookup", "variable read from the environment"),
    ("match-extend-env", "match against a fresh variable extends the environment"),
    ("match-to-case", "match against a compound pattern goes through a case"),
    ("call-unfold", "call unfolds through the definition set"),
    ("fun-beta", "fun literal applied to evaluated arguments"),
    ("apply-desugar", "apply/2 becomes a direct application"),
    ("qualified-call-elim", "qualified call is the local call (single module)"),
    ("int-add", "integer addition"),
    ("list-append", "append of proper list values"),
    ("comp-empty", "comprehension over the empty list"),
    ("comp-step", "comprehension consumes a matching element"),
    ("comp-skip", "comprehension drops a non-matching element"),
    ("comp-filter", "comprehension filter decided"),
    ("atom-to-list", "character-code list of an atom"),
    ("length", "length of a proper list"),
    ("map-unfold", "one unfolding of the well-known list map"),
]
