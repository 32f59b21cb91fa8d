"""Circular-coinduction proof search over paired configurations.

A goal claims that two configurations meet: both sides eventually carry
the same code (and, for rule goals, the same environment).  The search
has three moves — discharge by subsumption, derive with a semantics
rule on either side, and close a loop against the initial goal — plus
the expansion of freshness assumptions into their first-order form,
which is recorded as an explicit trace step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import tree as t
from .config import (
    Config,
    EqConfig,
    Eq,
    Fresh,
    IsVar,
    Neq,
    NotInKeys,
    Pure,
    is_ground,
    is_value,
    mathvar_names,
    subst_math,
    term_eq,
    unify,
)
from .rules import step_config

DEFAULT_DEPTH = 32
DEFAULT_FORKS = 64


@dataclass
class ProofGoal:
    name: str
    lhs: EqConfig
    constraints: tuple = ()
    require_value: bool = False
    notes: list = field(default_factory=list)
    unprovable: str | None = None


@dataclass
class ProofResult:
    status: str  # proved | unknown | disproved
    trace: list
    depth_used: int = 0
    frontier: EqConfig | None = None
    counter: EqConfig | None = None
    reason: str = ""

    @property
    def proved(self) -> bool:
        return self.status == "proved"


# --- term and constraint rendering -------------------------------------------


def render_term(x) -> str:
    if isinstance(x, list):
        return ", ".join(render_term(e) for e in x)
    if isinstance(x, t.Atom):
        return x.name
    if isinstance(x, t.Integer):
        return str(x.value)
    if isinstance(x, (t.Var, t.MathVar, t.Metavar)):
        return x.name
    if isinstance(x, t.SymVar):
        return f"#{x.name}"
    if isinstance(x, (t.SeqVar, t.ListMetavar)):
        return f"{x.name}.."
    if isinstance(x, t.Nil):
        return "[]"
    if isinstance(x, t.Cons):
        elems, tail = t.unlist(x)
        inner = ", ".join(render_term(e) for e in elems)
        return f"[{inner}]" if tail is None else f"[{inner} | {render_term(tail)}]"
    if isinstance(x, t.Tuple):
        return "{" + ", ".join(render_term(e) for e in x.elems) + "}"
    if isinstance(x, t.Match):
        return f"{render_term(x.pattern)} = {render_term(x.expr)}"
    if isinstance(x, t.Case):
        cls = "; ".join(
            f"{render_term(c.patterns[0])} -> {render_term(c.body)}" for c in x.clauses
        )
        return f"case {render_term(x.scrutinee)} of {cls} end"
    if isinstance(x, t.Fun):
        cls = "; ".join(
            f"({render_term(c.patterns)}) -> {render_term(c.body)}" for c in x.clauses
        )
        return f"fun{cls} end"
    if isinstance(x, t.Call):
        callee = render_term(x.callee)
        if not isinstance(x.callee, (t.Atom, t.Var, t.MathVar, t.SymVar, t.Metavar)):
            callee = f"({callee})"
        return f"{callee}({render_term(x.args)})"
    if isinstance(x, t.RemoteCall):
        return f"{render_term(x.module)}:{render_term(x.name)}({render_term(x.args)})"
    if isinstance(x, t.Block):
        return f"begin {render_term(x.exprs)} end"
    if isinstance(x, t.BinOp):
        return f"{render_term(x.left)} {x.op} {render_term(x.right)}"
    if isinstance(x, t.ListComp):
        return f"[{render_term(x.head)} || {render_term(x.qualifiers)}]"
    if isinstance(x, t.Generator):
        return f"{render_term(x.pattern)} <- {render_term(x.source)}"
    if isinstance(x, t.Filter):
        return render_term(x.expr)
    return repr(x)


def render_constraint(c) -> str:
    if isinstance(c, Fresh):
        return f"fresh({c.var})"
    if isinstance(c, NotInKeys):
        return f"{c.var} notin keys({c.env_frame or '[]'})"
    if isinstance(c, IsVar):
        return f"isVar({c.var})"
    if isinstance(c, Pure):
        return f"pure({render_term(c.term)})"
    if isinstance(c, Eq):
        return f"{render_term(c.left)} = {render_term(c.right)}"
    if isinstance(c, Neq):
        return f"{render_term(c.left)} /= {render_term(c.right)}"
    name = type(c).__name__.lower()
    parts = [render_term(v) if isinstance(v, t.Node) else str(v) for v in vars(c).values()]
    return f"{name}({', '.join(parts)})"


def render_config(cfg: Config) -> str:
    env = ", ".join(f"{k} -> {render_term(v)}" for k, v in cfg.env.entries)
    if cfg.env.frame:
        env = f"{env}, {cfg.env.frame}" if env else cfg.env.frame
    defs = ", ".join(f"{n}/{a}" for (n, a), _ in cfg.defs.entries)
    if cfg.defs.frame:
        defs = f"{defs}, {cfg.defs.frame}" if defs else cfg.defs.frame
    return f"<{render_term(cfg.code)}>code <{env}>env <{defs}>defs"


def render_goal(goal: ProofGoal) -> str:
    cs = " /\\ ".join(render_constraint(c) for c in goal.constraints)
    body = f"{render_config(goal.lhs.cfg1)}  ~  {render_config(goal.lhs.cfg2)}"
    return f"{body} when {cs}" if cs else body


# --- subsumption and entailment -----------------------------------------------


def entails_meet(eq: EqConfig, require_value: bool) -> bool:
    """The state satisfies the meeting pattern: equal code (and env)."""
    c1, c2 = eq.cfg1, eq.cfg2
    if not term_eq(c1.code, c2.code):
        return False
    if require_value:
        return is_value(c1.code) and is_value(c2.code)
    return c1.env.key() == c2.env.key()


def _entailed_constraint(c, have: set) -> bool:
    if c.key() in have:
        return True
    if isinstance(c, Pure):
        return True  # every expression of the subset is effect-free
    if isinstance(c, Eq):
        return term_eq(c.left, c.right)
    if isinstance(c, Neq):
        return (
            isinstance(c.left, t.Node)
            and isinstance(c.right, t.Node)
            and is_ground(c.left)
            and is_ground(c.right)
            and not term_eq(c.left, c.right)
        )
    return False


def entails(p, q) -> bool:
    """`p` implies `q`, where each is a (basic pattern, constraints) pair.

    The basic patterns may be single or paired configurations; q's math
    variables (including lone env/defs frames) are existentially bound
    by matching against p.
    """
    p_basic, p_cs = p
    q_basic, q_cs = q
    binding = _unify_basic(q_basic, p_basic, {})
    if binding is None:
        return False
    have = {c.key() for c in p_cs}
    for c in q_cs:
        if not _entailed_constraint(_subst_constraint(c, binding), have):
            return False
    return True


def _subst_constraint(c, b):
    if isinstance(c, (Eq, Neq)):
        return type(c)(subst_math(c.left, b), subst_math(c.right, b))
    if isinstance(c, Pure):
        return Pure(subst_math(c.term, b))
    return c


def _unify_basic(q, p, b):
    if isinstance(q, EqConfig) and isinstance(p, EqConfig):
        b = _unify_basic(q.cfg1, p.cfg1, b)
        if b is None:
            return None
        return _unify_basic(q.cfg2, p.cfg2, b)
    if not (isinstance(q, Config) and isinstance(p, Config)):
        return None
    b = unify(q.code, p.code, b)
    if b is None:
        return None
    b = _unify_env(q.env, p.env, b)
    if b is None:
        return None
    return _unify_defs(q.defs, p.defs, b)


def _unify_env(qe, pe, b):
    if not qe.entries and qe.frame is not None:
        key = ("env", qe.frame)
        if key in b:
            return b if b[key] == pe.key() else None
        b = dict(b)
        b[key] = pe.key()
        return b
    if len(qe.entries) != len(pe.entries) or qe.frame != pe.frame:
        return None
    for (qk, qv), (pk, pv) in zip(qe.entries, pe.entries):
        if qk != pk:
            return None
        b = unify(qv, pv, b)
        if b is None:
            return None
    return b


def _unify_defs(qd, pd, b):
    if not qd.entries and qd.frame is not None:
        key = ("defs", qd.frame)
        if key in b:
            return b if b[key] == pd.key() else None
        b = dict(b)
        b[key] = pd.key()
        return b
    return b if qd.key() == pd.key() else None


# --- the proof search ---------------------------------------------------------


class _Search:
    def __init__(self, goal: ProofGoal, max_depth: int, fork_budget: int):
        self.goal = goal
        self.max_depth = max_depth
        self.forks_left = fork_budget
        self.depth_used = 0

    def run(self) -> ProofResult:
        return self.prove(self.goal.lhs, tuple(self.goal.constraints), self.max_depth, 0)

    def prove(self, eq: EqConfig, cs: tuple, depth: int, derived: int) -> ProofResult:
        trace: list = []
        while True:
            if entails_meet(eq, self.goal.require_value):
                trace.append(("subsume", "eq", cs))
                return ProofResult("proved", trace, self.depth_used)
            if derived >= 1 and self._loops(eq, cs):
                trace.append(("circularity", "eq", cs))
                return ProofResult("proved", trace, self.depth_used)
            if depth <= 0:
                return ProofResult("unknown", trace, self.depth_used, frontier=eq)
            side, step = self._pick_step(eq, cs)
            if step is None:
                expanded = self._expand_fresh(eq, cs)
                if expanded is not None:
                    var, cs = expanded
                    trace.append(("fresh-axiom", self._fresh_side(eq, var), cs))
                    continue
                return self._stuck(eq, cs, trace)
            self.depth_used += 1
            succs = [
                (eq.with_side(side, Config(code, env, eq.side(side).defs)), cs + extra)
                for code, env, extra in step.branches
            ]
            if len(succs) == 1:
                trace.append((step.tag, side, succs[0][1]))
                eq, cs = succs[0]
                depth -= 1
                derived += 1
                continue
            if self.forks_left < len(succs):
                return ProofResult("unknown", trace, self.depth_used, frontier=eq)
            self.forks_left -= len(succs)
            branches = []
            for beq, bcs in succs:
                sub = self.prove(beq, bcs, depth - 1, derived + 1)
                if sub.status != "proved":
                    return ProofResult(sub.status, trace, self.depth_used,
                                       frontier=sub.frontier, counter=sub.counter,
                                       reason=sub.reason)
                branches.append(sub.trace)
            trace.append((step.tag, side, cs, branches))
            return ProofResult("proved", trace, self.depth_used)

    def _pick_step(self, eq: EqConfig, cs):
        step = step_config(eq.cfg1, cs)
        if step is not None:
            return "cfg1", step
        step = step_config(eq.cfg2, cs)
        if step is not None:
            return "cfg2", step
        return None, None

    def _expand_fresh(self, eq: EqConfig, cs: tuple):
        for i, c in enumerate(cs):
            if isinstance(c, Fresh):
                frame = eq.cfg1.env.frame
                new = cs[:i] + cs[i + 1 :] + (NotInKeys(c.var, frame), IsVar(c.var))
                return c.var, new
        return None

    @staticmethod
    def _fresh_side(eq: EqConfig, var: str) -> str:
        return "cfg2" if var in mathvar_names(eq.cfg2.code) else "cfg1"

    def _stuck(self, eq: EqConfig, cs, trace) -> ProofResult:
        c1, c2 = eq.cfg1, eq.cfg2
        ground = (
            is_ground(c1.code)
            and is_ground(c2.code)
            and c1.env.frame is None
            and c2.env.frame is None
        )
        if ground:
            return ProofResult("disproved", trace, self.depth_used, counter=eq,
                               reason="sides terminate differently")
        return ProofResult("unknown", trace, self.depth_used, frontier=eq,
                           reason="no applicable rule")

    def _loops(self, eq: EqConfig, cs) -> bool:
        init = self.goal.lhs
        b = _unify_basic(init.cfg1, eq.cfg1, {})
        if b is None:
            return False
        b = _unify_basic(init.cfg2, eq.cfg2, b)
        if b is None:
            return False
        have = {c.key() for c in cs}
        for c in self.goal.constraints:
            if isinstance(c, Fresh):
                needed = (NotInKeys(c.var, init.cfg1.env.frame), IsVar(c.var))
                if not all(_entailed_constraint(n, have) for n in needed):
                    return False
            elif not _entailed_constraint(_subst_constraint(c, b), have):
                return False
        return True


def scc_prove(goal: ProofGoal, max_depth: int = DEFAULT_DEPTH, rules=None,
              fork_budget: int = DEFAULT_FORKS) -> ProofResult:
    if goal.unprovable:
        return ProofResult("unknown", [], reason=goal.unprovable)
    return _Search(goal, max_depth, fork_budget).run()


# --- trace formatting and replay ----------------------------------------------


def format_trace(result: ProofResult) -> str:
    lines: list[str] = []
    n = [0]

    def emit(entries):
        for entry in entries:
            tag, side, cs = entry[0], entry[1], entry[2]
            n[0] += 1
            shown = ", ".join(render_constraint(c) for c in cs)
            lines.append(f"{n[0]}. {tag} @ {side} | constraints: {shown}")
            if len(entry) > 3:
                for branch in entry[3]:
                    emit(branch)

    emit(result.trace)
    if result.status == "proved":
        lines.append("QED")
    elif result.status == "unknown":
        lines.append(f"UNKNOWN depth={result.depth_used}")
    else:
        counter = render_config(result.counter.cfg1) if result.counter else ""
        lines.append(f"DISPROVED {counter}")
    return "\n".join(lines)


def replay(goal: ProofGoal, result: ProofResult) -> bool:
    """Re-execute a proved trace mechanically and re-check every discharge."""
    if result.status != "proved":
        return False
    return _replay(goal, goal.lhs, tuple(goal.constraints), result.trace)


def _replay(goal, eq, cs, entries) -> bool:
    for entry in entries:
        tag, side = entry[0], entry[1]
        if tag == "subsume":
            return entails_meet(eq, goal.require_value)
        if tag == "circularity":
            search = _Search(goal, 0, 0)
            return search._loops(eq, cs)
        if tag == "fresh-axiom":
            expanded = _Search(goal, 0, 0)._expand_fresh(eq, cs)
            if expanded is None:
                return False
            cs = expanded[1]
            continue
        step = step_config(eq.side(side), cs)
        if step is None or step.tag != tag:
            return False
        succs = [
            (eq.with_side(side, Config(code, env, eq.side(side).defs)), cs + extra)
            for code, env, extra in step.branches
        ]
        if len(entry) > 3:
            branches = entry[3]
            if len(branches) != len(succs):
                return False
            return all(
                _replay(goal, beq, bcs, br) for (beq, bcs), br in zip(succs, branches)
            )
        if len(succs) != 1:
            return False
        eq, cs = succs[0]
    return False
