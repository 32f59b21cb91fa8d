"""Builders that turn rule definitions and module pairs into proof goals.

Metavariables become math variables (lowercased); a metavariable sitting
in a name position — a callee or a qualified-call module/name — becomes
a symbolic name variable instead, and list metavariables become sequence
variables.  Rule conditions are translated through the small axiom table
(fresh, pure, atom); a condition with no axiom either marks the goal
unprovable (predicates) or is dropped with a note (pure bindings).
"""

from __future__ import annotations

from .. import tree as t
from ..dsl import CAnd, CBind, CCall, CVar, RuleDef, RuleStep, SchemeDef, print_cond
from .config import Config, EqConfig, Fresh, IsAtom, Pure, SymDefs, SymEnv
from .prover import ProofGoal


class GoalError(Exception):
    pass


# --- symbolization ------------------------------------------------------------


def _mname(name: str) -> str:
    return name.lower()


def symbolize(node, name_pos: bool = False):
    if isinstance(node, list):
        return [symbolize(e, name_pos) for e in node]
    if isinstance(node, t.Metavar):
        return t.SymVar(_mname(node.name)) if name_pos else t.MathVar(_mname(node.name))
    if isinstance(node, t.ListMetavar):
        return t.SeqVar(_mname(node.name))
    if isinstance(node, t.Call):
        return t.Call(symbolize(node.callee, name_pos=True), symbolize(node.args))
    if isinstance(node, t.RemoteCall):
        return t.RemoteCall(
            symbolize(node.module, name_pos=True),
            symbolize(node.name, name_pos=True),
            symbolize(node.args),
        )
    if not isinstance(node, t.Node):
        return node
    return t.rebuild(node, symbolize)


def _as_code(exprs) -> t.Expr:
    if isinstance(exprs, list):
        if len(exprs) == 1:
            return exprs[0]
        return t.Block(list(exprs))
    return exprs


# --- condition translation ----------------------------------------------------


def _translate_condition(cond, constraints: list, notes: list) -> str | None:
    """Append constraints for `cond`; return a reason when untranslatable."""
    if cond is None:
        return None
    if isinstance(cond, CAnd):
        reason = _translate_condition(cond.left, constraints, notes)
        if reason:
            return reason
        return _translate_condition(cond.right, constraints, notes)
    if isinstance(cond, CCall) and cond.name == "fresh" and len(cond.args) == 1:
        arg = cond.args[0]
        if isinstance(arg, CVar):
            constraints.append(Fresh(_mname(arg.name)))
            return None
    if isinstance(cond, CCall) and cond.name == "pure" and len(cond.args) == 1:
        arg = cond.args[0]
        if isinstance(arg, CVar):
            constraints.append(Pure(t.MathVar(_mname(arg.name))))
            return None
    if isinstance(cond, CCall) and cond.name == "atom" and len(cond.args) == 1:
        arg = cond.args[0]
        if isinstance(arg, CVar):
            constraints.append(IsAtom(_mname(arg.name)))
            return None
    if isinstance(cond, CBind):
        # the bound metavariable simply stays an unconstrained math variable
        notes.append(f"no axiom for condition '{print_cond(cond)}'; treated as unconstrained")
        return None
    return f"no axiom for condition '{print_cond(cond)}'"


# --- goal builders ------------------------------------------------------------


_RULE_ENV = SymEnv((), "e1")
_RULE_DEFS = SymDefs((), "d1")


def _rule_goal(name: str, matching, replacement, conditions) -> ProofGoal:
    constraints: list = []
    notes: list = []
    unprovable = None
    for cond in conditions:
        reason = _translate_condition(cond, constraints, notes)
        if reason and unprovable is None:
            unprovable = reason
    lhs = EqConfig(
        Config(symbolize(_as_code(matching)), _RULE_ENV, _RULE_DEFS),
        Config(symbolize(_as_code(replacement)), _RULE_ENV, _RULE_DEFS),
    )
    return ProofGoal(name, lhs, tuple(constraints), notes=notes, unprovable=unprovable)


def goal_from_rule(rule: RuleDef) -> ProofGoal:
    if len(rule.steps) != 1:
        raise GoalError(f"{rule.name}: only single-rule definitions have rule goals")
    step = rule.steps[0][1]
    if step.modifier is not None:
        raise GoalError(f"{rule.name}: rules with target modifiers have no rule goal")
    return _rule_goal(rule.name, step.matching, step.replacement, [step.condition])


def _subst_metavar(node, name: str, repl):
    if isinstance(node, list):
        return [_subst_metavar(e, name, repl) for e in node]
    if isinstance(node, t.Metavar) and node.name == name:
        return t.copy_fresh(repl)
    if not isinstance(node, t.Node):
        return node
    return t.rebuild(node, lambda child: _subst_metavar(child, name, repl))


def goals_from_dataflow(scheme: SchemeDef) -> list[ProofGoal]:
    if scheme.definition is None or not scheme.references:
        raise GoalError(f"{scheme.name}: not a dataflow scheme")
    d: RuleStep = scheme.definition
    d_match = _as_code(d.matching if isinstance(d.matching, list) else [d.matching])
    d_repl = _as_code(d.replacement)
    goals = []
    for refvar, ref in scheme.references:
        matching = _subst_metavar(_as_code([ref.matching]), refvar, d_match)
        replacement = _subst_metavar(_as_code(ref.replacement), refvar, d_repl)
        goals.append(
            _rule_goal(
                f"{scheme.name}/{refvar}",
                matching,
                replacement,
                [d.condition, ref.condition],
            )
        )
    return goals


def goals_from_application(
    before: t.SourceModule, after: t.SourceModule
) -> list[ProofGoal]:
    b = {(e.name, e.arity) for e in before.exports}
    a = {(e.name, e.arity) for e in after.exports}
    if b != a:
        only = sorted(b ^ a)
        listing = ", ".join(f"{n}/{k}" for n, k in only)
        raise GoalError(f"export sets differ: {listing}")
    before_defs = SymDefs.of_module(before)
    after_defs = SymDefs.of_module(after)
    goals = []
    for name, arity in sorted(b):
        args1 = [t.MathVar(f"x{i + 1}") for i in range(arity)]
        args2 = [t.MathVar(f"x{i + 1}") for i in range(arity)]
        lhs = EqConfig(
            Config(t.Call(t.Atom(name), args1), SymEnv((), None), before_defs),
            Config(t.Call(t.Atom(name), args2), SymEnv((), None), after_defs),
        )
        goals.append(ProofGoal(f"{name}/{arity}", lhs, (), require_value=True))
    return goals
