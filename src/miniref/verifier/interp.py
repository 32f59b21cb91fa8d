"""Concrete small-step interpreter: the refocusing driver of the rule table.

`rules.try_step` decomposes the whole term from the root on every step.
`interpret` instead keeps the evaluation context between steps as a stack
of plugs, one per parent node between the root and the focus (Danvy &
Nielsen, "Refocusing in reduction semantics", 2004).  After a
contraction it plugs the contractum into its parent and re-decides the
parent there, climbing further only while the focus is a value.  A
parent's decision depends only on whether its focused child is a value,
so this fires the same rules in the same order as stepping from the
root, in time independent of the depth of the redex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import tree as t
from . import rules
from .config import Config, SymDefs, SymEnv, is_value


@dataclass(frozen=True)
class Value:
    term: t.Expr


@dataclass(frozen=True)
class Stuck:
    config: Config


@dataclass(frozen=True)
class Cutoff:
    config: Config


def interpret(code: t.Expr, env=None, defs=None, fuel: int = 5000):
    """Run `code` to a value, a stuck state, or a cutoff after `fuel` steps.

    `Stuck` and `Cutoff` carry the whole configuration, plugged back
    together from the focus and the context.
    """
    if env is None:
        env = SymEnv((), None)
    elif isinstance(env, dict):
        env = SymEnv(tuple(env.items()), None)
    if defs is None:
        defs = SymDefs((), None)
    elif isinstance(defs, t.SourceModule):
        defs = SymDefs.of_module(defs)
    focus, plugs = code, []

    def whole() -> Config:
        return Config(rules._plug_all(plugs, focus), env, defs)

    for _ in range(fuel):
        while is_value(focus):
            if not plugs:
                return Value(focus)
            focus = plugs.pop()(focus)
        decision = rules._decide(focus, env, defs, ())
        while isinstance(decision, rules.Focus):
            plugs.append(decision.plug)
            focus = decision.child
            decision = rules._decide(focus, env, defs, ())
        if decision is None or len(decision.branches) != 1:
            return Stuck(whole())  # a concrete step never forks
        focus, env, _ = decision.branches[0]
        if plugs:
            focus = plugs.pop()(focus)
    return Cutoff(whole())
