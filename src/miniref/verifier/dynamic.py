"""Randomized before/after equivalence testing of exported functions."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .. import tree as t
from .config import term_eq
from .interp import Cutoff, Stuck, Value, interpret
from .prover import render_term

_ATOMS = ("a", "b", "apple", "ok", "true", "false")


def random_term(rng: random.Random, depth: int = 3) -> t.Expr:
    choices = ["atom", "int"]
    if depth > 0:
        choices += ["list", "tuple"]
    kind = rng.choice(choices)
    if kind == "atom":
        return t.Atom(rng.choice(_ATOMS))
    if kind == "int":
        return t.Integer(rng.randint(-5, 5))
    n = rng.randint(0, 3)
    elems = [random_term(rng, depth - 1) for _ in range(n)]
    return t.mklist(elems) if kind == "list" else t.Tuple(elems)


def random_args(rng: random.Random, arity: int) -> list[t.Expr]:
    return [random_term(rng) for _ in range(arity)]


@dataclass
class Divergence:
    function: str
    args: list
    before: object
    after: object

    def describe(self) -> str:
        shown = ", ".join(render_term(a) for a in self.args)
        return (
            f"{self.function}({shown}): before={_outcome(self.before)}"
            f" after={_outcome(self.after)}"
        )


def _outcome(r) -> str:
    if isinstance(r, Value):
        return render_term(r.term)
    if isinstance(r, Stuck):
        return "stuck"
    return "cutoff"


@dataclass
class DynamicReport:
    samples: int
    checked: list = field(default_factory=list)  # (function, samples run)
    divergences: list = field(default_factory=list)
    cutoffs: int = 0  # samples cut off by fuel on both sides
    stuck: int = 0  # samples stuck on both sides

    @property
    def ok(self) -> bool:
        return not self.divergences


def dynamic_verify(
    before: t.SourceModule,
    after: t.SourceModule,
    samples: int = 100,
    seed: int = 0,
    fuel: int = 5000,
) -> DynamicReport:
    common = sorted(
        {(e.name, e.arity) for e in before.exports}
        & {(e.name, e.arity) for e in after.exports}
    )
    report = DynamicReport(samples)
    rng = random.Random(seed)
    for name, arity in common:
        for _ in range(samples):
            args = random_args(rng, arity)
            call = t.Call(t.Atom(name), args)
            r1 = interpret(call, defs=before, fuel=fuel)
            r2 = interpret(call, defs=after, fuel=fuel)
            if isinstance(r1, Cutoff) and isinstance(r2, Cutoff):
                report.cutoffs += 1  # nontermination on both sides is not a divergence
                continue
            if isinstance(r1, Value) and isinstance(r2, Value):
                if not term_eq(r1.term, r2.term):
                    report.divergences.append(Divergence(f"{name}/{arity}", args, r1, r2))
                continue
            if isinstance(r1, Stuck) and isinstance(r2, Stuck):
                report.stuck += 1  # equally undefined on this input
                continue
            report.divergences.append(Divergence(f"{name}/{arity}", args, r1, r2))
        report.checked.append((f"{name}/{arity}", samples))
    return report
