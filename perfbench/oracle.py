"""Seeded inputs and their expected outputs, computed without miniref.

Every generator here returns plain data: source text for the program, and
the bytes, values or labels the program's output is checked against.  The
expectations come from the generator's own templates and from Python
arithmetic, never from the program under test, so a fault in the program
cannot hide itself by also producing the expectation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ATOMS = ("apple", "pear", "plum", "fig", "kiwi", "lime", "ok")
WORDS = ("scale", "merge", "pick", "shift", "fold", "blend", "split", "weigh")


def term_text(term) -> str:
    """Canonical text of a miniref value term, read from its node fields.

    Integers print as digits, atoms by name, tuples as `{a,b}`, proper lists
    as `[a,b]` and improper ones as `[a,b|t]`.  Only attribute names are
    used, so this is independent of the program's own printer.
    """
    kind = type(term).__name__
    if kind == "Integer":
        return str(term.value)
    if kind == "Atom":
        return term.name
    if kind == "Tuple":
        return "{" + ",".join(term_text(e) for e in term.elems) + "}"
    if kind in ("Cons", "Nil"):
        elems = []
        while type(term).__name__ == "Cons":
            elems.append(term_text(term.head))
            term = term.tail
        tail = "" if type(term).__name__ == "Nil" else "|" + term_text(term)
        return "[" + ",".join(elems) + tail + "]"
    return f"<{kind}>"


# -- rename_callers --------------------------------------------------------------


@dataclass
class CallerModule:
    """A module whose target function is called from `n` caller functions."""

    module: str
    target: str
    arity: int
    const: int
    calls: list  # per caller: list of call sites, each a list of argument texts
    new_name: str
    filler: int = 0  # functions that do not call the target, after the callers

    def render(self, name: str | None = None, tupled: bool = False,
               exported: str | None = None) -> bytes:
        """The module text, with the target renamed to `name` and/or its
        arguments grouped into one tuple, as a signature change prints it.
        `exported` names the target in the export list when that differs."""
        name = name or self.target
        arity = 1 if tupled else self.arity

        def args(texts):
            inner = ", ".join(texts)
            return "{" + inner + "}" if tupled else inner

        params = [f"P{i}" for i in range(1, self.arity + 1)]
        callers = [f"c{i}" for i in range(1, len(self.calls) + 1)]
        exports = [f"{exported or name}/{arity}", f"twin/{self.arity}"] + \
            [f"{c}/1" for c in callers]
        out = [f"-module({self.module}).", f"-export([{', '.join(exports)}]).", ""]
        out += [f"{name}({args(params)}) ->", f"    {{{', '.join(params)}, {self.const}}}.", ""]
        out += [f"twin({', '.join(params)}) ->", f"    {{{', '.join(reversed(params))}}}.", ""]
        for c, sites in zip(callers, self.calls):
            texts = [f"{name}({args(site)})" for site in sites]
            body = texts[0] if len(texts) == 1 else "{" + ", ".join(texts) + "}"
            out += [f"{c}(Y) ->", f"    {body}.", ""]
        for i in range(self.filler):
            out += [f"fill{i}(X) ->", f"    {{X, {i}, [{', '.join(ATOMS[:3])}]}}.", ""]
        return "\n".join(out).encode()


def _call_arg(rng: random.Random) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        return "Y"
    if kind == 1:
        return f"Y + {rng.randint(1, 9)}"
    if kind == 2:
        return str(rng.randint(0, 99))
    return rng.choice(ATOMS)


def caller_module(rng: random.Random, n: int, arity: int, filler: int = 0) -> CallerModule:
    """Names, constants and arguments are drawn; the shape is not: every
    third caller calls the target twice, so the work depends on n and
    `filler` only."""
    calls = [
        [[_call_arg(rng) for _ in range(arity)] for _ in range(1 + (i % 3 == 0))]
        for i in range(n)
    ]
    target, new_name = rng.sample(WORDS, 2)
    return CallerModule(
        module=f"callers{n}",
        target=f"{target}_{rng.randint(10, 49)}",
        arity=arity,
        const=rng.randint(0, 99),
        calls=calls,
        new_name=f"{new_name}_{rng.randint(50, 99)}",
        filler=filler,
    )


# -- test_long_lists ---------------------------------------------------------------


@dataclass
class FoldPair:
    """Three versions of `run/0`, which sums a literal list of length L.
    `run` takes no argument, so `refl test` samples carry no data whose size
    would change the cost from seed to seed."""

    items: list

    def _literal(self) -> str:
        return "[" + ", ".join(str(x) for x in self.items) + "]"

    def direct(self, plus: int = 0) -> bytes:
        return (
            "-module(fold).\n-export([run/0]).\n\n"
            f"run() ->\n    total({self._literal()}).\n\n"
            "total([H | T]) ->\n    H + total(T);\n"
            f"total([]) ->\n    {plus}.\n"
        ).encode()

    def accumulator(self) -> bytes:
        return (
            "-module(fold).\n-export([run/0]).\n\n"
            f"run() ->\n    total({self._literal()}, 0).\n\n"
            "total([H | T], Acc) ->\n    total(T, Acc + H);\n"
            "total([], Acc) ->\n    Acc.\n"
        ).encode()

    def mutant(self) -> bytes:
        return self.direct(plus=1)

    @property
    def total(self) -> int:
        return sum(self.items)


def fold_pair(rng: random.Random, length: int) -> FoldPair:
    return FoldPair([rng.randint(0, 9) for _ in range(length)])


# -- refactor_verify -----------------------------------------------------------------


@dataclass
class RuleCase:
    """A small module, a catalog rule, the target position, and `f/1` on one
    argument with its expected result."""

    rule: str
    source: bytes
    module: str
    at: tuple  # (line, column) of the target expression
    arg: str  # argument text for f/1
    expected: str  # term_text of f(arg)


def rule_cases(rng: random.Random, index: int) -> list[RuleCase]:
    """One module for each catalog rule, each rewritten at a non-pattern
    expression, so the before/after pair is equivalent by construction."""
    a1, a2 = rng.sample(ATOMS, 2)
    k1, k2, x = rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 20)

    def module(tag: str, body: str) -> tuple[str, bytes]:
        name = f"{tag}{index}"
        return name, f"-module({name}).\n-export([f/1]).\n\nf({body}".encode()

    cases = []
    name, src = module("lh", f"X) ->\n    [X + {k1} | [{a1}, {k2}]].\n")
    cases.append(RuleCase("extract_listhead", src, name, (5, 5), str(x),
                          f"[{x + k1},{a1},{k2}]"))
    name, src = module("wf", f"X) ->\n    Y = {{X, {a1}}},\n    [Y, {k1}].\n")
    cases.append(RuleCase("wrap_into_fun", src, name, (5, 9), str(x),
                          f"[{{{x},{a1}}},{k1}]"))
    name, src = module("mq", f"X) ->\n    g(X) + {k1}.\n\ng(Y) ->\n    Y + {k2}.\n")
    cases.append(RuleCase("add_module_qualifier", src, name, (5, 6), str(x),
                          str(x + k1 + k2)))
    name, src = module("fv", f"Z) ->\n    X = fun() -> {a1} end,\n    {{Z, X()}}.\n")
    cases.append(RuleCase("fun2value", src, name, (5, 9), str(x), f"{{{x},{a1}}}"))
    name, src = module(
        "ct",
        f"C) ->\n    case C of\n        {k1} -> [{a1} | g(C)];\n"
        f"        Other -> [{a2} | g(C)]\n    end.\n\ng(Y) ->\n    {{Y}}.\n",
    )
    arg = rng.choice((k1, x))
    cases.append(RuleCase("common_tail", src, name, (5, 5), str(arg),
                          f"[{a1 if arg == k1 else a2}|{{{arg}}}]"))
    name, src = module("lc", f"L) ->\n    [{{X, {a1}}} || X <- L].\n")
    xs = [rng.randint(0, 9) for _ in range(rng.randint(1, 4))]
    cases.append(RuleCase("listcomprehension_to_map", src, name, (5, 5),
                          "[" + ", ".join(map(str, xs)) + "]",
                          "[" + ",".join(f"{{{v},{a1}}}" for v in xs) + "]"))
    return cases


# A rule with two adjacent list metavariables; N picks the one split.
GROUP_PREFIX = (
    "REFACTORING group_prefix(N)\n"
    "    {A.., B..}\n"
    "    -----\n"
    "    {{A..}, B..}\n"
    "WHEN\n"
    "    N = length(A..)\n"
)


@dataclass
class WideTuple:
    elems: list
    split: int

    def render(self, grouped: bool = False) -> bytes:
        if grouped:
            head = "{" + ", ".join(self.elems[: self.split]) + "}"
            body = "{" + ", ".join([head] + self.elems[self.split :]) + "}"
        else:
            body = "{" + ", ".join(self.elems) + "}"
        return f"-module(wide).\n-export([f/0]).\n\nf() ->\n    {body}.\n".encode()


def wide_tuple(rng: random.Random, width: int) -> WideTuple:
    elems = [rng.choice(ATOMS) if rng.random() < 0.5 else str(rng.randint(0, 99))
             for _ in range(width)]
    return WideTuple(elems, rng.randint(1, width - 1))


# `f(X) -> f(X).` never returns; `f(X) -> X.` returns X.  Inequivalent by
# construction; the inputs do not depend on the seed.
LOOP_BEFORE = b"-module(loop).\n-export([f/1]).\n\nf(X) ->\n    f(X).\n"
LOOP_AFTER = b"-module(loop).\n-export([f/1]).\n\nf(X) ->\n    X.\n"
