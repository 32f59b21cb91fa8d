"""Canonical pretty-printer and span-preserving splicer.

Layout is deterministic: one expression per line inside blocks and clause
bodies, 4-space indentation.  `splice` leaves every character outside the
edited spans untouched.
"""

from __future__ import annotations

import re

from . import tree as t

INDENT = "    "
_BARE_ATOM = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")
_KEYWORDS = {"begin", "case", "of", "end", "fun"}


class SpliceError(Exception):
    pass


def atom_text(name: str) -> str:
    if _BARE_ATOM.match(name) and name not in _KEYWORDS:
        return name
    return f"'{name}'"


def _callee_text(callee: t.Expr, ind: str) -> str:
    txt = print_expr(callee, ind)
    if isinstance(callee, (t.Atom, t.Var, t.Metavar, t.MathVar, t.SymVar)):
        return txt
    return f"({txt})"


def _seq(exprs: list[t.Expr], ind: str) -> str:
    return (",\n" + ind).join(print_expr(e, ind) for e in exprs)


def _simple(e: t.Expr) -> bool:
    return isinstance(e, (t.Atom, t.Integer, t.Var, t.Nil, t.Metavar, t.MathVar, t.SymVar))


def print_expr(node: t.Node, ind: str = "") -> str:
    if isinstance(node, t.Atom):
        return atom_text(node.name)
    if isinstance(node, t.Integer):
        return str(node.value)
    if isinstance(node, t.Var):
        return node.name
    if isinstance(node, t.Metavar):
        return node.name
    if isinstance(node, t.ListMetavar):
        return node.name + ".."
    if isinstance(node, t.MathVar):
        return node.name
    if isinstance(node, t.SymVar):
        return node.name
    if isinstance(node, t.SeqVar):
        return node.name + ".."
    if isinstance(node, t.Nil):
        return "[]"
    if isinstance(node, t.Cons):
        elems, tail = t.unlist(node)
        inner = ", ".join(print_expr(e, ind) for e in elems)
        if tail is None:
            return f"[{inner}]"
        return f"[{inner} | {print_expr(tail, ind)}]"
    if isinstance(node, t.Tuple):
        return "{" + ", ".join(print_expr(e, ind) for e in node.elems) + "}"
    if isinstance(node, t.Match):
        return f"{print_expr(node.pattern, ind)} = {print_expr(node.expr, ind)}"
    if isinstance(node, t.BinOp):
        lhs = print_expr(node.left, ind)
        rhs = print_expr(node.right, ind)
        if isinstance(node.right, (t.BinOp, t.Match)):
            rhs = f"({rhs})"
        if isinstance(node.left, t.Match):
            lhs = f"({lhs})"
        return f"{lhs} {node.op} {rhs}"
    if isinstance(node, t.Call):
        args = ", ".join(print_expr(a, ind) for a in node.args)
        return f"{_callee_text(node.callee, ind)}({args})"
    if isinstance(node, t.RemoteCall):
        args = ", ".join(print_expr(a, ind) for a in node.args)
        return f"{_callee_text(node.module, ind)}:{_callee_text(node.name, ind)}({args})"
    if isinstance(node, t.Block):
        inner = ind + INDENT
        return "begin\n" + inner + _seq(node.exprs, inner) + "\n" + ind + "end"
    if isinstance(node, t.Case):
        inner = ind + INDENT
        parts = []
        for c in node.clauses:
            head = print_expr(c.patterns[0], inner)
            if len(c.body) == 1 and _simple(c.body[0]):
                parts.append(f"{inner}{head} -> {print_expr(c.body[0], inner)}")
            else:
                body_ind = inner + INDENT
                parts.append(f"{inner}{head} ->\n{body_ind}{_seq(c.body, body_ind)}")
        return (
            f"case {print_expr(node.scrutinee, ind)} of\n"
            + ";\n".join(parts)
            + f"\n{ind}end"
        )
    if isinstance(node, t.Fun):
        if len(node.clauses) == 1 and len(node.clauses[0].body) == 1:
            c = node.clauses[0]
            pats = ", ".join(print_expr(p, ind) for p in c.patterns)
            return f"fun({pats}) -> {print_expr(c.body[0], ind)} end"
        inner = ind + INDENT
        parts = []
        for c in node.clauses:
            pats = ", ".join(print_expr(p, inner) for p in c.patterns)
            body_ind = inner + INDENT
            parts.append(f"{inner}({pats}) ->\n{body_ind}{_seq(c.body, body_ind)}")
        return "fun\n" + ";\n".join(parts) + f"\n{ind}end"
    if isinstance(node, t.ListComp):
        quals = ", ".join(print_expr(q, ind) for q in node.qualifiers)
        return f"[{print_expr(node.head, ind)} || {quals}]"
    if isinstance(node, t.Generator):
        return f"{print_expr(node.pattern, ind)} <- {print_expr(node.source, ind)}"
    if isinstance(node, t.Filter):
        return print_expr(node.expr, ind)
    if isinstance(node, t.Clause):
        return print_clause(node, ind)
    if isinstance(node, t.ClausePat):
        pats = ", ".join(print_expr(p, ind) for p in node.patterns)
        body = ", ".join(print_expr(b, ind) for b in node.body)
        return f"{print_expr(node.name, ind)}({pats}) -> {body}"
    if isinstance(node, t.ExportEntry):
        return f"{atom_text(node.name)}/{node.arity}"
    if isinstance(node, t.FunctionForm):
        return print_form(node, ind)
    if isinstance(node, t.SourceModule):
        return print_module(node)
    raise TypeError(f"cannot print {type(node).__name__}")


def print_clause(clause: t.Clause, ind: str = "") -> str:
    pats = ", ".join(print_expr(p, ind) for p in clause.patterns)
    head = f"{atom_text(clause.name)}({pats})" if clause.name else f"({pats})"
    inner = ind + INDENT
    return f"{head} ->\n{inner}{_seq(clause.body, inner)}"


def print_form(form: t.FunctionForm, ind: str = "") -> str:
    return (";\n" + ind).join(print_clause(c, ind) for c in form.clauses) + "."


def print_module(mod: t.SourceModule) -> str:
    lines = [f"-module({atom_text(mod.name)})."]
    if mod.exports:
        entries = ", ".join(print_expr(e) for e in mod.exports)
        lines.append(f"-export([{entries}]).")
    for form in mod.forms:
        lines.append("")
        lines.append(print_form(form))
    return "\n".join(lines) + "\n"


Edit = tuple[tuple[int, int], "t.Node | list[t.Node] | str"]


def _edit_text(replacement) -> str:
    if isinstance(replacement, str):
        return replacement
    if isinstance(replacement, list):
        return ",\n".join(print_expr(n) for n in replacement)
    return print_expr(replacement)


def splice(original: str, edits: list[Edit]) -> str:
    """`original` with each edit's span, in characters, replaced by the
    edit's text; a printed node is indented to its span's column."""
    ordered = sorted(edits, key=lambda e: e[0])
    for (span_a, _), (span_b, _) in zip(ordered, ordered[1:]):
        if span_a[1] > span_b[0]:
            raise SpliceError(f"overlapping edit spans {span_a} and {span_b}")
    out: list[str] = []
    pos = 0
    for (start, end), replacement in ordered:
        if start < pos or end > len(original) or start > end:
            raise SpliceError(f"invalid edit span ({start}, {end})")
        out.append(original[pos:start])
        text = _edit_text(replacement)
        if not isinstance(replacement, str):
            col = start - (original.rfind("\n", 0, start) + 1)
            text = text.replace("\n", "\n" + " " * col)
        out.append(text)
        pos = end
    out.append(original[pos:])
    return "".join(out)
