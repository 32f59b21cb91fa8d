"""Recursive-descent parser for mini-Erlang modules and expressions.

Every parsed node carries a span `(start, end)` of character offsets into
the decoded text; `SourceModule.text` keeps that text's UTF-8 bytes.

`meta=True` switches variables to metavariables and enables `Name..` list
metavariables; the refactoring DSL parses its pattern bodies this way.
"""

from __future__ import annotations

from . import tree as t
from .lexer import Token, TokenStream

KEYWORDS = {"begin", "case", "of", "end", "fun"}


class _Parser(TokenStream):
    def __init__(self, text: str, meta: bool = False):
        super().__init__(text)
        self.text = text
        self.meta = meta

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> t.Expr:
        start = self.peek()
        lhs = self.parse_sum()
        if self.accept("EQ"):
            self.check_pattern(lhs)
            rhs = self.parse_expr()
            return self.spanned(t.Match(lhs, rhs), start)
        return lhs

    def parse_sum(self) -> t.Expr:
        start = self.peek()
        e = self.parse_app()
        while self.peek().kind in ("PLUS", "PLUSPLUS"):
            op = self.next().value
            rhs = self.parse_app()
            e = self.spanned(t.BinOp(op, e, rhs), start)
        return e

    def parse_app(self) -> t.Expr:
        start = self.peek()
        e = self.parse_primary()
        while True:
            kind = self.peek().kind
            if kind == "COLON":
                self.next()
                name = self.parse_primary()
                self.expect("LPAREN")
                args = self.parse_arg_list()
                self.expect("RPAREN")
                e = self.spanned(t.RemoteCall(e, name, args), start)
            elif kind == "LPAREN":
                self.next()
                args = self.parse_arg_list()
                self.expect("RPAREN")
                e = self.spanned(t.Call(e, args), start)
            else:
                return e

    def parse_arg_list(self, closer: str = "RPAREN") -> list[t.Expr]:
        """Expressions separated by commas, up to but not including `closer`."""
        return [] if self.at(closer) else self.parse_expr_seq()

    def parse_primary(self) -> t.Expr:
        tok = self.peek()
        kind, value = tok.kind, tok.value
        if kind == "VAR":
            self.next()
            if not self.meta:
                return self.spanned(t.Var(value), tok)
            if self.accept("DOTDOT"):
                return self.spanned(t.ListMetavar(value), tok)
            return self.spanned(t.Metavar(value), tok)
        if kind == "ATOM":
            if value == "case":
                return self.parse_case(tok)
            if value == "fun":
                return self.parse_fun(tok)
            if value == "begin":
                self.next()
                exprs = self.parse_expr_seq()
                self.expect("ATOM", "end")
                return self.spanned(t.Block(exprs), tok)
            if value not in KEYWORDS:
                self.next()
                return self.spanned(t.Atom(value), tok)
        elif kind == "INT":
            self.next()
            return self.spanned(t.Integer(int(value)), tok)
        elif kind == "LBRACK":
            return self.parse_list(tok)
        elif kind == "LBRACE":
            self.next()
            elems = self.parse_arg_list("RBRACE")
            self.expect("RBRACE")
            return self.spanned(t.Tuple(elems), tok)
        elif kind == "LPAREN":
            self.next()
            e = self.parse_expr()
            self.expect("RPAREN")
            return e
        raise self.error(f"unexpected {value or kind!r}", ["expression"])

    def parse_expr_seq(self) -> list[t.Expr]:
        return self.parse_sep(self.parse_expr, "COMMA")

    def parse_sep(self, item, sep: str) -> list:
        """One or more `item()`s separated by `sep` tokens."""
        out = [item()]
        while self.accept(sep):
            out.append(item())
        return out

    def parse_case(self, start: Token) -> t.Expr:
        self.expect("ATOM", "case")
        scrut = self.parse_expr()
        self.expect("ATOM", "of")
        clauses = self.parse_sep(self.parse_case_clause, "SEMI")
        self.expect("ATOM", "end")
        return self.spanned(t.Case(scrut, clauses), start)

    def parse_case_clause(self) -> t.Clause:
        start = self.peek()
        pat = self.parse_expr()
        self.check_pattern(pat)
        self.expect("ARROW")
        body = self.parse_expr_seq()
        return self.spanned(t.Clause(None, [pat], body), start)

    def parse_fun(self, start: Token) -> t.Expr:
        self.expect("ATOM", "fun")
        clauses = self.parse_sep(self.parse_fun_clause, "SEMI")
        self.expect("ATOM", "end")
        arities = {len(c.patterns) for c in clauses}
        if len(arities) != 1:
            raise self.error("fun clauses must share one arity")
        return self.spanned(t.Fun(clauses), start)

    def parse_fun_clause(self, name: str | None = None, start: Token | None = None) -> t.Clause:
        """`(Patterns) -> Body`: a clause of a fun, or with `name` of a form."""
        start = start or self.peek()
        self.expect("LPAREN")
        pats = self.parse_arg_list()
        for p in pats:
            self.check_pattern(p, joint=pats)
        self.expect("RPAREN")
        self.expect("ARROW")
        return self.spanned(t.Clause(name, pats, self.parse_expr_seq()), start)

    def parse_list(self, start: Token) -> t.Expr:
        self.expect("LBRACK")
        close = self.accept("RBRACK")
        if close:
            return self.spanned_tok(t.Nil(), start, close)
        first = self.parse_expr()
        if self.accept("BARBAR"):
            quals = self.parse_sep(self.parse_qualifier, "COMMA")
            close = self.expect("RBRACK")
            return self.spanned_tok(t.ListComp(first, quals), start, close)
        elems = [first]
        starts = [start]
        while self.accept("COMMA"):
            starts.append(self.peek())
            elems.append(self.parse_expr())
        tail: t.Expr | None = None
        if self.accept("BAR"):
            tail = self.parse_expr()
        close = self.expect("RBRACK")
        if tail is None:
            tail = t.Nil(span=(close.start, close.end))
        out = tail
        for elem, st in zip(reversed(elems), reversed(starts)):
            st_off = start.start if st is start else elem.span[0] if elem.span else st.start
            out = t.Cons(elem, out, span=(st_off, close.end))
        return out

    def parse_qualifier(self) -> t.Node:
        start = self.peek()
        e = self.parse_sum()
        if self.accept("GEN"):
            self.check_pattern(e)
            src = self.parse_expr()
            return self.spanned(t.Generator(e, src), start)
        if isinstance(e, (t.Metavar, t.ListMetavar)):
            return e  # a bare metavariable stands for whole qualifiers
        return self.spanned(t.Filter(e), start)

    # -- module forms --------------------------------------------------------

    def parse_module(self) -> t.SourceModule:
        start = self.peek()
        mod_name: str | None = None
        exports: list[t.ExportEntry] = []
        while self.accept("DASH"):
            attr = self.expect("ATOM")
            if attr.value == "module":
                self.expect("LPAREN")
                name = self.expect("ATOM")
                self.expect("RPAREN")
                self.expect("DOT")
                if mod_name is not None:
                    raise self.error("duplicate module attribute")
                mod_name = name.value
            elif attr.value == "export":
                self.expect("LPAREN")
                self.expect("LBRACK")
                if not self.at("RBRACK"):
                    exports += self.parse_sep(self.parse_export_entry, "COMMA")
                self.expect("RBRACK")
                self.expect("RPAREN")
                self.expect("DOT")
            else:
                raise self.error(f"unknown attribute -{attr.value}", ["module", "export"])
        if mod_name is None:
            raise self.error("missing module attribute")
        forms: list[t.FunctionForm] = []
        while not self.at("EOF"):
            forms.append(self.parse_form())
        mod = t.SourceModule(mod_name, exports, forms, self.text.encode("utf-8"))
        mod.span = (start.start, len(self.text))
        return mod

    def parse_export_entry(self) -> t.ExportEntry:
        name = self.expect("ATOM")
        self.expect("SLASH")
        arity = self.expect("INT")
        entry = t.ExportEntry(name.value, int(arity.value))
        entry.span = (name.start, arity.end)
        return entry

    def parse_form(self) -> t.FunctionForm:
        start = self.peek()
        clauses = self.parse_sep(self.parse_form_clause, "SEMI")
        dot = self.expect("DOT")
        names = {c.name for c in clauses}
        arities = {len(c.patterns) for c in clauses}
        if len(names) != 1 or len(arities) != 1:
            raise self.error("clauses of one form must share name and arity")
        form = t.FunctionForm(clauses)
        form.span = (start.start, dot.end)
        return form

    def parse_form_clause(self) -> t.Clause:
        start = self.peek()
        name = self.expect("ATOM")
        if name.value in KEYWORDS:
            raise self.error(f"{name.value!r} cannot name a function")
        return self.parse_fun_clause(name.value, start)

    # -- helpers -------------------------------------------------------------

    def spanned(self, node: t.Node, start: Token) -> t.Node:
        end = self.toks[self.pos - 1].end if self.pos > 0 else start.end
        node.span = (start.start, end)
        return node

    def spanned_tok(self, node: t.Node, start: Token, end: Token) -> t.Node:
        node.span = (start.start, end.end)
        return node

    def check_pattern(self, node: t.Expr, joint: list[t.Expr] | None = None) -> None:
        if not t.is_pattern(node):
            raise self.error("not a valid pattern")
        if self.meta:
            return
        seen: set[str] = set()
        for n in t.walk(node) if joint is None else (x for p in joint for x in t.walk(p)):
            if isinstance(n, t.Var) and n.name != "_":
                if n.name in seen:
                    raise self.error(f"repeated variable {n.name} in pattern")
                seen.add(n.name)


def _decode(text: bytes | str) -> str:
    if isinstance(text, bytes):
        return text.decode("utf-8")
    return text


def parse_module(text: bytes | str) -> t.SourceModule:
    p = _Parser(_decode(text))
    return p.parse_module()


def parse_expr_seq(text: bytes | str, meta: bool = False) -> list[t.Expr]:
    p = _Parser(_decode(text), meta=meta)
    exprs = p.parse_expr_seq()
    p.expect("EOF")
    return exprs


def parse_expr(text: bytes | str, meta: bool = False) -> t.Expr:
    exprs = parse_expr_seq(text, meta=meta)
    if len(exprs) == 1:
        return exprs[0]
    block = t.Block(exprs)
    block.span = (exprs[0].span[0], exprs[-1].span[1]) if exprs[0].span else None
    return block


def parse_clause_pattern(text: str) -> t.ClausePat:
    """Parse a DSL clause-shaped pattern like `Name(Args..) -> Body..`."""
    p = _Parser(_decode(text), meta=True)
    start = p.peek()
    head = p.parse_app()
    if not isinstance(head, t.Call):
        raise p.error("clause pattern must start with a call shape")
    p.expect("ARROW")
    body = p.parse_expr_seq()
    p.expect("EOF")
    clause = t.ClausePat(head.callee, head.args, body)
    clause.span = (start.start, p.toks[-1].end)
    return clause
