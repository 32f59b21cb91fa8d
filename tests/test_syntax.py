import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from miniref import engine, semlib, tree as t
from miniref.dsl import _CondParser
from miniref.lexer import MiniErlangSyntaxError, Token, TokenStream, tokenize
from miniref.parser import _Parser, parse_clause_pattern, parse_expr, parse_module
from miniref.printer import SpliceError, print_expr, print_module, splice

SAMPLE = b"""-module(fruit).
-export([pick/1]).

% choose a fruit
pick(N) ->
    Basket = [apple, pear | []],
    case N of
        1 -> hd(Basket);
        _ -> pear
    end.
"""


def test_parse_print_roundtrip_module():
    mod = parse_module(SAMPLE)
    printed = print_module(mod)
    again = parse_module(printed.encode())
    assert t.struct_eq(mod, again)


def test_splice_no_edits_is_identity():
    mod = parse_module(SAMPLE)
    assert splice(SAMPLE.decode(), []) == SAMPLE.decode()
    assert mod.text == SAMPLE


def test_single_edit_leaves_rest_of_bytes_alone():
    src = "-module(m).\nf() -> apple.\n"
    mod = parse_module(src)
    apple = next(n for n in t.walk(mod) if isinstance(n, t.Atom) and n.name == "apple")
    out = splice(src, [(apple.span, t.Atom("pear"))])
    assert out == "-module(m).\nf() -> pear.\n"


def test_splice_reindents_to_span_column():
    src = "-module(m).\nf() ->\n    old.\n"
    mod = parse_module(src)
    old = next(n for n in t.walk(mod) if isinstance(n, t.Atom) and n.name == "old")
    block = t.Block([t.Atom("a"), t.Atom("b")])
    out = splice(src, [(old.span, block)])
    assert out == "-module(m).\nf() ->\n    begin\n        a,\n        b\n    end.\n"


def test_splice_rejects_overlap():
    with pytest.raises(SpliceError):
        splice("0123456789", [((0, 5), "x"), ((3, 7), "y")])


def test_spans_nest():
    mod = parse_module(SAMPLE)
    for node in t.walk(mod):
        if node.span is None:
            continue
        kids = [c for c in t.children(node) if c.span is not None]
        for c in kids:
            assert node.span[0] <= c.span[0] and c.span[1] <= node.span[1]
        for a, b in zip(kids, kids[1:]):
            assert a.span[1] <= b.span[0]


def test_every_parsed_node_has_a_span():
    mod = parse_module(SAMPLE)
    assert all(n.span is not None for n in t.walk(mod))


@pytest.mark.parametrize(
    "src",
    [
        "f() -> case",
        "f(",
        "f() -> .",
        "f() -> end.",
        "-module(m). f() -> 1. f() -> 2.",  # caught later, in the graph
    ][:4],
)
def test_syntax_errors_carry_position(src):
    with pytest.raises(MiniErlangSyntaxError) as exc:
        parse_module(src.encode())
    assert exc.value.line >= 1
    assert exc.value.col >= 1


def test_repeated_var_in_one_pattern_rejected():
    with pytest.raises(MiniErlangSyntaxError):
        parse_module(b"-module(m).\nf({X, X}) -> X.\n")
    with pytest.raises(MiniErlangSyntaxError):
        parse_module(b"-module(m).\nf(X, X) -> X.\n")
    # underscore is exempt
    parse_module(b"-module(m).\nf(_, _) -> ok.\n")


def test_nonlinear_patterns_allowed_in_rule_language():
    pat = parse_expr("{X, X}", meta=True)
    assert isinstance(pat, t.Tuple)
    assert all(isinstance(e, t.Metavar) for e in pat.elems)


def test_apply_is_a_plain_call():
    e = parse_expr("apply(G, [])")
    assert isinstance(e, t.Call)
    assert isinstance(e.callee, t.Atom) and e.callee.name == "apply"
    assert isinstance(e.args[1], t.Nil)


def test_var_callee_and_immediate_fun_call():
    e = parse_expr("X()")
    assert isinstance(e, t.Call) and isinstance(e.callee, t.Var)
    e = parse_expr("(fun() -> a end)()")
    assert isinstance(e, t.Call) and isinstance(e.callee, t.Fun)
    assert print_expr(e) == "(fun() -> a end)()"


def test_expression_sequence_becomes_block():
    e = parse_expr("X = 1, X")
    assert isinstance(e, t.Block)
    assert len(e.exprs) == 2


def test_clause_pattern_parse():
    cp = parse_clause_pattern("Name(Args..) -> Body..")
    assert isinstance(cp, t.ClausePat)
    assert isinstance(cp.name, t.Metavar)
    assert isinstance(cp.patterns[0], t.ListMetavar)
    assert isinstance(cp.body[0], t.ListMetavar)


def test_quoted_atoms():
    e = parse_expr("'Weird atom'")
    assert isinstance(e, t.Atom) and e.name == "Weird atom"
    assert print_expr(e) == "'Weird atom'"
    assert print_expr(t.Atom("case")) == "'case'"


def test_list_comprehension_roundtrip():
    src = "[X + 1 || X <- Xs, f(X)]"
    e = parse_expr(src)
    assert isinstance(e, t.ListComp)
    assert print_expr(e) == src


def test_case_prints_simple_bodies_inline():
    e = parse_expr("case H of 1 -> 2; 3 -> 4 end")
    assert print_expr(e) == "case H of\n    1 -> 2;\n    3 -> 4\nend"


# -- the token table against the character-at-a-time tokenizer ---------------


# the former `PUNCT`, in the order that gives longer literals precedence
_REFERENCE_PUNCT = [
    ("->", "ARROW"), ("<-", "GEN"), ("||", "BARBAR"), ("..", "DOTDOT"), ("++", "PLUSPLUS"),
    ("(", "LPAREN"), (")", "RPAREN"), ("[", "LBRACK"), ("]", "RBRACK"), ("{", "LBRACE"),
    ("}", "RBRACE"), (",", "COMMA"), (";", "SEMI"), (":", "COLON"), ("|", "BAR"), ("=", "EQ"),
    ("+", "PLUS"), ("-", "DASH"), ("/", "SLASH"), (".", "DOT"),
]


def _reference_tokenize(text: str) -> list[tuple]:
    """The former tokenizer, one character per step, as the reference for
    the token table: (kind, value, start, end, line, col) per token."""
    toks: list[tuple] = []
    i, line, linestart = 0, 1, 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            linestart = i
            continue
        if c.isspace():
            i += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        col = i - linestart + 1
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("INT", text[i:j], i, j, line, col))
            i = j
            continue
        if c.isalpha() and c.islower():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ATOM", text[i:j], i, j, line, col))
            i = j
            continue
        if c == "_" or (c.isalpha() and c.isupper()):
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("VAR", text[i:j], i, j, line, col))
            i = j
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                if text[j] == "\n":
                    raise MiniErlangSyntaxError("unterminated quoted atom", line, col)
                j += 1
            if j >= n:
                raise MiniErlangSyntaxError("unterminated quoted atom", line, col)
            toks.append(("ATOM", text[i + 1 : j], i, j + 1, line, col))
            i = j + 1
            continue
        for lit, kind in _REFERENCE_PUNCT:
            if text.startswith(lit, i):
                toks.append((kind, lit, i, i + len(lit), line, col))
                i += len(lit)
                break
        else:
            raise MiniErlangSyntaxError(f"unexpected character {c!r}", line, col)
    toks.append(("EOF", "", n, n, line, n - linestart + 1))
    return toks


def _token_tuples(text: str) -> list[tuple]:
    return [(tok.kind, tok.value, tok.start, tok.end, tok.line, tok.col) for tok in tokenize(text)]


def _tokens_or_error(tokenizer, text: str):
    try:
        return tokenizer(text)
    except MiniErlangSyntaxError as e:
        return str(e), e.line, e.col


_FRAGMENTS = [lit for lit, _ in _REFERENCE_PUNCT] + [
    "abc", "x1", "Var", "_", "_y", "0", "42", "7z", " ", "\t", "\n", "\r",
    "% note", "%", "'", "'q a'", "é", "ª", "²", "É", "½", "&",
]


@settings(max_examples=800, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=24).map("".join))
@example("12abc 3² ²x 'é' _é É1 ª")
@example("a 'b\nc'")
@example("x % 'unclosed\n'")
def test_token_table_agrees_with_the_reference_tokenizer(text):
    assert _tokens_or_error(_token_tuples, text) == _tokens_or_error(_reference_tokenize, text)


def test_both_parsers_read_one_token_stream():
    assert issubclass(_Parser, TokenStream) and issubclass(_CondParser, TokenStream)
    plumbing = {"peek", "next", "at", "accept", "expect"}
    assert plumbing.isdisjoint(vars(_Parser)) and plumbing.isdisjoint(vars(_CondParser))
    tok = Token("INT", "1", 0, 1, 1, 1)
    tok.value = "2"  # not frozen
    assert not hasattr(tok, "__dict__")  # slotted


# -- generative roundtrip ----------------------------------------------------

_atoms = st.sampled_from(["a", "b", "ok", "apple"])
_vars = st.sampled_from(["X", "Y", "Zs"])


def _exprs(leaf):
    return st.one_of(
        st.builds(t.Cons, leaf, st.builds(t.Nil)),
        st.builds(t.Tuple, st.lists(leaf, min_size=0, max_size=3)),
        st.builds(t.Call, st.builds(t.Atom, _atoms), st.lists(leaf, max_size=2)),
        st.builds(
            t.RemoteCall, st.builds(t.Atom, _atoms), st.builds(t.Atom, _atoms), st.lists(leaf, max_size=2)
        ),
        st.builds(lambda l, r: t.BinOp("+", l, r), leaf, leaf),
        st.builds(lambda s, b: t.Case(s, [t.Clause(None, [t.Var("W")], [b])]), leaf, leaf),
        st.builds(lambda b: t.Fun([t.Clause(None, [], [b])]), leaf),
        st.builds(lambda es: t.Block(es), st.lists(leaf, min_size=1, max_size=3)),
        st.builds(lambda h, src: t.ListComp(h, [t.Generator(t.Var("Q"), src)]), leaf, leaf),
    )


expr_strategy = st.recursive(
    st.one_of(
        st.builds(t.Atom, _atoms),
        st.builds(t.Integer, st.integers(0, 99)),
        st.builds(t.Var, _vars),
        st.builds(t.Nil),
    ),
    _exprs,
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(expr_strategy)
def test_print_parse_is_structural_identity(e):
    printed = print_expr(e)
    back = parse_expr(printed)
    assert t.struct_eq(e, back), printed


@settings(max_examples=200, deadline=None)
@given(expr_strategy)
def test_copy_fresh_preserves_structure_and_renames_ids(e):
    dup = t.copy_fresh(e)
    assert t.struct_eq(e, dup)
    assert {n.nid for n in t.walk(e)}.isdisjoint({n.nid for n in t.walk(dup)})
    assert all(n.span is None for n in t.walk(dup))


def _recursive_key(node):
    """The former nested `struct_key`, the reference for the flat one."""
    parts: list = [type(node).__name__]
    for f in fields(node):
        if f.name in ("nid", "span", "text"):
            continue
        v = getattr(node, f.name)
        if isinstance(v, t.Node):
            parts.append(_recursive_key(v))
        elif isinstance(v, list):
            parts.append(tuple(_recursive_key(x) if isinstance(x, t.Node) else x for x in v))
        else:
            parts.append(v)
    return tuple(parts)


# few leaves over two atoms, so that equal pairs are common
_small_exprs = st.recursive(
    st.one_of(st.builds(t.Atom, st.sampled_from(["a", "b"])), st.builds(t.Nil)),
    _exprs,
    max_leaves=4,
)


@settings(max_examples=400, deadline=None)
@given(_small_exprs, _small_exprs)
@example(parse_expr("[a, [b]]"), parse_expr("[[a], b]"))
@example(parse_expr("{a, {b}}"), parse_expr("{{a}, b}"))
@example(parse_expr("{{}, a}"), parse_expr("{{a}}"))
def test_flat_struct_eq_agrees_with_the_recursive_key(a, b):
    same = _recursive_key(a) == _recursive_key(b)
    assert t.struct_eq(a, b) == same
    assert (t.struct_key(a) == t.struct_key(b)) == same


def _long(n, last=0):
    return t.mklist([t.Integer(i) for i in range(n - 1)] + [t.Integer(last)])


def _deep(n, leaf=0):
    out: t.Expr = t.Integer(leaf)
    for _ in range(n):
        out = t.Tuple([out])
    return out


@pytest.mark.parametrize("build", [_long, _deep], ids=["long", "deep"])
def test_struct_key_struct_eq_and_copy_fresh_on_large_terms(build):
    a, b, other = build(5000), build(5000), build(5000, 1)
    assert t.struct_eq(a, b) and not t.struct_eq(a, other)
    assert hash(t.struct_key(a)) == hash(t.struct_key(b))
    assert t.struct_key(a) == t.struct_key(b) != t.struct_key(other)
    dup = t.copy_fresh(a)
    assert t.struct_eq(a, dup)
    assert {n.nid for n in t.walk(a)}.isdisjoint(n.nid for n in t.walk(dup))


def test_only_the_tree_module_reads_the_node_schema():
    # every traversal goes through tree.struct_fields, rebuild and copy_fresh
    src = Path(t.__file__).parent
    banned = re.compile(r"dataclasses\.fields|\bfields\(|deepcopy")
    hits = [
        f"{path.relative_to(src)}:{i}"
        for path in sorted(src.rglob("*.py"))
        if path != src / "tree.py"
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert hits == []


def test_semantic_and_builtin_names_are_dispatched_only_by_their_tables():
    # the evaluator and `engine.validate` read `semlib.SEMANTIC` and
    # `engine.BUILTINS`; a name spelled anywhere else in those modules
    # (say, a `name == "fresh"` branch) is a second catalog
    src = Path(t.__file__).parent
    text = (src / "semlib.py").read_text() + (src / "engine.py").read_text()
    names = list(semlib.SEMANTIC) + [name for name, _ in engine.BUILTINS]
    spelled = {n: len(re.findall(rf"""["']{n}["']""", text)) for n in names}
    assert spelled == {n: 1 for n in names}
    assert not re.search(r"\bdef _arity\b|\bBUILTIN_REFACS\b", text)
