import time

from hypothesis import example, given, settings, strategies as st

from miniref import tree as t
from miniref.matcher import Bindings, instantiate, match, val_eq
from miniref.parser import parse_clause_pattern, parse_expr
from miniref.printer import print_expr


def pat(text: str):
    return parse_expr(text, meta=True)


def code(text: str):
    return parse_expr(text)


def test_head_tail_binding():
    results = match(pat("[HeadExpr | TailExpr]"), code("[f(X) | T]"))
    assert len(results) == 1
    b = results[0]
    assert print_expr(b["HeadExpr"]) == "f(X)"
    assert print_expr(b["TailExpr"]) == "T"


def test_callee_and_list_metavar():
    (b,) = match(pat("Fun(Args..)"), code("foo(1, 2)"))
    assert isinstance(b["Fun"], t.Atom) and b["Fun"].name == "foo"
    assert [print_expr(a) for a in b["Args"]] == ["1", "2"]


def test_two_list_metavars_enumerate_all_splits():
    results = match(pat("{A.., B..}"), code("{1, 2, 3}"))
    assert len(results) == 4
    lengths = [(len(b["A"]), len(b["B"])) for b in results]
    assert lengths == [(0, 3), (1, 2), (2, 1), (3, 0)]  # shortest-A first


def test_single_list_metavar_single_candidate():
    results = match(pat("{A..}"), code("{1, 2, 3}"))
    assert len(results) == 1


def test_nonlinear_pattern_needs_equal_subtrees():
    assert len(match(pat("{X, X}"), code("{f(1), f(1)}"))) == 1
    assert match(pat("{X, X}"), code("{f(1), f(2)}")) == []


def test_seed_constrains_match():
    seed = Bindings({"X": code("apple")})
    assert len(match(pat("f(X)"), code("f(apple)"), seed)) == 1
    assert match(pat("f(X)"), code("f(pear)"), seed) == []


def test_list_metavar_rebinding_is_equality():
    results = match(pat("{A.., A..}"), code("{1, 2, 1, 2}"))
    assert len(results) == 1
    assert len(results[0]["A"]) == 2


def test_improper_tail():
    (b,) = match(pat("[X | Xs]"), code("[1, 2 | Rest]"))
    assert print_expr(b["Xs"]) == "[2 | Rest]"
    # the bound tail is the real subtree, not a reconstruction
    assert b["Xs"].span is not None


def test_match_inside_fun_and_case():
    (b,) = match(pat("fun() -> E end"), code("fun() -> apple end"))
    assert print_expr(b["E"]) == "apple"
    (b,) = match(pat("case S of P -> B end"), code("case X of 1 -> two end"))
    assert print_expr(b["S"]) == "X" and print_expr(b["P"]) == "1"


def test_clause_pattern_against_function_clause():
    cp = parse_clause_pattern("Name(Args..) -> Body..")
    clause = t.Clause("f", [t.Var("X"), t.Var("Y")], [t.Atom("one"), t.Atom("two")])
    (b,) = match(cp, clause)
    assert b["Name"] == "f"
    assert len(b["Args"]) == 2 and len(b["Body"]) == 2


def test_atom_scalar_mismatch():
    assert match(pat("f(1)"), code("f(2)")) == []
    assert match(pat("f(X)"), code("g(Y)")) == []


def test_flat_patterns_need_no_stack():
    elems = ", ".join(f"e{i}" for i in range(1500))
    for text in ("{" + elems + "}", "[" + elems + "]"):
        assert len(match(pat(text), code(text))) == 1


def test_two_list_metavars_on_a_wide_tuple_are_linear():
    # one bind per split of A.., and B.. takes the rest in one bind: the
    # quadratic enumeration took about 18 s here
    subject = code("{" + ", ".join(f"e{i}" for i in range(2000)) + "}")
    start = time.perf_counter()
    results = match(pat("{A.., B..}"), subject)
    assert time.perf_counter() - start < 2.0
    assert len(results) == 2001
    assert [len(b["A"]) for b in results] == list(range(2001))


# -- instantiation -----------------------------------------------------------


def test_instantiate_sequence_replacement():
    b = Bindings({"Var": "V", "HeadExpr": code("g(1)"), "TailExpr": code("T")})
    out = instantiate([pat("Var = HeadExpr"), pat("[Var | TailExpr]")], b)
    assert [print_expr(e) for e in out] == ["V = g(1)", "[V | T]"]


def test_instantiate_remote_call():
    b = Bindings({"Mod": "m", "Fun": t.Atom("foo"), "Args": [code("1"), code("2")]})
    out = instantiate(pat("Mod:Fun(Args..)"), b)
    assert print_expr(out) == "m:foo(1, 2)"


def test_instantiate_tuple_scheme_shape():
    b = Bindings({"Name": "f", "Args": [code("A"), code("B")]})
    out = instantiate(pat("Name({Args..})"), b)
    assert print_expr(out) == "f({A, B})"


def test_instantiate_deep_copies():
    sub = code("g(1)")
    out = instantiate(pat("f(X)"), Bindings({"X": sub}))
    assert out.args[0] is not sub
    assert t.struct_eq(out.args[0], sub)


def test_instantiate_name_string_positions():
    out = instantiate(pat("X"), Bindings({"X": "V1"}))
    assert isinstance(out, t.Var) and out.name == "V1"
    out = instantiate(pat("X"), Bindings({"X": "ok"}))
    assert isinstance(out, t.Atom)
    out = instantiate(pat("X"), Bindings({"X": 42}))
    assert isinstance(out, t.Integer)


def test_instantiate_clause_pattern():
    cp = parse_clause_pattern("NewName(Args..) -> Body..")
    b = Bindings({"NewName": "g", "Args": [code("X")], "Body": [code("X")]})
    out = instantiate(cp, b)
    assert isinstance(out, t.Clause) and out.name == "g"


# -- properties --------------------------------------------------------------

_meta_pats = st.sampled_from(
    ["X", "[H | T]", "{A.., B}", "f(Args..)", "Fun(X, Y)", "case S of P -> B end", "[E || Q..]"]
)
_subjects = st.sampled_from(
    [
        "f(1, 2)",
        "[1, 2, 3]",
        "{a, b, c}",
        "case V of 1 -> ok end",
        "[W + 1 || W <- Ws]",
        "g(h(i))",
    ]
)


@settings(max_examples=300, deadline=None)
@given(_meta_pats, _subjects)
def test_match_instantiate_roundtrip(ptext, ntext):
    p, n = pat(ptext), code(ntext)
    for b in match(p, n):
        again = instantiate(p, b)
        assert t.struct_eq(again, n)


@settings(max_examples=200, deadline=None)
@given(st.permutations(["A", "B", "C"]), st.data())
def test_merge_order_independent(order, data):
    vals = {"A": code("1"), "B": code("{x}"), "C": "name"}
    singletons = {k: Bindings({k: v}) for k, v in vals.items()}
    merged = Bindings()
    for k in order:
        merged = merged.merge(singletons[k])
    assert merged.keys() == {"A", "B", "C"}
    assert all(val_eq(merged[k], vals[k]) for k in vals)


def test_merge_conflict_is_order_independent():
    b1 = Bindings({"X": code("1")})
    b2 = Bindings({"X": code("2"), "Y": code("3")})
    assert b1.merge(b2) is None and b2.merge(b1) is None


def test_val_eq_coercions():
    assert val_eq(t.Atom("ok"), "ok")
    assert val_eq(t.Integer(3), 3)
    assert val_eq(t.Var("X"), "X")
    assert not val_eq(t.Atom("ok"), "nope")
    assert not val_eq(t.Tuple([]), "ok")


# -- the former quadratic split enumeration, kept as the reference -----------


def _ref_match(p, n, b):
    if isinstance(p, t.Metavar):
        nb = b.bind(p.name, n)
        return [nb] if nb is not None else []
    if isinstance(p, t.ListMetavar):
        nb = b.bind(p.name, [n])
        return [nb] if nb is not None else []
    if isinstance(p, (t.Cons, t.Nil)) and isinstance(n, (t.Cons, t.Nil)):
        return _ref_match_list(p, n, b)
    if type(p) is not type(n):
        return []
    results = [b]
    for name in t.struct_fields(type(p)):
        pv, nv = getattr(p, name), getattr(n, name)
        if isinstance(pv, t.Node) and isinstance(nv, t.Node):
            step = _ref_match
        elif isinstance(pv, list) and isinstance(nv, list):
            step = _ref_match_seq
        elif not isinstance(pv, (t.Node, list)) and pv == nv:
            continue
        else:
            return []
        results = [r for cur in results for r in step(pv, nv, cur)]
        if not results:
            return []
    return results


def _ref_match_list(p, n, b):
    p_elems, p_tail = t.unlist(p)
    n_elems, n_suffixes = [], [n]
    cur = n
    while isinstance(cur, t.Cons):
        n_elems.append(cur.head)
        cur = cur.tail
        n_suffixes.append(cur)
    n_tail = None if isinstance(cur, t.Nil) else cur
    if p_tail is None:
        if n_tail is not None:
            return []
        return _ref_match_seq(p_elems, n_elems, b)
    out = []
    if any(isinstance(x, t.ListMetavar) for x in p_elems):
        start = sum(0 if isinstance(x, t.ListMetavar) else 1 for x in p_elems)
        splits = range(start, len(n_elems) + 1)
    else:
        splits = [len(p_elems)]
    for j in splits:
        if j > len(n_elems):
            break
        for cur_b in _ref_match_seq(p_elems, n_elems[:j], b):
            out.extend(_ref_match(p_tail, n_suffixes[j], cur_b))
    return out


def _ref_match_seq(patterns, nodes, b):
    if not patterns:
        return [b] if not nodes else []
    head, rest = patterns[0], patterns[1:]
    if isinstance(head, t.ListMetavar):
        if head.name in b:
            bound = b[head.name]
            if not isinstance(bound, list):
                bound = [bound]
            k = len(bound)
            if k > len(nodes) or not val_eq(bound, nodes[:k]):
                return []
            return _ref_match_seq(rest, nodes[k:], b)
        min_rest = sum(0 if isinstance(p, t.ListMetavar) else 1 for p in rest)
        out = []
        for k in range(0, len(nodes) - min_rest + 1):
            nb = b.bind(head.name, list(nodes[:k]))
            if nb is None:
                continue
            out.extend(_ref_match_seq(rest, nodes[k:], nb))
        return out
    if not nodes:
        return []
    return [r for cur in _ref_match(head, nodes[0], b) for r in _ref_match_seq(rest, nodes[1:], cur)]


_ATOMS = st.sampled_from(["a", "x"])


@st.composite
def _elem_pair(draw, depth=1):
    """A pattern element and the subject elements that it mostly matches: a
    list metavariable stands for 0-3 elements, a nested tuple recurses."""
    kind = draw(st.sampled_from(["atom", "X", "Y", "A..", "B..", "A..", "B.."] + ["tuple"] * (depth > 0)))
    if kind == "atom":
        ptext = draw(_ATOMS)
        return ptext, [draw(st.sampled_from([ptext, ptext, "a", "x"]))]
    if kind in ("X", "Y"):
        return kind, [draw(st.sampled_from(["a", "x", "{a}"]))]
    if kind == "tuple":
        ps, ns = _seq_pair(draw, depth - 1)
        return "{" + ", ".join(ps) + "}", ["{" + ", ".join(ns) + "}"]
    return kind, draw(st.lists(_ATOMS, max_size=3))


def _seq_pair(draw, depth=1):
    pairs = draw(st.lists(_elem_pair(depth), max_size=5))
    return [p for p, _ in pairs], [n for _, ns in pairs for n in ns]


@st.composite
def _cases(draw):
    ps, ns = _seq_pair(draw)
    shape = draw(st.sampled_from(["{%s}", "[%s]", "[%s | T]", "f(%s)"]))
    ptext = shape % ", ".join(ps) if ps or shape != "[%s | T]" else "T"
    tail = ""
    if shape == "[%s | T]":
        ns += draw(st.lists(_ATOMS, max_size=2))
        tail = draw(st.sampled_from(["", " | Z"]))
        shape = "[%s]"
    ntext = shape % (", ".join(ns) + tail) if ns or not tail else "Z"
    seed = draw(st.sampled_from([None, None, "A=", "A=a", "A=a,x", "B=x", "X=a", "A=x;B="]))
    return ptext, ntext, seed


def _seed(spec):
    """Bindings from "A=a,x;B=": list metavariables, and X bound to one node."""
    if spec is None:
        return Bindings()
    b = {}
    for part in spec.split(";"):
        name, _, vals = part.partition("=")
        b[name] = code(vals) if name == "X" else [code(v) for v in vals.split(",") if v]
    return Bindings(b)


@settings(max_examples=600, deadline=None)
@given(_cases())
@example(("{A.., A..}", "{a, x, a, x}", None))
@example(("{A.., x, A..}", "{a, x, x, a, x}", None))
@example(("{A.., X, B..}", "{a, x, a, x}", None))
@example(("{A.., X, B..}", "{a, x, a, x}", "A=a,x"))
@example(("{A.., B.., A..}", "{a, x, a, a}", "B=x"))
@example(("[A.., B.. | T]", "[a, x, a]", None))
@example(("[A.., B.. | T]", "[a, x | Z]", "A=a"))
@example(("[X, A.. | T]", "[a, x, a]", None))
@example(("[X, A.. | T]", "[a, x, a]", "A=x"))
@example(("f({A.., B..}, C..)", "f({a, x}, a, x)", None))
def test_bounded_splits_agree_with_the_reference(case):
    ptext, ntext, seed = case
    p, n = pat(ptext), code(ntext)
    assert match(p, n, _seed(seed)) == _ref_match(p, n, _seed(seed))
