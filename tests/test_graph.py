import random
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from miniref import tree as t
from miniref.dsl import parse_refl
from miniref.engine import Engine
from miniref.graph import FunctionSem, GraphError, SemanticGraph, VarSem, build_graph
from miniref.parser import parse_module
from miniref.printer import print_expr
from property_suites import _random_module_source, ground_term

SRC = b"""-module(m).
-export([f/1, g/0]).

f(X) ->
    Y = [X | []],
    case Y of
        [H | T] -> Z = H, Z;
        [] -> Z = 0, Z
    end.

g() ->
    f(1) + m:f(2) + apply(f, [3]).

h(F) ->
    F().
"""


@pytest.fixture
def g():
    return build_graph([parse_module(SRC)])


def _find(g, pred):
    mod = g.module("m")
    return next(n for n in t.walk(mod) if pred(n))


def test_duplicate_function_rejected():
    mod = parse_module(b"-module(m).\nf() -> 1.\nf() -> 2.\n")
    with pytest.raises(GraphError):
        build_graph([mod])


def test_function_refs_cover_all_reference_kinds(g):
    fn = g.functions[("m", "f", 1)]
    kinds = [k for k, _ in g.function_refs(fn.sid)]
    assert kinds == ["export", "local", "remote", "apply"]


def test_opaque_call_sites_are_flagged(g):
    sites = g.opaque_uses("m")
    assert [print_expr(g.node(s)) for s in sites] == ["F()"]


def test_purity(g):
    assert g.functions[("m", "f", 1)].pure
    assert g.functions[("m", "g", 0)].pure
    assert not g.functions[("m", "h", 1)].pure  # opaque callee


def test_purity_whitelist_and_fixpoint():
    mod = parse_module(
        b"-module(p).\n"
        b"a(X) -> atom_to_list(X).\n"
        b"b(Xs) -> length(lists:map(fun(Y) -> a(Y) end, Xs)).\n"
        b"c() -> io:format().\n"
        b"d() -> c().\n"
        b"e() -> e().\n"
    )
    gg = build_graph([mod])
    assert gg.functions[("p", "a", 1)].pure
    assert gg.functions[("p", "b", 1)].pure
    assert not gg.functions[("p", "c", 0)].pure
    assert not gg.functions[("p", "d", 0)].pure  # impurity propagates
    assert gg.functions[("p", "e", 0)].pure  # pure self-recursion stays pure


def test_lookup_at_innermost(g):
    ref = g.lookup_at("m", 5, 5)
    assert isinstance(g.node(ref), t.Var)
    assert g.node(ref).name == "Y"
    # on the `case` keyword: the whole case expression
    ref = g.lookup_at("m", 6, 5)
    assert isinstance(g.node(ref), t.Case)


def test_lookup_at_comment_fails(g):
    with pytest.raises(GraphError):
        g.lookup_at("m", 3, 1)  # blank line


def test_scope_names(g):
    y = g.lookup_at("m", 5, 5)
    assert g.scope_names(y) == {"X"}
    case = g.lookup_at("m", 6, 5)
    assert g.scope_names(case) == {"X", "Y"}


def test_case_branch_bindings_merge_only_if_bound_everywhere():
    mod = parse_module(
        b"-module(s).\n"
        b"f(X) ->\n"
        b"    case X of\n"
        b"        1 -> A = left, B = 1, A;\n"
        b"        2 -> A = right, A\n"
        b"    end,\n"
        b"    A.\n"
    )
    gg = build_graph([mod])
    final_a = mod.forms[0].clauses[0].body[-1]
    assert final_a.nid not in gg.unbound  # A bound in every branch
    # B is bound in one branch only: a use after the case would be unbound
    mod2 = parse_module(
        b"-module(s).\n"
        b"f(X) ->\n"
        b"    case X of\n"
        b"        1 -> B = 1, B;\n"
        b"        2 -> X\n"
        b"    end,\n"
        b"    B.\n"
    )
    gg2 = build_graph([mod2])
    final_b = mod2.forms[0].clauses[0].body[-1]
    assert final_b.nid in gg2.unbound


def test_fun_parameters_shadow():
    mod = parse_module(b"-module(s).\nf(X) -> G = fun(X) -> X end, {G, X}.\n")
    gg = build_graph([mod])
    vars_ = [n for n in t.walk(mod) if isinstance(n, t.Var) and n.name == "X"]
    outer_binder, inner_binder, inner_use, outer_use = (v.nid for v in vars_)
    assert gg.var_of[inner_use] == gg.var_of[inner_binder]
    assert gg.var_of[outer_use] == gg.var_of[outer_binder]
    assert gg.var_of[inner_use] != gg.var_of[outer_use]


def test_flow_edges(g):
    match = _find(g, lambda n: isinstance(n, t.Match))
    # Match: expression flows into the pattern
    assert match.pattern.nid in g.flow_out.get(match.expr.nid, [])
    # binder flows to later occurrences: Y is scrutinised by the case
    y_occ = g.lookup_at("m", 6, 10)
    assert g.node(y_occ).name == "Y"
    fwd = g.flow_forward(match.expr.nid)
    assert y_occ in fwd
    # the scrutinee flows into every clause pattern
    case = g.node(g.lookup_at("m", 6, 5))
    for clause in case.clauses:
        assert clause.patterns[0].nid in fwd
    # each clause's last body expression flows into the case itself
    assert case.nid in {d for c in case.clauses for d in g.flow_out[c.body[-1].nid]}


def test_flow_sources(g):
    case = g.node(g.lookup_at("m", 6, 5))
    srcs = [print_expr(g.node(s)) for s in g.flow_sources(case.nid)]
    assert srcs == ["Z", "Z"]


def test_is_pure_expression(g):
    call = _find(g, lambda n: isinstance(n, t.Call) and isinstance(n.callee, t.Atom) and n.callee.name == "f")
    assert g.is_pure(call.nid)
    opaque = g.opaque_uses("m")[0]
    assert not g.is_pure(opaque)


# -- transactions ------------------------------------------------------------


def test_txn_replace_and_render(g):
    g.txn_begin()
    case = g.node(g.lookup_at("m", 6, 5))
    g.txn_replace(case.nid, t.Atom("done"))
    rendered = g.render("m")
    assert b"done." in rendered
    assert rendered.startswith(b"-module(m).\n-export([f/1, g/0]).")
    g.txn_commit()


def test_txn_rollback_restores_everything(g):
    before = g.render("m")
    g.txn_begin()
    case = g.node(g.lookup_at("m", 6, 5))
    g.txn_replace(case.nid, t.Atom("done"))
    g.txn_rollback()
    assert g.render("m") == before == SRC
    # analyses are rebuilt: the case expression is back
    assert isinstance(g.node(g.lookup_at("m", 6, 5)), t.Case)


def test_nested_txns_unwind_lifo(g):
    g.txn_begin()
    y = g.lookup_at("m", 5, 5)
    g.txn_replace(y, t.Var("Y2"))
    mid = g.render("m")
    g.txn_begin()
    one = _find(g, lambda n: isinstance(n, t.Integer) and n.value == 1)
    g.txn_replace(one.nid, t.Integer(42))
    assert b"f(42)" in g.render("m")
    g.txn_rollback()
    assert g.render("m") == mid
    g.txn_rollback()
    assert g.render("m") == SRC


def test_replace_outside_txn_fails(g):
    y = g.lookup_at("m", 5, 5)
    with pytest.raises(GraphError):
        g.txn_replace(y, t.Var("Y2"))


def test_outer_edit_supersedes_inner(g):
    g.txn_begin()
    y = g.lookup_at("m", 5, 5)
    match = g.parent(y)
    g.txn_replace(y, t.Var("Y2"))
    g.txn_replace(match.nid, t.Atom("gone"))
    out = g.render("m")
    assert b"gone" in out and b"Y2" not in out
    g.txn_commit()


def test_edit_inside_fresh_subtree(g):
    g.txn_begin()
    case = g.lookup_at("m", 6, 5)
    new = t.Tuple([t.Atom("a"), t.Atom("b")])
    g.txn_replace(case, new)
    # mutate inside the already-spliced-in subtree
    g.txn_replace(new.elems[0].nid, t.Atom("c"))
    assert b"{c, b}" in g.render("m")
    g.txn_commit()


def test_sequence_replacement(g):
    g.txn_begin()
    y = g.lookup_at("m", 5, 5)
    match = g.parent(y)
    g.txn_replace(match.nid, [t.Atom("one"), t.Atom("two")])
    out = g.render("m")
    assert b"one,\n    two," in out
    g.txn_commit()


def test_insert_form(g):
    g.txn_begin()
    form = t.copy_fresh(parse_module(b"-module(x).\nk() -> ok.\n").forms[0])
    g.txn_insert_form("m", form, g.functions[("m", "f", 1)].form)
    out = g.render("m")
    assert b"\nk() ->\n    ok.\n" in out
    reparsed = parse_module(out)
    assert [(f.name, f.arity) for f in reparsed.forms] == [("f", 1), ("k", 0), ("g", 0), ("h", 1)]
    assert ("m", "k", 0) in g.functions
    g.txn_commit()


def test_insert_form_refuses_a_form_with_spans(g):
    # its spans index the text it was parsed from, so an edit inside it
    # would splice that text's offsets into this module
    g.txn_begin()
    form = parse_module(b"-module(x).\nk(A) -> {A, b}.\n").forms[0]
    objects = dict(g.objects)
    with pytest.raises(GraphError, match="spans"):
        g.txn_insert_form("m", form, g.functions[("m", "h", 1)].form)
    assert g.objects == objects and ("m", "k", 1) not in g.functions
    assert g.render("m") == SRC
    form = t.copy_fresh(form)
    g.txn_insert_form("m", form, g.functions[("m", "h", 1)].form)
    g.txn_replace(form.clauses[0].body[0].elems[1].nid, t.Atom("c"))
    assert g.render("m").endswith(b"\nk(A) ->\n    {A, c}.\n")
    g.txn_rollback()
    assert g.render("m") == SRC


def test_export_entry_replacement(g):
    g.txn_begin()
    entry = g.module("m").exports[0]
    g.txn_replace(entry.nid, t.ExportEntry("f", 2))
    assert b"-export([f/2, g/0])." in g.render("m")
    g.txn_rollback()


def test_to_dot(g):
    dot = g.to_dot()
    assert dot.startswith("digraph")
    assert "f/1" in dot and "pure=True" in dot


# -- edit-local maintenance ----------------------------------------------------


def _assert_node_indexes_match_rebuild(g):
    fresh = SemanticGraph(g.modules)
    assert (g.objects, g.parents, g.node_module) == (
        fresh.objects, fresh.parents, fresh.node_module)


def test_node_indexes_follow_every_edit(g):
    check = _assert_node_indexes_match_rebuild
    g.txn_begin()
    g.txn_replace(g.lookup_at("m", 5, 5), t.Var("Y2"))
    check(g)
    case = g.lookup_at("m", 6, 5)
    new = t.Tuple([t.Atom("a"), t.Atom("b")])
    g.txn_replace(case, new)
    check(g)
    g.txn_replace(new.elems[0].nid, t.Atom("c"))  # inside a pending replacement
    check(g)
    call = _find(g, lambda n: isinstance(n, t.Call) and isinstance(n.callee, t.Atom))
    g.txn_replace(call.nid, t.Call(t.Atom("k"), call.args))  # reuses a subtree
    check(g)
    g.txn_replace(call.args[0].nid, t.Integer(7))  # a parsed node inside a replacement
    check(g)
    g.txn_begin()
    form = t.copy_fresh(parse_module(b"-module(x).\nk(A) -> {A}.\n").forms[0])
    g.txn_insert_form("m", form, g.functions[("m", "f", 1)].form)
    check(g)
    g.txn_replace(form.clauses[0].body[0].nid, [t.Atom("one"), t.Atom("two")])
    check(g)
    g.txn_commit()
    check(g)
    g.txn_begin()
    g.txn_replace(new.nid, t.Atom("gone"))
    check(g)
    g.txn_rollback()
    check(g)
    assert b"k(7) + m:f(2)" in g.render("m")
    assert b"{c, b}" in g.render("m") and b"\nk(A) ->\n    one,\n    two.\n" in g.render("m")
    g.txn_rollback()
    check(g)
    assert g.render("m") == SRC


def test_semantic_indexes_are_read_after_an_edit(g):
    g.txn_begin()
    call = _find(g, lambda n: isinstance(n, t.Call) and isinstance(n.callee, t.Atom))
    g.txn_replace(call.nid, t.Call(t.Atom("h"), [t.Integer(1)]))
    refs = g.functions[("m", "h", 1)].refs
    assert [kind for kind, _ in refs] == ["local"]
    assert not g.functions[("m", "g", 0)].pure  # h is impure, and g now calls it
    g.txn_commit()


def test_inner_commit_then_outer_rollback_restores_the_objects(g):
    before = list(t.walk(g.module("m")))
    g.txn_begin()
    g.txn_begin()
    g.txn_replace(g.lookup_at("m", 5, 5), t.Var("Y2"))
    g.txn_replace(g.lookup_at("m", 6, 5), t.Atom("done"))
    g.txn_commit()
    g.txn_insert_form("m", t.copy_fresh(parse_module(b"-module(x).\nk() -> ok.\n").forms[0]),
                      g.functions[("m", "g", 0)].form)
    g.txn_rollback()
    assert g.render("m") == SRC
    after = list(t.walk(g.module("m")))
    assert len(after) == len(before) and all(a is b for a, b in zip(after, before))
    assert all(g.node(n.nid) is n for n in before)


def _callers_source(n: int) -> bytes:
    calls = "\n".join(f"c{i}(Y) ->\n    target(Y, {i}).\n" for i in range(n))
    return (
        b"-module(c).\n-export([target/2]).\n\ntarget(A, B) ->\n    {A, B}.\n\n"
        + calls.encode()
    )


def test_rename_rebuilds_do_not_grow_with_callers(monkeypatch):
    schemes = Path(__file__).resolve().parent.parent / "src/miniref/definitions/schemes.refl"
    defs = parse_refl(schemes.read_text())
    rebuild = SemanticGraph.rebuild
    counts = {}
    for n in (5, 40):
        gg = build_graph([parse_module(_callers_source(n))])
        calls = []

        def counting(self, calls=calls):
            calls.append(1)
            rebuild(self)

        monkeypatch.setattr(SemanticGraph, "rebuild", counting)
        out = Engine(gg, defs).run("rename_function", gg.functions[("c", "target", 2)], ["t2"])
        monkeypatch.setattr(SemanticGraph, "rebuild", rebuild)
        assert out.ok and gg.render("c").count(b"t2(Y, ") == n
        counts[n] = len(calls)
    assert counts[5] == counts[40]


# -- semantic indexes against a fresh build ------------------------------------


def _semantics(g):
    """Every semantic index of `g`, with semantic ids replaced by what they
    stand for, so that two graphs over the same trees compare equal."""
    nodes = [n for m in g.modules for n in t.walk(m)]
    classes = defaultdict(set)
    for nid, sid in g.var_of.items():
        classes[sid].add(nid)
    variables = {
        frozenset(members): (g.node(sid).name, tuple(g.node(sid).binders),
                             tuple(g.node(sid).occurrences))
        for sid, members in classes.items()
    }
    var_sems = sorted(
        (s.name, tuple(s.binders), tuple(s.occurrences))
        for s in g.sems.values() if isinstance(s, VarSem)
    )
    return {
        "functions": [
            (key, fn.form, fn.clauses, fn.refs, fn.pure) for key, fn in g.functions.items()
        ],
        "function sems": sorted(
            (s.module, s.name, s.arity) for s in g.sems.values()
            if isinstance(s, FunctionSem)
        ),
        "scopes": {n.nid: g.scope_names(n.nid) for n in nodes},
        "variables": variables,
        "var sems": var_sems,
        "unbound": set(g.unbound),
        "flow_out": dict(g.flow_out),
        "flow_in": dict(g.flow_in),
        "flow order": {nid: g.flow_forward(nid) for nid in g.flow_out},
        "opaque": dict(g.opaque),
        "bound names": {f.nid: g.function_bound_names(f.nid) for m in g.modules for f in m.forms},
    }


def _assert_semantics_match_fresh(g):
    assert _semantics(g) == _semantics(SemanticGraph(g.modules))


def test_semantic_indexes_follow_every_edit(g):
    check = _assert_semantics_match_fresh
    check(g)
    g.txn_begin()
    g.txn_replace(g.lookup_at("m", 5, 5), t.Var("Y2"))  # a binder
    check(g)
    call = _find(g, lambda n: isinstance(n, t.Call) and isinstance(n.callee, t.Atom))
    g.txn_replace(call.nid, t.Call(t.Atom("h"), [t.Var("F")]))  # g now calls impure h
    check(g)
    assert not g.functions[("m", "g", 0)].pure
    g.txn_begin()
    form = t.copy_fresh(parse_module(b"-module(x).\nk(A) -> B = A, f(B).\n").forms[0])
    g.txn_insert_form("m", form, g.functions[("m", "f", 1)].form)
    check(g)
    match = form.clauses[0].body[0]
    g.txn_replace(match.pattern.nid, t.Var("C"))  # B is now unbound
    check(g)
    g.txn_replace(form.clauses[0].nid, t.Clause("h", [t.Var("X")], [t.Var("X")]))
    with pytest.raises(GraphError):  # two definitions of h/1
        g.functions
    g.txn_rollback()
    check(g)
    g.txn_begin()
    entry = g.module("m").exports[0]
    g.txn_replace(entry.nid, t.ExportEntry("h", 1))
    check(g)
    g.txn_commit()
    check(g)
    g.txn_rollback()
    check(g)
    assert g.render("m") == SRC


def _edit_step(g, rng, depth: int) -> int:
    """One random step inside `depth` open transactions: replace an
    expression, insert a form, or open, commit or roll back an inner
    transaction.  Returns the new depth."""
    mod = g.module("p")
    choice = rng.randrange(8)
    if choice == 0:
        g.txn_begin()
        return depth + 1
    if choice in (1, 2) and depth > 1:
        g.txn_commit() if choice == 1 else g.txn_rollback()
        return depth - 1
    if choice == 3:
        anchor = rng.choice(mod.forms)
        taken = {f.name for f in mod.forms}
        name = next(f"k{i}" for i in range(len(taken) + 1) if f"k{i}" not in taken)
        form = parse_module(f"-module(x).\n{name}(A) -> B = A, f(B).\n".encode()).forms[0]
        g.txn_insert_form("p", t.copy_fresh(form), anchor.nid)  # without spans, as the engine's
    else:
        sites = [n for n in t.walk(mod) if isinstance(n, t.Expr) and g.parent(n.nid) is not None]
        target = rng.choice(sites)
        new = rng.choice([
            lambda: ground_term(rng),
            lambda: t.Var(rng.choice(["X", "Y", "Z"])),
            lambda: t.Match(t.Var(rng.choice(["Y", "Z"])), ground_term(rng)),
            lambda: t.Call(t.Atom(rng.choice(["f", "g", "length"])), [t.Var("X")]),
            lambda: t.RemoteCall(t.Atom(rng.choice(["p", "io"])), t.Atom("f"), [t.Integer(1)]),
            lambda: t.Case(t.Var("X"), [t.Clause(None, [t.Var("Z")], [t.Var("Z")]),
                                        t.Clause(None, [t.Atom("a")], [t.Var("Y")])]),
        ])()
        g.txn_replace(target.nid, new)
    return depth


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 12))
def test_semantic_indexes_match_a_fresh_build_after_random_edits(seed, steps):
    rng = random.Random(seed)
    g = SemanticGraph([parse_module(_random_module_source(rng))])
    g.txn_begin()
    depth = 1
    for _ in range(steps):
        depth = _edit_step(g, rng, depth)
        _assert_semantics_match_fresh(g)
    for _ in range(depth):
        g.txn_rollback()
    _assert_semantics_match_fresh(g)
    assert g.render("p") == g.module("p").text


# -- scaling guards (counts, not wall time) --------------------------------------


def _rename_defs():
    schemes = Path(__file__).resolve().parent.parent / "src/miniref/definitions/schemes.refl"
    return parse_refl(schemes.read_text())


def _large_module(filler: int) -> bytes:
    """`target/2`, one caller, a `twin/2`, and `filler` unrelated functions."""
    rest = "\n".join(f"u{i}(X) ->\n    [X | {i}].\n" for i in range(filler))
    return _callers_source(1) + b"\ntwin(A, B) ->\n    {B, A}.\n\n" + rest.encode()


def test_rename_reanalyses_only_the_forms_it_edits(monkeypatch):
    gg = build_graph([parse_module(_large_module(300))])
    analyze = SemanticGraph._analyze_form
    analysed = []

    def counting(self, form):
        analysed.append(form.name)
        return analyze(self, form)

    monkeypatch.setattr(SemanticGraph, "_analyze_form", counting)
    out = Engine(gg, _rename_defs()).run("rename_function", gg.functions[("c", "target", 2)], ["t2"])
    assert out.ok and b"t2(Y, 0)" in gg.render("c")
    assert len(gg.functions) == 303
    assert sorted(analysed) == ["c0", "t2"]


def test_rejected_rename_rebuilds_once_at_construction(monkeypatch):
    rebuild = SemanticGraph.rebuild
    calls = []

    def counting(self):
        calls.append(1)
        rebuild(self)

    monkeypatch.setattr(SemanticGraph, "rebuild", counting)
    src = _large_module(3)
    gg = build_graph([parse_module(src)])
    out = Engine(gg, _rename_defs()).run("rename_function", gg.functions[("c", "target", 2)], ["twin"])
    assert not out.ok and gg.render("c") == src
    assert len(calls) == 1


def test_scopes_are_shared_between_bindings():
    n = 2000
    body = ",\n".join(f"    X{i} = X{i - 1}" for i in range(1, n + 1))
    gg = build_graph([parse_module(f"-module(s).\nf(X0) ->\n{body},\n    X{n}.\n".encode())])
    bindings = n + 1  # the parameter and one match per line
    assert len({id(scope) for scope in gg.scope_in.values()}) <= bindings + 1
    last = gg.module("s").forms[0].clauses[0].body[-1]
    assert gg.scope_names(last.nid) == {f"X{i}" for i in range(n + 1)}
    first = gg.module("s").forms[0].clauses[0].patterns[0]
    assert len(gg.flow_forward(first.nid)) == 2 * n + 1  # each occurrence, each binder
