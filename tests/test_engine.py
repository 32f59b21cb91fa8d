import random
from pathlib import Path

import pytest
from property_suites import _random_module_source

from miniref import engine, tree as t
from miniref.dsl import parse_refl
from miniref.engine import Engine
from miniref.graph import GraphError, build_graph
from miniref.parser import parse_module

DEFS_DIR = Path(__file__).resolve().parent.parent / "src" / "miniref" / "definitions"
SAMPLES_DIR = DEFS_DIR.parent / "samples"


def load_defs(*names):
    defs = []
    for n in names:
        defs.extend(parse_refl((DEFS_DIR / n).read_text()))
    return defs


def setup(src: bytes, *def_files):
    g = build_graph([parse_module(src)])
    return g, Engine(g, load_defs(*def_files))


def at(g, line, col):
    return g.node(g.lookup_at("m", line, col))


# -- single rules --------------------------------------------------------------


def test_extract_listhead_top_level_splices_sequence():
    src = b"-module(m).\nf(T) ->\n    [g(1) | T].\n"
    g, eng = setup(src, "local.refl")
    out = eng.run("extract_listhead", at(g, 3, 5))
    assert out.ok
    assert g.render("m") == b"-module(m).\nf(T) ->\n    V = g(1),\n    [V | T].\n"


def test_extract_listhead_nested_wraps_block():
    src = b"-module(m).\nf(T) ->\n    h([g(1) | T]).\n"
    g, eng = setup(src, "local.refl")
    assert eng.run("extract_listhead", at(g, 3, 7)).ok
    rendered = g.render("m").decode()
    assert "h(begin" in rendered and "end)." in rendered
    assert "V = g(1)" in rendered


_FRUITS = b"-module(m).\nf() -> [b, apple, pear].\n"


def _cons_of(g, head):
    """The cons cell of the first written list whose head is the atom `head`."""
    return next(
        n for n in t.walk(g.modules[0])
        if isinstance(n, t.Cons) and isinstance(n.head, t.Atom) and n.head.name == head
    )


@pytest.mark.parametrize(
    "src, head, body",
    [
        (_FRUITS, "apple", b"f() -> [b | (fun() -> [apple, pear] end)()].\n"),
        (_FRUITS, "pear", b"f() -> [b, apple | (fun() -> [pear] end)()].\n"),
        # an explicit tail has text of its own and is rewritten alone
        (
            b"-module(m).\nf() -> [x | [b, apple, pear]].\n",
            "apple",
            b"f() -> [x | [b | (fun() -> [apple, pear] end)()]].\n",
        ),
    ],
    ids=["middle-tail", "last-tail", "inside-explicit-tail"],
)
def test_rewriting_a_list_tail_reprints_its_written_list(src, head, body):
    g, eng = setup(src, "composite.refl")
    assert eng.run("wrap_into_fun", _cons_of(g, head)).ok
    out = g.render("m")
    assert out == b"-module(m).\n" + body
    parse_module(out)


def test_list_tail_edit_rolls_back():
    g, _ = setup(_FRUITS)
    g.txn_begin()
    g.txn_replace(_cons_of(g, "apple").nid, t.Var("T"))
    assert g.render("m") == b"-module(m).\nf() -> [b | T].\n"
    g.txn_rollback()
    assert g.render("m") == _FRUITS and g.edits["m"] == []
    g.txn_begin()
    g.txn_replace(_cons_of(g, "b").nid, t.Atom("ok"))
    assert g.render("m") == b"-module(m).\nf() -> ok.\n"
    g.txn_commit()


def test_add_module_qualifier():
    src = b"-module(m).\nf() -> ok.\ng() ->\n    foo(1, 2).\n"
    g, eng = setup(src, "local.refl")
    assert eng.run("add_module_qualifier", at(g, 4, 8)).ok
    assert b"m:foo(1, 2)" in g.render("m")


def test_rule_failure_keeps_bytes_identical():
    src = b"-module(m).\nf(T) ->\n    [io:format() | T].\n"  # impure head is fine; fresh cond ok
    g, eng = setup(src, "local.refl")
    out = eng.run("add_module_qualifier", at(g, 3, 5))  # pattern does not match a list
    assert not out.ok
    assert g.render("m") == src


def test_ambiguous_match_is_failure():
    defs = parse_refl("REFACTORING amb()\n    {A.., B..}\n    -----\n    {B.., A..}\n")
    src = b"-module(m).\nf() ->\n    {1, 2}.\n"
    g = build_graph([parse_module(src)])
    eng = Engine(g, defs)
    out = eng.run("amb", at(g, 3, 5))
    assert not out.ok and "ambiguous" in out.reason
    assert g.render("m") == src


@pytest.mark.parametrize(
    "rule, reason",
    [
        ("{X}\n    -----\n    [X]\n", "pattern does not match Tuple"),
        (
            "{A.., B..}\n    -----\n    {B.., A..}\nWHEN\n    atom(A)\n",
            "pattern matches 3 ways at Tuple, the condition rejects all",
        ),
        ("{A.., B..}\n    -----\n    {B.., A..}\n", "ambiguous match: 3 solutions survive the conditions"),
    ],
    ids=["no-match", "condition-rejects-all", "ambiguous"],
)
def test_rule_failure_names_the_stage_that_rejected_the_target(rule, reason):
    src = b"-module(m).\nf() ->\n    {1, 2}.\n"
    g = build_graph([parse_module(src)])
    out = Engine(g, parse_refl("REFACTORING r()\n    " + rule)).run("r", at(g, 3, 5))
    assert not out.ok and out.reason == reason
    assert g.render("m") == src


def test_in_modifier_matches_each_site_once(monkeypatch):
    src = b"-module(m).\nf() ->\n    [{1}, {2}, {3}].\n"
    g = build_graph([parse_module(src)])
    eng = Engine(g, parse_refl("REFACTORING r()\nIN THIS\n    {X}\n    -----\n    [X]\n"))
    target = at(g, 3, 5)
    tuples = [n for n in t.walk(target) if isinstance(n, t.Tuple)]
    seen = []
    real_match = engine.match

    def counting_match(pattern, node, seed):
        seen.append(node)
        return real_match(pattern, node, seed)

    monkeypatch.setattr(engine, "match", counting_match)
    assert eng.run("r", target).ok
    assert g.render("m") == b"-module(m).\nf() ->\n    [[1], [2], [3]].\n"
    assert [n for n in seen if isinstance(n, t.Tuple)] == tuples
    assert len({id(n) for n in seen}) == len(seen)


def test_or_combinator_takes_right_on_left_failure():
    text = (
        "REFACTORING leftright()\n"
        "    [X]\n    -----\n    {X}\n"
        "OR\n"
        "    {X}\n    -----\n    [X]\n"
    )
    src = b"-module(m).\nf() ->\n    {1}.\n"
    g = build_graph([parse_module(src)])
    eng = Engine(g, parse_refl(text))
    assert eng.run("leftright", at(g, 3, 5)).ok
    assert b"[1]." in g.render("m")


def test_then_failure_rolls_back_first_step():
    text = (
        "REFACTORING chain()\n"
        "    {X}\n    -----\n    [X]\n"
        "THEN\n"
        "    nomatch\n    -----\n    nomatch\n"
    )
    src = b"-module(m).\nf() ->\n    {1}.\n"
    g = build_graph([parse_module(src)])
    eng = Engine(g, parse_refl(text))
    out = eng.run("chain", at(g, 3, 5))
    assert not out.ok
    assert g.render("m") == src


# -- extensive rename ------------------------------------------------------------


EXT_SRC = b"-module(m).\n-export([g/0]).\n\nf(X) ->\n    X + 1.\n\ng() ->\n    f(1) + f(2).\n"


def test_extensive_rename_updates_clauses_and_calls():
    g, eng = setup(EXT_SRC, "extensive.refl")
    form = g.node(g.functions[("m", "f", 1)].form)
    assert eng.run("rename_function_stepwise", form, ["h"]).ok
    rendered = g.render("m").decode()
    assert "h(X) ->" in rendered and "h(1) + h(2)" in rendered
    assert "f(" not in rendered


def test_extensive_rename_checks_new_signature_free():
    src = b"-module(m).\nf(X) -> X.\nh(Y) -> Y.\ng() -> f(1).\n"
    g, eng = setup(src, "extensive.refl")
    form = g.node(g.functions[("m", "f", 1)].form)
    out = eng.run("rename_function_stepwise", form, ["h"])
    assert not out.ok
    assert g.render("m") == src


# -- signature contract ------------------------------------------------------------


def contract(engine, text):
    (d,) = parse_refl(text)
    return engine.check_signature_contract(d.rule)


@pytest.fixture
def eng0():
    g = build_graph([parse_module(b"-module(m).\nf() -> ok.\n")])
    return Engine(g, [])


def test_contract_rename_passes(eng0):
    ok, _ = contract(
        eng0,
        "FUNCTION SIGNATURE REFACTORING\n  r(New)\n    Name(Args..)\n  -----\n    New(Args..)\n",
    )
    assert ok


def test_contract_grouping_passes(eng0):
    ok, _ = contract(
        eng0,
        "FUNCTION SIGNATURE REFACTORING\n  r()\n    Name(Args..)\n  -----\n    Name({Args..})\n",
    )
    assert ok


def test_contract_swap_and_duplicate_pass(eng0):
    ok, _ = contract(
        eng0,
        "FUNCTION SIGNATURE REFACTORING\n  r()\n    Name(A, B)\n  -----\n    Name(B, A, A)\n",
    )
    assert ok


def test_contract_dropped_argument_fails(eng0):
    ok, why = contract(
        eng0, "FUNCTION SIGNATURE REFACTORING\n  r()\n    Name(A, B)\n  -----\n    Name(A)\n"
    )
    assert not ok and "dropped" in why


def test_contract_nonlinear_pattern_fails(eng0):
    ok, why = contract(
        eng0, "FUNCTION SIGNATURE REFACTORING\n  r()\n    Name(A, A)\n  -----\n    Name(A)\n"
    )
    assert not ok and "linear" in why


def _shape_node(shape):
    if isinstance(shape, str):
        return t.Metavar(shape)
    kind, elems = shape
    parts = [_shape_node(e) for e in elems]
    return t.Tuple(parts) if kind == "tuple" else t.mklist(parts)


def _random_goal(rng, names):
    """A replacement argument vector plus whether it keeps every name."""
    state = list(names)
    for _ in range(rng.randint(0, 2)):
        op = rng.choice(["swap", "dup", "group", "drop"])
        if op == "swap" and len(state) >= 2:
            i, j = rng.sample(range(len(state)), 2)
            state[i], state[j] = state[j], state[i]
        elif op == "dup":
            i = rng.randrange(len(state))
            state.insert(i, state[i])
        elif op == "group":
            i = rng.randrange(len(state))
            j = rng.randint(i + 1, len(state))
            kind = rng.choice(["tuple", "list"])
            state[i:j] = [(kind, tuple(state[i:j]))]
        elif op == "drop" and len(state) >= 2:
            del state[rng.randrange(len(state))]
        if not state:
            state = list(names)
    return state


def _flat_names(shape, acc):
    if isinstance(shape, str):
        acc.add(shape)
    else:
        for e in shape[1]:
            _flat_names(e, acc)


def test_contract_precheck_agrees_with_search_on_random_pairs(eng0):
    import random

    from miniref.dsl import RuleStep
    from miniref.engine import _derivable

    rng = random.Random(20260823)
    for _ in range(200):
        names = [f"A{i}" for i in range(rng.randint(1, 4))]
        goal = _random_goal(rng, names)
        used = set()
        for s in goal:
            _flat_names(s, used)
        precheck_ok = used == set(names)
        step = RuleStep(
            matching=t.Call(t.Metavar("Name"), [t.Metavar(n) for n in names]),
            replacement=[t.Call(t.Metavar("Name"), [_shape_node(s) for s in goal])],
            condition=None,
            modifier=None,
        )
        ok, why = eng0.check_signature_contract(step)
        search_ok = _derivable(tuple(names), tuple(goal), depth=6)
        assert precheck_ok == search_ok, (names, goal, why)
        assert ok == (precheck_ok and search_ok), (names, goal, why)


def test_contract_constant_argument_fails(eng0):
    ok, _ = contract(
        eng0, "FUNCTION SIGNATURE REFACTORING\n  r()\n    Name(A)\n  -----\n    Name(A, 1)\n"
    )
    assert not ok


# -- signature scheme ------------------------------------------------------------


SIG_SRC = (
    b"-module(m).\n-export([f/1]).\n\nf(A) ->\n    A + 1.\n\n"
    b"g() ->\n    f(1) + m:f(2) + apply(f, [3]).\n"
)


def test_signature_rename_updates_all_reference_kinds():
    g, eng = setup(SIG_SRC, "schemes.refl")
    out = eng.run("rename_function", g.functions[("m", "f", 1)], ["h"])
    assert out.ok
    rendered = g.render("m").decode()
    assert "-export([h/1])." in rendered
    assert "h(A) ->" in rendered
    assert "h(1) + m:h(2) + apply(h, [3])" in rendered


def test_signature_tuple_arguments_updates_arity_everywhere():
    src = b"-module(m).\n-export([f/2]).\n\nf(A, B) ->\n    A + B.\n\ng() ->\n    f(1, 2).\n"
    g, eng = setup(src, "schemes.refl")
    assert eng.run("tuple_function_arguments", g.functions[("m", "f", 2)], []).ok
    rendered = g.render("m").decode()
    assert "-export([f/1])." in rendered
    assert "f({A, B}) ->" in rendered and "f({1, 2})" in rendered


def test_signature_rename_rejects_taken_signature():
    src = b"-module(m).\nf(A) -> A.\nh(B) -> B.\n"
    g, eng = setup(src, "schemes.refl")
    out = eng.run("rename_function", g.functions[("m", "f", 1)], ["h"])
    assert not out.ok and "exists" in out.reason
    assert g.render("m") == src


def test_signature_scheme_fails_on_opaque_use():
    src = b"-module(m).\nf(A) -> A.\ng(F) ->\n    F().\n"
    g, eng = setup(src, "schemes.refl")
    out = eng.run("rename_function", g.functions[("m", "f", 1)], ["h"])
    assert not out.ok and "opaque" in out.reason


# -- dataflow schemes ------------------------------------------------------------


def test_fun2value_forward():
    src = b"-module(m).\nf() ->\n    X = fun() -> apple end,\n    atom_to_list(X()).\n"
    g, eng = setup(src, "schemes.refl")
    out = eng.run("fun2value", at(g, 3, 9))
    assert out.ok
    assert g.render("m") == b"-module(m).\nf() ->\n    X = apple,\n    atom_to_list(X).\n"


def test_fun2value_apply_reference():
    src = b"-module(m).\nf() ->\n    X = fun() -> apple end,\n    apply(X, []).\n"
    g, eng = setup(src, "schemes.refl")
    assert eng.run("fun2value", at(g, 3, 9)).ok
    assert b"X = apple,\n    X." in g.render("m")


def test_fun2value_rejects_impure_body():
    src = b"-module(m).\nf() ->\n    X = fun() -> io:format() end,\n    X().\n"
    g, eng = setup(src, "schemes.refl")
    out = eng.run("fun2value", at(g, 3, 9))
    assert not out.ok
    assert g.render("m") == src


def test_fun2value_rejects_second_data_source():
    src = (
        b"-module(m).\nf(C) ->\n    X = case C of\n        1 -> fun() -> a end;\n"
        b"        2 -> fun() -> b end\n    end,\n    X().\n"
    )
    g, eng = setup(src, "schemes.refl")
    out = eng.run("fun2value", at(g, 4, 14))
    assert not out.ok
    assert g.render("m") == src


def test_forward_dataflow_sequence_replacement_is_wrapped_in_a_block():
    text = (
        "FORWARD DATAFLOW REFACTORING fun2seq()\n"
        "DEFINITION\n    fun() -> E end\n    -----\n    ok, E\n"
        "REFERENCE F\n    F()\n    -----\n    F\n"
    )
    src = b"-module(m).\nf() ->\n    X = fun() -> apple end,\n    X().\n"
    g = build_graph([parse_module(src)])
    assert Engine(g, parse_refl(text)).run("fun2seq", at(g, 3, 9)).ok
    out = g.render("m")
    assert out == (
        b"-module(m).\nf() ->\n    X = begin\n            ok,\n            apple\n"
        b"        end,\n    X.\n"
    )
    parse_module(out)


def test_scheme_failure_names_the_stage_that_rejected_the_target():
    src = b"-module(m).\nf() ->\n    X = fun() -> apple end,\n    X().\n"
    g, eng = setup(src, "schemes.refl")
    out = eng.run("fun2value", at(g, 3, 5))
    assert not out.ok and out.reason == "definition rule: pattern does not match Var"
    assert g.render("m") == src


def test_common_tail_backward():
    src = (
        b"-module(m).\nf([H | T]) ->\n    case H of\n        1 -> [2 | f(T)];\n"
        b"        3 -> [4 | f(T)]\n    end.\n"
    )
    g, eng = setup(src, "schemes.refl")
    out = eng.run("common_tail", at(g, 3, 5))
    assert out.ok
    rendered = g.render("m").decode()
    assert "[case H of" in rendered
    assert "1 -> 2;" in rendered and "3 -> 4" in rendered
    assert "end | f(T)]." in rendered


def test_common_tail_rejects_differing_tails():
    src = (
        b"-module(m).\nf([H | T]) ->\n    case H of\n        1 -> [2 | f(T)];\n"
        b"        3 -> [4 | g(T)]\n    end.\ng(X) -> X.\n"
    )
    g, eng = setup(src, "schemes.refl")
    out = eng.run("common_tail", at(g, 3, 5))
    assert not out.ok
    assert g.render("m") == src


def test_common_tail_rejects_capture():
    src = (
        b"-module(m).\nf([H | T]) ->\n    case H of\n        1 -> Q = f(T), [2 | Q];\n"
        b"        3 -> Q = f(T), [4 | Q]\n    end.\n"
    )
    g, eng = setup(src, "schemes.refl")
    out = eng.run("common_tail", at(g, 3, 5))
    assert not out.ok
    assert g.render("m") == src


# -- composites and selectors -----------------------------------------------------


def test_selector_last_arg():
    src = b"-module(m).\nf(A, B) ->\n    A + B.\n"
    g, eng = setup(src, "composite.refl")
    form = g.node(g.functions[("m", "f", 2)].form)
    out = eng.run("last_arg", form)
    assert out.ok
    assert isinstance(out.result, t.Var) and out.result.name == "B"


def test_selector_makes_no_changes():
    src = b"-module(m).\nf(A, B) ->\n    A + B.\n"
    g, eng = setup(src, "composite.refl")
    eng.run("last_arg", g.node(g.functions[("m", "f", 2)].form))
    assert g.render("m") == src


def test_generalise_function_end_to_end():
    src = b"-module(m).\n-export([f/0]).\n\nf() ->\n    atom_to_list(apple).\n"
    g, eng = setup(src, "composite.refl", "schemes.refl")
    out = eng.run("generalise_function", at(g, 5, 18))
    assert out.ok
    assert g.render("m") == (
        b"-module(m).\n-export([f/0]).\n\nf() ->\n"
        b"    f(fun() -> apple end).\n\nf(V) ->\n    atom_to_list(V()).\n"
    )


def test_generalise_function_failure_rolls_back_everything():
    # tmp_name already taken: copy_function fails midway through the DO block
    src = (
        b"-module(m).\n-export([f/0]).\n\nf() ->\n    atom_to_list(apple).\n\n"
        b"tmp_name() ->\n    ok.\n"
    )
    g, eng = setup(src, "composite.refl", "schemes.refl")
    out = eng.run("generalise_function", at(g, 5, 18))
    assert not out.ok
    assert g.render("m") == src


def test_unknown_refactoring():
    src = b"-module(m).\nf() -> ok.\n"
    g, eng = setup(src, "local.refl")
    out = eng.run("does_not_exist", at(g, 2, 8))
    assert not out.ok and "unknown" in out.reason


# -- failures inside conditions and unexpected errors ------------------------------


def _no_open_txn(g) -> bool:
    try:
        g.txn_commit()
    except GraphError:
        return True
    return False


def test_condition_error_in_reference_rule_is_failure():
    text = (
        "FORWARD DATAFLOW REFACTORING fun2len()\n"
        "DEFINITION\n    fun() -> E end\n    -----\n    E\n"
        "REFERENCE F\n    F()\n    ----- WHEN length(F)\n    F\n"
    )
    src = b"-module(m).\nf() ->\n    X = fun() -> apple end,\n    atom_to_list(X()).\n"
    g = build_graph([parse_module(src)])
    out = Engine(g, parse_refl(text)).run("fun2len", at(g, 3, 9))
    assert not out.ok and "cannot coerce Var to a list" in out.reason
    assert _no_open_txn(g)
    assert g.render("m") == src


def test_unexpected_error_rolls_back_every_open_txn(monkeypatch):
    text = (
        "REFACTORING chain()\n"
        "    {X}\n    -----\n    [X]\n"
        "THEN\n"
        "    {X}\n    -----\n    {X, X}\n"
    )
    src = b"-module(m).\nf() ->\n    {1}.\n"
    g = build_graph([parse_module(src)])
    # the first step commits into the outer transaction, the second raises
    target = at(g, 3, 5)
    replace = g.txn_replace
    calls = []

    def failing_second_replace(ref, new):
        calls.append(ref)
        if len(calls) == 2:
            raise RuntimeError("boom")
        return replace(ref, new)

    monkeypatch.setattr(g, "txn_replace", failing_second_replace)
    with pytest.raises(RuntimeError):
        Engine(g, parse_refl(text)).run("chain", target)
    assert len(calls) == 2
    assert _no_open_txn(g)
    assert g.render("m") == src
    assert g.module("m").forms[0].clauses[0].body[0] is target


# -- catalog sweep -------------------------------------------------------------------


def _spanned_exprs(g):
    return [n for n in t.walk(g.modules[0]) if isinstance(n, t.Expr) and n.span is not None]


def test_every_catalog_definition_at_every_expression_reparses_or_leaves_the_bytes():
    defs = load_defs("composite.refl", "extensive.refl", "local.refl", "schemes.refl")
    sources = [(SAMPLES_DIR / n).read_bytes() for n in ("apple.erl", "apple_after.erl", "basket.erl")]
    rng = random.Random(5)
    sources += [_random_module_source(rng).encode() for _ in range(8)]
    outcomes = set()
    for k, src in enumerate(sources):
        sites = len(_spanned_exprs(build_graph([parse_module(src)])))
        for d in defs:
            for i in range(sites):
                g = build_graph([parse_module(src)])
                case = f"{d.name} at expression {i} of source {k}"
                try:
                    out = Engine(g, defs).run(d.name, _spanned_exprs(g)[i], ["newname"] * len(d.params))
                except Exception as e:
                    pytest.fail(f"{case}: {e!r}")
                rendered = g.render(g.modules[0].name)
                if out.ok:
                    parse_module(rendered)
                else:
                    assert rendered == src, case
                outcomes.add(out.ok)
    assert outcomes == {True, False}
