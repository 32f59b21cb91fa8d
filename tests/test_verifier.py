import random
from pathlib import Path

import property_suites as props
import pytest

from miniref import tree as t
from miniref.dsl import parse_refl
from miniref.parser import parse_expr, parse_module
from miniref.verifier import (
    Config,
    Cutoff,
    Eq,
    EqConfig,
    Fresh,
    GoalError,
    IsVar,
    Neq,
    NotInKeys,
    Pure,
    Stuck,
    SymDefs,
    SymEnv,
    Value,
    dynamic_verify,
    entails,
    format_trace,
    goal_from_rule,
    goals_from_application,
    goals_from_dataflow,
    interpret,
    is_value,
    replay,
    satisfies,
    scc_prove,
    step_config,
    term_eq,
)
from miniref.verifier import rules
from miniref.verifier.config import subst_math, unify
from miniref.verifier.rules import sym_match

DEFS_DIR = Path(__file__).resolve().parent.parent / "src" / "miniref" / "definitions"


def load(name):
    return {d.name: d for d in parse_refl((DEFS_DIR / name).read_text())}


def mv(name):
    return t.MathVar(name)


def cfg(code, env=None, defs=None):
    return Config(code, env or SymEnv(), defs or SymDefs())


# -- values and terms ----------------------------------------------------------


def test_values():
    assert is_value(parse_expr("[1, {a, []}]"))
    assert is_value(parse_expr("fun() -> g(1) end"))
    assert is_value(mv("h"))
    assert not is_value(parse_expr("f(1)"))
    assert not is_value(parse_expr("X"))
    assert not is_value(t.Cons(parse_expr("f(1)"), t.Nil()))


def test_is_value_does_not_recurse_on_long_or_deep_terms():
    for leaf, expected in ((t.Integer(1), True), (t.Var("X"), False)):
        long, deep = t.mklist([t.Integer(0)] * 5000, t.Cons(leaf, t.Nil())), leaf
        for _ in range(5000):
            deep = t.Tuple([t.Cons(deep, t.Nil())])
        assert is_value(long) is expected and is_value(deep) is expected


def test_unify_binds_math_variables():
    pat = t.Cons(mv("h"), mv("t"))
    b = unify(pat, parse_expr("[1, 2]"))
    assert b is not None and term_eq(b["h"], t.Integer(1))
    assert unify(pat, parse_expr("{1, 2}")) is None


def test_unify_rejects_conflicting_rebind():
    pat = t.Tuple([mv("x"), mv("x")])
    assert unify(pat, parse_expr("{1, 1}")) is not None
    assert unify(pat, parse_expr("{1, 2}")) is None


def test_satisfaction_positive_and_negative():
    pattern = cfg(t.Cons(mv("h"), mv("t")))
    rho = {"h": t.Integer(1), "t": parse_expr("[2]")}
    gamma = cfg(parse_expr("[1, 2]"))
    assert satisfies(gamma, rho, pattern)
    assert not satisfies(cfg(parse_expr("[7, 2]")), rho, pattern)


# -- the rule catalog -----------------------------------------------------------


def test_seq_match_to_case_shape():
    code = parse_expr("begin V = h(), [V | T] end")
    step = step_config(cfg(code))
    assert step.tag == "seq-match-to-case"
    out = step.branches[0][0]
    assert isinstance(out, t.Case)
    assert isinstance(out.clauses[0].body[0], t.Block)


def test_case_match_substitutes_bindings():
    code = parse_expr("case 1 of X -> [X, X] end")
    step = step_config(cfg(code))
    assert step.tag == "case-match"
    assert term_eq(step.branches[0][0], parse_expr("[1, 1]"))


def test_case_mismatch_tries_next_clause():
    code = parse_expr("case b of a -> 1; b -> 2 end")
    step = step_config(cfg(code))
    assert step.tag == "case-mismatch"
    r = interpret(code)
    assert term_eq(r.term, t.Integer(2))


def test_call_unfold_example():
    defs = SymDefs.of_module(parse_module(b"-module(m).\nf(A) -> A + 1.\n"))
    step = step_config(Config(parse_expr("f(1)"), SymEnv(), defs))
    assert step.tag == "call-unfold"
    assert term_eq(step.branches[0][0], parse_expr("1 + 1"))


def test_symbolic_case_needs_freshness_facts():
    code = t.Case(mv("h"), [t.Clause(None, [mv("v")], [t.Cons(mv("v"), mv("t"))])])
    env = SymEnv((), "e1")
    assert step_config(Config(code, env, SymDefs((), "d1"))) is None
    cs = (NotInKeys("v", "e1"), IsVar("v"))
    step = step_config(Config(code, env, SymDefs((), "d1")), cs)
    assert step.tag == "case-match"
    assert term_eq(step.branches[0][0], t.Cons(mv("h"), mv("t")))


def test_sym_match_undecidable_is_maybe():
    verdict, _ = sym_match(mv("x"), t.Atom("a"), SymEnv(), ())
    assert verdict == "maybe"
    verdict, _ = sym_match(t.Atom("b"), t.Atom("a"), SymEnv(), ())
    assert verdict == "no"


def test_case_split_forks_with_both_constraints():
    code = t.Case(
        mv("x"),
        [t.Clause(None, [t.Atom("a")], [t.Integer(1)]),
         t.Clause(None, [t.Atom("b")], [t.Integer(2)])],
    )
    step = step_config(cfg(code))
    assert step.tag == "case-split" and len(step.branches) == 2
    kinds = {type(c).__name__ for _, _, extra in step.branches for c in extra}
    assert kinds == {"Matches", "NotMatches"}


# -- entailment ------------------------------------------------------------------


def test_entails_weakening():
    basic = cfg(t.Cons(mv("h"), mv("t")))
    p = (basic, (IsVar("v"), Pure(mv("h"))))
    q = (basic, (IsVar("v"),))
    assert entails(p, q)
    assert not entails(q, (basic, (IsVar("w"),)))


def test_neq_does_not_entail_eq():
    basic = cfg(mv("x"))
    assert not entails((basic, (Neq(mv("x"), mv("y")),)), (basic, (Eq(mv("x"), mv("y")),)))


def test_meeting_state_entails_meet_pattern():
    # both sides hold the same code and environment: the axiom applies
    lhs = EqConfig(
        cfg(t.Cons(mv("h"), mv("t")), SymEnv((), "e1")),
        cfg(t.Cons(mv("h"), mv("t")), SymEnv((), "e1")),
    )
    rhs = EqConfig(cfg(mv("c2"), SymEnv((), "e2")), cfg(mv("c2"), SymEnv((), "e2")))
    assert entails((lhs, ()), (rhs, ()))
    other = EqConfig(
        cfg(t.Cons(mv("h"), mv("t")), SymEnv((), "e1")),
        cfg(mv("h"), SymEnv((), "e1")),
    )
    assert not entails((other, ()), (rhs, ()))


# -- goal builders -----------------------------------------------------------------


def test_goal_from_rule_shape():
    g = goal_from_rule(load("local.refl")["extract_listhead"])
    code1 = g.lhs.cfg1.code
    assert isinstance(code1, t.Cons)
    assert isinstance(code1.head, t.MathVar) and isinstance(code1.tail, t.MathVar)
    assert isinstance(g.lhs.cfg2.code, t.Block)
    assert g.lhs.cfg1.env.frame == g.lhs.cfg2.env.frame == "e1"
    assert g.lhs.cfg1.defs.frame == "d1"
    assert [type(c) for c in g.constraints] == [Fresh]


def test_goal_from_identity_rule_is_immediate():
    (d,) = parse_refl("REFACTORING ident()\n    X\n    -----\n    X\n")
    g = goal_from_rule(d)
    r = scc_prove(g)
    assert r.proved and [e[0] for e in r.trace] == ["subsume"]


def test_goal_from_rule_rejects_combinators():
    defs = parse_refl(
        "REFACTORING two()\n    a\n    -----\n    b\nTHEN\n    b\n    -----\n    a\n"
    )
    with pytest.raises(GoalError):
        goal_from_rule(defs[0])


def test_dataflow_goals_match_displayed_formulas():
    goals = goals_from_dataflow(load("schemes.refl")["fun2value"])
    assert [g.name for g in goals] == ["fun2value/F", "fun2value/G"]
    first, second = goals
    assert isinstance(first.lhs.cfg1.code, t.Call)
    assert isinstance(first.lhs.cfg1.code.callee, t.Fun)
    assert isinstance(first.lhs.cfg2.code, t.MathVar)
    assert isinstance(second.lhs.cfg1.code.callee, t.Atom)
    assert second.lhs.cfg1.code.callee.name == "apply"
    assert all(type(c) is Pure for g in goals for c in g.constraints)


def test_application_goals_require_matching_exports():
    m1 = parse_module(b"-module(m).\n-export([f/0]).\nf() -> a.\n")
    m2 = parse_module(b"-module(m).\n-export([g/1]).\ng(X) -> X.\n")
    with pytest.raises(GoalError, match="f/0"):
        goals_from_application(m1, m2)


def test_identical_modules_prove_by_subsumption():
    m = parse_module(b"-module(m).\n-export([f/1]).\nf(X) -> [X].\n")
    (goal,) = goals_from_application(m, m)
    r = scc_prove(goal)
    assert r.proved


# -- the prover ---------------------------------------------------------------------


def test_extract_listhead_proof_trace():
    g = goal_from_rule(load("local.refl")["extract_listhead"])
    r = scc_prove(g)
    assert r.proved
    tags = [(e[0], e[1]) for e in r.trace]
    assert tags == [
        ("seq-match-to-case", "cfg2"),
        ("block-elim", "cfg2"),
        ("fresh-axiom", "cfg2"),
        ("case-match", "cfg2"),
        ("subsume", "eq"),
    ]
    assert replay(g, r)
    text = format_trace(r)
    assert text.endswith("QED") and "1. seq-match-to-case @ cfg2" in text


def test_fun2value_goals_prove_via_function_invocation():
    for g in goals_from_dataflow(load("schemes.refl")["fun2value"]):
        r = scc_prove(g)
        assert r.proved, g.name
        assert any(e[0] in ("fun-beta", "apply-desugar") for e in r.trace)
        assert replay(g, r)


def test_common_tail_goal_is_trivial():
    (g,) = goals_from_dataflow(load("schemes.refl")["common_tail"])
    r = scc_prove(g)
    assert r.proved and len(r.trace) == 1


def test_add_module_qualifier_uses_single_module_axiom():
    g = goal_from_rule(load("local.refl")["add_module_qualifier"])
    assert g.notes  # the module(THIS) binding has no axiom
    r = scc_prove(g)
    assert r.proved
    assert [e[0] for e in r.trace] == ["qualified-call-elim", "subsume"]


def test_listcomprehension_goal_is_unknown():
    g = goal_from_rule(load("local.refl")["listcomprehension_to_map"])
    r = scc_prove(g)
    assert r.status == "unknown"
    assert format_trace(r).splitlines()[-1].startswith("UNKNOWN depth=")


def test_unequal_ground_sides_disprove():
    lhs = EqConfig(cfg(parse_expr("1 + 1")), cfg(parse_expr("1 + 2")))
    from miniref.verifier.prover import ProofGoal

    r = scc_prove(ProofGoal("bad", lhs, (), require_value=True))
    assert r.status == "disproved"
    assert format_trace(r).splitlines()[-1].startswith("DISPROVED")


def test_circularity_closes_recursive_equivalence():
    # both sides run the same diverging recursion on a symbolic value
    m = parse_module(b"-module(m).\n-export([loop/1]).\nloop(X) -> loop(X).\n")
    (goal,) = goals_from_application(m, m)
    r = scc_prove(goal)
    assert r.proved


def test_depth_exhaustion_reports_unknown():
    m = parse_module(
        b"-module(m).\n-export([f/1]).\nf([H | T]) -> [H | f(T)];\nf([]) -> [].\n"
    )
    m2 = parse_module(
        b"-module(m).\n-export([f/1]).\nf([H | T]) -> [H] ++ f(T);\nf([]) -> [].\n"
    )
    (goal,) = goals_from_application(m, m2)
    r = scc_prove(goal, max_depth=1)
    assert r.status == "unknown"


# -- the interpreter -------------------------------------------------------------


def test_interpret_worked_configuration():
    defs = parse_module(b"-module(m).\nf(A) -> A + 1.\n")
    r = interpret(parse_expr("[f(X) | [2, 3]]"), env={"X": t.Integer(1)}, defs=defs)
    assert isinstance(r, Value) and term_eq(r.term, parse_expr("[2, 2, 3]"))


def test_interpret_block_binding():
    r = interpret(parse_expr("begin X = 1, [X | [2]] end"))
    assert term_eq(r.term, parse_expr("[1, 2]"))


def test_interpret_stuck_case():
    r = interpret(parse_expr("case a of b -> c end"))
    assert isinstance(r, Stuck)


def test_interpret_cutoff_on_divergence():
    defs = parse_module(b"-module(m).\nloop() -> loop().\n")
    r = interpret(parse_expr("loop()"), defs=defs, fuel=50)
    assert isinstance(r, Cutoff)


def test_interpret_comprehension_filters_nonmatching_heads():
    r = interpret(parse_expr("[X + 1 || {X} <- [{1}, bad, {2}]]"))
    assert term_eq(r.term, parse_expr("[2, 3]"))


def test_interpret_fun_parameter_shadows_outer_variable():
    defs = parse_module(b"-module(m).\nf(X) -> G = fun(X) -> X end, G(2).\n")
    r = interpret(parse_expr("f(1)"), defs=defs)
    assert isinstance(r, Value) and term_eq(r.term, t.Integer(2))
    # a fun body still sees the outer names its parameters do not shadow
    defs = parse_module(b"-module(m).\nf(X) -> G = fun(Y) -> {X, Y} end, G(2).\n")
    r = interpret(parse_expr("f(1)"), defs=defs)
    assert term_eq(r.term, parse_expr("{1, 2}"))


def test_interpret_apply_and_remote():
    defs = parse_module(b"-module(m).\nf(A) -> A.\n")
    r = interpret(parse_expr("apply(f, [ok])"), defs=defs)
    assert term_eq(r.term, t.Atom("ok"))
    r = interpret(parse_expr("m:f(ok)"), defs=defs)
    assert term_eq(r.term, t.Atom("ok"))


SUM = b"-module(s).\n-export([sum/1]).\nsum([H | T]) -> H + sum(T);\nsum([]) -> 0.\n"


def _root_stepper(code, env, defs):
    """Step from the root with `step_config` until no single step applies;
    the configurations visited, the first one included."""
    seen = [Config(code, SymEnv(tuple(env.items()), None), SymDefs.of_module(defs))]
    while (step := step_config(seen[-1])) is not None and len(step.branches) == 1:
        code2, env2, _ = step.branches[0]
        seen.append(Config(code2, env2, seen[-1].defs))
    return seen


def test_refocused_interpreter_fires_the_root_steppers_tags(monkeypatch):
    tags = []
    decide = rules._decide

    def recording(*args):
        decision = decide(*args)
        if isinstance(decision, rules.Step):
            tags.append(decision.tag)
        return decision

    monkeypatch.setattr(rules, "_decide", recording)
    defs = parse_module(props.DEFS_SOURCE)
    rng = random.Random(13)
    generated = [props._gen_program(rng, kind) for kind in range(props.KINDS) for _ in range(15)]
    nested = [  # redexes deep inside lists, tuples, blocks, cases and comprehensions
        "[inc(1), begin X = id(2), [X | [inc(X)]] end, {pair(a, [b]), 3} | [4]]",
        "[{I, id(J)} || I <- [1, 2], J <- [inc(I), I], true]",
        "case {inc(1), id(a)} of {2, b} -> no; {N, a} -> begin Y = N, Y + Y end end",
        "lists:map(fun(Z) -> [Z] ++ [inc(Z)] end, [1, id(2)])",
        # the head steps to a match, so the block's own rule fires next
        "begin begin Y = inc(1) end, Y + Y end",
    ]
    for prog, env in generated + [(p, {}) for p in nested]:
        code = parse_expr(prog) if isinstance(prog, str) else prog
        del tags[:]
        result = interpret(code, env=dict(env), defs=defs)
        refocused = list(tags)
        del tags[:]
        seen = _root_stepper(code, env, defs)
        assert refocused == tags and len(tags) == len(seen) - 1, prog
        last = result.term if isinstance(result, Value) else result.config.code
        assert term_eq(last, seen[-1].code), prog
        assert isinstance(result, Value) or prog not in nested


def test_interpret_leaves_its_input_unchanged():
    source = SUM + (
        b"tag(L) -> [{t, X} || X <- L].\n"
        b"both(L) -> {lists:map(fun(X) -> X + 1 end, L), L ++ L, tag(L)}.\n"
    )
    module = parse_module(source)
    call = parse_expr("both([sum([1, 2, 3]), 4 | [5]])")
    keys = t.struct_key(module), t.struct_key(call)
    r = interpret(call, defs=module)
    assert isinstance(r, Value)
    assert (t.struct_key(module), t.struct_key(call)) == keys


def test_interpret_sums_a_long_list_without_deep_recursion():
    call = parse_expr("sum([" + ", ".join(str(i % 10) for i in range(400)) + "])")
    r = interpret(call, defs=parse_module(SUM))
    assert isinstance(r, Value) and term_eq(r.term, t.Integer(sum(i % 10 for i in range(400))))


def test_interpret_fuel_counts_steps_exactly():
    module = parse_module(SUM)
    call = parse_expr("sum([1, 2, 3])")
    seen = _root_stepper(call, {}, module)
    steps = len(seen) - 1
    assert isinstance(interpret(call, defs=module, fuel=steps + 1), Value)
    for fuel in (0, 1, steps // 2, steps):
        r = interpret(call, defs=module, fuel=fuel)
        assert isinstance(r, Cutoff) and term_eq(r.config.code, seen[fuel].code)


# -- dynamic verification ----------------------------------------------------------


APPLE_BEFORE = (
    b"-module(apple).\n-export([f/0]).\nf() ->\n"
    b"    X = fun() -> apple end,\n    atom_to_list(X()).\n"
)
APPLE_AFTER = (
    b"-module(apple).\n-export([f/0]).\nf() ->\n    X = apple,\n    atom_to_list(X).\n"
)


def test_dynamic_verify_equivalent_modules():
    rep = dynamic_verify(parse_module(APPLE_BEFORE), parse_module(APPLE_AFTER),
                         samples=100, seed=0)
    assert rep.ok and rep.checked == [("f/0", 100)]


def test_dynamic_verify_reports_divergence():
    bad = parse_module(b"-module(apple).\n-export([f/0]).\nf() -> pear.\n")
    rep = dynamic_verify(parse_module(APPLE_BEFORE), bad, samples=3, seed=0)
    assert not rep.ok and rep.divergences[0].function == "f/0"


def test_dynamic_verify_tolerates_shared_nontermination():
    a = parse_module(b"-module(m).\n-export([f/1]).\nf(X) -> f(X).\n")
    b = parse_module(b"-module(m).\n-export([f/1]).\nf(X) -> f([X]).\n")
    rep = dynamic_verify(a, b, samples=3, seed=1, fuel=60)
    assert rep.ok and rep.cutoffs == 3


def test_dynamic_verify_counts_samples_stuck_on_both_sides():
    a = parse_module(b"-module(m).\n-export([f/1]).\nf(X) -> case X of nope -> 1 end.\n")
    b = parse_module(b"-module(m).\n-export([f/1]).\nf(X) -> case X of nope -> 2 end.\n")
    rep = dynamic_verify(a, b, samples=5, seed=1)
    assert rep.ok and rep.stuck == 5 and rep.cutoffs == 0


def test_verify_app_apple_goals_prove():
    goals = goals_from_application(parse_module(APPLE_BEFORE), parse_module(APPLE_AFTER))
    for g in goals:
        r = scc_prove(g)
        assert r.proved and replay(g, r)


def test_subst_math_splices_sequences():
    term = t.Call(t.Atom("f"), [t.SeqVar("xs")])
    out = subst_math(term, {"xs": [t.Integer(1), t.Integer(2)]})
    assert len(out.args) == 2
