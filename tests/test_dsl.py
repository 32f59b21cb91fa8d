from pathlib import Path

import pytest

from miniref import tree as t
from miniref.dsl import (
    CAnd,
    CBind,
    CCall,
    CInvoke,
    CNot,
    CThis,
    CVar,
    CompositeDef,
    ReflSyntaxError,
    RuleDef,
    SchemeDef,
    SelectorDef,
    parse_condition,
    parse_refl,
)
from miniref.engine import BUILTINS, validate
from miniref.semlib import SEMANTIC

DEFS_DIR = Path(__file__).resolve().parent.parent / "src" / "miniref" / "definitions"


def load(name: str):
    return parse_refl((DEFS_DIR / name).read_text())


def diagnostics(text: str) -> list[str]:
    return [msg for _, msg in validate(parse_refl(text))]


def test_extract_listhead_parses():
    defs = load("local.refl")
    d = defs[0]
    assert isinstance(d, RuleDef)
    assert d.name == "extract_listhead" and d.params == []
    (_, step), = d.steps
    assert isinstance(step.matching, t.Cons)
    assert len(step.replacement) == 2
    assert isinstance(step.replacement[0], t.Match)
    cond = step.condition
    assert isinstance(cond, CCall) and cond.name == "fresh"
    assert cond.args == [CVar("Var")]


def test_add_module_qualifier_condition_shape():
    d = load("local.refl")[1]
    (_, step), = d.steps
    cond = step.condition
    assert isinstance(cond, CAnd)
    assert isinstance(cond.left, CCall) and cond.left.name == "atom"
    assert isinstance(cond.right, CBind) and cond.right.name == "Mod"
    assert isinstance(cond.right.expr, CCall) and cond.right.expr.args == [CThis()]


def test_listcomprehension_to_map_binds_a_list_metavar():
    d = load("local.refl")[2]
    (_, step), = d.steps
    assert isinstance(step.matching, t.ListComp)
    binds = step.condition
    while isinstance(binds, CAnd):
        binds = binds.left
    assert isinstance(binds, CBind) and binds.name == "Vars" and binds.is_list


def test_extensive_rename_has_then_chain_and_modifiers():
    d = load("extensive.refl")[0]
    assert isinstance(d, RuleDef) and d.params == ["NewName"]
    assert [op for op, _ in d.steps] == [None, "THEN"]
    first, second = (s for _, s in d.steps)
    assert first.modifier[0] == "ON"
    assert first.modifier[1] == CCall("function_clauses", [CThis()])
    assert isinstance(first.matching, t.ClausePat)
    assert isinstance(first.condition, CNot)
    assert second.modifier[1] == CCall("function_references", [CThis()])
    assert isinstance(second.matching, t.Call)


def test_signature_schemes():
    rename, tuple_args = load("schemes.refl")[:2]
    assert isinstance(rename, SchemeDef) and rename.kind == "signature"
    assert rename.params == ["NewName"]
    assert isinstance(rename.rule.matching, t.Call)
    assert isinstance(tuple_args.rule.replacement[0].args[0], t.Tuple)


def test_forward_dataflow_scheme():
    d = load("schemes.refl")[2]
    assert d.kind == "forward_dataflow" and d.name == "fun2value"
    assert isinstance(d.definition.matching, t.Fun)
    # inline `----- WHEN pure(E)` form
    assert d.definition.condition == CCall("pure", [CVar("E")])
    assert [rv for rv, _ in d.references] == ["F", "G"]
    g_step = d.references[1][1]
    assert isinstance(g_step.matching, t.Call)
    assert g_step.matching.callee.name == "apply"


def test_backward_dataflow_scheme():
    d = load("schemes.refl")[3]
    assert d.kind == "backward_dataflow"
    assert isinstance(d.definition.matching, t.Cons)
    (refvar, step), = d.references
    assert refvar == "Y"
    assert isinstance(step.replacement[0], t.Cons)


def test_composite_and_selectors():
    comp, wrap, fun_part, last_arg = load("composite.refl")
    assert isinstance(comp, CompositeDef)
    assert [s.var for s in comp.body[:2]] == ["OrigName", "Orig"]
    assert isinstance(comp.body[2].call, CInvoke)
    assert comp.body[2].call.recv == CThis()
    assert comp.body[2].call.name == "wrap_into_fun"
    # receiver may itself be a call: definition(Copy).last_arg()
    sel = next(s.call for s in comp.body if s.var == "LastArg")
    assert isinstance(sel, CInvoke) and isinstance(sel.recv, CCall)
    assert isinstance(wrap, RuleDef)
    assert isinstance(fun_part, SelectorDef) and fun_part.returns == "F"
    assert isinstance(last_arg, SelectorDef)
    assert isinstance(last_arg.matching, t.ClausePat)


@pytest.mark.parametrize(
    "name", ["local.refl", "extensive.refl", "schemes.refl", "composite.refl"]
)
def test_shipped_definitions_validate_cleanly(name):
    # a composite may apply definitions of another file, so the whole
    # catalog is validated, as the command line loads it
    own = load(name)
    others = [d for f in sorted(DEFS_DIR.glob("*.refl")) if f.name != name for d in load(f.name)]
    assert validate(others + own) == []


def test_condition_precedence():
    c = parse_condition("a(X) OR b(X) AND NOT c(X)")
    from miniref.dsl import COr

    assert isinstance(c, COr)
    assert isinstance(c.right, CAnd)
    assert isinstance(c.right.right, CNot)


def test_dot_call_is_on_shorthand():
    c = parse_condition("A.refac(1)")
    assert c == CInvoke(CVar("A"), "refac", [__import__("miniref.dsl", fromlist=["CInt"]).CInt(1)])


def test_unbindable_replacement_metavar():
    diags = diagnostics("REFACTORING r()\n    X\n    -----\n    Q\n")
    assert diags == ["r: Q unbindable in replacement"]


def test_duplicate_definition_diagnostic():
    text = "REFACTORING r()\n    X\n    -----\n    X\n"
    diags = diagnostics(text + "\n" + text)
    assert any("duplicate" in d for d in diags)


def test_recursive_composite_diagnostic():
    text = "REFACTORING a()\nDO\n    THIS.a()\n"
    diags = diagnostics(text)
    assert any("recursive" in d for d in diags)


def test_mutually_recursive_composites():
    text = (
        "REFACTORING a()\nDO\n    THIS.b()\n\n"
        "REFACTORING b()\nDO\n    THIS.a()\n"
    )
    diags = diagnostics(text)
    assert any("recursive" in d for d in diags)


def test_list_metavar_in_illegal_position():
    diags = diagnostics("REFACTORING r()\n    X = Args..\n    -----\n    X\n")
    assert any("non-sequence" in d for d in diags)


def test_selector_with_replacement_rejected():
    with pytest.raises(ReflSyntaxError):
        parse_refl("SELECTOR s()\n    X\n    -----\n    X\nRETURN X\n")


def test_missing_separator_rejected():
    with pytest.raises(ReflSyntaxError):
        parse_refl("REFACTORING r()\n    X\nWHEN\n    atom(X)\n")


def test_rebinding_metavar_is_a_comparison():
    # `M = e` on a bound M compares (see `semlib.eval_condition`)
    text = (
        "REFACTORING r(M)\n    X\n    -----\n    X\n"
        "WHEN\n    M = module(THIS)\n"
    )
    assert diagnostics(text) == []


def rule_when(cond: str) -> str:
    return f"REFACTORING r()\n    X\n    -----\n    X\nWHEN\n    {cond}\n"


@pytest.mark.parametrize("name", sorted(SEMANTIC))
def test_each_semantic_function_validates_at_its_arity(name):
    arity = SEMANTIC[name].arity
    assert diagnostics(rule_when(f"{name}({', '.join(['X'] * arity)})")) == []
    too_many = rule_when(f"{name}({', '.join(['X'] * (arity + 1))})")
    assert diagnostics(too_many) == [
        f"r: condition: {name} expects {arity} argument(s), got {arity + 1}"
    ]


@pytest.mark.parametrize(
    "cond, fault",
    [
        ("nosuchpredicate(X)", "unknown semantic function nosuchpredicate"),
        ("atom(X) AND X.foo()", "refactoring invocation .foo(..) is not allowed"),
        ("fresh(v)", "fresh expects a metavariable argument"),
        ("atom(fresh(Y))", "fresh binds a metavariable and has no value"),
        ("atom(NOT X)", "cannot evaluate CNot as a value"),
    ],
)
def test_condition_faults(cond, fault):
    assert diagnostics(rule_when(cond)) == [f"r: condition: {fault}"]


def test_modifier_faults():
    text = "REFACTORING r()\nIN THIS.body()\n    X\n    -----\n    X\n"
    assert diagnostics(text) == ["r: IN modifier: refactoring invocation .body(..) is not allowed"]


def test_composite_applications_must_resolve():
    text = (
        "REFACTORING c()\nDO\n    THIS.nosuch(1)\n    copy_function(name(function(THIS)))\n"
        "    X = nosuch(THIS)\n    THIS.copy_function(length(THIS, 2))\n"
    )
    assert diagnostics(text) == [
        "c: unknown refactoring nosuch/1",
        "c: unknown semantic function nosuch",
        "c: length expects 1 argument(s), got 2",
    ]


def test_readme_lists_every_semantic_function_and_builtin():
    readme = (DEFS_DIR.parent.parent.parent / "README.md").read_text()
    catalog = [(name, sem.arity) for name, sem in SEMANTIC.items()] + list(BUILTINS)
    assert [f"{n}/{a}" for n, a in catalog if f"`{n}/{a}`" not in readme] == []


def test_reference_var_must_occur_on_both_sides():
    text = (
        "FORWARD DATAFLOW REFACTORING d()\n"
        "DEFINITION\n    X\n    -----\n    X\n"
        "REFERENCE F\n    F\n    -----\n    ok\n"
    )
    diags = diagnostics(text)
    assert any("both" in d for d in diags)


@pytest.mark.parametrize(
    "text, faults",
    [
        (rule_when("atom(Q)"), ["r: condition: unbound metavariable Q"]),
        (rule_when("atom(Q) AND Q = module(THIS)"), ["r: condition: unbound metavariable Q"]),
        (rule_when("Q = module(THIS) AND atom(Q)"), []),
        (rule_when("fresh(Q) AND atom(Q)"), []),
        (
            "REFACTORING r(N)\nIN function_clauses(N)\n    X\n    -----\n    X\n"
            "THEN ON function_clauses(X)\n    X\n    -----\n    X\n",
            ["r: ON modifier: X is not a parameter"],
        ),
        (
            "REFACTORING r()\n    X\n    -----\n    X\nWHEN M = module(THIS)\n"
            "THEN\n    Y\n    -----\n    Y\nWHEN atom(M)\n",
            [],
        ),
        (
            "REFACTORING c(N)\nDO\n    Y.add_parameter()\n    Y = function(THIS)\n"
            "    THIS.copy_function(N)\n    Y.add_parameter()\n",
            ["c: Y is used before it is assigned"],
        ),
    ],
    ids=["condition", "later-conjunct", "earlier-conjunct", "fresh", "modifier",
         "earlier-step", "composite-local"],
)
def test_names_read_before_they_are_bound(text, faults):
    assert diagnostics(text) == faults


@pytest.mark.parametrize(
    "name", ["local.refl", "extensive.refl", "schemes.refl", "composite.refl"]
)
def test_every_line_prefix_and_suffix_loads_or_is_a_syntax_error(name):
    # a cut-off file either parses, and validation reports its faults, or
    # raises a syntax error; no other exception escapes
    others = [d for f in sorted(DEFS_DIR.glob("*.refl")) if f.name != name for d in load(f.name)]
    lines = (DEFS_DIR / name).read_text().split("\n")
    for k in range(len(lines) + 1):
        for part in ("\n".join(lines[:k]), "\n".join(lines[k:])):
            try:
                defs = parse_refl(part)
            except ReflSyntaxError:
                continue
            assert all(isinstance(msg, str) for _, msg in validate(others + defs))
