from pathlib import Path

import pytest

from miniref.cli import main
from miniref.parser import parse_module

SAMPLES = Path(__file__).resolve().parent.parent / "src" / "miniref" / "samples"
APPLE = SAMPLES / "apple.erl"
APPLE_AFTER = SAMPLES / "apple_after.erl"


@pytest.fixture
def work(tmp_path):
    dst = tmp_path / "apple.erl"
    dst.write_bytes(APPLE.read_bytes())
    return dst


def test_apply_prints_unified_diff(work, capsys):
    assert main(["apply", str(work), "fun2value", "--at", "5:9"]) == 0
    out = capsys.readouterr().out
    assert "-    X = fun() -> apple end," in out
    assert "+    X = apple," in out
    assert work.read_bytes() == APPLE.read_bytes()  # diff mode leaves the file alone


def test_apply_write_rewrites_in_place(work):
    assert main(["apply", str(work), "fun2value", "--at", "5:9", "--write"]) == 0
    assert work.read_bytes() == APPLE_AFTER.read_bytes()


def test_apply_accepts_file_line_col_target(work, capsys):
    assert main(["apply", str(work), "fun2value", "--at", f"{work}:5:9"]) == 0


def test_apply_by_function_target(tmp_path):
    work = tmp_path / "basket.erl"
    work.write_bytes((SAMPLES / "basket.erl").read_bytes())
    assert main(["apply", str(work), "rename_function", "sum", "--fun", "total/1", "--write"]) == 0
    text = work.read_text()
    assert "sum([H | T]) ->" in text and "-export([tag_all/1, sum/1])." in text


def test_apply_failure_is_exit_1(work, capsys):
    assert main(["apply", str(work), "extract_listhead", "--at", "5:5"]) == 1
    assert "failed" in capsys.readouterr().err


def test_apply_refuses_an_expression_in_a_pattern_position(work, capsys):
    # wrapping the `X` of `X = fun() -> apple end` would print
    # `(fun() -> X end)() = ...`, which does not parse
    assert main(["apply", str(work), "wrap_into_fun", "--at", "5:5", "--write"]) == 1
    assert "pattern position" in capsys.readouterr().err
    assert work.read_bytes() == APPLE.read_bytes()


@pytest.mark.parametrize(
    "args, call",
    [(["rename_function", "h"], "h(h(X))"), (["tuple_function_arguments"], "g({g({X})})")],
    ids=["rename", "tuple"],
)
def test_signature_scheme_rewrites_nested_call_sites(tmp_path, args, call):
    # the outer call copies its argument, so it must hold the rewritten inner call
    work = tmp_path / "nest.erl"
    work.write_bytes(b"-module(nest).\ng(X) -> X.\nf(X) -> g(g(X)).\n")
    assert main(["apply", str(work), *args, "--fun", "g/1", "--write"]) == 0
    text = work.read_text()
    assert f"f(X) -> {call}." in text
    parse_module(text.encode())


def test_common_tail_refuses_a_binder_target(tmp_path, capsys):
    # hoisting out of the binder `Y` would print `[Y, apple, pear] = b`
    src = b"-module(m).\nf() -> Y = [b, apple, pear], Y.\n"
    work = tmp_path / "bind.erl"
    work.write_bytes(src)
    assert main(["apply", str(work), "common_tail", "--at", "2:8", "--write"]) == 1
    assert "pattern position" in capsys.readouterr().err
    assert work.read_bytes() == src


def test_apply_with_an_unbound_replacement_metavariable_fails(work, tmp_path, capsys):
    refl = tmp_path / "unb.refl"
    refl.write_text("REFACTORING unb()\n    atom_to_list(A)\n    -----\n    atom_to_list(B)\n")
    args = ["apply", str(work), "unb", "--at", "6:17", "--defs", str(refl), "--write"]
    assert main(args) == 3
    assert capsys.readouterr().err == f"error: {refl}: unb: B unbindable in replacement\n"
    assert work.read_bytes() == APPLE.read_bytes()


BAD_DEFINITIONS = {
    "unbound": ("    atom_to_list(A)\n    -----\n    atom_to_list(B)\n",
                "B unbindable in replacement"),
    "unknown_predicate": ("    X\n    -----\n    X\nWHEN\n    nosuchpredicate(X)\n",
                          "condition: unknown semantic function nosuchpredicate"),
    "arity": ("    X\n    -----\n    X\nWHEN\n    length(X, X)\n",
              "condition: length expects 1 argument(s), got 2"),
    "invocation": ("    X\n    -----\n    X\nWHEN\n    X.foo()\n",
                   "condition: refactoring invocation .foo(..) is not allowed"),
    "composite": ("DO\n    THIS.nosuch(1)\n", "unknown refactoring nosuch/1"),
    "unbound_condition": ("    X\n    -----\n    X\nWHEN atom(Q)\n",
                          "condition: unbound metavariable Q"),
    "unassigned_local": ("DO\n    Y.wrap_into_fun()\n", "Y is used before it is assigned"),
    "modifier": ("ON function_clauses(X)\n    X\n    -----\n    X\n",
                 "ON modifier: X is not a parameter"),
}


@pytest.mark.parametrize("bad", sorted(BAD_DEFINITIONS))
@pytest.mark.parametrize(
    "command",
    [
        ["apply", "{work}", "bad", "--at", "6:17", "--write"],
        ["verify-rule", "bad"],
        ["check-contract", "bad"],
    ],
    ids=["apply", "verify-rule", "check-contract"],
)
def test_a_bad_definition_is_exit_3_at_load(work, tmp_path, capsys, command, bad):
    body, fault = BAD_DEFINITIONS[bad]
    refl = tmp_path / "bad.refl"
    refl.write_text(f"REFACTORING bad()\n{body}")
    args = [a.format(work=work) for a in command] + ["--defs", str(refl)]
    assert main(args) == 3
    assert capsys.readouterr() == ("", f"error: {refl}: bad: {fault}\n")
    assert work.read_bytes() == APPLE.read_bytes()


def test_a_refl_syntax_error_names_its_file(work, tmp_path, capsys):
    refl = tmp_path / "nosep.refl"
    refl.write_text("REFACTORING r()\n    X\nWHEN\n    atom(X)\n")
    assert main(["apply", str(work), "r", "--at", "6:17", "--defs", str(refl)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {refl}: 3:1: matching pattern is missing its ----- separator\n"


def test_a_header_on_the_last_line_is_a_syntax_error(tmp_path, capsys):
    refl = tmp_path / "sig.refl"
    refl.write_text("FUNCTION SIGNATURE REFACTORING")
    assert main(["check-contract", "foo", "--defs", str(refl)]) == 3
    assert capsys.readouterr().err == f"error: {refl}: 2:1: expected name(params), found ''\n"


def test_definitions_are_checked_before_the_module_is_read(tmp_path, capsys):
    refl = tmp_path / "bad.refl"
    refl.write_text("REFACTORING bad()\n    X\n    -----\n    Y\n")
    args = ["apply", str(tmp_path / "missing.erl"), "bad", "--at", "1:1", "--defs", str(refl)]
    assert main(args) == 3
    assert capsys.readouterr().err == f"error: {refl}: bad: Y unbindable in replacement\n"


# the benchmark's user rule: `N = length(A..)` binds N when unbound and
# compares when N is a parameter
GROUP_PREFIX = (
    "REFACTORING group_prefix(N)\n    {A.., B..}\n    -----\n    {{A..}, B..}\n"
    "WHEN\n    N = length(A..)\n"
)


def test_group_prefix_from_defs_applies(tmp_path, capsys):
    refl = tmp_path / "gp.refl"
    refl.write_text(GROUP_PREFIX)
    work = tmp_path / "m.erl"
    work.write_bytes(b"-module(m).\nf() -> {a, b, c, d}.\n")

    def apply(n: str, *extra: str) -> int:
        args = ["apply", str(work), "group_prefix", n, "--at", "2:8", "--defs", str(refl)]
        return main([*args, *extra])

    assert apply("5") == 1
    assert "the condition rejects all" in capsys.readouterr().err
    assert apply("2", "--write") == 0
    assert work.read_bytes() == b"-module(m).\nf() -> {{a, b}, c, d}.\n"


def test_edits_after_non_ascii_text_land_on_their_characters(tmp_path):
    # spans count characters; `é` and `è` take two bytes each in UTF-8
    work = tmp_path / "m.erl"
    work.write_text("-module(m).\n\n% café\ng(X) -> X + 1.\nf(Y) -> {'crème', g(Y)}.\n")
    assert main(["apply", str(work), "rename_function", "h", "--fun", "g/1", "--write"]) == 0
    assert work.read_bytes() == (
        "-module(m).\n\n% café\nh(X) ->\n    X + 1.\nf(Y) -> {'crème', h(Y)}.\n"
    ).encode()
    assert main(["apply", str(work), "wrap_into_fun", "--at", "6:20", "--write"]) == 0
    assert work.read_text().endswith("f(Y) -> {'crème', (fun() -> h(Y) end)()}.\n")


def test_apply_without_target_is_usage_error(work, capsys):
    assert main(["apply", str(work), "fun2value"]) == 3


def test_parse_error_is_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.erl"
    bad.write_text("-module(m).\nf( -> x.\n")
    assert main(["apply", str(bad), "fun2value", "--at", "2:1"]) == 3


def test_verify_rule_proved(capsys):
    assert main(["verify-rule", "extract_listhead", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "extract_listhead: PROVED" in out
    assert "QED" in out


def test_verify_rule_unknown_exits_2(capsys):
    assert main(["verify-rule", "listcomprehension_to_map"]) == 2
    assert "UNKNOWN" in capsys.readouterr().out


def test_verify_rule_dataflow(capsys):
    assert main(["verify-rule", "fun2value"]) == 0
    out = capsys.readouterr().out
    assert "fun2value/F: PROVED" in out and "fun2value/G: PROVED" in out


def test_verify_rule_signature_redirects(capsys):
    assert main(["verify-rule", "rename_function"]) == 3


def test_check_contract(capsys):
    assert main(["check-contract", "rename_function"]) == 0
    assert main(["check-contract", "tuple_function_arguments"]) == 0


def test_check_contract_violation(tmp_path, capsys):
    refl = tmp_path / "drop.refl"
    refl.write_text(
        "FUNCTION SIGNATURE REFACTORING\n  drop_last()\n    Name(A, B)\n  -----\n    Name(A)\n"
    )
    assert main(["check-contract", "drop_last", "--defs", str(refl)]) == 1
    assert "dropped" in capsys.readouterr().out


def test_verify_app_proved(capsys):
    assert main(["verify-app", str(APPLE), str(APPLE_AFTER)]) == 0
    assert "f/0: PROVED" in capsys.readouterr().out


def test_verify_app_disproved(tmp_path, capsys):
    bad = tmp_path / "bad.erl"
    bad.write_text("-module(apple).\n-export([f/0]).\nf() -> pear.\n")
    assert main(["verify-app", str(APPLE), str(bad)]) == 1


def test_verify_app_export_mismatch(tmp_path, capsys):
    other = tmp_path / "other.erl"
    other.write_text("-module(apple).\n-export([g/0]).\ng() -> ok.\n")
    assert main(["verify-app", str(APPLE), str(other)]) == 1
    err = capsys.readouterr().err
    assert "f/0" in err and "g/0" in err


def test_dynamic_test_command(capsys):
    assert main(["test", str(APPLE), str(APPLE_AFTER), "--samples", "20", "--seed", "7"]) == 0
    assert "0 divergence(s)" in capsys.readouterr().out


def test_dynamic_test_reports_cutoffs_and_shared_stuck_samples(tmp_path, capsys):
    before = tmp_path / "before.erl"
    before.write_text("-module(m).\n-export([f/1, g/0]).\nf(X) -> f(X).\ng() -> 1 + a.\n")
    after = tmp_path / "after.erl"
    after.write_text(
        "-module(m).\n-export([f/1, g/0]).\nf(X) -> h(X).\nh(X) -> f(X).\ng() -> a + 1.\n"
    )
    assert main(["test", str(before), str(after), "--samples", "4"]) == 0
    out = capsys.readouterr().out
    assert "cutoffs: 4\n" in out and "stuck on both sides: 4\n" in out


def test_dynamic_test_divergence(tmp_path, capsys):
    bad = tmp_path / "bad.erl"
    bad.write_text("-module(apple).\n-export([f/0]).\nf() -> pear.\n")
    assert main(["test", str(APPLE), str(bad), "--samples", "3"]) == 1
    assert "divergence:" in capsys.readouterr().out


def test_graph_listing_and_dot(capsys):
    assert main(["graph", str(SAMPLES / "basket.erl")]) == 0
    out = capsys.readouterr().out
    assert "basket:total/1 [pure]" in out
    assert main(["graph", str(SAMPLES / "basket.erl"), "--dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_graph_of_a_directory_is_exit_3(tmp_path, capsys):
    assert main(["graph", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_deeply_nested_input_is_exit_3(tmp_path, capsys):
    deep = tmp_path / "deep.erl"
    depth = 2000  # beyond what the recursive-descent parser reads
    deep.write_text(f"-module(deep).\n-export([f/0]).\nf() -> {'{' * depth}0{'}' * depth}.\n")
    assert main(["graph", str(deep)]) == 3
    assert capsys.readouterr().err == "error: input nests too deeply\n"


def _long_list_module(tmp_path, n):
    path = tmp_path / "long.erl"
    elems = ", ".join(str(i % 10) for i in range(n))
    path.write_text(f"-module(long).\n-export([f/0]).\nf() -> [{elems}].\n")
    return path


def test_graph_of_a_long_list_literal(tmp_path, capsys):
    assert main(["graph", str(_long_list_module(tmp_path, 1500))]) == 0
    assert capsys.readouterr().out == "long:f/0 [pure] refs=1\n"


def test_wrap_a_long_list_literal(tmp_path):
    work = _long_list_module(tmp_path, 300)
    assert main(["apply", str(work), "wrap_into_fun", "--at", "3:8", "--write"]) == 0
    out = work.read_bytes()
    assert out.startswith(b"-module(long).\n-export([f/0]).\nf() -> (fun() -> [0, 1, 2,")
    parse_module(out)


def test_a_long_list_pattern_loads(tmp_path, capsys):
    path = tmp_path / "pat.erl"
    pattern = ", ".join(f"X{i}" for i in range(600))
    path.write_text(f"-module(pat).\n-export([f/1]).\nf([{pattern}]) -> X0.\n")
    assert main(["graph", str(path)]) == 0
    assert capsys.readouterr().out == "pat:f/1 [pure] refs=1\n"


def test_dynamic_test_of_a_deep_result_value(tmp_path, capsys):
    # w/2 nests its result two levels per element: 1000 levels in all
    path = tmp_path / "deep.erl"
    elems = ", ".join("a" for _ in range(500))
    path.write_text(
        "-module(deep).\n-export([f/0]).\n"
        f"f() -> w(x, [{elems}]).\n"
        "w(X, []) -> X;\nw(X, [_ | T]) -> [[w(X, T)]].\n"
    )
    assert main(["test", str(path), str(path), "--samples", "2"]) == 0
    assert "0 divergence(s)" in capsys.readouterr().out


def test_unknown_subcommand_is_usage(capsys):
    assert main(["frobnicate"]) == 3
