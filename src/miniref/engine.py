"""Execution of refactoring definitions against the semantic graph.

Everything runs inside transactions: a failing rule, combinator chain, scheme
or composite rolls the graph back to a state that prints byte-identically to
the pre-state.

Every definition kind rewrites through the same two routines.
`Engine._unique` returns the one match of a rule step at a site that its
condition admits; no match, a condition that rejects every candidate and an
ambiguous match are each a failure naming that stage, never an arbitrary
pick.  `Engine._replace` makes every edit: a replacement sequence is spliced
into a clause body or block and wrapped in a `Block` elsewhere, and no
expression is put in a pattern position.  Bindings hold subtrees that other
rewrites change, so a definition matches a site when it rewrites it, not in
a plan made before the first edit.

`validate` reports, before anything runs, what these routines and the
condition evaluator would reject; it reads the same tables of semantic
functions (`semlib.SEMANTIC`) and builtin refactorings (`BUILTINS`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from . import tree as t
from .dsl import (
    CAnd,
    CBind,
    CCall,
    CInvoke,
    CNot,
    COr,
    CThis,
    CVar,
    CompositeDef,
    CondExpr,
    RuleDef,
    RuleStep,
    SchemeDef,
    SelectorDef,
)
from .graph import FunctionSem, SemanticGraph
from .matcher import Bindings, MatchError, instantiate, match
from .semlib import (
    SEMANTIC,
    SemError,
    call_semantic,
    eval_condition,
    eval_expr,
    fresh_name,
    semantic,
)


class RefacFail(Exception):
    """Internal control flow: aborts the enclosing transaction."""


def _instantiate(pattern, b: Bindings):
    """`instantiate`, with a replacement that cannot be built (an unbound
    metavariable, a sequence in a single-node position) as a failure."""
    try:
        return instantiate(pattern, b)
    except (MatchError, ValueError) as e:
        raise RefacFail(str(e)) from None


@dataclass
class RefOutcome:
    ok: bool
    result: object = None
    reason: str = ""

    @classmethod
    def success(cls, result) -> "RefOutcome":
        return cls(True, result=result)

    @classmethod
    def failure(cls, reason: str) -> "RefOutcome":
        return cls(False, reason=reason)


@dataclass
class ExecContext:
    graph: SemanticGraph
    this: object  # syntactic node or FunctionSem
    bindings: Bindings = field(default_factory=Bindings)
    locals: dict = field(default_factory=dict)


class Engine:
    def __init__(self, graph: SemanticGraph, definitions: list | None = None):
        self.graph = graph
        self.defs: dict[tuple[str, int], object] = {}
        for d in definitions or []:
            self.register(d)

    def register(self, d) -> None:
        key = (d.name, len(d.params))
        if key in self.defs:
            raise ValueError(f"duplicate refactoring definition {d.name}/{len(d.params)}")
        self.defs[key] = d

    def lookup(self, name: str, nargs: int):
        return self.defs.get((name, nargs))

    # -- invocation ----------------------------------------------------------------

    def run(self, name: str, target, args: list | None = None) -> RefOutcome:
        self.graph.txn_begin()
        try:
            result = self._call(name, target, list(args or []))
        except RefacFail as e:
            self.graph.txn_rollback()
            return RefOutcome.failure(str(e))
        except BaseException:
            self.graph.txn_rollback()
            raise
        self.graph.txn_commit()
        return RefOutcome.success(result)

    def _call(self, name: str, target, args: list):
        """Run the definition, selector or builtin `name` at `target`, its
        parameters bound to `args`."""
        d = self.lookup(name, len(args))
        if isinstance(d, SelectorDef):
            return self.run_selector(d, self._as_node(target))
        ctx = ExecContext(self.graph, target)
        if d is None:
            builtin = BUILTINS.get((name, len(args)))
            if builtin is None:
                raise RefacFail(f"unknown refactoring {name}/{len(args)}")
            return builtin(self, ctx, *args)
        for p, v in zip(d.params, args):
            ctx.bindings = ctx.bindings.bind(p, v)
            if ctx.bindings is None:
                raise RefacFail("conflicting actual parameters")
        if isinstance(d, RuleDef):
            return self.run_combined(d, ctx)
        if isinstance(d, CompositeDef):
            return self.run_composite(d, ctx)
        if d.kind == "signature":
            return self.run_signature_scheme(d, ctx)
        if d.kind == "forward_dataflow":
            return self.run_forward_dataflow(d, ctx)
        return self.run_backward_dataflow(d, ctx)

    # -- targets ---------------------------------------------------------------

    def _as_node(self, v) -> t.Node:
        if isinstance(v, FunctionSem):
            return self.graph.node(v.form)
        if isinstance(v, t.Node):
            return v
        raise RefacFail(f"target is not a node: {v!r}")

    def resolve_targets(self, modifier, ctx: ExecContext) -> list[t.Node]:
        if modifier is None:
            return [self._as_node(ctx.this)]
        kind, expr = modifier
        try:
            value = eval_expr(expr, ctx.bindings, self.graph, self._as_node(ctx.this))
        except SemError as e:
            raise RefacFail(str(e)) from None
        values = value if isinstance(value, list) else [value]
        nodes = [self._as_node(v) for v in values]
        if kind == "IN":
            return [n for root in nodes for n in t.walk(root)]
        return nodes

    # -- matching and replacing ----------------------------------------------------

    def _unique(self, step: RuleStep, node: t.Node, seed: Bindings, role: str | None):
        """The one match of `step` at `node` that extends `seed` and satisfies
        the step's condition, with the bindings the condition adds.

        Without exactly one, this fails with the stage that rejected `node`,
        prefixed by `role`; a `role` of None asks only whether the step
        applies, and gets None."""
        candidates = match(step.matching, node, seed)
        survivors = []
        for cand in candidates:
            if step.condition is None:
                survivors.append(cand)
                continue
            try:
                ok, nb = eval_condition(step.condition, cand, self.graph, node)
            except SemError as e:
                raise RefacFail(str(e)) from None
            if ok:
                survivors.append(nb)
        if len(survivors) == 1:
            return survivors[0]
        if role is None:
            return None
        where = type(node).__name__
        if not candidates:
            why = f"pattern does not match {where}"
        elif not survivors:
            why = f"pattern matches {len(candidates)} ways at {where}, the condition rejects all"
        else:
            why = f"ambiguous match: {len(survivors)} solutions survive the conditions"
        raise RefacFail(role + why)

    def _replace(self, site: t.Node, out) -> t.Node:
        """Replace `site` by `out`, a node or an instantiated sequence, and
        return the new node.  A sequence of one element is that node; a
        longer one is spliced into a clause body or block, and wrapped in a
        `Block` anywhere else."""
        if isinstance(out, list):
            if len(out) == 1:
                out = out[0]
            else:
                parent = self.graph.parent(site.nid)
                seq = getattr(parent, "body", getattr(parent, "exprs", None))
                if not (isinstance(parent, (t.Clause, t.Block)) and any(x is site for x in seq)):
                    out = t.Block(out)
        if self._in_pattern(site) and not (isinstance(out, t.Node) and t.is_pattern(out)):
            raise RefacFail("the rewrite would put an expression in a pattern position")
        return self.graph.node(self.graph.txn_replace(site.nid, out))

    def _in_pattern(self, node: t.Node) -> bool:
        """`node` lies under a match, clause or generator pattern."""
        parent = self.graph.parent(node.nid)
        while parent is not None:
            if isinstance(parent, (t.Match, t.Generator)) and parent.pattern is node:
                return True
            if isinstance(parent, t.Clause) and any(p is node for p in parent.patterns):
                return True
            node, parent = parent, self.graph.parent(parent.nid)
        return False

    # -- rules -------------------------------------------------------------------------

    def apply_rule_at(self, step: RuleStep, target: t.Node, ctx: ExecContext, b: Bindings) -> t.Node:
        """Rewrite `target` by `step`, whose one surviving match there is `b`."""
        replacement = _instantiate(step.replacement, b)
        if isinstance(step.matching, t.ClausePat) and not (
            len(replacement) == 1 and isinstance(replacement[0], t.Clause)
        ):
            raise RefacFail("clause rule must produce a clause")
        result = self._replace(target, replacement)
        # commit condition-established bindings to the definition-wide scope
        for name in _cond_bound(step.condition):
            if name in b:
                nb = ctx.bindings.bind(name, b[name])
                if nb is None:
                    raise RefacFail(f"metavariable {name} bound inconsistently across targets")
                ctx.bindings = nb
        if isinstance(ctx.this, t.Node) and ctx.this is target:
            ctx.this = result
        return result

    def _attempt_step(self, step: RuleStep, ctx: ExecContext, targets: list[t.Node]) -> t.Node:
        if step.modifier and step.modifier[0] == "IN":
            applied = None
            for node in targets:
                if node.nid not in self.graph.objects:
                    continue  # consumed by an earlier rewrite
                b = self._unique(step, node, ctx.bindings, None)
                if b is not None:
                    applied = self.apply_rule_at(step, node, ctx, b)
            if applied is None:
                raise RefacFail("rule applies nowhere in the subtree")
            return applied
        if not targets:
            raise RefacFail("modifier selected no targets")
        result = None
        for node in targets:
            result = self.apply_rule_at(step, node, ctx, self._unique(step, node, ctx.bindings, ""))
        return result

    def run_combined(self, d: RuleDef, ctx: ExecContext) -> t.Node:
        # modifier expressions see the pre-state of the whole chain, so a
        # later step can still reach sites invalidated by an earlier rewrite
        # (e.g. call sites of a function whose clauses were just renamed)
        pre_targets: list[list[t.Node] | RefacFail] = []
        for _, step in d.steps:
            try:
                pre_targets.append(self.resolve_targets(step.modifier, ctx))
            except RefacFail as e:
                pre_targets.append(e)
        result = None
        failed: str | None = None
        for (op, step), targets in zip(d.steps, pre_targets):
            if op == "OR":
                if failed is None:
                    continue
            elif failed is not None:  # a THEN (or first) step after a failure
                raise RefacFail(failed)
            self.graph.txn_begin()
            try:
                if isinstance(targets, RefacFail):
                    raise targets
                result = self._attempt_step(step, ctx, targets)
            except RefacFail as e:
                self.graph.txn_rollback()
                failed = str(e)
                continue
            except BaseException:
                self.graph.txn_rollback()
                raise
            self.graph.txn_commit()
            failed = None
        if failed is not None:
            raise RefacFail(failed)
        return result

    # -- signature scheme --------------------------------------------------------

    def check_signature_contract(self, step: RuleStep) -> tuple[bool, str]:
        m, r = step.matching, step.replacement
        if not (isinstance(m, t.Call) and isinstance(m.callee, t.Metavar)):
            return False, "matching pattern must be Name(arguments)"
        names = []
        for a in m.args:
            if not isinstance(a, (t.Metavar, t.ListMetavar)):
                return False, "argument pattern must consist of metavariables"
            names.append(a.name)
        if len(set(names)) != len(names):
            return False, "argument pattern must be linear"
        if len(r) != 1 or not isinstance(r[0], t.Call):
            return False, "replacement must be a single application"
        repl = r[0]
        if not isinstance(repl.callee, (t.Metavar, t.Atom)):
            return False, "replacement callee must be a metavariable or an atom"
        used = set()
        try:
            goal = tuple(_shape(a, set(names), used) for a in repl.args)
        except ValueError as e:
            return False, str(e)
        if used != set(names):
            missing = sorted(set(names) - used)
            return False, f"argument(s) dropped by the replacement: {', '.join(missing)}"
        start = tuple(names)
        if not _derivable(start, goal, depth=6):
            return False, "replacement arguments not reachable by swap/duplicate/group"
        return True, ""

    def run_signature_scheme(self, d: SchemeDef, ctx: ExecContext) -> FunctionSem:
        ok, why = self.check_signature_contract(d.rule)
        if not ok:
            raise RefacFail(f"signature contract violation: {why}")
        fn = self._target_function(ctx.this)
        module = fn.module
        if self.graph.opaque_uses(module):
            raise RefacFail("opaque use of a function value in the module")
        refs = [(kind, self.graph.node(ref)) for kind, ref in fn.refs]
        clauses = [self.graph.node(c) for c in fn.clauses]

        def rewrite(call: t.Call) -> t.Call:
            # the contract makes the replacement a single application
            b = self._unique(d.rule, call, ctx.bindings, "signature rule: ")
            return _instantiate(d.rule.replacement, b)[0]

        # determine the new signature from a probe instantiation
        probe = rewrite(t.Call(t.Atom(fn.name), [t.Var(f"A{i}") for i in range(fn.arity)]))
        new_name, new_arity = _callee_name(probe), len(probe.args)
        new_key = (module, new_name, new_arity)
        if new_key in self.graph.functions and new_key != (module, fn.name, fn.arity):
            raise RefacFail(f"function {new_name}/{new_arity} already exists in {module}")

        for clause in clauses:
            out = rewrite(t.Call(t.Atom(clause.name), clause.patterns))
            self._replace(clause, t.Clause(_callee_name(out), out.args, clause.body))
        # last site first: a call nested in another's arguments is rewritten
        # before the enclosing call copies it
        for kind, site in reversed(refs):
            if kind == "export":
                self._replace(site, t.ExportEntry(new_name, new_arity))
            elif kind == "local":
                self._replace(site, rewrite(site))
            elif kind == "remote":
                out = rewrite(t.Call(t.Atom(site.name.name), site.args))
                new = t.RemoteCall(t.copy_fresh(site.module), t.Atom(_callee_name(out)), out.args)
                self._replace(site, new)
            elif kind == "apply":
                fun_atom, arglist = site.args
                out = rewrite(t.Call(t.Atom(fun_atom.name), self.graph.literal_list(arglist)))
                new = t.Call(t.Atom("apply"), [t.Atom(_callee_name(out)), t.mklist(out.args)])
                self._replace(site, new)
        new_fn = self.graph.functions.get(new_key)
        if new_fn is None:
            raise RefacFail("signature rewrite left no such function")
        if isinstance(ctx.this, FunctionSem):
            ctx.this = new_fn
        return new_fn

    def _target_function(self, target) -> FunctionSem:
        if isinstance(target, FunctionSem):
            # refresh: semantic nodes are rebuilt after every mutation, so a
            # held reference may be stale — the defining form is the identity
            for fn in self.graph.functions.values():
                if fn.form == target.form:
                    return fn
            raise RefacFail(f"function {target.name}/{target.arity} no longer exists")
        node = self._as_node(target)
        fn = self.graph.enclosing_function(node.nid)
        if fn is None:
            raise RefacFail("target is not inside a function")
        return fn

    # -- dataflow schemes ----------------------------------------------------------

    def run_forward_dataflow(self, d: SchemeDef, ctx: ExecContext) -> t.Node:
        target = self._as_node(ctx.this)
        def_b = self._unique(d.definition, target, ctx.bindings, "definition rule: ")
        flow = self.graph.flow_forward(target.nid)
        path = set(flow) | {target.nid}
        for nid in flow:
            extra = [s for s in self.graph.flow_sources(nid) if s not in path]
            if extra:
                raise RefacFail("a dataflow node has a data source besides the target")
        rewrites: list[tuple[t.Node, RuleStep, Bindings]] = []
        for nid in flow:
            node = self.graph.node(nid)
            if self._is_passthrough(node):
                continue
            found = self._find_reference_rewrite(d.references, node, def_b)
            if found is None:
                raise RefacFail("a reference site is not covered by any reference rule")
            rewrites.append(found)
        for site, step, b in rewrites:
            self._replace(site, _instantiate(step.replacement, b))
        ctx.this = self._replace(target, _instantiate(d.definition.replacement, def_b))
        return ctx.this

    def _is_passthrough(self, node: t.Node) -> bool:
        # binders and control/sequence expressions only forward the value
        if isinstance(node, t.Var):
            sem_id = self.graph.var_of.get(node.nid)
            if sem_id is not None and node.nid in self.graph.node(sem_id).binders:
                return True
            return False
        if isinstance(node, (t.Case, t.Block)):
            return True
        return t.is_pattern(node)

    def _find_reference_rewrite(self, references, node: t.Node, seed: Bindings):
        anc: t.Node | None = node
        while anc is not None and not isinstance(anc, (t.Clause, t.FunctionForm)):
            for refvar, step in references:
                seeded = seed.bind(refvar, anc if anc is node else node)
                if seeded is None:
                    continue
                b = self._unique(step, anc, seeded, None)
                if b is not None:
                    return (anc, step, b)
            parent = self.graph.parent(anc.nid)
            anc = parent if isinstance(parent, t.Node) else None
        return None

    def run_backward_dataflow(self, d: SchemeDef, ctx: ExecContext) -> t.Node:
        target = self._as_node(ctx.this)
        ref_match = None
        for refvar, step in d.references:
            seeded = ctx.bindings.bind(refvar, target)
            if seeded is None:
                continue
            b = self._unique(step, target, seeded, None)
            if b is not None:
                ref_match = (refvar, step, b)
                break
        if ref_match is None:
            raise RefacFail("no reference rule matches the target exactly once")
        refvar, ref_step, ref_b = ref_match
        sources = self.graph.flow_sources(target.nid)
        if not sources:
            raise RefacFail("target has no data sources")
        for src in sources:
            consumers = self.graph.flow_out.get(src, [])
            if any(c != target.nid for c in consumers):
                raise RefacFail("a data source flows somewhere besides the target")
        # metavariables bound by the definition matching but unused in its
        # replacement are global: they must unify across all sources
        global_names = _pattern_metavars(d.definition.matching) - _pattern_metavars(
            d.definition.replacement
        )
        shared = ref_b
        per_source: list[tuple[t.Node, Bindings]] = []
        for src in sources:
            node = self.graph.node(src)
            b = self._unique(d.definition, node, shared, "definition rule: ")
            for name in global_names:
                if name in b:
                    shared = shared.bind(name, b[name])
                    if shared is None:
                        raise RefacFail(f"sources disagree on metavariable {name}")
            per_source.append((node, b))
        # capture check: moved subtrees may only use names visible at the target
        visible = self.graph.scope_names(target.nid)
        for name in global_names:
            if name in shared and isinstance(shared[name], t.Node):
                free = {
                    n.name
                    for n in t.walk(shared[name])
                    if isinstance(n, t.Var) and n.name != "_"
                }
                if not free <= visible:
                    raise RefacFail(
                        "moved expression references names bound inside the target"
                    )
        # a binder is no value to hoist out of: `Y = [X | Xs]` must not
        # become `[Y | Xs] = X`
        if any(self._in_pattern(n) for n in [target] + [n for n, _ in per_source]):
            raise RefacFail("the target or a data source lies in a pattern position")
        for node, b in per_source:
            self._replace(node, _instantiate(d.definition.replacement, b.merge(shared) or b))
        final_b = shared.bind(refvar, self.graph.node(target.nid))
        ctx.this = self._replace(target, _instantiate(ref_step.replacement, final_b))
        return ctx.this

    # -- composites and selectors ---------------------------------------------------

    def run_selector(self, d: SelectorDef, node: t.Node):
        targets: list[t.Node]
        if isinstance(d.matching, t.ClausePat) and isinstance(node, t.FunctionForm):
            targets = list(node.clauses)
        else:
            targets = [node]
        survivors = []
        for n in targets:
            survivors.extend(match(d.matching, n, Bindings()))
        if len(survivors) != 1:
            raise RefacFail(f"selector {d.name} needs exactly one match, got {len(survivors)}")
        b = survivors[0]
        if d.returns not in b:
            raise RefacFail(f"selector {d.name} never bound {d.returns}")
        return b[d.returns]

    def run_composite(self, d: CompositeDef, ctx: ExecContext):
        result = None
        for stmt in d.body:
            value = self._eval_composite_expr(stmt.call, ctx)
            if stmt.var is not None:
                ctx.locals[stmt.var] = value
            result = value
        return result if result is not None else ctx.this

    def _eval_composite_expr(self, c: CondExpr, ctx: ExecContext):
        """The value of a composite's statement or of an argument in it.  An
        application of a refactoring or selector runs it: at its receiver,
        at each element of a receiver list, or at THIS without a receiver."""
        if isinstance(c, CVar) and c.name in ctx.locals:
            return ctx.locals[c.name]
        if isinstance(c, CThis):
            return ctx.this
        if isinstance(c, CInvoke) or (
            isinstance(c, CCall)
            and (self.lookup(c.name, len(c.args)) or (c.name, len(c.args)) in BUILTINS)
        ):
            recv = self._eval_composite_expr(c.recv, ctx) if isinstance(c, CInvoke) else ctx.this
            args = [self._eval_composite_expr(a, ctx) for a in c.args]
            result = None
            for target in recv if isinstance(recv, list) else [recv]:
                result = self._call(c.name, target, args)
            # a refactoring of THIS moves THIS to its result; a selector does not
            if recv is ctx.this and not isinstance(self.lookup(c.name, len(args)), SelectorDef):
                ctx.this = result
            return result
        try:
            if isinstance(c, CCall):
                args = [self._eval_composite_expr(a, ctx) for a in c.args]
                return call_semantic(c.name, args, self.graph)
            this_node = self._as_node(ctx.this) if isinstance(ctx.this, t.Node) else ctx.this
            return eval_expr(c, ctx.bindings, self.graph, this_node)
        except SemError as e:
            raise RefacFail(str(e)) from None

    # -- built-in helper refactorings ---------------------------------------------------

    def _copy_function(self, ctx: ExecContext, new_name) -> FunctionSem:
        fn = self._target_function(ctx.this)
        name = new_name if isinstance(new_name, str) else _callee_name(new_name)
        if (fn.module, name, fn.arity) in self.graph.functions:
            raise RefacFail(f"function {name}/{fn.arity} already exists")
        form = self.graph.node(fn.form)
        dup = t.copy_fresh(form)
        for clause in dup.clauses:
            clause.name = name
        self.graph.txn_insert_form(fn.module, dup, form.nid)
        return self.graph.functions[(fn.module, name, fn.arity)]

    def _add_parameter(self, ctx: ExecContext) -> FunctionSem:
        fn = self._target_function(ctx.this)
        form = self.graph.node(fn.form)
        taken = set()
        for clause in form.clauses:
            for n in t.walk(clause):
                if isinstance(n, t.Var):
                    taken.add(n.name)
        pname = fresh_name(taken)
        for clause in list(form.clauses):
            self._replace(clause, t.Clause(clause.name, clause.patterns + [t.Var(pname)], clause.body))
        return self.graph.functions[(fn.module, fn.name, fn.arity + 1)]

    def _fold_entire_function(self, ctx: ExecContext, orig, actual) -> FunctionSem:
        copy_fn = self._target_function(ctx.this)
        orig_fn = self._target_function(orig)
        copy_form = self.graph.node(copy_fn.form)
        orig_form = self.graph.node(orig_fn.form)
        actual_node = self._as_node(actual)
        if len(copy_form.clauses) != len(orig_form.clauses):
            raise RefacFail("fold: clause counts differ")
        for cc, oc in zip(copy_form.clauses, orig_form.clauses):
            if not all(t.struct_eq(a, b) for a, b in zip(cc.body, oc.body)) or len(
                cc.body
            ) != len(oc.body):
                raise RefacFail("fold: function bodies are not identical")
        for oc in list(orig_form.clauses):
            call_args = [t.copy_fresh(p) for p in oc.patterns] + [t.copy_fresh(actual_node)]
            call = t.Call(t.Atom(copy_fn.name), call_args)
            self._replace(oc, t.Clause(oc.name, oc.patterns, [call]))
        return self.graph.functions[(orig_fn.module, orig_fn.name, orig_fn.arity)]

    def _replace_val_by_var(self, ctx: ExecContext, var) -> t.Node:
        value = self._as_node(ctx.this)
        var_node = self._as_node(var)
        if not isinstance(var_node, t.Var):
            raise RefacFail("replace_val_by_var expects a variable")
        # the variable's scope identifies the function to rewrite in
        sites = []
        for fn in self.graph.functions.values():
            form = self.graph.node(fn.form)
            if not any(
                isinstance(n, t.Var) and n.name == var_node.name
                for c in form.clauses
                for p in c.patterns
                for n in t.walk(p)
            ):
                continue
            for clause in form.clauses:
                for body_expr in clause.body:
                    for n in t.walk(body_expr):
                        if t.struct_eq(n, value):
                            sites.append(n)
        if len(sites) != 1:
            raise RefacFail(
                f"replace_val_by_var needs exactly one occurrence, found {len(sites)}"
            )
        return self._replace(sites[0], t.Var(var_node.name))


# The built-in helper refactorings, by (name, arity): each runs at ctx.this
# with its arguments.  The engine and `validate` both read this table.
BUILTINS = {
    ("copy_function", 1): Engine._copy_function,
    ("add_parameter", 0): Engine._add_parameter,
    ("fold_entire_function", 2): Engine._fold_entire_function,
    ("replace_val_by_var", 1): Engine._replace_val_by_var,
}


# --- signature contract helpers ----------------------------------------------


def _callee_name(call: t.Call) -> str:
    if isinstance(call.callee, t.Atom):
        return call.callee.name
    if isinstance(call.callee, t.Var):
        return call.callee.name
    raise RefacFail("application callee is not a name")


def _shape(node: t.Node, names: set[str], used: set[str]):
    """Replacement argument as a nested structure over matching metavariables."""
    if isinstance(node, (t.Metavar, t.ListMetavar)):
        if node.name not in names:
            raise ValueError(f"replacement argument uses foreign metavariable {node.name}")
        used.add(node.name)
        return node.name
    if isinstance(node, t.Tuple):
        return ("tuple", tuple(_shape(e, names, used) for e in node.elems))
    if isinstance(node, (t.Cons, t.Nil)):
        elems, tail = t.unlist(node)
        if tail is not None:
            raise ValueError("replacement argument list must be proper")
        return ("list", tuple(_shape(e, names, used) for e in elems))
    raise ValueError("replacement arguments must be metavariables, tuples or lists")


def _leaf_names(shape, acc: set) -> None:
    if isinstance(shape, str):
        acc.add(shape)
    else:
        for e in shape[1]:
            _leaf_names(e, acc)


def _derivable(start: tuple, goal: tuple, depth: int) -> bool:
    """BFS over swap / duplicate / group operations on the argument vector."""
    if start == goal:
        return True
    # none of the operations can remove a name, so a goal missing one (or
    # using a foreign one) is unreachable at any depth
    goal_names: set = set()
    _leaf_names(("tuple", goal), goal_names)
    if goal_names != set(start):
        return False
    seen = {start}
    frontier = deque([(start, 0)])
    while frontier:
        state, d = frontier.popleft()
        if d >= depth:
            continue
        for nxt in _successors(state):
            if nxt == goal:
                return True
            if nxt not in seen and len(nxt) <= len(goal) + depth:
                seen.add(nxt)
                frontier.append((nxt, d + 1))
    return False


def _successors(state: tuple):
    n = len(state)
    for i in range(n):
        for j in range(i + 1, n):  # swap two elements
            s = list(state)
            s[i], s[j] = s[j], s[i]
            yield tuple(s)
    for i in range(n):  # duplicate an element
        yield state[: i + 1] + (state[i],) + state[i + 1 :]
    for i in range(n):  # group a consecutive run into a tuple or list
        for j in range(i + 1, n + 1):
            for kind in ("tuple", "list"):
                yield state[:i] + ((kind, state[i:j]),) + state[j:]


# --- static validation ------------------------------------------------------


def _pattern_metavars(p) -> set[str]:
    names = set()
    nodes = p if isinstance(p, list) else [p]
    for root in nodes:
        for n in t.walk(root):
            if isinstance(n, (t.Metavar, t.ListMetavar)):
                names.add(n.name)
    return names


def _cond_bound(c: CondExpr | None) -> list[str]:
    """Names bound by `=` conditions and by binding semantic functions
    (`fresh(M)`), left-to-right."""
    if c is None:
        return []
    if isinstance(c, CBind):
        return [c.name] + _cond_bound(c.expr)
    if isinstance(c, (CAnd, COr)):
        return _cond_bound(c.left) + _cond_bound(c.right)
    if isinstance(c, CNot):
        return _cond_bound(c.arg)
    if isinstance(c, CCall):
        sem = SEMANTIC.get(c.name)
        if sem is not None and sem.binds and len(c.args) == 1 and isinstance(c.args[0], CVar):
            return [c.args[0].name]
        return [n for a in c.args for n in _cond_bound(a)]
    return []


def _unbound_uses(c: CondExpr, bound: set[str]) -> list[str]:
    """The metavariables `c` reads, left to right, before `bound` or an
    earlier part of `c` binds them; what `c` binds is added to `bound`."""
    if isinstance(c, CVar):
        return [] if c.name in bound else [c.name]
    if isinstance(c, CCall) and c.name in SEMANTIC and SEMANTIC[c.name].binds:
        bound.update(_cond_bound(c))  # `fresh(M)` binds M
        return []
    if isinstance(c, (CAnd, COr)):
        parts = [c.left, c.right]
    elif isinstance(c, CNot):
        parts = [c.arg]
    elif isinstance(c, CBind):
        parts = [c.expr]
    elif isinstance(c, CInvoke):
        parts = [c.recv, *c.args]
    else:
        parts = c.args if isinstance(c, CCall) else []
    out = [name for p in parts for name in _unbound_uses(p, bound)]
    if isinstance(c, CBind):
        bound.add(c.name)
    return out


def _faults(c: CondExpr, refacs: set | None, conjunct: bool) -> list[str]:
    """What evaluating `c` would reject.  `refacs` holds the (name, arity)
    keys that a composite may apply; it is None in a condition or a
    modifier, which apply none.  A condition's conjuncts may combine with
    AND, OR and NOT, bind with `=` or call a binding function such as
    `fresh`; everything else, and any argument, must be a value."""
    if conjunct and isinstance(c, (CAnd, COr)):
        return _faults(c.left, refacs, True) + _faults(c.right, refacs, True)
    if conjunct and isinstance(c, CNot):
        return _faults(c.arg, refacs, True)
    if conjunct and isinstance(c, CBind):
        return _faults(c.expr, refacs, False)
    if isinstance(c, (CAnd, COr, CNot, CBind)):
        return [f"cannot evaluate {type(c).__name__} as a value"]
    if isinstance(c, CInvoke) or (
        isinstance(c, CCall) and refacs is not None and (c.name, len(c.args)) in refacs
    ):
        if refacs is None:
            return [f"refactoring invocation .{c.name}(..) is not allowed"]
        known = (c.name, len(c.args)) in refacs
        out = [] if known else [f"unknown refactoring {c.name}/{len(c.args)}"]
        parts = [c.recv, *c.args] if isinstance(c, CInvoke) else c.args
        return out + [f for a in parts for f in _faults(a, refacs, False)]
    if isinstance(c, CCall):
        try:
            sem = semantic(c.name, len(c.args))
        except SemError as e:
            return [str(e)]
        if sem.binds and not conjunct:
            return [f"{c.name} binds a metavariable and has no value"]
        if sem.binds and not isinstance(c.args[0], CVar):
            return [f"{c.name} expects a metavariable argument"]
        return [f for a in c.args for f in _faults(a, refacs, False)]
    return []


_SEQ_FIELDS = {
    (t.Call, "args"),
    (t.RemoteCall, "args"),
    (t.Tuple, "elems"),
    (t.Block, "exprs"),
    (t.Clause, "patterns"),
    (t.Clause, "body"),
    (t.ClausePat, "patterns"),
    (t.ClausePat, "body"),
    (t.Cons, "head"),
    (t.ListComp, "qualifiers"),
    (t.Filter, "expr"),
}


def _listmeta_misplacements(p) -> list[str]:
    bad: list[str] = []
    roots = p if isinstance(p, list) else [p]

    def visit(node, ok_here: bool):
        if isinstance(node, t.ListMetavar) and not ok_here:
            bad.append(node.name)
        for name in t.struct_fields(type(node)):
            v = getattr(node, name)
            legal = (type(node), name) in _SEQ_FIELDS
            if isinstance(v, t.Node):
                visit(v, legal)
            elif isinstance(v, list):
                for x in v:
                    if isinstance(x, t.Node):
                        visit(x, legal)

    for root in roots:
        visit(root, True)  # a root in a sequence position is fine
    return bad


def _rule_steps(d):
    if isinstance(d, RuleDef):
        return [s for _, s in d.steps]
    if isinstance(d, SchemeDef):
        if d.kind == "signature":
            return [d.rule]
        return [d.definition] + [s for _, s in d.references]
    return []


def validate(defs: list) -> list[tuple[object, str]]:
    """The faults of `defs` that a run would meet, as (definition, message)
    pairs; each message starts with the definition's name.  A set that
    validates clean names only semantic functions, definitions and builtins
    that exist, with their arities, and reads and builds only bound
    metavariables."""
    diags: list[tuple[object, str]] = []
    seen: set[tuple[str, int]] = set()
    composites = {d.name: d for d in defs if isinstance(d, CompositeDef)}
    refacs = {(d.name, len(d.params)) for d in defs} | set(BUILTINS)

    for d in defs:
        msgs: list[str] = []
        key = (d.name, len(d.params))
        if key in seen:
            msgs.append(f"duplicate definition of {d.name}/{len(d.params)}")
        seen.add(key)

        if isinstance(d, SchemeDef) and d.kind != "signature":
            for refvar, step in d.references:
                in_match = refvar in _pattern_metavars(step.matching)
                in_repl = refvar in _pattern_metavars(step.replacement)
                if not (in_match and in_repl):
                    msgs.append(
                        f"reference metavariable {refvar} must occur on both sides of its rule"
                    )
        # `M = e` on a bound M compares, so a name may be bound more than once
        bound = set(d.params) | {"THIS"}
        for step in _rule_steps(d):
            bound |= _pattern_metavars(step.matching)
            unbound = _unbound_uses(step.condition, bound) if step.condition else []
            for name in sorted(_pattern_metavars(step.replacement) - bound):
                msgs.append(f"{name} unbindable in replacement")
            for p, where in ((step.matching, "matching"), (step.replacement, "replacement")):
                for name in _listmeta_misplacements(p):
                    msgs.append(f"list metavariable {name}.. in a non-sequence position in {where}")
            if step.condition is not None:
                msgs.extend(f"condition: {f}" for f in _faults(step.condition, None, True))
            msgs.extend(f"condition: unbound metavariable {name}" for name in unbound)
            if step.modifier is not None:
                # `run_combined` resolves every modifier before the first step
                kind, expr = step.modifier
                msgs.extend(f"{kind} modifier: {f}" for f in _faults(expr, None, False))
                msgs.extend(
                    f"{kind} modifier: {name} is not a parameter"
                    for name in _unbound_uses(expr, set(d.params))
                )

        if isinstance(d, SelectorDef):
            if d.returns not in _pattern_metavars(d.matching) | set(d.params):
                msgs.append(f"RETURN {d.returns} is never bound")
            for name in _listmeta_misplacements(d.matching):
                msgs.append(f"list metavariable {name}.. in a non-sequence position")

        if isinstance(d, CompositeDef):
            assigned = set(d.params)
            for stmt in d.body:
                msgs.extend(_faults(stmt.call, refacs, False))
                unassigned = _unbound_uses(stmt.call, assigned)
                msgs.extend(f"{name} is used before it is assigned" for name in unassigned)
                if stmt.var is not None:
                    assigned.add(stmt.var)
        diags.extend((d, f"{d.name}: {m}") for m in msgs)

    # composite recursion (direct or mutual)
    for name, d in composites.items():
        stack, visited = [name], set()
        while stack:
            cur = stack.pop()
            for callee in {s.call.name for s in composites[cur].body} & composites.keys():
                if callee == name:
                    diags.append((d, f"{name}: recursive composite definition"))
                    stack = []
                    break
                if callee not in visited:
                    visited.add(callee)
                    stack.append(callee)
    return diags
