"""Semantic program graph over parsed mini-Erlang modules.

The graph indexes every syntactic node by id and adds semantic nodes for
modules, functions and variables, together with reference, defines and
dataflow edges.

Maintenance is proportional to the edit.  The node indexes (`objects`,
`parents`, `node_module`) are updated for the removed and inserted subtrees
only.  The semantic indexes (everything `rebuild()` derives: scopes,
variables, dataflow, functions, references, purity, ordering) are dropped by
an edit and recomputed, all at once by `rebuild()`, on the first read after
it.

Mutation happens only inside transactions.  Every mutation of the trees and
of the pending source edits appends its old value to an undo log;
`txn_begin` marks the log, and rollback replays it back to the mark, so the
trees hold the original node objects again and print byte-identically.

Scoping follows the conservative subset rules: single assignment, bindings
flow forward through a clause, fun parameters open a fresh binder, and a
variable bound in only some case branches is unbound after the case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import tree as t
from .printer import splice

NodeRef = int

BUILTIN_PURE = {("atom_to_list", 1), ("length", 1)}
REMOTE_PURE = {("lists", "map", 2)}


class GraphError(Exception):
    pass


@dataclass(eq=False)
class ModuleSem:
    sid: int
    name: str


@dataclass(eq=False)
class FunctionSem:
    sid: int
    module: str
    name: str
    arity: int
    pure: bool = True
    form: NodeRef = 0
    clauses: list[NodeRef] = field(default_factory=list)
    refs: list[tuple[str, NodeRef]] = field(default_factory=list)


@dataclass(eq=False)
class VarSem:
    sid: int
    name: str
    binders: list[NodeRef] = field(default_factory=list)
    occurrences: list[NodeRef] = field(default_factory=list)


class _SemanticIndex:
    """A semantic index of `SemanticGraph`, computed by `rebuild()`.

    `rebuild()` stores the index as an instance attribute, which shadows this
    (non-data) descriptor; an edit deletes the attribute, so the next read
    lands here and runs `rebuild()` once for every index.
    """

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, graph, owner=None):
        if graph is None:
            return self
        graph.rebuild()
        return graph.__dict__[self.name]


class SemanticGraph:
    order = _SemanticIndex()
    scope_in = _SemanticIndex()
    var_of = _SemanticIndex()
    unbound = _SemanticIndex()
    flow_out = _SemanticIndex()
    flow_in = _SemanticIndex()
    functions = _SemanticIndex()
    module_sems = _SemanticIndex()
    opaque = _SemanticIndex()
    sems = _SemanticIndex()
    _fun_names = _SemanticIndex()

    def __init__(self, modules: list[t.SourceModule]):
        self.modules = modules
        self.edits: dict[str, list[list]] = {m.name: [] for m in modules}
        self._pending: dict[int, list] = {}  # replacement root nid -> its edit
        self._undo: list[tuple] = []  # (object, field/index/slice, old value)
        self._marks: list[int] = []  # undo-log length at each open txn_begin
        self._sem_ids: dict = {}
        self._detached: dict[int, t.Node] = {}
        self.rebuild()

    # -- indexing ------------------------------------------------------------

    def rebuild(self) -> None:
        """Recompute every index from the module trees."""
        self.objects: dict[int, t.Node] = {}
        self.parents: dict[int, int] = {}
        self.order: dict[int, int] = {}
        self.node_module: dict[int, str] = {}
        self.scope_in: dict[int, frozenset[str]] = {}
        self.var_of: dict[int, int] = {}  # Var occurrence nid -> VarSem sid
        self.unbound: set[int] = set()
        self.flow_out: dict[int, list[int]] = {}
        self.flow_in: dict[int, list[int]] = {}
        self.functions: dict[tuple[str, str, int], FunctionSem] = {}
        self.module_sems: dict[str, ModuleSem] = {}
        self.opaque: dict[str, list[int]] = {m.name: [] for m in self.modules}
        self.sems: dict[int, ModuleSem | FunctionSem | VarSem] = {}
        self._fun_names: dict[tuple[str, str, int], set[str]] = {}

        counter = 0
        for mod in self.modules:
            seen: set[tuple[str, int]] = set()
            self.module_sems[mod.name] = ModuleSem(self._sem_id(("mod", mod.name)), mod.name)
            self.sems[self.module_sems[mod.name].sid] = self.module_sems[mod.name]
            for node in t.walk(mod):
                self.objects[node.nid] = node
                self.node_module[node.nid] = mod.name
                self.order[node.nid] = counter
                counter += 1
                for child in t.children(node):
                    self.parents[child.nid] = node.nid
            for form in mod.forms:
                key = (form.name, form.arity)
                if key in seen:
                    raise GraphError(
                        f"duplicate definition of {form.name}/{form.arity} in module {mod.name}"
                    )
                seen.add(key)
                fkey = (mod.name, form.name, form.arity)
                fn = FunctionSem(self._sem_id(("fun",) + fkey), mod.name, form.name, form.arity)
                fn.form = form.nid
                fn.clauses = [c.nid for c in form.clauses]
                self.functions[fkey] = fn
                self.sems[fn.sid] = fn
        for mod in self.modules:
            for form in mod.forms:
                self._analyze_form(mod, form)
        self._collect_refs()
        self._compute_purity()
        for nid, obj in self._detached.items():
            self.objects.setdefault(nid, obj)

    def _invalidate(self) -> None:
        """Drop the semantic indexes; the next read of one rebuilds them all."""
        for name, attr in vars(SemanticGraph).items():
            if isinstance(attr, _SemanticIndex):
                self.__dict__.pop(name, None)

    def _unindex(self, root: t.Node) -> None:
        for n in t.walk(root):
            self.parents.pop(n.nid, None)
            self.node_module.pop(n.nid, None)
            if n.nid not in self._detached:
                self.objects.pop(n.nid, None)

    def _index(self, root: t.Node, parent: t.Node, module_name: str) -> None:
        self.parents[root.nid] = parent.nid
        for n in t.walk(root):
            self.objects[n.nid] = n
            self.node_module[n.nid] = module_name
            for child in t.children(n):
                self.parents[child.nid] = n.nid

    def _sem_id(self, key) -> int:
        if key not in self._sem_ids:
            self._sem_ids[key] = t.new_id()
        return self._sem_ids[key]

    # -- scoping and dataflow ------------------------------------------------

    def _analyze_form(self, mod: t.SourceModule, form: t.FunctionForm) -> None:
        fkey = (mod.name, form.name, form.arity)
        all_names: set[str] = set()
        for clause in form.clauses:
            env: dict[str, VarSem] = {}
            for p in clause.patterns:
                self._bind_pattern(p, env, fkey)
            self._visit_seq(clause.body, env, fkey)
            self._seq_flow(clause.body, None)
            all_names.update(self._names_under(clause))
        self._fun_names[fkey] = all_names

    def _names_under(self, node: t.Node) -> set[str]:
        return {n.name for n in t.walk(node) if isinstance(n, t.Var) and n.name != "_"}

    def _var_sem(self, fkey, name: str, binder: t.Var | None, anchor: int) -> VarSem:
        sid = self._sem_id(("var", fkey, name, anchor))
        sem = self.sems.get(sid)
        if sem is None:
            sem = VarSem(sid, name)
            self.sems[sid] = sem
        return sem

    def _bind_pattern(self, pat: t.Expr, env: dict[str, VarSem], fkey, fresh: bool = False) -> None:
        self._record_scope(pat, env)
        for n in t.walk(pat):
            if isinstance(n, t.Var) and n.name != "_":
                if n.name in env and not fresh:
                    sem = env[n.name]
                    sem.occurrences.append(n.nid)
                    self.var_of[n.nid] = sem.sid
                else:
                    sem = self._var_sem(fkey, n.name, n, n.nid)
                    sem.binders.append(n.nid)
                    self.var_of[n.nid] = sem.sid
                    env[n.name] = sem

    def _record_scope(self, node: t.Node, env: dict[str, VarSem]) -> None:
        names = frozenset(env)
        for n in t.walk(node):
            self.scope_in.setdefault(n.nid, names)

    def _visit_seq(self, exprs: list[t.Expr], env: dict[str, VarSem], fkey) -> None:
        for e in exprs:
            self._visit(e, env, fkey)

    def _visit(self, e: t.Expr, env: dict[str, VarSem], fkey) -> None:
        # a generic node's last child is visited in this same frame, so a
        # long cons chain (the tail of a list literal) does not recurse
        while True:
            self.scope_in.setdefault(e.nid, frozenset(env))
            if isinstance(e, t.Var):
                if e.name == "_":
                    return
                if e.name in env:
                    sem = env[e.name]
                    sem.occurrences.append(e.nid)
                    self.var_of[e.nid] = sem.sid
                    for b in sem.binders:
                        self._flow_edge(b, e.nid)
                else:
                    self.unbound.add(e.nid)
                return
            if isinstance(e, t.Match):
                self._visit(e.expr, env, fkey)
                self._bind_pattern(e.pattern, env, fkey)
                self._flow_edge(e.expr.nid, e.pattern.nid)
                return
            if isinstance(e, t.Block):
                self._visit_seq(e.exprs, env, fkey)
                self._seq_flow(e.exprs, e)
                return
            if isinstance(e, t.Case):
                self._visit(e.scrutinee, env, fkey)
                branch_envs: list[dict[str, VarSem]] = []
                for clause in e.clauses:
                    benv = dict(env)
                    self._bind_pattern(clause.patterns[0], benv, fkey)
                    self._flow_edge(e.scrutinee.nid, clause.patterns[0].nid)
                    self._visit_seq(clause.body, benv, fkey)
                    self._seq_flow(clause.body, None)
                    self._flow_edge(clause.body[-1].nid, e.nid)
                    branch_envs.append(benv)
                common = set.intersection(*(set(b) for b in branch_envs)) - set(env)
                for name in sorted(common):
                    merged = self._var_sem(fkey, name, None, e.nid)
                    for benv in branch_envs:
                        for b in benv[name].binders:
                            if b not in merged.binders:
                                merged.binders.append(b)
                    env[name] = merged
                return
            if isinstance(e, t.Fun):
                for clause in e.clauses:
                    cenv = dict(env)
                    for p in clause.patterns:
                        self._bind_pattern(p, cenv, fkey, fresh=True)
                    self._visit_seq(clause.body, cenv, fkey)
                    self._seq_flow(clause.body, None)
                return
            if isinstance(e, t.ListComp):
                lenv = dict(env)
                for q in e.qualifiers:
                    if isinstance(q, t.Generator):
                        self._visit(q.source, lenv, fkey)
                        self._bind_pattern(q.pattern, lenv, fkey)
                    else:
                        self._visit(q.expr, lenv, fkey)
                self._visit(e.head, lenv, fkey)
                return
            kids = t.children(e)
            last = kids.pop() if kids and isinstance(kids[-1], t.Expr) else None
            for child in kids:
                if isinstance(child, t.Expr):
                    self._visit(child, env, fkey)
                else:
                    self._visit_other(child, env, fkey)
            if last is None:
                return
            e = last

    def _visit_other(self, node: t.Node, env, fkey) -> None:
        for child in t.children(node):
            if isinstance(child, t.Expr):
                self._visit(child, env, fkey)
            else:
                self._visit_other(child, env, fkey)

    def _seq_flow(self, exprs: list[t.Expr], block: t.Block | None) -> None:
        if block is not None and exprs:
            self._flow_edge(exprs[-1].nid, block.nid)

    def _flow_edge(self, src: int, dst: int) -> None:
        self.flow_out.setdefault(src, [])
        if dst not in self.flow_out[src]:
            self.flow_out[src].append(dst)
        self.flow_in.setdefault(dst, [])
        if src not in self.flow_in[dst]:
            self.flow_in[dst].append(src)

    # -- references and purity ----------------------------------------------

    @staticmethod
    def literal_list(node: t.Expr) -> list[t.Expr] | None:
        elems, tail = t.unlist(node)
        if isinstance(node, (t.Cons, t.Nil)) and tail is None:
            return elems
        return None

    def _collect_refs(self) -> None:
        for mod in self.modules:
            for entry in mod.exports:
                fn = self.functions.get((mod.name, entry.name, entry.arity))
                if fn is not None:
                    fn.refs.append(("export", entry.nid))
            for form in mod.forms:
                for node in t.walk(form):
                    self._classify_call(mod, node)
            for fn in self.functions.values():
                fn.refs.sort(key=lambda r: self.order.get(r[1], -1))

    def _classify_call(self, mod: t.SourceModule, node: t.Node) -> None:
        if isinstance(node, t.Call):
            callee = node.callee
            if isinstance(callee, t.Atom):
                if callee.name == "apply" and len(node.args) == 2:
                    target, arglist = node.args
                    elems = self.literal_list(arglist)
                    if isinstance(target, t.Atom) and elems is not None:
                        fn = self.functions.get((mod.name, target.name, len(elems)))
                        if fn is not None:
                            fn.refs.append(("apply", node.nid))
                            return
                    if not isinstance(target, t.Atom):
                        self.opaque[mod.name].append(node.nid)
                        return
                fn = self.functions.get((mod.name, callee.name, len(node.args)))
                if fn is not None:
                    fn.refs.append(("local", node.nid))
            elif isinstance(callee, t.Var):
                self.opaque[mod.name].append(node.nid)
        elif isinstance(node, t.RemoteCall):
            if (
                isinstance(node.module, t.Atom)
                and node.module.name == mod.name
                and isinstance(node.name, t.Atom)
            ):
                fn = self.functions.get((mod.name, node.name.name, len(node.args)))
                if fn is not None:
                    fn.refs.append(("remote", node.nid))

    def _compute_purity(self) -> None:
        impure: set[tuple[str, str, int]] = set()
        deps: dict[tuple[str, str, int], set[tuple[str, str, int]]] = {}
        for key, fn in self.functions.items():
            form = self.objects[fn.form]
            d: set[tuple[str, str, int]] = set()
            if not self._expr_calls_pure(form, fn.module, d):
                impure.add(key)
            deps[key] = d
        changed = True
        while changed:
            changed = False
            for key, d in deps.items():
                if key not in impure and d & impure:
                    impure.add(key)
                    changed = True
        for key, fn in self.functions.items():
            fn.pure = key not in impure

    def _expr_calls_pure(self, root: t.Node, module: str, deps: set) -> bool:
        ok = True
        for node in t.walk(root):
            if isinstance(node, t.Call):
                callee = node.callee
                if isinstance(callee, t.Atom):
                    key = (module, callee.name, len(node.args))
                    if callee.name == "apply" and len(node.args) == 2:
                        target, arglist = node.args
                        elems = self.literal_list(arglist)
                        if isinstance(target, t.Atom) and elems is not None:
                            deps.add((module, target.name, len(elems)))
                            if (module, target.name, len(elems)) not in self.functions and (
                                target.name,
                                len(elems),
                            ) not in BUILTIN_PURE:
                                ok = False
                        else:
                            ok = False
                    elif key in self.functions:
                        deps.add(key)
                    elif (callee.name, len(node.args)) in BUILTIN_PURE:
                        pass
                    else:
                        ok = False
                elif isinstance(callee, t.Fun):
                    pass  # literal fun application; body is walked anyway
                else:
                    ok = False
            elif isinstance(node, t.RemoteCall):
                if isinstance(node.module, t.Atom) and isinstance(node.name, t.Atom):
                    if node.module.name == module:
                        deps.add((module, node.name.name, len(node.args)))
                    elif (node.module.name, node.name.name, len(node.args)) in REMOTE_PURE:
                        pass
                    else:
                        ok = False
                else:
                    ok = False
        return ok

    # -- queries -------------------------------------------------------------

    def node(self, ref: NodeRef):
        obj = self.objects.get(ref)
        if obj is None:
            obj = self.sems.get(ref)
        if obj is None:
            raise GraphError(f"dangling node reference {ref}")
        return obj

    def module(self, name: str) -> t.SourceModule:
        for m in self.modules:
            if m.name == name:
                return m
        raise GraphError(f"unknown module {name}")

    def parent(self, ref: NodeRef):
        pid = self.parents.get(ref)
        return None if pid is None else self.objects[pid]

    def enclosing_function(self, ref: NodeRef) -> FunctionSem | None:
        cur = ref
        while cur is not None:
            obj = self.objects.get(cur)
            if isinstance(obj, t.FunctionForm):
                return self.functions[(self.node_module[cur], obj.name, obj.arity)]
            cur = self.parents.get(cur)
        return None

    def lookup_at(self, module_name: str, line: int, col: int) -> NodeRef:
        mod = self.module(module_name)
        text = mod.text.decode("utf-8")
        lines = text.split("\n")
        if line < 1 or line > len(lines):
            raise GraphError(f"line {line} out of range")
        offset = sum(len(ln) + 1 for ln in lines[: line - 1]) + (col - 1)
        best: t.Node | None = None
        for node in t.walk(mod):
            if not isinstance(node, t.Expr) or node.span is None:
                continue
            a, b = node.span
            if a <= offset < b:
                if best is None or (b - a) < (best.span[1] - best.span[0]):
                    best = node
        if best is None:
            raise GraphError(f"no expression at {module_name}:{line}:{col}")
        return best.nid

    def function_refs(self, fref: NodeRef) -> list[tuple[str, NodeRef]]:
        fn = self.node(fref)
        if not isinstance(fn, FunctionSem):
            raise GraphError("function_refs expects a function semantic node")
        return list(fn.refs)

    def scope_names(self, ref: NodeRef) -> set[str]:
        names = self.scope_in.get(ref)
        if names is None:
            return set()
        return set(names)

    def function_bound_names(self, ref: NodeRef) -> set[str]:
        fn = self.enclosing_function(ref)
        if fn is None:
            return set()
        return set(self._fun_names.get((fn.module, fn.name, fn.arity), set()))

    def flow_forward(self, ref: NodeRef) -> list[NodeRef]:
        seen: list[int] = []
        stack = list(self.flow_out.get(ref, []))
        while stack:
            n = stack.pop(0)
            if n in seen:
                continue
            seen.append(n)
            stack.extend(self.flow_out.get(n, []))
        return sorted(seen, key=lambda n: self.order.get(n, 0))

    def flow_sources(self, ref: NodeRef) -> list[NodeRef]:
        return sorted(self.flow_in.get(ref, []), key=lambda n: self.order.get(n, 0))

    def is_pure(self, ref: NodeRef) -> bool:
        node = self.node(ref)
        if isinstance(node, FunctionSem):
            return node.pure
        module = self.node_module.get(ref)
        if module is None:
            # detached subtree: judge it against an empty module context
            module = self.modules[0].name if self.modules else ""
        deps: set = set()
        if not self._expr_calls_pure(node, module, deps):
            return False
        return all(k not in self.functions or self.functions[k].pure for k in deps)

    def opaque_uses(self, module_name: str) -> list[NodeRef]:
        return list(self.opaque.get(module_name, []))

    def register_detached(self, node: t.Node) -> NodeRef:
        for n in t.walk(node):
            self.objects[n.nid] = n
            self._detached[n.nid] = n
        return node.nid

    # -- transactions --------------------------------------------------------

    def txn_begin(self) -> None:
        self._marks.append(len(self._undo))

    def txn_commit(self) -> None:
        if not self._marks:
            raise GraphError("commit with no open transaction")
        self._marks.pop()
        if not self._marks:
            self._undo.clear()

    def txn_rollback(self) -> None:
        if not self._marks:
            raise GraphError("rollback with no open transaction")
        mark = self._marks.pop()
        while len(self._undo) > mark:
            obj, key, old = self._undo.pop()
            if isinstance(obj, list):
                obj[key] = old
            else:
                setattr(obj, key, old)
        self._pending = {
            r.nid: e for edits in self.edits.values() for e in edits for r in _roots(e[1])
        }
        self.rebuild()

    def _assign(self, obj, key, value) -> None:
        """`obj[key] = value` (a setattr for a node), logged for rollback."""
        if isinstance(obj, list):
            self._undo.append((obj, key, obj[key]))
            obj[key] = value
        else:
            self._undo.append((obj, key, getattr(obj, key)))
            setattr(obj, key, value)

    def _splice(self, seq: list, i: int, j: int, items: list) -> None:
        """`seq[i:j] = items`, logged for rollback."""
        self._undo.append((seq, slice(i, i + len(items)), seq[i:j]))
        seq[i:j] = items

    def _record_edit(self, module_name: str, span: tuple[int, int], replacement) -> None:
        edits = self.edits[module_name]
        superseded = []
        for i, e in enumerate(edits):
            (a, b) = e[0]
            if span[0] <= a and b <= span[1]:
                superseded.append(i)  # superseded by the enclosing edit
            elif not (b <= span[0] or span[1] <= a):
                raise GraphError(f"conflicting edit spans {e[0]} and {span}")
        for i in reversed(superseded):
            for r in _roots(edits[i][1]):
                del self._pending[r.nid]
            self._splice(edits, i, i + 1, [])
        edit = [span, replacement]
        self._splice(edits, len(edits), len(edits), [edit])
        for r in _roots(replacement):
            self._pending[r.nid] = edit

    def txn_replace(self, target: NodeRef, new) -> NodeRef:
        if not self._marks:
            raise GraphError("replace outside transaction")
        old = self.node(target)
        if isinstance(old, (FunctionSem, ModuleSem, VarSem)):
            raise GraphError("cannot replace a semantic node")
        parent = self.parent(target)
        module_name = self.node_module.get(target)
        if parent is None or module_name is None:
            raise GraphError("cannot replace a detached or root node")
        new_nodes = new if isinstance(new, list) else [new]
        owner = self._text_owner(old, parent)
        self._swap_child(parent, old, new_nodes)
        # When `old` already lives inside a pending replacement tree (a prior
        # replacement may reuse existing subtrees), the in-place swap above is
        # the whole edit — recording a second, overlapping source edit would
        # double-apply it.  The nearest pending root among `old`'s ancestors
        # tells.
        cur = target
        while cur is not None and cur not in self._pending:
            cur = self.parents.get(cur)
        if cur == target:
            edit = self._pending.pop(target)
            for r in new_nodes:
                self._pending[r.nid] = edit
            if edit[1] is old:
                self._assign(edit, 1, new)
            else:
                i = next(i for i, r in enumerate(edit[1]) if r is old)
                self._splice(edit[1], i, i + 1, new_nodes)
        elif cur is None and old.span is not None:
            self._record_edit(module_name, owner.span, new if owner is old else owner)
        self._unindex(old)
        for n in new_nodes:
            self._index(n, parent, module_name)
        self._invalidate()
        return new_nodes[0].nid

    def _text_owner(self, node: t.Node, parent: t.Node) -> t.Node:
        """The node whose source text a replacement of `node` rewrites.

        The tail of a written list, `b, c]` in `[a, b, c]`, shares its
        parent's closing bracket and has no text of its own; the edit goes
        to the outermost cons of that written list, which is reprinted."""
        owner = node
        while (
            isinstance(parent, t.Cons)
            and parent.tail is owner
            and owner.span is not None
            and parent.span is not None
            and owner.span[1] == parent.span[1]
        ):
            owner, parent = parent, self.parent(parent.nid)
        return owner

    def _swap_child(self, parent: t.Node, old: t.Node, new_nodes: list[t.Node]) -> None:
        for name in t.struct_fields(type(parent)):
            v = getattr(parent, name)
            if v is old:
                if len(new_nodes) != 1:
                    raise GraphError("sequence replacement requires a sequence position")
                self._assign(parent, name, new_nodes[0])
                return
            if isinstance(v, list):
                for i, item in enumerate(v):
                    if item is old:
                        self._splice(v, i, i + 1, new_nodes)
                        return
        raise GraphError("target not found under its parent")

    def txn_insert_form(self, module_name: str, form: t.FunctionForm, after: NodeRef) -> NodeRef:
        if not self._marks:
            raise GraphError("insert outside transaction")
        mod = self.module(module_name)
        anchor = self.node(after)
        if not isinstance(anchor, t.FunctionForm):
            raise GraphError("insertion anchor must be a function form")
        idx = mod.forms.index(anchor)
        self._splice(mod.forms, idx + 1, idx + 1, [form])
        if anchor.span is not None:
            pos = anchor.span[1]
            self._record_edit(module_name, (pos, pos), _FormInsertion(form))
        self._index(form, mod, module_name)
        self._invalidate()
        return form.nid

    # -- output --------------------------------------------------------------

    def render(self, module_name: str) -> bytes:
        mod = self.module(module_name)
        edits = []
        for span, rep in self.edits[module_name]:
            if isinstance(rep, _FormInsertion):
                rep = _form_insertion_text(rep)
            edits.append((tuple(span), rep))
        return splice(mod.text, edits)

    def to_dot(self) -> str:
        lines = ["digraph semantic_graph {"]
        for fn in self.functions.values():
            fid = f"f{fn.sid}"
            lines.append(f'  {fid} [label="{fn.name}/{fn.arity}\\npure={fn.pure}", shape=box];')
            lines.append(f'  mod_{fn.module} [label="module {fn.module}", shape=folder];')
            lines.append(f"  mod_{fn.module} -> {fid} [label=defines];")
            for kind, ref in fn.refs:
                lines.append(f'  n{ref} [label="{kind} site"];')
                lines.append(f"  n{ref} -> {fid} [label=ref];")
        for src, dsts in sorted(self.flow_out.items()):
            for dst in dsts:
                lines.append(f"  n{src} -> n{dst} [label=flow];")
        lines.append("}")
        return "\n".join(lines)


class _FormInsertion:
    """Lazy splice payload: renders a newly inserted form when printing."""

    def __init__(self, form: t.FunctionForm):
        self.form = form


def _roots(replacement) -> list[t.Node]:
    """The replacement trees of a pending edit (none for a form insertion)."""
    if isinstance(replacement, list):
        return replacement
    return [replacement] if isinstance(replacement, t.Node) else []


def _form_insertion_text(payload: _FormInsertion) -> str:
    from .printer import print_form

    return "\n\n" + print_form(payload.form)


def build_graph(modules: list[t.SourceModule]) -> SemanticGraph:
    return SemanticGraph(modules)
