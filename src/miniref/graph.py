"""Semantic program graph over parsed mini-Erlang modules.

The graph indexes every syntactic node by id and adds semantic nodes for
modules, functions and variables, together with reference, defines and
dataflow edges.

Maintenance is per function form and proportional to the edit.  The node
indexes (`objects`, `parents`, `node_module`) are walked once, at
construction; afterwards each edit, and each rollback step, updates them
for the subtrees it removes and inserts.  The semantic facts of a form
(scopes, variables, flow edges, the variable names it uses and its call
sites) come from one traversal of that form, `_analyze_form`.  An edit marks
the form it touches as dirty; the first read of a semantic index after it
runs `rebuild()`, which re-analyses the dirty forms only and then
re-assembles the module-level indexes (functions, references, opaque uses,
purity) from the per-form facts.  A refresh therefore costs the touched
forms plus O(forms + call sites).  A fresh graph is a refresh in which every
form is dirty.

Mutation happens only inside transactions.  Every mutation of the trees and
of the pending source edits appends its old value to an undo log;
`txn_begin` marks the log, and rollback replays it back to the mark, so the
trees hold the original node objects again and print byte-identically.

Scoping follows the conservative subset rules: single assignment, bindings
flow forward through a clause, fun parameters open a fresh binder, and a
variable bound in only some case branches is unbound after the case.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field

from . import tree as t
from .printer import print_form, splice

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


class _FormFacts:
    """What one analysis of a function form found.  A re-analysis replaces
    the whole record; `nodes` and `vars` say which entries of the graph-wide
    indexes it wrote, so that they can be dropped first."""

    __slots__ = ("fn", "names", "sites", "nodes", "vars", "order")

    def __init__(self, fn: FunctionSem):
        self.fn = fn
        self.names: set[str] = set()  # every variable name under the clauses
        self.sites: list[tuple] = []  # (kind, call nid, callee key), pre-order
        self.nodes: list[int] = []  # nids given a scope (and any other fact)
        self.vars: list[VarSem] = []
        self.order: dict[int, int] | None = None  # pre-order, for flow queries


class _Analysed:
    """A semantic index of `SemanticGraph`, kept in the attribute of the
    same name with a leading underscore.  Reading it after an edit first runs
    `rebuild()`, which brings every semantic index up to date at once."""

    def __set_name__(self, owner, name: str) -> None:
        self.slot = "_" + name

    def __get__(self, graph, owner=None):
        if graph is None:
            return self
        if graph._stale:
            graph.rebuild()
        return graph.__dict__[self.slot]


class SemanticGraph:
    scope_in = _Analysed()  # nid -> scope chain of the names visible there
    var_of = _Analysed()  # Var occurrence nid -> VarSem sid
    unbound = _Analysed()
    flow_out = _Analysed()
    flow_in = _Analysed()
    functions = _Analysed()
    opaque = _Analysed()
    sems = _Analysed()

    def __init__(self, modules: list[t.SourceModule]):
        self.modules = modules
        self.edits: dict[str, list[list]] = {m.name: [] for m in modules}
        self._pending: dict[int, list] = {}  # replacement root nid -> its edit
        self._undo: list[tuple] = []  # (object, field/index/slice, old value, tree owner)
        self._marks: list[int] = []  # undo-log length at each open txn_begin
        self._sem_ids: dict = {}
        self._detached: dict[int, t.Node] = {}
        self.objects: dict[int, t.Node] = {}
        self.parents: dict[int, int] = {}
        self.node_module: dict[int, str] = {}
        self._scope_in: dict[int, tuple] = {}
        self._var_of: dict[int, int] = {}
        self._unbound: set[int] = set()
        self._flow_out: dict[int, list[int]] = {}
        self._flow_in: dict[int, list[int]] = {}
        self._functions: dict[tuple[str, str, int], FunctionSem] = {}
        self._opaque: dict[str, list[int]] = {}
        self._sems: dict[int, ModuleSem | FunctionSem | VarSem] = {}
        self._facts: dict[int, _FormFacts] = {}  # form nid -> its facts
        self._dirty: set[int] = set()  # forms whose facts an edit made stale
        self._stale = True  # the module-level indexes need re-assembling
        self.module_sems: dict[str, ModuleSem] = {}
        for mod in modules:
            self._index(mod, None, mod.name)
            sem = ModuleSem(self._sem_id(("mod", mod.name)), mod.name)
            self.module_sems[mod.name] = sem
            self._sems[sem.sid] = sem
        self.rebuild()

    # -- indexing ------------------------------------------------------------

    def rebuild(self) -> None:
        """Bring the semantic indexes up to date: re-analyse the dirty forms
        (and any form not analysed yet), drop the facts of forms that left
        the modules, then re-assemble the module-level indexes."""
        forms = [f for mod in self.modules for f in mod.forms]
        present = {f.nid for f in forms}
        dirty = [f for f in forms if f.nid in self._dirty or f.nid not in self._facts]
        for nid in [n for n in self._facts if n not in present] + [f.nid for f in dirty]:
            facts = self._facts.pop(nid, None)
            if facts is not None:
                self._forget(facts)
        for form in dirty:
            self._facts[form.nid] = self._analyze_form(form)
        self._dirty.clear()
        self._assemble()
        self._stale = False

    def _forget(self, facts: _FormFacts) -> None:
        for nid in facts.nodes:
            self._scope_in.pop(nid, None)
            self._var_of.pop(nid, None)
            self._unbound.discard(nid)
            self._flow_out.pop(nid, None)
            self._flow_in.pop(nid, None)
        for sem in facts.vars:
            self._sems.pop(sem.sid, None)
        self._sems.pop(facts.fn.sid, None)

    def _assemble(self) -> None:
        """Functions, references, opaque uses and purity, in O(forms + call
        sites).  References come in module order: exports, then each form's
        call sites in pre-order."""
        functions: dict[tuple[str, str, int], FunctionSem] = {}
        for mod in self.modules:
            for form in mod.forms:
                fn = self._facts[form.nid].fn
                key = (fn.module, fn.name, fn.arity)
                if key in functions:
                    raise GraphError(
                        f"duplicate definition of {fn.name}/{fn.arity} in module {mod.name}"
                    )
                functions[key] = fn
                self._sems[fn.sid] = fn  # here: forgetting a duplicate drops its sid
                fn.refs = []
        opaque: dict[str, list[int]] = {m.name: [] for m in self.modules}
        impure: list[tuple[str, str, int]] = []
        callers: dict[tuple[str, str, int], list] = defaultdict(list)
        for mod in self.modules:
            for entry in mod.exports:
                fn = functions.get((mod.name, entry.name, entry.arity))
                if fn is not None:
                    fn.refs.append(("export", entry.nid))
            for form in mod.forms:
                fn = self._facts[form.nid].fn
                key = (fn.module, fn.name, fn.arity)
                pure = True
                for kind, nid, callee in self._facts[form.nid].sites:
                    ref = _site_ref(kind, callee, functions)
                    if ref is not None:
                        functions[ref[1]].refs.append((ref[0], nid))
                    elif kind == "opaque":
                        opaque[mod.name].append(nid)
                    dep = _site_purity(kind, callee, functions)
                    if dep is False:
                        pure = False
                    elif dep is not True:
                        callers[dep].append(key)
                fn.pure = pure
                if not pure:
                    impure.append(key)
        while impure:  # impurity flows from a callee to its callers
            for key in callers.get(impure.pop(), ()):
                if functions[key].pure:
                    functions[key].pure = False
                    impure.append(key)
        self._functions = functions
        self._opaque = opaque

    def _unindex(self, root: t.Node) -> None:
        for n in t.walk(root):
            self.parents.pop(n.nid, None)
            self.node_module.pop(n.nid, None)
            if n.nid not in self._detached:
                self.objects.pop(n.nid, None)

    def _index(self, root: t.Node, parent: t.Node | None, module_name: str) -> None:
        if parent is not None:
            self.parents[root.nid] = parent.nid
        objects, parents, node_module = self.objects, self.parents, self.node_module
        stack = [root]
        while stack:
            n = stack.pop()
            objects[n.nid] = n
            node_module[n.nid] = module_name
            kids = t.children(n)
            for child in kids:
                parents[child.nid] = n.nid
            stack.extend(kids)

    def _sem_id(self, key) -> int:
        if key not in self._sem_ids:
            self._sem_ids[key] = t.new_id()
        return self._sem_ids[key]

    def _form_of(self, ref: NodeRef) -> t.FunctionForm | None:
        """The function form that holds node `ref` (or is it)."""
        cur = ref
        while cur is not None:
            obj = self.objects.get(cur)
            if isinstance(obj, t.FunctionForm):
                return obj
            cur = self.parents.get(cur)
        return None

    # -- scoping, dataflow and call sites ------------------------------------

    def _analyze_form(self, form: t.FunctionForm) -> _FormFacts:
        """One traversal of `form` that writes its scopes, variables and flow
        edges into the graph-wide indexes and returns the rest of its facts."""
        module = self.node_module[form.nid]
        fn = FunctionSem(
            self._sem_id(("fun", module, form.name, form.arity)), module, form.name,
            form.arity, form=form.nid, clauses=[c.nid for c in form.clauses],
        )
        facts = _FormFacts(fn)
        visit = _FormVisit(self, facts)
        for clause in form.clauses:
            env = _Env()
            for p in clause.patterns:
                visit.bind_pattern(p, env)
            visit.visit_seq(clause.body, env)
        return facts

    # -- references and purity ----------------------------------------------

    @staticmethod
    def literal_list(node: t.Expr) -> list[t.Expr] | None:
        elems, tail = t.unlist(node)
        if isinstance(node, (t.Cons, t.Nil)) and tail is None:
            return elems
        return None

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
        form = self._form_of(ref)
        if form is None:
            return None
        return self.functions[(self.node_module[form.nid], form.name, form.arity)]

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
        names: set[str] = set()
        scope = self.scope_in.get(ref, ())
        while scope:
            name, scope = scope
            names.add(name)
        return names

    def function_bound_names(self, ref: NodeRef) -> set[str]:
        fn = self.enclosing_function(ref)
        if fn is None:
            return set()
        return set(self._facts[fn.form].names)

    def flow_forward(self, ref: NodeRef) -> list[NodeRef]:
        flow_out = self.flow_out
        seen: set[int] = set()
        reached: list[int] = []
        queue = deque(flow_out.get(ref, ()))
        while queue:
            n = queue.popleft()
            if n in seen:
                continue
            seen.add(n)
            reached.append(n)
            queue.extend(flow_out.get(n, ()))
        return self._in_source_order(ref, reached)

    def flow_sources(self, ref: NodeRef) -> list[NodeRef]:
        return self._in_source_order(ref, self.flow_in.get(ref, []))

    def _in_source_order(self, ref: NodeRef, nids: list[int]) -> list[NodeRef]:
        """`nids`, which share `ref`'s form (flow never leaves a form), in
        pre-order; the form's positions are numbered on the first query."""
        if not nids:
            return []
        form = self._form_of(ref)
        facts = self._facts[form.nid]
        if facts.order is None:
            facts.order = {n.nid: i for i, n in enumerate(t.walk(form))}
        return sorted(nids, key=lambda n: facts.order.get(n, 0))

    def is_pure(self, ref: NodeRef) -> bool:
        node = self.node(ref)
        if isinstance(node, FunctionSem):
            return node.pure
        module = self.node_module.get(ref)
        if module is None:
            # detached subtree: judge it against an empty module context
            module = self.modules[0].name if self.modules else ""
        functions = self.functions
        for n in t.walk(node):
            site = _call_site(n, module)
            if site is not None:
                dep = _site_purity(*site, functions)
                if dep is False or (dep is not True and dep in functions
                                    and not functions[dep].pure):
                    return False
        return True

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
            obj, key, old, owner = self._undo.pop()
            is_list = isinstance(obj, list)
            if owner is not None:  # a tree position: re-index what it held
                for n in _as_nodes(obj[key] if is_list else getattr(obj, key)):
                    self._unindex(n)
            if is_list:
                obj[key] = old
            else:
                setattr(obj, key, old)
            if owner is not None:
                module_name = self.node_module[owner.nid]
                for n in _as_nodes(old):
                    self._index(n, owner, module_name)
                form = self._form_of(owner.nid)
                if form is not None:
                    self._dirty.add(form.nid)
                self._stale = True
        self._pending = {
            r.nid: e for edits in self.edits.values() for e in edits for r in _roots(e[1])
        }

    def _assign(self, obj, key, value) -> None:
        """`obj[key] = value` (a setattr for a node), logged for rollback."""
        if isinstance(obj, list):
            self._undo.append((obj, key, obj[key], None))
            obj[key] = value
        else:
            self._undo.append((obj, key, getattr(obj, key), obj))
            setattr(obj, key, value)

    def _splice(self, seq: list, i: int, j: int, items: list, owner: t.Node | None = None) -> None:
        """`seq[i:j] = items`, logged for rollback; `owner` is the node whose
        child list `seq` is, if it is one."""
        self._undo.append((seq, slice(i, i + len(items)), seq[i:j], owner))
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
        # tells; the same walk up finds the form the edit touches.
        cur, root, form = target, None, None
        while cur is not None:
            if root is None and cur in self._pending:
                root = cur
            obj = self.objects[cur]
            if isinstance(obj, t.FunctionForm):
                form = obj
                break
            cur = self.parents.get(cur)
        cur = root
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
        if form is not None and form is not old:
            self._dirty.add(form.nid)
        self._stale = True
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
                        self._splice(v, i, i + 1, new_nodes, parent)
                        return
        raise GraphError("target not found under its parent")

    def txn_insert_form(self, module_name: str, form: t.FunctionForm, after: NodeRef) -> NodeRef:
        if not self._marks:
            raise GraphError("insert outside transaction")
        mod = self.module(module_name)
        anchor = self.node(after)
        if not isinstance(anchor, t.FunctionForm):
            raise GraphError("insertion anchor must be a function form")
        # spans index the text a form was parsed from, not this module's
        if any(n.span is not None for n in t.walk(form)):
            raise GraphError("an inserted form must carry no spans; insert a copy_fresh copy")
        idx = mod.forms.index(anchor)
        self._splice(mod.forms, idx + 1, idx + 1, [form], mod)
        if anchor.span is not None:
            pos = anchor.span[1]
            self._record_edit(module_name, (pos, pos), _FormInsertion(form))
        self._index(form, mod, module_name)
        self._dirty.add(form.nid)
        self._stale = True
        return form.nid

    # -- output --------------------------------------------------------------

    def render(self, module_name: str) -> bytes:
        mod = self.module(module_name)
        edits = []
        for span, rep in self.edits[module_name]:
            if isinstance(rep, _FormInsertion):
                rep = _form_insertion_text(rep)
            edits.append((tuple(span), rep))
        return splice(mod.text.decode("utf-8"), edits).encode("utf-8")

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


_UNBOUND = object()


class _Env:
    """The variables in scope while a clause is visited.

    Case branches, fun clauses and comprehensions bind into the same dict and
    undo their bindings when they end.  `scope` holds the names in scope as a
    chain `(name, rest)`, one link per name bound, so the nodes visited
    between two bindings share one scope object."""

    __slots__ = ("vars", "scope", "trail")

    def __init__(self):
        self.vars: dict[str, VarSem] = {}
        self.scope: tuple = ()
        self.trail: list[tuple[str, object]] = []  # (name, what it shadowed)

    def bind(self, name: str, sem: VarSem) -> None:
        old = self.vars.get(name, _UNBOUND)
        self.trail.append((name, old))
        self.vars[name] = sem
        if old is _UNBOUND:
            self.scope = (name, self.scope)

    def mark(self) -> tuple[int, tuple]:
        return len(self.trail), self.scope

    def added(self, mark: tuple[int, tuple]) -> dict[str, VarSem]:
        """The names first bound since `mark`, with their variables."""
        return {name: self.vars[name] for name, old in self.trail[mark[0]:] if old is _UNBOUND}

    def undo(self, mark: tuple[int, tuple]) -> None:
        n, self.scope = mark
        while len(self.trail) > n:
            name, old = self.trail.pop()
            if old is _UNBOUND:
                del self.vars[name]
            else:
                self.vars[name] = old


class _FormVisit:
    """The traversal behind `SemanticGraph._analyze_form`."""

    def __init__(self, graph: SemanticGraph, facts: _FormFacts):
        self.graph = graph
        self.facts = facts
        self.fkey = (facts.fn.module, facts.fn.name, facts.fn.arity)
        self.scope_in = graph._scope_in
        self.var_of = graph._var_of
        self.edges: set[tuple[int, int]] = set()

    def note(self, node: t.Node, scope: tuple) -> None:
        """Record the scope at `node` (the first one seen) and its call site."""
        if node.nid not in self.scope_in:
            self.scope_in[node.nid] = scope
            self.facts.nodes.append(node.nid)
        if isinstance(node, (t.Call, t.RemoteCall)):
            site = _call_site(node, self.facts.fn.module)
            if site is not None:
                self.facts.sites.append((site[0], node.nid, site[1]))

    def var_sem(self, name: str, anchor: int) -> VarSem:
        sid = self.graph._sem_id(("var", self.fkey, name, anchor))
        sem = self.graph._sems.get(sid)
        if sem is None:
            sem = VarSem(sid, name)
            self.graph._sems[sid] = sem
            self.facts.vars.append(sem)
        return sem

    def bind_pattern(self, pat: t.Expr, env: _Env, fresh: bool = False) -> None:
        scope = env.scope  # the whole pattern sees the names bound before it
        for n in t.walk(pat):
            self.note(n, scope)
            if isinstance(n, t.Var) and n.name != "_":
                self.facts.names.add(n.name)
                if n.name in env.vars and not fresh:
                    sem = env.vars[n.name]
                    sem.occurrences.append(n.nid)
                else:
                    sem = self.var_sem(n.name, n.nid)
                    sem.binders.append(n.nid)
                    env.bind(n.name, sem)
                self.var_of[n.nid] = sem.sid

    def pattern_first(self, start: int, mid: int) -> None:
        """Move the call sites found since `mid` (in a pattern, or a
        comprehension head) before those found between `start` and `mid`:
        the source has them first, and references are kept in source order."""
        sites = self.facts.sites
        if start < mid < len(sites):
            sites[start:] = sites[mid:] + sites[start:mid]

    def visit_seq(self, exprs: list[t.Expr], env: _Env) -> None:
        for e in exprs:
            self.visit(e, env)

    def visit(self, e: t.Expr, env: _Env) -> None:
        # a generic node's last child is visited in this same frame, so a
        # long cons chain (the tail of a list literal) does not recurse
        sites = self.facts.sites
        while True:
            self.note(e, env.scope)
            if isinstance(e, t.Var):
                if e.name == "_":
                    return
                self.facts.names.add(e.name)
                sem = env.vars.get(e.name)
                if sem is None:
                    self.graph._unbound.add(e.nid)
                    return
                sem.occurrences.append(e.nid)
                self.var_of[e.nid] = sem.sid
                for b in sem.binders:
                    self.flow_edge(b, e.nid)
                return
            if isinstance(e, t.Match):
                start = len(sites)
                self.visit(e.expr, env)
                mid = len(sites)
                self.bind_pattern(e.pattern, env)
                self.pattern_first(start, mid)
                self.flow_edge(e.expr.nid, e.pattern.nid)
                return
            if isinstance(e, t.Block):
                self.visit_seq(e.exprs, env)
                if e.exprs:
                    self.flow_edge(e.exprs[-1].nid, e.nid)
                return
            if isinstance(e, t.Case):
                self.visit(e.scrutinee, env)
                mark = env.mark()
                added = []
                for clause in e.clauses:
                    self.bind_pattern(clause.patterns[0], env)
                    self.flow_edge(e.scrutinee.nid, clause.patterns[0].nid)
                    self.visit_seq(clause.body, env)
                    self.flow_edge(clause.body[-1].nid, e.nid)
                    added.append(env.added(mark))
                    env.undo(mark)
                common = set(added[0]).intersection(*added[1:]) if added else set()
                for name in sorted(common):
                    merged = self.var_sem(name, e.nid)
                    for branch in added:
                        for b in branch[name].binders:
                            if b not in merged.binders:
                                merged.binders.append(b)
                    env.bind(name, merged)
                return
            if isinstance(e, t.Fun):
                for clause in e.clauses:
                    mark = env.mark()
                    for p in clause.patterns:
                        self.bind_pattern(p, env, fresh=True)
                    self.visit_seq(clause.body, env)
                    env.undo(mark)
                return
            if isinstance(e, t.ListComp):
                mark = env.mark()
                start = len(sites)
                for q in e.qualifiers:
                    if isinstance(q, t.Generator):
                        at = len(sites)
                        self.visit(q.source, env)
                        mid = len(sites)
                        self.bind_pattern(q.pattern, env)
                        self.pattern_first(at, mid)
                    else:
                        self.visit(q.expr, env)
                mid = len(sites)
                self.visit(e.head, env)
                self.pattern_first(start, mid)
                env.undo(mark)
                return
            kids = t.children(e)
            last = kids.pop() if kids and isinstance(kids[-1], t.Expr) else None
            for child in kids:
                if isinstance(child, t.Expr):
                    self.visit(child, env)
                else:
                    self.visit_other(child, env)
            if last is None:
                return
            e = last

    def visit_other(self, node: t.Node, env: _Env) -> None:
        for child in t.children(node):
            if isinstance(child, t.Expr):
                self.visit(child, env)
            else:
                self.visit_other(child, env)

    def flow_edge(self, src: int, dst: int) -> None:
        if (src, dst) not in self.edges:
            self.edges.add((src, dst))
            self.graph._flow_out.setdefault(src, []).append(dst)
            self.graph._flow_in.setdefault(dst, []).append(src)


def _call_site(node: t.Node, module: str) -> tuple[str, tuple | None] | None:
    """How a call refers to functions, as `(kind, callee key)`; None for a
    node that is not a call, or a call that is pure whatever the module
    defines (a literal fun, a whitelisted remote function).  The kinds:

    - `local`: `name(..)`;
    - `apply`: `apply(name, [..])` with a literal argument list;
    - `apply_any`: `apply(name, Args)` with any other argument;
    - `remote`: `m:name(..)` inside module `m`;
    - `opaque`: a call of a function value;
    - `impure`: any other call."""
    if isinstance(node, t.Call):
        callee = node.callee
        if isinstance(callee, t.Atom):
            if callee.name == "apply" and len(node.args) == 2:
                target, arglist = node.args
                if not isinstance(target, t.Atom):
                    return "opaque", None
                elems = SemanticGraph.literal_list(arglist)
                if elems is None:
                    return "apply_any", (module, "apply", 2)
                return "apply", (module, target.name, len(elems))
            return "local", (module, callee.name, len(node.args))
        if isinstance(callee, t.Var):
            return "opaque", None
        return None if isinstance(callee, t.Fun) else ("impure", None)
    if isinstance(node, t.RemoteCall):
        if isinstance(node.module, t.Atom) and isinstance(node.name, t.Atom):
            key = (node.module.name, node.name.name, len(node.args))
            if node.module.name == module:
                return "remote", key
            if key in REMOTE_PURE:
                return None
        return "impure", None
    return None


def _site_ref(kind: str, key, functions: dict) -> tuple[str, tuple] | None:
    """The reference a call site makes, as `(ref kind, function key)`.  An
    `apply` of a function the module lacks is a call of a local `apply/2`."""
    if kind == "apply":
        if key in functions:
            return "apply", key
        kind, key = "apply_any", (key[0], "apply", 2)
    if kind in ("local", "remote", "apply_any") and key in functions:
        return ("remote" if kind == "remote" else "local"), key
    return None


def _site_purity(kind: str, key, functions: dict):
    """True or False when the call is pure or impure by itself, else the key
    of the module function whose purity it has."""
    if kind in ("local", "apply"):
        return key if key in functions else key[1:] in BUILTIN_PURE
    if kind == "remote":
        return key  # a function the module lacks does not make it impure
    return False


class _FormInsertion:
    """Lazy splice payload: renders a newly inserted form when printing."""

    def __init__(self, form: t.FunctionForm):
        self.form = form


def _as_nodes(value) -> list[t.Node]:
    return value if isinstance(value, list) else [value]


def _roots(replacement) -> list[t.Node]:
    """The replacement trees of a pending edit (none for a form insertion)."""
    if isinstance(replacement, list):
        return replacement
    return [replacement] if isinstance(replacement, t.Node) else []


def _form_insertion_text(payload: _FormInsertion) -> str:
    return "\n\n" + print_form(payload.form)


def build_graph(modules: list[t.SourceModule]) -> SemanticGraph:
    return SemanticGraph(modules)
