"""RL300-series performance pass: a loop-nesting cost model, profile-ranked.

Open item 2 of the roadmap — vectorizing the 48-feature similarity
kernel and the FPMax inner loops — needs a mechanical worklist, not a
hunch. This pass produces it. It walks the same call graph as the
contract and parallel-safety passes, restricted to the *hot set*:
functions reachable from an executor work root (``map_chunks`` /
``submit`` submission sites, ``@picklable_work``) or from an explicit
``@hot_path`` annotation. Inside those functions it applies a small
loop-cost model:

========  ====================  =========================================
 Code      Name                  What it catches
========  ====================  =========================================
 RL300     per-element-loop      A Python-level loop (or comprehension)
                                 calling per element — the "should be a
                                 batch kernel" signal.
 RL301     inner-loop-alloc      list/dict/set construction at loop
                                 nesting depth >= 2: allocation inside
                                 the quadratic region.
 RL302     loop-invariant-call   A call whose operands are all loop
                                 invariant — hoistable above the loop.
 RL303     linear-membership     ``x in some_list`` inside a loop where
                                 the operand is a local list/tuple:
                                 O(n) per probe where a set is O(1).
 RL304     accumulation          ``str +=`` / repeated list ``+`` in a
                                 loop: quadratic reallocation.
 RL305     invariant-relookup    ``len(inv)`` / ``inv[key]`` recomputed
                                 every iteration of a hot loop.
========  ====================  =========================================

``@batch_kernel`` is the declared endpoint: the pass neither analyzes
its body nor traverses into it, so a finished vectorization removes its
findings without suppressions.

The headline mechanism is **profile-guided ranking**
(``tools/reprolint/profile_join.py``): with ``--profile-report`` the
pass annotates every finding with the measured upper-bound share of run
time that can reach its function, marks findings at or above
``--min-hot-fraction`` *hot* (severity ``error``), and everything else
*cold* (severity ``warning``). The gate therefore fails only on code
the committed baseline reports prove expensive; the ranked hot list is
the vectorization plan, inventoried in ``docs/PERF_LINT_BASELINE.md``.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from tools.reprolint.callgraph import (
    CallGraph,
    FunctionInfo,
    ModuleInfo,
    _local_instance_types,
    _own_calls,
    _partial_target,
    _resolve_callable_expr,
)
from tools.reprolint.contracts import PERF_KINDS, contracts_for
from tools.reprolint.findings import Finding, Severity
from tools.reprolint.parallel_safety import (
    _SUBMIT_METHODS,
    _chain_root,
    _local_binding,
)
from tools.reprolint.profile_join import ProfileJoin, SpanProfile

__all__ = [
    "PERF_RULES",
    "DEFAULT_MIN_HOT_FRACTION",
    "PerfFinding",
    "check_perf",
    "render_baseline",
    "parse_baseline",
    "demote_inventoried",
]

#: Rule code -> short kebab name (must match docs/STATIC_ANALYSIS.md).
PERF_RULES: Dict[str, str] = {
    "RL300": "per-element-loop",
    "RL301": "inner-loop-alloc",
    "RL302": "loop-invariant-call",
    "RL303": "linear-membership",
    "RL304": "accumulation",
    "RL305": "invariant-relookup",
}

#: Findings whose function's measured share is at or above this are hot.
DEFAULT_MIN_HOT_FRACTION = 0.02

#: Bare constructor calls that allocate (RL301) when unresolved in-graph.
_ALLOC_CALLS = frozenset({"list", "dict", "set", "frozenset", "bytearray"})

#: Methods that mutate a list/tuple-ish receiver (RL303 safety check).
_SEQUENCE_MUTATORS = frozenset(
    {"append", "extend", "insert", "remove", "pop", "clear", "sort",
     "reverse"}
)


@dataclass
class PerfFinding:
    """A :class:`Finding` plus its profile-join annotations."""

    finding: Finding
    qualname: str  #: hot function the finding lives in
    share: Optional[float]  #: measured upper-bound run-time share
    hot: bool  #: share >= min_hot_fraction (never True without a profile)


class _Loop:
    """One loop (or comprehension) and the names it binds."""

    __slots__ = ("node", "kind", "depth", "bound", "rl300_calls", "seen_keys")

    def __init__(
        self, node: ast.AST, kind: str, depth: int, bound: Set[str]
    ) -> None:
        self.node = node
        self.kind = kind  # "for" | "while" | "comp"
        self.depth = depth  # statement-loop nesting depth
        self.bound = bound
        self.rl300_calls: List[str] = []
        self.seen_keys: Set[Tuple[str, ...]] = set()


def _region_bound(nodes: Sequence[ast.AST]) -> Set[str]:
    """Names bound anywhere in the given subtrees.

    Deliberately over-approximate: comprehension targets and lambda
    parameters count as bound even though their scope is narrower —
    treating them as loop-varying can only suppress findings, never
    invent invariance.
    """
    bound: Set[str] = set()
    stack: List[ast.AST] = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            bound.add(node.name)
            continue  # nested scopes bind nothing in the loop
        if isinstance(node, ast.Lambda):
            args = node.args
            bound.update(
                a.arg
                for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
            )
            if args.vararg is not None:
                bound.add(args.vararg.arg)
            if args.kwarg is not None:
                bound.add(args.kwarg.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return bound


def _call_refs(call: ast.Call) -> Set[str]:
    """Load-context names the call's result can depend on.

    The bare callee name itself is excluded — ``f(x)`` depends on ``x``,
    not on the binding of ``f`` — but an attribute receiver chain stays
    in: ``obj.f(x)`` depends on ``obj``.
    """
    refs: Set[str] = set()
    for node in ast.walk(call):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
    if isinstance(call.func, ast.Name):
        refs.discard(call.func.id)
    return refs


def _func_args(func_node: ast.AST) -> Set[str]:
    args = func_node.args  # type: ignore[attr-defined]
    names = {
        a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
    }
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    return names


class _PerfChecker:
    def __init__(
        self,
        graph: CallGraph,
        join: Optional[ProfileJoin],
        min_hot_fraction: float,
    ) -> None:
        self.graph = graph
        self.join = join
        self.min_hot_fraction = min_hot_fraction
        #: function qualname -> contract kinds declared on it
        self.contracts: Dict[str, Set[str]] = {}
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            module = graph.modules[info.module]
            declared = contracts_for(module, info.node)
            if declared:
                self.contracts[qualname] = {c.kind for c in declared}
        self.perf_findings: List[PerfFinding] = []
        self._seen: Set[Tuple[str, int, int, str, str]] = set()

    # -- hot-set construction -------------------------------------------------

    def _work_roots(self) -> Set[str]:
        """Executor submission targets, resolved without emitting RL200
        (the parallel pass owns the diagnostics; here they are roots)."""
        roots: Set[str] = set()
        for qualname in sorted(self.graph.functions):
            info = self.graph.functions[qualname]
            module = self.graph.modules[info.module]
            local_types = _local_instance_types(self.graph, module, info)
            for call in _own_calls(info.node):
                if not (
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr in _SUBMIT_METHODS
                    and call.args
                ):
                    continue
                resolved = self._resolve_work_expr(
                    info, module, local_types, call.args[0]
                )
                if resolved is not None:
                    roots.add(resolved)
        return roots

    def _resolve_work_expr(
        self,
        info: FunctionInfo,
        module: ModuleInfo,
        local_types: Dict[str, str],
        expr: ast.expr,
        _chased: Optional[Set[str]] = None,
    ) -> Optional[str]:
        if isinstance(expr, ast.Call):
            target = _partial_target(module, expr)
            if target is not None:
                return self._resolve_work_expr(
                    info, module, local_types, target, _chased
                )
            return None
        if isinstance(expr, ast.Name):
            nested = f"{info.qualname}.{expr.id}"
            if nested in self.graph.functions:
                return nested
        qualname = _resolve_callable_expr(
            self.graph, module, info, expr, local_types
        )
        if qualname is None and isinstance(expr, ast.Name):
            chased = _chased if _chased is not None else set()
            if expr.id not in chased:
                chased.add(expr.id)
                value = _local_binding(info.node, expr.id)
                if value is not None:
                    return self._resolve_work_expr(
                        info, module, local_types, value, chased
                    )
        if qualname is not None and qualname in self.graph.functions:
            return qualname
        return None

    def _hot_set(self) -> Set[str]:
        roots = self._work_roots()
        for qualname in sorted(self.contracts):
            kinds = self.contracts[qualname]
            if "picklable_work" in kinds or "hot_path" in kinds:
                roots.add(qualname)
        hot: Set[str] = set()
        queue: List[str] = []
        for qualname in sorted(roots):
            if "batch_kernel" in self.contracts.get(qualname, set()):
                continue  # declared endpoint, even as a root
            hot.add(qualname)
            queue.append(qualname)
        while queue:
            current = queue.pop(0)
            for callee, _site in self.graph.callees(current):
                if callee in hot or callee not in self.graph.functions:
                    continue
                if "batch_kernel" in self.contracts.get(callee, set()):
                    continue  # do not traverse into declared kernels
                hot.add(callee)
                queue.append(callee)
        return hot

    # -- analysis driver ------------------------------------------------------

    def run(self) -> List[PerfFinding]:
        for qualname in sorted(self._hot_set()):
            info = self.graph.functions[qualname]
            module = self.graph.modules[info.module]
            local_types = _local_instance_types(self.graph, module, info)
            scan = _FunctionScan(self, info, module, local_types)
            scan.run()
        self.perf_findings.sort(
            key=lambda pf: (
                0 if pf.hot else 1,
                -(pf.share if pf.share is not None else 0.0),
                pf.finding,
            )
        )
        return self.perf_findings

    def _emit(
        self,
        info: FunctionInfo,
        node: ast.AST,
        rule: str,
        message: str,
    ) -> None:
        share: Optional[float] = None
        if self.join is not None:
            share = self.join.share_of(info.qualname)
        hot = share is not None and share >= self.min_hot_fraction
        if self.join is None:
            suffix = ""
        elif share is None:
            suffix = " [cold: no measured time]"
        elif hot:
            suffix = f" [hot: {share:.1%} of measured run time]"
        else:
            suffix = f" [cold: {share:.1%} of measured run time]"
        finding = Finding(
            path=info.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message + suffix,
            severity=Severity.ERROR if hot else Severity.WARNING,
        )
        key = (finding.path, finding.line, finding.col, rule, finding.message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.perf_findings.append(
            PerfFinding(
                finding=finding,
                qualname=info.qualname,
                share=share,
                hot=hot,
            )
        )


class _FunctionScan:
    """Loop-cost analysis of one hot function's own body."""

    def __init__(
        self,
        checker: _PerfChecker,
        info: FunctionInfo,
        module: ModuleInfo,
        local_types: Dict[str, str],
    ) -> None:
        self.checker = checker
        self.graph = checker.graph
        self.info = info
        self.module = module
        self.local_types = local_types
        self.args = _func_args(info.node)
        self.loops: List[_Loop] = []

    def run(self) -> None:
        for stmt in self.info.node.body:  # type: ignore[attr-defined]
            self._visit(stmt, [])
        for loop in self.loops:
            if not loop.rl300_calls:
                continue
            first = loop.rl300_calls[0]
            extra = len(loop.rl300_calls) - 1
            more = f" (+{extra} more)" if extra else ""
            what = (
                "comprehension" if loop.kind == "comp"
                else "per-element Python loop"
            )
            self.checker._emit(
                self.info,
                loop.node,
                "RL300",
                f"{what} in hot function `{self.info.qualname}` calls "
                f"`{first}` per element{more}; batch this work or mark "
                "the implementation @batch_kernel once vectorized",
            )

    # -- tree walk ------------------------------------------------------------

    def _visit(self, node: ast.AST, stack: List[_Loop]) -> None:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # separate graph nodes, scanned on their own
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._visit(node.iter, stack)  # header runs once, outside
            loop = _Loop(
                node,
                "for",
                self._stmt_depth(stack) + 1,
                _region_bound([node.target, *node.body, *node.orelse]),
            )
            self.loops.append(loop)
            inner = stack + [loop]
            for child in [*node.body, *node.orelse]:
                self._visit(child, inner)
            return
        if isinstance(node, ast.While):
            self._visit(node.test, stack)
            loop = _Loop(
                node,
                "while",
                self._stmt_depth(stack) + 1,
                _region_bound([*node.body, *node.orelse]),
            )
            self.loops.append(loop)
            inner = stack + [loop]
            for child in [*node.body, *node.orelse]:
                self._visit(child, inner)
            return
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            if not isinstance(node, ast.GeneratorExp):
                self._check_allocation(node, stack)  # comp-in-loop allocates
            self._visit(node.generators[0].iter, stack)
            comp = _Loop(
                node,
                "comp",
                self._stmt_depth(stack),
                _region_bound([g.target for g in node.generators]),
            )
            self.loops.append(comp)
            inner = stack + [comp]
            parts: List[ast.expr] = (
                [node.key, node.value]
                if isinstance(node, ast.DictComp)
                else [node.elt]
            )
            for gen in node.generators[1:]:
                parts.append(gen.iter)
            for gen in node.generators:
                parts.extend(gen.ifs)
            for part in parts:
                self._visit(part, inner)
            return
        if isinstance(node, ast.AnnAssign):
            # The annotation is typing syntax (e.g. `path: List[int]`),
            # not runtime work: walk only the target and value.
            self._check_node(node, stack)
            self._visit(node.target, stack)
            if node.value is not None:
                self._visit(node.value, stack)
            return
        self._check_node(node, stack)
        for child in ast.iter_child_nodes(node):
            self._visit(child, stack)

    @staticmethod
    def _stmt_depth(stack: List[_Loop]) -> int:
        return sum(1 for loop in stack if loop.kind != "comp")

    @staticmethod
    def _stmt_loop(stack: List[_Loop]) -> Optional[_Loop]:
        for loop in reversed(stack):
            if loop.kind != "comp":
                return loop
        return None

    # -- per-node checks ------------------------------------------------------

    def _check_node(self, node: ast.AST, stack: List[_Loop]) -> None:
        if isinstance(node, ast.Call):
            self._check_call(node, stack)
        elif isinstance(node, (ast.List, ast.Dict, ast.Set)):
            self._check_allocation(node, stack)
        elif isinstance(node, ast.Compare):
            self._check_membership(node, stack)
        elif isinstance(node, ast.AugAssign):
            self._check_accumulation_aug(node, stack)
        elif isinstance(node, ast.Assign):
            self._check_accumulation_assign(node, stack)
        elif isinstance(node, ast.Subscript):
            self._check_relookup_subscript(node, stack)

    def _resolve_call(self, call: ast.Call) -> Optional[str]:
        resolved = _resolve_callable_expr(
            self.graph, self.module, self.info, call.func, self.local_types
        )
        if resolved is None and isinstance(call.func, ast.Name):
            nested = f"{self.info.qualname}.{call.func.id}"
            if nested in self.graph.functions:
                return nested
        if resolved is not None and resolved in self.graph.functions:
            return resolved
        return None

    def _check_call(self, call: ast.Call, stack: List[_Loop]) -> None:
        stmt_loop = self._stmt_loop(stack)
        bare = call.func.id if isinstance(call.func, ast.Name) else None

        # RL301: bare builtin constructor calls allocate.
        if (
            bare in _ALLOC_CALLS
            and self._resolve_call(call) is None
        ):
            self._check_allocation(call, stack)

        # RL305: len() of a loop-invariant name, recomputed per iteration.
        if (
            bare == "len"
            and stmt_loop is not None
            and len(call.args) == 1
            and isinstance(call.args[0], ast.Name)
            and isinstance(call.args[0].ctx, ast.Load)
            and call.args[0].id not in stmt_loop.bound
            and self._resolve_call(call) is None
        ):
            key = ("len", call.args[0].id)
            if key not in stmt_loop.seen_keys:
                stmt_loop.seen_keys.add(key)
                self.checker._emit(
                    self.info,
                    call,
                    "RL305",
                    f"`len({call.args[0].id})` is loop-invariant but "
                    "recomputed every iteration; hoist it above the loop",
                )
            return

        if not stack:
            return
        innermost = stack[-1]
        refs = _call_refs(call)
        resolved = self._resolve_call(call)
        is_attribute = isinstance(call.func, ast.Attribute)
        if resolved is None and not is_attribute:
            return  # bare unresolved name: a builtin, not our cost model

        if refs & innermost.bound:
            # RL300: the call varies per element of the innermost loop.
            innermost.rl300_calls.append(self._display(call))
            return

        # RL302: every operand is invariant w.r.t. the enclosing
        # *statement* loop — the whole call hoists above it.
        if stmt_loop is None or innermost.kind == "comp":
            return
        if refs & stmt_loop.bound:
            return
        if resolved is None:
            root = _chain_root(call.func)
            if root is None or root.id in stmt_loop.bound:
                return
        self.checker._emit(
            self.info,
            call,
            "RL302",
            f"call `{self._display(call)}` has only loop-invariant "
            "operands; hoist it above the loop",
        )

    def _display(self, call: ast.Call) -> str:
        try:
            text = ast.unparse(call.func)
        except Exception:  # pragma: no cover - unparse is total on 3.9+
            text = "<call>"
        if len(text) > 40:
            text = text[:37] + "..."
        return f"{text}(...)"

    def _check_allocation(self, node: ast.AST, stack: List[_Loop]) -> None:
        stmt_loop = self._stmt_loop(stack)
        if stmt_loop is None or stmt_loop.depth < 2:
            return
        kinds = {
            ast.List: "list literal",
            ast.Dict: "dict literal",
            ast.Set: "set literal",
            ast.ListComp: "list comprehension",
            ast.SetComp: "set comprehension",
            ast.DictComp: "dict comprehension",
        }
        label = kinds.get(type(node))
        if label is None and isinstance(node, ast.Call):
            label = f"{node.func.id}() call"  # type: ignore[attr-defined]
        if label is None:
            return
        self.checker._emit(
            self.info,
            node,
            "RL301",
            f"{label} allocates inside a depth-{stmt_loop.depth} inner "
            "loop; allocate once outside or restructure the loop",
        )

    def _check_membership(self, node: ast.Compare, stack: List[_Loop]) -> None:
        stmt_loop = self._stmt_loop(stack)
        if stmt_loop is None:
            return
        if len(node.ops) != 1 or not isinstance(
            node.ops[0], (ast.In, ast.NotIn)
        ):
            return
        operand = node.comparators[0]
        if not (
            isinstance(operand, ast.Name)
            and isinstance(operand.ctx, ast.Load)
        ):
            return
        name = operand.id
        if name in stmt_loop.bound or name in self.args:
            return
        if not self._is_sequence_local(name):
            return
        if self._mutated_in_loop(stmt_loop, name):
            return
        self.checker._emit(
            self.info,
            node,
            "RL303",
            f"membership test against list/tuple local `{name}` is O(n) "
            "per probe inside a loop; build a set once before the loop",
        )

    def _is_sequence_local(self, name: str) -> bool:
        """True when every plain assignment to ``name`` is a list/tuple."""
        values: List[ast.expr] = []
        for node in ast.walk(self.info.node):
            if isinstance(node, ast.AugAssign) and (
                isinstance(node.target, ast.Name)
                and node.target.id == name
            ):
                return False  # augmented rebinding: type unclear
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            if not any(
                isinstance(t, ast.Name) and t.id == name for t in targets
            ):
                continue
            if node.value is not None:
                values.append(node.value)
        if not values:
            return False
        for value in values:
            if isinstance(value, (ast.List, ast.Tuple)):
                continue
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("list", "tuple", "sorted")
                and self._resolve_call(value) is None
            ):
                continue
            return False
        return True

    def _mutated_in_loop(self, loop: _Loop, name: str) -> bool:
        for node in ast.walk(loop.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name
                and node.func.attr in _SEQUENCE_MUTATORS
            ):
                return True
        return False

    def _check_accumulation_aug(
        self, node: ast.AugAssign, stack: List[_Loop]
    ) -> None:
        if not (
            isinstance(node.op, ast.Add) and isinstance(node.target, ast.Name)
        ):
            return
        self._check_accumulation(node, node.target.id, stack)

    def _check_accumulation_assign(
        self, node: ast.Assign, stack: List[_Loop]
    ) -> None:
        if len(node.targets) != 1 or not isinstance(
            node.targets[0], ast.Name
        ):
            return
        target = node.targets[0].id
        value = node.value
        if not (isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add)):
            return
        sides = (value.left, value.right)
        if not any(
            isinstance(side, ast.Name) and side.id == target
            for side in sides
        ):
            return
        self._check_accumulation(node, target, stack)

    def _check_accumulation(
        self, node: ast.stmt, target: str, stack: List[_Loop]
    ) -> None:
        stmt_loop = self._stmt_loop(stack)
        if stmt_loop is None:
            return
        kind = self._initializer_kind(target, stmt_loop)
        if kind == "str":
            self.checker._emit(
                self.info,
                node,
                "RL304",
                f"string accumulation into `{target}` in a loop is "
                "quadratic; collect parts and `''.join` once",
            )
        elif kind == "list":
            self.checker._emit(
                self.info,
                node,
                "RL304",
                f"repeated list concatenation into `{target}` in a loop "
                "is quadratic; use `.append`/`.extend`",
            )

    def _initializer_kind(self, name: str, loop: _Loop) -> Optional[str]:
        """Classify ``name`` by its earliest plain assignment above the
        loop: ``"str"``, ``"list"``, or None (numeric/unknown: exempt)."""
        earliest: Optional[ast.expr] = None
        earliest_line = loop.node.lineno  # type: ignore[attr-defined]
        for node in ast.walk(self.info.node):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            if not any(
                isinstance(t, ast.Name) and t.id == name for t in targets
            ):
                continue
            if node.value is None or node.lineno >= earliest_line:
                continue
            earliest = node.value
            earliest_line = node.lineno
        if earliest is None:
            return None
        if isinstance(earliest, ast.Constant) and isinstance(
            earliest.value, str
        ):
            return "str"
        if isinstance(earliest, ast.JoinedStr):
            return "str"
        if isinstance(earliest, ast.List):
            return "list"
        if (
            isinstance(earliest, ast.Call)
            and isinstance(earliest.func, ast.Name)
            and earliest.func.id == "list"
            and self._resolve_call(earliest) is None
        ):
            return "list"
        return None

    def _check_relookup_subscript(
        self, node: ast.Subscript, stack: List[_Loop]
    ) -> None:
        if not isinstance(node.ctx, ast.Load):
            return
        stmt_loop = self._stmt_loop(stack)
        if stmt_loop is None:
            return
        if not (
            isinstance(node.value, ast.Name)
            and isinstance(node.value.ctx, ast.Load)
            and node.value.id not in stmt_loop.bound
        ):
            return
        index = node.slice
        if isinstance(index, ast.Constant):
            index_key = repr(index.value)
        elif (
            isinstance(index, ast.Name)
            and isinstance(index.ctx, ast.Load)
            and index.id not in stmt_loop.bound
        ):
            index_key = index.id
        else:
            return
        key = ("sub", node.value.id, index_key)
        if key in stmt_loop.seen_keys:
            return
        stmt_loop.seen_keys.add(key)
        self.checker._emit(
            self.info,
            node,
            "RL305",
            f"lookup `{node.value.id}[{index_key}]` is loop-invariant "
            "but repeated every iteration; hoist it above the loop",
        )


def check_perf(
    graph: CallGraph,
    profile: Optional[SpanProfile] = None,
    min_hot_fraction: float = DEFAULT_MIN_HOT_FRACTION,
    declared_sites: Optional[Dict[str, Tuple[str, ...]]] = None,
) -> List[PerfFinding]:
    """Run RL300-RL305 over the graph's hot set.

    With ``profile`` the findings carry measured shares and hot findings
    are errors; without it everything is a warning (nothing measured,
    nothing gated). Hot findings come first, ranked by share.
    """
    join: Optional[ProfileJoin] = None
    if profile is not None:
        join = ProfileJoin(graph, profile, declared_sites=declared_sites)
    return _PerfChecker(graph, join, min_hot_fraction).run()


# -- baseline inventory -------------------------------------------------------


def _group(
    perf_findings: Iterable[PerfFinding],
) -> Dict[Tuple[str, str, str], List[PerfFinding]]:
    groups: Dict[Tuple[str, str, str], List[PerfFinding]] = {}
    for pf in perf_findings:
        key = (pf.finding.rule, pf.qualname, pf.finding.path)
        groups.setdefault(key, []).append(pf)
    return groups


def render_baseline(
    perf_findings: Sequence[PerfFinding],
    report_path: str,
    min_hot_fraction: float = DEFAULT_MIN_HOT_FRACTION,
) -> str:
    """Render the accepted finding inventory (``docs/PERF_LINT_BASELINE.md``).

    Line-number free on purpose: the inventory keys findings by
    (rule, function, file) so unrelated edits do not invalidate it.
    Byte-deterministic for a given finding list — the self-sweep test
    regenerates it and compares bytes.
    """
    groups = _group(perf_findings)
    hot_rows: List[Tuple[float, str, str, str, int]] = []
    cold_rows: List[Tuple[str, str, str, int]] = []
    for key in sorted(groups):
        rule, qualname, path = key
        members = groups[key]
        if any(pf.hot for pf in members):
            share = max(pf.share or 0.0 for pf in members)
            hot_rows.append((share, rule, qualname, path, len(members)))
        else:
            cold_rows.append((rule, qualname, path, len(members)))
    hot_rows.sort(key=lambda row: (-row[0], row[1], row[2], row[3]))

    lines = [
        "# Performance-lint baseline inventory",
        "",
        "The accepted RL300-series worklist: every *hot* finding of",
        "`repro lint --perf` (measured run-time share at or above the",
        "threshold) must appear here or the lint gate fails. Entries are",
        "keyed by (rule, function, file) — no line numbers — so routine",
        "edits do not invalidate the inventory. Shrink this file by",
        "vectorizing an entry and marking the result `@batch_kernel`;",
        "never grow it without a review.",
        "",
        "Regenerate after intentional changes with:",
        "",
        "    python -m tools.reprolint src tools --perf \\",
        f"        --profile-report {report_path} \\",
        "        --write-perf-baseline docs/PERF_LINT_BASELINE.md",
        "",
        f"Profile report: `{report_path}`. Hot threshold: share >= "
        f"{min_hot_fraction:.1%} (`--min-hot-fraction "
        f"{min_hot_fraction}`). Shares are upper bounds: a span's self",
        "time is attributed to every function reachable from its site,",
        "so sibling entries overlap and do not sum to 100%.",
        "",
        "## Hot findings (ranked by measured share)",
        "",
    ]
    if hot_rows:
        lines.append(
            "| rank | share | rule | name | function | file | findings |"
        )
        lines.append(
            "|------|-------|------|------|----------|------|----------|"
        )
        for rank, (share, rule, qualname, path, count) in enumerate(
            hot_rows, start=1
        ):
            lines.append(
                f"| {rank} | {share:.1%} | {rule} | {PERF_RULES[rule]} | "
                f"`{qualname}` | {path} | {count} |"
            )
    else:
        lines.append("(none)")
    lines += [
        "",
        "## Cold findings (below threshold; informational, never gate)",
        "",
    ]
    if cold_rows:
        lines.append("| rule | name | function | file | findings |")
        lines.append("|------|------|----------|------|----------|")
        for rule, qualname, path, count in cold_rows:
            lines.append(
                f"| {rule} | {PERF_RULES[rule]} | `{qualname}` | {path} | "
                f"{count} |"
            )
    else:
        lines.append("(none)")
    lines.append("")
    return "\n".join(lines)


_BASELINE_ROW = re.compile(r"^\|.*\bRL3\d\d\b.*\|$")


def parse_baseline(text: str) -> Dict[Tuple[str, str, str], int]:
    """Inventory keys -> accepted counts, from a baseline document.

    Only the hot table counts: a cold row must not pre-absorb the
    finding if its function later turns hot — that regression should
    fail the gate until the inventory is regenerated deliberately.
    """
    inventory: Dict[Tuple[str, str, str], int] = {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("## Cold findings"):
            break
        if not _BASELINE_ROW.match(line):
            continue
        cells = [cell.strip() for cell in line.split("|")[1:-1]]
        rule = next(
            (c for c in cells if re.fullmatch(r"RL3\d\d", c)), None
        )
        qualname = next(
            (
                c.strip("`")
                for c in cells
                if ":" in c and not c.startswith("RL")
            ),
            None,
        )
        path = next((c for c in cells if c.endswith(".py")), None)
        count: Optional[int] = None
        for cell in reversed(cells):
            if cell.isdigit():
                count = int(cell)
                break
        if rule is None or qualname is None or path is None or count is None:
            continue
        key = (rule, qualname, path)
        inventory[key] = inventory.get(key, 0) + count
    return inventory


def demote_inventoried(
    perf_findings: Sequence[PerfFinding],
    inventory: Dict[Tuple[str, str, str], int],
) -> List[PerfFinding]:
    """Demote hot findings covered by the committed inventory to warnings.

    Consumes inventory counts in ranking order: if code *grows* more hot
    findings than the inventory accepts for a key, the excess stays an
    error and the gate fails — the baseline is a ceiling, not a blanket.
    """
    remaining = dict(inventory)
    out: List[PerfFinding] = []
    for pf in perf_findings:
        key = (pf.finding.rule, pf.qualname, pf.finding.path)
        if pf.hot and remaining.get(key, 0) > 0:
            remaining[key] -= 1
            demoted = dataclasses.replace(
                pf.finding,
                message=pf.finding.message + " (inventoried)",
                severity=Severity.WARNING,
            )
            out.append(
                PerfFinding(
                    finding=demoted,
                    qualname=pf.qualname,
                    share=pf.share,
                    hot=pf.hot,
                )
            )
        else:
            out.append(pf)
    return out
