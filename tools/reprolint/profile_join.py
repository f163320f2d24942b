"""Join measured RunReport span times onto call-graph functions.

The RL300 performance pass (``tools/reprolint/perf_lint.py``) ranks its
findings by *measured* time, not by guesswork: a committed RunReport
(``benchmarks/baselines/*.report.json``, schema v1 from
``repro.obs.report``) says where a real run spent its wall clock, and
this module maps that evidence onto the static call graph.

The join has three steps:

1. **Self time per span name.** A report stage's *self* time is its
   total minus its direct children's totals (children are identified by
   the slash-joined ``path`` strings). Stages sharing a name (e.g. four
   ``mfiblocks.minsup`` iterations) are summed.
2. **Span name → site functions.** A *site* is a function whose body
   opens the span: ``tracer.span("mfiblocks.score")`` with a literal
   first argument, or with a module-level string constant (including
   one imported from another module, like the ``WORKER_*`` span names).
   Spans opened with computed names cannot be discovered statically, so
   :data:`DECLARED_SPAN_SITES` pins the load-bearing ones by hand —
   notably the scoring and mining kernels whose spans are opened in
   driver code that the call graph cannot connect to the kernel
   (injected ``config.scoring`` instances, executor-submitted work).
3. **Site → reachable functions.** A span's self time is attributed to
   every function reachable from any of its sites through the call
   graph — except that the walk does not continue *through* a function
   that is a site of some other span: that function's work is measured
   by its own span, so the parent's self time (which excludes child
   spans by construction) cannot flow past it. The site itself is still
   attributed (its body runs under the parent span up to the child
   ``with``). Within those bounds the join still *over*-attributes —
   sibling call paths under one span overlap — so a function's share is
   an upper bound ("code under this function could account for at most
   this fraction of the run"), capped at 1.0. An upper bound is the
   right direction for a ranking signal: the approximation can never
   demote a hot function to cold, only promote a cold one.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from tools.reprolint.callgraph import CallGraph, ModuleInfo, _own_calls

__all__ = [
    "DECLARED_SPAN_SITES",
    "ProfileError",
    "SpanProfile",
    "ProfileJoin",
    "load_report",
    "discover_span_sites",
]


class ProfileError(ValueError):
    """A profile report could not be read or does not look like one."""


#: Hand-declared span name -> function qualnames doing that span's work.
#: These bridge the joins the call graph cannot make statically: the
#: block-scoring span is opened in MFIBlocks driver code that reaches
#: the scorer only through an injected ``config.scoring`` instance, and
#: the parallel mining/classify spans wrap ``executor.map_chunks`` whose
#: work function travels as data, not as a call.
DECLARED_SPAN_SITES: Dict[str, Tuple[str, ...]] = {
    "mfiblocks.score": (
        "repro.blocking.scoring:BlockScorer.score_block",
        "repro.blocking.scoring:BlockScorer.pair_similarity",
        "repro.parallel.work:score_pair_chunk",
    ),
    "mfiblocks.mine": (
        "repro.mining.fpgrowth:maximal_frequent_itemsets",
    ),
    "fpgrowth.project": (
        "repro.mining.fpgrowth:_projected_database",
    ),
    "fpgrowth.fpmax": (
        "repro.mining.fpgrowth:_fpmax",
        "repro.mining.fpgrowth:_mine_shard",
    ),
    "classify.rank": (
        "repro.parallel.work:classify_pair_chunk",
    ),
    "classify.features": (
        "repro.similarity.features:extract_features",
    ),
}


class SpanProfile:
    """Per-span-name self seconds from one RunReport."""

    def __init__(
        self, self_seconds: Dict[str, float], total_seconds: float
    ) -> None:
        self.self_seconds = self_seconds
        self.total_seconds = total_seconds

    def share(self, span_name: str) -> float:
        """Fraction of the measured run the span's own code accounts for."""
        if self.total_seconds <= 0:
            return 0.0
        return self.self_seconds.get(span_name, 0.0) / self.total_seconds


def load_report(path: Path) -> SpanProfile:
    """Read a RunReport JSON file into per-span self times.

    Accepts schema-v1 reports (``{"schema": 1, "stages": [...],
    "total_seconds": ...}``). Raises :class:`ProfileError` on anything
    else — a perf gate fed a wrong file must fail loudly, not rank
    everything cold.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProfileError(f"cannot read profile report {path}: {exc}")
    if not isinstance(payload, dict) or "stages" not in payload:
        raise ProfileError(
            f"{path} is not a RunReport (no 'stages' block)"
        )
    stages = payload["stages"]
    if not isinstance(stages, list):
        raise ProfileError(f"{path}: 'stages' is not a list")
    totals: Dict[str, float] = {}
    names: Dict[str, str] = {}
    children_sum: Dict[str, float] = {}
    for stage in stages:
        try:
            stage_path = stage["path"]
            name = stage["name"]
            seconds = float(stage["total_seconds"])
        except (TypeError, KeyError, ValueError) as exc:
            raise ProfileError(f"{path}: malformed stage entry: {exc}")
        totals[stage_path] = totals.get(stage_path, 0.0) + seconds
        names[stage_path] = name
        parent, _, _ = stage_path.rpartition("/")
        if parent:
            children_sum[parent] = children_sum.get(parent, 0.0) + seconds
    self_seconds: Dict[str, float] = {}
    for stage_path in sorted(totals):
        own = totals[stage_path] - children_sum.get(stage_path, 0.0)
        if own < 0.0:
            own = 0.0  # clock noise: children can overshoot the parent
        name = names[stage_path]
        self_seconds[name] = self_seconds.get(name, 0.0) + own
    total = payload.get("total_seconds")
    if not isinstance(total, (int, float)) or total <= 0:
        # Fall back to the root stages' sum when the header is absent.
        total = sum(
            totals[p] for p in sorted(totals) if "/" not in p
        )
    return SpanProfile(self_seconds, float(total))


def _module_str_constants(module: ModuleInfo) -> Dict[str, str]:
    """Module-level ``NAME = "literal"`` assignments (span-name table)."""
    constants: Dict[str, str] = {}
    for stmt in module.tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if not (
            isinstance(value, ast.Constant) and isinstance(value.value, str)
        ):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                constants[target.id] = value.value
    return constants


def _span_name_of_arg(
    graph: CallGraph,
    module: ModuleInfo,
    arg: ast.expr,
    constants: Dict[str, str],
) -> Optional[str]:
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.Name):
        if arg.id in constants:
            return constants[arg.id]
        dotted = module.aliases.get(arg.id)
        if dotted is not None:
            # `from repro.obs.worker import WORKER_CHUNK_SPAN`: chase the
            # constant into its defining module.
            origin, _, const_name = dotted.rpartition(".")
            target = graph.modules.get(origin)
            if target is not None:
                return _module_str_constants(target).get(const_name)
    return None


def discover_span_sites(graph: CallGraph) -> Dict[str, Set[str]]:
    """Span name -> functions whose own body opens that span.

    Finds ``<anything>.span(<name>)`` calls whose first argument is a
    string literal or a resolvable module-level string constant.
    Computed names (f-strings, locals) are skipped — declare those in
    :data:`DECLARED_SPAN_SITES` if they matter to the ranking.
    """
    sites: Dict[str, Set[str]] = {}
    constants_cache: Dict[str, Dict[str, str]] = {}
    for qualname in sorted(graph.functions):
        info = graph.functions[qualname]
        module = graph.modules[info.module]
        if module.name not in constants_cache:
            constants_cache[module.name] = _module_str_constants(module)
        for call in _own_calls(info.node):
            if not (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "span"
                and call.args
            ):
                continue
            name = _span_name_of_arg(
                graph, module, call.args[0], constants_cache[module.name]
            )
            if name is not None:
                sites.setdefault(name, set()).add(qualname)
    return sites


class ProfileJoin:
    """Measured share per function: the ranking signal of the perf pass."""

    def __init__(
        self,
        graph: CallGraph,
        profile: SpanProfile,
        declared_sites: Optional[Dict[str, Tuple[str, ...]]] = None,
    ) -> None:
        self.graph = graph
        self.profile = profile
        declared = (
            declared_sites if declared_sites is not None
            else DECLARED_SPAN_SITES
        )
        self.sites: Dict[str, Set[str]] = discover_span_sites(graph)
        for span_name in sorted(declared):
            known = {
                q for q in declared[span_name] if q in graph.functions
            }
            if known:
                self.sites.setdefault(span_name, set()).update(known)
        #: function qualname -> span names it is a site for
        self._site_spans: Dict[str, Set[str]] = {}
        for span_name in sorted(self.sites):
            for site in sorted(self.sites[span_name]):
                self._site_spans.setdefault(site, set()).add(span_name)
        #: span name -> functions its self time is attributed to
        self._attributed: Dict[str, Set[str]] = {}
        for span_name in sorted(self.sites):
            if self.profile.share(span_name) <= 0.0:
                continue
            self._attributed[span_name] = self._attributed_for(span_name)

    def _attributed_for(self, span_name: str) -> Set[str]:
        """Functions the span's self time can reach.

        BFS from the span's sites that attributes every visited
        function but does not expand callees of a function that is a
        site of a *different* span — that function's work has its own
        measurement, so this span's self time stops at its door.
        """
        visited: Set[str] = set()
        queue: List[str] = sorted(self.sites[span_name])
        visited.update(queue)
        while queue:
            current = queue.pop(0)
            other_spans = self._site_spans.get(current, set()) - {span_name}
            if other_spans and current not in self.sites[span_name]:
                continue  # measured by its own span: attribute, don't expand
            for callee, _site in self.graph.callees(current):
                if callee not in visited and callee in self.graph.functions:
                    visited.add(callee)
                    queue.append(callee)
        return visited

    def share_of(self, qualname: str) -> Optional[float]:
        """Upper-bound fraction of measured run time reaching ``qualname``.

        ``None`` means no measured span reaches the function at all —
        distinct from a measured-but-tiny share, which is a float.
        """
        total = 0.0
        seen = False
        for span_name in sorted(self._attributed):
            if qualname in self._attributed[span_name]:
                seen = True
                total += self.profile.share(span_name)
        if not seen:
            return None
        return min(total, 1.0)
