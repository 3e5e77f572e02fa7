"""Lint driver: parse, infer whole-tree facts, run rule passes, cache.

The run is phased because the interprocedural passes need a whole-tree
view: first every file is parsed into a
:class:`~repro.lint.model.ModuleInfo`; then the whole-tree facts are
computed — the simcall-name inference (SIM001), the call graph, and the
interprocedural return-dimension (UNIT) and return-taint (DET1xx)
summaries; only then do the per-module rule passes execute.
Suppressions (``# repro: allow[RULE]``) are applied before anything is
cached or reported, so a suppressed finding never reaches the baseline
or the output.

Per-file rule passes are **incremental**: results are cached
content-addressed by the file's source, the analyzer's own sources,
the whole-tree facts, and the options (see :mod:`repro.lint.cache`).
On a warm run only changed files are re-analyzed; ``--jobs N`` runs
the misses through a fork pool.
"""

from __future__ import annotations

import multiprocessing
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint import (
    rules_cfg,
    rules_det,
    rules_det_flow,
    rules_fast,
    rules_mpi,
    rules_mpis,
    rules_obs,
    rules_perf,
    rules_sim,
    rules_srv,
    rules_unit,
)
from repro.lint.cache import LintCache, content_hash, default_lint_cache, tree_digest
from repro.lint.findings import Finding, sort_findings
from repro.lint.flow import CallGraph, build_call_graph
from repro.lint.model import ModuleInfo, infer_simcall_names, parse_module
from repro.lint.registry import ALL_RULES  # noqa: F401  (public re-export)
from repro.lint.suppressions import collect_suppressions, is_suppressed


@dataclass
class LintOptions:
    """Knobs for one lint run.

    ``det_scope`` restricts the DET determinism rules (syntactic and
    flow-based) to paths containing any of the given substrings — the
    deterministic-core contract covers ``src/repro``; tools and
    examples may legitimately read clocks.  Set to ``()`` to lint
    determinism everywhere (the fixture tests do).

    ``jobs`` > 1 analyzes cache-miss files in a fork pool; ``use_cache``
    False forces a cold run regardless of ``REPRO_CACHE_DIR``.
    """

    det_scope: tuple[str, ...] = ("src/repro",)
    select: frozenset[str] | None = None  # None = all rules
    jobs: int = 1
    use_cache: bool = True


@dataclass
class LintResult:
    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


@dataclass
class _TreeFacts:
    """Everything the per-module passes consume beyond the module."""

    simcall_names: frozenset[str]
    code_defined: frozenset[str]
    graph: CallGraph
    unit_ctx: dict
    det_ctx: dict
    options: LintOptions

    def digest(self) -> str:
        def fkey(key: tuple[str, str]) -> str:
            return f"{key[0]}::{key[1]}"

        return tree_digest({
            "simcalls": sorted(self.simcall_names),
            "defined": sorted(self.code_defined),
            "functions": {
                fkey(key): [a.arg for a in fn.node.args.args]
                for key, fn in self.graph.by_qualname.items()
            },
            "unit": {fkey(k): list(v) if v is not None else None
                     for k, v in self.unit_ctx.items()},
            "taint": {fkey(k): sorted(v) for k, v in self.det_ctx.items()},
        })

    def options_key(self) -> str:
        select = sorted(self.options.select) if self.options.select else None
        return repr((tuple(self.options.det_scope), select))


def _det_applies(path: str, options: LintOptions) -> bool:
    if not options.det_scope:
        return True
    normalized = path.replace("\\", "/")
    return any(scope in normalized for scope in options.det_scope)


def _selected(findings: list[Finding], options: LintOptions) -> list[Finding]:
    if options.select is None:
        return findings
    return [f for f in findings if f.rule in options.select]


def _lint_module(module: ModuleInfo, facts: _TreeFacts) -> list[Finding]:
    options = facts.options
    findings: list[Finding] = []
    findings.extend(rules_sim.check(module, facts.simcall_names,
                                    facts.code_defined))
    if _det_applies(module.path, options):
        findings.extend(rules_det.check(module))
        findings.extend(rules_det_flow.check(
            module, graph=facts.graph, return_taints=facts.det_ctx))
    findings.extend(rules_fast.check(module))
    findings.extend(rules_mpi.check(module))
    findings.extend(rules_mpis.check(module))
    findings.extend(rules_obs.check(module))
    findings.extend(rules_perf.check(module))
    findings.extend(rules_cfg.check(module))
    findings.extend(rules_srv.check(module))
    findings.extend(rules_unit.check(module, graph=facts.graph,
                                     return_dims=facts.unit_ctx))
    findings = _selected(findings, options)
    suppressions = collect_suppressions(module.source)
    return [
        f for f in findings
        if not is_suppressed(f.rule, f.line, suppressions)
    ]


def _collect_files(paths: list[str]) -> list[tuple[Path, str]]:
    files: list[tuple[Path, str]] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for sub in sorted(p.rglob("*.py")):
                if "__pycache__" in sub.parts:
                    continue
                files.append((sub, str(sub)))
        else:
            files.append((p, str(p)))
    return files


def build_tree_facts(modules: list[ModuleInfo],
                     options: LintOptions) -> _TreeFacts:
    simcall_names, code_defined = infer_simcall_names(modules)
    graph = build_call_graph(modules)
    return _TreeFacts(
        simcall_names=simcall_names,
        code_defined=code_defined,
        graph=graph,
        unit_ctx=rules_unit.build_context(modules, graph),
        det_ctx=rules_det_flow.build_context(modules, graph),
        options=options,
    )


# Fork-pool state: workers inherit these via fork (same idiom as the
# experiment sweep driver); never used on the spawn start method.
_POOL_MODULES: list[ModuleInfo] = []
_POOL_FACTS: _TreeFacts | None = None


def _pool_lint(index: int) -> tuple[int, list[Finding]]:
    return index, _lint_module(_POOL_MODULES[index], _POOL_FACTS)


def _lint_modules(modules: list[ModuleInfo],
                  facts: _TreeFacts) -> list[list[Finding]]:
    jobs = facts.options.jobs
    if jobs > 1 and len(modules) > 1 and sys.platform != "win32":
        global _POOL_MODULES, _POOL_FACTS
        _POOL_MODULES, _POOL_FACTS = modules, facts
        try:
            ctx = multiprocessing.get_context("fork")
            results: list[list[Finding]] = [[] for _ in modules]
            with ctx.Pool(processes=min(jobs, len(modules))) as pool:
                for index, findings in pool.imap_unordered(
                        _pool_lint, range(len(modules))):
                    results[index] = findings
            return results
        finally:
            _POOL_MODULES, _POOL_FACTS = [], None
    return [_lint_module(module, facts) for module in modules]


def lint_paths(paths: list[str],
               options: LintOptions | None = None) -> LintResult:
    """Lint files/directories; directories are walked for ``*.py``."""
    options = options or LintOptions()
    result = LintResult()
    modules: list[ModuleInfo] = []
    for path, shown in _collect_files(paths):
        result.files_checked += 1
        try:
            source = path.read_text(encoding="utf-8")
            modules.append(parse_module(source, shown))
        except (SyntaxError, UnicodeDecodeError) as exc:
            line = getattr(exc, "lineno", None) or 1
            result.findings.append(Finding(
                path=shown, line=line, col=1, rule="E999",
                message=f"file does not parse: {exc.msg if isinstance(exc, SyntaxError) else exc}",
            ))
    facts = build_tree_facts(modules, options)

    cache: LintCache | None = None
    tree = opts_key = ""
    if options.use_cache:
        cache = default_lint_cache()
    if cache is not None:
        tree = facts.digest()
        opts_key = facts.options_key()

    misses: list[ModuleInfo] = []
    hashes: dict[str, str] = {}
    for module in modules:
        if cache is None:
            misses.append(module)
            continue
        hashes[module.path] = content_hash(module.source)
        cached = cache.get(hashes[module.path], tree, opts_key)
        if cached is None:
            misses.append(module)
        else:
            result.findings.extend(cached)
            result.cache_hits += 1
    result.cache_misses = len(misses)

    for module, findings in zip(misses, _lint_modules(misses, facts)):
        result.findings.extend(findings)
        if cache is not None:
            cache.put(hashes[module.path], tree, opts_key, findings)

    result.findings = sort_findings(result.findings)
    return result


def lint_source(source: str, path: str = "<string>",
                options: LintOptions | None = None) -> list[Finding]:
    """Lint one in-memory snippet (the unit tests' entry point)."""
    options = options or LintOptions(det_scope=())
    try:
        module = parse_module(source, path)
    except SyntaxError as exc:
        return [Finding(path=path, line=exc.lineno or 1, col=1,
                        rule="E999",
                        message=f"file does not parse: {exc.msg}")]
    facts = build_tree_facts([module], options)
    return sort_findings(_lint_module(module, facts))
