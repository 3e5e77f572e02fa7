"""Lint driver: parse, infer whole-tree facts, run rule passes.

The run is phased because the interprocedural passes need a whole-tree
view: first every file is parsed into a
:class:`~repro.lint.model.ModuleInfo`; then the whole-tree facts are
computed — the simcall-name inference (SIM001), the call graph, and the
interprocedural return-dimension (UNIT) and return-taint (DET1xx)
summaries; only then do the per-module rule passes execute.
Suppressions (``# repro: allow[RULE]``) are applied before anything is
reported, so a suppressed finding never reaches the output.

Every run does all three phases over every file, so a run's findings
are a function of the files' sources and their paths alone.
"""

from __future__ import annotations

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
from repro.lint.findings import Finding, sort_findings
from repro.lint.flow.callgraph import CallGraph, build_call_graph
from repro.lint.model import ModuleInfo, infer_simcall_names, parse_module
from repro.lint.suppressions import collect_suppressions, is_suppressed


@dataclass
class LintOptions:
    """Knobs for one lint run.

    ``det_scope`` restricts the DET determinism rules (syntactic and
    flow-based) to paths containing any of the given substrings — the
    deterministic-core contract covers ``src/repro``; tools and
    examples may legitimately read clocks.  Set to ``()`` to lint
    determinism everywhere (the fixture tests do).

    ``select`` keeps only the findings of the given rule ids.
    """

    det_scope: tuple[str, ...] = ("src/repro",)
    select: frozenset[str] | None = None  # None = all rules


@dataclass
class LintResult:
    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0

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
    for module in modules:
        result.findings.extend(_lint_module(module, facts))
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
