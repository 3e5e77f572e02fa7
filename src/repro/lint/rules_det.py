"""DET00x — determinism lints.

A run of the simulator must be a pure function of its seeds: the
fast-path equivalence contract, the byte-identical trace exports, and
every committed baseline depend on it.  Two rule ids:

* **DET002** — unseeded / ambient entropy: the ``random`` module's
  global RNG, legacy ``numpy.random.*`` global functions,
  ``numpy.random.default_rng()`` *without* a seed, ``os.urandom``,
  ``uuid.uuid1/uuid4``, ``secrets``.  Randomness must flow from a
  seeded ``numpy.random.default_rng(seed)`` (or ``random.Random(seed)``)
  so repetitions replay exactly.
* **DET003** — iterating a ``set``/``frozenset`` directly in a ``for``
  or comprehension.  Set iteration order depends on hash seeding and
  insertion history; feeding it into anything ordering-sensitive
  (scheduling, reduction order, output) breaks determinism.  Sort it.

These rules apply to ``src/repro`` (the deterministic core).  Wall-clock
reads are not flagged here: reading the host clock is legitimate in
benchmarks and reporting, and :mod:`repro.lint.rules_det_flow` (DET101)
flags the read's *value* reaching a modeled quantity.  ``WALL_CLOCK``
is that rule's source vocabulary.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.model import ModuleInfo

WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: ``random`` module-level functions backed by the global (unseeded) RNG
GLOBAL_RANDOM = frozenset({
    "random", "randint", "randrange", "randbytes", "getrandbits",
    "choice", "choices", "shuffle", "sample", "uniform", "triangular",
    "betavariate", "expovariate", "gammavariate", "gauss", "lognormvariate",
    "normalvariate", "vonmisesvariate", "paretovariate", "weibullvariate",
})

#: ``numpy.random`` attributes that are fine (seeded-generator API)
NUMPY_SEEDED_API = frozenset({
    "default_rng", "Generator", "SeedSequence", "RandomState",
    "BitGenerator", "PCG64", "Philox", "SFC64", "MT19937",
})

ENTROPY = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})


def _finding(module: ModuleInfo, node: ast.AST, rule: str,
             message: str) -> Finding:
    return Finding(
        path=module.path,
        line=node.lineno,
        col=node.col_offset + 1,
        rule=rule,
        message=message,
        text=module.line_text(node.lineno),
    )


def _check_call(module: ModuleInfo, call: ast.Call) -> Finding | None:
    canonical = module.canonical(call.func)
    if canonical is None:
        return None
    if canonical in ENTROPY or canonical.startswith("secrets."):
        return _finding(
            module, call, "DET002",
            f"ambient entropy '{canonical}()' breaks seeded replay; "
            "derive randomness from numpy.random.default_rng(seed)",
        )
    if canonical.startswith("random."):
        leaf = canonical.rsplit(".", 1)[1]
        if leaf in GLOBAL_RANDOM:
            return _finding(
                module, call, "DET002",
                f"'{canonical}()' uses the global unseeded RNG; "
                "use a seeded random.Random(seed) or "
                "numpy.random.default_rng(seed)",
            )
    if canonical.startswith("numpy.random."):
        leaf = canonical[len("numpy.random."):]
        if leaf in ("default_rng", "RandomState") and not call.args \
                and not call.keywords:
            return _finding(
                module, call, "DET002",
                f"'{canonical}()' without a seed draws OS entropy; "
                "pass an explicit seed",
            )
        if "." not in leaf and leaf not in NUMPY_SEEDED_API:
            return _finding(
                module, call, "DET002",
                f"legacy global-RNG call '{canonical}()'; "
                "use numpy.random.default_rng(seed)",
            )
    return None


def _is_set_expr(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Set):
        return True
    if isinstance(expr, ast.SetComp):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) \
            and expr.func.id in ("set", "frozenset"):
        return True
    return False


def _check_set_iteration(module: ModuleInfo, tree: ast.Module) -> list[Finding]:
    findings = []
    for node in ast.walk(tree):
        iters: list[ast.expr] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if _is_set_expr(it):
                findings.append(_finding(
                    module, it, "DET003",
                    "iteration over a set has hash-seed-dependent order; "
                    "sort it (sorted(...)) before feeding an "
                    "ordering-sensitive sink",
                ))
    return findings


def check(module: ModuleInfo) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            found = _check_call(module, node)
            if found is not None:
                findings.append(found)
    findings.extend(_check_set_iteration(module, module.tree))
    return findings
