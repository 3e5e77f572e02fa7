"""Rule registry: one :class:`RuleSpec` per rule id.

This module is the single source of truth for what the analyzer can
emit.  ``ALL_RULES`` (re-exported by :mod:`repro.lint.runner` for
compatibility) is derived from it, ``repro lint --explain RULEID``
prints the spec, the SARIF writer embeds it as rule metadata, and
``tools/check_rule_docs.py`` regenerates the reference table in
``docs/static-analysis.md`` from it.  Adding a rule without registering
it here fails the docs check.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RuleSpec:
    """Everything the tooling knows about one rule."""

    id: str
    family: str        # SIM / DET / FAST / MPI / MPIS / OBS / PERF / CFG / SRV / UNIT / E
    summary: str       # one line, shows up in tables and SARIF
    rationale: str     # why this is a defect in *this* codebase
    bad: str           # minimal violating example
    good: str          # the minimal fix of the same example
    #: the path the examples pretend to live at — some rules are
    #: path-scoped (CFG001 to experiments/)
    example_path: str = "snippet.py"


RULES: tuple[RuleSpec, ...] = (
    RuleSpec(
        id="SIM001", family="SIM",
        summary="simulated call never driven by `yield from`",
        rationale=(
            "Engine primitives and rank-program helpers are generators; "
            "calling one without `yield from` silently discards the whole "
            "communication/charging sequence instead of executing it."
        ),
        bad="def program(comm):\n    comm.barrier()\n    yield from comm.bcast(0, root=0)\n",
        good="def program(comm):\n    yield from comm.barrier()\n    yield from comm.bcast(0, root=0)\n",
    ),
    RuleSpec(
        id="DET002", family="DET",
        summary="unseeded or ambient entropy source",
        rationale=(
            "Unseeded RNGs draw from process entropy, so two runs of the "
            "same configuration diverge; every stochastic choice must "
            "come from an explicitly seeded generator."
        ),
        bad="import numpy as np\n\nrng = np.random.default_rng()\n",
        good="import numpy as np\n\nrng = np.random.default_rng(seed)\n",
    ),
    RuleSpec(
        id="DET003", family="DET",
        summary="iteration over a set (hash-seed-dependent order)",
        rationale=(
            "Set iteration order varies with PYTHONHASHSEED; iterating "
            "one feeds that order into results and schedules."
        ),
        bad="for node in {p.node for p in placements}:\n    visit(node)\n",
        good="for node in sorted({p.node for p in placements}):\n    visit(node)\n",
    ),
    RuleSpec(
        id="DET101", family="DET",
        summary="wall-clock/entropy taint reaches a modeled quantity",
        rationale=(
            "The *value* of a wall-clock or entropy read must never reach "
            "an energy/time/traffic quantity or an engine time/work "
            "primitive, even through helper functions.  Logging a "
            "timestamp is fine; modeling with one is not."
        ),
        bad=(
            "import time\n\n"
            "def run(ctx):\n    t0 = time.perf_counter()\n    work()\n"
            "    elapsed_s = time.perf_counter() - t0\n"
            "    yield from ctx.elapse(elapsed_s)\n"
        ),
        good=(
            "def run(ctx, work_flops):\n"
            "    yield from ctx.compute(work_flops)\n"
        ),
    ),
    RuleSpec(
        id="DET102", family="DET",
        summary="set-iteration-order taint reaches a modeled quantity",
        rationale=(
            "Dataflow form of DET003: floating-point accumulation is "
            "order-sensitive, so a value folded in set order differs "
            "between hash seeds even when the set's *contents* are "
            "deterministic.  `sorted()`/`len()`/`min()`/`max()` launder "
            "the order taint."
        ),
        bad=(
            "def total(parts):\n    total_j = 0.0\n"
            "    for key in set(parts):\n        total_j += parts[key]\n"
            "    return total_j\n"
        ),
        good=(
            "def total(parts):\n    total_j = 0.0\n"
            "    for key in sorted(set(parts)):\n        total_j += parts[key]\n"
            "    return total_j\n"
        ),
    ),
    RuleSpec(
        id="FAST001", family="FAST",
        summary="fast-path dispatch without a gated message fallback",
        rationale=(
            "Every closed-form fast path must keep the message-level "
            "fallback behind the same gate, or fast and exact modes "
            "silently diverge."
        ),
        bad=(
            "from repro.simmpi import fastcoll\n\n"
            "def bcast(self, payload, root):\n"
            "    return fastcoll.fast_bcast(self, payload, root)\n"
        ),
        good=(
            "from repro.simmpi import fastcoll\n\n"
            "def bcast(self, payload, root):\n"
            "    return (fastcoll.fast_bcast(self, payload, root)\n"
            "            if self.world.sim.fast_collectives\n"
            "            else self._bcast_message(payload, root))\n"
        ),
    ),
    RuleSpec(
        id="MPI003", family="MPI",
        summary="PAPI start/stop not barrier-fenced in a rank program",
        rationale=(
            "Unfenced counter windows attribute other ranks' skew to "
            "this rank's energy; measurement windows must be entered "
            "and left together."
        ),
        bad=(
            "def monitor(comm, papi):\n"
            "    papi.start()\n"
            "    yield from comm.barrier()\n"
        ),
        good=(
            "def monitor(comm, papi):\n"
            "    yield from comm.barrier()\n"
            "    papi.start()\n"
            "    yield from comm.barrier()\n"
        ),
    ),
    RuleSpec(
        id="MPIS001", family="MPIS",
        summary="statically unmatchable send or receive",
        rationale=(
            "Abstract interpretation over rank classes: a send whose "
            "literal (dest, tag) no receive in any class can accept — "
            "or a receive no send can satisfy — parks a rank forever.  "
            "The static twin of the sanitizer's message-leak/deadlock "
            "errors."
        ),
        bad=(
            "def program(comm, rank):\n"
            "    if rank == 0:\n        yield from comm.send(b'x', dest=1, tag=7)\n"
            "    if rank == 1:\n        m = yield from comm.recv(source=0, tag=9)\n"
        ),
        good=(
            "def program(comm, rank):\n"
            "    if rank == 0:\n        yield from comm.send(b'x', dest=1, tag=7)\n"
            "    if rank == 1:\n        m = yield from comm.recv(source=0, tag=7)\n"
        ),
    ),
    RuleSpec(
        id="MPIS002", family="MPIS",
        summary="rank classes run different collective schedules",
        rationale=(
            "Every rank of a communicator must execute the same "
            "collective sequence.  Enumerating rank classes and "
            "comparing their whole-function schedules (loops compared "
            "structurally, early returns honoured) catches asymmetries "
            "that no single if/else comparison sees."
        ),
        bad=(
            "def program(comm, rank):\n"
            "    if rank == 0:\n"
            "        t = yield from comm.reduce(1.0, root=0)\n"
            "        yield from comm.bcast(t, root=0)\n"
            "    else:\n        t = yield from comm.reduce(1.0, root=0)\n"
        ),
        good=(
            "def program(comm, rank):\n"
            "    t = yield from comm.reduce(1.0, root=0)\n"
            "    t = yield from comm.bcast(t, root=0)\n"
        ),
    ),
    RuleSpec(
        id="MPIS003", family="MPIS",
        summary="blocking send/recv to the class's own rank",
        rationale=(
            "A class with statically known rank K that blocking-sends "
            "to dest=K (or receives from source=K) can never complete: "
            "no other process posts the matching half."
        ),
        bad=(
            "def program(comm, rank):\n"
            "    if rank == 0:\n        yield from comm.send(b'x', dest=0, tag=1)\n"
        ),
        good=(
            "def program(comm, rank):\n"
            "    if rank == 0:\n        yield from comm.send(b'x', dest=1, tag=1)\n"
        ),
    ),
    RuleSpec(
        id="OBS001", family="OBS",
        summary="span opened but never closed / never entered",
        rationale=(
            "An unbalanced tracer span corrupts the trace tree for "
            "every span that follows it."
        ),
        bad=(
            "def program(ctx):\n"
            "    ctx.span('phase')\n"
            "    yield\n"
        ),
        good=(
            "def program(ctx):\n"
            "    with ctx.span('phase'):\n"
            "        yield\n"
        ),
    ),
    RuleSpec(
        id="PERF001", family="PERF",
        summary="per-level np.outer trailing update in a rank program",
        rationale=(
            "The blocked-panel kernels exist precisely to avoid "
            "quadratic per-level outer products; falling back to "
            "np.outer in a rank program rebuilds the slow path."
        ),
        bad=(
            "import numpy as np\n\n"
            "def program(ctx, comm, r_local, n):\n"
            "    for level in range(n):\n"
            "        m = yield from comm.bcast(r_local[level], root=0)\n"
            "        r_local[level:, :] -= np.outer(r_local[level:, level], m)\n"
        ),
        good=(
            "def program(ctx, comm, panels, n):\n"
            "    for level in range(n):\n"
            "        m = yield from comm.bcast(panels.row(level), root=0)\n"
            "        panels.defer_update(level, m)\n"
        ),
    ),
    RuleSpec(
        id="CFG001", family="CFG",
        summary="inline machine/grid construction in experiments/",
        rationale=(
            "Experiments must build machines from declarative configs "
            "so runs are reproducible from the YAML alone."
        ),
        bad=(
            "from repro.experiments.configs import EvaluationGrid\n\n"
            "def tasks():\n"
            "    return list(EvaluationGrid(ranks=(4,)))\n"
        ),
        good=(
            "from repro.experiments.spec import load_spec\n\n"
            "def tasks(path):\n"
            "    return list(load_spec(path).grid())\n"
        ),
        example_path="src/repro/experiments/snippet.py",
    ),
    RuleSpec(
        id="SRV001", family="SRV",
        summary="serve-layer compute or cache-path bypass",
        rationale=(
            "The daemon's dedup and eviction contracts assume cold "
            "computations funnel through the single-flight scheduler "
            "and every cache byte moves through the cache API; a "
            "direct _compute_task/run_task call or a hard-coded "
            ".repro-cache path silently breaks coalescing, byte "
            "accounting, and the journal."
        ),
        bad=(
            "from repro.experiments.sweep import _compute_task\n\n"
            "def handle(server, address, task):\n"
            "    return _compute_task(task)\n"
        ),
        good=(
            "def handle(server, address, task, config, fingerprint):\n"
            "    flight = server.scheduler.submit(\n"
            "        address, task, meta=(config, fingerprint))\n"
            "    return flight.wait(server.compute_timeout_s)\n"
        ),
        example_path="src/repro/serve/handlers.py",
    ),
    RuleSpec(
        id="UNIT001", family="UNIT",
        summary="mixed physical dimensions in add/sub/compare",
        rationale=(
            "Dimensional analysis over (energy, time, bytes, flops) "
            "seeded from naming conventions: adding watts to joules or "
            "comparing seconds to bytes is always a bug, whatever the "
            "numbers happen to be."
        ),
        bad=(
            "def budget(idle_power_w, node_energy_j):\n"
            "    return idle_power_w + node_energy_j\n"
        ),
        good=(
            "def budget(idle_power_w, node_energy_j, dt):\n"
            "    return idle_power_w * dt + node_energy_j\n"
        ),
    ),
    RuleSpec(
        id="UNIT002", family="UNIT",
        summary="power used as energy (or energy as power) without x dt",
        rationale=(
            "W and J differ by a time integration; accumulating a power "
            "into an energy without multiplying by the interval is the "
            "single most common energy-model bug."
        ),
        bad=(
            "def integrate(samples_w, dt):\n"
            "    total_j = 0.0\n"
            "    for pkg_w in samples_w:\n"
            "        total_j += pkg_w\n"
            "    return total_j\n"
        ),
        good=(
            "def integrate(samples_w, dt):\n"
            "    total_j = 0.0\n"
            "    for pkg_w in samples_w:\n"
            "        total_j += pkg_w * dt\n"
            "    return total_j\n"
        ),
    ),
    RuleSpec(
        id="UNIT003", family="UNIT",
        summary="unit-suffixed name bound to a value of another dimension",
        rationale=(
            "A name like `wall_s` or `volume_bytes` is a contract; "
            "binding it to a value whose inferred dimension disagrees "
            "(swapped arguments, wrong return) breaks every downstream "
            "formula silently."
        ),
        bad=(
            "def bandwidth(seconds, nbytes):\n"
            "    return nbytes / seconds\n\n"
            "def rate(wall_s, volume_bytes):\n"
            "    return bandwidth(seconds=volume_bytes, nbytes=wall_s)\n"
        ),
        good=(
            "def bandwidth(seconds, nbytes):\n"
            "    return nbytes / seconds\n\n"
            "def rate(wall_s, volume_bytes):\n"
            "    return bandwidth(seconds=wall_s, nbytes=volume_bytes)\n"
        ),
    ),
    RuleSpec(
        id="E999", family="E",
        summary="file does not parse",
        rationale=(
            "A syntax error hides every other finding in the file; it "
            "is reported as a finding so CI surfaces it uniformly."
        ),
        bad="def broken(:\n    pass\n",
        good="def broken():\n    pass\n",
    ),
)

RULES_BY_ID: dict[str, RuleSpec] = {spec.id: spec for spec in RULES}

#: every rule id the analyzer can emit, in registry order
ALL_RULES: tuple[str, ...] = tuple(spec.id for spec in RULES)


def explain(rule_id: str) -> str:
    """Human-readable explanation for ``repro lint --explain``."""
    spec = RULES_BY_ID.get(rule_id.upper())
    if spec is None:
        raise KeyError(rule_id)
    bad = "\n".join(f"    {line}" for line in spec.bad.rstrip().splitlines())
    good = "\n".join(f"    {line}" for line in spec.good.rstrip().splitlines())
    return (
        f"{spec.id}: {spec.summary}\n\n"
        f"{spec.rationale}\n\n"
        f"Violates:\n\n{bad}\n\n"
        f"Fixed:\n\n{good}\n"
    )
