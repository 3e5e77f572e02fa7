"""Declarative experiment specs: YAML text → machines, grids, sweep tasks.

The paper's evaluation was a fixed grid hard-coded in Python
constructors; this loader makes every machine, placement, solver option,
and experiment grid a *file* instead of a code change (ROADMAP item 4).
A spec names one or two grids (``experiment``, and optionally ``quick``
for the validation-scale DES path), the machines they run on (with
inheritance: a ``base`` preset plus field overrides), per-solver option
overrides, and the observability/cache knobs.  ``compile_tasks`` lowers
a loaded spec to the exact :class:`~repro.experiments.sweep.SweepTask`
tuples the constructor-driven ``repro sweep`` path produces, so a config
file and the legacy path are **bit-identical and share cache entries**
(see docs/configuration.md for the canonicalization contract).

>>> from repro.experiments.spec import compile_tasks, dump_spec, load_text
>>> spec, warnings = load_text('''
... experiment:
...   mode: analytic          # closed-form model, paper scale
...   matrix_sizes: [8640]
...   ranks: [144]
... ''')
>>> warnings
[]
>>> [t.label for t in compile_tasks(spec)]
['ime-n8640-p144-full', 'scalapack-n8640-p144-full']
>>> load_text(dump_spec(spec))[0] == spec    # canonical round-trip
True
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.cluster.machine import (
    MachineSpec,
    NetworkParams,
    marconi_a3,
    small_test_machine,
)
from repro.cluster.placement import LoadShape, layout_for
from repro.energy.power_model import PowerParams
from repro.experiments.configs import PAPER_REPETITIONS
from repro.experiments.spec import yamlread
from repro.experiments.spec.schema import Issue, SpecError, Walker
from repro.experiments.sweep import SweepTask
from repro.solvers.ime.ft_parallel import FtOptions
from repro.solvers.ime.parallel import ImeOptions
from repro.solvers.scalapack.pdgesv import ScalapackOptions

#: the one schema revision this loader reads and writes
SCHEMA_VERSION = 1

#: machine presets a ``base:`` (or a grid ``machine:``) may name directly
BUILTIN_MACHINES = {
    "marconi-a3": marconi_a3,
    "small-test": small_test_machine,
}

MODES = ("analytic", "monitored")
#: the ``skeleton:`` stanza's only mode — exact-skeleton DES, paper scale
SKELETON_MODE = "skeleton"
ALGORITHMS = ("ime", "scalapack")
_SHAPE_VALUES = tuple(s.value for s in LoadShape)

#: solver-option dataclasses the ``solvers:`` section validates against
SOLVER_OPTION_TYPES = {
    "ime": ImeOptions,
    "ft": FtOptions,
    "scalapack": ScalapackOptions,
}
#: non-scalar fields a config cannot express
_SOLVER_FIELD_EXCLUDE = {"scalapack": frozenset({"grid"})}

#: DES runs execute real numerics; beyond this the run is minutes+
MONITORED_N_LIMIT = 600


# ------------------------------------------------------------- spec model

@dataclass(frozen=True)
class GridSpec:
    """One experiment grid, as written (resolution happens at compile)."""

    mode: str = "analytic"
    machine: str | None = None          # machines/preset name; None = default
    algorithms: tuple[str, ...] = ALGORITHMS
    matrix_sizes: tuple[int, ...] | None = None
    ranks: tuple[int, ...] | None = None
    points: tuple[tuple[int, int], ...] | None = None  # explicit (n, ranks)
    shapes: tuple[str, ...] = (LoadShape.FULL.value,)
    repetitions: int = PAPER_REPETITIONS
    seed: int = 0
    power_caps: tuple[float | None, ...] = (None,)

    def iter_points(self):
        """(n, ranks) pairs in deterministic grid order."""
        if self.points is not None:
            yield from self.points
        else:
            for n in self.matrix_sizes:
                for ranks in self.ranks:
                    yield (n, ranks)


@dataclass(frozen=True)
class SolversSpec:
    """Non-default solver-option fields, canonically sorted per solver."""

    ime: tuple[tuple[str, Any], ...] = ()
    ft: tuple[tuple[str, Any], ...] = ()
    scalapack: tuple[tuple[str, Any], ...] = ()

    def for_algorithm(self, algorithm: str) -> tuple[tuple[str, Any], ...]:
        return getattr(self, algorithm, ())

    def __bool__(self) -> bool:
        return bool(self.ime or self.ft or self.scalapack)


@dataclass(frozen=True)
class ObsSpec:
    """Observability knobs (tracer applies to monitored grids only)."""

    tracer: bool = False
    trace_dir: str = "traces"


@dataclass(frozen=True)
class RunSpec:
    """One loaded config file, fully resolved and canonicalized."""

    schema: int = SCHEMA_VERSION
    machines: tuple[tuple[str, MachineSpec], ...] = ()
    experiment: GridSpec = field(default_factory=GridSpec)
    quick: GridSpec | None = None
    #: exact-skeleton DES grid (``repro run --skeleton``); mode is
    #: always ``"skeleton"`` and the default machine is Marconi A3
    skeleton: GridSpec | None = None
    solvers: SolversSpec = field(default_factory=SolversSpec)
    observability: ObsSpec = field(default_factory=ObsSpec)
    cache_dir: str | None = None

    def machine_named(self, name: str) -> MachineSpec:
        for key, machine in self.machines:
            if key == name:
                return machine
        if name in BUILTIN_MACHINES:
            return BUILTIN_MACHINES[name]()
        raise KeyError(name)


# -------------------------------------------------------- machine loading

_MACHINE_SCALARS = {
    "sockets_per_node": int,
    "cores_per_socket": int,
    "core_freq_hz": float,
    "dram_gb_per_node": float,
    "core_peak_flops": float,
    "node_peak_flops": float,
}


def _load_params(walk: Walker, mapping: dict, key: str, field_path: str,
                 base, params_cls):
    """A power/network sub-mapping merged field-wise over the base."""
    node = mapping.get(key)
    if node is None:
        return base
    sub = walk.mapping(node, f"{field_path}.{key}")
    names = {f.name: float for f in dataclasses.fields(params_cls)}
    walk.check_keys(sub, f"{field_path}.{key}", names)
    overrides = {}
    for name in names:
        if name in sub:
            value = walk.get(sub, name, float, f"{field_path}.{key}")
            if value is not None:
                overrides[name] = value
    return dataclasses.replace(base, **overrides)


def _load_machine(walk: Walker, name: str, node, field_path: str,
                  resolved: dict[str, MachineSpec]) -> MachineSpec | None:
    mapping = walk.mapping(node, field_path)
    allowed = ({"base", "name", "power", "network"}
               | set(_MACHINE_SCALARS))
    walk.check_keys(mapping, field_path, allowed)
    base_name = walk.get(mapping, "base", str, field_path,
                         default="marconi-a3")
    if base_name in resolved:
        base = resolved[base_name]
    elif base_name in BUILTIN_MACHINES:
        base = BUILTIN_MACHINES[base_name]()
    else:
        base_line = mapping["base"].line if "base" in mapping else node.line
        walk.error(base_line, f"{field_path}.base",
                   f"unknown base machine {base_name!r}; expected a "
                   f"preset ({', '.join(sorted(BUILTIN_MACHINES))}) or an "
                   "earlier entry in machines:")
        return None
    overrides: dict[str, Any] = {
        "name": walk.get(mapping, "name", str, field_path, default=name),
    }
    for fname, ftype in _MACHINE_SCALARS.items():
        if fname in mapping:
            value = walk.get(mapping, fname, ftype, field_path)
            if value is not None:
                overrides[fname] = value
    overrides["power"] = _load_params(walk, mapping, "power", field_path,
                                      base.power, PowerParams)
    overrides["network"] = _load_params(walk, mapping, "network", field_path,
                                        base.network, NetworkParams)
    return dataclasses.replace(base, **overrides)


# ----------------------------------------------------------- grid loading

def _load_points(walk: Walker, mapping: dict, field_path: str):
    node = mapping.get("points")
    if node is None:
        return None
    where = f"{field_path}.points"
    if not isinstance(node.value, list):
        walk.error(node.line, where, "expected a list of [n, ranks] pairs")
        return None
    points = []
    for i, item in enumerate(node.value):
        raw = item.value if isinstance(item, yamlread.Node) else item
        line = item.line if isinstance(item, yamlread.Node) else node.line
        if (not isinstance(raw, list) or len(raw) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool)
                           for v in raw)):
            walk.error(line, f"{where}[{i}]",
                       f"expected an [n, ranks] integer pair, "
                       f"got {raw!r}")
            continue
        points.append((raw[0], raw[1]))
    return tuple(points)


def _load_power_caps(walk: Walker, mapping: dict, field_path: str):
    node = mapping.get("power_caps")
    if node is None:
        return (None,)
    where = f"{field_path}.power_caps"
    if not isinstance(node.value, list):
        walk.error(node.line, where, "expected a list of watts (null = "
                                     "uncapped)")
        return (None,)
    caps = []
    for i, item in enumerate(node.value):
        raw = item.value if isinstance(item, yamlread.Node) else item
        line = item.line if isinstance(item, yamlread.Node) else node.line
        if raw is None:
            caps.append(None)
        elif isinstance(raw, (int, float)) and not isinstance(raw, bool) \
                and raw > 0:
            caps.append(float(raw))
        else:
            walk.error(line, f"{where}[{i}]",
                       f"expected positive watts or null, got {raw!r}")
    return tuple(caps) if caps else (None,)


_GRID_KEYS = {"mode", "machine", "algorithms", "matrix_sizes", "ranks",
              "points", "shapes", "repetitions", "seed", "power_caps"}


def _load_grid(walk: Walker, node, field_path: str,
               machines: dict[str, MachineSpec],
               modes: tuple[str, ...] = MODES,
               default_mode: str = "analytic") -> GridSpec | None:
    mapping = walk.mapping(node, field_path)
    walk.check_keys(mapping, field_path, _GRID_KEYS)

    mode = walk.get(mapping, "mode", str, field_path, default=default_mode)
    if mode not in modes:
        walk.error(mapping["mode"].line, f"{field_path}.mode",
                   f"unknown mode {mode!r}; expected one of "
                   f"{', '.join(modes)}")
        mode = default_mode

    machine = walk.get(mapping, "machine", str, field_path)
    if machine is not None and machine not in machines \
            and machine not in BUILTIN_MACHINES:
        walk.error(mapping["machine"].line, f"{field_path}.machine",
                   f"unknown machine {machine!r}; expected a machines: "
                   f"entry or a preset "
                   f"({', '.join(sorted(BUILTIN_MACHINES))})")
        machine = None

    algorithms = walk.scalar_list(mapping, "algorithms", str, field_path,
                                  default=ALGORITHMS)
    for i, algorithm in enumerate(algorithms or ()):
        if algorithm not in ALGORITHMS:
            walk.error(mapping["algorithms"].line,
                       f"{field_path}.algorithms[{i}]",
                       f"unknown algorithm {algorithm!r}; expected one of "
                       f"{', '.join(ALGORITHMS)}")
    if not algorithms:
        walk.error(node.line, f"{field_path}.algorithms",
                   "needs at least one algorithm")
        algorithms = ALGORITHMS

    matrix_sizes = walk.scalar_list(mapping, "matrix_sizes", int, field_path)
    ranks = walk.scalar_list(mapping, "ranks", int, field_path)
    points = _load_points(walk, mapping, field_path)
    if points is not None and (matrix_sizes is not None or ranks is not None):
        walk.error(mapping["points"].line, f"{field_path}.points",
                   "give either points or matrix_sizes+ranks, not both")
    if points is None:
        if matrix_sizes is None or ranks is None:
            walk.error(node.line, field_path,
                       "needs matrix_sizes+ranks (a product grid) or "
                       "points (explicit [n, ranks] pairs)")
            matrix_sizes, ranks = (), ()
        for i, n in enumerate(matrix_sizes):
            if n <= 0:
                walk.error(mapping["matrix_sizes"].line,
                           f"{field_path}.matrix_sizes[{i}]",
                           f"matrix dimension must be positive: {n}")
        for i, r in enumerate(ranks):
            if r <= 0:
                walk.error(mapping["ranks"].line, f"{field_path}.ranks[{i}]",
                           f"rank count must be positive: {r}")

    shapes = walk.scalar_list(mapping, "shapes", str, field_path,
                              default=(LoadShape.FULL.value,))
    for i, shape in enumerate(shapes or ()):
        if shape not in _SHAPE_VALUES:
            walk.error(mapping["shapes"].line, f"{field_path}.shapes[{i}]",
                       f"unknown shape {shape!r}; expected one of "
                       f"{', '.join(_SHAPE_VALUES)}")
    if not shapes:
        shapes = (LoadShape.FULL.value,)

    if mode == "analytic":
        default_reps = PAPER_REPETITIONS
    elif mode == SKELETON_MODE:
        default_reps = 1  # deterministic: one evaluation covers them all
    else:
        default_reps = 3
    repetitions = walk.get(mapping, "repetitions", int, field_path,
                           default=default_reps)
    if repetitions is not None and repetitions < 1:
        walk.error(mapping["repetitions"].line, f"{field_path}.repetitions",
                   f"repetitions must be >= 1, got {repetitions}")
        repetitions = default_reps
    seed = walk.get(mapping, "seed", int, field_path, default=0)

    power_caps = _load_power_caps(walk, mapping, field_path)
    if mode != "analytic" and any(c is not None for c in power_caps):
        walk.error(mapping["power_caps"].line, f"{field_path}.power_caps",
                   "power caps are analytic-mode only (the DES pipeline "
                   "does not take a cap)")
        power_caps = (None,)

    if not walk.ok:
        return None
    return GridSpec(
        mode=mode, machine=machine, algorithms=tuple(algorithms),
        matrix_sizes=matrix_sizes, ranks=ranks, points=points,
        shapes=tuple(shapes), repetitions=repetitions, seed=seed,
        power_caps=power_caps,
    )


# --------------------------------------------------------- solver options

def _solver_field_types(solver: str) -> dict[str, type]:
    """Config-expressible fields of one solver-options dataclass."""
    exclude = _SOLVER_FIELD_EXCLUDE.get(solver, frozenset())
    out: dict[str, type] = {}
    for f in dataclasses.fields(SOLVER_OPTION_TYPES[solver]):
        if f.name in exclude:
            continue
        default = f.default
        if isinstance(default, bool):
            out[f.name] = bool
        elif isinstance(default, int):
            out[f.name] = int
        elif isinstance(default, float):
            out[f.name] = float
        elif isinstance(default, str):
            out[f.name] = str
        elif default is None:            # e.g. FtOptions.fail_rank
            out[f.name] = int
    return out


def _load_solvers(walk: Walker, node) -> SolversSpec:
    mapping = walk.mapping(node, "solvers")
    walk.check_keys(mapping, "solvers", SOLVER_OPTION_TYPES)
    sections: dict[str, tuple] = {}
    for solver, child in mapping.items():
        if solver not in SOLVER_OPTION_TYPES:
            continue
        field_path = f"solvers.{solver}"
        sub = walk.mapping(child, field_path)
        types = _solver_field_types(solver)
        walk.check_keys(sub, field_path, types)
        defaults = SOLVER_OPTION_TYPES[solver]()
        pairs = []
        for name, type_ in types.items():
            if name not in sub:
                continue
            if sub[name].value is None and name == "fail_rank":
                continue                  # explicit null = default
            value = walk.get(sub, name, type_, field_path)
            if value is None:
                continue
            if value != getattr(defaults, name):
                pairs.append((name, value))
        if pairs:
            try:
                dataclasses.replace(defaults, **dict(pairs))
            except ValueError as exc:     # dataclass __post_init__ checks
                walk.error(child.line, field_path, str(exc))
                continue
            sections[solver] = tuple(sorted(pairs))
    return SolversSpec(**sections)


# ------------------------------------------------------- top-level loading

_TOP_KEYS = {"schema", "machines", "experiment", "quick", "skeleton",
             "solvers", "observability", "cache"}


def _lint_grid(walk: Walker, grid: GridSpec, node, field_path: str,
               machines: dict[str, MachineSpec]) -> None:
    """Post-load checks: runtime-fatal layouts are errors, suspicious
    values are warnings."""
    mapping = mapping_of(node)
    line_of = lambda key: (mapping[key].line if key in mapping  # noqa: E731
                           else node.line)
    if grid.machine is not None:
        machine = machines.get(grid.machine) \
            or BUILTIN_MACHINES[grid.machine]()
    else:
        machine = (marconi_a3()
                   if grid.mode in ("analytic", SKELETON_MODE) else None)

    seen_ranks: set[int] = set()
    for _n, ranks in grid.iter_points():
        if ranks in seen_ranks:
            continue
        seen_ranks.add(ranks)
        rank_field = (f"{field_path}.ranks" if grid.points is None
                      else f"{field_path}.points")
        rank_line = line_of("ranks" if grid.points is None else "points")
        if grid.mode == "analytic" and "ime" in grid.algorithms \
                and math.isqrt(ranks) ** 2 != ranks:
            walk.warn(rank_line, rank_field,
                      f"{ranks} ranks is not a square number — IMe "
                      "deployments require one (paper §5.1)")
        if machine is not None:
            for shape in grid.shapes:
                try:
                    # Skeleton (DES) grids may leave a partial last node
                    # (the paper grid's p=3188); analytic ones may not.
                    layout_for(ranks, LoadShape(shape), machine,
                               allow_tail=grid.mode == SKELETON_MODE)
                except ValueError as exc:
                    walk.error(rank_line, rank_field,
                               f"impossible layout on "
                               f"{machine.name}: {exc}")
    if grid.mode == "monitored":
        for n, _ranks in grid.iter_points():
            if n > MONITORED_N_LIMIT:
                walk.warn(line_of("matrix_sizes"
                                  if grid.points is None else "points"),
                          f"{field_path}.matrix_sizes"
                          if grid.points is None else f"{field_path}.points",
                          f"monitored (DES) runs execute real numerics; "
                          f"n={n} exceeds the practical limit "
                          f"of {MONITORED_N_LIMIT}")
                break
    if machine is not None:
        for i, cap in enumerate(grid.power_caps):
            if cap is not None and cap >= machine.power.pkg_tdp_w:
                walk.warn(line_of("power_caps"),
                          f"{field_path}.power_caps[{i}]",
                          f"cap {cap:g} W is at or above the package TDP "
                          f"({machine.power.pkg_tdp_w:g} W) and has no "
                          "effect")


def mapping_of(node) -> dict:
    return node.value if isinstance(node.value, dict) else {}


def check_text(text: str, path: str = "<config>"):
    """Validate a spec; returns ``(RunSpec | None, issues)`` (no raise)."""
    walk = Walker(path)
    try:
        root = yamlread.parse(text)
    except yamlread.YamlError as exc:
        walk.error(exc.line, "", exc.message)
        return None, walk.issues

    top = walk.mapping(root, "")
    walk.check_keys(top, "", _TOP_KEYS)

    schema = walk.get(top, "schema", int, "", default=SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        walk.error(top["schema"].line if "schema" in top else root.line,
                   "schema",
                   f"unsupported schema version {schema!r} "
                   f"(this loader reads {SCHEMA_VERSION})")

    machines: dict[str, MachineSpec] = {}
    if "machines" in top:
        for name, child in walk.mapping(top["machines"], "machines").items():
            machine = _load_machine(walk, name, child,
                                    f"machines.{name}", machines)
            if machine is not None:
                machines[name] = machine

    if "experiment" not in top:
        walk.error(root.line, "experiment", "required key is missing")
        return None, walk.issues
    experiment = _load_grid(walk, top["experiment"], "experiment", machines)
    quick = None
    if "quick" in top:
        quick = _load_grid(walk, top["quick"], "quick", machines)
    skeleton = None
    if "skeleton" in top:
        skeleton = _load_grid(walk, top["skeleton"], "skeleton", machines,
                              modes=(SKELETON_MODE,),
                              default_mode=SKELETON_MODE)

    solvers = SolversSpec()
    if "solvers" in top:
        solvers = _load_solvers(walk, top["solvers"])

    observability = ObsSpec()
    if "observability" in top:
        obs_map = walk.mapping(top["observability"], "observability")
        walk.check_keys(obs_map, "observability", {"tracer", "trace_dir"})
        observability = ObsSpec(
            tracer=walk.get(obs_map, "tracer", bool, "observability",
                            default=False),
            trace_dir=walk.get(obs_map, "trace_dir", str, "observability",
                               default="traces"),
        )

    cache_dir = None
    if "cache" in top:
        cache_map = walk.mapping(top["cache"], "cache")
        walk.check_keys(cache_map, "cache", {"dir"})
        cache_dir = walk.get(cache_map, "dir", str, "cache")

    grids = [g for g in (experiment, quick, skeleton) if g is not None]
    if experiment is not None:
        _lint_grid(walk, experiment, top["experiment"], "experiment",
                   machines)
    if quick is not None:
        _lint_grid(walk, quick, top["quick"], "quick", machines)
    if skeleton is not None:
        _lint_grid(walk, skeleton, top["skeleton"], "skeleton", machines)
    if solvers and all(g.mode == "analytic" for g in grids):
        walk.warn(top["solvers"].line, "solvers",
                  "solver options only affect monitored (DES) runs; every "
                  "grid here is analytic, so they are ignored")
    if solvers.ft:
        walk.warn(top["solvers"].line, "solvers.ft",
                  "validated, but no grid algorithm consumes ft options "
                  "yet (the ft-IMe solver is not a sweep algorithm)")
    if observability.tracer and not any(g.mode == "monitored"
                                        for g in grids):
        walk.warn(top["observability"].line, "observability.tracer",
                  "the tracer attaches to monitored (DES) runs only; no "
                  "grid here is monitored")

    if not walk.ok or experiment is None:
        return None, walk.issues
    spec = RunSpec(
        schema=SCHEMA_VERSION,
        machines=tuple(machines.items()),
        experiment=experiment,
        quick=quick,
        skeleton=skeleton,
        solvers=solvers,
        observability=observability,
        cache_dir=cache_dir,
    )
    return spec, walk.issues


def load_text(text: str, path: str = "<config>"):
    """Load a spec from text; returns ``(RunSpec, warnings)`` or raises
    :class:`SpecError` carrying every issue."""
    spec, issues = check_text(text, path)
    if spec is None:
        raise SpecError(issues)
    return spec, issues


def check_path(path):
    """``check_text`` over a file (unreadable files are errors)."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        return None, [Issue("error", str(p), 1, "", f"cannot read: {exc}")]
    return check_text(text, str(p))


def load_spec(path):
    """Load a spec file; returns ``(RunSpec, warnings)`` or raises."""
    spec, issues = check_path(path)
    if spec is None:
        raise SpecError(issues)
    return spec, issues


# ----------------------------------------------------------------- dumping

def _params_data(params) -> dict:
    return {f.name: getattr(params, f.name)
            for f in dataclasses.fields(params)}


def _machine_data(machine: MachineSpec) -> dict:
    data: dict[str, Any] = {"name": machine.name}
    data.update({name: getattr(machine, name) for name in _MACHINE_SCALARS})
    data["power"] = _params_data(machine.power)
    data["network"] = _params_data(machine.network)
    return data


def _grid_data(grid: GridSpec) -> dict:
    data: dict[str, Any] = {"mode": grid.mode}
    if grid.machine is not None:
        data["machine"] = grid.machine
    data["algorithms"] = list(grid.algorithms)
    if grid.points is not None:
        data["points"] = [list(p) for p in grid.points]
    else:
        data["matrix_sizes"] = list(grid.matrix_sizes)
        data["ranks"] = list(grid.ranks)
    data["shapes"] = list(grid.shapes)
    data["repetitions"] = grid.repetitions
    if grid.seed:
        data["seed"] = grid.seed
    if grid.power_caps != (None,):
        data["power_caps"] = list(grid.power_caps)
    return data


def dump_spec(spec: RunSpec) -> str:
    """Canonical YAML text; ``load_text(dump_spec(s))[0] == s``."""
    data: dict[str, Any] = {"schema": spec.schema}
    if spec.machines:
        data["machines"] = {name: _machine_data(machine)
                            for name, machine in spec.machines}
    data["experiment"] = _grid_data(spec.experiment)
    if spec.quick is not None:
        data["quick"] = _grid_data(spec.quick)
    if spec.skeleton is not None:
        data["skeleton"] = _grid_data(spec.skeleton)
    solvers = {solver: dict(pairs) for solver, pairs in
               (("ime", spec.solvers.ime), ("ft", spec.solvers.ft),
                ("scalapack", spec.solvers.scalapack)) if pairs}
    if solvers:
        data["solvers"] = solvers
    if spec.observability != ObsSpec():
        data["observability"] = {"tracer": spec.observability.tracer,
                                 "trace_dir": spec.observability.trace_dir}
    if spec.cache_dir is not None:
        data["cache"] = {"dir": spec.cache_dir}
    return yamlread.dump(data) + "\n"


# --------------------------------------------------------------- compiling

def _resolve_grid_machine(spec: RunSpec, grid: GridSpec) -> MachineSpec | None:
    """The machine a grid's tasks carry — **canonicalized**: the mode's
    builtin default collapses to ``None`` so an explicit
    ``machine: marconi-a3`` and an omitted one produce identical tasks
    (and therefore identical cache addresses)."""
    if grid.machine is None:
        return None
    machine = spec.machine_named(grid.machine)
    if grid.mode in ("analytic", SKELETON_MODE) and machine == marconi_a3():
        return None
    return machine


def compile_tasks(spec: RunSpec, quick: bool = False,
                  skeleton: bool = False) -> list[SweepTask]:
    """Lower a spec to SweepTasks, bit-identical to the constructor path.

    ``quick=True`` selects the spec's ``quick:`` grid (the validation-
    scale DES path), mirroring ``repro sweep --quick``; ``skeleton=True``
    selects the ``skeleton:`` grid (exact-skeleton DES at paper scale).
    """
    if quick and skeleton:
        raise ValueError("--quick and --skeleton are mutually exclusive")
    grid = (spec.skeleton if skeleton
            else spec.quick if quick else spec.experiment)
    if grid is None:
        if skeleton:
            raise ValueError("this config has no skeleton: grid "
                             "(add one or drop --skeleton)")
        raise ValueError("this config has no quick: grid "
                         "(add one or drop --quick)")
    machine = _resolve_grid_machine(spec, grid)
    trace_dir = (spec.observability.trace_dir
                 if spec.observability.tracer and grid.mode == "monitored"
                 else None)
    tasks: list[SweepTask] = []
    for algorithm in grid.algorithms:
        options = (spec.solvers.for_algorithm(algorithm)
                   if grid.mode in ("monitored", SKELETON_MODE) else ())
        for n, ranks in grid.iter_points():
            for shape in grid.shapes:
                for cap in grid.power_caps:
                    tasks.append(SweepTask(
                        grid.mode, algorithm, n, ranks, shape,
                        grid.repetitions, grid.seed,
                        machine=machine, power_cap_w=cap,
                        solver_options=options, trace_dir=trace_dir,
                    ))
    return tasks
