"""Command-line interface: regenerate the paper's evaluation from a shell.

    repro table1                      # §5.1 Table 1
    repro figure 5                    # a Figure 3–7 data series
    repro summary                     # the §5.4 comparison grid
    repro compare -n 17280 -r 576     # one configuration, both algorithms
    repro powercap -n 25920 -r 144 --caps 120 100 80
    repro solve -n 64 -r 8            # run a monitored DES job (small n)
    repro trace --algorithm ime --n 8640 --ranks 16 --out trace.json

All paper-scale commands use the analytic mode with ten seeded
repetitions; ``solve`` runs the full discrete-event pipeline with the
white-box monitor and prints the per-node PAPI readings.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.cluster.machine import marconi_a3, small_test_machine
from repro.cluster.placement import LoadShape

_SHAPES = {s.value: s for s in LoadShape}


def _shape(value: str) -> LoadShape:
    try:
        return _SHAPES[value]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown shape {value!r}; choose from {sorted(_SHAPES)}"
        )


def cmd_table1(args) -> int:
    from repro.experiments.configs import EvaluationGrid

    print(f"{'Ranks':>6} {'Nodes':>6} {'Ranks/Node':>11} {'Sockets':>8} "
          f"{'Ranks x Socket':>15}")
    for r in EvaluationGrid().table1_rows():
        s0, s1 = r["ranks_per_socket"]
        print(f"{r['ranks']:>6} {r['nodes']:>6} {r['ranks_per_node']:>11} "
              f"{r['sockets']:>8} {f'{s0} {s1}':>15}")
    return 0


def cmd_figure(args) -> int:
    from repro.experiments import figures
    from repro.experiments.export import write_figure_csv

    builders = {3: figures.figure3, 4: figures.figure4, 5: figures.figure5,
                6: figures.figure6, 7: figures.figure7}
    data = builders[args.number]()
    if args.csv:
        path = write_figure_csv(data, args.csv)
        print(f"wrote {path}")
        return 0
    for algorithm, outer in data.items():
        for key, series in outer.items():
            for x, value in series.items():
                if isinstance(value, dict):
                    cells = "  ".join(f"{k}={v:.4g}" for k, v in value.items())
                else:
                    cells = f"energy_j={value:.4g}"
                print(f"figure{args.number} {algorithm:>10} {key}: "
                      f"x={x:>6}  {cells}")
    return 0


def cmd_summary(args) -> int:
    from repro.experiments.summary import full_grid

    print(f"{'n':>6} {'ranks':>5} | {'T_ime':>8} {'T_scal':>8} {'winner':>9} "
          f"| {'E gap':>6} {'P gap':>6} {'DRAM P gap':>10}")
    for p in full_grid():
        print(f"{p.n:>6} {p.ranks:>5} | {p.ime_duration:8.2f} "
              f"{p.scal_duration:8.2f} {p.time_winner:>9} | "
              f"{p.energy_gap * 100:5.1f}% {p.power_gap * 100:5.1f}% "
              f"{p.dram_power_gap * 100:9.1f}%")
    return 0


def cmd_compare(args) -> int:
    from repro.experiments.runner import run_analytic
    from repro.experiments.summary import gap

    machine = marconi_a3()
    results = {
        alg: run_analytic(alg, args.n, args.ranks, args.shape, machine,
                          power_cap_w=args.cap)
        for alg in ("ime", "scalapack")
    }
    for alg, r in results.items():
        print(f"{alg:>10}: T={r.mean_duration:9.3f} s  "
              f"E={r.mean_total_j:12.1f} J  P={r.mean_power_w:8.1f} W  "
              f"DRAM P={r.dram_power_w:7.1f} W")
    i, s = results["ime"], results["scalapack"]
    print(f"{'gaps':>10}: energy {gap(i.mean_total_j, s.mean_total_j)*100:.1f}%  "
          f"power {gap(i.mean_power_w, s.mean_power_w)*100:.1f}%  "
          f"faster: {'IMe' if i.mean_duration < s.mean_duration else 'ScaLAPACK'}")
    return 0


def cmd_powercap(args) -> int:
    from repro.experiments.runner import run_analytic

    machine = marconi_a3()
    print(f"{'algorithm':>10} {'cap W':>7} | {'T s':>8} {'E J':>12} {'P W':>8}")
    for alg in ("ime", "scalapack"):
        for cap in [None] + list(args.caps):
            r = run_analytic(alg, args.n, args.ranks, args.shape, machine,
                             power_cap_w=cap)
            cap_str = "none" if cap is None else f"{cap:.0f}"
            print(f"{alg:>10} {cap_str:>7} | {r.mean_duration:8.2f} "
                  f"{r.mean_total_j:12.1f} {r.mean_power_w:8.1f}")
    return 0


def cmd_solve(args) -> int:
    import numpy as np

    from repro.core.framework import ExperimentSpec, MonitoringFramework
    from repro.perfmodel.calibration import profile_for
    from repro.workloads.generator import generate_system

    if args.n > 600:
        print("solve runs real numerics; use n <= 600 "
              "(paper-scale series come from `compare`/`figure`)",
              file=sys.stderr)
        return 2
    machine = small_test_machine(
        cores_per_socket=max(1, args.ranks // (2 * max(1, args.nodes)))
    )
    # Slow the virtual clock so tiny systems span many counter ticks.
    profile = replace(profile_for(args.algorithm), eff_flops_per_core=2.0e6)
    spec = ExperimentSpec(
        algorithm=args.algorithm,
        system=generate_system(args.n, seed=args.seed),
        ranks=args.ranks,
        shape=LoadShape.FULL,
        repetitions=args.repetitions,
        machine=machine,
        profile=profile,
    )
    result = MonitoringFramework(output_dir=args.output).run_experiment(spec)
    run = result.runs[0]
    residual = float(np.max(np.abs(
        spec.system.a @ run.solution - spec.system.b
    )))
    print(f"{args.algorithm} n={args.n} on {args.ranks} simulated ranks "
          f"({run.measured.n_nodes} nodes), {spec.repetitions} repetitions")
    print(f"residual: {residual:.3e}")
    print(f"mean duration: {result.mean_duration * 1e3:.3f} ms (virtual)  "
          f"mean energy: {result.mean_total_j:.3f} J  "
          f"mean power: {result.mean_power_w:.1f} W")
    for node in run.measured.nodes:
        print(f"  node {node.node_id}: {node.total_j:.3f} J "
              f"(pkg {node.package_j:.3f} J, dram {node.dram_j:.3f} J)")
    if args.output:
        print(f"per-node result files written under {args.output}/")
    return 0


def cmd_trace(args) -> int:
    from repro.obs.export import write_chrome_trace
    from repro.obs.report import energy_report, metrics_report
    from repro.obs.symbolic import run_traced

    result, tracer = run_traced(
        args.algorithm,
        n=args.n,
        ranks=args.ranks,
        nodes=args.nodes,
        seed=args.seed,
        chunks=args.chunks,
        nb=args.nb,
    )
    path = write_chrome_trace(tracer, args.out)
    s = tracer.summary()
    print(f"{args.algorithm} n={args.n} on {args.ranks} simulated ranks: "
          f"{s['spans']} spans, {s['counter_samples']} counter samples "
          f"({result.duration * 1e3:.3f} ms virtual)")
    print(f"wrote {path} (open in chrome://tracing or ui.perfetto.dev)")
    if args.report:
        print()
        print(energy_report(tracer, total_j=result.total_energy_j,
                            duration=result.duration))
        print()
        print(metrics_report(tracer))
    return 0


def cmd_bench(args) -> int:
    from repro.bench import run_from_args

    return run_from_args(args)


def cmd_sweep(args) -> int:
    from repro.experiments.sweep import run_from_args

    return run_from_args(args)


def cmd_lint(args) -> int:
    from repro.lint.cli import run_from_args

    return run_from_args(args)


def cmd_serve(args) -> int:
    from repro.serve.daemon import run_from_args

    return run_from_args(args)


def cmd_loadtest(args) -> int:
    from repro.serve.loadtest import run_from_args

    return run_from_args(args)


def cmd_run(args) -> int:
    import json
    import os

    from repro.experiments.spec.loader import compile_tasks, load_spec
    from repro.experiments.spec.schema import SpecError
    from repro.experiments.sweep import (
        describe_cache,
        format_table,
        make_progress,
        run_sweep,
    )

    try:
        spec, warnings = load_spec(args.config)
    except SpecError as exc:
        for issue in exc.issues:
            print(issue.format(), file=sys.stderr)
        return 2
    for issue in warnings:
        print(issue.format(), file=sys.stderr)
    # cache-root precedence: --cache-dir beats the config's cache.dir
    # beats $REPRO_CACHE_DIR beats the .repro-cache/ default
    if args.cache_dir is not None:
        os.environ["REPRO_CACHE_DIR"] = args.cache_dir
    elif spec.cache_dir is not None:
        os.environ["REPRO_CACHE_DIR"] = spec.cache_dir
    try:
        tasks = compile_tasks(spec, quick=args.quick,
                              skeleton=args.skeleton)
    except ValueError as exc:
        print(f"{args.config}: {exc}", file=sys.stderr)
        return 2
    print(describe_cache(), file=sys.stderr, flush=True)
    report = run_sweep(
        jobs=args.jobs, quick=args.quick, tasks=tasks,
        progress=(None if args.json else
                  make_progress(len(tasks), quiet=args.quiet)),
    )
    report["config"] = args.config
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(format_table(report))
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


def _config_files(paths: list[str]) -> list:
    from pathlib import Path

    files = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(q for q in p.rglob("*.y*ml")
                                if q.suffix in (".yaml", ".yml")))
        else:
            files.append(p)
    return files


def cmd_validate_config(args) -> int:
    from repro.experiments.spec.loader import check_path, compile_tasks
    from repro.experiments.spec.schema import ERROR

    files = _config_files(args.paths)
    if not files:
        print("no config files found", file=sys.stderr)
        return 2
    failed = 0
    for path in files:
        spec, issues = check_path(path)
        for issue in issues:
            if issue.severity == ERROR or not args.quiet:
                print(issue.format(), file=sys.stderr)
        errors = sum(1 for i in issues if i.severity == ERROR)
        warnings = len(issues) - errors
        bad = errors or (args.strict and warnings)
        failed += bool(bad)
        status = "FAIL" if bad else "ok"
        detail = ""
        if spec is not None:
            n_tasks = len(compile_tasks(spec))
            n_quick = (len(compile_tasks(spec, quick=True))
                       if spec.quick is not None else 0)
            detail = f", {n_tasks} tasks" + \
                     (f" (+{n_quick} quick)" if n_quick else "")
        print(f"{path}: {status} ({errors} error(s), "
              f"{warnings} warning(s){detail})")
    print(f"validated {len(files)} config(s): "
          f"{'OK' if not failed else f'{failed} failed'}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of 'Energy consumption comparison of "
                     "parallel linear systems solver algorithms on HPC "
                     "infrastructure' (SC-W 2023)"),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table 1").set_defaults(fn=cmd_table1)

    p = sub.add_parser("figure", help="print a Figure 3-7 data series")
    p.add_argument("number", type=int, choices=(3, 4, 5, 6, 7))
    p.add_argument("--csv", default=None,
                   help="write the series to a CSV file instead of stdout")
    p.set_defaults(fn=cmd_figure)

    sub.add_parser("summary", help="print the §5.4 comparison grid") \
        .set_defaults(fn=cmd_summary)

    p = sub.add_parser("compare", help="compare both solvers at one point")
    p.add_argument("-n", type=int, required=True, help="matrix dimension")
    p.add_argument("-r", "--ranks", type=int, required=True)
    p.add_argument("--shape", type=_shape, default=LoadShape.FULL)
    p.add_argument("--cap", type=float, default=None,
                   help="package power cap in watts")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("powercap", help="power-cap sweep (§6 extension)")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-r", "--ranks", type=int, required=True)
    p.add_argument("--shape", type=_shape, default=LoadShape.FULL)
    p.add_argument("--caps", type=float, nargs="+", required=True)
    p.set_defaults(fn=cmd_powercap)

    p = sub.add_parser("solve", help="run a monitored DES job (small n)")
    p.add_argument("-n", type=int, default=64)
    p.add_argument("-r", "--ranks", type=int, default=8)
    p.add_argument("--nodes", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--algorithm", choices=("ime", "scalapack"),
                   default="ime")
    p.add_argument("--output", default=None,
                   help="directory for the per-node result files")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser(
        "trace",
        help="trace an exact-skeleton run to Chrome Trace Format JSON",
        description=("Replay a solver's exact schedule under the "
                     "monitoring protocol with the observability tracer "
                     "attached, and export the spans to Chrome Trace "
                     "Event Format (see docs/observability.md)."),
    )
    p.add_argument("--algorithm", choices=("ime", "scalapack"),
                   default="ime")
    p.add_argument("--n", type=int, default=8640,
                   help="matrix dimension (paper scale is fine: the "
                        "exact skeleton replays no numerics, and "
                        "--chunks samples its level loop)")
    p.add_argument("--ranks", type=int, default=16)
    p.add_argument("--nodes", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chunks", type=int, default=48,
                   help="level/panel blocks to replay: each replays one "
                        "level's (panel's) complete communication and "
                        "charges the summed flops of the levels it "
                        "stands for")
    p.add_argument("--nb", type=int, default=64,
                   help="ScaLAPACK block size")
    p.add_argument("--out", default="trace.json",
                   help="output path for the Chrome trace JSON")
    p.add_argument("--report", action="store_true",
                   help="also print the per-phase energy attribution "
                        "and metrics tables")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "bench",
        help="time the simulator itself (wall-clock, both collective modes)",
        description=("Run the simulator wall-clock suite from "
                     "repro.bench: end-to-end solver jobs and the "
                     "communication skeleton, each in fast and "
                     "message-level collective mode.  Maintains "
                     "BENCH_simperf.json (see docs/performance.md)."),
    )
    from repro.bench import add_arguments as _add_bench_arguments
    _add_bench_arguments(p)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "sweep",
        help="run an evaluation campaign across worker processes",
        description=("Drive the full §5 analytic paper grid (default) or "
                     "a validation-scale monitored-DES grid (--quick) "
                     "through a multiprocessing pool with the repo-local "
                     "content-addressed result cache "
                     "(see docs/performance.md)."),
    )
    from repro.experiments.sweep import add_arguments as _add_sweep_arguments
    _add_sweep_arguments(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "run",
        help="run a declarative YAML experiment config",
        description=("Load a schema-validated YAML spec (machines, grids, "
                     "solver options — see docs/configuration.md), lower "
                     "it to sweep tasks, and execute it through the "
                     "parallel executor and the content-addressed result "
                     "cache.  The canonicalized config is the cache key: "
                     "a config naming the constructor defaults shares "
                     "cache entries with `repro sweep` bit for bit."),
    )
    p.add_argument("config", help="path to the YAML spec "
                                  "(e.g. configs/paper.yaml)")
    p.add_argument("--quick", action="store_true",
                   help="run the config's quick: grid (validation-scale "
                        "monitored DES) instead of experiment:")
    p.add_argument("--skeleton", action="store_true",
                   help="run the config's skeleton: grid (exact-skeleton "
                        "DES at paper scale) instead of experiment:")
    p.add_argument("--jobs", "-j", type=int, default=1,
                   help="worker processes (default 1 = in-process)")
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the per-task progress lines "
                        "(also suppressed when stdout is not a TTY)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="also write the report JSON to a file")
    p.add_argument("--cache-dir", metavar="DIR", default=None,
                   help="cache root (beats the config's cache.dir and "
                        "$REPRO_CACHE_DIR; 'off' disables)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "serve",
        help="run the persistent campaign daemon (HTTP/JSON)",
        description=("Serve campaign points over HTTP: POST /run takes "
                     "the same YAML spec `repro run` takes and streams "
                     "NDJSON points; POST /batch evaluates a JSON list "
                     "of canonical configs through the batched analytic "
                     "engine; GET /stats exposes cache-tier and "
                     "single-flight counters.  Served results share "
                     "cache entries with the CLI byte for byte "
                     "(see docs/serving.md)."),
    )
    from repro.serve.daemon import add_arguments as _add_serve_arguments
    _add_serve_arguments(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "loadtest",
        help="load-test the campaign daemon (maintains BENCH_serve.json)",
        description=("Spawn a daemon on an ephemeral port with a fresh "
                     "cache root and drive it with synthetic clients over "
                     "the §5 grid: cold fill, warm hit-path latency "
                     "percentiles, single-flight dedup under concurrent "
                     "identical requests, and /batch vs per-request "
                     "speedup.  --check guards against 2x regressions "
                     "vs the committed BENCH_serve.json."),
    )
    from repro.serve.loadtest import add_arguments as _add_loadtest_arguments
    _add_loadtest_arguments(p)
    p.set_defaults(fn=cmd_loadtest)

    p = sub.add_parser(
        "validate-config",
        help="schema-check YAML experiment configs",
        description=("Validate config files (or every *.yaml under a "
                     "directory) against the spec schema: field-level "
                     "errors with file:line context, plus lint-style "
                     "warnings for suspicious values (non-square IMe "
                     "rank counts, caps above TDP, ...).  Exit 0 when "
                     "every file loads clean."),
    )
    p.add_argument("paths", nargs="+",
                   help="config files or directories to validate")
    p.add_argument("--strict", action="store_true",
                   help="treat warnings as failures")
    p.add_argument("--quiet", action="store_true",
                   help="print errors only, not warnings")
    p.set_defaults(fn=cmd_validate_config)

    p = sub.add_parser(
        "lint",
        help="run the simulation-correctness static analyzer",
        description=("AST lints for the invariants the simulator cannot "
                     "check at runtime: undriven simcalls, wall-clock and "
                     "unseeded randomness in the deterministic core, MPI "
                     "protocol mistakes, and span hygiene.  See "
                     "docs/static-analysis.md for the rule catalog."),
    )
    from repro.lint.cli import add_arguments as _add_lint_arguments
    _add_lint_arguments(p)
    p.set_defaults(fn=cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
