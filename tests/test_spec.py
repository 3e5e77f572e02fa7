"""Declarative config subsystem: parser, schema, canonical round-trip,
machine inheritance, and the bit-identity guarantee — a YAML spec naming
the paper defaults compiles to the *exact* SweepTask tuples (and
therefore the exact cache addresses) of the constructor-driven path.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.cli import main
from repro.cluster.machine import marconi_a3
from repro.cluster.placement import LoadShape
from repro.experiments import cache as cache_mod
from repro.experiments.cache import model_fingerprint
from repro.experiments.configs import EvaluationGrid
from repro.experiments.runner import _run_analytic_cached, run_analytic
from repro.experiments.spec import yamlread
from repro.experiments.spec.loader import (
    check_text,
    compile_tasks,
    dump_spec,
    load_spec,
    load_text,
)
from repro.experiments.spec.schema import ERROR, WARNING, SpecError
from repro.experiments.sweep import (
    SweepTask,
    _task_config,
    _task_machine,
    paper_tasks,
    quick_tasks,
    run_task,
)

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the default cache at a fresh directory; clear the L1."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    cache_mod._DEFAULT_CACHES.clear()
    _run_analytic_cached.cache_clear()
    yield
    cache_mod._DEFAULT_CACHES.clear()
    _run_analytic_cached.cache_clear()


def errors_of(issues):
    return [i for i in issues if i.severity == ERROR]


def warnings_of(issues):
    return [i for i in issues if i.severity == WARNING]


# ------------------------------------------------------------ YAML subset
class TestYamlParser:
    def test_scalars(self):
        doc = yamlread.parse(
            "i: 42\n"
            "f: 2.1e9\n"
            "s: bare string\n"
            "q: \"5\"\n"
            "t: true\n"
            "nothing: null\n"
        ).plain()
        assert doc == {"i": 42, "f": 2.1e9, "s": "bare string",
                       "q": "5", "t": True, "nothing": None}
        assert isinstance(doc["q"], str)  # quoting defeats coercion

    def test_nested_mappings_and_lists(self):
        doc = yamlread.parse(
            "top:\n"
            "  inline: [1, 2.5, x]\n"
            "  nested: [[288, 4], [432, 8]]\n"
            "  block:\n"
            "    - 1\n"
            "    - two\n"
        ).plain()
        assert doc["top"]["inline"] == [1, 2.5, "x"]
        assert doc["top"]["nested"] == [[288, 4], [432, 8]]
        assert doc["top"]["block"] == [1, "two"]

    def test_comments_and_blank_lines(self):
        doc = yamlread.parse(
            "# full-line comment\n"
            "\n"
            "a: 1  # trailing comment\n"
            "b: \"not # a comment\"\n"
        ).plain()
        assert doc == {"a": 1, "b": "not # a comment"}

    def test_line_numbers_survive(self):
        root = yamlread.parse("a: 1\nb:\n  c: 3\n")
        assert root.value["a"].line == 1
        assert root.value["b"].line == 3  # first line of the nested block
        assert root.value["b"].value["c"].line == 3

    def test_duplicate_key_is_an_error(self):
        with pytest.raises(yamlread.YamlError) as exc:
            yamlread.parse("a: 1\na: 2\n")
        assert exc.value.line == 2
        assert "duplicate key" in exc.value.message

    def test_tab_indentation_is_an_error(self):
        with pytest.raises(yamlread.YamlError) as exc:
            yamlread.parse("a:\n\tb: 1\n")
        assert exc.value.line == 2
        assert "tab" in exc.value.message

    def test_bad_indent_is_an_error(self):
        with pytest.raises(yamlread.YamlError):
            yamlread.parse("a:\n  b: 1\n   c: 2\n")

    def test_dump_parse_roundtrip(self):
        data = {"schema": 1,
                "grid": {"sizes": [8640, 17280], "freq": 2.1e9,
                         "caps": [None, 120.0], "name": "half 1socket"}}
        assert yamlread.parse(yamlread.dump(data)).plain() == data


# --------------------------------------------------------- canonical form
class TestRoundTrip:
    def test_load_dump_load_is_identity(self):
        spec, _ = load_text(
            "machines:\n"
            "  tweaked:\n"
            "    base: marconi-a3\n"
            "    core_freq_hz: 2.4e9\n"
            "    power:\n"
            "      pkg_idle_w: 38.0\n"
            "experiment:\n"
            "  machine: tweaked\n"
            "  matrix_sizes: [8640]\n"
            "  ranks: [144]\n"
            "quick:\n"
            "  mode: monitored\n"
            "  points: [[96, 4]]\n"
            "  repetitions: 2\n"
            "solvers:\n"
            "  scalapack:\n"
            "    nb: 16\n"
            "observability:\n"
            "  tracer: true\n"
            "  trace_dir: out/traces\n"
            "cache:\n"
            "  dir: /tmp/spec-cache\n"
        )
        assert load_text(dump_spec(spec))[0] == spec

    def test_paper_config_roundtrips(self):
        spec, _ = load_spec(CONFIGS / "paper.yaml")
        assert load_text(dump_spec(spec))[0] == spec

    def test_doctest_example_grid(self):
        spec, warnings = load_text(
            "experiment:\n  matrix_sizes: [8640]\n  ranks: [144]\n")
        assert warnings == []
        assert [t.label for t in compile_tasks(spec)] == [
            "ime-n8640-p144-full", "scalapack-n8640-p144-full"]


# ---------------------------------------------------- machine inheritance
class TestInheritance:
    def test_override_precedence_and_base_fields_survive(self):
        spec, _ = load_text(
            "machines:\n"
            "  refresh:\n"
            "    base: marconi-a3\n"
            "    core_freq_hz: 2.4e9\n"
            "    power:\n"
            "      pkg_idle_w: 38.0\n"
            "    network:\n"
            "      inter_bandwidth: 25.0e9\n"
            "experiment:\n"
            "  machine: refresh\n"
            "  matrix_sizes: [8640]\n"
            "  ranks: [144]\n"
        )
        machine = spec.machine_named("refresh")
        base = marconi_a3()
        # overridden fields take the config's values ...
        assert machine.core_freq_hz == 2.4e9
        assert machine.power.pkg_idle_w == 38.0
        assert machine.network.inter_bandwidth == 25.0e9
        # ... unspecified fields (incl. inside the overridden
        # sub-mappings) keep the base's
        assert machine.cores_per_socket == base.cores_per_socket
        assert machine.power.core_base_w == base.power.core_base_w
        assert machine.power.pkg_tdp_w == base.power.pkg_tdp_w
        assert machine.network.inter_latency == base.network.inter_latency
        assert machine.name == "refresh"  # entry key is the default name

    def test_base_may_be_an_earlier_entry(self):
        spec, _ = load_text(
            "machines:\n"
            "  first:\n"
            "    base: marconi-a3\n"
            "    core_freq_hz: 2.4e9\n"
            "  second:\n"
            "    base: first\n"
            "    cores_per_socket: 32\n"
            "experiment:\n"
            "  machine: second\n"
            "  matrix_sizes: [8640]\n"
            "  ranks: [128]\n"
            "  algorithms: [scalapack]\n"
        )
        second = spec.machine_named("second")
        assert second.core_freq_hz == 2.4e9   # inherited from `first`
        assert second.cores_per_socket == 32

    def test_unknown_base_names_the_field(self):
        _, issues = check_text(
            "machines:\n"
            "  m:\n"
            "    base: cray-1\n"
            "experiment:\n"
            "  matrix_sizes: [8640]\n"
            "  ranks: [144]\n"
        )
        (err,) = errors_of(issues)
        assert err.field == "machines.m.base"
        assert "cray-1" in err.message and err.line == 3


# ----------------------------------------------------------- schema errors
class TestSchemaErrors:
    def test_errors_name_the_offending_field(self):
        _, issues = check_text(
            "experiment:\n"
            "  matrix_sizes: [8640]\n"
            "  ranks: [144]\n"
            "  repetitions: 0\n"
        )
        (err,) = errors_of(issues)
        assert err.field == "experiment.repetitions"
        assert "repetitions must be >= 1" in err.message
        assert err.line == 4
        assert "experiment.repetitions" in err.format()

    @pytest.mark.parametrize("key, value", [
        ("matrix_size", "[17280]"),
        ("shards", "2"),
    ], ids=["matrix_size", "shards"])
    def test_unknown_key_rejected(self, key, value):
        _, issues = check_text(
            "experiment:\n"
            "  matrix_sizes: [8640]\n"
            "  ranks: [144]\n"
            f"  {key}: {value}\n"
        )
        assert any(key in e.message for e in errors_of(issues))

    def test_wrong_type_names_field_and_expectation(self):
        _, issues = check_text(
            "experiment:\n"
            "  matrix_sizes: [8640]\n"
            "  ranks: [144]\n"
            "  seed: many\n"
        )
        (err,) = errors_of(issues)
        assert err.field == "experiment.seed"

    def test_points_and_product_grid_are_exclusive(self):
        _, issues = check_text(
            "experiment:\n"
            "  matrix_sizes: [8640]\n"
            "  ranks: [144]\n"
            "  points: [[288, 4]]\n"
        )
        assert any(e.field == "experiment.points" for e in errors_of(issues))

    def test_missing_experiment_is_an_error(self):
        spec, issues = check_text("schema: 1\n")
        assert spec is None
        assert any(e.field == "experiment" for e in errors_of(issues))

    def test_monitored_power_caps_rejected(self):
        _, issues = check_text(
            "experiment:\n"
            "  mode: monitored\n"
            "  points: [[96, 4]]\n"
            "  power_caps: [100]\n"
        )
        assert any(e.field == "experiment.power_caps"
                   for e in errors_of(issues))

    def test_impossible_layout_is_an_error(self):
        _, issues = check_text(
            "experiment:\n"
            "  matrix_sizes: [8640]\n"
            "  ranks: [100]\n"
            "  algorithms: [scalapack]\n"
        )
        assert any("impossible layout" in e.message
                   for e in errors_of(issues))

    def test_load_text_raises_spec_error_with_issues(self):
        with pytest.raises(SpecError) as exc:
            load_text("experiment:\n  repetitions: 0\n")
        assert any(i.severity == ERROR for i in exc.value.issues)

    def test_nonsquare_ime_ranks_warns(self):
        spec, issues = check_text(
            "experiment:\n"
            "  matrix_sizes: [8640]\n"
            "  ranks: [96]\n"
        )
        assert spec is not None  # a warning, not an error
        (warn,) = warnings_of(issues)
        assert warn.field == "experiment.ranks"
        assert "square" in warn.message

    def test_cap_at_tdp_warns(self):
        _, issues = check_text(
            "experiment:\n"
            "  matrix_sizes: [8640]\n"
            "  ranks: [144]\n"
            "  power_caps: [500]\n"
        )
        assert any(w.field == "experiment.power_caps[0]"
                   for w in warnings_of(issues))


# ------------------------------------------------- paper-grid bit identity
class TestPaperConfig:
    def test_paper_yaml_matches_constructor_grid(self):
        spec, warnings = load_spec(CONFIGS / "paper.yaml")
        assert warnings == []
        tasks = compile_tasks(spec)
        expected = paper_tasks()
        assert len(tasks) == len(expected) == len(EvaluationGrid()) == 72
        for got, want in zip(tasks, expected):
            assert got == want  # point-for-point, order included

    def test_paper_yaml_quick_matches_quick_tasks(self):
        spec, _ = load_spec(CONFIGS / "paper.yaml")
        assert compile_tasks(spec, quick=True) == quick_tasks()

    def test_explicit_default_machine_canonicalizes_away(self):
        spec, _ = load_text(
            "experiment:\n"
            "  machine: marconi-a3\n"
            "  matrix_sizes: [8640]\n"
            "  ranks: [144]\n"
        )
        (task, _) = compile_tasks(spec)
        assert task.machine is None  # identical to the omitted form

    def test_shipped_configs_all_validate(self):
        from repro.experiments.spec.loader import check_path

        paths = sorted(CONFIGS.glob("*.yaml"))
        assert paths, "configs/ must ship specs"
        for path in paths:
            spec, issues = check_path(path)
            assert spec is not None, (path, [i.format() for i in issues])
            assert errors_of(issues) == [], path


# ----------------------------------------------------- cache-key contract
class TestCacheContract:
    def test_default_task_config_key_set_is_legacy(self):
        task = SweepTask("analytic", "ime", 8640, 144, "full", 10)
        assert set(_task_config(task)) == {
            "mode", "algorithm", "n", "ranks", "shape", "repetitions",
            "seed",
        }

    def test_extensions_extend_the_key_only_when_set(self):
        capped = SweepTask("analytic", "ime", 8640, 144, "full", 10,
                           power_cap_w=100.0)
        assert _task_config(capped)["power_cap_w"] == 100.0
        tuned = SweepTask("monitored", "scalapack", 96, 4, "full", 1,
                          solver_options=(("nb", 16),))
        assert _task_config(tuned)["solver_options"] == {"nb": 16}
        # trace_dir is a pure observer: never part of the key
        traced = SweepTask("monitored", "ime", 96, 4, "full", 1,
                           trace_dir="traces")
        plain = SweepTask("monitored", "ime", 96, 4, "full", 1)
        assert _task_config(traced) == _task_config(plain)

    def test_powercap_config_matches_direct_run(self):
        spec, _ = load_text(
            "experiment:\n"
            "  matrix_sizes: [25920]\n"
            "  ranks: [144]\n"
            "  algorithms: [ime]\n"
            "  power_caps: [120]\n"
        )
        (task,) = compile_tasks(spec)
        assert task.power_cap_w == 120.0
        row = run_task(task)
        direct = run_analytic("ime", 25920, 144, LoadShape.FULL,
                              marconi_a3(), repetitions=10,
                              power_cap_w=120.0)
        assert row["mean_duration"] == direct.mean_duration
        assert row["mean_total_j"] == direct.mean_total_j

    def test_config_run_hits_constructor_cache_monitored(self):
        # Constructor-path task, computed cold (tiny DES point) ...
        legacy = SweepTask("monitored", "ime", 64, 4, "full", 1)
        cold = run_task(legacy)
        assert cold["cached"] is False
        # ... and the spec path compiles to the identical tuple, so the
        # second run is served from the same cache entry.
        spec, _ = load_text(
            "experiment:\n"
            "  mode: monitored\n"
            "  points: [[64, 4]]\n"
            "  algorithms: [ime]\n"
            "  repetitions: 1\n"
        )
        (task,) = compile_tasks(spec)
        assert task == legacy
        warm = run_task(task)
        assert warm["cached"] is True
        for key in ("mean_duration", "mean_total_j", "mean_package_j"):
            assert warm[key] == cold[key]

    def test_solver_options_move_the_address_and_run(self):
        plain = SweepTask("monitored", "scalapack", 64, 4, "full", 1)
        tuned = dataclasses.replace(plain, solver_options=(("nb", 16),))
        address = cache_mod.ResultCache.address
        assert address(_task_config(plain), "fp") \
            != address(_task_config(tuned), "fp")
        row = run_task(tuned)      # the options plumb through the solver
        assert row["cached"] is False and row["mean_duration"] > 0

    def test_quick_flag_without_quick_grid_raises(self):
        spec, _ = load_text(
            "experiment:\n  matrix_sizes: [8640]\n  ranks: [144]\n")
        with pytest.raises(ValueError, match="quick"):
            compile_tasks(spec, quick=True)


# -------------------------------------------------------------------- CLI
class TestCli:
    def test_run_config_json(self, tmp_path, capsys):
        config = tmp_path / "tiny.yaml"
        config.write_text(
            "experiment:\n"
            "  matrix_sizes: [8640]\n"
            "  ranks: [144]\n"
            "  algorithms: [ime]\n"
        )
        assert main(["run", str(config), "--json"]) == 0
        out, err = capsys.readouterr()
        import json

        report = json.loads(out)
        assert report["config"] == str(config)
        assert [r["label"] for r in report["rows"]] \
            == ["ime-n8640-p144-full"]
        assert "cache:" in err and "calibration" in err

    def test_run_broken_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "broken.yaml"
        config.write_text(
            "experiment:\n"
            "  matrix_sizes: [8640]\n"
            "  ranks: [144]\n"
            "  repetitions: 0\n"
        )
        assert main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert "experiment.repetitions" in err

    def test_validate_config_ok_and_counts(self, capsys):
        assert main(["validate-config", str(CONFIGS / "paper.yaml")]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "72 tasks" in out and "+6 quick" in out

    def test_validate_config_directory_walk(self, capsys):
        assert main(["validate-config", str(CONFIGS)]) == 0
        out = capsys.readouterr().out
        assert f"validated {len(list(CONFIGS.glob('*.yaml')))} config(s)" \
            in out

    def test_validate_config_failure_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("experiment:\n  ranks: [144]\n")
        assert main(["validate-config", str(bad)]) == 1
        out, err = capsys.readouterr()
        assert "FAIL" in out
        assert "experiment" in err  # field-level context on stderr

    def test_validate_config_strict_fails_on_warning(self, tmp_path,
                                                     capsys):
        warny = tmp_path / "warn.yaml"
        warny.write_text(
            "experiment:\n"
            "  matrix_sizes: [8640]\n"
            "  ranks: [96]\n"       # non-square: warning, not error
        )
        assert main(["validate-config", str(warny)]) == 0
        assert main(["validate-config", "--strict", str(warny)]) == 1
        capsys.readouterr()
