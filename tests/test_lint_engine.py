"""Engine-level behavior of the semantic lint driver: the incremental
cache, the stale-baseline ratchet, suppression edge cases, the rule
registry / --explain, and the SARIF output.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.lint.baseline import load_baseline, stale_entries, write_baseline
from repro.lint.findings import Finding
from repro.lint.registry import ALL_RULES, RULES, RULES_BY_ID, explain
from repro.lint.runner import LintOptions, lint_paths, lint_source
from repro.lint.sarif import to_sarif
from repro.lint.suppressions import collect_suppressions, is_suppressed

REPO = Path(__file__).resolve().parent.parent

BAD_SNIPPET = textwrap.dedent("""
    def program(comm):
        comm.barrier()
        yield
""")


def _run_cli(*args, cwd=REPO, cache_dir="off"):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", *args],
        capture_output=True, text=True, cwd=cwd,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin",
             "REPRO_CACHE_DIR": cache_dir},
    )


# ------------------------------------------------------------- registry
class TestRegistry:
    def test_every_rule_has_a_complete_spec(self):
        for spec in RULES:
            assert spec.id and spec.family and spec.summary
            assert spec.rationale and spec.bad and spec.good
            assert spec.id.startswith(spec.family)

    def test_all_rules_is_derived_from_the_registry(self):
        assert ALL_RULES == tuple(spec.id for spec in RULES)
        from repro.lint import runner
        assert runner.ALL_RULES is ALL_RULES

    def test_explain_prints_both_examples(self):
        text = explain("UNIT002")
        assert "total_j += pkg_w" in text
        assert "total_j += pkg_w * dt" in text
        assert "Violates:" in text and "Fixed:" in text

    def test_explain_is_case_insensitive_and_rejects_unknown(self):
        assert explain("unit001") == explain("UNIT001")
        try:
            explain("NOPE999")
        except KeyError:
            pass
        else:
            raise AssertionError("unknown rule must raise")

    def test_example_pairs_verify_against_the_analyzer(self):
        # The registry's violating examples really violate and the fixed
        # ones really fix — for every rule the analyzer can check from a
        # snippet (E999's "bad" does not parse, which is the point).
        for spec in RULES:
            bad = [f.rule for f in lint_source(spec.bad, spec.example_path)]
            assert spec.id in bad, f"{spec.id}: 'bad' example not flagged"
            good = [f.rule
                    for f in lint_source(spec.good, spec.example_path)]
            assert spec.id not in good, \
                f"{spec.id}: 'good' example still flagged"


# ------------------------------------------------------ incremental cache
class TestIncrementalCache:
    def test_warm_run_hits_for_every_unchanged_file(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "a.py").write_text("def f(x):\n    return x\n")
        (tree / "b.py").write_text("def g(y):\n    return y\n")

        cold = lint_paths([str(tree)])
        assert (cold.cache_hits, cold.cache_misses) == (0, 2)
        warm = lint_paths([str(tree)])
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)

    def test_only_the_changed_file_is_reanalyzed(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "a.py").write_text("def f(x):\n    return x\n")
        (tree / "b.py").write_text("def g(y):\n    return y\n")
        lint_paths([str(tree)])

        # A comment-only edit leaves every whole-tree fact unchanged.
        (tree / "b.py").write_text("# touched\ndef g(y):\n    return y\n")
        warm = lint_paths([str(tree)])
        assert (warm.cache_hits, warm.cache_misses) == (1, 1)

    def test_cached_findings_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "bad.py").write_text(BAD_SNIPPET)
        cold = lint_paths([str(tree)])
        warm = lint_paths([str(tree)])
        assert warm.cache_hits == 1
        assert warm.findings == cold.findings
        assert warm.findings[0].rule == "SIM001"

    def test_changing_a_summary_invalidates_dependents(self, tmp_path,
                                                       monkeypatch):
        # When a helper's return dimension changes, files that call it
        # must be re-analyzed even though their own bytes are unchanged.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "helper.py").write_text(
            "def sample():\n    return 1.0\n")
        (tree / "user.py").write_text(
            "from helper import sample\n\n"
            "def total(dt):\n"
            "    total_j = 0.0\n"
            "    total_j += sample() * dt\n"
            "    return total_j\n")
        first = lint_paths([str(tree)])
        assert first.findings == []

        (tree / "helper.py").write_text(
            "def sample():\n    pkg_w = 1.0\n    return pkg_w\n")
        second = lint_paths([str(tree)])
        assert second.cache_hits == 0, \
            "tree digest must invalidate dependents on summary change"

    def test_cache_off_disables_counters(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "a.py").write_text("def f(x):\n    return x\n")
        result = lint_paths([str(tree)])
        assert (result.cache_hits, result.cache_misses) == (0, 1)

    def test_cache_hits_surface_in_json_output(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "a.py").write_text("def f(x):\n    return x\n")
        cache = str(tmp_path / "cache")
        _run_cli("--format=json", str(tree), cache_dir=cache)
        proc = _run_cli("--format=json", str(tree), cache_dir=cache)
        payload = json.loads(proc.stdout)
        assert payload["cache_hits"] == 1
        assert payload["cache_misses"] == 0


# ------------------------------------------------------- parallel analysis
class TestParallelAnalysis:
    def test_jobs_produce_identical_findings(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        for i in range(4):
            (tree / f"bad{i}.py").write_text(BAD_SNIPPET)
        serial = lint_paths([str(tree)],
                            LintOptions(jobs=1, use_cache=False))
        forked = lint_paths([str(tree)],
                            LintOptions(jobs=4, use_cache=False))
        assert serial.findings == forked.findings
        assert len(forked.findings) == 4


# -------------------------------------------------------- stale baseline
class TestStaleBaseline:
    def _finding(self, text="comm.barrier()"):
        return Finding(path="x.py", line=2, col=5, rule="SIM001",
                       message="m", text=text)

    def test_stale_entries_detects_fixed_findings(self, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, [self._finding()])
        baseline = load_baseline(baseline_file)
        assert stale_entries([self._finding()], baseline) == []
        stale = stale_entries([], baseline)
        assert stale == [("x.py", "SIM001", "comm.barrier()", 1)]

    def test_excess_counts_are_stale(self, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, [self._finding(), self._finding()])
        stale = stale_entries([self._finding()],
                              load_baseline(baseline_file))
        assert stale == [("x.py", "SIM001", "comm.barrier()", 1)]

    def test_cli_fails_on_stale_baseline(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("def f(x):\n    return x\n")
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, [
            Finding(path=str(clean), line=2, col=5, rule="SIM001",
                    message="m", text="gone()"),
        ])
        proc = _run_cli("--baseline", str(baseline_file), str(clean))
        assert proc.returncode == 1
        assert "stale baseline entry" in proc.stderr
        assert "--write-baseline" in proc.stderr

    def test_repo_baseline_is_empty(self):
        # The baseline burn-down is done; keep it that way.
        payload = json.loads(
            (REPO / "tools" / "lint_baseline.json").read_text())
        assert payload["findings"] == []


# ------------------------------------------------- suppression edge cases
class TestSuppressionEdgeCases:
    def test_multi_rule_comment_with_spaces(self):
        supp = collect_suppressions(
            "x = f()  # repro: allow[DET101, UNIT002]\n")
        assert supp[1] == {"DET101", "UNIT002"}
        assert is_suppressed("DET101", 1, supp)
        assert is_suppressed("UNIT002", 1, supp)
        assert not is_suppressed("UNIT001", 1, supp)

    def test_decorator_line_allow_reaches_the_def(self):
        source = (
            "@decorator  # repro: allow[MPIS002]\n"
            "@another\n"
            "def program(comm):\n"
            "    pass\n"
        )
        supp = collect_suppressions(source)
        assert is_suppressed("MPIS002", 3, supp)
        assert not is_suppressed("MPIS002", 4, supp)

    def test_comment_above_decorators_reaches_the_def(self):
        source = (
            "# repro: allow[DET101]\n"
            "@cached\n"
            "def stamp():\n"
            "    pass\n"
        )
        supp = collect_suppressions(source)
        assert is_suppressed("DET101", 3, supp)

    def test_suppressed_semantic_finding_end_to_end(self):
        findings = lint_source(
            "import time\n\n"
            "def f():\n"
            "    elapsed_s = time.time()"
            "  # repro: allow[DET101]\n"
            "    return elapsed_s\n"
        )
        assert findings == []


# ------------------------------------------------------------------ SARIF
class TestSarif:
    def test_sarif_shape_and_rule_metadata(self):
        findings = lint_source(BAD_SNIPPET, "bad.py")
        log = to_sarif(findings)
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        ids = [r["id"] for r in driver["rules"]]
        assert list(ALL_RULES) == ids[:len(ALL_RULES)]
        result = run["results"][0]
        assert result["ruleId"] == "SIM001"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "bad.py"
        assert location["region"]["startLine"] == findings[0].line

    def test_sarif_cli_output_parses(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_SNIPPET)
        proc = _run_cli("--format=sarif", str(bad))
        assert proc.returncode == 1
        log = json.loads(proc.stdout)
        assert log["runs"][0]["results"][0]["ruleId"] == "SIM001"

    def test_rule_help_embeds_the_example_pair(self):
        log = to_sarif([])
        rules = log["runs"][0]["tool"]["driver"]["rules"]
        unit002 = next(r for r in rules if r["id"] == "UNIT002")
        assert RULES_BY_ID["UNIT002"].bad.strip() in \
            unit002["help"]["text"]


# ---------------------------------------------------------------- explain
class TestExplainCli:
    def test_explain_via_cli(self):
        proc = _run_cli("--explain", "MPIS002")
        assert proc.returncode == 0
        assert "collective" in proc.stdout
        assert "Violates:" in proc.stdout

    def test_unknown_rule_is_a_usage_error(self):
        # A retired rule's id is unknown too, to --select as to --explain.
        for args in (("--explain", "NOPE999"), ("--explain", "MPI002"),
                     ("--select", "DET001", "src")):
            proc = _run_cli(*args)
            assert proc.returncode == 2, args
            assert "unknown rule id" in proc.stderr, args
