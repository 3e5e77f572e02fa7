"""Engine-level behavior of the semantic lint driver: findings as a
function of files and paths, cross-file facts, suppression edge cases,
the rule registry / --explain, usage errors, and the SARIF output.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.lint.registry import ALL_RULES, RULES, RULES_BY_ID, explain
from repro.lint.runner import lint_paths, lint_source
from repro.lint.sarif import to_sarif
from repro.lint.suppressions import collect_suppressions, is_suppressed

REPO = Path(__file__).resolve().parent.parent

BAD_SNIPPET = textwrap.dedent("""
    def program(comm):
        comm.barrier()
        yield
""")


def _run_cli(*args, cwd=REPO, env=None):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", *args],
        capture_output=True, text=True, cwd=cwd,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin",
             **(env or {})},
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


# ------------------------------------------------ files and their paths
CLOCK_SNIPPET = textwrap.dedent("""\
    import time


    def step(ctx):
        t0 = time.perf_counter()
        elapsed_s = time.perf_counter() - t0
        yield from ctx.elapse(elapsed_s)
""")


class TestFindingsFollowPaths:
    def test_same_source_under_two_paths_keeps_its_findings(self, tmp_path):
        # DET101 applies under src/repro only, so identical bytes at
        # tools/ must not decide the src/repro copy's findings, on any
        # run: a second run reports what the first did.
        for rel in ("src/repro/clock.py", "tools/clock.py"):
            target = tmp_path / rel
            target.parent.mkdir(parents=True)
            target.write_text(CLOCK_SNIPPET)
        cache_root = tmp_path / "cache"
        env = {"REPRO_CACHE_DIR": str(cache_root)}
        for _ in range(2):
            proc = _run_cli("src/repro", "tools", cwd=tmp_path, env=env)
            assert proc.returncode == 1, proc.stdout + proc.stderr
            flagged = [line.split(":")[0] for line in proc.stdout.splitlines()
                       if "DET101" in line]
            assert flagged == ["src/repro/clock.py"] * 2, proc.stdout
        assert not (cache_root / "lint").exists()

    def test_changing_a_summary_changes_dependent_findings(self, tmp_path):
        # When a helper's return dimension changes, a file that calls it
        # gets new findings even though its own bytes are unchanged.
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "helper.py").write_text(
            "def sample():\n    return 1.0\n")
        (tree / "user.py").write_text(
            "from helper import sample\n\n"
            "def total():\n"
            "    total_j = 0.0\n"
            "    total_j += sample()\n"
            "    return total_j\n")
        assert lint_paths([str(tree)]).findings == []

        (tree / "helper.py").write_text(
            "def sample():\n    pkg_w = 1.0\n    return pkg_w\n")
        second = lint_paths([str(tree)])
        assert [(Path(f.path).name, f.rule) for f in second.findings] \
            == [("user.py", "UNIT002")]


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

    def test_missing_path_is_a_usage_error(self, tmp_path):
        for missing in (tmp_path / "no_such.py", tmp_path / "no_such_dir"):
            proc = _run_cli(str(missing))
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr == f"{missing}: no such file or directory\n"
            assert proc.stdout == ""

    def test_unknown_rule_is_a_usage_error(self):
        # A retired rule's id is unknown too, to --select as to --explain.
        for args in (("--explain", "NOPE999"), ("--explain", "MPI002"),
                     ("--select", "DET001", "src")):
            proc = _run_cli(*args)
            assert proc.returncode == 2, args
            assert "unknown rule id" in proc.stderr, args
