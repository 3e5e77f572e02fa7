"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "144" in out and "1296" in out
    assert "24 24" in out and "24 0" in out and "12 12" in out


@pytest.mark.parametrize("number", ["3", "5", "7"])
def test_figures(number, capsys):
    assert main(["figure", number]) == 0
    out = capsys.readouterr().out
    assert f"figure{number}" in out
    assert "ime" in out and "scalapack" in out


def test_figure_rejects_unknown_number():
    with pytest.raises(SystemExit):
        main(["figure", "9"])


def test_summary(capsys):
    assert main(["summary"]) == 0
    out = capsys.readouterr().out
    assert "winner" in out
    assert out.count("\n") >= 13  # header + 12 grid rows


def test_compare(capsys):
    assert main(["compare", "-n", "17280", "-r", "144"]) == 0
    out = capsys.readouterr().out
    assert "ime" in out and "scalapack" in out
    assert "faster: ScaLAPACK" in out


def test_compare_distributed_point(capsys):
    assert main(["compare", "-n", "8640", "-r", "1296"]) == 0
    assert "faster: IMe" in capsys.readouterr().out


def test_compare_with_cap(capsys):
    assert main(["compare", "-n", "17280", "-r", "144", "--cap", "80"]) == 0
    assert "gaps" in capsys.readouterr().out


def test_compare_shape_option(capsys):
    assert main(["compare", "-n", "8640", "-r", "144",
                 "--shape", "half-1socket"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["compare", "-n", "8640", "-r", "144", "--shape", "diagonal"])


def test_powercap(capsys):
    assert main(["powercap", "-n", "17280", "-r", "144",
                 "--caps", "100", "80"]) == 0
    out = capsys.readouterr().out
    assert out.count("ime") >= 3  # header-less rows: none + 2 caps


def test_solve(tmp_path, capsys):
    assert main(["solve", "-n", "24", "-r", "8", "--repetitions", "2",
                 "--output", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "residual" in out
    assert "node 0" in out and "node 1" in out
    assert list(tmp_path.glob("*.txt"))


def test_solve_rejects_paper_scale(capsys):
    assert main(["solve", "-n", "8640"]) == 2
    assert "n <= 600" in capsys.readouterr().err


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_figure_csv_export(tmp_path, capsys):
    out_csv = tmp_path / "fig5.csv"
    assert main(["figure", "5", "--csv", str(out_csv)]) == 0
    assert "wrote" in capsys.readouterr().out
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("algorithm,series,x")
    assert len(lines) == 25  # header + 24 data points


def _tiny_bench_points(monkeypatch):
    from repro import bench

    monkeypatch.setattr(
        bench, "DEFAULT_POINTS",
        (bench.BenchPoint("ime", 96, 4, quick=True),
         bench.BenchPoint("scalapack-skel", 192, 4, nb=24)),
    )


def test_bench_json(monkeypatch, capsys):
    import json

    _tiny_bench_points(monkeypatch)
    assert main(["bench", "--json"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])
    labels = {p["label"] for p in report["points"]}
    assert labels == {"ime-n96-p4", "scalapack-skel-n192-p4"}
    for p in report["points"]:
        assert p["results"]["fast"]["virtual_s"] == \
            p["results"]["message"]["virtual_s"]
        assert p["speedup"] > 0


def test_bench_table_write_and_check(monkeypatch, tmp_path, capsys):
    import json

    _tiny_bench_points(monkeypatch)
    baseline = tmp_path / "baseline.json"
    assert main(["bench", "--quick", "--modes", "fast", "--table",
                 "--write", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "ime-n96-p4" in out and "wall_s" in out
    assert baseline.exists()
    # Same machine, same points: the regression guard must pass.
    assert main(["bench", "--quick", "--modes", "fast", "--check",
                 "--baseline", str(baseline)]) == 0
    assert "within budget" in capsys.readouterr().out
    # Each written point records its host; a tripped guard names it.
    report = json.loads(baseline.read_text())
    [point] = report["points"]
    assert set(point["host"]) == {"cpu", "nproc", "python", "numpy"}
    point["results"]["fast"]["wall_s"] = 1e-9
    baseline.write_text(json.dumps(report))
    assert main(["bench", "--quick", "--modes", "fast", "--check",
                 "--baseline", str(baseline)]) == 1
    out = capsys.readouterr().out
    assert f"baseline host {point['host']['cpu']}" in out
    assert "current host " in out
    # Modeled drift from the baseline fails even with the wall in budget.
    energy = point["results"]["fast"]["total_energy_j"]
    point["results"]["fast"]["wall_s"] = 1e9
    point["results"]["fast"]["total_energy_j"] = energy + 1e-9
    baseline.write_text(json.dumps(report))
    assert main(["bench", "--quick", "--modes", "fast", "--check",
                 "--baseline", str(baseline)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION: ime-n96-p4: fast total_energy_j" in out
    assert "!= baseline fast" in out
    # So does drift between the fast and message results of one point.
    from repro import bench

    run_point = bench.run_point

    def drifting(bench_point, mode, **kwargs):
        out = run_point(bench_point, mode, **kwargs)
        if mode == "message":
            out["messages"] += 1
        return out

    monkeypatch.setattr(bench, "run_point", drifting)
    point["results"]["fast"]["total_energy_j"] = energy
    baseline.write_text(json.dumps(report))
    assert main(["bench", "--quick", "--repeats", "1", "--check",
                 "--baseline", str(baseline)]) == 1
    out = capsys.readouterr().out
    [failure] = [line for line in out.splitlines()
                 if line.startswith("REGRESSION")]
    assert failure.startswith("REGRESSION: ime-n96-p4: fast messages ")
    assert "!= message " in failure
