"""Tests for the ``repro trace`` CLI subcommand."""

import json

from repro.cli import main

SMALL = ["--n", "96", "--ranks", "4", "--chunks", "6"]


def test_trace_writes_valid_chrome_json(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["trace", "--algorithm", "ime", *SMALL,
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "wrote" in printed and "spans" in printed
    doc = json.loads(out.read_text())
    events = doc["traceEvents"]
    cats = {e.get("cat") for e in events if e["ph"] == "X"}
    assert {"coll", "phase", "monitor"} <= cats
    names = {e["name"] for e in events if e.get("cat") == "phase"}
    assert {"ime:initime", "ime:levels", "ime:solution"} <= names


def test_trace_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["trace", *SMALL, "--seed", "5", "--out", str(a)]) == 0
    assert main(["trace", *SMALL, "--seed", "5", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_trace_report_prints_attribution(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["trace", "--algorithm", "scalapack", *SMALL,
                 "--out", str(out), "--report"]) == 0
    printed = capsys.readouterr().out
    assert "per-phase energy attribution" in printed
    assert "scalapack:factorize" in printed
    assert "metrics" in printed and "comm.bytes" in printed
