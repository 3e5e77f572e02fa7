"""Findings: what a lint rule reports, and their report order."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: a rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    #: stripped source line the finding points at
    text: str = ""

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "text": self.text,
        }


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Deterministic report order: path, then position, then rule."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
