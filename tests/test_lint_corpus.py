"""Seeded-defect corpus: every semantic rule catches its planted bug,
passes its near-miss twin, and — for the MPIS family — agrees with the
runtime sanitizer on the same programs.
"""

from pathlib import Path

import pytest

from repro.lint.runner import lint_source
from repro.simmpi.comm import World
from repro.simmpi.engine import Simulator
from repro.simmpi.errors import SimMPIError

CORPUS = Path(__file__).parent / "lint_corpus"

#: the semantic families introduced by the flow engine
NEW_FAMILY_RULES = frozenset({
    "UNIT001", "UNIT002", "UNIT003",
    "DET101", "DET102",
    "MPIS001", "MPIS002", "MPIS003",
    "SRV001",
})

RULES = sorted(p.stem.split("_")[0].upper()
               for p in CORPUS.glob("*_defect.py"))


def _lint_file(path: Path, select=None):
    from repro.lint.runner import LintOptions

    options = LintOptions(det_scope=(), select=select)
    return lint_source(path.read_text(), str(path), options)


def test_corpus_is_complete():
    # One defect + one twin per semantic rule; nothing missing, nothing
    # orphaned.
    assert set(RULES) == {r[:-3] + r[-3:] for r in NEW_FAMILY_RULES}
    for rule in RULES:
        assert (CORPUS / f"{rule.lower()}_twin.py").exists()


@pytest.mark.parametrize("rule", RULES)
def test_defect_is_flagged(rule):
    findings = _lint_file(CORPUS / f"{rule.lower()}_defect.py",
                          select=frozenset({rule}))
    assert [f.rule for f in findings].count(rule) >= 1, \
        f"{rule} missed its planted defect"


@pytest.mark.parametrize("rule", RULES)
def test_twin_is_clean_under_its_rule(rule):
    findings = _lint_file(CORPUS / f"{rule.lower()}_twin.py",
                          select=frozenset({rule}))
    assert findings == [], \
        f"{rule} false-positived on its near-miss twin: {findings}"


@pytest.mark.parametrize("rule", RULES)
def test_twin_is_clean_under_every_new_family(rule):
    findings = _lint_file(CORPUS / f"{rule.lower()}_twin.py",
                          select=NEW_FAMILY_RULES)
    assert findings == [], \
        f"twin of {rule} tripped a semantic rule: {findings}"


# ------------------------------------------------- sanitizer cross-check
def _run_sanitized(module_name: str, size: int = 2):
    import importlib

    module = importlib.import_module(f"lint_corpus.{module_name}")
    sim = Simulator(sanitize=True)
    world = World(sim, size)
    comms = world.comm_world()
    for comm in comms:
        sim.spawn(module.program(comm), name=f"r{comm.rank}")
    sim.run()


@pytest.mark.parametrize("rule", ["mpis001", "mpis002", "mpis003"])
def test_static_verdicts_agree_with_runtime_sanitizer(rule, monkeypatch):
    # The statically flagged program must also abort at runtime, and the
    # statically clean twin must run to completion: the MPIS family is
    # the lint-time twin of the sanitizer, not an approximation of it.
    monkeypatch.syspath_prepend(str(Path(__file__).parent))
    with pytest.raises(SimMPIError):
        _run_sanitized(f"{rule}_defect")
    _run_sanitized(f"{rule}_twin")
