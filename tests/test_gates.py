"""The gate runner of ``benchmarks/gates.py``: records, JSON lines, exit status.

No real gate runs here: two injected cases stand in, one inside its
limit and one outside it.
"""

import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def gates(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import gates

    def inside(full):
        return [
            gates.record("wall_s", 0.5, "s", ("<=", 1.0)),
            gates.record("full", int(full), "bool"),
        ]

    def outside(full):
        return [gates.check("holds", False)]

    monkeypatch.setattr(gates, "CASES", {"inside": inside, "outside": outside})
    return gates


def test_records_hold_limits_and_append_json_lines(gates, tmp_path, capsys):
    path = tmp_path / "gates.jsonl"
    assert gates.main(["--case", "inside", "--json", str(path)]) == 0
    both = ["--case", "inside", "--case", "outside", "--full"]
    assert gates.main([*both, "--json", str(path)]) == 1
    records = [json.loads(line) for line in path.read_text().splitlines()]
    fields = ["case", "metric", "value", "unit", "limit", "passed"]
    assert all(list(rec) == fields for rec in records)
    assert [tuple(rec.values()) for rec in records] == [
        ("inside", "wall_s", 0.5, "s", "<= 1", True),
        ("inside", "full", 0, "bool", None, True),
        ("inside", "wall_s", 0.5, "s", "<= 1", True),
        ("inside", "full", 1, "bool", None, True),
        ("outside", "holds", 0, "bool", "== 1", False),
    ]
    out = capsys.readouterr().out
    assert "2 records, 0 outside their limit" in out
    assert "3 records, 1 outside their limit" in out


def test_every_case_runs_by_default_and_unknown_cases_are_refused(gates, capsys):
    assert gates.main([]) == 1
    assert "3 records, 1 outside their limit" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        gates.main(["--case", "nonexistent"])


def test_an_unmeasured_value_misses_its_limit(gates):
    assert gates.record("speedup", None, "x", (">=", 5.0))["passed"] is False
    assert gates.record("speedup", None, "x")["passed"] is True
