"""The ``repro lint`` CLI subcommand: exit codes, JSON shape, baseline."""

import json

import pytest

from repro.cli import main

BAD_TREE = {
    "sim/clocked.py": (
        "import time\n"
        "\n"
        "def now():\n"
        "    return time.time()\n"
    ),
    "phy/sampler.py": (
        "import numpy as np\n"
        "\n"
        "rng = np.random.default_rng(0)\n"
    ),
}


@pytest.fixture
def bad_tree(tmp_path):
    for relative, source in BAD_TREE.items():
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return tmp_path


def test_clean_repo_exits_zero(capsys):
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "0 new error(s)" in out


def test_json_report_shape(capsys):
    assert main(["lint", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["rules"] == [
        "RL101", "RL102", "RL103", "RL104", "RL105", "RL106", "RL107",
        "RL108", "RL109", "RL110", "RL111",
    ]
    assert payload["checked_files"] > 50
    assert payload["counts"]["new"] == 0
    assert payload["counts"]["errors"] == 0
    assert payload["counts"]["warnings"] == 0
    assert payload["counts"]["parity_pairs"] >= 5
    trace = payload["trace"]
    for span in ("lint.walk", "lint.parse", "lint.check.RL105",
                 "lint.check.RL108", "lint.filter"):
        assert trace[span]["count"] == 1
    counters = payload["metrics"]["counters"]
    assert counters["lint.files"] == payload["checked_files"]
    assert counters["lint.findings"] == payload["counts"]["findings"]


def test_seeded_violations_exit_nonzero(bad_tree, capsys):
    code = main(["lint", "--path", str(bad_tree), "--no-baseline"])
    assert code == 1
    out = capsys.readouterr().out
    assert "RL101" in out
    assert "RL102" in out


def test_rule_filter(bad_tree, capsys):
    code = main(
        ["lint", "--path", str(bad_tree), "--no-baseline", "--rule", "RL102"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "RL102" in out
    assert "RL101" not in out


def test_json_findings_payload(bad_tree, capsys):
    code = main(["lint", "--path", str(bad_tree), "--no-baseline", "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["counts"]["new"] == 2
    rules = sorted(f["rule"] for f in payload["new_findings"])
    assert rules == ["RL101", "RL102"]
    by_rule = {f["rule"]: f for f in payload["new_findings"]}
    assert by_rule["RL101"]["path"] == "phy/sampler.py"
    assert by_rule["RL102"]["line"] == 4
    assert "time.time" in by_rule["RL102"]["snippet"]


def test_update_baseline_then_clean(bad_tree, capsys, monkeypatch):
    monkeypatch.chdir(bad_tree)
    assert main(["lint", "--path", str(bad_tree), "--update-baseline"]) == 0
    baseline = bad_tree / ".reprolint-baseline.json"
    assert baseline.is_file()
    assert len(json.loads(baseline.read_text())["entries"]) == 2
    capsys.readouterr()

    # With the accepted baseline the same tree now lints clean...
    code = main(
        ["lint", "--path", str(bad_tree), "--baseline", str(baseline)]
    )
    assert code == 0
    assert "2 baselined" in capsys.readouterr().out

    # ...but a fresh violation still fails.
    extra = bad_tree / "net" / "fresh.py"
    extra.parent.mkdir()
    extra.write_text("from time import monotonic\nt = monotonic()\n")
    code = main(
        ["lint", "--path", str(bad_tree), "--baseline", str(baseline)]
    )
    assert code == 1


def test_unknown_rule_errors(bad_tree):
    with pytest.raises(ValueError, match="unknown rule"):
        main(["lint", "--path", str(bad_tree), "--rule", "RL999"])
