"""``benchmarks/pairs.py``: paired base/change runs of one command."""

import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
try:
    PAIRS = runpy.run_path(str(ROOT / "benchmarks" / "pairs.py"), run_name="imported")
finally:
    sys.path.remove(str(ROOT / "benchmarks"))


def test_sign_test_p():
    assert PAIRS["sign_test_p"](10, 10) == pytest.approx(1 / 1024)
    assert PAIRS["sign_test_p"](9, 10) == pytest.approx(11 / 1024)
    assert PAIRS["sign_test_p"](0, 10) == 1.0


def test_summarize_counts_the_better_side():
    base, change = [4.0, 5.0, 6.0, 7.0], [5.0, 4.0, 8.0, 9.0]
    higher = PAIRS["summarize"](base, change, "higher")
    assert (higher["k"], higher["change_better"]) == (4, 3)
    assert higher["base"]["median"] == 5.5 and higher["change"]["median"] == 6.5
    assert higher["base"]["q1"] == 4.75 and higher["base"]["iqr"] == 1.5
    assert higher["sign_test_p"] == pytest.approx(5 / 16)
    assert PAIRS["summarize"](base, change, "lower")["change_better"] == 1


def test_last_json_line():
    out = 'progress\n{"metrics": {"x": {"value": 1.0}}}\nnot json {\n'
    assert PAIRS["last_json"](out) == {"metrics": {"x": {"value": 1.0}}}
    with pytest.raises(ValueError):
        PAIRS["last_json"]("no json here\n")


def test_end_to_end_on_head(tmp_path):
    """Two pairs of a command that prints its tree's name; records merge."""
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, check=False)
    if done.returncode != 0:
        pytest.skip("not a git checkout")
    out = tmp_path / "bench.json"
    out.write_text(json.dumps([{"metric": "other", "git_rev": "x"}]))
    script = (
        "import json, os; base = not os.path.exists('.git'); "
        "print(json.dumps({'failed': 0, 'metrics': {'v': {'value': 1.0 if base else 2.0, "
        "'unit': 's'}}}))"
    )
    argv = ["--base", "HEAD", "--pairs", "2", "--layer", "t", "--label", "demo",
            "--metric", "v", "--better", "lower", "--out", str(out), "--", sys.executable, "-c",
            script]
    for _ in range(2):
        assert PAIRS["main"](argv) == 0
    records = json.loads(out.read_text())
    assert [r["metric"] for r in records] == ["other", "paired.demo.v"]
    paired = records[1]["paired"]
    assert paired["base"]["values"] == [1.0, 1.0] and paired["change"]["values"] == [2.0, 2.0]
    assert paired["change_better"] == 0 and records[1]["unit"] == "s"
    assert records[1]["base_rev"] == done.stdout.decode().strip()
