import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_run_verification_script_passes():
    result = _run_script("run_verification.py", "--max-n", "6")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "all suites passed" in result.stdout


def test_branching_tables_script_runs():
    result = _run_script("branching_tables.py", "--e", "4", "--n", "5")
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.startswith("regime B, l=2, 55 vertices\n")
    assert "12 simple-module labels at level 5:" in result.stdout
    assert "  D(-|2,2,1) -> D(-|2,1,1) + D(-|2,2)\n" in result.stdout


def test_readme_python_blocks_run_in_order():
    # one namespace for every block, as a reader would type them, so the
    # documented library API cannot drift from the package
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_peak_rss_script_prints_every_command():
    result = _run_script("peak_rss.py", "--repeat", "1", "4,3")
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].split() == ["point", "command", "format", "peak", "MB"]
    rows = [line.split() for line in lines[1:]]
    assert [row[1:3] for row in rows] == [
        ["lattice", "text"], ["lattice", "json"], ["lattice", "dot"],
        ["labels", "text"], ["labels", "json"],
        ["branch", "text"], ["branch", "json"], ["branch", "dot"],
    ]
    assert all(row[0] == "4,3" and float(row[3]) > 0 for row in rows)


def test_branch_times_script_prints_every_point_then_the_queries():
    result = _run_script("branch_times.py", "--repeat", "1", "--queries", "2", "4,5", "inf,4")
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "branch --format json, best of 1, cold component memo"
    assert [line.split()[0] for line in lines[2:4]] == ["4,5", "inf,4"]
    assert all(float(line.split()[1]) > 0 for line in lines[2:4])
    assert lines[4] == "point queries: 4 labels, seed 0, best of 1 passes"
    assert [line.split()[0] for line in lines[5:]] == ["involution", "branch"]
    assert all(line.endswith(" ms per query") for line in lines[5:])


def test_startup_floor_script_prints_the_floor_then_every_call():
    result = _run_script("startup_floor.py", "--rounds", "1")
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "median of 1 rounds, ms"
    assert re.fullmatch(r"floor os\._exit +\d+\.\d\d", lines[1])
    assert [line.split()[0] for line in lines[2:]] == ["dims", "involution", "branch", "labels", "verify"]
    assert all(re.fullmatch(r"\w+ +\d+\.\d\d +[+-]\d+\.\d\d", line) for line in lines[2:])
