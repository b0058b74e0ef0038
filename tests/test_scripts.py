import json
import os
import re
import subprocess
import sys
from pathlib import Path

from dnbranch.cli import parse_args

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


def test_layer_grid_script_prints_a_row_per_call():
    result = _run_script("layer_grid.py", "--repeat", "1", "dims --bipartition=2,1|1", "labels --e 4 --n 5")
    assert result.returncode == 0, result.stdout + result.stderr
    grid = json.loads(result.stdout)
    assert grid["repeat"] == 1 and grid["floor_ms"]["median"] > 0
    assert [row["argv"] for row in grid["calls"]] == [
        ["dims", "--bipartition=2,1|1"], ["labels", "--e", "4", "--n", "5"],
    ]
    for row in grid["calls"]:
        assert row["exit"] == 0
        assert all(row[key]["median"] > 0 for key in ("wall_ms", "run_ms", "vmhwm_mb"))


def test_layer_grid_default_calls_parse():
    # every call of the default grid is a command line the CLI accepts
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        from layer_grid import default_grid
    finally:
        sys.path.pop(0)
    grid = default_grid()
    assert len(grid) == 48
    for argv in grid:
        assert parse_args(argv).func is not None, argv
