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
