"""Every module of the package uses each name it imports, and start-up stays lean.

A point query is mostly interpreter start-up and import, so the package keeps
``dataclasses`` (which loads ``inspect``, ``ast`` and ``dis``, about half of
the package's import time), file-handling modules such as ``tempfile`` and
``pathlib``, ``argparse`` and, but for a read of a document, ``json`` off
its import path.  Every layer is still imported eagerly by
``dnbranch.cli``: the benchmark's tracer wraps only the modules loaded by
that import.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dnbranch"

# the package __init__ imports names to re-export them
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in ``source``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_detector_sees_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from collections import Counter, deque\n"
        "from . import io as dio\n"
        "def f(x: deque) -> None:\n"
        "    return os.sep, dio\n"
    )
    assert unused_imports(source) == ["Counter", "system"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def unused_private_names(sources: list[str]) -> list[str]:
    """Module-level ``_``-prefixed functions and classes that no source reads.

    Dunder names are left out.  A name counts as read where it appears as a
    name, an attribute or an imported name anywhere in ``sources``.
    """
    defined = set()
    used = set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.add(node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted(defined - used)


def test_detector_sees_unused_private_names():
    sources = [
        "def _dead(): pass\n"
        "def _called(): pass\n"
        "class _Unused: pass\n"
        "def __getattr__(name): pass\n"
        "def public(): return _called()\n",
        "from .a import _imported\nimport m\nm._attribute\n",
        "def _imported(): pass\ndef _attribute(): pass\n",
    ]
    assert unused_private_names(sources) == ["_Unused", "_dead"]


def test_every_private_helper_has_a_caller():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unused_private_names(sources) == []


def imported_modules(source: str) -> set[str]:
    """Top-level names of the absolute imports in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_detector_sees_imported_modules():
    source = "import os.path, json as j\nfrom dataclasses import field\nfrom . import io\n"
    assert imported_modules(source) == {"os", "json", "dataclasses"}


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_module_does_not_import_dataclasses(module):
    assert "dataclasses" not in imported_modules((PACKAGE / module).read_text())


def package_imports(source: str) -> set[str]:
    """The modules of the package that ``source``, one of its modules, imports."""
    modules = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:
                module = "dnbranch" + (f".{module}" if module else "")
            if module == "dnbranch":  # from . import io: the names are modules
                modules += [f"dnbranch.{alias.name}" for alias in node.names]
            else:
                modules.append(module)
    return {name.split(".")[1] for name in modules if name.startswith("dnbranch.")}


def test_detector_sees_package_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, dnbranch.cli\n"
        "from . import core, io as dio\n"
        "from .crystal import good_nodes\n"
        "from dnbranch.dmod import involution\n"
        "from dnbranch import oracle\n"
        "def f():\n"
        "    from .reference import f_tilde\n"
    )
    assert package_imports(source) == {"cli", "core", "io", "crystal", "dmod", "oracle", "reference"}


# The definitional crystal shares no code with the engine it checks: it
# imports nothing of the package but core and errors, and no engine module
# calls it, so a suite or test that compares the two compares the engine
# with the definitions.
REFERENCE = PACKAGE / "reference.py"
ENGINE = ("crystal", "dmod", "io", "cli")


def test_reference_imports_only_core_and_errors():
    source = REFERENCE.read_text()
    assert package_imports(source) == {"core", "errors"}
    # the rule sees an engine call, a dmod name and a suite helper put into
    # a reference helper, each with the import it needs
    for call, line in (
        ("good_nodes(bp, params)[0]", "from .crystal import good_nodes"),
        ("format_label(bp)", "from .dmod import format_label"),
        ("_new_report(bp, params, 0)", "from .oracle import _new_report"),
    ):
        doctored = source.replace(
            "e_tilde(bp, step, params)) is not None", f"{call}) is not None"
        ).replace("from .errors import", f"{line}\nfrom .errors import")
        assert doctored.count(call) == doctored.count(line) == 1
        assert not package_imports(doctored) <= {"core", "errors"}, call


def reference_calls(source: str, defined: set[str]) -> list[str]:
    """The calls in ``source`` of a function named in ``defined``, by its
    name, as an attribute or under an import alias."""
    tree = ast.parse(source)
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.asname
    }
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if aliases.get(name, name) in defined:
                calls.append(name)
    return calls


def test_no_engine_module_calls_a_reference_function():
    tree = ast.parse(REFERENCE.read_text())
    defined = {
        node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert {"f_tilde", "e_tilde", "reference_h", "Signature"} <= defined
    for module in ENGINE:
        assert reference_calls((PACKAGE / f"{module}.py").read_text(), defined) == [], module
    # the rule sees f_tilde put back into the lone shifted replay, by name or alias
    source = (PACKAGE / "dmod.py").read_text()
    for name in ("f_tilde", "step_up"):
        doctored = source.replace("good_child(image, ", f"{name}(image, ").replace(
            "from .errors import", f"from .reference import f_tilde as {name}\nfrom .errors import"
        )
        assert reference_calls(doctored, defined) == [name]


HEAVY = ["dataclasses", "inspect", "ast", "dis"]
# file handling that no command needs, together about 15 ms under -S, and
# argparse with gettext, locale and (for its help width) shutil, about 4 ms;
# only parse_json uses the json module: a verify report is written as text
UNWANTED = ["tempfile", "pathlib", "shutil", "random", "argparse", "gettext", "locale", "json"]
LAYERS = [f"dnbranch.{name}" for name in ("core", "crystal", "dmod", "io", "oracle", "reference")]

# -S: no site packages, so nothing but the package can load these modules;
# the result is printed as a Python literal, so the script needs no json
_IMPORT_SCRIPT = """
import contextlib, io, sys
seen = {}
import dnbranch.cli
seen["import"] = sorted(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [dnbranch.cli.main(["involution", "--e", "4", "--n", "16",
                                "--bipartition=2,1|3,2,2,2,1,1,1,1"])]
    seen["involution"] = sorted(sys.modules)
    codes.append(dnbranch.cli.main(["dims", "--bipartition=2,1|3,2"]))
    seen["dims"] = sorted(sys.modules)
    codes.append(dnbranch.cli.main(["verify", "--suite", "uniqueness-distinctness",
                                    "--e", "4", "--n", "6", "--format", "json"]))
    seen["verify"] = sorted(sys.modules)
print(repr({"codes": codes, "seen": seen}))
"""


def test_point_query_loads_every_layer_and_no_heavy_module():
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_SCRIPT],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    out = ast.literal_eval(result.stdout)
    assert out["codes"] == [0, 0, 0]
    assert list(out["seen"]) == ["import", "involution", "dims", "verify"]
    for stage, modules in out["seen"].items():
        unwanted = HEAVY + UNWANTED
        assert [name for name in unwanted if name in modules] == [], stage
        assert [name for name in LAYERS if name not in modules] == [], stage
