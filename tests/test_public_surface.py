"""Guards on the package's public surface.

Every name a ``repro`` module lists in ``__all__`` must resolve, so an
export left behind when its code is deleted fails here rather than only
under ``from repro.x import *``.  And the per-packet ``*_reference``
oracles live in ``tests/``: the package neither defines one nor imports
anything from ``tests``.  Simulating does not import scipy, which only
the BSTM fits need, and the CLI and the service start without the
report layer (``repro.experiments``).
"""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if not info.name.endswith(".__main__")
)


@pytest.mark.parametrize("name", ["repro"] + MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ())
               if not hasattr(module, export)]
    assert missing == []


def test_exports_are_checked():
    """The walk is not vacuous: it reaches the subpackage ``__init__``s."""
    assert {"repro.net", "repro.obs", "repro.analysis"} <= set(MODULES)


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC), ast.parse(path.read_text(),
                                              filename=str(path))


def _is_tests(module: str | None) -> bool:
    return module is not None and module.split(".")[0] == "tests"


class TestOraclesStayInTests:
    def test_no_reference_defined_in_src(self):
        offenders = [
            f"{path}:{node.lineno} {node.name}"
            for path, tree in _trees() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.endswith("_reference")
        ]
        assert offenders == []

    def test_src_never_imports_tests(self):
        offenders = [
            f"{path}:{node.lineno}"
            for path, tree in _trees() for node in ast.walk(tree)
            if (isinstance(node, ast.Import)
                and any(_is_tests(alias.name) for alias in node.names))
            or (isinstance(node, ast.ImportFrom) and node.level == 0
                and _is_tests(node.module))
        ]
        assert offenders == []


def _fresh_imports(modules: str, packages: tuple[str, ...]) -> list[str]:
    """The modules of ``packages`` loaded once a fresh interpreter has
    imported ``modules`` (this one may already have them)."""
    code = (f"import sys, {modules}; packages = {packages!r}; "
            "print(sorted(m for m in sys.modules for p in packages "
            "if m == p or m.startswith(p + '.')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return ast.literal_eval(proc.stdout.strip())


def test_simulation_path_does_not_import_scipy():
    """scipy costs about half a second at start-up; every run, bench
    child and service worker would pay it if a simulation-path module
    imported it."""
    loaded = _fresh_imports(
        "repro.sim, repro.exec, repro.service, repro.observatory",
        ("scipy",))
    assert loaded == []


def test_cli_and_service_start_without_report_layer():
    """``repro serve`` renders no report section, so importing the CLI
    and the service must load neither the experiment drivers nor (through
    them) scipy; only the subcommands that render import them."""
    loaded = _fresh_imports(
        "repro.__main__, repro.service",
        ("scipy", "repro.experiments"))
    assert loaded == []

