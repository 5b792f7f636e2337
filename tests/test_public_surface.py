"""Guards on the package's public surface.

Every name a ``repro`` module lists in ``__all__`` must resolve, so an
export left behind when its code is deleted fails here rather than only
under ``from repro.x import *``.  And the per-packet ``*_reference``
oracles live in ``tests/``: the package neither defines one nor imports
anything from ``tests``.  Simulating does not import scipy, which only
the BSTM fits need, and the CLI and the service start without the
report layer (``repro.experiments``) or the modules only it and the
standalone tools run.  README's building-blocks example runs as written.
"""

import ast
import importlib
import os
import pathlib
import pkgutil
import re
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
    """The walk is not vacuous: it reaches subpackage ``__init__``s that
    still export names."""
    exporting = ("repro.obs", "repro.sim", "repro.observatory")
    assert set(exporting) <= set(MODULES)
    assert all(importlib.import_module(name).__all__ for name in exporting)


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


#: Modules that only the report sections, the drift report and the
#: standalone tools (pcap I/O, TGA evaluation) run.
REPORT_ONLY = (
    *(f"repro.analysis.{name}" for name in (
        "bstm", "effects", "flows", "hilbert", "jaccard", "scope",
        "blocklist", "addrpatterns", "asinfo")),
    "repro.sim.cdn",
    "repro.net.realpcap",
    "repro.observatory.drift",
    "repro.scanners.tga6tree",
    "repro.scanners.entropy_tga",
    "repro.scanners.tga_eval",
)


def test_run_path_imports_only_what_runs():
    """A scenario run, an observe run and the run store load no module
    that only a report section or a standalone tool calls: every bench
    child and service worker would pay for compiling it at start."""
    loaded = _fresh_imports(
        "repro.sim.runner, repro.observatory.observer, repro.exec.cache",
        REPORT_ONLY)
    assert loaded == []


def test_cli_and_service_import_only_what_runs():
    """The CLI and the service start without the report-only modules;
    the service server does not load the client it serves."""
    loaded = _fresh_imports(
        "repro.__main__, repro.service.core, repro.service.http",
        (*REPORT_ONLY, "repro.service.client"))
    assert loaded == []


def test_observability_imports_no_simulation():
    """The top-level package exports only ``__version__``, so a process
    that imports ``repro.obs`` (or anything that imports only it) does
    not load the simulation stack."""
    assert repro.__all__ == ["__version__"]
    assert _fresh_imports("repro.obs", ("repro.sim",)) == []


def _readme_block(heading: str) -> str:
    """The first fenced python block under ``heading`` in README.md."""
    text = (SRC.parents[1] / "README.md").read_text()
    section = text.split(f"\n{heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_building_blocks_run():
    """README's "Building blocks directly" example imports and runs as
    written."""
    namespace = {}
    exec(compile(_readme_block("### Building blocks directly"),
                 "README.md", "exec"), namespace)
    hp = namespace["hp"]
    assert str(hp.prefix) == "2001:db8:9999::/48"
    assert hp.config.name == "H_TPot1"
