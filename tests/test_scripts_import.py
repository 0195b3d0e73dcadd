"""Every example and benchmark script imports against the current package.

The scripts under ``examples/`` and ``benchmarks/`` are not collected by
the test suite, so a removed or renamed public name would otherwise only
surface when someone next runs them.  Each is imported by path under a
private module name, which leaves its ``if __name__ == "__main__"`` body
unexecuted (the pytest-benchmark modules have no such body: importing
them only defines their benchmark functions).
"""

from __future__ import annotations

import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT_DIRS = ("examples", "benchmarks")
SCRIPTS = sorted(
    os.path.join(directory, name)
    for directory in SCRIPT_DIRS
    for name in os.listdir(os.path.join(ROOT, directory))
    if name.endswith(".py")
)


def _under_repo_scripts(module) -> bool:
    path = getattr(module, "__file__", None) or ""
    return any(
        path.startswith(os.path.join(ROOT, directory) + os.sep)
        for directory in SCRIPT_DIRS + ("tests",)
    )


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_imports(script):
    path = os.path.join(ROOT, script)
    module_name = "_script_" + script.replace(os.sep, "_")[: -len(".py")]
    saved_path = list(sys.path)
    saved_modules = set(sys.modules)
    spec = importlib.util.spec_from_file_location(module_name, path)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        # Scripts may prepend helper directories to sys.path and import
        # helpers from them; undo both so other tests see the usual state.
        sys.path[:] = saved_path
        for name in set(sys.modules) - saved_modules:
            if _under_repo_scripts(sys.modules[name]):
                del sys.modules[name]
    assert module.__name__ == module_name


def test_both_script_directories_are_listed():
    assert {script.split(os.sep)[0] for script in SCRIPTS} == set(SCRIPT_DIRS)
