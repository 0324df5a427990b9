"""Every module of the package imports in a fresh interpreter.

A fresh interpreter holds no module that an earlier test imported, so an
import cycle (between census and generic, say) or any other import-time
failure of a module is reported here under that module's name, cli
included, which the package itself does not import.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import planeforge
import planeforge.census as census_mod
import planeforge.generic as generic_mod

from .conftest import library_env

MODULES = sorted(
    path.stem
    for path in Path(planeforge.__file__).parent.glob("*.py")
    if path.stem != "__init__"
)


def test_every_module_is_listed():
    assert {"amalgam", "census", "generic", "plane"} <= set(MODULES)


def test_the_builder_reads_the_census_slack_test():
    # One copy of the step test: the seams that patch generic._strong_over
    # patch the census's own.
    assert generic_mod._strong_over is census_mod._strong_over


def test_the_builder_keys_planes_only_through_the_class_index():
    # One class index: the builder labels copies with the census's own
    # lookup and imports neither labelling search nor canonical_labeling.
    assert generic_mod._class_of is census_mod._class_of
    for name in ("_least_encoding", "_order_with", "canonical_labeling"):
        assert not hasattr(generic_mod, name), name


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    proc = subprocess.run(
        [sys.executable, "-c", f"import planeforge.{module}"],
        capture_output=True, text=True, env=library_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_the_package_loads_neither_string_nor_argparse():
    # Every process pays for what the package imports; only planeforge.cli
    # needs argparse, and nothing needs string.
    script = (
        "import sys; before = set(sys.modules); import planeforge; "
        "print(sorted({'string', 'argparse'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=library_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
