"""The package namespace: every module's public names, and nothing of the CLI."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import lorm

# every public module but the command line
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(lorm.__path__) if m.name[0] != "_" and m.name != "cli"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_is_importable_from_lorm(name):
    module = importlib.import_module(f"lorm.{name}")
    for attr in module.__all__:
        assert getattr(lorm, attr) is getattr(module, attr), attr


def test_import_lorm_does_not_load_the_cli():
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(lorm.__file__)))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", "import lorm, sys; assert 'lorm.cli' not in sys.modules"],
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
        timeout=60,
    )
