import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import wignerlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(wignerlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"wignerlab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    exec(f"from wignerlab.{name} import *", {})


def test_package_imports_cleanly():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", "import wignerlab"], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
