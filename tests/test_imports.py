"""Importing the package loads numpy only: scipy is imported by the
functions that use it (the Crank-Nicolson oracle, grid-sampled drivers and
the acceptance suite), not by any module at import time.  Every module
defines each name it exports."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_scipy():
    code = ("import json, sys\n"
            "import youngbsde, youngbsde.cli, youngbsde.experiments, "
            "youngbsde.fd\n"
            "print(json.dumps(sorted(k for k in sys.modules\n"
            "                        if k.split('.')[0] == 'scipy')))")
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          stdout=subprocess.PIPE, text=True, check=True)
    assert json.loads(proc.stdout) == []


def test_every_export_is_defined():
    import youngbsde

    modules = [youngbsde] + [
        importlib.import_module(f"youngbsde.{info.name}")
        for info in pkgutil.iter_modules(youngbsde.__path__)]
    stale = [f"{module.__name__}.{name}" for module in modules
             for name in getattr(module, "__all__", [])
             if not hasattr(module, name)]
    assert stale == []
