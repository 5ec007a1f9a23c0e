"""What the package imports and loads. numpy is its only runtime
dependency: no module of udwmi imports anything else outside the
standard library, at module level or inside a function. And importing
udwmi and running its everyday operations (a point query, a sweep, the
oracle suite, counting interior maxima) loads no scipy module, whose
import would cost more than the package's own. The sweep runs on a
process pool there too, out of reach of any test's patches. Nor do
they load numpy.polynomial."""
import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import udwmi

EVERYDAY = """
import contextlib, io, json, sys
import udwmi, udwmi.cli, udwmi.sweep
from udwmi.sweep import (SweepAxis, SweepSpec, count_interior_maxima,
                         run_oracle_suite, run_sweep)

with contextlib.redirect_stdout(io.StringIO()):
    code = udwmi.cli.main(["mi", "--gap-a", "0.1", "--accel", "5",
                           "--radius", "0.02", "--sep", "1", "--dz", "0.5"])
spec = SweepSpec(axis=SweepAxis(name="sep", start=0.5, stop=1.5, points=3),
                 dz=0.5)
rows = run_sweep(spec, workers=1)
pooled = run_sweep(spec, workers=2)
report = run_oracle_suite("oracle_grid_smoke", workers=1)
maxima = count_interior_maxima([0.0, 1.0, 0.5, 2.0, 2.0, 0.0])
print(json.dumps({
    "exit": code, "rows": len(rows), "pooled_equal": pooled == rows,
    "ok": report["ok"], "maxima": maxima,
    "scipy": sorted(m for m in sys.modules
                    if m == "scipy" or m.startswith("scipy.")),
    "polynomial": "numpy.polynomial" in sys.modules,
}))
"""


def test_everyday_operations_load_no_scipy():
    # a fresh interpreter: this test process has scipy loaded already
    proc = subprocess.run([sys.executable, "-c", EVERYDAY],
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == {"exit": 0, "rows": 3,
                                       "pooled_equal": True, "ok": True,
                                       "maxima": 2, "scipy": [],
                                       "polynomial": False}


def test_src_imports_numpy_and_the_standard_library_only():
    allowed = sys.stdlib_module_names | {"numpy"}
    found = []
    for path in sorted(Path(udwmi.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # not an import, or a relative one
                continue
            found += [(path.name, node.lineno, name) for name in names
                      if name.split(".")[0] not in allowed]
    assert found == []


def test_every_exported_name_resolves():
    # a name left in an __all__ after its definition went fails here,
    # and so does a star import of the package or of a module
    modules = [udwmi] + [importlib.import_module(f"udwmi.{path.stem}")
                         for path in sorted(Path(udwmi.__file__).parent
                                            .glob("*.py"))
                         if path.stem != "__init__"]
    missing = [(mod.__name__, name) for mod in modules
               for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert missing == []
    for mod in modules:
        namespace = {}
        exec(f"from {mod.__name__} import *", namespace)
        assert set(getattr(mod, "__all__", ())) <= set(namespace)
