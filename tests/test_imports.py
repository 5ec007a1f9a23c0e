"""What the package loads: importing udwmi and running its everyday
operations (a point query, a sweep, the oracle suite) loads no scipy
module, whose import would cost more than the package's own. The sweep
runs on a process pool there too, out of reach of any test's patches."""
import json
import subprocess
import sys

EVERYDAY = """
import contextlib, io, json, sys
import udwmi, udwmi.cli, udwmi.sweep
from udwmi.sweep import SweepAxis, SweepSpec, run_oracle_suite, run_sweep

with contextlib.redirect_stdout(io.StringIO()):
    code = udwmi.cli.main(["mi", "--gap-a", "0.1", "--accel", "5",
                           "--radius", "0.02", "--sep", "1", "--dz", "0.5"])
spec = SweepSpec(axis=SweepAxis(name="sep", start=0.5, stop=1.5, points=3),
                 dz=0.5)
rows = run_sweep(spec, workers=1)
pooled = run_sweep(spec, workers=2)
report = run_oracle_suite("oracle_grid_smoke", workers=1)
print(json.dumps({
    "exit": code, "rows": len(rows), "pooled_equal": pooled == rows,
    "ok": report["ok"],
    "scipy": sorted(m for m in sys.modules
                    if m == "scipy" or m.startswith("scipy.")),
}))
"""


def test_everyday_operations_load_no_scipy():
    # a fresh interpreter: this test process has scipy loaded already
    proc = subprocess.run([sys.executable, "-c", EVERYDAY],
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == {"exit": 0, "rows": 3,
                                       "pooled_equal": True, "ok": True,
                                       "scipy": []}
