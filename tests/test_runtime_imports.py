"""The runtime needs numpy only: importing the package and the CLI, running
`certify` (an exact power-sum witness check, for K = 2 and K = 3 models and
for the refused XOR K = 3) and `logz`, and computing the closed-form PSD
shift `min_alpha_psd`, loads no scipy module; and every name in each
module's `__all__` exists.

The check runs in a fresh interpreter so that test modules which import
scipy themselves cannot mask it.  The file has no test-only imports, so
`python tests/test_runtime_imports.py` runs the same check in an
environment where only the package and its runtime dependencies are
installed.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

GUARD = """
import sys
import numpy as np
import gibbslab
import gibbslab.cli
from gibbslab.cli import cli_run

# A star import fails on any __all__ entry the module no longer defines.
for module in ("graphs", "models", "partition", "convexity", "harness"):
    exec(f"from gibbslab.{module} import *", {})

assert cli_run(["certify", "--model", "potts", "--q", "3", "--beta", "1"]) == 0
assert cli_run(["certify", "--model", "ksat", "--k", "3", "--beta", "0.5"]) == 0
assert cli_run(["certify", "--model", "viana_bray", "--k", "2", "--beta", "0.5"]) == 0
assert cli_run(["certify", "--model", "xor", "--k", "3", "--beta", "0.5"]) == 1
cert = gibbslab.min_alpha_psd(np.array([[1.0, 1.0], [1.0, 0.0]]), 1.0)
assert (cert.verdict, cert.alpha) == ("psd_for_alpha", 1.0)
assert cli_run(["logz", "--model", "independent_set", "--lambda", "1",
                "--n", "20", "--c", "1", "--seed", "7"]) == 0
loaded = sorted(name for name in sys.modules
                if name == "scipy" or name.startswith("scipy."))
assert not loaded, f"runtime imported scipy: {loaded[:5]}"
"""


def test_runtime_loads_no_scipy():
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", GUARD], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": pythonpath}, timeout=120)
    assert proc.returncode == 0, proc.stderr


if __name__ == "__main__":
    test_runtime_loads_no_scipy()
    print("runtime loads no scipy module and every __all__ name resolves")
