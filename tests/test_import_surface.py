import os
import subprocess
import sys
from pathlib import Path

import raftsim

# SciPy subpackages that importing raftsim may pull in.  The benchmark's
# set-up time is almost all NumPy and SciPy import, so a new subpackage
# shows there as a regression.
ALLOWED = {"fft", "linalg", "sparse", "special", "version"}


def test_scipy_subpackages_imported():
    probe = ("import sys, raftsim, raftsim.harness, raftsim.harness.cli\n"
             "print(' '.join({m.split('.')[1] for m in sys.modules\n"
             "                if m.startswith('scipy.')}))")
    env = dict(os.environ, PYTHONPATH=str(Path(raftsim.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    public = {name for name in out.split() if not name.startswith("_")}
    assert "fft" in public  # the probe saw raftsim's own imports
    assert public <= ALLOWED
