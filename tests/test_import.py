import os
import subprocess
import sys
from pathlib import Path

import orthofem


def test_import_loads_no_scipy():
    """Importing scipy.sparse alone costs about 0.23 s and 20 MB, which the
    start-up time and peak memory of every run would pay, so the package
    keeps scipy out."""
    code = ("import sys, orthofem; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(orthofem.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
