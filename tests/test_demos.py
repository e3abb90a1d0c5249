"""The demos run to completion.

Each demo runs as its own process from an empty directory, importing
``oseg`` from ``src/``.  ``02_minibootstrap_sweep.py`` is left out: it
trains four models on 150 images (about 20 s on a 2-core host) and
writes a CSV into its working directory, so it stays a manual check:
``python3 demos/02_minibootstrap_sweep.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["01_kernel_solver.py",
                                    "03_full_pipeline.py",
                                    "04_incremental_classes.py",
                                    "05_stream_timing.py"])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
