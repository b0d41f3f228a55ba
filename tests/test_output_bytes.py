"""Byte-identical experiment outputs, checked through the console entry point.

`steinpi experiment` writes the same results.csv, summary.csv and plot.svg
whatever BLAS thread count the host would default to, because importing
steinpi pins one thread, and the bundled configs write the bytes recorded
in bundled_digests.json.  A change that moves those outputs updates that
file and says so.  Each run is a fresh interpreter, so the thread
variables are read as a user's shell would leave them.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OUTPUTS = ("results.csv", "summary.csv", "plot.svg")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SHORT_WARMUP = {"epoch_lengths": [200, 200, 3000], "learning_rates": [0.3, 0.3]}


def _experiment(config, out_dir, threads=None):
    """SHA-256 of each output of `python -m steinpi.cli experiment` on config,
    with the thread variables unset (None) or all set to ``threads``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update({var: str(threads) for var in THREAD_VARS if threads is not None})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    cmd = [sys.executable, "-m", "steinpi.cli", "experiment", "--config", str(config), "--out-dir", str(out_dir)]
    subprocess.run(cmd, env=env, check=True, capture_output=True)
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in OUTPUTS}


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # four optimal solves at n = 1000, where a threaded factorisation rounds
    # differently: with no pin, a 2-core host's default of two threads moves
    # the KSD cells in their last digits
    method = {"kernel": {"family": "langevin"}, "post": {"kind": "optimal"}}
    config = {
        "target": {"name": "regression"},
        "mode_init": [0.0, 0.0],
        "seed": 8,
        "replicates": 2,
        "ns": [1000],
        "methods": [
            {"name": law, "sampler": {"distribution": law, "mechanism": "mala", "warmup": SHORT_WARMUP}, **method}
            for law in ("p", "pi")
        ],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    unset = _experiment(path, tmp_path / "unset")
    assert _experiment(path, tmp_path / "one", threads=1) == unset


@pytest.mark.parametrize("name", ["mixture_ordering", "regression_mala", "skew_normal_tilts"])
def test_bundled_configs_write_the_recorded_bytes(name, tmp_path):
    recorded = json.loads((Path(__file__).parent / "bundled_digests.json").read_text(encoding="utf-8"))
    assert _experiment(ROOT / "configs" / f"{name}.json", tmp_path / name) == recorded[name]
