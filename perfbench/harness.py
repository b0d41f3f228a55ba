"""Measurements of one workload: end-to-end (untraced) and per-layer (traced).

Every run goes through the public pipeline, ``steinpi.experiment.run_experiment``
with ``threads=1``.  Outputs are checked by hashing the results and summary
files that ``write_experiment_outputs`` writes: every repeat of a spec,
traced or not, must give the bytes of its first run.

The end-to-end times are scaled to a reference host speed.  On a shared
machine the speed of a core drifts by up to 40% over minutes, with the
same code and inputs (see README.md).  A fixed calibration kernel, timed
around every repeat, measures that speed in the same run; each time is
scaled by ``CALIBRATION_REFERENCE_S`` over the calibration time around it.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import tempfile
import time
import uuid
from pathlib import Path

import numpy as np
import scipy
import steinpi
from steinpi import experiment, targets

import spans

MIN_SETUPS = 5
# Set-up and calibration time measured after each repeat, as shares of its wall time.
SETUP_SHARE = 0.1
CALIBRATION_SHARE = 0.1
# The calibration kernel's time on the 2-core box the README's figures come
# from; it sets the unit of the scaled times and cancels from every comparison.
CALIBRATION_REFERENCE_S = 0.03
KSD_METRICS = {"ksd_p": "p", "ksd_pi": "pi", "ksd_tilt": "power_tilt"}


def check_source(root):
    """Fail unless steinpi was imported from ``<root>/src``."""
    origin = Path(steinpi.__file__).resolve()
    if Path(root, "src").resolve() not in origin.parents:
        raise RuntimeError(f"steinpi was imported from {origin}, not from {root}/src")


def machine(seed):
    """The machine and library versions a run's figures belong to."""
    build = np.show_config(mode="dicts")["Build Dependencies"]
    blas, lapack = build["blas"], build["lapack"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "lapack": f"{lapack.get('name')} {lapack.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "platform": platform.platform(),
        "seed": seed,
    }


def cells(spec):
    return len(spec.methods) * spec.replicates * len(spec.ns)


def setup_seconds(spec):
    """Time of the calls run_experiment starts with: target, mode, one runtime per method."""
    start = time.perf_counter()
    target = experiment.build_target(spec.target)
    init = np.asarray(spec.mode_init, dtype=np.float64) if spec.mode_init else np.zeros(target.dim)
    mode = targets.find_mode(target, init)
    for method in spec.methods:
        experiment.MethodRuntime(method, target, mode)
    return time.perf_counter() - start


def run_once(spec, tracer=None):
    """Wall seconds and result of one run_experiment call, traced when a tracer is given."""
    if tracer is None:
        start = time.perf_counter()
        result = experiment.run_experiment(spec, threads=1)
        return time.perf_counter() - start, result
    with spans.traced(tracer):
        start = time.perf_counter()
        result = experiment.run_experiment(spec, threads=1)
        wall = time.perf_counter() - start
    return wall, result


def output_digest(result, work_dir):
    """SHA-256 of the results.csv and summary.csv that write_experiment_outputs writes."""
    with tempfile.TemporaryDirectory(dir=work_dir) as out:
        experiment.write_experiment_outputs(result, out)
        digest = hashlib.sha256()
        for name in ("results.csv", "summary.csv"):
            digest.update(Path(out, name).read_bytes())
    return digest.hexdigest()


def rows_valid(spec, result):
    """Every cell has a row or a failure, and every KSD and W1 is finite."""
    if len(result.rows) + len(result.failures) != cells(spec):
        return False
    return all(
        math.isfinite(r.ksd) and r.ksd > 0 and (r.wasserstein is None or math.isfinite(r.wasserstein))
        for r in result.rows
    )


def ksd_metrics(spec, rows):
    """Geometric mean of the KSD over the result rows, per sampling distribution.

    A row is one (method, replicate, n) cell.  The geometric mean over rows,
    rather than over the summary's per-cell means, keeps a single MALA
    window stuck at one state from dominating the figure.
    """
    law = {m.name: m.sampler.get("distribution", "p") for m in spec.methods}
    out = {}
    for name, distribution in KSD_METRICS.items():
        logs = [math.log(r.ksd) for r in rows if law[r.method] == distribution]
        out[name] = math.exp(statistics.fmean(logs))
    return out


def calibration_seconds():
    """Time of a fixed mix of numpy vector work, BLAS and interpreted Python."""
    x = np.linspace(-3.0, 3.0, 2048)
    a = np.cos(np.arange(120 * 120, dtype=np.float64)).reshape(120, 120)
    start = time.perf_counter()
    acc = 0.0
    for _ in range(1400):
        acc += float(np.exp(-0.5 * x * x).sum())
    for _ in range(140):
        acc += float((a @ a)[0, 0])
    for i in range(80_000):
        acc += i * 1e-9
    return time.perf_counter() - start


def repeat_for(measure, seconds):
    """Times of ``measure()``, called until they add up to ``seconds``, at least once."""
    times = [measure()]
    while sum(times) < seconds:
        times.append(measure())
    return times


def at_reference_speed(repeats):
    """(wall_s, setup_s): medians scaled to a host where the calibration takes CALIBRATION_REFERENCE_S.

    Each repeat's wall and set-up times are scaled by the mean calibration
    time of the blocks just before and just after them.  The host's speed
    flips between states within a second, so single calibrations are
    bimodal; their mean, like a wall time, averages over the states.
    """
    walls, setups = [], []
    for i, rep in enumerate(repeats):
        around = rep["calibrations"] + (repeats[i - 1]["calibrations"] if i else [])
        scale = CALIBRATION_REFERENCE_S / statistics.fmean(around)
        walls.append(rep["wall"] * scale)
        setups.extend(t * scale for t in rep["setups"])
    return statistics.median(walls), statistics.median(setups)


def end_to_end(specs, seconds, work_dir):
    """Untraced end-to-end metrics over the specs of one workload, one per sub-seed.

    Each spec runs once; then the specs run again in turn, at least one more
    run in all, while another run fits in ``seconds``.  After each run come
    the set-up calls and the calibration, each repeated for its share of the
    run's wall time, so that all three sample the same stretches of time.
    A repeat must give the bytes of its spec's first run.  ``wall_s`` and
    ``setup_s`` are medians at reference speed; the KSD metrics pool the
    rows of every spec.
    Returns (metrics, correct, attempted, failed, details).
    """
    repeats, rows, valid, failed = [], [], True, 0
    digests = [set() for _ in specs]
    start = time.perf_counter()
    while (
        len(repeats) <= len(specs)
        or sum(len(r["setups"]) for r in repeats) < MIN_SETUPS
        or time.perf_counter() - start
        + (1 + SETUP_SHARE + CALIBRATION_SHARE) * statistics.median(r["wall"] for r in repeats) <= seconds
    ):
        k = len(repeats) % len(specs)
        wall, result = run_once(specs[k])
        digests[k].add(output_digest(result, work_dir))
        if len(repeats) < len(specs):
            rows.extend(result.rows)
            valid = valid and rows_valid(specs[k], result)
            failed += len(result.failures)
        repeats.append({
            "wall": wall,
            "setups": repeat_for(lambda: setup_seconds(specs[0]), SETUP_SHARE * wall),
            "calibrations": repeat_for(calibration_seconds, CALIBRATION_SHARE * wall),
        })

    wall_s, setup_s = at_reference_speed(repeats)
    metrics = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **ksd_metrics(specs[0], rows),
    }
    correct = valid and all(len(d) == 1 for d in digests)
    unscaled = {
        "wall_s": statistics.median(r["wall"] for r in repeats),
        "setup_s": statistics.median(t for r in repeats for t in r["setups"]),
        "calibration_s": statistics.fmean(t for r in repeats for t in r["calibrations"]),
    }
    details = {"unscaled": unscaled, "repeats": repeats, "digests": [sorted(d) for d in digests]}
    return metrics, correct, sum(cells(s) for s in specs), failed, details


def per_layer(spec, seconds, work_dir):
    """Per-layer metrics from traced runs, alternated with untraced ones.

    Returns (metrics, correct, attempted, failed, details, tracer of the last traced run).
    """
    untraced, traced, layers, digests = [], [], [], set()
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + untraced[-1] + traced[-1] <= seconds:
        wall, result = run_once(spec)
        untraced.append(wall)
        digests.add(output_digest(result, work_dir))
        tracer = spans.Tracer(uuid.uuid4().hex)
        wall, result = run_once(spec, tracer)
        traced.append(wall)
        digests.add(output_digest(result, work_dir))
        layers.append(spans.layer_metrics(tracer.spans, cells(spec), len(result.failures)))
    metrics = {name: statistics.median(run[name] for run in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    correct = len(digests) == 1 and rows_valid(spec, result)
    details = {"untraced_walls": untraced, "traced_walls": traced, "digests": sorted(digests)}
    return metrics, correct, cells(spec), len(result.failures), details, tracer


def write_spans(tracer, path):
    """One JSON object per span, gzip-compressed."""
    selfs = spans.self_times(tracer.spans)
    with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
        for s, own in zip(tracer.spans, selfs):
            record = {"id": s.id, "parent": s.parent, "run": s.run, "name": s.name,
                      "start": s.start, "end": s.end, "self": own, **s.attrs}
            fh.write(json.dumps(record) + "\n")
