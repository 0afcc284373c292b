"""The names the traced benchmark wraps exist, are put back afterwards, and
give finite per-layer figures on a small job; the untraced benchmark runs
and its outputs match the recorded digests.

``bench/layertrace.py`` wraps package functions by name from outside the
package and reads attributes of their arguments and results, so a refactor
that renames one breaks the traced bench run.  ``bench/run.py`` calls the
package too (``load_model``, ``read_checkpoint``, ``ARMS``, its
``run_step`` clock) and compares its outputs with ``bench/digests.json``.
These tests make either break a test failure instead.
"""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import scenecontrast
import scenecontrast.cli  # noqa: F401  (loads every layer)

BENCH = Path(__file__).resolve().parents[1] / "bench"
LAYERTRACE = BENCH / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_existing_names_and_uninstall_restores_them():
    rec = load_layertrace().Recorder()
    try:
        rec.install(scenecontrast)  # getattr on a missing name raises here
        wrapped = list(rec._restore)
        for owner, attr, real in wrapped:
            assert getattr(owner, attr) is not real, attr
    finally:
        rec.uninstall()
    names = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in wrapped}
    for fn in ("init_stack", "load_layers", "read_checkpoint", "write_checkpoint"):
        assert ("scenecontrast.embednet", fn) in names
    for fn in ("init_model", "load_model", "save_model", "run_step"):
        assert ("scenecontrast.trainer", fn) in names
    # each name ends up bound to what it held before the first wrap
    first = {}
    for owner, attr, real in wrapped:
        first.setdefault((id(owner), attr), (owner, real))
    for (_, attr), (owner, real) in first.items():
        assert getattr(owner, attr) is real, attr


def test_traced_job_gives_finite_layer_metrics(tmp_path):
    layertrace = load_layertrace()
    scenes, cfg, run = tmp_path / "scenes", tmp_path / "cfg.txt", tmp_path / "run"
    cfg.write_text("epochs = 2\nscenes_per_batch = 3\nembed_dim = 16\nlam = 0\n")
    rec = layertrace.Recorder()
    rec.install(scenecontrast)
    try:
        # looked up after install, so the traced cli.main runs
        main = scenecontrast.cli.main
        assert main(["gen-scenes", "--count", "6", "--points", "384", "--height", "32",
                     "--width", "32", "--classes", "6", "--objects", "5",
                     "--out", str(scenes)]) == 0
        common = ["--config", str(cfg), "--scenes", str(scenes)]
        assert main(["pretrain", *common, "--out", str(run)]) == 0
        assert main(["probe", *common, "--ckpt", str(run / "checkpoint.cscw")]) == 0
    finally:
        rec.uninstall()
    metrics = layertrace.layer_metrics(rec)
    assert {k: v for k, v in metrics.items() if not math.isfinite(v)} == {}
    assert metrics["trace.step_accounted_share"] == pytest.approx(1.0)


@pytest.mark.slow
def test_untraced_bench_checks_its_outputs():
    """One ablation job: every command passes and the digests are compared."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "ablation-frozen2d",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    *_, facts, result = done.stdout.splitlines()
    result = json.loads(result)
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    digests = json.loads(facts)["facts"]["digests"]
    assert digests in ("checked", "not recorded for this platform")
