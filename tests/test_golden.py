"""The byte contract on one small workload: output digests and metric values.

``golden.json`` holds, for the workload below, every ``metrics.csv`` value
and, under each recorded platform key, the sha256 of its four output
files, of four small scene sets that cover what the training scenes do not
(label noise, oversegmentation, three cameras on a non-square raster, a
floor crowded enough that placement shrinks primitives) and of the
``gradcheck --seed 0`` report, which ``test_cli`` compares.  The bytes
depend on numpy's version and dispatch and on the OpenBLAS kernels that
run, so the digests are compared only where the key is recorded; the
values are compared everywhere, within a relative tolerance far above
kernel rounding noise and far below what a wrong gradient does.  A change
that alters the bytes on purpose re-records the file and says why:

    PYTHONPATH=src python tests/test_golden.py --all-cores

records this process's platform, then, each in a child process with
``OPENBLAS_CORETYPE`` set, every other core in ``CORES`` whose
instructions this CPU has (a core the CPU lacks dies on SIGILL).  Without
``--all-cores`` only this process's platform is recorded.
"""

import contextlib
import csv
import ctypes
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from scenecontrast import trainer
from scenecontrast.blasthreads import blas_threads
from scenecontrast.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
OUTPUTS = ("metrics.csv", "checkpoint.cscw", "probe.txt", "ablate.csv")
REL_TOL = 1e-10
GEN = ["--seed", "0", "--count", "8", "--points", "384", "--height", "32", "--width", "32"]
# gen-scenes sets pinned by one digest each, two scenes at seed 0
SCENE_SETS = {
    "scenes-ablation": ["--points", "768", "--height", "32", "--width", "32",
                        "--classes", "6", "--objects", "5", "--noise", "0.25"],
    "scenes-region-dense": ["--points", "256", "--height", "32", "--width", "32",
                            "--classes", "12", "--objects", "5", "--oversegment", "32",
                            "--noise", "0.1"],
    "scenes-3cam": ["--points", "512", "--cameras", "3", "--height", "20", "--width", "40",
                    "--noise", "0.3"],
    "scenes-crowded": ["--points", "512", "--objects", "12", "--height", "24",
                       "--width", "24"],
}
GRADCHECK = "gradcheck.txt"
# the OpenBLAS cores recorded, each with the CPU features its kernels use
CORES = {
    "SkylakeX": ("AVX512F", "AVX512BW", "AVX512DQ", "AVX512VL"),
    "Haswell": ("AVX2", "FMA3"),
    "Sandybridge": ("AVX",),
    "Prescott": ("SSE3",),
}


def cpu_features() -> dict[str, bool]:
    """numpy's map of CPU feature names to whether this CPU has them."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__ as features
    return features


def platform_key() -> str:
    """numpy's version and enabled CPU features, OpenBLAS's config and core."""
    blas = ["no scipy-openblas"]
    for path in sorted(Path(np.__file__).parent.with_name("numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        names = ("scipy_openblas_get_config64_", "scipy_openblas_get_corename64_")
        if all(hasattr(lib, n) for n in names):
            blas = []
            for n in names:
                getattr(lib, n).restype = ctypes.c_char_p
                blas.append(getattr(lib, n)().decode())
            break
    enabled = ",".join(sorted(k for k, on in cpu_features().items() if on))
    return "|".join([f"numpy {np.__version__}", enabled, *blas])


def recorded_digest(name: str) -> str | None:
    """The digest of output ``name`` recorded for this platform, if any."""
    return json.loads(GOLDEN.read_text())["digests"].get(platform_key(), {}).get(name)


def sha256_tree(path: Path) -> str:
    """A file's digest, or one over a directory's names and bytes in name order."""
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def run_workload(root: Path, one_blas_thread: bool = True) -> Path:
    """8 scenes, a 3-epoch pretrain with lam = 1, probe, one ablate seed,
    then the four scene sets, under a one-thread BLAS cap unless told
    otherwise; ``root / "out"`` holds every output."""
    scenes, out = root / "scenes", root / "out"
    cfg = root / "cfg.txt"
    cfg.write_text("epochs = 3\nlam = 1\n")
    commands = [
        ["gen-scenes", *GEN, "--out", str(scenes)],
        ["pretrain", "--config", str(cfg), "--scenes", str(scenes), "--out", str(out)],
        ["probe", "--ckpt", str(out / "checkpoint.cscw"), "--scenes", str(scenes),
         "--config", str(cfg), "--out", str(out)],
        ["ablate", "--seeds", "1", "--config", str(cfg), "--scenes", str(scenes),
         "--out", str(out)],
        *(["gen-scenes", "--seed", "0", "--count", "2", *flags, "--out", str(out / name)]
          for name, flags in SCENE_SETS.items()),
    ]
    with blas_threads(1) if one_blas_thread else contextlib.nullcontext():
        for argv in commands:
            assert main(argv) == 0, argv
    return out


def digests(out: Path) -> dict[str, str]:
    return {n: sha256_tree(out / n) for n in [*OUTPUTS, *SCENE_SETS]}


def gradcheck_digest() -> str:
    return hashlib.sha256(trainer.gradcheck(seed=0).summary().encode()).hexdigest()


def record(one_blas_thread: bool = True) -> tuple[str, dict[str, str], list[dict[str, float]]]:
    """This process's platform key, every digest (the gradcheck report's
    too) and the metric rows, from a fresh run of the workload."""
    with tempfile.TemporaryDirectory() as d:
        out = run_workload(Path(d), one_blas_thread)
        with blas_threads(1) if one_blas_thread else contextlib.nullcontext():
            found = {**digests(out), GRADCHECK: gradcheck_digest()}
        return platform_key(), found, metric_rows(out)


def record_in_child(env: dict[str, str], one_blas_thread: bool = True):
    """``record``'s [key, digests] from a child process whose environment
    adds ``env`` to this one's."""
    code = ("import json, test_golden as t\n"
            f"key, found, _ = t.record({one_blas_thread})\n"
            "print(json.dumps([key, found]))")
    paths = [Path(__file__).parent, Path(trainer.__file__).parents[1]]
    paths += filter(None, [os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths)), **env}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def metric_rows(out: Path) -> list[dict[str, float]]:
    with open(out / "metrics.csv", newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    return run_workload(tmp_path_factory.mktemp("golden"))


def test_output_bytes_match_recorded(workload):
    key = platform_key()
    want = json.loads(GOLDEN.read_text())["digests"].get(key)
    if want is None:
        pytest.skip(f"no digests recorded for platform {key}")
    want = {n: d for n, d in want.items() if n != GRADCHECK}
    assert digests(workload) == want


def test_metric_values_match_recorded(workload):
    want = json.loads(GOLDEN.read_text())["metrics"]
    got = metric_rows(workload)
    assert [list(r) for r in got] == [list(r) for r in want]
    for i, (g, w) in enumerate(zip(got, want)):
        for name in w:
            assert math.isclose(g[name], w[name], rel_tol=REL_TOL, abs_tol=0.0), (
                f"row {i} {name}: {g[name]!r} != recorded {w[name]!r}"
            )


@pytest.mark.slow
def test_bytes_do_not_depend_on_blas_threads(workload):
    """Two OpenBLAS threads, and no cap, write the bytes that one does."""
    key, found = record_in_child({"OPENBLAS_NUM_THREADS": "2"}, one_blas_thread=False)
    assert key == platform_key()
    with blas_threads(1):
        want = {**digests(workload), GRADCHECK: gradcheck_digest()}
    assert found == want


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--all-cores"]):
        sys.exit(f"usage: {sys.argv[0]} [--all-cores]")
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"digests": {}}
    key, found, golden["metrics"] = record()
    golden["digests"][key] = found
    keys = [key]
    if sys.argv[1:]:
        features, running = cpu_features(), key.rsplit("|", 1)[-1]
        for core, needs in CORES.items():
            if core != running and all(features.get(f, False) for f in needs):
                child_key, child_found = record_in_child({"OPENBLAS_CORETYPE": core})
                golden["digests"][child_key] = child_found
                keys.append(child_key)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    for key in keys:
        print(f"recorded {GOLDEN} for {key}", file=sys.stderr)
