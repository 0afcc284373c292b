"""The byte contract on one small workload: output digests and metric values.

``golden.json`` holds, for the workload below, every ``metrics.csv`` value
and, under each recorded platform key, the sha256 of its four output
files.  The bytes depend on numpy's version and dispatch and on the
OpenBLAS kernels that run, so the digests are compared only where the key
is recorded; the values are compared everywhere, within a relative
tolerance far above kernel rounding noise and far below what a wrong
gradient does.  A change that alters the bytes on purpose re-records the
file with ``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

import csv
import ctypes
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from scenecontrast.blasthreads import blas_threads
from scenecontrast.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
OUTPUTS = ("metrics.csv", "checkpoint.cscw", "probe.txt", "ablate.csv")
REL_TOL = 1e-10
GEN = ["--seed", "0", "--count", "8", "--points", "384", "--height", "32", "--width", "32"]


def platform_key() -> str:
    """numpy's version and enabled CPU features, OpenBLAS's config and core."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__ as features
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
    enabled = ",".join(sorted(k for k, on in features.items() if on))
    return "|".join([f"numpy {np.__version__}", enabled, *blas])


def run_workload(root: Path) -> Path:
    """8 scenes, a 3-epoch pretrain with lam = 1, probe, one ablate seed."""
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
    ]
    with blas_threads(1):
        for argv in commands:
            assert main(argv) == 0, argv
    return out


def digests(out: Path) -> dict[str, str]:
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in OUTPUTS}


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


if __name__ == "__main__":
    # re-record: keep other platforms' digests, replace this one's and the values
    with tempfile.TemporaryDirectory() as d:
        out = run_workload(Path(d))
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"digests": {}}
        golden["digests"][platform_key()] = digests(out)
        golden["metrics"] = metric_rows(out)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"recorded {GOLDEN} for {platform_key()}", file=sys.stderr)
