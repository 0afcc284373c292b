"""The names the traced benchmark wraps exist and are put back afterwards.

``bench/layertrace.py`` wraps package functions by name from outside the
package, so a refactor that renames one breaks the traced bench run.  This
test makes that a test failure instead.
"""

import importlib.util
from pathlib import Path

import scenecontrast
import scenecontrast.cli  # noqa: F401  (loads every layer)

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


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
