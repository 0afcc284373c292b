"""Bound tables: every row driven at its edges through the code that reads
it, the tables against the dataclasses they bound, and README's bounds
table against the tables."""

import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import scenecontrast.cli as cli
from scenecontrast import scenegen, trainer
from scenecontrast.bounds import Bound
from scenecontrast.cli import main
from scenecontrast.errors import ConfigurationError, FormatError
from scenecontrast.scenegen import SceneGeometry, SemanticOracleConfig, read_scene
from scenecontrast.trainer import TrainConfig

from test_sceneio import write_patched

CONFIGS = {
    "TrainConfig": (TrainConfig, trainer.TRAIN_BOUNDS),
    "SceneGeometry": (SceneGeometry, scenegen.GEOMETRY_BOUNDS),
    "SemanticOracleConfig": (SemanticOracleConfig, scenegen.ORACLE_BOUNDS),
}


def ops(bound: Bound) -> tuple[str, str]:
    return (">=" if bound.ends[0] == "[" else ">", "<=" if bound.ends[1] == "]" else "<")


def edges(bound: Bound, kinds: bool = True):
    """(value, message) at each end of ``bound``, message None where the
    value is accepted: an int row at low-1, low, high and high+1, a float
    row just outside and just inside each end, plus nan and both
    infinities.  With ``kinds``, also values of the wrong kind (bool, and
    a float for an int row) and a numpy scalar of the right one."""
    out = []
    if bound.kind is float:
        out += [(v, f"must be finite, got {v}") for v in (math.nan, math.inf, -math.inf)]
        step = math.nextafter
    else:
        step = lambda v, to: v + (1 if to > v else -1)  # noqa: E731
    for end, op, away in zip((bound.low, bound.high), ops(bound), (-math.inf, math.inf)):
        if end is None:
            continue
        closed = op.endswith("=")
        outside = step(end, away) if closed else end
        inside = end if closed else step(end, -away)
        out += [(outside, f"must be {op} {end}, got {outside}"), (inside, None)]
    if kinds:
        inside = next((v for v, message in out if message is None), bound.kind(0))
        if bound.kind is int:
            wrong, scalar = [True, float(inside), inside + 0.5], np.int64(inside)
            noun = "an integer"
        else:
            wrong, scalar, noun = [True], np.float64(inside), "a real number"
        out += [(v, f"must be {noun}, got {v}") for v in wrong] + [(scalar, None)]
    return out


def cases(tables, kinds: bool = True):
    # repr tells a numpy scalar's id from the plain number's
    return [
        pytest.param(table, name, value, message, id=f"{table}-{name}-{value!r}")
        for table, rows in tables.items()
        for name, bound in rows.items()
        for value, message in edges(bound, kinds)
    ]


@pytest.mark.parametrize("table,name,value,message",
                         cases({k: rows for k, (_, rows) in CONFIGS.items()}))
def test_config_rows_at_their_edges(table, name, value, message):
    cls, _ = CONFIGS[table]
    cfg = replace(cls(), **{name: value})
    if message is None:
        cfg.validate()
    else:
        with pytest.raises(ConfigurationError) as err:
            cfg.validate()
        assert str(err.value) == f"{name} {message}"


@pytest.mark.parametrize("table", list(CONFIGS))
def test_every_numeric_field_has_a_row_of_its_type(table):
    cls, rows = CONFIGS[table]
    defaults = cls()
    numeric = [
        f.name for f in fields(cls)
        if type(getattr(defaults, f.name)) in (int, float)
    ]
    assert list(rows) == numeric
    for name, bound in rows.items():
        assert bound.kind is type(getattr(defaults, name)), name
        assert bound.violation(name, getattr(defaults, name)) is None, name


class Reached(Exception):
    """The command got past its flag checks to the work itself."""


def reached(*args, **kwargs):
    raise Reached


FLAG_COMMANDS = {
    "--seed": ["gen-scenes", "--count", "1"],
    "--count": ["gen-scenes"],
    "--seeds": ["ablate", "--scenes", "unread"],
}


@pytest.mark.parametrize("table,flag,value,message", cases({"FLAG_BOUNDS": cli.FLAG_BOUNDS}))
def test_flag_rows_at_their_edges(monkeypatch, tmp_path, capsys, table, flag, value, message):
    # the work a command starts with raises, so no edge starts a real run
    monkeypatch.setattr(cli, "generate_scene", reached)
    monkeypatch.setattr(cli, "_load_scene_dir", reached)
    out = tmp_path / "o"
    argv = FLAG_COMMANDS[flag] + [flag, str(value), "--out", str(out)]
    if message is None:
        with pytest.raises(Reached):
            main(argv)
    elif "must be an integer" in message:
        # argparse parses the flag: a value of the wrong kind never reaches the bound
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: argument {flag}: invalid int value: '{value}'\n"
    else:
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {flag} {message}\n"
    assert not out.exists()


# a u32 field holds only integers, so a header cannot carry a value of the wrong kind
@pytest.mark.parametrize("table,name,value,message",
                         cases({"SCENE_HEADER": scenegen.SCENE_HEADER}, kinds=False))
def test_scene_header_rows_at_their_edges(tmp_path, table, name, value, message):
    offset = 8 + 4 * list(scenegen.SCENE_HEADER).index(name)
    path = tmp_path / "scene.cscs"
    write_patched(path, offset, np.uint32(value).astype("<u4").tobytes())
    if message is None:
        # within its bound the field is read on; the file, written for the
        # old value, may then fail, but elsewhere
        try:
            read_scene(path)
        except FormatError as err:
            assert f"{name} must be" not in str(err)
    else:
        with pytest.raises(FormatError) as err:
            read_scene(path)
        assert str(err.value) == f"{path}: {name} {message} (byte offset {offset})"
        assert err.value.offset == offset


def test_readme_bounds_table_matches_the_code():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    head = "| Table | Field or flag | Type | Low | High | Where the high comes from |"
    lines = readme.split(head, 1)[1].strip().splitlines()[1:]
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        rows.append(tuple(cell.strip() for cell in line.strip("|").split("|")))
    tables = {
        "TRAIN_BOUNDS": trainer.TRAIN_BOUNDS,
        "GEOMETRY_BOUNDS": scenegen.GEOMETRY_BOUNDS,
        "ORACLE_BOUNDS": scenegen.ORACLE_BOUNDS,
        "FLAG_BOUNDS": cli.FLAG_BOUNDS,
        "SCENE_HEADER": scenegen.SCENE_HEADER,
        "PIXEL_ROWS": {"L*H*W": scenegen.PIXEL_ROWS},
    }
    want = []
    for table, bounds in tables.items():
        for name, bound in bounds.items():
            low_op, high_op = ops(bound)
            want.append((
                f"`{table}`",
                f"`{name}`",
                bound.kind.__name__,
                "" if bound.low is None else f"{low_op} {bound.low}",
                "" if bound.high is None else f"{high_op} {bound.high}",
                bound.source,
            ))
    assert rows == want
    # a row states where its high comes from exactly when it has one
    for table, bounds in tables.items():
        for name, bound in bounds.items():
            assert (bound.high is None) == (bound.source == ""), (table, name)
