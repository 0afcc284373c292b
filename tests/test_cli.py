"""Command-line contract: flows, determinism, exit codes."""

import dataclasses
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import scenecontrast
import scenecontrast.cli as cli
import scenecontrast.embednet as embednet
import scenecontrast.trainer as trainer
from scenecontrast.cli import main
from scenecontrast.errors import ConfigurationError, FormatError
from scenecontrast.lane import LANE_MARKER
from scenecontrast.scenegen import (
    UNASSIGNED,
    SceneGeometry,
    SemanticOracleConfig,
    read_scene,
    write_scene,
)
from scenecontrast.trainer import load_model, save_model
from test_golden import GRADCHECK, recorded_digest

GEN = [
    "gen-scenes",
    "--seed", "7",
    "--count", "4",
    "--classes", "5",
    "--objects", "4",
    "--cameras", "2",
    "--points", "256",
    "--height", "24",
    "--width", "24",
]

CFG_TEXT = (
    "epochs = 2\n"
    "scenes_per_batch = 2\n"
    "embed_dim = 12\n"
    "lr = 0.01\n"
    "lam = 1\n"
    "probe_fraction = 0.05\n"
)


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("scenes")
    assert main(GEN + ["--out", str(d)]) == 0
    return d


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "c.txt"
    p.write_text(CFG_TEXT)
    return p


@pytest.fixture(scope="module")
def ckpt_dir(scene_dir, cfg_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    code = main(
        ["pretrain", "--config", str(cfg_file), "--scenes", str(scene_dir),
         "--out", str(out)]
    )
    assert code == 0
    return out


def test_gen_scenes_writes_expected_files(scene_dir, capsys):
    files = sorted(scene_dir.glob("*.cscs"))
    assert [f.name for f in files] == [
        f"scene_{s:04d}_f00.cscs" for s in range(4)
    ]
    frame = read_scene(files[2])
    assert frame.scene_id == 2
    assert frame.num_classes == 5
    assert frame.num_points == 256


def test_gen_scenes_idempotent(scene_dir, tmp_path):
    before = {f.name: f.read_bytes() for f in scene_dir.glob("*.cscs")}
    assert main(GEN + ["--out", str(scene_dir)]) == 0
    after = {f.name: f.read_bytes() for f in scene_dir.glob("*.cscs")}
    assert before == after
    # scenes differ across indices, so this is not a constant generator
    names = sorted(before)
    assert before[names[0]] != before[names[1]]


def test_gen_scenes_defaults_are_the_config_defaults():
    args = cli.build_parser().parse_args(["gen-scenes", "--out", "x"])
    oracle, geom = SemanticOracleConfig(), SceneGeometry()
    assert (args.classes, args.objects, args.oversegment, args.noise) == (
        oracle.num_classes, oracle.objects_per_scene, oracle.oversegment_factor, oracle.noise
    )
    assert (args.points, args.cameras, args.height, args.width) == (
        geom.num_points, geom.num_cameras, geom.height, geom.width
    )
    assert isinstance(args.noise, float) and isinstance(args.points, int)


# pretrain, probe and ablate share --scenes (required), --config and --seed;
# beside them, each command's own required flags, and its optional ones with
# a value to parse and what that value parses to
@pytest.mark.parametrize("command, required, optional", [
    ("pretrain", ["--out"], {}),
    ("probe", ["--ckpt"], {"--fraction": ("0.5", 0.5), "--out": ("o", "o")}),
    ("ablate", [], {"--seeds": ("2", 2), "--arm": (trainer.ARMS[0], trainer.ARMS[0]),
                    "--fraction": ("0.5", 0.5), "--out": ("o", "o")}),
])
def test_training_command_flags(command, required, optional, capsys):
    parse, required = cli.build_parser().parse_args, ["--scenes", *required]
    needed = [w for flag in required for w in (flag, "v")]
    args = vars(parse([command, *needed]))
    assert args == {"command": command, "fn": args["fn"], "config": None, "seed": None,
                    **{flag[2:]: "v" for flag in required},
                    **{flag[2:]: None for flag in optional}}
    given = {"--config": ("c", "c"), "--seed": ("3", 3), **optional}
    texts = [w for flag, (text, _) in given.items() for w in (flag, text)]
    args = vars(parse([command, *needed, *texts]))
    assert {f: args[f[2:]] for f in given} == {f: value for f, (_, value) in given.items()}
    for flag in required:  # left out, a required flag exits 1 and is named
        assert main([command, *(w for f in required if f != flag for w in (f, "v"))]) == 1
        assert flag in capsys.readouterr().err


def test_unknown_flag_exits_1(capsys):
    assert main(["gen-scenes", "--out", "x", "--sneed", "3"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_command_exits_1(capsys):
    assert main(["transmogrify"]) == 1
    capsys.readouterr()


def test_bad_config_key_exits_1(scene_dir, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("learning_rate = 0.1\n")
    code = main(
        ["pretrain", "--config", str(bad), "--scenes", str(scene_dir),
         "--out", str(tmp_path / "o")]
    )
    assert code == 1
    assert "unknown key" in capsys.readouterr().err


def test_bad_proto_mode_exits_1_naming_the_line(scene_dir, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("proto_mode = x\n")
    code = main(
        ["pretrain", "--config", str(bad), "--scenes", str(scene_dir),
         "--out", str(tmp_path / "o")]
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: {bad}:1: unknown proto_mode 'x'\n"
    assert not (tmp_path / "o").exists()


def test_config_that_is_not_utf8_exits_1_naming_the_line(scene_dir, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(CFG_TEXT.encode().replace(b"scenes_per_batch = 2", b"scenes_per_batch = \xff"))
    code = main(
        ["pretrain", "--config", str(bad), "--scenes", str(scene_dir),
         "--out", str(tmp_path / "o")]
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: {bad}:2: not UTF-8 text\n"
    assert not (tmp_path / "o").exists()


def test_empty_scene_dir_exits_1(tmp_path, capsys):
    code = main(
        ["pretrain", "--scenes", str(tmp_path), "--out", str(tmp_path / "o")]
    )
    assert code == 1
    assert "no .cscs files" in capsys.readouterr().err


def test_corrupt_scene_exits_2(scene_dir, cfg_file, tmp_path, capsys):
    broken = tmp_path / "broken"
    broken.mkdir()
    src = next(iter(sorted(scene_dir.glob("*.cscs"))))
    (broken / src.name).write_bytes(src.read_bytes()[:100])
    code = main(
        ["pretrain", "--config", str(cfg_file), "--scenes", str(broken),
         "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def mixed_dirs(scene_dir, tmp_path_factory):
    """The scene set plus one file whose class count or feature width differs."""
    odd = tmp_path_factory.mktemp("odd")
    # argparse keeps the last value of a repeated flag
    assert main(GEN + ["--count", "1", "--classes", "9", "--out", str(odd)]) == 0
    nine = odd / "scene_0000_f00.cscs"
    frame = read_scene(scene_dir / "scene_0001_f00.cscs")
    wide = dataclasses.replace(
        frame, pixel_features=np.concatenate([frame.pixel_features] * 2, axis=3)
    )
    dirs = {}
    for field in ("num_classes", "pixel feature width"):
        d = dirs[field] = tmp_path_factory.mktemp("mixed")
        for f in scene_dir.glob("*.cscs"):
            shutil.copy(f, d / f.name)
        if field == "num_classes":
            shutil.copy(nine, d / "scene_0009_f00.cscs")
        else:
            write_scene(wide, d / "scene_0009_f00.cscs")
    return dirs


@pytest.mark.parametrize("field", ["num_classes", "pixel feature width"])
@pytest.mark.parametrize("command", ["pretrain", "probe", "ablate"])
def test_mixed_scene_set_exits_1(
    mixed_dirs, ckpt_dir, cfg_file, tmp_path, capsys, command, field
):
    out = tmp_path / "o"
    common = ["--config", str(cfg_file), "--scenes", str(mixed_dirs[field]),
              "--out", str(out)]
    extra = {
        "pretrain": [],
        "probe": ["--ckpt", str(ckpt_dir / "checkpoint.cscw")],
        "ablate": ["--seeds", "1"],
    }[command]
    assert main([command] + common + extra) == 1
    err = capsys.readouterr().err
    assert "scene_0009_f00.cscs" in err and f"{field} is " in err
    assert not out.exists()


@pytest.fixture(scope="module")
def repeated_dir(scene_dir, tmp_path_factory):
    """The scene set plus a second file holding scene 1."""
    d = tmp_path_factory.mktemp("repeated")
    for f in scene_dir.glob("*.cscs"):
        shutil.copy(f, d / f.name)
    shutil.copy(scene_dir / "scene_0001_f00.cscs", d / "scene_0009_f00.cscs")
    return d


@pytest.mark.parametrize("command", ["pretrain", "probe", "ablate"])
def test_repeated_scene_id_exits_1(
    repeated_dir, ckpt_dir, cfg_file, tmp_path, capsys, command
):
    out = tmp_path / "o"
    extra = {
        "pretrain": [],
        "probe": ["--ckpt", str(ckpt_dir / "checkpoint.cscw")],
        "ablate": ["--seeds", "1"],
    }[command]
    assert main([command, "--config", str(cfg_file), "--scenes", str(repeated_dir),
                 "--out", str(out)] + extra) == 1
    err = capsys.readouterr().err
    assert "scene_0009_f00.cscs: scene_id 1 is already used by " in err
    assert err.rstrip().endswith("scene_0001_f00.cscs")
    assert not out.exists()


def test_out_of_memory_exits_2(monkeypatch, tmp_path, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "generate_scene", exhausted)
    assert main(GEN + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: gen-scenes: out of memory\n"


def _exhausted(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize(
    "argv,patch,code,message",
    [
        (["gen-scenes", "--count", "1", "--objects", "400"], None, 1,
         "could not place object 19: too many objects for extent 4.0"),
        # placement fails long before a count this large could cost anything
        (["gen-scenes", "--count", "1", "--objects", "2000000000"], None, 1,
         "could not place object 19: too many objects for extent 4.0"),
        (GEN, _exhausted, 2, "error: gen-scenes: out of memory"),
    ],
    ids=["placement", "placement-2e9-objects", "out-of-memory"],
)
def test_failed_gen_scenes_leaves_no_out(
    monkeypatch, tmp_path, capsys, argv, patch, code, message
):
    if patch is not None:
        monkeypatch.setattr(cli, "generate_scene", patch)
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


# a command in a child process whose address space is capped, so that a
# missing bound ends in MemoryError (exit 2) rather than exhausting memory
CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from scenecontrast.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "flags,bound",
    [
        (["--points", "2000000000"], "num_points must be <= 16777216"),
        (["--height", "20000", "--width", "20000"],
         "num_cameras * height * width must be <= 16777216"),
    ],
    ids=["points", "pixel-rows"],
)
def test_oversized_gen_scenes_exits_1_naming_the_bound(tmp_path, flags, bound):
    src = str(Path(scenecontrast.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_MAIN, "gen-scenes", "--count", "1", *flags,
         "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert bound in proc.stderr
    assert not out.exists()


def test_oversized_embed_dim_exits_1_naming_the_bound(scene_dir, tmp_path):
    src = str(Path(scenecontrast.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cfg = tmp_path / "c.txt"
    cfg.write_text(CFG_TEXT.replace("embed_dim = 12", f"embed_dim = {2**40}"))
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_MAIN, "pretrain", "--config", str(cfg),
         "--scenes", str(scene_dir), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    high = trainer.TRAIN_BOUNDS["embed_dim"].high
    assert f"embed_dim must be <= {high}, got {2**40}" in proc.stderr
    assert not out.exists()


class _Reached(Exception):
    """A command got past its checks to the work itself."""


def _reached(*args, **kwargs):
    raise _Reached


@pytest.mark.parametrize(
    "argv,config,message",
    [
        (["pretrain"], "epochs = 1000000000",
         "c.txt:2: epochs must be <= 100000, got 1000000000"),
        (["pretrain"], "probe_epochs = 1000000000",
         "c.txt:2: probe_epochs must be <= 100000, got 1000000000"),
        (["gen-scenes", "--count", str(2**32 + 1)], None,
         "--count must be <= 4294967296, got 4294967297"),
        (["gen-scenes", "--count", str(2**40)], None,
         f"--count must be <= 4294967296, got {2**40}"),
        (["ablate", "--seeds", "1001"], None, "--seeds must be <= 1000, got 1001"),
    ],
    ids=["epochs", "probe-epochs", "count-u32", "count-2e40", "seeds"],
)
def test_counts_past_their_high_exit_1_before_any_work(
    monkeypatch, tmp_path, capsys, argv, config, message
):
    # the work each command starts with raises, so an unbounded count
    # ends the test instead of starting a run
    monkeypatch.setattr(cli, "generate_scene", _reached)
    monkeypatch.setattr(cli, "_load_scene_dir", _reached)
    out = tmp_path / "o"
    if argv[0] != "gen-scenes":
        argv = argv + ["--scenes", str(tmp_path)]
    if config is not None:
        (tmp_path / "c.txt").write_text("epochs = 2\n" + config + "\n")
        argv = argv + ["--config", str(tmp_path / "c.txt")]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.rstrip().endswith(message)
    assert not out.exists()


@pytest.mark.parametrize("seeds", [10**8, 2**40])
def test_huge_seed_count_exits_1_without_a_seed_list(tmp_path, seeds):
    # under the cap, a list of that many seeds runs out of memory (exit 2)
    src = str(Path(scenecontrast.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_MAIN, "ablate", "--scenes", str(tmp_path),
         "--seeds", str(seeds), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == f"error: --seeds must be <= 1000, got {seeds}\n"
    assert not out.exists()


def test_oversegment_beyond_the_raster_splits_into_pixels(tmp_path, capsys):
    # split_region cuts a region into at most one chunk per pixel, so any
    # factor from H*W = 4096 (the 64x64 default) up gives the same scene
    scenes = {}
    for factor in (4096, 2**62):
        out = tmp_path / str(factor)
        assert main(["gen-scenes", "--count", "1", "--oversegment", str(factor),
                     "--out", str(out)]) == 0
        scenes[factor] = (out / "scene_0000_f00.cscs").read_bytes()
    capsys.readouterr()
    assert scenes[4096] == scenes[2**62]
    spix = read_scene(tmp_path / "4096" / "scene_0000_f00.cscs").superpixel_raster
    for cam in spix:
        assigned = cam[cam != UNASSIGNED]
        assert np.array_equal(np.sort(assigned), np.arange(assigned.size))


def test_pretrain_writes_outputs(ckpt_dir, capsys):
    assert (ckpt_dir / "checkpoint.cscw").exists()
    metrics = (ckpt_dir / "metrics.csv").read_text().splitlines()
    assert metrics[0].startswith("step,epoch,gate")
    assert len(metrics) > 1


def test_pretrain_deterministic_checkpoint(scene_dir, cfg_file, tmp_path):
    out = tmp_path / "again"
    assert main(
        ["pretrain", "--config", str(cfg_file), "--scenes", str(scene_dir),
         "--out", str(out)]
    ) == 0
    out2 = tmp_path / "again2"
    assert main(
        ["pretrain", "--config", str(cfg_file), "--scenes", str(scene_dir),
         "--out", str(out2)]
    ) == 0
    assert (out / "checkpoint.cscw").read_bytes() == (
        out2 / "checkpoint.cscw"
    ).read_bytes()
    assert (out / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


def test_probe_prints_and_writes_report(ckpt_dir, scene_dir, cfg_file, tmp_path, capsys):
    out = tmp_path / "probe"
    code = main(
        ["probe", "--ckpt", str(ckpt_dir / "checkpoint.cscw"),
         "--scenes", str(scene_dir), "--config", str(cfg_file),
         "--fraction", "0.05", "--out", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.startswith("mean_accuracy ")
    assert (out / "probe.txt").read_text() == printed


def test_probe_rejects_a_class_count_past_uint16(
    ckpt_dir, scene_dir, cfg_file, tmp_path, capsys
):
    """A header T of 2**31 is a format error at its offset, not a probe table."""
    big = tmp_path / "big"
    big.mkdir()
    for f in scene_dir.glob("*.cscs"):
        data = bytearray(f.read_bytes())
        data[28:32] = (2**31).to_bytes(4, "little")
        (big / f.name).write_bytes(bytes(data))
    code = main(
        ["probe", "--ckpt", str(ckpt_dir / "checkpoint.cscw"), "--scenes", str(big),
         "--config", str(cfg_file)]
    )
    assert code == 2
    assert "class count T must be <= 65536, got 2147483648 (byte offset 28)" in (
        capsys.readouterr().err
    )


def test_probe_exits_1_on_a_label_whose_fit_passes_its_budget(tmp_path, capsys):
    """Four default scenes with T = 60001 and one test point relabelled
    60000: a fit over 123 labelled rows would hold four 123 x 60001 float64
    arrays, so the probe names the label and exits 1 before it allocates."""
    scenes = tmp_path / "s"
    assert main(["gen-scenes", "--count", "4", "--out", str(scenes)]) == 0
    files = sorted(scenes.glob("*.cscs"))
    for f in files:
        frame = dataclasses.replace(read_scene(f), num_classes=60001)
        if f == files[-1]:  # the held-out scene
            frame.point_labels[0] = 60000
        write_scene(frame, f)
    ckpt = tmp_path / "c.cscw"
    save_model(trainer.init_model(frame.pixel_features.shape[3], 32, 0), ckpt)
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["probe", "--ckpt", str(ckpt), "--scenes", str(scenes)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err.startswith("error: probe label 60000 makes a 60001-class")
    assert peak < 64 * 2**20, peak


def test_probe_bad_fraction_exits_1(ckpt_dir, scene_dir, capsys):
    code = main(
        ["probe", "--ckpt", str(ckpt_dir / "checkpoint.cscw"),
         "--scenes", str(scene_dir), "--fraction", "1.5"]
    )
    assert code == 1
    capsys.readouterr()


def param_offset(layers, i: int, part: str, j: int) -> int:
    """Byte offset, in a checkpoint of ``layers``, of entry ``j`` of layer
    ``i``'s "weights" or "bias": past the magic, version and layer count,
    the layers before, and layer ``i``'s rows and cols."""
    at = 12 + sum(8 + 8 * (w.size + b.size) for w, b in layers[:i]) + 8
    return at + 8 * (j if part == "weights" else layers[i][0].size + j)


def test_probe_rejects_non_finite_checkpoint(ckpt_dir, scene_dir, cfg_file, tmp_path, capsys):
    feat_dim = read_scene(sorted(scene_dir.glob("*.cscs"))[0]).pixel_features.shape[3]
    model = load_model(ckpt_dir / "checkpoint.cscw", feat_dim, embed_dim=12)
    model.embed3d.layers[1].weight[2, 3] = np.nan
    bad = tmp_path / "nan.cscw"
    save_model(model, bad)
    code = main(
        ["probe", "--ckpt", str(bad), "--scenes", str(scene_dir),
         "--config", str(cfg_file)]
    )
    assert code == 2
    # the 3D stack's second layer is the checkpoint's layer 4
    cols = model.embed3d.layers[1].weight.shape[1]
    offset = param_offset(embednet.read_checkpoint(ckpt_dir / "checkpoint.cscw"), 4, "weights",
                          2 * cols + 3)
    assert capsys.readouterr().err == (
        f"error: {bad}: non-finite value in layer 4 weights (byte offset {offset})\n"
    )


# one rule for both formats: a NaN or infinity in any float section fails
# where it is read, naming the file, the section and the byte offset
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "section", ["points", "camera 0 pixel_features", "layer 4 weights", "layer 8 bias"]
)
def test_non_finite_value_fails_alike_in_both_formats(
    ckpt_dir, scene_dir, cfg_file, tmp_path, capsys, section, value
):
    scenes, ckpt = tmp_path / "scenes", tmp_path / "checkpoint.cscw"
    shutil.copytree(scene_dir, scenes)
    shutil.copyfile(ckpt_dir / "checkpoint.cscw", ckpt)
    if section.startswith("layer"):
        path, read, dtype = ckpt, embednet.read_checkpoint, "<f8"
        layers = embednet.read_checkpoint(ckpt)
        _, i, part = section.split()
        i = int(i)
        offset = param_offset(layers, i, part, 7 if part == "weights" else len(layers[i][1]) - 1)
    else:
        path, read, dtype = scenes / "scene_0001_f00.cscs", read_scene, "<f4"
        k = read_scene(path).num_points
        # past the 36-byte header: point 5's intensity, or camera 0's
        # 11th pixel feature, past the points, labels and camera block
        offset = 36 + (16 * 5 + 12 if section == "points" else 18 * k + 80 + 4 * 11)
    data = bytearray(path.read_bytes())
    raw = np.array(value, dtype).tobytes()
    data[offset : offset + len(raw)] = raw
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError) as err:
        read(path)
    assert str(err.value) == f"{path}: non-finite value in {section} (byte offset {offset})"
    assert err.value.offset == offset
    code = main(["probe", "--ckpt", str(ckpt), "--scenes", str(scenes),
                 "--config", str(cfg_file)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {err.value}\n"


def test_pretrain_names_a_damaged_scene_file(scene_dir, cfg_file, tmp_path, capsys):
    scenes = tmp_path / "scenes"
    shutil.copytree(scene_dir, scenes)
    bad = scenes / "scene_0002_f00.cscs"
    bad.write_bytes(b"\x00" + bad.read_bytes()[1:])
    code = main(["pretrain", "--config", str(cfg_file), "--scenes", str(scenes),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}: bad magic b'\\x00SCS', expected b'CSCS' (byte offset 0)\n"


def test_probe_names_a_checkpoint_that_is_not_one(scene_dir, cfg_file, capsys):
    ckpt = sorted(scene_dir.glob("*.cscs"))[0]
    code = main(["probe", "--ckpt", str(ckpt), "--scenes", str(scene_dir),
                 "--config", str(cfg_file)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {ckpt}: bad magic b'CSCS', expected b'CSCW' (byte offset 0)\n"


def test_load_model_errors_start_with_the_path(ckpt_dir, scene_dir, tmp_path):
    feat_dim = read_scene(sorted(scene_dir.glob("*.cscs"))[0]).pixel_features.shape[3]
    model = load_model(ckpt_dir / "checkpoint.cscw", feat_dim, embed_dim=12)
    # the 2D stack alone: its widths match, its layer count does not
    short = tmp_path / "short.cscw"
    embednet.write_checkpoint(short, [model.embed2d])
    want = sum(len(s.layers) for s in model.stacks())
    offset = param_offset(embednet.read_checkpoint(short), 0, "bias", 1)
    model.embed2d.layers[0].bias[1] = np.nan
    nan = tmp_path / "nan.cscw"
    save_model(model, nan)
    for path, error, message in (
        (nan, FormatError, f"non-finite value in layer 0 bias (byte offset {offset})"),
        (short, ConfigurationError,
         f"checkpoint has {len(model.embed2d.layers)} layers, architecture wants {want}"),
    ):
        with pytest.raises(error) as err:
            load_model(path, feat_dim, embed_dim=12)
        assert str(err.value) == f"{path}: {message}"


def test_probe_names_a_mismatched_checkpoint_field(ckpt_dir, scene_dir, tmp_path, capsys):
    cfg = tmp_path / "c16.txt"
    cfg.write_text(CFG_TEXT + "embed_dim = 16\n")
    ckpt = ckpt_dir / "checkpoint.cscw"
    code = main(
        ["probe", "--ckpt", str(ckpt), "--scenes", str(scene_dir), "--config", str(cfg)]
    )
    assert code == 1
    assert f"error: {ckpt}: checkpoint embed_dim is 12, not 16" in capsys.readouterr().err
    feat_dim = read_scene(sorted(scene_dir.glob("*.cscs"))[0]).pixel_features.shape[3]
    with pytest.raises(ConfigurationError, match="checkpoint pixel feature width is"):
        load_model(ckpt, feat_dim + 1, embed_dim=12)


@pytest.mark.parametrize(
    "argv,named",
    [
        ("probe --ckpt {missing} --scenes {scenes} --config {cfg}", "{missing}"),
        ("pretrain --config {missing} --scenes {scenes} --out {out}", "{missing}"),
        ("gen-scenes --count 1 --out {file}/x", "{file}"),
        ("pretrain --scenes {scenes} --config {cfg} --out {file}", "{file}"),
        ("probe --ckpt {ckpt} --scenes {scenes} --config {cfg} --out {file}", "{file}"),
        ("ablate --scenes {scenes} --config {cfg} --arm sp --out {file}", "{file}"),
    ],
    ids=["probe-ckpt", "pretrain-config", "gen-out-under-file", "pretrain-out",
         "probe-out", "ablate-out"],
)
def test_unusable_path_flags_exit_1(
    scene_dir, ckpt_dir, cfg_file, tmp_path, capsys, monkeypatch, argv, named
):
    steps = []
    real_run_step = trainer.run_step

    def run_step_(*args):
        steps.append(args)
        return real_run_step(*args)

    monkeypatch.setattr(trainer, "run_step", run_step_)
    file = tmp_path / "file"
    file.write_text("kept\n")
    paths = dict(missing=tmp_path / "missing", scenes=scene_dir, out=tmp_path / "o",
                 file=file, ckpt=ckpt_dir / "checkpoint.cscw", cfg=cfg_file)
    assert main(argv.format(**paths).split()) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named.format(**paths) in err
    assert steps == []
    assert file.read_text() == "kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_gradcheck_exits_0(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    # one line per component, in order, each over 100 instances and passed
    assert [line.split(": ")[0] for line in lines] == [
        "embednet", "blending", "loss_sp", "loss_pro",
    ]
    assert all(line.endswith(" (100 instances) pass") for line in lines)
    # the report's bytes, where tests/golden.json records them for this platform
    want = recorded_digest(GRADCHECK)
    if want is not None:
        assert hashlib.sha256(out.encode()).hexdigest() == want


def test_gradcheck_seed_defaults_to_0(monkeypatch, capsys):
    # the patched audit records its seed, so no real audit runs
    seeds = []

    def gradcheck(seed):
        seeds.append(seed)
        return trainer.GradcheckReport(components=[])

    monkeypatch.setattr(trainer, "gradcheck", gradcheck)
    assert main(["gradcheck"]) == 0
    assert seeds == [0]


def test_ablate_single_arm_prints_row(scene_dir, cfg_file, tmp_path, capsys):
    out = tmp_path / "ab"
    code = main(
        ["ablate", "--scenes", str(scene_dir), "--config", str(cfg_file),
         "--arm", "sp", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    header, line = printed.strip().splitlines()
    assert header == "arm,seed,accuracy"
    row = line.split(",")
    assert row[0] == "sp" and row[1] == "3"
    assert 0.0 <= float(row[2]) <= 1.0
    assert (out / "ablate.csv").read_text() == printed


def test_ablate_full_csv(scene_dir, cfg_file, tmp_path, capsys):
    out = tmp_path / "ab"
    code = main(
        ["ablate", "--scenes", str(scene_dir), "--config", str(cfg_file),
         "--seeds", "2", "--out", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    lines = printed.strip().splitlines()
    assert lines[0] == "arm,seed,accuracy"
    assert len(lines) == 1 + 3 * 2
    arms = [l.split(",")[0] for l in lines[1:]]
    assert arms == ["sp", "sp+rawpro", "sp+mmpb"] * 2
    assert (out / "ablate.csv").read_text() == printed
    accs = np.array([float(l.split(",")[2]) for l in lines[1:]])
    assert ((accs >= 0.0) & (accs <= 1.0)).all()


def test_ablate_seed_offsets_the_seed_range(scene_dir, cfg_file, capsys):
    code = main(
        ["ablate", "--scenes", str(scene_dir), "--config", str(cfg_file),
         "--seed", "3", "--seeds", "1"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [l.split(",")[:2] for l in lines[1:]] == [
        ["sp", "3"], ["sp+rawpro", "3"], ["sp+mmpb", "3"]
    ]
    # one arm alone runs the same job as in the full loop
    for arm, row in zip(trainer.ARMS, lines[1:]):
        code = main(
            ["ablate", "--scenes", str(scene_dir), "--config", str(cfg_file),
             "--arm", arm, "--seed", "3"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip().splitlines()[1:] == [row]


def test_ablate_arm_honours_seeds(scene_dir, cfg_file, capsys):
    argv = ["ablate", "--scenes", str(scene_dir), "--config", str(cfg_file),
            "--seed", "3", "--seeds", "2"]
    assert main(argv) == 0
    header, *rows = capsys.readouterr().out.splitlines(keepends=True)
    assert main(argv + ["--arm", "sp"]) == 0
    want = [r for r in rows if r.startswith("sp,")]
    assert [r.split(",")[1] for r in want] == ["3", "4"]
    assert capsys.readouterr().out == "".join([header, *want])


def test_ablate_arm_uses_config_seed(scene_dir, tmp_path, capsys):
    cfg = tmp_path / "seeded.txt"
    cfg.write_text(CFG_TEXT + "seed = 5\n")
    out = tmp_path / "ab"
    code = main(
        ["ablate", "--scenes", str(scene_dir), "--config", str(cfg), "--arm", "sp",
         "--out", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    header, line = printed.strip().splitlines()
    assert header == "arm,seed,accuracy"
    assert line.split(",")[:2] == ["sp", "5"]
    assert (out / "ablate.csv").read_text() == printed


def test_ablate_checks_and_prepares_the_scene_set_once(tmp_path, monkeypatch, capsys):
    scenes = tmp_path / "scenes"
    gen = GEN[:GEN.index("--count")] + ["--count", "16"] + GEN[GEN.index("--count") + 2:]
    assert main(gen + ["--out", str(scenes)]) == 0
    capsys.readouterr()
    cfg = tmp_path / "c.txt"
    cfg.write_text(CFG_TEXT)
    built, prepared = [], []
    real_prepare = trainer.prepare_frame

    class CountedSet(trainer.SceneSet):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    def prepare_frame(frame):
        prepared.append(frame.scene_id)
        return real_prepare(frame)

    monkeypatch.setattr(trainer, "SceneSet", CountedSet)
    monkeypatch.setattr(trainer, "prepare_frame", prepare_frame)
    common = ["--scenes", str(scenes), "--config", str(cfg)]
    assert main(["ablate", *common, "--seeds", "2"]) == 0
    # six jobs, each a pretrain and a probe over one set prepared once
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3 * 2
    assert (len(built), sorted(prepared)) == (1, list(range(16)))

    built.clear(), prepared.clear()
    assert main(["pretrain", *common, "--out", str(tmp_path / "run")]) == 0
    assert (len(built), len(prepared)) == (1, 16)
    built.clear(), prepared.clear()
    ckpt = str(tmp_path / "run" / "checkpoint.cscw")
    assert main(["probe", *common, "--ckpt", ckpt]) == 0
    assert (len(built), len(prepared)) == (1, 0)


def lane_pids(pid: int) -> list[int]:
    """The lanes among process ``pid``'s children, found by their command line."""
    found = []
    for kid in Path(f"/proc/{pid}/task/{pid}/children").read_text().split():
        try:
            if LANE_MARKER.encode() in Path(f"/proc/{kid}/cmdline").read_bytes():
                found.append(int(kid))
        except OSError:  # it exited
            pass
    return found


def running(pid: int) -> bool:
    """Whether process ``pid`` exists and has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _signalled_pretrain(scene_dir, tmp_path, signum, frozen=False, lane=False):
    """A child ``pretrain``, under ``freeze_2d`` if ``frozen``, sent
    ``signum`` once ``--out`` exists, or with ``lane`` once its lane has
    had a second to start; (code, stderr, out, the lane pids seen, those
    of them still running 5 s after the signal)."""
    src = str(Path(scenecontrast.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cfg = tmp_path / "c.txt"
    text = CFG_TEXT.replace("epochs = 2", "epochs = 100000")
    cfg.write_text(text + "freeze_2d = true\n" if frozen else text)
    out = tmp_path / "o"
    proc = subprocess.Popen(
        [sys.executable, "-m", "scenecontrast.cli", "pretrain", "--config", str(cfg),
         "--scenes", str(scene_dir), "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    lanes = []
    try:
        # pretrain makes --out just before it prepares the scenes and steps
        deadline = time.monotonic() + 60
        while not out.exists() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
        while lane and not lanes and proc.poll() is None and time.monotonic() < deadline:
            lanes = lane_pids(proc.pid)
            time.sleep(0.01)
        if lane:
            time.sleep(1.0)  # the lane imports numpy and takes frames
        assert proc.poll() is None, proc.communicate()
        proc.send_signal(signum)
        # the lane writes to the same stderr, so this waits for it too; a
        # killed parent leaves its lane 5 s to see its input hang up
        deadline = time.monotonic() + (5 if signum == signal.SIGKILL else 60)
        _, err = proc.communicate(timeout=deadline - time.monotonic())
        # a lane closes its descriptors, stderr among them, before the
        # kernel marks it exited
        while any(map(running, lanes)) and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        left = [lane for lane in lanes if running(lane)]
        for lane in left:  # one its parent did not stop
            os.kill(lane, signal.SIGKILL)
        if proc.poll() is None:
            proc.kill()
        proc.communicate()  # what is left to read; it closes the pipes
    return proc.returncode, err, out, lanes, left


def test_interrupted_pretrain_exits_2_without_a_traceback(scene_dir, tmp_path):
    code, err, out, *_ = _signalled_pretrain(scene_dir, tmp_path, signal.SIGINT)
    assert code == 2, err
    assert "error: pretrain: interrupted\n" in err
    assert "Traceback" not in err
    assert out.is_dir() and not (out / "checkpoint.cscw").exists()


def test_terminated_pretrain_exits_2_without_a_traceback(scene_dir, tmp_path):
    code, err, out, *_ = _signalled_pretrain(scene_dir, tmp_path, signal.SIGTERM)
    assert code == 2, err
    assert "error: pretrain: terminated\n" in err
    assert "Traceback" not in err
    assert out.is_dir() and not (out / "checkpoint.cscw").exists()


SIGNALS = pytest.mark.parametrize(
    "signum,word",
    [(signal.SIGINT, "interrupted"), (signal.SIGTERM, "terminated"), (signal.SIGKILL, None)],
    ids=["SIGINT", "SIGTERM", "SIGKILL"],
)


@SIGNALS
def test_signalled_frozen_pretrain_stops_its_3d_lane(scene_dir, tmp_path, signum, word):
    _signalled_pretrain_stops_its_lane(scene_dir, tmp_path, signum, word, frozen=True)


@SIGNALS
def test_signalled_trained_pretrain_stops_its_lane(scene_dir, tmp_path, signum, word):
    _signalled_pretrain_stops_its_lane(scene_dir, tmp_path, signum, word, frozen=False)


def _signalled_pretrain_stops_its_lane(scene_dir, tmp_path, signum, word, frozen):
    code, err, out, lanes, left = _signalled_pretrain(
        scene_dir, tmp_path, signum, frozen, lane=True)
    (lane,) = lanes
    assert "Traceback" not in err
    assert out.is_dir() and not (out / "checkpoint.cscw").exists()
    if word is not None:
        assert code == 2, err
        assert f"error: pretrain: {word}\n" in err
        assert not Path(f"/proc/{lane}").exists()  # stopped and reaped
        return
    # the parent cannot stop its lane, which saw its input hang up and exited
    assert code == -signal.SIGKILL
    assert left == []


def test_a_killed_3d_lane_exits_2(scene_dir, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text(CFG_TEXT + "freeze_2d = true\n")
    real_run_step = trainer.run_step
    lanes = []

    def run_step_(model, batch, epoch, cfg, run):
        if epoch == 2 and not lanes:
            lanes.append(run.scenes._lane.proc)
            lanes[0].kill()
        return real_run_step(model, batch, epoch, cfg, run)

    monkeypatch.setattr(trainer, "run_step", run_step_)
    out = tmp_path / "o"
    argv = ["pretrain", "--config", str(cfg), "--scenes", str(scene_dir), "--out", str(out)]
    assert main(argv) == 2
    assert "error: epoch 2, step 3: lane exited with code -9\n" in capsys.readouterr().err
    assert lanes[0].returncode == -9 and not Path(f"/proc/{lanes[0].pid}").exists()
    assert not (out / "checkpoint.cscw").exists()


NO_LATE_IMPORTS = """
import sys
from pathlib import Path
import scenecontrast.cli as cli
cli.build_parser()  # argparse's messages import locale, before any run starts
before = set(sys.modules)
d = Path(sys.argv[1])
(d / "c.txt").write_text("epochs = 1\\nscenes_per_batch = 2\\nembed_dim = 4\\n")
common = ["--scenes", str(d / "s"), "--config", str(d / "c.txt")]
(d / "ema.txt").write_text("epochs = 3\\nscenes_per_batch = 2\\nembed_dim = 4\\n"
                          "lam = 0\\nema = true\\n")
for argv in (
    ["gen-scenes", "--count", "2", "--points", "64", "--height", "8", "--width", "8",
     "--out", str(d / "s")],
    ["pretrain", *common, "--out", str(d / "run")],
    ["pretrain", "--scenes", str(d / "s"), "--config", str(d / "ema.txt"),
     "--out", str(d / "ema")],
    ["probe", *common, "--ckpt", str(d / "run" / "checkpoint.cscw")],
    ["ablate", *common, "--seeds", "1"],
    ["gradcheck"],
):
    assert cli.main(argv) == 0, argv
print(" ".join(sorted(set(sys.modules) - before)))
print("numpy.ma" in sys.modules)
"""


def test_commands_import_no_module_once_running(tmp_path):
    """A signal that lands inside an import can be lost, and numpy imports
    ``numpy.random`` and ``numpy.ma`` on first use; so a command imports
    nothing once it runs, and none reaches ``numpy.ma``, which ``cli`` does
    not import up front."""
    src = str(Path(scenecontrast.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", NO_LATE_IMPORTS, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["", "False"]


def test_main_restores_the_sigterm_handler(scene_dir, tmp_path):
    before = signal.getsignal(signal.SIGTERM)
    assert main(["gen-scenes", "--count", "1", "--points", "64", "--height", "8",
                 "--width", "8", "--out", str(tmp_path / "s")]) == 0
    assert signal.getsignal(signal.SIGTERM) is before


def test_main_runs_off_the_main_thread(tmp_path):
    codes = []
    worker = threading.Thread(target=lambda: codes.append(main(
        ["gen-scenes", "--count", "1", "--points", "64", "--height", "8", "--width", "8",
         "--out", str(tmp_path / "s")])))
    worker.start()
    worker.join()
    assert codes == [0]


@pytest.mark.parametrize("line", ["lr = nan", "tau_sp = inf", "tau_pro = nan"])
def test_non_finite_config_exits_1(scene_dir, tmp_path, capsys, line):
    bad = tmp_path / "bad.txt"
    bad.write_text(CFG_TEXT + line + "\n")
    code = main(
        ["pretrain", "--config", str(bad), "--scenes", str(scene_dir),
         "--out", str(tmp_path / "o")]
    )
    assert code == 1
    assert f"{line.split()[0]} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        ("gen-scenes --out {out} --seed -1", "--seed must be >= 0, got -1"),
        ("gen-scenes --out {out} --count 0", "--count must be >= 1, got 0"),
        ("gen-scenes --out {out} --count -1", "--count must be >= 1, got -1"),
        ("gradcheck --seed -1", "--seed must be >= 0, got -1"),
        ("pretrain --scenes {scenes} --out {out} --seed -1", "seed must be >= 0, got -1"),
        ("pretrain --scenes {scenes} --out {out} --config {seeded}", "seed must be >= 0"),
        ("probe --ckpt {out}/m.cscw --scenes {scenes} --seed -1", "seed must be >= 0"),
        ("ablate --scenes {scenes} --out {out} --seeds 0", "--seeds must be >= 1, got 0"),
        ("ablate --scenes {scenes} --out {out} --seeds -2", "--seeds must be >= 1, got -2"),
        ("ablate --scenes {scenes} --out {out} --arm sp --seed -1", "seed must be >= 0"),
        ("gen-scenes --out {out} --count 1 --seed 5 --classes 70000 --objects 1",
         "num_classes must be <= 65536, got 70000"),
    ],
    ids=[
        "gen-seed", "gen-count-0", "gen-count-neg", "gradcheck-seed", "pretrain-seed",
        "config-seed", "probe-seed", "ablate-seeds-0", "ablate-seeds-neg", "arm-seed",
        "gen-classes",
    ],
)
def test_out_of_range_flags_exit_1(scene_dir, tmp_path, capsys, argv, message):
    seeded = tmp_path / "seeded.txt"
    seeded.write_text(CFG_TEXT + "seed = -1\n")
    out = tmp_path / "o"
    args = argv.format(scenes=scene_dir, out=out, seeded=seeded).split()
    assert main(args) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_diverging_pretrain_exits_2_without_outputs(scene_dir, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(CFG_TEXT + "lr = 1e200\n")
    out = tmp_path / "o"
    code = main(
        ["pretrain", "--config", str(bad), "--scenes", str(scene_dir),
         "--out", str(out)]
    )
    assert code == 2
    assert "non-finite values at epoch 1, step 2, stage 'loss'" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()
    assert not (out / "checkpoint.cscw").exists()
