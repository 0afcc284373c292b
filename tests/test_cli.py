"""Command-line contract: flows, determinism, exit codes."""

import numpy as np
import pytest

from scenecontrast.cli import main
from scenecontrast.scenegen import read_scene
from scenecontrast.trainer import load_model, save_model

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


def test_probe_bad_fraction_exits_1(ckpt_dir, scene_dir, capsys):
    code = main(
        ["probe", "--ckpt", str(ckpt_dir / "checkpoint.cscw"),
         "--scenes", str(scene_dir), "--fraction", "1.5"]
    )
    assert code == 1
    capsys.readouterr()


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
    assert code != 0
    assert "checkpoint stack 1, layer 1: non-finite parameters" in capsys.readouterr().err


def test_gradcheck_exits_0(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    for name in ("embednet", "blending", "loss_sp", "loss_pro"):
        assert f"{name}: " in out
    assert "FAIL" not in out


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
