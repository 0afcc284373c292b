"""Training loop: config parsing, determinism, schedules, probe, gradcheck."""

import contextlib
import copy
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import scenecontrast.blasthreads as blasthreads
import scenecontrast.embednet as embednet
import scenecontrast.lane as lane
import scenecontrast.trainer as trainer
from scenecontrast.embednet import read_checkpoint
from scenecontrast.errors import (
    ConfigurationError,
    ContractViolationError,
    DegenerateBatchError,
    ShapeError,
    TrainingError,
)
from scenecontrast.losses import CSV_HEADER
from scenecontrast.projection import build_associations
from scenecontrast.scenegen import SceneGeometry, SemanticOracleConfig, generate_scene
from scenecontrast.trainer import (
    ARMS,
    SceneSet,
    TrainConfig,
    ablation_csv,
    arm_config,
    cosine_lr,
    fit_linear_probe,
    gradcheck,
    init_model,
    linear_probe,
    load_config,
    load_model,
    pretrain,
    probe_split,
    save_model,
    set_config_value,
)

from conftest import SMALL_CFG
from fdutil import (
    full_embed_probe,
    loop_prototypes,
    onehot_linear_probe,
    random_init_probe,
)

# ---------------------------------------------------------------------------
# config


def write_cfg(tmp_path, text):
    p = tmp_path / "c.txt"
    p.write_text(text)
    return p


def test_load_config_parses_types_and_comments(tmp_path):
    p = write_cfg(
        tmp_path,
        "# full line comment\n"
        "\n"
        "seed = 3\n"
        "lr = 0.25   # trailing comment\n"
        "freeze_2d = true\n"
        "ema = 1\n"
        "proto_mode = raw3d\n",
    )
    cfg = load_config(p)
    assert cfg.seed == 3
    assert cfg.lr == 0.25
    assert cfg.freeze_2d is True
    assert cfg.ema is True
    assert cfg.proto_mode == "raw3d"
    # untouched keys keep their defaults
    assert cfg.epochs == TrainConfig().epochs


def test_load_config_unknown_key_names_line(tmp_path):
    p = write_cfg(tmp_path, "seed = 1\nlearning_rate = 0.1\n")
    with pytest.raises(ConfigurationError, match=r":2: unknown key 'learning_rate'"):
        load_config(p)


def test_load_config_rejects_frames_per_scene(tmp_path):
    # a scene is one frame, so there is no per-scene frame count to set
    p = write_cfg(tmp_path, "frames_per_scene = 1\n")
    with pytest.raises(ConfigurationError, match=r":1: unknown key 'frames_per_scene'"):
        load_config(p)


def test_load_config_bad_value(tmp_path):
    p = write_cfg(tmp_path, "lr = fast\n")
    with pytest.raises(ConfigurationError, match="cannot parse lr"):
        load_config(p)


def test_load_config_bad_proto_mode_names_line(tmp_path):
    p = write_cfg(tmp_path, "seed = 1\nproto_mode = bogus\n")
    with pytest.raises(ConfigurationError, match=r"c\.txt:2: unknown proto_mode 'bogus'$"):
        load_config(p)
    with pytest.raises(ConfigurationError, match=r"^unknown proto_mode 'blend'$"):
        set_config_value(TrainConfig(), "proto_mode", "blend")


def test_set_config_value_rejects_an_unknown_key():
    cfg = TrainConfig()
    with pytest.raises(ConfigurationError, match="unknown key 'validate'"):
        set_config_value(cfg, "validate", "1")
    assert callable(cfg.validate)


def test_load_config_names_a_line_that_is_not_utf8(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_bytes(b"seed = 1\nlr = 0.1\xff\nepochs = 2\n")
    with pytest.raises(ConfigurationError, match=r"cfg\.txt:2: not UTF-8 text$"):
        load_config(p)


def test_load_config_splits_lines_as_text_mode_does(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_bytes("seed = 3\r\nlr = 0.5\repochs = 4 # é\n".encode())
    cfg = load_config(p)
    assert (cfg.seed, cfg.lr, cfg.epochs) == (3, 0.5, 4)


def test_load_config_missing_equals(tmp_path):
    p = write_cfg(tmp_path, "seed 1\n")
    with pytest.raises(ConfigurationError, match=r":1: expected key=value"):
        load_config(p)


def test_validate_rejects_bad_fields():
    for kw in (
        dict(epochs=0),
        dict(lr=-0.1),
        dict(scenes_per_batch=1),
        dict(embed_dim=0),
        dict(momentum=1.0),
        dict(ema_momentum=-0.2),
        dict(proto_mode="blend"),
        dict(probe_fraction=0.0),
        dict(probe_fraction=1.5),
        dict(probe_epochs=0),
        dict(tau_sp=0.0),
        dict(lam=-1),
    ):
        with pytest.raises(ConfigurationError):
            TrainConfig(**kw).validate()
    TrainConfig(lr=0.0).validate()  # frozen dynamics are legal


@pytest.mark.parametrize(
    "kw,message",
    [
        (dict(tau_sp=0.0), "tau_sp must be > 0.0, got 0.0"),
        (dict(tau_pro=-1.0), "tau_pro must be > 0.0, got -1.0"),
        (dict(lam=-1), "lam must be >= 0"),
    ],
)
def test_loss_fields_name_their_check(kw, message):
    with pytest.raises(ConfigurationError, match=message):
        TrainConfig(**kw).validate()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["lr", "tau_sp", "tau_pro"])
def test_load_config_rejects_non_finite(tmp_path, field, value):
    p = write_cfg(tmp_path, f"{field} = {value}\n")
    with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
        load_config(p)


def test_readme_config_keys_match_train_config():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lead = "Training config keys mirror `trainer.TrainConfig`:"
    sentence = re.split(r"\.\s", readme.split(lead, 1)[1], maxsplit=1)[0]
    keys = re.findall(r"`([^`]+)`", re.sub(r"\([^()]*\)", "", sentence))
    assert keys == [f.name for f in fields(TrainConfig)]


def test_readme_layout_names_every_module():
    root = Path(__file__).resolve().parent.parent
    table = (root / "README.md").read_text().split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    named = re.findall(r"^\| `(\w+)` \|", table, flags=re.M)
    modules = [p.stem for p in (root / "src" / "scenecontrast").glob("*.py")]
    assert sorted(named) == sorted(set(modules) - {"__init__"})


# ---------------------------------------------------------------------------
# schedule


def test_cosine_lr_endpoints():
    assert cosine_lr(0.1, 1, 20) == pytest.approx(0.1)
    expected_last = 0.1 * 0.5 * (1.0 + np.cos(np.pi * 19 / 20))
    assert cosine_lr(0.1, 20, 20) == pytest.approx(expected_last)
    # monotone decreasing across the run
    vals = [cosine_lr(0.1, e, 20) for e in range(1, 21)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# pretraining loop

CFG = TrainConfig(
    seed=0,
    epochs=3,
    scenes_per_batch=3,
    embed_dim=16,
    lr=0.01,
    lam=1,
)


@pytest.fixture(scope="module")
def prepared(small_set):
    return small_set.prepared


@pytest.fixture(scope="module")
def trained(small_set, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "out"
    return pretrain(small_set, CFG, out_dir=out)


def test_metrics_shape(trained):
    assert trained.metrics[0] == CSV_HEADER
    # 6 scenes / 3 per batch = 2 batches per epoch, 3 epochs
    assert len(trained.metrics) == 1 + 2 * 3
    steps = [int(r.split(",")[0]) for r in trained.metrics[1:]]
    assert steps == list(range(1, 7))


def test_gate_opens_after_lam(trained):
    rows = [r.split(",") for r in trained.metrics[1:]]
    by_epoch = {}
    for r in rows:
        by_epoch.setdefault(int(r[1]), set()).add(int(r[2]))
    assert by_epoch[1] == {0}
    assert by_epoch[2] == {1}
    assert by_epoch[3] == {1}
    # pro column is a placeholder zero while the gate is closed
    closed = [float(r[4]) for r in rows if r[2] == "0"]
    assert closed == [0.0] * len(closed)


def test_gate_never_opens_when_lam_equals_epochs(small_set):
    cfg = TrainConfig(epochs=2, scenes_per_batch=3, embed_dim=16, lr=0.01, lam=2)
    res = pretrain(small_set, cfg)
    assert all(r.split(",")[2] == "0" for r in res.metrics[1:])


def test_pretrain_bitwise_deterministic(small_set, tmp_path, trained):
    out2 = tmp_path / "rerun"
    again = pretrain(small_set, CFG, out_dir=out2)
    assert again.metrics == trained.metrics
    assert (
        trained.checkpoint_path.read_bytes()
        == (out2 / "checkpoint.cscw").read_bytes()
    )
    assert (out2 / "metrics.csv").read_text().splitlines() == trained.metrics


def test_lr_zero_freezes_parameters(small_set):
    cfg = TrainConfig(epochs=2, scenes_per_batch=3, embed_dim=16, lr=0.0, lam=1)
    res = pretrain(small_set, cfg)
    feat_dim = small_set.frames[0].pixel_features.shape[3]
    fresh = init_model(feat_dim, cfg.embed_dim, cfg.seed)
    for got, want in zip(res.model.stacks(), fresh.stacks()):
        for lg, lw in zip(got.layers, want.layers):
            assert np.array_equal(lg.weight, lw.weight)
            assert np.array_equal(lg.bias, lw.bias)
    # the loop still ran and logged
    assert len(res.metrics) == 1 + 2 * 2


def test_training_reduces_sp_loss(small_set):
    cfg = TrainConfig(epochs=4, scenes_per_batch=3, embed_dim=16, lr=0.05, lam=4)
    res = pretrain(small_set, cfg)
    totals = [float(r.split(",")[5]) for r in res.metrics[1:]]
    first_epoch = np.mean(totals[:2])
    last_epoch = np.mean(totals[-2:])
    assert last_epoch < first_epoch


def test_library_calls_reject_a_mixed_scene_set(small_set):
    nine = generate_scene(
        103,
        SemanticOracleConfig(num_classes=9, objects_per_scene=5),
        SceneGeometry(num_points=384, height=32, width=32),
        scene_id=3,
    )
    message = "frame 3: num_classes is 9, but 6 in frame 0"
    with pytest.raises(ConfigurationError, match=message):
        SceneSet(small_set.frames[:3] + [nine])


def test_library_calls_reject_a_repeated_scene_id(small_set):
    frames = small_set.frames
    message = "frame 4: scene_id 1 is already used by frame 1"
    with pytest.raises(ConfigurationError, match=message):
        SceneSet(frames[:4] + [frames[1]])


def test_pretrain_orders_scenes_by_id(small_set, small_frames):
    cfg = TrainConfig(epochs=2, scenes_per_batch=3, embed_dim=16, lam=0)
    res = pretrain(small_set, cfg)
    back = pretrain(SceneSet(small_frames[::-1]), cfg)
    assert back.metrics == res.metrics
    assert np.array_equal(back.model.params, res.model.params)


def test_too_few_scenes_rejected(small_set):
    cfg = TrainConfig(scenes_per_batch=8)
    with pytest.raises(ConfigurationError, match="scenes_per_batch"):
        pretrain(small_set, cfg)


def test_degenerate_batch_skipped_with_warning(small_set, monkeypatch, capsys):
    real = trainer.run_step
    calls = {"n": 0}

    def flaky(model, batch, epoch, cfg, ema_state=None):
        calls["n"] += 1
        if calls["n"] == 1:
            raise DegenerateBatchError("synthetic degeneracy")
        return real(model, batch, epoch, cfg, ema_state)

    monkeypatch.setattr(trainer, "run_step", flaky)
    cfg = TrainConfig(epochs=2, scenes_per_batch=3, embed_dim=16, lr=0.01, lam=1)
    res = pretrain(small_set, cfg)
    err = capsys.readouterr().err
    assert "skipping batch" in err and "synthetic degeneracy" in err
    # one row lost, steps still contiguous from 1
    assert len(res.metrics) == 1 + (2 * 2 - 1)
    assert [int(r.split(",")[0]) for r in res.metrics[1:]] == [1, 2, 3]


def test_out_dir_that_is_a_file_fails_before_any_step(
    small_set, monkeypatch, tmp_path
):
    calls = []
    real = trainer.run_step

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(trainer, "run_step", counting)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    cfg = TrainConfig(epochs=1, scenes_per_batch=3, embed_dim=16, lam=1)
    with pytest.raises(OSError):
        pretrain(small_set, cfg, out_dir=taken)
    assert calls == []
    assert taken.read_text() == "not a directory\n"


def test_all_degenerate_epoch_is_fatal(small_set, monkeypatch):
    def broken(*args, **kwargs):
        raise DegenerateBatchError("nothing valid")

    monkeypatch.setattr(trainer, "run_step", broken)
    cfg = TrainConfig(epochs=1, scenes_per_batch=3, embed_dim=16, lam=1)
    with pytest.raises(TrainingError, match="every batch of epoch 1"):
        pretrain(small_set, cfg)


def _collapse_fuse(params):
    """Zero the fuse stack, so every fused prototype has zero norm."""
    for layer in params.fuse.layers:
        layer.weight[:] = 0.0
        layer.bias[:] = 0.0


def test_collapsed_blend_skips_the_batch(small_set, monkeypatch, capsys):
    real = trainer.blending.blend
    calls = {"n": 0}

    def collapsing(bank, params):
        calls["n"] += 1
        if calls["n"] == 2:
            # the real check raises, on a copy: the model itself is untouched
            params = copy.deepcopy(params)
            _collapse_fuse(params)
        return real(bank, params)

    monkeypatch.setattr(trainer.blending, "blend", collapsing)
    cfg = TrainConfig(epochs=2, scenes_per_batch=3, embed_dim=16, lr=0.01, lam=0)
    res = pretrain(small_set, cfg)
    err = capsys.readouterr().err
    assert "skipping batch 1 of epoch 1: fused prototype collapsed" in err
    assert [int(r.split(",")[0]) for r in res.metrics[1:]] == [1, 2, 3]


def test_collapsed_raw3d_prototype_skips_the_batch(small_set, monkeypatch, capsys):
    real = trainer.protobank.build_prototypes
    calls = {"build": 0, "sgd": 0}
    real_sgd = trainer._Run.sgd

    def collapsing(bank):
        calls["build"] += 1
        protos = real(bank)
        if calls["build"] == 2:
            p3d = protos.p3d.copy()
            p3d[-1] = 0.0
            protos = replace(protos, p3d=p3d)
        return protos

    def counted_sgd(self, lr):
        calls["sgd"] += 1
        real_sgd(self, lr)

    monkeypatch.setattr(trainer.protobank, "build_prototypes", collapsing)
    monkeypatch.setattr(trainer._Run, "sgd", counted_sgd)
    cfg = TrainConfig(
        epochs=2, scenes_per_batch=3, embed_dim=16, lr=0.01, lam=0, proto_mode="raw3d"
    )
    res = pretrain(small_set, cfg)
    err = capsys.readouterr().err
    assert "skipping batch 1 of epoch 1: raw 3D prototype collapsed to zero" in err
    assert err.count("skipping") == 1
    assert [int(r.split(",")[0]) for r in res.metrics[1:]] == [1, 2, 3]
    assert calls == {"build": 4, "sgd": 3}


def test_collapsed_blend_every_batch_is_fatal(small_set, monkeypatch, capsys):
    real = trainer.init_model

    def collapsed_model(*args):
        model = real(*args)
        _collapse_fuse(model.blend)
        return model

    monkeypatch.setattr(trainer, "init_model", collapsed_model)
    cfg = TrainConfig(epochs=1, scenes_per_batch=3, embed_dim=16, lam=0)
    with pytest.raises(TrainingError, match="every batch of epoch 1"):
        pretrain(small_set, cfg)
    assert capsys.readouterr().err.count("fused prototype collapsed") == 2


def test_skipped_batch_leaves_the_ema_bank(small_set, prepared, monkeypatch):
    cfg = replace(CFG, ema=True, lam=0)
    model = init_model(small_set.frames[0].pixel_features.shape[3], cfg.embed_dim, cfg.seed)

    def collapsing(bank, params):
        raise DegenerateBatchError("fused prototype collapsed to zero norm")

    with trainer._Run.open(model, cfg, small_set) as run:
        trainer.run_step(model, prepared[:3], 1, cfg, run)
        bank = run.bank
        saved = copy.deepcopy(bank)
        monkeypatch.setattr(trainer.blending, "blend", collapsing)
        with pytest.raises(DegenerateBatchError):
            trainer.run_step(model, prepared[3:], 1, cfg, run)
    assert run.bank is bank
    for name in ("class_ids", "p2d", "p3d", "counts"):
        assert getattr(bank, name).tobytes() == getattr(saved, name).tobytes()


@pytest.mark.parametrize("epoch, gate", [(CFG.lam, 0), (CFG.lam + 1, 1)])
def test_prototype_work_runs_only_with_the_gate_open(
    small_set, prepared, monkeypatch, epoch, gate
):
    model = init_model(small_set.frames[0].pixel_features.shape[3], CFG.embed_dim, CFG.seed)
    calls = {}
    for module, name in [
        (trainer.protobank, "build_prototypes"),
        (trainer.blending, "blend"),
        (trainer.losses, "loss_pro"),
    ]:
        def counted(*args, _real=getattr(module, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    with trainer._Run.open(model, CFG, small_set) as run:
        report = trainer.run_step(model, prepared[:3], epoch, CFG, run)
    assert report.gate == gate
    want = {"build_prototypes": 1, "blend": 1, "loss_pro": 1} if gate else {}
    assert calls == want


@pytest.mark.parametrize("mode", ["raw3d", "mmpb"])
def test_each_arm_hands_the_loss_its_own_prototypes(small_set, prepared, monkeypatch, mode):
    """raw3d scores the normalized 3D means, mmpb the blend of both tables."""
    cfg = replace(CFG, lam=0, proto_mode=mode)
    model = init_model(small_set.frames[0].pixel_features.shape[3], cfg.embed_dim, cfg.seed)
    real = trainer.losses.loss_pro
    seen = []

    def capturing(bank, class_ids, pmix, tau_pro):
        seen.append((bank, class_ids, pmix))
        return real(bank, class_ids, pmix, tau_pro)

    monkeypatch.setattr(trainer.losses, "loss_pro", capturing)
    with trainer._Run.open(model, cfg, small_set) as run:
        trainer.run_step(model, prepared[:3], 1, cfg, run)
    ((bank, class_ids, pmix),) = seen
    table = loop_prototypes([bank])
    if mode == "raw3d":
        want = table.p3d / np.linalg.norm(table.p3d, axis=1)[:, None]
    else:
        want = trainer.blending.blend(table, model.blend).pmix
    assert class_ids.tobytes() == table.class_ids.tobytes()
    assert pmix.dtype == want.dtype and pmix.tobytes() == want.tobytes()


def test_ema_changes_prototype_term(small_set):
    base = TrainConfig(epochs=3, scenes_per_batch=3, embed_dim=16, lr=0.01, lam=1)
    plain = pretrain(small_set, base)
    ema = pretrain(
        small_set,
        TrainConfig(
            epochs=3, scenes_per_batch=3, embed_dim=16, lr=0.01, lam=1, ema=True
        ),
    )
    # first gated epoch has no history, so the smoothed bank only starts
    # to diverge from the fresh one at the second gated step
    assert plain.metrics[:3] == ema.metrics[:3]
    assert plain.metrics != ema.metrics


# ---------------------------------------------------------------------------
# the parameter buffer


@pytest.mark.parametrize("freeze", [False, True], ids=["trained", "frozen"])
def test_params_is_the_only_parameter_storage(small_set, tmp_path, freeze):
    cfg = replace(CFG, freeze_2d=freeze)
    res = pretrain(small_set, cfg, out_dir=tmp_path)
    params = res.model.params
    arrays = [a for s in res.model.stacks() for l in s.layers for a in (l.weight, l.bias)]
    assert all(np.shares_memory(a, params) for a in arrays)
    # checkpoint order, each weight row-major then its bias, nothing else
    on_disk = np.concatenate(
        [np.concatenate([w.ravel(), b]) for w, b in read_checkpoint(res.checkpoint_path)]
    )
    assert on_disk.tobytes() == params.tobytes()
    feat_dim = small_set.frames[0].pixel_features.shape[3]
    init = init_model(feat_dim, cfg.embed_dim, cfg.seed).params
    n2d = res.model.embed2d.num_params
    assert (params[:n2d].tobytes() == init[:n2d].tobytes()) == freeze
    assert params[n2d:].tobytes() != init[n2d:].tobytes()


def test_load_model_copies_into_the_buffer(trained, small_set):
    feat_dim = small_set.frames[0].pixel_features.shape[3]
    back = load_model(trained.checkpoint_path, feat_dim, CFG.embed_dim)
    assert back.params.tobytes() == trained.model.params.tobytes()
    for layer in (l for s in back.stacks() for l in s.layers):
        assert np.shares_memory(layer.weight, back.params)
        assert np.shares_memory(layer.bias, back.params)


# ---------------------------------------------------------------------------
# checkpoints


def test_model_save_load_round_trip(trained, tmp_path, small_set):
    feat_dim = small_set.frames[0].pixel_features.shape[3]
    path = tmp_path / "m.cscw"
    save_model(trained.model, path)
    back = load_model(path, feat_dim, CFG.embed_dim)
    for got, want in zip(back.stacks(), trained.model.stacks()):
        for lg, lw in zip(got.layers, want.layers):
            assert np.array_equal(lg.weight, lw.weight)
            assert np.array_equal(lg.bias, lw.bias)
    # write -> read -> write is byte stable
    path2 = tmp_path / "m2.cscw"
    save_model(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_layer_count(trained):
    specs = read_checkpoint(trained.checkpoint_path)
    assert len(specs) == sum(len(s.layers) for s in trained.model.stacks())


# ---------------------------------------------------------------------------
# linear probe


def test_probe_perfect_on_separable_fixture(rng):
    # clusters at distinct one-hot corners are linearly separable, so a
    # full-fraction probe must classify every test point correctly
    n_per, c, d = 30, 4, 6
    z, y = [], []
    for cls in range(c):
        center = np.zeros(d)
        center[cls] = 3.0
        z.append(center + 0.05 * rng.normal(size=(n_per, d)))
        y.append(np.full(n_per, cls))
    z = np.concatenate(z)
    y = np.concatenate(y)
    rep = fit_linear_probe(z, y, [z], y, epochs=100)
    assert rep.mean_accuracy == 1.0 and rep.miou == 1.0
    assert set(rep.per_class) == set(range(c))
    assert rep.n_train_labeled == n_per * c


@pytest.mark.parametrize("epochs", [1, 7, 100])
def test_probe_matches_the_one_hot_loop(rng, monkeypatch, epochs):
    # overlapping clusters, so many test points sit near a decision boundary;
    # class 2 and class 7 label test points only
    centers = rng.normal(size=(8, 6))
    y_train = rng.choice([0, 1, 3, 4, 5, 6], size=90)
    y_test = rng.integers(0, 8, size=400)
    z_train = centers[y_train] + rng.normal(size=(90, 6))
    z_test = centers[y_test] + rng.normal(size=(400, 6))
    got = fit_linear_probe(z_train, y_train, [z_test], y_test, epochs=epochs)
    want = onehot_linear_probe(z_train, y_train, z_test, y_test, epochs=epochs)
    assert got == want
    assert got.summary() == want.summary()
    assert {2, 7} <= set(got.per_class) and 0.0 < got.mean_accuracy < 1.0
    # uneven blocks classify each row as the one block does
    blocks = [z_test[:1], z_test[1:8], z_test[8:]]
    assert fit_linear_probe(z_train, y_train, blocks, y_test, epochs=epochs) == got
    # and so do chunks of 1 and 7 rows, scored one after another
    for rows in (1, 7):
        monkeypatch.setattr(trainer, "_SCORE_BYTES", 8 * 8 * rows)
        assert fit_linear_probe(z_train, y_train, [z_test], y_test, epochs=epochs) == got
    with pytest.raises(ShapeError, match="399 rows for 400 labels"):
        fit_linear_probe(z_train, y_train, [z_test[1:]], y_test, epochs=epochs)
    with pytest.raises(ShapeError, match="more rows than 400 labels"):
        fit_linear_probe(z_train, y_train, [z_test, z_test[:1]], y_test, epochs=epochs)


def test_probe_iou_matches_a_brute_force_confusion_matrix(rng):
    # the probe classifies each test row by its cluster, as the separable
    # fixture shows, so its predictions are known; the test labels are
    # drawn apart from them, class 4 among them, which no row predicts
    c, d = 4, 6
    centers = 3.0 * np.eye(c, d)
    y_train = np.repeat(np.arange(c), 30)
    z_train = centers[y_train] + 0.05 * rng.normal(size=(len(y_train), d))
    pred = rng.integers(0, c, size=500)
    y_test = np.where(rng.random(500) < 0.6, pred, rng.integers(0, c + 1, size=500))
    z_test = centers[pred] + 0.05 * rng.normal(size=(500, d))
    rep = fit_linear_probe(z_train, y_train, [z_test], y_test, epochs=100)
    confusion = [[0] * (c + 1) for _ in range(c + 1)]
    for t, p in zip(y_test.tolist(), pred.tolist()):
        confusion[t][p] += 1
    want = {}
    for k in range(c + 1):
        truth = sum(confusion[k])
        if truth:
            predicted = sum(row[k] for row in confusion)
            want[k] = confusion[k][k] / (truth + predicted - confusion[k][k])
    assert rep.iou == want and set(want) == set(range(c + 1)) and want[c] == 0.0
    assert rep.miou == float(np.mean(list(want.values())))
    assert rep.per_class == {k: confusion[k][k] / sum(confusion[k]) for k in want}


def test_probe_counts_in_the_number_of_classes_not_its_square(rng):
    # one test label of 60000 makes C = 60001: the counts must cost O(C)
    # (a C x C int64 matrix is 28.8 GB), and uint16 labels must not wrap
    z_train = rng.normal(size=(4, 3))
    y_train = np.arange(4) % 3
    z_test = rng.normal(size=(8, 3))
    y_test = np.array([0, 1, 2, 60000] * 2, dtype=np.uint16)
    tracemalloc.start()
    try:
        got = fit_linear_probe(
            z_train, y_train, [z_test[:3], z_test[3:]], y_test, epochs=5
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    assert got == onehot_linear_probe(z_train, y_train, z_test, y_test, epochs=5)
    assert set(got.iou) == {0, 1, 2, 60000} and got.iou[60000] == 0.0


def test_probe_scores_a_wide_classifier_in_chunks(rng):
    # one test label of 60000: a 96-row block scored at once would hold
    # two 96 x 60001 float64 arrays, 92 MB
    z_train = rng.normal(size=(4, 3))
    y_train = np.arange(4) % 3
    z_test = rng.normal(size=(96, 3))
    y_test = np.arange(96) % 3
    y_test[5] = 60000
    tracemalloc.start()
    try:
        got = fit_linear_probe(z_train, y_train, [z_test], y_test, epochs=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    assert got == onehot_linear_probe(z_train, y_train, z_test, y_test, epochs=5)


def test_probe_report_summary_format():
    rep = trainer.ProbeReport(
        mean_accuracy=0.5, per_class={1: 0.25, 0: 0.75}, n_train_labeled=12, n_test=34,
        iou={1: 0.125, 0: 0.5}, miou=0.3125,
    )
    assert rep.summary() == (
        "mean_accuracy 0.500000\n"
        "class 0 accuracy 0.750000\n"
        "class 1 accuracy 0.250000\n"
        "labeled 12 test_points 34\n"
    )


def test_probe_empty_training_set():
    with pytest.raises(ConfigurationError, match="empty"):
        fit_linear_probe(
            np.zeros((0, 3)), np.zeros(0, dtype=int), [np.zeros((1, 3))],
            np.zeros(1, dtype=int), epochs=100,
        )


def test_probe_empty_test_set():
    with pytest.raises(ConfigurationError, match="empty probe test set"):
        fit_linear_probe(
            np.zeros((1, 3)), np.zeros(1, dtype=int), [np.zeros((0, 3))],
            np.zeros(0, dtype=int), epochs=100,
        )


def test_probe_split_holds_out_last_quarter(small_set):
    train, test = probe_split(small_set)
    assert {f.scene_id for f in train} == {0, 1, 2, 3, 4}
    assert {f.scene_id for f in test} == {5}
    with pytest.raises(ConfigurationError):
        probe_split(SceneSet(small_set.frames[:1]))
    back = probe_split(SceneSet(small_set.frames[::-1]))
    assert [[f.scene_id for f in part] for part in back] == [[0, 1, 2, 3, 4], [5]]


def test_probe_sizes_its_classifier_by_the_labels(trained, small_set):
    # a header may declare up to 65536 classes; the probe must not allocate
    # for classes no label uses, nor let them change the fit
    wide = SceneSet([replace(f, num_classes=65536) for f in small_set.frames])
    cfg = TrainConfig(probe_fraction=0.05)
    want = linear_probe(trained.model, small_set, cfg)
    tracemalloc.start()
    try:
        got = linear_probe(trained.model, wide, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 16 * 2**20, peak


def test_probe_holds_one_test_frame_at_a_time():
    # 8 test frames of 1024 points: the probe's peak stays within twice one
    # test frame's forward (first and second hidden rows, output rows) plus
    # the labelled rows' own, so no array spans the test set
    geom = SceneGeometry(num_points=1024, height=16, width=16)
    frames = [generate_scene(300 + s, SMALL_CFG, geom, scene_id=s) for s in range(32)]
    scenes = SceneSet(frames)
    cfg = TrainConfig(probe_epochs=5)
    model = init_model(frames[0].pixel_features.shape[3], cfg.embed_dim, 0)
    train, test = probe_split(scenes)
    assert len(test) == 8
    n_lab = round(cfg.probe_fraction * sum(len(f.points) for f in train))
    row_bytes = 8 * (sum(trainer.HIDDEN) + cfg.embed_dim)
    frame_rows = max(len(f.points) for f in test)
    tracemalloc.start()
    try:
        linear_probe(model, scenes, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * row_bytes * (frame_rows + n_lab), peak


def test_probe_fraction_too_small(trained, small_set):
    cfg = TrainConfig(probe_fraction=1e-7)
    with pytest.raises(ConfigurationError, match="selects no points"):
        linear_probe(trained.model, small_set, cfg)


def test_probe_deterministic(trained, small_set):
    cfg = TrainConfig(probe_fraction=0.05)
    a = linear_probe(trained.model, small_set, cfg)
    b = linear_probe(trained.model, small_set, cfg)
    assert a.mean_accuracy == b.mean_accuracy
    assert a.per_class == b.per_class


@pytest.mark.parametrize("fraction", [0.01, 0.05, 0.3, 1.0])
def test_probe_matches_the_full_embed_oracle(trained, small_set, fraction):
    for seed in range(3):
        cfg = TrainConfig(seed=seed, probe_fraction=fraction)
        got = linear_probe(trained.model, small_set, cfg)
        assert got == full_embed_probe(trained.model, small_set, cfg)  # bit for bit


def test_probe_matches_the_oracle_at_the_ablation_operating_point():
    from test_acceptance import (
        ABLATION_GEOM, ABLATION_SCENE_CFG, ABLATION_SCENES, ABLATION_SEEDS,
        ABLATION_TRAIN,
    )
    from scenecontrast.scenegen import generate_scene

    frames = SceneSet([
        generate_scene(500 + s, ABLATION_SCENE_CFG, ABLATION_GEOM, scene_id=s)
        for s in range(ABLATION_SCENES)
    ])
    feat_dim = frames.frames[0].pixel_features.shape[3]
    for seed in range(ABLATION_SEEDS):
        model = init_model(feat_dim, ABLATION_TRAIN.embed_dim, seed)
        cfg = replace(ABLATION_TRAIN, seed=seed)
        assert linear_probe(model, frames, cfg) == full_embed_probe(model, frames, cfg)


def test_trained_beats_random_probe(small_set):
    cfg = TrainConfig(
        epochs=6,
        scenes_per_batch=3,
        embed_dim=16,
        lr=0.01,
        lam=6,
        freeze_2d=True,
        probe_fraction=0.05,
    )
    res = pretrain(small_set, cfg)
    trained_acc = linear_probe(res.model, small_set, cfg).mean_accuracy
    random_acc = random_init_probe(small_set, cfg, seed=cfg.seed).mean_accuracy
    assert trained_acc >= random_acc


# ---------------------------------------------------------------------------
# frozen 2D stack

FROZEN = TrainConfig(
    epochs=3, scenes_per_batch=3, embed_dim=16, lr=0.01, lam=1, freeze_2d=True
)


@pytest.mark.parametrize(
    "cfg",
    [FROZEN, replace(FROZEN, proto_mode="raw3d", ema=True)],
    ids=["mmpb", "raw3d-ema"],
)
def test_frozen_2d_matches_dropping_the_2d_update(
    small_set, tmp_path, monkeypatch, cfg
):
    fast = pretrain(small_set, cfg, out_dir=tmp_path / "fast")
    feat_dim = small_set.frames[0].pixel_features.shape[3]
    init2d = init_model(feat_dim, cfg.embed_dim, cfg.seed).embed2d

    # oracle: the unfrozen step, with the 2D gradients zeroed before SGD
    real_sgd = trainer._Run.sgd

    def sgd_without_2d(self, lr):
        self.grads[: init2d.num_params] = 0.0  # embed2d comes first in the buffer
        real_sgd(self, lr)

    with monkeypatch.context() as m:
        m.setattr(trainer._Run, "sgd", sgd_without_2d)
        ref = pretrain(
            small_set,
            replace(cfg, freeze_2d=False),
            out_dir=tmp_path / "ref",
        )

    assert any(row.split(",")[2] == "1" for row in fast.metrics[1:])  # gated steps
    assert fast.metrics == ref.metrics
    assert (
        fast.checkpoint_path.read_bytes() == ref.checkpoint_path.read_bytes()
    )
    for got, want in zip(fast.model.embed2d.layers, init2d.layers):
        assert got.weight.tobytes() == want.weight.tobytes()
        assert got.bias.tobytes() == want.bias.tobytes()


@pytest.mark.parametrize("freeze", [True, False], ids=["frozen", "trained"])
def test_frozen_2d_work_counts(small_set, monkeypatch, freeze):
    models, batches, calls = [], [], []
    real_init, real_run_step = trainer.init_model, trainer.run_step
    real_forward, real_backward = embednet.forward, embednet.backward

    def init_model_(*args, **kwargs):
        models.append(real_init(*args, **kwargs))
        return models[-1]

    def run_step_(model, batch, *rest):
        batches.append(batch)
        return real_run_step(model, batch, *rest)

    # tagged with the step they belong to, with the lane kept out so this
    # process runs every frame.  A backward is given no inputs, so it is
    # traced to its frame through the forward that made its cache.
    frame_of = {}

    def forward_(stack, inputs, **kwargs):
        calls.append(("forward", stack, id(inputs), len(batches) - 1))
        out, cache = real_forward(stack, inputs, **kwargs)
        frame_of[id(cache)] = (cache, id(inputs))  # keeps the id unique
        return out, cache

    def backward_(stack, upstream, cache, **kwargs):
        calls.append(("backward", stack, frame_of[id(cache)][1], len(batches) - 1))
        return real_backward(stack, upstream, cache, **kwargs)

    monkeypatch.setattr(trainer, "init_model", init_model_)
    monkeypatch.setattr(trainer, "run_step", run_step_)
    monkeypatch.setattr(embednet, "forward", forward_)
    monkeypatch.setattr(embednet, "backward", backward_)
    lane_in(monkeypatch, False)
    pretrain(small_set, replace(FROZEN, freeze_2d=freeze))

    (model,) = models
    fwd2d = [(k, x) for fn, s, x, k in calls if fn == "forward" and s is model.embed2d]
    bwd2d = [(k, x) for fn, s, x, k in calls if fn == "backward" and s is model.embed2d]
    per_step = [(k, id(fd.x2d)) for k, batch in enumerate(batches) for fd in batch]
    assert len(batches) == 2 * FROZEN.epochs
    if freeze:
        # once per distinct frame per run, and never a 2D backward
        frames = {x for _, x in per_step}
        assert len(frames) == len(small_set)
        assert sorted(x for _, x in fwd2d) == sorted(frames)
        assert bwd2d == []
    else:
        # each step: each of its frames exactly once, in any order
        assert sorted(fwd2d) == sorted(per_step)
        assert sorted(bwd2d) == sorted(per_step)


# ---------------------------------------------------------------------------
# the lane: a child process that runs the trained sides of half of each batch


def test_pretrain_starts_no_thread(small_frames, monkeypatch):
    # in either mode, with the lane in from the first step
    alive, real_run_step = [], trainer.run_step

    def run_step_(*args):
        alive.append(sorted(t.name for t in threading.enumerate()))
        return real_run_step(*args)

    monkeypatch.setattr(trainer, "run_step", run_step_)
    forwards = lane_in(monkeypatch, True)
    before = sorted(t.name for t in threading.enumerate())
    with SceneSet(small_frames) as scenes:
        for cfg in (CFG, FROZEN):
            pretrain(scenes, cfg)
    assert len(alive) == len(forwards) == 2 * (CFG.epochs + FROZEN.epochs)
    assert all(names == before for names in alive)
    assert sorted(t.name for t in threading.enumerate()) == before


def lane_in(monkeypatch, used: bool) -> list:
    """Keep every lane out (``used`` False), or leave it in, as it is from
    the first step.  Returns the list each lane forward appends (lane
    pid, job count) to."""
    real_forward = lane._Lane.forward
    forwards = []

    def forward(self, params, jobs):
        forwards.append((self.proc.pid, len(jobs)))
        return real_forward(self, params, jobs)

    if not used:
        monkeypatch.setattr(trainer.SceneSet, "lane", lambda self, layout: None)
    monkeypatch.setattr(lane._Lane, "forward", forward)
    return forwards


def pickled(monkeypatch) -> list:
    """Record what ``_Lane`` pickles and unpickles, in order, as ("dump",
    message) and ("load", message) pairs; returns the list."""
    real, seen = lane.pickle, []

    def dump(message, *args, **kwargs):
        seen.append(("dump", message))
        return real.dump(message, *args, **kwargs)

    def load(*args, **kwargs):
        seen.append(("load", real.load(*args, **kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(lane, "pickle", SimpleNamespace(
        dump=dump, load=load, UnpicklingError=real.UnpicklingError))
    return seen


def stack_shapes(feat_dim: int, embed_dim: int) -> list[list[tuple[int, int]]]:
    """embed2d's and embed3d's layer shapes, as a lane's layout lists them."""
    widths = [[n] + trainer.HIDDEN + [embed_dim] for n in (feat_dim, 4)]
    return [list(zip(w[1:], w[:-1])) for w in widths]


def reaped(proc) -> bool:
    """Whether the lane process has exited and been waited for."""
    return proc.returncode is not None and not Path(f"/proc/{proc.pid}").exists()


@pytest.mark.parametrize(
    "cfg",
    [FROZEN, replace(FROZEN, proto_mode="raw3d", ema=True),
     CFG, replace(CFG, proto_mode="raw3d", ema=True)],
    ids=["mmpb", "raw3d-ema", "trained-mmpb", "trained-raw3d-ema"],
)
def test_3d_lane_does_not_change_outputs(small_frames, tmp_path, monkeypatch, cfg):
    runs = {}
    for used in (False, True):
        with monkeypatch.context() as m, SceneSet(small_frames) as scenes:
            forwards = lane_in(m, used)
            runs[used] = pretrain(scenes, cfg, out_dir=tmp_path / str(used))
        # batches of 3: the lane runs the last frame of each, its 3D side
        # alone under freeze_2d
        jobs = 1 if cfg.freeze_2d else 2
        assert [n for _, n in forwards] == ([jobs] * 2 * cfg.epochs if used else [])
    for name in ("metrics.csv", "checkpoint.cscw"):
        assert (tmp_path / "True" / name).read_bytes() == (tmp_path / "False" / name).read_bytes()


def test_3d_lane_does_not_change_ablation_rows(small_frames, monkeypatch):
    for cfg in (FROZEN, CFG):
        rows = {}
        for used in (False, True):
            with monkeypatch.context() as m, SceneSet(small_frames) as scenes:
                forwards = lane_in(m, used)
                rows[used] = trainer.run_ablation(scenes, cfg, [0, 1])
        assert rows[True] == rows[False]
        # one lane for the set's six jobs
        assert len(forwards) == 6 * 2 * cfg.epochs and len({pid for pid, _ in forwards}) == 1


def test_a_set_of_two_geometries_trains_the_same_with_the_lane_in_and_out(
    small_frames, monkeypatch
):
    # 2x32x32 px and 384 points beside 3x16x24 px and 240-480 points: the
    # shared scratch takes the larger side's rows, a slot whose frame has
    # another row count than the step before's cannot reuse its cache, and
    # the lane's tables hold other region counts from step to step
    wide = [SceneGeometry(num_points=n, num_cameras=3, height=16, width=24)
            for n in (240, 480, 360)]
    frames = small_frames[:3] + [
        generate_scene(200 + s, SMALL_CFG, geom, scene_id=6 + s) for s, geom in enumerate(wide)
    ]
    real_run_step = trainer.run_step
    for cfg in (CFG, FROZEN):
        runs, counts = {}, []

        def run_step_(model, batch, *rest):
            counts.append([(len(fd.x2d), len(fd.x3d), len(fd.signs)) for fd in batch])
            return real_run_step(model, batch, *rest)

        for used in (False, True):
            with monkeypatch.context() as m, SceneSet(frames) as scenes:
                forwards = lane_in(m, used)
                m.setattr(trainer, "run_step", run_step_)
                result = pretrain(scenes, cfg)
            runs[used] = result.metrics, result.model.params.tobytes()
            assert len(forwards) == (2 * cfg.epochs if used else 0)
        assert runs[True] == runs[False]
        # each slot, the lane's last one among them, sees both geometries
        slots = list(zip(*counts))
        assert all(len({rows2d for rows2d, _, _ in slot}) == 2 for slot in slots)
        assert len({regions for *_, regions in slots[-1]}) > 2


def test_3d_lane_idles_through_a_skipped_batch(small_frames, monkeypatch, capsys):
    cfg = replace(FROZEN, proto_mode="raw3d", lam=0)
    real = trainer.protobank.build_prototypes
    runs = {}
    for used in (False, True):
        calls = []

        def collapsing(bank):
            calls.append(bank)
            protos = real(bank)
            return replace(protos, p3d=0 * protos.p3d) if len(calls) == 2 else protos

        with monkeypatch.context() as m, SceneSet(small_frames) as scenes:
            forwards = lane_in(m, used)
            m.setattr(trainer.protobank, "build_prototypes", collapsing)
            runs[used] = pretrain(scenes, cfg).metrics
        assert "skipping batch 1 of epoch 1: raw 3D prototype" in capsys.readouterr().err
        assert len(forwards) == (2 * cfg.epochs if used else 0)  # the skipped one too
    assert len(runs[True]) == 2 * cfg.epochs  # the header, and one step skipped
    assert runs[True] == runs[False]


def test_a_set_starts_another_lane_for_another_embed_dim(small_frames, monkeypatch):
    cfgs = [FROZEN, replace(FROZEN, embed_dim=12), FROZEN]
    runs = {}
    for used in (False, True):
        with monkeypatch.context() as m, SceneSet(small_frames) as scenes:
            forwards = lane_in(m, used)
            seen = pickled(m)
            runs[used] = []
            for cfg in cfgs:
                runs[used].append(pretrain(scenes, cfg).metrics)
                if used:  # each earlier lane is reaped once the next run steps
                    pid = forwards[-1][0]
                    assert all(not Path(f"/proc/{p}").exists() for p, _ in forwards if p != pid)
    assert runs[True] == runs[False]
    pids = list(dict.fromkeys(pid for pid, _ in forwards))
    assert len(pids) == 3 and {n for _, n in forwards} == {1}
    # each lane's start message carries its layout, of one lane job
    feat_dim = small_frames[0].pixel_features.shape[3]
    layouts = [message[1] for kind, message in seen if kind == "dump"]
    assert layouts == [(stack_shapes(feat_dim, cfg.embed_dim), 1) for cfg in cfgs]


def test_3d_lane_pickles_nothing_per_step(small_frames, monkeypatch):
    feat_dim = small_frames[0].pixel_features.shape[3]
    for cfg, jobs in ((FROZEN, 1), (CFG, 2)):  # batches of 3: one frame's trained sides
        seen = {}
        for epochs in (2, 4):
            with monkeypatch.context() as m, SceneSet(small_frames) as scenes:
                forwards = lane_in(m, True)
                seen[epochs] = pickled(m)
                pretrain(scenes, replace(cfg, epochs=epochs))
            assert len(forwards) == 2 * epochs
        # the ready report and the start message, however long the run
        for got in seen.values():
            assert [kind for kind, _ in got] == ["load", "dump"]
            frames, layout, _ = got[1][1]
            assert got[0][1] == "ready" and len(frames) == len(small_frames)
            assert layout == (stack_shapes(feat_dim, cfg.embed_dim), jobs)


def test_a_killed_3d_lane_fails_the_run_and_the_next_run_starts_another(
    small_frames, monkeypatch
):
    for cfg in (FROZEN, CFG):
        with monkeypatch.context() as m:
            _killed_lane_fails_the_run(small_frames, m, cfg)


def _killed_lane_fails_the_run(small_frames, monkeypatch, cfg):
    forwards = lane_in(monkeypatch, True)
    real_run_step = trainer.run_step
    killed = []

    def run_step_(model, batch, epoch, cfg, run):
        if not killed and len(forwards) == 3:
            killed.append(run.scenes._lane.proc)
            killed[0].kill()
        return real_run_step(model, batch, epoch, cfg, run)

    monkeypatch.setattr(trainer, "run_step", run_step_)
    with SceneSet(small_frames) as scenes:
        with pytest.raises(TrainingError, match="epoch 2, step 4: lane exited with code -9"):
            pretrain(scenes, cfg)
        (proc,) = killed
        assert reaped(proc) and scenes._lane is None
        again = pretrain(scenes, cfg)
        lane = scenes._lane.proc
        assert lane.pid != proc.pid and lane.poll() is None
    assert reaped(lane)
    with monkeypatch.context() as m, SceneSet(small_frames) as scenes:
        lane_in(m, False)
        assert again.metrics == pretrain(scenes, cfg).metrics


def test_an_exception_mid_step_closes_the_3d_lane(small_frames, monkeypatch):
    # the lane owes this step its rows when this thread's 3D forward raises
    real_forward = lane._Share.forward
    for cfg in (FROZEN, CFG):
        seen = []

        def forward_(self, jobs):
            jobs = list(jobs)
            if (1, 0) in [(side, k) for side, k, _ in jobs]:
                if len(seen) == 2:
                    raise KeyboardInterrupt
                seen.append(jobs)
            return real_forward(self, jobs)

        with monkeypatch.context() as m, SceneSet(small_frames) as scenes:
            forwards = lane_in(m, True)
            m.setattr(lane._Share, "forward", forward_)
            with pytest.raises(KeyboardInterrupt):
                pretrain(scenes, cfg)
            assert scenes._lane is None
        assert len(forwards) == 3 and not Path(f"/proc/{forwards[0][0]}").exists()


def test_a_dropped_set_stops_its_3d_lane(small_frames):
    scenes = SceneSet(small_frames)
    pretrain(scenes, FROZEN)
    proc = scenes._lane.proc
    del scenes
    assert reaped(proc) and proc.returncode == 0  # it exited at EOF on its input


def test_a_lane_that_cannot_start_leaves_this_thread_every_frame(
    small_frames, monkeypatch, capsys
):
    # a later run, of this layout or another, neither retries the lane nor warns again
    tried = []

    def popen(*args, **kwargs):
        tried.append(args)
        raise OSError("no interpreter")

    monkeypatch.setattr(subprocess, "Popen", popen)
    cfgs = [FROZEN, FROZEN, replace(FROZEN, embed_dim=12)]
    with SceneSet(small_frames) as scenes:
        got = [pretrain(scenes, cfg).metrics for cfg in cfgs]
        assert scenes._lane.proc is None and len(tried) == 1
    err = capsys.readouterr().err
    assert err.count("warning: the lane did not start (no interpreter)") == 1
    assert err.count("lane") == 1
    with monkeypatch.context() as m, SceneSet(small_frames) as scenes:
        lane_in(m, False)
        assert got == [pretrain(scenes, cfg).metrics for cfg in cfgs]


@pytest.mark.parametrize("missing", ["memfd_create", "eventfd"])
def test_a_lane_without_memfd_or_eventfd_leaves_this_thread_every_frame(
    small_frames, monkeypatch, capsys, missing
):
    monkeypatch.delattr(lane.os, missing)
    with SceneSet(small_frames) as scenes:
        got = [pretrain(scenes, FROZEN).metrics for _ in range(2)]
        assert scenes._lane.proc is None
    err = capsys.readouterr().err
    assert err.count("warning: the lane did not start (it needs os.memfd_create") == 1
    with monkeypatch.context() as m, SceneSet(small_frames) as scenes:
        lane_in(m, False)
        assert got[0] == got[1] == pretrain(scenes, FROZEN).metrics


def test_a_lane_that_exits_before_ready_leaves_this_thread_every_frame(
    small_frames, monkeypatch, capsys
):
    monkeypatch.setattr(lane, "_LANE_CODE", "import sys; sys.exit(3)")
    with SceneSet(small_frames) as scenes:
        got = pretrain(scenes, FROZEN)
        assert scenes._lane.proc is None
    err = capsys.readouterr().err
    assert err.count("warning: the lane did not start (it exited before it was ready)") == 1
    with monkeypatch.context() as m, SceneSet(small_frames) as scenes:
        lane_in(m, False)
        assert got.metrics == pretrain(scenes, FROZEN).metrics


@pytest.mark.parametrize("cfg", [CFG, FROZEN], ids=["trained", "frozen"])
def test_the_lane_serves_from_the_first_step(small_frames, monkeypatch, cfg):
    # the first step waits for the lane, so this thread never runs a slot
    # the lane takes, nor keeps a cache for one
    keys, runs = [], []
    real_forward, real_run_step = lane._Share.forward, trainer.run_step

    def forward_(self, jobs):
        jobs = list(jobs)
        keys.extend((side, k) for side, k, _ in jobs)
        return real_forward(self, jobs)

    def run_step_(model, batch, epoch, cfg, run):
        runs.append(run)
        return real_run_step(model, batch, epoch, cfg, run)

    monkeypatch.setattr(lane._Share, "forward", forward_)
    monkeypatch.setattr(trainer, "run_step", run_step_)
    with SceneSet(small_frames) as scenes:
        pretrain(scenes, cfg)
    b = cfg.scenes_per_batch
    sides = (1,) if cfg.freeze_2d else (0, 1)  # embed2d's and embed3d's
    here = sorted((side, k) for side in sides for k in range(b - b // 2))
    assert len(runs) == 2 * cfg.epochs
    assert sorted(set(keys)) == here
    assert sorted(runs[0].share.slots) == here


def test_a_lane_not_ready_in_time_leaves_this_thread_every_frame(
    small_frames, monkeypatch, capsys
):
    monkeypatch.setattr(lane, "_READY_WAIT_S", 0.005)
    started, real_popen = [], subprocess.Popen

    def popen(*args, **kwargs):
        started.append(real_popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", popen)
    before = open_fds()
    with SceneSet(small_frames) as scenes:
        got = [pretrain(scenes, cfg) for cfg in (FROZEN, CFG)]
        assert scenes._lane.proc is None
    assert open_fds() == before
    (proc,) = started
    assert reaped(proc) and proc.returncode == -9  # killed before its report
    err = capsys.readouterr().err
    assert err.count("warning: the lane did not start (it was not ready within 0.005 s)") == 1
    assert err.count("lane") == 1
    with monkeypatch.context() as m, SceneSet(small_frames) as scenes:
        lane_in(m, False)
        want = [pretrain(scenes, cfg) for cfg in (FROZEN, CFG)]
    for a, b in zip(got, want, strict=True):
        assert a.metrics == b.metrics
        assert a.model.params.tobytes() == b.model.params.tobytes()


def open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("case", ["served", "cannot-start", "exits-before-ready", "relaid"])
def test_a_3d_lane_leaves_no_file_descriptor_open(small_frames, monkeypatch, case):
    # the memfd and the doorbells exist before the lane is started
    if case == "cannot-start":
        def popen(*args, **kwargs):
            raise OSError("no interpreter")

        monkeypatch.setattr(subprocess, "Popen", popen)
    elif case == "exits-before-ready":
        monkeypatch.setattr(lane, "_LANE_CODE", "import sys; sys.exit(3)")
    forwards = lane_in(monkeypatch, True)
    before = open_fds()
    with SceneSet(small_frames) as scenes:
        pretrain(scenes, FROZEN)
        assert bool(forwards) == (case in ("served", "relaid"))
        if case == "relaid":  # another layout: the first lane is closed and reaped
            first = forwards[0][0]
            pretrain(scenes, replace(FROZEN, embed_dim=12))
            assert forwards[-1][0] != first and not Path(f"/proc/{first}").exists()
    assert open_fds() == before


def test_a_lane_interrupted_while_it_starts_leaves_no_trace(small_frames, monkeypatch, capfd):
    # Ctrl-C inside Popen, once the child runs: Popen closes its pipes and
    # raises, so the child's ready report meets a closed pipe
    started, real_popen = [], subprocess.Popen

    def popen(*args, **kwargs):
        started.append(real_popen(*args, **kwargs))
        started[0].stdin.close()
        started[0].stdout.close()
        raise KeyboardInterrupt

    monkeypatch.setattr(subprocess, "Popen", popen)
    before = open_fds()
    with SceneSet(small_frames) as scenes:
        with pytest.raises(KeyboardInterrupt):
            pretrain(scenes, FROZEN)
        assert scenes._lane is None
    assert open_fds() == before  # the memfd and the doorbells
    assert started[0].wait(timeout=60) == 0
    assert capfd.readouterr().err == ""  # the child writes to this stderr too


UNGUARDED = """
import sys
from scenecontrast import trainer
from scenecontrast.scenegen import SceneGeometry, SemanticOracleConfig, generate_scene

print("body", flush=True)
geom = SceneGeometry(num_points=64, height=8, width=8)
frames = [generate_scene(s, SemanticOracleConfig(), geom, scene_id=s) for s in range(2)]
scenes = trainer.SceneSet(frames)
cfg = trainer.TrainConfig(epochs=2, scenes_per_batch=2, embed_dim=4, freeze_2d=True)
trainer.pretrain(scenes, cfg)
assert scenes._lane.is_ready
"""


def test_an_unguarded_script_runs_its_body_once(tmp_path):
    # the lane does not re-run the caller's __main__, and the lane of a set
    # never closed stops quietly at the interpreter's exit
    script = tmp_path / "unguarded.py"
    script.write_text(UNGUARDED)
    src = str(Path(trainer.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-X", "dev", str(script)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "body\n" and proc.stderr == ""


def test_the_lane_imports_neither_numpy_ma_nor_numpy_random(small_frames, monkeypatch, capfd):
    # the lane's own command, which then prints its modules, once it has
    # served a run in each mode: it imports what it runs, embednet, and
    # neither the trainer nor the modules only the trainer calls
    monkeypatch.setattr(lane, "_LANE_CODE",
                        lane._LANE_CODE + "; print(*sys.modules, file=sys.stderr)")
    forwards = lane_in(monkeypatch, True)
    with SceneSet(small_frames) as scenes:
        for cfg in (CFG, FROZEN):
            pretrain(scenes, cfg)
    assert len(forwards) == 2 * (CFG.epochs + FROZEN.epochs)
    modules = set(capfd.readouterr().err.split())
    assert {"scenecontrast.lane", "scenecontrast.embednet"} <= modules
    unused = [f"scenecontrast.{name}" for name in
              ("trainer", "scenegen", "projection", "blending", "losses", "protobank")]
    assert modules.isdisjoint(unused + ["numpy.ma", "numpy.random", "subprocess"])


# ---------------------------------------------------------------------------
# stack buffers reused across steps


def test_each_slot_reuses_the_step_befores_buffers(small_set, monkeypatch):
    models, batches, calls = [], [], []
    real_init, real_run_step = trainer.init_model, trainer.run_step
    real_forward = embednet.forward

    def init_model_(*args, **kwargs):
        models.append(real_init(*args, **kwargs))
        return models[-1]

    def run_step_(model, batch, *rest):
        batches.append(batch)
        return real_run_step(model, batch, *rest)

    def forward_(stack, inputs, reuse=None, **kwargs):
        # each cache's arrays as the forward leaves them, before the next
        # reusing forward takes them
        taken = None if reuse is None else list(reuse.acts)
        out, cache = real_forward(stack, inputs, reuse=reuse, **kwargs)
        record = (cache, list(cache.acts), reuse, taken)
        calls.append((len(batches) - 1, stack, id(inputs), record))
        return out, cache

    monkeypatch.setattr(trainer, "init_model", init_model_)
    monkeypatch.setattr(trainer, "run_step", run_step_)
    monkeypatch.setattr(embednet, "forward", forward_)
    # the lane runs the last frame of each batch, from the first step
    pretrain(small_set, CFG)

    (model,) = models
    sides = {id(model.embed2d): "x2d", id(model.embed3d): "x3d"}
    by_slot = {}
    for k, stack, x, record in calls:
        if id(stack) in sides:
            side = sides[id(stack)]
            slot = [id(getattr(fd, side)) for fd in batches[k]].index(x)
            by_slot[k, side, slot] = record
    assert len(batches) == 6 and len(by_slot) == 6 * 2 * 2
    for k in range(1, len(batches)):
        for side in sides.values():
            for slot in range(2):
                before = by_slot[k - 1, side, slot][0]
                now, acts, reused, taken = by_slot[k, side, slot]
                # the hidden layers after the first; no stack output
                assert len(acts) == len(trainer.HIDDEN) - 1
                assert now.inputs is getattr(batches[k][slot], side)
                assert reused is before
                assert all(np.shares_memory(a, b) for a, b in zip(taken, acts, strict=True))
                # the old cache gave its arrays up
                assert before.acts == [] and before.grads is None


@pytest.mark.parametrize("cfg", [CFG, FROZEN], ids=["trained", "frozen"])
def test_buffer_reuse_does_not_change_outputs(small_set, tmp_path, monkeypatch, cfg):
    normal = pretrain(small_set, cfg, out_dir=tmp_path / "normal")
    dropped = []
    real_forward, real_backward = embednet.forward, embednet.backward

    # the oracle: every forward on fresh buffers, ignoring the slot's cache
    # and the lane's scratch, and every backward recomputing into a fresh
    # array and computing the input gradient too
    def forward_(stack, inputs, reuse=None, out=None, work=None):
        dropped.append(reuse is not None and out is not None and work is not None)
        return real_forward(stack, inputs)

    def backward_(stack, upstream, cache, work=None, input_grad=True):
        return real_backward(stack, upstream, cache)

    monkeypatch.setattr(embednet, "forward", forward_)
    monkeypatch.setattr(embednet, "backward", backward_)
    fresh = pretrain(small_set, cfg, out_dir=tmp_path / "fresh")
    assert any(dropped)
    assert fresh.metrics_path.read_bytes() == normal.metrics_path.read_bytes()
    assert fresh.checkpoint_path.read_bytes() == normal.checkpoint_path.read_bytes()


def test_prepare_frame_keeps_the_scene_arrays(small_set, prepared):
    for frame, fd in zip(small_set.frames, prepared):
        l, h, w, f0 = frame.pixel_features.shape
        assert fd.x2d.dtype == fd.x3d.dtype == np.float32
        assert fd.x2d.shape == (l * h * w, f0) and fd.x3d.shape == (frame.num_points, 4)
        assert np.shares_memory(fd.x2d, frame.pixel_features)
        assert np.shares_memory(fd.x3d, frame.points)


def test_prepare_frame_rows_are_read_only(small_set, prepared):
    # a forward cache keeps these rows until its backward
    for fd in prepared:
        for x in (fd.x2d, fd.x3d):
            with pytest.raises(ValueError, match="read-only"):
                x[0, 0] = x[0, 0]  # the same value, should the write go through
    assert small_set.frames[0].points.flags.writeable  # the frame's own array is not


def test_a_prepared_set_keeps_int32_members_and_no_rasters(small_set, small_frames, prepared):
    # only preparation reads the rasters: the set swaps its own record of
    # each frame for a copy without them, and the frames passed in keep theirs
    for frame, given, fd in zip(small_set.frames, small_frames, prepared):
        assert frame is not given and frame.scene_id == given.scene_id
        assert frame.semantic_raster is None and frame.superpixel_raster is None
        assert given.semantic_raster is not None and given.superpixel_raster is not None
        for name in ("points", "point_labels", "pixel_features", "cameras"):
            assert getattr(frame, name) is getattr(given, name)
        assert fd.regions2d.members.dtype == fd.regions3d.members.dtype == np.int32
    with pytest.raises(ContractViolationError, match="build the set from the frames as read"):
        build_associations(small_set.frames[0])


def test_run_state_buffers_add_up(small_set, prepared):
    # per slot this thread runs (the lane runs the last of 3) and stack the
    # outputs of the hidden layers after the first and the gradient vector,
    # the frame's own rows kept by reference; and one buffer sized to the
    # largest frame and the wider of the stack output and the first hidden
    # output
    feat_dim = small_set.frames[0].pixel_features.shape[3]
    model = init_model(feat_dim, CFG.embed_dim, CFG.seed)
    with trainer._Run.open(model, CFG, small_set) as run:
        for batch in (prepared[:3], prepared[3:]):
            trainer.run_step(model, batch, CFG.lam + 1, CFG, run)
    caches = run.share.slots
    assert sorted(caches) == [(side, k) for side in (0, 1) for k in range(2)]
    for (side, k), c in caches.items():
        assert c.inputs is getattr(prepared[3 + k], ("x2d", "x3d")[side])
    arrays = [a for c in caches.values() for a in [*c.acts, c.grads]] + [run.share.scratch]
    assert not any(
        np.may_share_memory(a, b) for i, a in enumerate(arrays) for b in arrays[:i]
    )
    rows2d, rows3d = len(prepared[0].x2d), len(prepared[0].x3d)
    first, *later = trainer.HIDDEN
    want = 8 * (
        2 * rows2d * sum(later)
        + 2 * rows3d * sum(later)
        + max(rows2d, rows3d) * max(CFG.embed_dim, first)
        + 2 * (model.embed2d.num_params + model.embed3d.num_params)
    )
    assert sum(a.nbytes for a in arrays) == want
    assert all(a.dtype == np.float64 for a in arrays)


def test_trained_step_allocates_no_activation_arrays(small_set, prepared):
    feat_dim = small_set.frames[0].pixel_features.shape[3]
    model = init_model(feat_dim, CFG.embed_dim, CFG.seed)
    one_frame = sum(
        a.nbytes for a in embednet.forward(model.embed2d, prepared[0].x2d)[1].acts
    )
    epoch = CFG.lam + 1  # gate open: prototypes and blending run too
    with trainer._Run.open(model, CFG, small_set) as run:
        trainer.run_step(model, prepared[:3], epoch, CFG, run)
        # numpy reports its buffers to tracemalloc
        tracemalloc.start()
        try:
            trainer.run_step(model, prepared[3:], epoch, CFG, run)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    # the step keeps 3 frames' 2D and 3D activations; what it still
    # allocates are masks, pooling and loss temporaries and the gradients
    assert peak < one_frame / 2, (peak, one_frame)


# ---------------------------------------------------------------------------
# BLAS thread cap


def test_blas_cap_does_not_change_outputs(small_set, tmp_path, monkeypatch, trained):
    monkeypatch.setattr(trainer, "blas_threads", lambda n: contextlib.nullcontext())
    res = pretrain(small_set, CFG, out_dir=tmp_path / "o")
    assert res.metrics_path.read_bytes() == trained.metrics_path.read_bytes()
    assert res.checkpoint_path.read_bytes() == trained.checkpoint_path.read_bytes()


def test_pretrain_caps_blas_threads_in_every_run(small_set, monkeypatch):
    # both modes have two lanes: this thread and the lane process
    found = blasthreads._openblas()
    if found is None:
        pytest.skip("numpy's OpenBLAS not found")
    get, set_ = found
    seen = []
    real_run_step = trainer.run_step

    def run_step_(*args):
        seen.append(get())
        return real_run_step(*args)

    monkeypatch.setattr(trainer, "run_step", run_step_)
    before = get()
    set_(2)
    try:
        pretrain(small_set, CFG)
        after_trained = get()
        pretrain(small_set, FROZEN)
        after_frozen = get()
    finally:
        set_(before)
    assert after_trained == after_frozen == 2
    assert seen == [1] * (6 + 2 * FROZEN.epochs)


def test_blas_cap_without_openblas_notes_once(monkeypatch, capsys):
    monkeypatch.setattr(blasthreads, "_SET", "no_such_symbol")
    blasthreads._openblas.cache_clear()
    ran = []
    try:
        for _ in range(2):
            with blasthreads.blas_threads(1):
                ran.append(True)
    finally:
        blasthreads._openblas.cache_clear()  # found again once _SET is back
    assert ran == [True, True]
    assert capsys.readouterr().err.count("BLAS threads are not capped") == 1


# ---------------------------------------------------------------------------
# non-finite training


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize(
    "lr,step,stage", [(1e200, 2, "loss"), (1.7e308, 1, "sgd update")]
)
def test_non_finite_training_names_step_and_stage(small_set, lr, step, stage):
    with pytest.raises(TrainingError, match=f"epoch 1, step {step}, stage '{stage}'"):
        pretrain(small_set, replace(CFG, lr=lr))


# ---------------------------------------------------------------------------
# the composed step, audited along directions


@pytest.mark.parametrize("gate_open", [True, False], ids=["gate-open", "gate-closed"])
@pytest.mark.parametrize("ema", [False, True], ids=["no-ema", "ema"])
@pytest.mark.parametrize("freeze", [False, True], ids=["trained", "frozen"])
@pytest.mark.parametrize("mode", ["mmpb", "raw3d"])
def test_step_gradient_matches_its_loss_along_directions(
    small_set, prepared, monkeypatch, mode, freeze, ema, gate_open
):
    # run.grads @ v against the central difference of the step's total loss
    # along v, for unit directions within each trained stack slice.  The
    # gradient stops at the prototypes by design, so the difference pins
    # them to the unperturbed step's and, with ema, starts from one bank.
    cfg = replace(CFG, proto_mode=mode, freeze_2d=freeze, ema=ema)
    epoch = cfg.lam + 1 if gate_open else cfg.lam
    model = init_model(small_set.frames[0].pixel_features.shape[3], cfg.embed_dim, cfg.seed)
    n2d = model.embed2d.num_params
    n3d = n2d + model.embed3d.num_params
    slices = [slice(n3d, None), slice(n2d, n3d)] + ([] if freeze else [slice(0, n2d)])
    real_build, pinned = trainer.protobank.build_prototypes, []
    h, rng = 1e-5, np.random.default_rng(0)
    with trainer._Run.open(model, cfg, small_set) as run:
        if ema:  # a bank from an earlier step for the fresh prototypes to join
            trainer.run_step(model, prepared[3:], cfg.lam + 1, cfg, run)
        bank = run.bank

        def build_(batch_bank):
            if not pinned:
                pinned.append(real_build(batch_bank))
            return pinned[0]

        monkeypatch.setattr(trainer.protobank, "build_prototypes", build_)

        def total(theta) -> float:
            np.copyto(model.params, theta)
            for stack in model.stacks():
                stack.bump()
            run.bank = bank
            return trainer.run_step(model, prepared[:3], epoch, cfg, run).total

        theta = model.params.copy()
        total(theta)
        analytic = run.grads.copy()
        assert bool(pinned) == gate_open
        for part in slices:
            for _ in range(2):
                v = np.zeros_like(theta)
                v[part] = rng.normal(size=len(v[part]))
                v /= np.linalg.norm(v)
                numeric = (total(theta + h * v) - total(theta - h * v)) / (2 * h)
                err = trainer._rel_err(np.array([analytic @ v]), np.array([numeric]))
                assert err < 1e-4, (part, analytic @ v, numeric)


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_detects_corruption(monkeypatch):
    real = trainer.losses.loss_sp
    calls = []

    def corrupted(bank, tau):
        res = real(bank, tau)
        if not calls:  # the analytic gradient of the first instance only
            res.grad_f3d[0, 0] += 1e-3
        calls.append(tau)
        return res

    monkeypatch.setattr(trainer.losses, "loss_sp", corrupted)
    rep = gradcheck(seed=0)
    assert len(calls) > 100
    by_name = {c.name: c for c in rep.components}
    assert not by_name["loss_sp"].passed
    assert by_name["embednet"].passed
    assert "loss_sp: " in rep.summary() and "FAIL" in rep.summary()
    assert not rep.all_passed


def test_rel_err_empty_is_vacuous():
    assert trainer._rel_err(np.zeros(0), np.zeros(0)) == 0.0


# ---------------------------------------------------------------------------
# ablation plumbing


def test_arm_configs():
    base = TrainConfig(epochs=7, lam=2)
    sp = arm_config(base, "sp")
    assert sp.lam == 7  # gate can never open
    assert arm_config(base, "sp+rawpro").proto_mode == "raw3d"
    assert arm_config(base, "sp+mmpb").proto_mode == "mmpb"
    with pytest.raises(ConfigurationError):
        arm_config(base, "vfm")
    assert ARMS == ("sp", "sp+rawpro", "sp+mmpb")


def test_ablation_csv_format():
    rows = [("sp", 0, 0.5), ("sp+mmpb", 0, 0.625)]
    text = ablation_csv(rows)
    assert text == "arm,seed,accuracy\nsp,0,0.5\nsp+mmpb,0,0.625\n"
