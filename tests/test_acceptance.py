"""Acceptance gate: the eight package-level criteria, one test each.

Each test finishes by printing a single ``criterion N ...: PASS`` line
(visible under ``pytest -s`` or when running this file directly with
``python3 tests/test_acceptance.py``).  Tolerances are pinned here and
nowhere looser.
"""

import time

import numpy as np
import pytest

import scenecontrast.losses as losses
import scenecontrast.protobank as protobank
from scenecontrast.embednet import EmbeddingBank
from scenecontrast.projection import build_associations
from scenecontrast.scenegen import (
    SceneGeometry,
    SemanticOracleConfig,
    generate_scene,
    read_scene,
    write_scene,
)
from scenecontrast.trainer import (
    TrainConfig,
    gradcheck,
    load_model,
    pretrain,
    run_ablation,
    save_model,
)

from fdutil import random_init_probe
from test_projection import assert_matches_oracle

SMALL_GEOM = SceneGeometry(num_points=384, height=32, width=32)
SMALL_CFG = SemanticOracleConfig(num_classes=6, objects_per_scene=5)

# ablation operating point: 16 noisy scenes, strong prototype term,
# gate open from the start, frozen 2D targets (see README)
ABLATION_GEOM = SceneGeometry(num_points=768, height=32, width=32)
ABLATION_SCENE_CFG = SemanticOracleConfig(
    num_classes=6, objects_per_scene=5, noise=0.25
)
ABLATION_SCENES = 16
ABLATION_TRAIN = TrainConfig(
    epochs=60,
    scenes_per_batch=4,
    embed_dim=32,
    lr=0.003,
    tau_pro=0.02,
    lam=2,
    freeze_2d=True,
    probe_fraction=0.01,
)
ABLATION_SEEDS = 10


def passline(n: int, text: str) -> None:
    print(f"criterion {n} ({text}): PASS", flush=True)


def test_criterion_1_gradient_exactness():
    t0 = time.time()
    report = gradcheck(seed=0)
    elapsed = time.time() - t0
    assert [c.name for c in report.components] == [
        "embednet",
        "blending",
        "loss_sp",
        "loss_pro",
    ]
    for comp in report.components:
        assert comp.instances >= 100, comp.name
        assert comp.max_rel_err < 1e-4, f"{comp.name}: {comp.max_rel_err:.3e}"
    assert elapsed < 60.0, f"gradcheck took {elapsed:.1f}s"
    passline(1, f"gradient exactness, {elapsed:.1f}s")


def test_criterion_2_closed_form_losses():
    d = 8
    # identical rows: every similarity equals every other, so each of the
    # Q rows contributes ln Q and the summed loss is Q ln Q
    q = 5
    u = np.zeros(d)
    u[0] = 1.0
    bank = EmbeddingBank(
        f2d=np.tile(u, (q, 1)),
        f3d=np.tile(u, (q, 1)),
        valid=np.ones(q, dtype=bool),
        signs=np.zeros(q, dtype=np.int64),
    )
    got = losses.loss_sp(bank, 0.07).value
    assert abs(got - q * np.log(q)) < 1e-9

    # uniform row-to-prototype similarity: the averaged loss is ln C
    c = 4
    protos = protobank.PrototypeBank(
        class_ids=np.arange(c, dtype=np.int64),
        p2d=np.zeros((c, d)),
        p3d=np.zeros((c, d)),
        counts=np.ones(c, dtype=np.int64),
        pmix=np.eye(c, d),
    )
    f3d = np.full((3, d), 0.0)
    f3d[:, :c] = 1.0 / np.sqrt(c)
    bank_pro = EmbeddingBank(
        f2d=f3d.copy(),
        f3d=f3d,
        valid=np.ones(3, dtype=bool),
        signs=np.array([0, 1, 2], dtype=np.int64),
    )
    got = losses.loss_pro(bank_pro, protos, 1.0).value
    assert abs(got - np.log(c)) < 1e-9

    # orthonormal positives: per row the positive similarity is 1 and all
    # q-1 negatives are 0, so the loss is q log(1 + (q-1) e^{-1/tau})
    tau = 0.5
    eye = np.eye(q, d)
    bank_orth = EmbeddingBank(
        f2d=eye.copy(),
        f3d=eye.copy(),
        valid=np.ones(q, dtype=bool),
        signs=np.zeros(q, dtype=np.int64),
    )
    got = losses.loss_sp(bank_orth, tau).value
    want = q * np.log(1.0 + (q - 1) * np.exp(-1.0 / tau))
    assert abs(got - want) < 1e-9
    passline(2, "closed-form loss oracles at 1e-9")


def _bank(rng, q, d, n_classes, all_valid=True):
    f2d = rng.normal(size=(q, d))
    f3d = rng.normal(size=(q, d))
    f2d /= np.linalg.norm(f2d, axis=1, keepdims=True)
    f3d /= np.linalg.norm(f3d, axis=1, keepdims=True)
    valid = np.ones(q, dtype=bool)
    if not all_valid:
        valid[0] = False
    signs = rng.integers(0, n_classes, size=q).astype(np.int64)
    return EmbeddingBank(f2d=f2d, f3d=f3d, valid=valid, signs=signs)


def test_criterion_3_prototype_brute_force():
    rng = np.random.default_rng(42)
    banks = [_bank(rng, q, 6, 4, all_valid=(i != 1)) for i, q in enumerate((5, 7, 4))]
    got = protobank.build_prototypes(banks)
    # scalar-loop group-by mean over all valid rows of all scenes
    sums2 = {}
    sums3 = {}
    counts = {}
    for b in banks:
        for i in range(len(b.signs)):
            if not b.valid[i]:
                continue
            cls = int(b.signs[i])
            if cls not in counts:
                sums2[cls] = np.zeros(6)
                sums3[cls] = np.zeros(6)
                counts[cls] = 0
            sums2[cls] = sums2[cls] + b.f2d[i]
            sums3[cls] = sums3[cls] + b.f3d[i]
            counts[cls] += 1
    assert got.class_ids.tolist() == sorted(counts)
    for j, cls in enumerate(got.class_ids):
        c = int(cls)
        assert np.abs(got.p2d[j] - sums2[c] / counts[c]).max() < 1e-12
        assert np.abs(got.p3d[j] - sums3[c] / counts[c]).max() < 1e-12
        assert got.counts[j] == counts[c]

    # two scenes sharing one class: both members land in one prototype
    u = np.zeros(6)
    u[0] = 1.0
    v = np.zeros(6)
    v[1] = 1.0
    one = EmbeddingBank(
        f2d=u[None], f3d=u[None], valid=np.ones(1, bool),
        signs=np.array([3], dtype=np.int64),
    )
    two = EmbeddingBank(
        f2d=v[None], f3d=v[None], valid=np.ones(1, bool),
        signs=np.array([3], dtype=np.int64),
    )
    merged = protobank.build_prototypes([one, two])
    assert merged.class_ids.tolist() == [3]
    assert merged.counts[0] == 2
    assert np.abs(merged.p3d[0] - (u + v) / 2).max() < 1e-12
    passline(3, "prototypes equal brute force at 1e-12, cross-scene counts")


def test_criterion_4_gate_schedule(tmp_path):
    frames = [
        generate_scene(40 + s, SMALL_CFG, SMALL_GEOM, scene_id=s) for s in range(6)
    ]
    cfg = TrainConfig(epochs=7, scenes_per_batch=3, embed_dim=16, lr=0.01, lam=5)
    res = pretrain(frames, cfg, out_dir=tmp_path)
    rows = [
        line.split(",") for line in res.metrics_path.read_text().splitlines()[1:]
    ]
    for row in rows:
        epoch, gate = int(row[1]), int(row[2])
        assert gate == (1 if epoch >= 6 else 0), row
    assert {int(r[1]) for r in rows} == set(range(1, 8))
    passline(4, "lam=5 gates epochs 1-5 closed, 6+ open")


@pytest.mark.slow
def test_criterion_5_determinism_at_desk_defaults(tmp_path):
    frames = [
        generate_scene(900 + s, SemanticOracleConfig(), SceneGeometry(), scene_id=s)
        for s in range(32)
    ]
    cfg = TrainConfig()  # 20 epochs, the desk-scale defaults
    t0 = time.time()
    first = pretrain(frames, cfg, out_dir=tmp_path / "run1")
    elapsed = time.time() - t0
    second = pretrain(frames, cfg, out_dir=tmp_path / "run2")
    m1 = (tmp_path / "run1" / "metrics.csv").read_bytes()
    m2 = (tmp_path / "run2" / "metrics.csv").read_bytes()
    c1 = (tmp_path / "run1" / "checkpoint.cscw").read_bytes()
    c2 = (tmp_path / "run2" / "checkpoint.cscw").read_bytes()
    assert m1 == m2
    assert c1 == c2
    assert first.metrics == second.metrics
    assert elapsed < 600.0, f"pretrain took {elapsed:.0f}s"
    passline(5, f"byte-identical desk-default runs, {elapsed:.0f}s each")


@pytest.mark.slow
def test_criterion_6_directional_ablation():
    frames = [
        generate_scene(500 + s, ABLATION_SCENE_CFG, ABLATION_GEOM, scene_id=s)
        for s in range(ABLATION_SCENES)
    ]
    seeds = list(range(ABLATION_SEEDS))
    acc = {arm: [] for arm in ("rand", "sp", "sp+rawpro", "sp+mmpb")}
    for seed in seeds:
        acc["rand"].append(
            random_init_probe(frames, ABLATION_TRAIN, seed).mean_accuracy
        )
    # the code `ablate` runs: per seed, the arms in ARMS order
    for arm, _, accuracy in run_ablation(frames, ABLATION_TRAIN, seeds):
        acc[arm].append(accuracy)

    def paired_margin(hi, lo):
        d = np.array(acc[hi]) - np.array(acc[lo])
        se = d.std(ddof=1) / np.sqrt(len(d))
        return d.mean(), se

    gain_mmpb, se_mmpb = paired_margin("sp+mmpb", "sp")
    gain_sp, se_sp = paired_margin("sp", "rand")
    means = {k: float(np.mean(v)) for k, v in acc.items()}
    detail = "  ".join(f"{k}={v:.4f}" for k, v in means.items())
    assert gain_mmpb > se_mmpb, (
        f"mmpb-sp margin {gain_mmpb:.4f} <= paired SE {se_mmpb:.4f} ({detail})"
    )
    assert gain_sp > se_sp, (
        f"sp-rand margin {gain_sp:.4f} <= paired SE {se_sp:.4f} ({detail})"
    )
    assert means["sp+mmpb"] >= means["sp+rawpro"], detail
    passline(
        6,
        f"ablation ordering over {ABLATION_SEEDS} paired seeds: {detail}; "
        f"mmpb-sp {gain_mmpb:.4f}>SE {se_mmpb:.4f}, "
        f"sp-rand {gain_sp:.4f}>SE {se_sp:.4f}",
    )


def test_criterion_7_association_oracle():
    for seed in range(5):
        frame = generate_scene(70 + seed, SMALL_CFG, SMALL_GEOM, scene_id=seed)
        assert_matches_oracle(frame, build_associations(frame))
    passline(7, "associations equal brute force on 5 seeded scenes")


def test_criterion_8_round_trip_io(tmp_path):
    frame = generate_scene(88, SMALL_CFG, SMALL_GEOM, scene_id=3)
    p1 = tmp_path / "a.cscs"
    p2 = tmp_path / "b.cscs"
    write_scene(frame, p1)
    write_scene(read_scene(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()

    frames = [
        generate_scene(40 + s, SMALL_CFG, SMALL_GEOM, scene_id=s) for s in range(4)
    ]
    cfg = TrainConfig(epochs=1, scenes_per_batch=2, embed_dim=12, lr=0.01)
    res = pretrain(frames, cfg, out_dir=tmp_path / "ck")
    feat_dim = frames[0].pixel_features.shape[3]
    back = load_model(res.checkpoint_path, feat_dim, cfg.embed_dim)
    again = tmp_path / "ck2.cscw"
    save_model(back, again)
    assert res.checkpoint_path.read_bytes() == again.read_bytes()
    passline(8, "scene and checkpoint files round-trip byte-identical")


if __name__ == "__main__":
    import sys
    import tempfile
    from pathlib import Path

    failures = 0
    for fn in (
        test_criterion_1_gradient_exactness,
        test_criterion_2_closed_form_losses,
        test_criterion_3_prototype_brute_force,
        test_criterion_4_gate_schedule,
        test_criterion_5_determinism_at_desk_defaults,
        test_criterion_6_directional_ablation,
        test_criterion_7_association_oracle,
        test_criterion_8_round_trip_io,
    ):
        kwargs = {}
        if "tmp_path" in fn.__code__.co_varnames[: fn.__code__.co_argcount]:
            kwargs["tmp_path"] = Path(tempfile.mkdtemp())
        try:
            fn(**kwargs)
        except AssertionError as err:
            failures += 1
            n = fn.__name__.split("_")[2]
            print(f"criterion {n}: FAIL {err}", flush=True)
    sys.exit(1 if failures else 0)
