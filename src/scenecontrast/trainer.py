"""Deterministic pre-training loop, linear probe, and gradient checker.

One step: embed all pixels and points of a multi-scene batch, pool per
region, compute the paired contrastive term over the whole batch (so
negatives cross frames), and, once the epoch gate opens, build cross-scene
prototypes, blend them, and add the prototype term.  Updates are plain SGD
with momentum under a per-epoch cosine learning-rate schedule.  With
``freeze_2d`` the 2D stack is a constant: each frame's pooled 2D rows are
computed once per run, and neither the 2D backward nor a 2D update is run.

Every parameter of a Model lives in one float64 buffer, ``Model.params``,
of which each layer's weight and bias are views.  A step adds each
stack's gradient vector into that stack's slice of one buffer of the
same layout, and SGD updates ``params`` with three in-place vector
operations; ``freeze_2d`` updates only the slice after embed2d, which
comes first.

When the 2D stack is trained, each frame's 2D side runs on one worker
thread beside the 3D side (see ``run_step``).  Each batch slot's forward
writes into the stack buffers its slot used the step before, so a step
allocates no stack-sized array after the first.  A non-finite loss or
parameter ends the run with TrainingError.  Everything is seeded
through named SeedSequence tuples and reductions run in fixed order (frame
index ascending) on the calling thread, so identical inputs give
bit-identical metrics and checkpoints.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import astuple, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import blending, embednet, losses, protobank
from .blending import BlendParams
from .embednet import DenseStack, EmbeddingBank
from .errors import (
    ConfigurationError,
    DegenerateBatchError,
    TrainingError,
)
from .losses import LossConfig, LossReport
from .projection import AssociationTable, build_associations
from .scenegen import SceneFrame

HIDDEN = [64, 64]  # hidden widths of both embedding stacks

# seed-sequence tags so the independent rng streams cannot collide
_TAG_MODEL = 1
_TAG_SHUFFLE = 2
_TAG_PROBE = 3


@dataclass
class TrainConfig:
    seed: int = 0
    epochs: int = 20
    scenes_per_batch: int = 4
    frames_per_scene: int = 1
    embed_dim: int = 32
    lr: float = 0.1
    momentum: float = 0.9
    tau_sp: float = 0.07
    tau_pro: float = 1.0
    lam: int = 5
    ema: bool = False
    ema_momentum: float = 0.9
    freeze_2d: bool = False
    proto_mode: str = "mmpb"  # "mmpb" blends; "raw3d" uses normalized P_3D
    probe_fraction: float = 0.01
    probe_epochs: int = 100

    def validate(self) -> None:
        for name in ("lr", "tau_sp", "tau_pro"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if self.lr < 0:
            # lr=0 is allowed: it freezes the dynamics, which has test value
            raise ConfigurationError("lr must be >= 0")
        if self.scenes_per_batch < 2:
            raise ConfigurationError(
                "scenes_per_batch must be >= 2 (prototypes are cross-scene)"
            )
        if self.frames_per_scene < 1:
            raise ConfigurationError("frames_per_scene must be >= 1")
        if self.embed_dim < 1:
            raise ConfigurationError("embed_dim must be >= 1")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigurationError("momentum must lie in [0,1)")
        if not (0.0 <= self.ema_momentum < 1.0):
            raise ConfigurationError("ema_momentum must lie in [0,1)")
        if self.proto_mode not in ("mmpb", "raw3d"):
            raise ConfigurationError(f"unknown proto_mode {self.proto_mode!r}")
        if not (0.0 < self.probe_fraction <= 1.0):
            raise ConfigurationError("probe_fraction must lie in (0,1]")
        if self.probe_epochs < 1:
            raise ConfigurationError("probe_epochs must be >= 1")
        self.loss_config().validate()

    def loss_config(self) -> LossConfig:
        return LossConfig(tau_sp=self.tau_sp, tau_pro=self.tau_pro, lam=self.lam)


_BOOL_STRINGS = {"true": True, "1": True, "false": False, "0": False}


def load_config(path) -> TrainConfig:
    """Flat key=value file; '#' starts a comment; unknown keys are errors."""
    cfg = TrainConfig()
    known = {f.name: f.type for f in fields(TrainConfig)}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected key=value, got {line!r}"
                )
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in known:
                raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
            set_config_value(cfg, key, value)
    cfg.validate()
    return cfg


def set_config_value(cfg: TrainConfig, key: str, value: str) -> None:
    current = getattr(cfg, key)
    try:
        if isinstance(current, bool):
            parsed = _BOOL_STRINGS[value.lower()]
        elif isinstance(current, int):
            parsed = int(value)
        elif isinstance(current, float):
            parsed = float(value)
        else:
            parsed = value
    except (KeyError, ValueError):
        raise ConfigurationError(f"cannot parse {key}={value!r}") from None
    setattr(cfg, key, parsed)


def _rng(*entropy: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


# ---------------------------------------------------------------------------
# model


@dataclass
class Model:
    """The five stacks, whose layers are views of the one ``params`` buffer.

    ``params`` is laid out by ``embednet.layer_views`` over ``stacks()``;
    building a Model moves the given stacks' layers into it.
    """

    embed2d: DenseStack  # F0 -> D
    embed3d: DenseStack  # 4  -> D
    blend: BlendParams
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.params = embednet.pack_params(self.stacks())

    def stacks(self) -> list[DenseStack]:
        # fixed checkpoint order
        return [
            self.embed2d,
            self.embed3d,
            self.blend.proj2d,
            self.blend.proj3d,
            self.blend.fuse,
        ]


def init_model(feat_dim: int, embed_dim: int, seed: int) -> Model:
    rng = _rng(seed, _TAG_MODEL)
    return Model(
        embed2d=embednet.init_stack([feat_dim] + HIDDEN + [embed_dim], rng),
        embed3d=embednet.init_stack([4] + HIDDEN + [embed_dim], rng),
        blend=blending.init_blend_params(embed_dim, rng),
    )


def save_model(model: Model, path) -> None:
    embednet.write_checkpoint(path, model.stacks())


def load_model(path, feat_dim: int, embed_dim: int) -> Model:
    model = init_model(feat_dim, embed_dim, seed=0)
    embednet.load_layers(model.stacks(), embednet.read_checkpoint(path))
    return model


# ---------------------------------------------------------------------------
# per-frame static data


@dataclass
class FrameData:
    frame: SceneFrame
    table: AssociationTable
    x2d: np.ndarray  # (L*H*W, F0)
    x3d: np.ndarray  # (K, 4)
    groups2d: list[np.ndarray]
    groups3d: list[np.ndarray]
    signs: np.ndarray


def prepare_frame(frame: SceneFrame) -> FrameData:
    table = build_associations(frame)
    l, h, w, f0 = frame.pixel_features.shape
    x2d = frame.pixel_features.reshape(l * h * w, f0).astype(np.float64)
    x3d = frame.points.astype(np.float64)
    groups2d = []
    groups3d = []
    signs = np.empty(table.Q, dtype=np.int64)
    for q, sp in enumerate(table.superpixels):
        groups2d.append(sp.pixel_indices + sp.camera * h * w)
        groups3d.append(sp.point_indices)
        signs[q] = sp.semantic_sign
    return FrameData(frame, table, x2d, x3d, groups2d, groups3d, signs)


def _group_scenes(frames: list[SceneFrame]) -> list[list[SceneFrame]]:
    by_id: dict[int, list[SceneFrame]] = {}
    for f in frames:
        by_id.setdefault(f.scene_id, []).append(f)
    return [by_id[sid] for sid in sorted(by_id)]


# ---------------------------------------------------------------------------
# one training step


@dataclass
class _StepResult:
    report: LossReport
    grads: np.ndarray  # over all of Model.params, in its layout


def _embed(
    stack: DenseStack,
    x: np.ndarray,
    groups: list[np.ndarray],
    slots: dict | None = None,
    key=None,
):
    """One side of one frame: (pooled rows, validity, caches for the backward).

    With ``slots``, the forward writes into the buffers of the cache kept
    under ``key`` (the one of the step before) and keeps its own there.
    """
    h, cache = embednet.forward(
        stack, x, reuse=None if slots is None else slots.get(key)
    )
    if slots is not None:
        slots[key] = cache
    rows, valid, pcache = embednet.pool_regions(h, groups)
    return rows, valid, (cache, pcache)


def _embed_backward(stack: DenseStack, upstream: np.ndarray, caches):
    """Parameter gradient vector of one side of one frame, given its rows' gradient.

    The stack's output is dead once pooled, so the pooled gradient is
    written over it.
    """
    cache, pcache = caches
    g = embednet.pool_backward(upstream, pcache, out=cache.acts[-1])
    return embednet.backward(stack, g, cache)[0]


def _run_beside(worker: ThreadPoolExecutor, tasks: list, own):
    """Run ``tasks`` on ``worker`` while this thread runs ``own()``.

    Once ``own()`` returns, the tasks the worker has not started are taken
    back one at a time from the tail and run here.  Returns ``own()``'s
    result and the tasks' results in task order.
    """
    futures = [worker.submit(task) for task in tasks]
    try:
        mine = own()
        results = [None] * len(tasks)
        n = len(tasks)
        # the worker runs tasks in order, so the unstarted ones are a tail
        while n and futures[n - 1].cancel():
            n -= 1
            results[n] = tasks[n]()
        results[:n] = [f.result() for f in futures[:n]]
        return mine, results
    finally:
        # after an error, leave no task running on this step's arrays; a
        # cancelled task counts as done only once the worker reaches it
        wait([f for f in futures if not f.cancel()])


def run_step(
    model: Model,
    batch: list[FrameData],
    epoch: int,
    cfg: TrainConfig,
    run_state: dict,
) -> _StepResult:
    """Forward, loss, and backward over one multi-frame batch.

    ``run_state`` is the dict ``pretrain`` keeps for one run: under
    "worker2d" the one-thread executor that, when the 2D stack is trained,
    runs each frame's 2D forward and backward beside the 3D side; under
    "slots" the forward cache of each trained stack and batch slot, whose
    buffers the next step's forward in that slot writes over; under "grads"
    the gradient buffer, zeroed and refilled by each step and returned in
    the result; the EMA prototype bank under "bank", which a skipped batch
    leaves as it was; with ``freeze_2d``,
    each frame's pooled 2D rows and validity under "rows2d", filled the
    first time the frame is in a batch (the 2D gradient then stays zero).
    Gradients are summed on the calling thread in batch order, so the
    result does not depend on which thread ran a frame.  Raises
    DegenerateBatchError when the batch has too few valid regions or a raw
    3D or blended prototype collapses to zero norm.
    """
    loss_cfg = cfg.loss_config()
    slots = run_state.setdefault("slots", {})

    def forward3d():
        return [
            _embed(model.embed3d, fd.x3d, fd.groups3d, slots, ("3d", k))
            for k, fd in enumerate(batch)
        ]

    if cfg.freeze_2d:
        frozen2d = run_state.setdefault("rows2d", {})
        for fd in batch:
            # keyed by identity: the run's FrameData outlive the run_state
            if id(fd) not in frozen2d:
                frozen2d[id(fd)] = _embed(model.embed2d, fd.x2d, fd.groups2d)[:2]
        side2d = [frozen2d[id(fd)] + (None,) for fd in batch]
        side3d = forward3d()
    else:
        worker = run_state["worker2d"]
        side3d, side2d = _run_beside(
            worker,
            [
                partial(_embed, model.embed2d, fd.x2d, fd.groups2d, slots, ("2d", k))
                for k, fd in enumerate(batch)
            ],
            forward3d,
        )
    frame_banks = [
        embednet.make_bank(rows2d, v2d, rows3d, v3d, fd.signs)
        for fd, (rows2d, v2d, _), (rows3d, v3d, _) in zip(batch, side2d, side3d)
    ]

    batch_bank = EmbeddingBank(
        f2d=np.concatenate([b.f2d for b in frame_banks]),
        f3d=np.concatenate([b.f3d for b in frame_banks]),
        valid=np.concatenate([b.valid for b in frame_banks]),
        signs=np.concatenate([b.signs for b in frame_banks]),
    )

    sp = losses.loss_sp(batch_bank, loss_cfg.tau_sp)

    pro = None
    bcache = None
    protos = None
    if losses.gate_open(epoch, loss_cfg):
        fresh = protobank.build_prototypes(frame_banks)
        if cfg.ema:
            prev = run_state.get("bank")
            protos = (
                fresh
                if prev is None
                else protobank.ema_update(prev, fresh, cfg.ema_momentum)
            )
        else:
            protos = fresh
        if cfg.proto_mode == "mmpb":
            bcache = blending.blend(protos, model.blend)
        else:
            norms = np.linalg.norm(protos.p3d, axis=1)
            if (norms < 1e-12).any():
                raise DegenerateBatchError("raw 3D prototype collapsed to zero")
            protos.pmix = protos.p3d / norms[:, None]
        pro = losses.loss_pro(batch_bank, protos, loss_cfg.tau_pro)
        if cfg.ema:
            run_state["bank"] = protos  # past every check that skips a batch

    tot = losses.total_loss(epoch, sp, pro, loss_cfg)

    if "grads" not in run_state:
        run_state["grads"] = np.empty_like(model.params)
    grads = run_state["grads"]
    grads.fill(0.0)
    # embed2d's slice, then embed3d's, then the blending stacks'
    n2d = model.embed2d.num_params
    n3d = n2d + model.embed3d.num_params
    ends = np.cumsum([len(fd.groups2d) for fd in batch])
    rows = [slice(end - len(fd.groups2d), end) for fd, end in zip(batch, ends)]

    def backward3d_and_blend():
        for r, (_, _, caches) in zip(rows, side3d):
            grads[n2d:n3d] += _embed_backward(model.embed3d, tot.grad_f3d[r], caches)
        if tot.grad_pmix is not None and cfg.proto_mode == "mmpb":
            assert bcache is not None
            grads[n3d:] += blending.blend_backward(tot.grad_pmix, bcache)

    if cfg.freeze_2d:
        backward3d_and_blend()
    else:
        _, grads2d = _run_beside(
            worker,
            [
                partial(_embed_backward, model.embed2d, tot.grad_f2d[r], caches)
                for r, (_, _, caches) in zip(rows, side2d)
            ],
            backward3d_and_blend,
        )
        for g in grads2d:
            grads[:n2d] += g

    return _StepResult(report=tot.report, grads=grads)


def cosine_lr(base_lr: float, epoch: int, epochs: int) -> float:
    """Per-epoch cosine annealing from base_lr (epoch 1) toward ~0."""
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * (epoch - 1) / epochs))


class _Sgd:
    """SGD with momentum, in place on the trained tail of ``Model.params``.

    embed2d's parameters come first, so ``freeze_2d`` trains the slice
    after them.
    """

    def __init__(self, model: Model, cfg: TrainConfig):
        self.start = model.embed2d.num_params if cfg.freeze_2d else 0
        self.params = model.params[self.start :]
        self.stacks = model.stacks()[1:] if cfg.freeze_2d else model.stacks()
        self.momentum = cfg.momentum
        self.vel = np.zeros_like(self.params)

    def step(self, grads: np.ndarray, lr: float) -> None:
        """Apply a step's gradient over all of ``Model.params``."""
        self.vel *= self.momentum
        self.vel += grads[self.start :]
        self.params -= lr * self.vel
        for stack in self.stacks:
            stack.bump()


def _check_finite(values, epoch: int, step: int, stage: str) -> None:
    """Raise TrainingError naming the step and stage if any value is not finite."""
    if not all(np.isfinite(v).all() for v in values):
        raise TrainingError(
            f"non-finite values at epoch {epoch}, step {step}, stage {stage!r}"
        )


@dataclass
class PretrainResult:
    model: Model
    metrics: list[str]  # CSV lines including header
    metrics_path: Path | None
    checkpoint_path: Path | None


def pretrain(
    frames: list[SceneFrame],
    cfg: TrainConfig,
    out_dir=None,
    prepared: list[FrameData] | None = None,
) -> PretrainResult:
    """Train on the given frames; optionally write checkpoint + metrics.

    ``prepared`` lets callers reuse association tables across runs (they
    depend only on the frames, not on the seed or the model).
    """
    cfg.validate()
    scenes = _group_scenes(frames)
    if len(scenes) < cfg.scenes_per_batch:
        raise ConfigurationError(
            f"need at least scenes_per_batch={cfg.scenes_per_batch} scenes, "
            f"have {len(scenes)}"
        )
    if prepared is None:
        prepared = [prepare_frame(f) for f in frames]
    # map scene groups onto prepared FrameData in the same order
    index = {id(f): fd for f, fd in zip(frames, prepared)}
    scene_data = [
        [index[id(f)] for f in group[: cfg.frames_per_scene]] for group in scenes
    ]

    feat_dim = frames[0].pixel_features.shape[3]
    model = init_model(feat_dim, cfg.embed_dim, cfg.seed)
    opt = _Sgd(model, cfg)
    metrics = [losses.CSV_HEADER]
    step = 0
    # the executor starts its thread on the first submit: none with freeze_2d
    with ThreadPoolExecutor(1, thread_name_prefix="embed2d") as worker:
        run_state: dict = {"worker2d": worker}
        for epoch in range(1, cfg.epochs + 1):
            lr = cosine_lr(cfg.lr, epoch, cfg.epochs)
            order = _rng(cfg.seed, _TAG_SHUFFLE, epoch).permutation(len(scene_data))
            n_batches = len(scene_data) // cfg.scenes_per_batch
            stepped = 0
            for b in range(n_batches):
                chosen = order[b * cfg.scenes_per_batch : (b + 1) * cfg.scenes_per_batch]
                batch = [fd for s in chosen for fd in scene_data[s]]
                try:
                    result = run_step(model, batch, epoch, cfg, run_state)
                except DegenerateBatchError as err:
                    print(
                        f"warning: skipping batch {b} of epoch {epoch}: {err}",
                        file=sys.stderr,
                    )
                    continue
                step += 1
                _check_finite(astuple(result.report), epoch, step, "loss")
                opt.step(result.grads, lr)
                _check_finite([opt.params], epoch, step, "sgd update")
                stepped += 1
                metrics.append(losses.csv_row(step, epoch, result.report))
            if n_batches > 0 and stepped == 0:
                raise TrainingError(f"every batch of epoch {epoch} was degenerate")

    metrics_path = None
    ckpt_path = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        metrics_path = out / "metrics.csv"
        metrics_path.write_text("\n".join(metrics) + "\n")
        ckpt_path = out / "checkpoint.cscw"
        save_model(model, ckpt_path)
    return PretrainResult(
        model=model,
        metrics=metrics,
        metrics_path=metrics_path,
        checkpoint_path=ckpt_path,
    )


# ---------------------------------------------------------------------------
# linear probe


@dataclass
class ProbeReport:
    mean_accuracy: float
    per_class: dict[int, float]
    n_train_labeled: int
    n_test: int

    def summary(self) -> str:
        lines = [f"mean_accuracy {self.mean_accuracy:.6f}"]
        for cls in sorted(self.per_class):
            lines.append(f"class {cls} accuracy {self.per_class[cls]:.6f}")
        lines.append(f"labeled {self.n_train_labeled} test_points {self.n_test}")
        return "\n".join(lines) + "\n"


def fit_linear_probe(
    z_train: np.ndarray,
    y_train: np.ndarray,
    z_test: np.ndarray,
    y_test: np.ndarray,
    num_classes: int,
    epochs: int = 100,
) -> ProbeReport:
    """Softmax regression on frozen features, full-batch GD from zero init.

    Features are standardized with training statistics; accuracy is the
    macro mean over the classes that appear in the test labels.
    """
    if len(z_train) == 0:
        raise ConfigurationError("empty probe training set")
    mu = z_train.mean(axis=0)
    sd = z_train.std(axis=0)
    sd = np.where(sd < 1e-8, 1.0, sd)
    zt = (z_train - mu) / sd
    zv = (z_test - mu) / sd
    n, d = zt.shape
    w = np.zeros((num_classes, d))
    b = np.zeros(num_classes)
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y_train] = 1.0
    lr = 0.5
    for _ in range(epochs):
        logits = zt @ w.T + b
        logits -= logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        p = e / e.sum(axis=1, keepdims=True)
        g = (p - onehot) / n
        w -= lr * (g.T @ zt)
        b -= lr * g.sum(axis=0)
    pred = np.argmax(zv @ w.T + b, axis=1)
    per_class: dict[int, float] = {}
    for cls in np.unique(y_test):
        mask = y_test == cls
        per_class[int(cls)] = float((pred[mask] == cls).mean())
    mean_acc = float(np.mean(list(per_class.values())))
    return ProbeReport(
        mean_accuracy=mean_acc,
        per_class=per_class,
        n_train_labeled=n,
        n_test=len(y_test),
    )


def probe_split(frames: list[SceneFrame]) -> tuple[list[SceneFrame], list[SceneFrame]]:
    """Hold out the last quarter of scenes (at least one) for evaluation."""
    scenes = _group_scenes(frames)
    if len(scenes) < 2:
        raise ConfigurationError("probing needs at least 2 scenes")
    n_test = max(1, len(scenes) // 4)
    train = [f for g in scenes[:-n_test] for f in g]
    test = [f for g in scenes[-n_test:] for f in g]
    return train, test


def linear_probe(model: Model, frames: list[SceneFrame], cfg: TrainConfig) -> ProbeReport:
    """Probe the frozen 3D embedding on a seeded label subset."""
    cfg.validate()
    train_frames, test_frames = probe_split(frames)

    def embed(fs: list[SceneFrame]) -> tuple[np.ndarray, np.ndarray]:
        zs, ys = [], []
        for f in fs:
            h, _ = embednet.forward(model.embed3d, f.points.astype(np.float64))
            zs.append(h)
            # stored per-point truth, not the (possibly noisy) rasters:
            # evaluation must not inherit pseudo-label errors
            ys.append(f.point_labels.astype(np.int64))
        return np.concatenate(zs), np.concatenate(ys)

    z_train, y_train = embed(train_frames)
    z_test, y_test = embed(test_frames)
    n = len(z_train)
    n_lab = int(round(cfg.probe_fraction * n))
    if n_lab == 0:
        raise ConfigurationError(
            f"label fraction {cfg.probe_fraction} selects no points from {n}"
        )
    rng = _rng(cfg.seed, _TAG_PROBE)
    chosen = rng.choice(n, size=min(n_lab, n), replace=False)
    num_classes = frames[0].num_classes
    return fit_linear_probe(
        z_train[chosen],
        y_train[chosen],
        z_test,
        y_test,
        num_classes,
        epochs=cfg.probe_epochs,
    )


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class ComponentCheck:
    name: str
    max_rel_err: float
    instances: int

    @property
    def passed(self) -> bool:
        return self.max_rel_err < 1e-4


@dataclass
class GradcheckReport:
    components: list[ComponentCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.components)

    def summary(self) -> str:
        lines = []
        for c in self.components:
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"{c.name}: max_rel_err={c.max_rel_err:.3e} "
                f"({c.instances} instances) {status}"
            )
        return "\n".join(lines) + "\n"


_FD_H = 1e-5


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    if analytic.size == 0:
        return 0.0
    return float(np.max(np.abs(analytic - numeric) / denom))


def _fd_over_vector(f, x: np.ndarray) -> np.ndarray:
    """Central differences of scalar f over every entry of x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + _FD_H
        hi = f()
        flat[i] = orig - _FD_H
        lo = f()
        flat[i] = orig
        gf[i] = (hi - lo) / (2.0 * _FD_H)
    return g


def _near_kink(cache: embednet.ForwardCache) -> bool:
    """True when a ReLU pre-activation lies within reach of the FD step.

    The pre-activations are recomputed from the inputs and weights: the
    cache keeps activations, and a ReLU output of 0 does not tell how far
    below the kink its input was.  The last layer has no ReLU.
    """
    below = cache.inputs
    for layer, act in zip(cache.stack.layers[:-1], cache.acts):
        z = below @ layer.weight.T + layer.bias
        if np.min(np.abs(z)) < 1e-4:
            return True
        below = act
    return False


# A gradcheck case draws one random instance from its rng and returns
# (objective, analytic gradient, arrays): the analytic gradient of the
# scalar objective() over the arrays, concatenated in order, which the
# audit perturbs in place.  None skips an instance that sits on a kink.


def _embednet_case(rng: np.random.Generator):
    """Stack forward -> pool -> weighted sum, over params and inputs."""
    depth = int(rng.integers(1, 4))
    widths = [int(rng.integers(3, 8)) for _ in range(depth + 1)]
    stack = embednet.init_stack(widths, rng)
    theta = embednet.pack_params([stack])
    n = int(rng.integers(2, 7))
    x = rng.normal(size=(n, widths[0]))
    n_groups = int(rng.integers(1, 4))
    groups = [
        np.flatnonzero(rng.integers(0, n_groups, size=n) == g)
        for g in range(n_groups)
    ]
    weights = rng.normal(size=(n_groups, widths[-1]))

    def objective() -> float:
        h, _ = embednet.forward(stack, x)
        rows, valid, _ = embednet.pool_regions(h, groups)
        return float(np.sum(weights * rows * valid[:, None]))

    h, fcache = embednet.forward(stack, x)
    rows, valid, pcache = embednet.pool_regions(h, groups)
    sizes = np.array([len(g) for g in groups])
    # a populated group with tiny or exactly-zero norm sits on the
    # validity discontinuity, where FD measures the jump, not the slope
    if _near_kink(fcache) or np.any((sizes > 0) & (pcache.norms < 1e-3)):
        return None
    gx_feat = embednet.pool_backward(weights * valid[:, None], pcache)
    grads, gx = embednet.backward(stack, gx_feat, fcache)
    return objective, np.concatenate([grads, gx.ravel()]), [theta, x]


def _blending_case(rng: np.random.Generator):
    c = int(rng.integers(2, 6))
    d = int(rng.integers(3, 7))
    bank = protobank.PrototypeBank(
        class_ids=np.arange(c, dtype=np.int64),
        p2d=rng.normal(size=(c, d)),
        p3d=rng.normal(size=(c, d)),
        counts=np.ones(c, dtype=np.int64),
    )
    params = blending.init_blend_params(d, rng)
    theta = embednet.pack_params(params.stacks())
    weights = rng.normal(size=(c, d))

    def objective() -> float:
        blending.blend(bank, params)
        return float(np.sum(weights * bank.pmix))

    cache = blending.blend(bank, params)
    if np.any(cache.norms < 1e-3):
        return None
    return objective, blending.blend_backward(weights, cache), [theta]


def _random_bank(rng: np.random.Generator, q: int, d: int, n_classes: int) -> EmbeddingBank:
    f2d = rng.normal(size=(q, d))
    f3d = rng.normal(size=(q, d))
    f2d /= np.linalg.norm(f2d, axis=1, keepdims=True)
    f3d /= np.linalg.norm(f3d, axis=1, keepdims=True)
    valid = np.ones(q, dtype=bool)
    if q > 3:
        valid[int(rng.integers(0, q))] = False
    signs = rng.integers(0, n_classes, size=q).astype(np.int64)
    return EmbeddingBank(f2d=f2d, f3d=f3d, valid=valid, signs=signs)


def _loss_sp_case(rng: np.random.Generator):
    q = int(rng.integers(4, 9))
    d = int(rng.integers(3, 7))
    bank = _random_bank(rng, q, d, n_classes=4)
    tau = float(rng.uniform(0.05, 1.0))
    res = losses.loss_sp(bank, tau)
    return (
        lambda: losses.loss_sp(bank, tau).value,
        np.concatenate([res.grad_f3d.ravel(), res.grad_f2d.ravel()]),
        [bank.f3d, bank.f2d],
    )


def _loss_pro_case(rng: np.random.Generator):
    q = int(rng.integers(3, 8))
    d = int(rng.integers(3, 7))
    n_classes = int(rng.integers(2, 5))
    bank = _random_bank(rng, q, d, n_classes)
    pmix = rng.normal(size=(n_classes, d))
    pmix /= np.linalg.norm(pmix, axis=1, keepdims=True)
    protos = protobank.PrototypeBank(
        class_ids=np.arange(n_classes, dtype=np.int64),
        p2d=np.zeros((n_classes, d)),
        p3d=np.zeros((n_classes, d)),
        counts=np.ones(n_classes, dtype=np.int64),
        pmix=pmix,
    )
    tau = float(rng.uniform(0.5, 2.0))
    res = losses.loss_pro(bank, protos, tau)
    return (
        lambda: losses.loss_pro(bank, protos, tau).value,
        np.concatenate([res.grad_f3d.ravel(), res.grad_pmix.ravel()]),
        [bank.f3d, pmix],
    )


_CASES = (
    ("embednet", _embednet_case),
    ("blending", _blending_case),
    ("loss_sp", _loss_sp_case),
    ("loss_pro", _loss_pro_case),
)


def gradcheck(seed: int = 0) -> GradcheckReport:
    """Finite-difference audit of every analytic gradient in the package.

    Each component checks 100 random instances drawn from its own stream.
    """
    out = []
    for tag, (name, case) in enumerate(_CASES):
        rng = _rng(seed, 1000 + tag)
        worst = 0.0
        done = 0
        while done < 100:
            drawn = case(rng)
            if drawn is None:
                continue
            objective, analytic, arrays = drawn
            numeric = [_fd_over_vector(objective, a).ravel() for a in arrays]
            worst = max(worst, _rel_err(analytic, np.concatenate(numeric)))
            done += 1
        out.append(ComponentCheck(name=name, max_rel_err=worst, instances=100))
    return GradcheckReport(components=out)


# ---------------------------------------------------------------------------
# ablation


ARMS = ("sp", "sp+rawpro", "sp+mmpb")


def arm_config(base: TrainConfig, arm: str) -> TrainConfig:
    """Translate an ablation arm name into a TrainConfig."""
    if arm == "sp":
        # the gate condition epoch > lam can never fire
        return replace(base, lam=base.epochs)
    if arm == "sp+rawpro":
        return replace(base, proto_mode="raw3d")
    if arm == "sp+mmpb":
        return replace(base, proto_mode="mmpb")
    raise ConfigurationError(f"unknown arm {arm!r}")


def random_init_probe(
    frames: list[SceneFrame], cfg: TrainConfig, seed: int
) -> ProbeReport:
    """Probe an untrained model; the floor the trained arms must beat."""
    feat_dim = frames[0].pixel_features.shape[3]
    model = init_model(feat_dim, cfg.embed_dim, seed)
    return linear_probe(model, frames, replace(cfg, seed=seed))


def run_ablation(
    frames: list[SceneFrame],
    base_cfg: TrainConfig,
    seeds: list[int],
    prepared: list[FrameData] | None = None,
) -> list[tuple[str, int, float]]:
    """Train all three arms per seed; rows of (arm, seed, probe accuracy)."""
    if prepared is None:
        prepared = [prepare_frame(f) for f in frames]
    rows = []
    for seed in seeds:
        for arm in ARMS:
            cfg = replace(arm_config(base_cfg, arm), seed=seed)
            result = pretrain(frames, cfg, out_dir=None, prepared=prepared)
            acc = linear_probe(result.model, frames, cfg).mean_accuracy
            rows.append((arm, seed, acc))
    return rows


def ablation_csv(rows: list[tuple[str, int, float]]) -> str:
    lines = ["arm,seed,accuracy"]
    for arm, seed, acc in rows:
        lines.append(f"{arm},{seed},{repr(acc)}")
    return "\n".join(lines) + "\n"
