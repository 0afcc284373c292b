"""Deterministic pre-training loop, linear probe, and gradient checker.

One step: embed all pixels and points of a multi-scene batch, pool per
region, and join every frame's rows, frame by frame, into one embedding
bank.  Over that bank it computes the paired contrastive term (so
negatives cross frames), and, once the epoch gate opens, builds
cross-scene prototypes, blends them, and adds the prototype term; each
frame's gradient is then one slice of the bank's.  Updates are plain SGD
with momentum under a per-epoch cosine learning-rate schedule.  With
``freeze_2d`` the 2D stack is a constant: each frame's pooled 2D rows are
computed once per run, and neither the 2D backward nor a 2D update is run.

Every parameter of a Model lives in one float64 buffer, ``Model.params``,
of which each layer's weight and bias are views.  A step adds each
stack's gradient vector into that stack's slice of one buffer of the
same layout, and SGD updates all of ``params`` with three in-place
vector operations; under ``freeze_2d`` embed2d's slice of the gradient
stays zero, so SGD leaves its parameters as they are.

Everything a run carries from step to step is one ``_Run``: the
buffers that spare a step from allocating any stack-sized array, the EMA
bank, the gradient and the SGD velocity.  Each step's frames are split
over two lanes: the calling thread, and the scene set's child process
(see ``lane``).  A non-finite loss or parameter ends the run with
TrainingError.  All seeds are named SeedSequence tuples and reductions
run in fixed order (frame index ascending) on the calling thread, so
identical inputs give bit-identical metrics and checkpoints, whichever
lane ran a frame.
"""

from __future__ import annotations

import sys
import weakref
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import blending, embednet, lane, losses, protobank
from .blasthreads import blas_threads
from .blending import BlendParams
from .bounds import Bound, check
from .embednet import DenseStack, EmbeddingBank, Regions
from .errors import (
    ConfigurationError,
    DegenerateBatchError,
    ShapeError,
    TrainingError,
)
from .losses import LossReport
from .projection import build_associations
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
    embed_dim: int = 32
    lr: float = 0.1
    momentum: float = 0.9
    tau_sp: float = 0.07
    tau_pro: float = 1.0
    lam: int = 5  # the prototype term is active strictly after this epoch
    ema: bool = False
    ema_momentum: float = 0.9
    freeze_2d: bool = False
    proto_mode: str = "mmpb"  # "mmpb" blends; "raw3d" uses normalized P_3D
    probe_fraction: float = 0.01
    probe_epochs: int = 100

    def validate(self) -> None:
        _check_fields(vars(self))


TRAIN_BOUNDS = {
    "seed": Bound(int, 0),
    "epochs": Bound(int, 1, 10**5, source="desk budget: 8 steps of 70 ms an epoch"),
    "scenes_per_batch": Bound(int, 2),  # prototypes are cross-scene
    "embed_dim": Bound(int, 1, 1024, source="desk budget: 34 MB of blending weights"),
    "lr": Bound(float, 0.0),  # 0 freezes the dynamics, which has test value
    "momentum": Bound(float, 0.0, 1.0, "[)", "at 1 the SGD velocity never decays"),
    "tau_sp": losses.TEMPERATURE,
    "tau_pro": losses.TEMPERATURE,
    "lam": Bound(int, 0),
    "ema_momentum": protobank.EMA_MOMENTUM,
    "probe_fraction": Bound(float, 0.0, 1.0, "(]", "a share of the training points"),
    "probe_epochs": Bound(int, 1, 10**5, source="desk budget: 0.4 ms an epoch"),
}


def _check_fields(values: dict) -> None:
    """TRAIN_BOUNDS' rows and proto_mode's choices, for the fields in ``values``."""
    check(TRAIN_BOUNDS, values)
    if "proto_mode" in values and values["proto_mode"] not in ("mmpb", "raw3d"):
        raise ConfigurationError(f"unknown proto_mode {values['proto_mode']!r}")


_BOOL_STRINGS = {"true": True, "1": True, "false": False, "0": False}


def load_config(path) -> TrainConfig:
    """Flat key=value UTF-8 file; '#' starts a comment.  An error names the line."""
    cfg = TrainConfig()
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()  # at "\n", "\r\n" and "\r", as text mode splits
    for lineno, raw in enumerate(lines, start=1):
        try:
            key, eq, value = raw.decode("utf-8").split("#", 1)[0].partition("=")
            if eq:
                set_config_value(cfg, key.strip(), value.strip())
            elif key.strip():
                raise ConfigurationError(f"expected key=value, got {key.strip()!r}")
        except UnicodeDecodeError:
            raise ConfigurationError(f"{path}:{lineno}: not UTF-8 text") from None
        except ConfigurationError as err:
            raise ConfigurationError(f"{path}:{lineno}: {err}") from None
    return cfg


def set_config_value(cfg: TrainConfig, key: str, value: str) -> None:
    """Set one field from its text, rejecting an unknown key or a bad value."""
    if key not in {f.name for f in fields(cfg)}:
        raise ConfigurationError(f"unknown key {key!r}")
    current = getattr(cfg, key)
    try:
        if isinstance(current, bool):
            parsed = _BOOL_STRINGS[value.lower()]
        elif isinstance(current, (int, float)):
            parsed = type(current)(value)
        else:
            parsed = value
    except (KeyError, ValueError):
        raise ConfigurationError(f"cannot parse {key}={value!r}") from None
    _check_fields({key: parsed})
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
    layers = embednet.read_checkpoint(path)
    # embed2d's first weight is (hidden, feat_dim), its last (embed_dim, hidden)
    if len(layers) > len(HIDDEN):
        for name, got, want in (
            ("pixel feature width", layers[0][0].shape[1], feat_dim),
            ("embed_dim", layers[len(HIDDEN)][0].shape[0], embed_dim),
        ):
            if got != want:
                raise ConfigurationError(
                    f"{path}: checkpoint {name} is {got}, not {want}"
                )
    model = init_model(feat_dim, embed_dim, seed=0)
    try:
        embednet.load_layers(model.stacks(), layers)
    except ConfigurationError as err:
        raise ConfigurationError(f"{path}: {err}") from err
    return model


# ---------------------------------------------------------------------------
# per-frame static data


@dataclass
class FrameData:
    x2d: np.ndarray  # (L*H*W, F0) float32, a read-only view of the frame's pixel features
    x3d: np.ndarray  # (K, 4) float32, a read-only view of the frame's points
    regions2d: Regions  # each region's rows of x2d
    regions3d: Regions  # each region's rows of x3d
    signs: np.ndarray


def prepare_frame(frame: SceneFrame) -> FrameData:
    sps = build_associations(frame).superpixels
    l, h, w, f0 = frame.pixel_features.shape
    # read-only, since a forward cache keeps these rows until its backward
    x2d = frame.pixel_features.reshape(l * h * w, f0)
    x3d = frame.points.view()
    x2d.flags.writeable = x3d.flags.writeable = False
    regions2d = Regions([sp.pixel_indices for sp in sps], len(x2d))
    regions3d = Regions([sp.point_indices for sp in sps], len(x3d))
    signs = np.array([sp.semantic_sign for sp in sps], dtype=np.int64)
    return FrameData(x2d, x3d, regions2d, regions3d, signs)


class SceneSet:
    """The frames of a run or a probe, one per scene, in scene-id order.

    Building one checks the frames once: they must agree on the class
    vocabulary and the 2D input width, and no scene id may repeat.  An
    error names the frame by ``names`` (one per frame, in the order given).
    ``prepared`` holds each frame's ``FrameData``, made on first use and
    then shared by every run over the set.  Only preparation reads a
    frame's rasters, so as it prepares each frame the set swaps its own
    record of that frame for a copy without them (the frames passed in
    are not changed); the probe reads only points and labels.

    The first step over the set starts its lane (``lane._Lane``) and waits
    for it to report ready, so the lane serves from that step on; later
    runs with its layout (stack shapes and job count) share it, so runs over
    one set take turns, and a run with another layout gets a new lane.
    ``close`` stops it, as leaving a ``with`` block over the set does, and
    so does dropping the set or the interpreter's exit.
    """

    _lane: lane._Lane | None = None

    def __init__(self, frames: list[SceneFrame], names=None):
        names = names or [f"frame {i}" for i in range(len(frames))]
        for name, frame in zip(names[1:], frames[1:]):
            for field, got, want in (
                ("num_classes", frame.num_classes, frames[0].num_classes),
                ("pixel feature width", frame.pixel_features.shape[3],
                 frames[0].pixel_features.shape[3]),
            ):
                if got != want:
                    raise ConfigurationError(
                        f"{name}: {field} is {got}, but {want} in {names[0]}"
                    )
        first: dict[int, int] = {}
        for i, frame in enumerate(frames):
            j = first.setdefault(frame.scene_id, i)
            if j != i:
                raise ConfigurationError(
                    f"{names[i]}: scene_id {frame.scene_id} is already used by {names[j]}"
                )
        self.frames = sorted(frames, key=lambda f: f.scene_id)

    def __len__(self) -> int:
        return len(self.frames)

    @cached_property
    def prepared(self) -> list[FrameData]:
        out = []
        # frame by frame, so each frame's freed rasters make room for the next
        for i, frame in enumerate(self.frames):
            out.append(prepare_frame(frame))
            self.frames[i] = replace(frame, semantic_raster=None, superpixel_raster=None)
        return out

    def lane(self, layout) -> lane._Lane | None:
        """The set's lane under ``layout`` (``lane._Lane``'s), or None if it did
        not start, which is not retried; the first call, and one with another
        layout than the ready lane's, start it and wait for its ready report."""
        if self._lane is not None and self._lane.is_ready and self._lane.layout != layout:
            self.close()
        if self._lane is None:
            self._lane = lane._Lane(self.prepared, layout)
            self._stop_lane = weakref.finalize(self, self._lane.close)
        return self._lane if self._lane.is_ready else None

    def close(self) -> None:
        """Stop the set's lane and reap it; a later run starts another."""
        if self._lane is not None:
            self._stop_lane()
            self._lane = None

    def __enter__(self) -> SceneSet:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# one training step


class _Run:
    """What one ``pretrain`` run carries from step to step; see ``open``.

    ``share`` is the calling process's ``lane._Share`` of each step, with
    the model's embed2d and embed3d and a scratch buffer sized by
    ``lane._extent``, as the lane's is; it keeps the forward caches of the
    slots this process runs, which are all of them only if the lane did
    not start.  ``rows2d`` holds, under ``freeze_2d``, each frame's 2D
    rows and validity, pooled the first time a step meets the frame.
    ``bank`` is the EMA prototype bank, which a skipped batch leaves as it
    was; ``grads`` the last step's gradient over ``Model.params`` (zero on
    embed2d under ``freeze_2d``); ``vel`` the SGD velocity of ``params``;
    ``shapes`` embed2d's and embed3d's layer shapes, for the lane's layout.
    """

    def __init__(self, model: Model, cfg: TrainConfig, scenes: SceneSet):
        self.scenes = scenes
        stacks = model.stacks()[:2]
        self.shapes = [[layer.weight.shape for layer in stack.layers] for stack in stacks]
        self.share = lane._Share(stacks, lane._extent(scenes.prepared, self.shapes)[0])
        self.trained = (1,) if cfg.freeze_2d else (0, 1)  # the sides a step trains
        self.rows2d: dict = {}
        self.bank: protobank.PrototypeBank | None = None
        self.params = model.params
        self.grads = np.empty_like(self.params)
        self.stacks = model.stacks()
        self.momentum = cfg.momentum
        self.vel = np.zeros_like(self.params)

    @classmethod
    @contextmanager
    def open(cls, model: Model, cfg: TrainConfig, scenes: SceneSet):
        """The run over ``scenes``, under a cap of one BLAS thread per
        process until it is closed."""
        with blas_threads(1):
            yield cls(model, cfg, scenes)

    def sgd(self, lr: float) -> None:
        """SGD with momentum: apply ``grads`` in place to ``params``."""
        self.vel *= self.momentum
        self.vel += self.grads
        self.params -= lr * self.vel
        for stack in self.stacks:
            stack.bump()


def run_step(model: Model, batch: list[FrameData], epoch: int, cfg: TrainConfig,
             run: _Run) -> LossReport:
    """Forward, loss, and backward over one multi-frame batch.

    The scene set's lane, which the set's first step starts and waits
    for, runs the trained sides of the last ⌊B/2⌋ frames, both or, under
    ``freeze_2d``, the 3D side alone, and this process runs the other
    trained sides, both through the same ``lane._Share`` methods (this
    process's is ``run.share``); a lane that did not start leaves this
    process every frame.  Under ``freeze_2d`` every frame's 2D rows are
    those pooled once per run.  The frames' pooled rows make one
    ``EmbeddingBank``, which both losses and the prototypes read.  The
    gradient is left in ``run.grads``: this process's vectors are added
    into their stacks' slices first and the lane's after, so within a
    stack in slot order, and the bytes do not depend on which process ran
    a frame.  The prototype gate is decided here, once: the prototype term
    is computed only while open.  Raises DegenerateBatchError, once the
    lane has answered, when the batch has too few valid regions or a raw
    3D or blended prototype collapses to zero norm, and
    ``lane._LaneFailed`` when the lane fails.  Any exception that ends a
    step while the lane owes it answers closes the lane, whose part of
    the step is lost.
    """
    # the (side, slot) pairs the lane runs
    jobs = [(side, k) for side in run.trained
            for k in range(len(batch) - len(batch) // 2, len(batch))]
    child = run.scenes.lane((run.shapes, len(jobs)))
    try:
        return _step(model, batch, epoch, cfg, run, child, jobs if child else [])
    except BaseException:
        if child is not None and child.held:
            run.scenes.close()
        raise


def _step(model, batch, epoch, cfg, run, child: lane._Lane | None, jobs) -> LossReport:
    """``run_step``'s work, with the set's lane (``child``) running ``jobs``, or none."""
    # embed2d's slice of the parameters, then embed3d's, then the blending stacks'
    n2d = model.embed2d.num_params
    n3d = n2d + model.embed3d.num_params
    if jobs:
        child.forward(model.params[:n3d], [(side, k, batch[k]) for side, k in jobs])
    # this process's jobs: the trained (side, slot) pairs the lane does not
    # run, in slot order within each side, as the lane's are
    mine = [(side, k) for side in run.trained for k in range(len(batch)) if (side, k) not in jobs]
    inputs = [((fd.x2d, fd.regions2d), (fd.x3d, fd.regions3d)) for fd in batch]
    sides = dict(zip(mine, run.share.forward((side, k, inputs[k][side]) for side, k in mine)))
    if cfg.freeze_2d:
        for k, fd in enumerate(batch):
            # keyed by identity: a SceneSet's FrameData outlive the run
            if id(fd) not in run.rows2d:
                run.rows2d[id(fd)] = run.share.pool(0, *inputs[k][0])[:2]
            sides[0, k] = run.rows2d[id(fd)]
    if jobs:
        sides.update(zip(jobs, child.rows()))
    # one bank over the batch's regions: frame by frame, region index ascending
    rows2d, valid2d = zip(*(sides[0, k] for k in range(len(batch))))
    rows3d, valid3d = zip(*(sides[1, k] for k in range(len(batch))))
    batch_bank = embednet.make_bank(
        np.concatenate(rows2d),
        np.concatenate(valid2d),
        np.concatenate(rows3d),
        np.concatenate(valid3d),
        np.concatenate([fd.signs for fd in batch]),
    )

    sp = losses.loss_sp(batch_bank, cfg.tau_sp)

    pro = bcache = None
    if losses.gate_open(epoch, cfg.lam):
        protos = protobank.build_prototypes(batch_bank)
        if run.bank is not None:  # only kept with ema
            protos = protobank.ema_update(run.bank, protos, cfg.ema_momentum)
        if cfg.proto_mode == "mmpb":
            bcache = blending.blend(protos, model.blend)
            pmix = bcache.pmix
        else:
            norms = np.linalg.norm(protos.p3d, axis=1)
            if (norms < 1e-12).any():
                raise DegenerateBatchError("raw 3D prototype collapsed to zero")
            pmix = protos.p3d / norms[:, None]
        pro = losses.loss_pro(batch_bank, protos.class_ids, pmix, cfg.tau_pro)
        if cfg.ema:
            run.bank = protos  # past every check that skips a batch

    grad_f3d = sp.grad_f3d if pro is None else sp.grad_f3d + pro.grad_f3d
    upstream = (sp.grad_f2d, grad_f3d)
    ends = np.cumsum([len(fd.signs) for fd in batch])
    rows = [slice(end - len(fd.signs), end) for fd, end in zip(batch, ends)]
    if jobs:
        child.backward([upstream[side][rows[k]] for side, k in jobs])
    grads = run.grads
    grads.fill(0.0)
    dests = [grads[:n2d], grads[n2d:n3d]]
    here = run.share.backward([upstream[side][rows[k]] for side, k in mine])
    for (side, _), g in zip(mine, here):
        dests[side] += g
    if bcache is not None:  # the gate is open and prototypes are blended
        grads[n3d:] += blending.blend_backward(pro.grad_pmix, bcache)
    if jobs:
        for (side, _), g in zip(jobs, child.grads()):
            dests[side] += g
    return losses.total_loss(sp, pro)


def cosine_lr(base_lr: float, epoch: int, epochs: int) -> float:
    """Per-epoch cosine annealing from base_lr (epoch 1) toward ~0."""
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * (epoch - 1) / epochs))


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


def pretrain(scenes: SceneSet, cfg: TrainConfig, out_dir=None) -> PretrainResult:
    """Train on the set's frames, shuffled from scene-id order; optionally
    write checkpoint + metrics.  A set no run has used yet is prepared
    after the output directory is made and before any step.
    """
    cfg.validate()
    if len(scenes) < cfg.scenes_per_batch:
        raise ConfigurationError(
            f"need at least scenes_per_batch={cfg.scenes_per_batch} scenes, "
            f"have {len(scenes)}"
        )
    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)  # fails here, before any step
    scene_data = scenes.prepared

    model = init_model(scenes.frames[0].pixel_features.shape[3], cfg.embed_dim, cfg.seed)
    metrics = [losses.CSV_HEADER]
    step = 0
    with _Run.open(model, cfg, scenes) as run:
        for epoch in range(1, cfg.epochs + 1):
            lr = cosine_lr(cfg.lr, epoch, cfg.epochs)
            order = _rng(cfg.seed, _TAG_SHUFFLE, epoch).permutation(len(scene_data))
            n_batches = len(scene_data) // cfg.scenes_per_batch
            stepped = 0
            for b in range(n_batches):
                chosen = order[b * cfg.scenes_per_batch : (b + 1) * cfg.scenes_per_batch]
                batch = [scene_data[s] for s in chosen]
                try:
                    report = run_step(model, batch, epoch, cfg, run)
                except DegenerateBatchError as err:
                    print(
                        f"warning: skipping batch {b} of epoch {epoch}: {err}",
                        file=sys.stderr,
                    )
                    continue
                except lane._LaneFailed as err:
                    raise TrainingError(f"epoch {epoch}, step {step + 1}: {err}") from None
                step += 1
                _check_finite(report.values(), epoch, step, "loss")
                run.sgd(lr)
                _check_finite([run.params], epoch, step, "sgd update")
                stepped += 1
                metrics.append(losses.csv_row(step, epoch, report))
            if stepped == 0:
                raise TrainingError(f"every batch of epoch {epoch} was degenerate")

    metrics_path = None
    ckpt_path = None
    if out is not None:
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
    iou: dict[int, float]
    miou: float

    def summary(self) -> str:
        lines = [f"mean_accuracy {self.mean_accuracy:.6f}"]
        for cls in sorted(self.per_class):
            lines.append(f"class {cls} accuracy {self.per_class[cls]:.6f}")
        lines.append(f"labeled {self.n_train_labeled} test_points {self.n_test}")
        return "\n".join(lines) + "\n"


# the most bytes a probe fit may hold: a label sizes the classifier, so one
# high label would otherwise size the fit's (labelled rows x classes) arrays
PROBE_FIT_BYTES = 128 << 20
# the bytes of one chunk of test rows' class scores
_SCORE_BYTES = 4 << 20


def fit_linear_probe(
    z_train: np.ndarray,
    y_train: np.ndarray,
    z_test: Iterable[np.ndarray],
    y_test: np.ndarray,
    epochs: int,
) -> ProbeReport:
    """Softmax regression on frozen features, full-batch GD from zero init.

    ``z_test`` is the test embeddings as row blocks in ``y_test`` order (a
    caller with one array passes ``[z]``); each block is classified on its
    own, in chunks of rows whose class scores take ``_SCORE_BYTES`` at
    most, so no array spans the test set.  The classifier has one class per
    label up to the largest label present in either set; a fit that would
    need more than ``PROBE_FIT_BYTES`` raises ConfigurationError before it
    allocates.  Features are standardized with training statistics.
    Accuracy (recall) and IoU are reported per class that appears in the
    test labels, each with its macro mean over those classes.
    """
    if len(z_train) == 0:
        raise ConfigurationError("empty probe training set")
    if len(y_test) == 0:
        raise ConfigurationError("empty probe test set")
    num_classes = int(max(y_train.max(), y_test.max())) + 1
    n, d = z_train.shape
    # softmax_xent holds the logits, their shift, exp and softmax; the
    # weights, their gradient and its step are classes x d each
    need = 8 * num_classes * (4 * n + 3 * d)
    if need > PROBE_FIT_BYTES:
        raise ConfigurationError(
            f"probe label {num_classes - 1} makes a {num_classes}-class classifier "
            f"whose fit over {n} labelled rows needs {need} bytes, "
            f"more than its budget of {PROBE_FIT_BYTES}"
        )
    mu = z_train.mean(axis=0)
    sd = z_train.std(axis=0)
    sd = np.where(sd < 1e-8, 1.0, sd)
    zt = (z_train - mu) / sd
    w = np.zeros((num_classes, d))
    b = np.zeros(num_classes)
    lr = 0.5
    for _ in range(epochs):
        _, g = losses.softmax_xent(zt @ w.T + b, y_train)
        g /= n
        w -= lr * (g.T @ zt)
        b -= lr * g.sum(axis=0)
    # per class: test rows, rows predicted, rows both, counted block by block
    truth = np.zeros(num_classes, dtype=np.int64)
    predicted = np.zeros(num_classes, dtype=np.int64)
    hits = np.zeros(num_classes, dtype=np.int64)
    chunk = max(1, _SCORE_BYTES // (8 * num_classes))
    start = 0
    for z in z_test:
        if start + len(z) > len(y_test):
            raise ShapeError(f"test blocks have more rows than {len(y_test)} labels")
        y = y_test[start : start + len(z)]
        start += len(z)
        pred = np.empty(len(z), np.intp)
        for i in range(0, len(z), chunk):
            pred[i : i + chunk] = np.argmax((z[i : i + chunk] - mu) / sd @ w.T + b, axis=1)
        truth += np.bincount(y, minlength=num_classes)
        predicted += np.bincount(pred, minlength=num_classes)
        hits += np.bincount(y[pred == y], minlength=num_classes)
    if start != len(y_test):
        raise ShapeError(f"test blocks have {start} rows for {len(y_test)} labels")
    union = truth + predicted - hits
    present = np.flatnonzero(truth)
    per_class = {int(c): float(hits[c] / truth[c]) for c in present}
    iou = {int(c): float(hits[c] / union[c]) for c in present}
    return ProbeReport(
        mean_accuracy=float(np.mean(list(per_class.values()))),
        per_class=per_class,
        n_train_labeled=n,
        n_test=len(y_test),
        iou=iou,
        miou=float(np.mean(list(iou.values()))),
    )


def probe_split(scenes: SceneSet) -> tuple[list[SceneFrame], list[SceneFrame]]:
    """Hold out the highest-id quarter of scenes (at least one) for evaluation."""
    if len(scenes) < 2:
        raise ConfigurationError("probing needs at least 2 scenes")
    n_test = max(1, len(scenes) // 4)
    return scenes.frames[:-n_test], scenes.frames[-n_test:]


def linear_probe(model: Model, scenes: SceneSet, cfg: TrainConfig) -> ProbeReport:
    """Probe the frozen 3D embedding on a seeded label subset.

    Only the labelled training rows are gathered and embedded, since a
    stack maps each row on its own, and the test frames are embedded and
    classified one at a time.  Labels are the stored per-point truth, not
    the (possibly noisy) rasters: evaluation must not inherit pseudo-label
    errors.
    """
    cfg.validate()
    train_frames, test_frames = probe_split(scenes)
    n = sum(len(f.points) for f in train_frames)
    n_lab = int(round(cfg.probe_fraction * n))
    if n_lab == 0:
        raise ConfigurationError(
            f"label fraction {cfg.probe_fraction} selects no points from {n}"
        )
    rng = _rng(cfg.seed, _TAG_PROBE)
    chosen = rng.choice(n, size=n_lab, replace=False)
    x_train = np.concatenate([f.points for f in train_frames])[chosen]
    y_train = np.concatenate([f.point_labels for f in train_frames])[chosen]
    y_train = y_train.astype(np.int64)
    z_train, _ = embednet.forward(model.embed3d, x_train)
    return fit_linear_probe(
        z_train,
        y_train,
        (embednet.forward(model.embed3d, f.points)[0] for f in test_frames),
        np.concatenate([f.point_labels for f in test_frames]).astype(np.int64),
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

    The pre-activations are recomputed from the cached inputs and the
    weights: a ReLU output of 0 does not tell how far below the kink its
    input was.  The last layer has no ReLU.
    """
    below = cache.inputs
    for layer in cache.stack.layers[:-1]:
        z = below @ layer.weight.T + layer.bias
        if np.min(np.abs(z)) < 1e-4:
            return True
        below = np.maximum(z, 0.0)
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
    labels = rng.integers(0, n_groups, size=n)  # one group per row
    regions = Regions([np.flatnonzero(labels == g) for g in range(n_groups)], n)
    weights = rng.normal(size=(n_groups, widths[-1]))

    def objective() -> float:
        h, _ = embednet.forward(stack, x)
        rows, valid, _ = embednet.pool_regions(h, regions)
        return float(np.sum(weights * rows * valid[:, None]))

    h, fcache = embednet.forward(stack, x)
    rows, valid, pcache = embednet.pool_regions(h, regions)
    sizes = np.diff(regions.offsets)
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
        return float(np.sum(weights * blending.blend(bank, params).pmix))

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
    class_ids = np.arange(n_classes, dtype=np.int64)
    tau = float(rng.uniform(0.5, 2.0))
    res = losses.loss_pro(bank, class_ids, pmix, tau)
    return (
        lambda: losses.loss_pro(bank, class_ids, pmix, tau).value,
        np.concatenate([res.grad_f3d.ravel(), res.grad_pmix.ravel()]),
        [bank.f3d, pmix],
    )


_CASES = (
    ("embednet", _embednet_case),
    ("blending", _blending_case),
    ("loss_sp", _loss_sp_case),
    ("loss_pro", _loss_pro_case),
)


def gradcheck(seed: int) -> GradcheckReport:
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


def run_ablation(
    scenes: SceneSet, base_cfg: TrainConfig, seeds: range | list[int], arms=ARMS
) -> list[tuple[str, int, float]]:
    """Train the arms per seed; rows of (arm, seed, probe accuracy).

    Seed-major, arms in the given order.  Each (arm, seed) job is one
    ``pretrain`` and one ``linear_probe`` at ``arm_config(base_cfg, arm)``
    with that seed, so a row does not depend on which other jobs ran; the
    jobs share the set's one preparation.
    """
    rows = []
    for seed in seeds:
        for arm in arms:
            cfg = replace(arm_config(base_cfg, arm), seed=seed)
            result = pretrain(scenes, cfg)
            acc = linear_probe(result.model, scenes, cfg).mean_accuracy
            rows.append((arm, seed, acc))
    return rows


def ablation_csv(rows: list[tuple[str, int, float]]) -> str:
    lines = ["arm,seed,accuracy"]
    for arm, seed, acc in rows:
        lines.append(f"{arm},{seed},{repr(acc)}")
    return "\n".join(lines) + "\n"
