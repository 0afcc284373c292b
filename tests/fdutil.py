"""Test-local finite-difference harness and reference oracles.

The finite differences are deliberately independent of the package's own
gradient checker so the two can disagree: tests perturb arrays with this
code and compare against the package's analytic gradients.  The pinhole,
region-labelling and point-label oracles stand in for scalar code the
package does not carry, ``scene_bytes`` for a frame equality,
``full_embed_probe`` for the probe that embeds only its labelled rows, and
``random_init_probe`` for the untrained-model floor of the ablation.
``reference_hit``, ``reference_raster_scene`` and ``reference_segment``
are the per-primitive ray caster and the always-splitting segmenter that
the package's per-camera passes replaced; scenes must keep their bytes.
``loop_prototypes`` and ``loop_ema`` are the per-region and per-class
loops that the package's array group-bys replaced, and
``loop_pool_regions`` and ``loop_pool_backward`` the pooling loops over
lists of groups that its flat regions replaced; they must agree bit for
bit, and ``region_groups`` lists a ``Regions``' groups.  ``join_banks`` makes the one bank that a step hands to
``build_prototypes`` out of several.  ``stored_forward`` and
``stored_backward`` are the stack passes that keep every hidden output
and always compute the input gradient, which the package's recomputing
passes must match bit for bit.  ``separate_loss_sp``,
``separate_loss_pro`` and ``onehot_linear_probe`` each run their own row
softmax (``row_softmax``), as the package did before its one softmax
cross-entropy; they must agree bit for bit.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from scenecontrast import trainer
from scenecontrast.embednet import EmbeddingBank, ForwardCache, forward, layer_views
from scenecontrast.errors import ContractViolationError, ShapeError
from scenecontrast.losses import ProResult, SpResult
from scenecontrast.projection import _groups, _majority_sign, project_points
from scenecontrast.protobank import PrototypeBank
from scenecontrast.scenegen import (
    UNASSIGNED,
    connected_regions,
    split_region,
    write_scene,
)

H = 1e-5


def central_diff(f, x: np.ndarray, h: float = H) -> np.ndarray:
    """Central differences of scalar f() over every entry of x, in place."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f()
        flat[i] = orig - h
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
    return float(np.max(np.abs(a - n) / denom))


def stack_params(stack) -> np.ndarray:
    """Every weight and bias of a DenseStack as one vector, layer by layer."""
    return np.concatenate(
        [np.concatenate([l.weight.ravel(), l.bias]) for l in stack.layers]
    )


def set_stack_params(stack, flat: np.ndarray) -> None:
    """Write a ``stack_params`` vector into the stack's arrays; bumps its version."""
    (pairs,) = layer_views([stack], flat)
    for l, (w, b) in zip(stack.layers, pairs):
        l.weight[...] = w
        l.bias[...] = b
    stack.bump()


def pinhole_reference(point, cam):
    """Hand pinhole evaluation: rotate, translate, divide, round half-even.

    Written from the geometry, not by calling the package.
    """
    m = np.asarray(cam.world_to_cam, dtype=np.float64)
    x, y, z = (float(v) for v in point[:3])
    xc = m[0, 0] * x + m[0, 1] * y + m[0, 2] * z + m[0, 3]
    yc = m[1, 0] * x + m[1, 1] * y + m[1, 2] * z + m[1, 3]
    zc = m[2, 0] * x + m[2, 1] * y + m[2, 2] * z + m[2, 3]
    if zc <= 0:
        return None
    row = float(np.rint(cam.fy * yc / zc + cam.cy))
    col = float(np.rint(cam.fx * xc / zc + cam.cx))
    if not (0 <= row < cam.height and 0 <= col < cam.width):
        return None
    return int(row), int(col)


def reference_regions(values: np.ndarray, mask: np.ndarray) -> list[np.ndarray]:
    """Pixel-by-pixel BFS labelling: the contract of ``connected_regions``.

    4-connected components of equal ``values`` inside ``mask``, as int64
    flat-index arrays sorted ascending, ordered by their smallest pixel.
    """
    h, w = values.shape
    seen = np.zeros((h, w), dtype=bool)
    out: list[np.ndarray] = []
    for start in range(h * w):
        r0, c0 = divmod(start, w)
        if seen[r0, c0] or not mask[r0, c0]:
            continue
        val = values[r0, c0]
        stack = [(r0, c0)]
        seen[r0, c0] = True
        members = []
        while stack:
            r, c = stack.pop()
            members.append(r * w + c)
            for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if 0 <= rr < h and 0 <= cc < w and not seen[rr, cc]:
                    if mask[rr, cc] and values[rr, cc] == val:
                        seen[rr, cc] = True
                        stack.append((rr, cc))
        out.append(np.array(sorted(members), dtype=np.int64))
    return out


def reference_hit(prim, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """``_Primitive.hit`` over (N,3) directions, reciprocals taken per call."""
    if prim.kind == "sphere":
        oc = origin - prim.center
        b = dirs @ oc
        c = oc @ oc - prim.half[0] ** 2
        disc = b * b - c
        root = np.sqrt(np.maximum(disc, 0.0))
        t0 = -b - root
        t1 = -b + root
        t = np.where(t0 > 1e-9, t0, t1)
        return np.where((disc > 0) & (t > 1e-9), t, np.inf)
    lo = prim.center - prim.half
    hi = prim.center + prim.half
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        t_lo = (lo - origin) * inv
        t_hi = (hi - origin) * inv
    near = np.nanmax(np.minimum(t_lo, t_hi), axis=-1)
    far = np.nanmin(np.maximum(t_lo, t_hi), axis=-1)
    t = np.where(near > 1e-9, near, far)
    return np.where((far >= near) & (t > 1e-9), t, np.inf)


def reference_raster_scene(eye: np.ndarray, dirs: np.ndarray, prims):
    """``_raster_scene`` through a (P+1) x H*W distance table and its argmin."""
    flat = dirs.reshape(-1, 3)
    n = flat.shape[0]
    t_all = np.full((len(prims) + 1, n), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        tg = -eye[2] / flat[:, 2]
    t_all[0] = np.where((flat[:, 2] < 0) & (tg > 1e-9), tg, np.inf)
    for j, prim in enumerate(prims):
        t_all[j + 1] = reference_hit(prim, eye, flat)
    winner = np.argmin(t_all, axis=0)
    t_best = t_all[winner, np.arange(n)]
    hit = np.isfinite(t_best)
    class_of = np.array([0] + [p.class_id for p in prims], dtype=np.uint16)
    sem = np.where(hit, class_of[winner], 0).astype(np.uint16)
    shape = dirs.shape[:2]
    return sem.reshape(shape), t_best.reshape(shape), hit.reshape(shape)


def reference_segment(sem: np.ndarray, hit: np.ndarray, factor: int) -> np.ndarray:
    """``_segment`` that splits every region, even into one chunk."""
    h, w = sem.shape
    spix = np.full(h * w, UNASSIGNED, dtype=np.uint32)
    next_id = 0
    for region in connected_regions(sem, hit):
        for chunk in split_region(region, factor, w):
            spix[chunk] = next_id
            next_id += 1
    return spix.reshape(h, w)


def recover_point_labels(frame) -> np.ndarray:
    """Class label per point, read from the lowest-index covering camera.

    Exact whenever the oracle noise is zero (the generator guarantees every
    stored point lands on own-class pixels in all covering views).
    """
    labels = np.full(frame.num_points, -1, dtype=np.int64)
    world = frame.points[:, :3].astype(np.float64)
    for cam_idx, cam in enumerate(frame.cameras):
        row, col, ok = project_points(world, cam)
        assigned = frame.superpixel_raster[cam_idx][row, col] != UNASSIGNED
        fresh = (labels < 0) & ok & assigned
        labels[fresh] = frame.semantic_raster[cam_idx][row, col][fresh]
    assert (labels >= 0).all(), f"{int((labels < 0).sum())} points seen by no camera"
    return labels


def per_camera_associations(frame):
    """``prepare_frame``'s regions, as lists of groups, and signs, camera by camera.

    Global ids are computed once for the point claim and once per camera
    for the pixels, which are grouped by local id and shifted by
    camera * H * W into the frame's rasters.
    """
    k = frame.num_points
    l = frame.num_cameras
    world = frame.points[:, :3].astype(np.float64)

    rows = np.empty((l, k), dtype=np.int64)
    cols = np.empty((l, k), dtype=np.int64)
    ok = np.empty((l, k), dtype=bool)
    for c, cam in enumerate(frame.cameras):
        rows[c], cols[c], ok[c] = project_points(world, cam)

    q_cam = []
    for c in range(l):
        spix = frame.superpixel_raster[c]
        assigned = spix[spix != UNASSIGNED]
        q_cam.append(int(assigned.max()) + 1 if assigned.size else 0)
    offsets = np.concatenate([[0], np.cumsum(q_cam)]).astype(np.int64)

    any_ok = ok.any(axis=0)
    first = np.argmax(ok, axis=0)
    claimed_q = np.full(k, -1, dtype=np.int64)
    idx = np.flatnonzero(any_ok)
    cam_of = first[idx]
    spix_flat = frame.superpixel_raster.reshape(l, -1)
    flat_pix = rows[cam_of, idx] * frame.cameras[0].width + cols[cam_of, idx]
    local = spix_flat[cam_of, flat_pix]
    landed = local != UNASSIGNED
    claimed_q[idx[landed]] = offsets[cam_of[landed]] + local[landed].astype(np.int64)

    got = np.flatnonzero(claimed_q >= 0)
    members = _groups(claimed_q[got], got, int(offsets[-1]))

    groups2d, groups3d, signs = [], [], []
    for c in range(l):
        spix = spix_flat[c]
        sem = frame.semantic_raster[c].reshape(-1)
        flat_idx = np.flatnonzero(spix != UNASSIGNED)
        pixels = _groups(spix[flat_idx], flat_idx, q_cam[c])
        for pix, points in zip(pixels, members[offsets[c] : offsets[c + 1]]):
            groups2d.append(pix + c * spix.size)
            groups3d.append(points)
            signs.append(_majority_sign(sem[pix]) if pix.size else 0)
    return groups2d, groups3d, np.array(signs, dtype=np.int64)


def region_groups(regions) -> list[np.ndarray]:
    """Each group's members, in group order, as views of ``regions.members``."""
    bounds = regions.offsets.tolist()
    return [regions.members[start:end] for start, end in zip(bounds[:-1], bounds[1:])]


def loop_pool_regions(features: np.ndarray, groups: list[np.ndarray]):
    """``pool_regions`` over a list of groups, each range-checked on every
    call, as it was before regions were laid out flat; (rows, valid,
    means, norms)."""
    feats = np.asarray(features, dtype=np.float64)
    n, d = feats.shape
    means = np.zeros((len(groups), d))
    valid = np.zeros(len(groups), dtype=bool)
    for i, idx in enumerate(groups):
        if len(idx) == 0:
            continue
        if idx.min() < 0 or idx.max() >= n:
            raise ShapeError(f"group {i} indexes outside [0,{n})")
        means[i] = np.add.reduce(feats[idx], axis=0) / len(idx)
        valid[i] = True
    norms = np.linalg.norm(means, axis=1)
    valid &= ~(norms < 1e-12)
    safe = np.where(valid, norms, 1.0)
    rows = np.where(valid[:, None], means / safe[:, None], 0.0)
    return rows, valid, means, norms


def loop_pool_backward(upstream, groups, means, norms, valid, num_rows: int) -> np.ndarray:
    """``pool_backward`` over a list of groups, as it was before regions
    were laid out flat."""
    out = np.zeros((num_rows, means.shape[1]))
    for i, idx in enumerate(groups):
        if not valid[i]:
            continue
        u = means[i] / norms[i]
        gi = upstream[i]
        g_mean = (gi - np.dot(gi, u) * u) / norms[i]
        out[idx] += g_mean / len(idx)
    return out


def scene_bytes(frame) -> bytes:
    """The frame's ``.cscs`` encoding, which holds every field of the frame."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "frame.cscs"
        write_scene(frame, path)
        return path.read_bytes()


def full_embed_probe(model, scenes, cfg):
    """``linear_probe`` as it was first written: embed every point, then draw.

    Every training point of the SceneSet is embedded, frame by frame, and
    the labelled rows are picked from the result with the probe's own
    seeded draw.
    """
    train_frames, test_frames = trainer.probe_split(scenes)

    def embed(fs):
        zs, ys = [], []
        for f in fs:
            h, _ = forward(model.embed3d, f.points.astype(np.float64))
            zs.append(h)
            ys.append(f.point_labels.astype(np.int64))
        return np.concatenate(zs), np.concatenate(ys)

    z_train, y_train = embed(train_frames)
    z_test, y_test = embed(test_frames)
    n = len(z_train)
    rng = trainer._rng(cfg.seed, trainer._TAG_PROBE)
    chosen = rng.choice(n, size=min(int(round(cfg.probe_fraction * n)), n), replace=False)
    return trainer.fit_linear_probe(
        z_train[chosen], y_train[chosen], [z_test], y_test, epochs=cfg.probe_epochs,
    )


def random_init_probe(scenes, cfg, seed: int) -> trainer.ProbeReport:
    """Probe an untrained model on a SceneSet; the floor the trained arms
    must beat."""
    feat_dim = scenes.frames[0].pixel_features.shape[3]
    model = trainer.init_model(feat_dim, cfg.embed_dim, seed)
    return trainer.linear_probe(model, scenes, replace(cfg, seed=seed))


def join_banks(banks) -> EmbeddingBank:
    """One bank holding every bank's rows, bank by bank, region index ascending."""
    return EmbeddingBank(
        *(np.concatenate([getattr(b, f) for b in banks])
          for f in ("f2d", "f3d", "valid", "signs"))
    )


def row_of(bank: PrototypeBank, class_id: int) -> int | None:
    """Row of ``class_id`` in a prototype bank, or None when it is absent."""
    hits = np.flatnonzero(bank.class_ids == class_id)
    return int(hits[0]) if hits.size else None


def loop_prototypes(banks) -> PrototypeBank:
    """``build_prototypes`` as a dict loop over regions, bank by bank.

    Each class's sums start at zero and take one valid row at a time in
    bank order, region index ascending.
    """
    d = banks[0].f2d.shape[1]
    sums2d: dict[int, np.ndarray] = {}
    sums3d: dict[int, np.ndarray] = {}
    n: dict[int, int] = {}
    for bank in banks:
        for q in range(len(bank.valid)):
            if not bank.valid[q]:
                continue
            t = int(bank.signs[q])
            if t not in sums2d:
                sums2d[t] = np.zeros(d)
                sums3d[t] = np.zeros(d)
                n[t] = 0
            sums2d[t] += bank.f2d[q]
            sums3d[t] += bank.f3d[q]
            n[t] += 1
    present = sorted(sums2d)
    return PrototypeBank(
        class_ids=np.array(present, dtype=np.int64),
        p2d=np.array([sums2d[t] / n[t] for t in present]),
        p3d=np.array([sums3d[t] / n[t] for t in present]),
        counts=np.array([n[t] for t in present], dtype=np.int64),
    )


def loop_ema(old: PrototypeBank, fresh: PrototypeBank, momentum: float):
    """``ema_update`` as a loop over the union of classes."""
    ids = np.union1d(old.class_ids, fresh.class_ids)
    d = old.p2d.shape[1]
    p2d = np.empty((len(ids), d))
    p3d = np.empty((len(ids), d))
    counts = np.empty(len(ids), dtype=np.int64)
    for i, t in enumerate(ids):
        o = row_of(old, int(t))
        f = row_of(fresh, int(t))
        if o is not None and f is not None:
            p2d[i] = momentum * old.p2d[o] + (1.0 - momentum) * fresh.p2d[f]
            p3d[i] = momentum * old.p3d[o] + (1.0 - momentum) * fresh.p3d[f]
            counts[i] = fresh.counts[f]
        elif f is not None:
            p2d[i] = fresh.p2d[f]
            p3d[i] = fresh.p3d[f]
            counts[i] = fresh.counts[f]
        else:
            p2d[i] = old.p2d[o]
            p3d[i] = old.p3d[o]
            counts[i] = old.counts[o]
    return PrototypeBank(
        class_ids=ids.astype(np.int64), p2d=p2d, p3d=p3d, counts=counts
    )


def stored_forward(
    stack,
    inputs: np.ndarray,
    reuse: ForwardCache | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """``embednet.forward`` as it was when the cache kept every hidden output.

    Its cache's ``acts`` hold each hidden layer's output, the first one
    included, so only ``stored_backward`` may consume it.
    """
    x = np.asarray(inputs)
    if x.ndim != 2:
        raise ShapeError(f"inputs must be 2-D, got shape {x.shape}")
    if x.shape[1] != stack.in_width:
        raise ShapeError(
            f"inputs have width {x.shape[1]}, stack expects {stack.in_width}"
        )
    n = x.shape[0]
    shape = (n, stack.out_width)
    if out is not None and (out.shape != shape or out.dtype != np.float64):
        raise ShapeError(f"out has shape {out.shape} {out.dtype}, want {shape} float64")
    hidden = stack.layers[:-1]
    if (
        reuse is not None
        and reuse.stack is stack
        and reuse.inputs.shape == x.shape
        and [a.shape for a in reuse.acts] == [(n, l.weight.shape[0]) for l in hidden]
        and not (
            out is not None
            and any(np.may_share_memory(out, a) for a in [reuse.inputs, *reuse.acts])
        )
    ):
        xin, bufs = reuse.inputs, reuse.acts
        reuse.live = False
        np.copyto(xin, x)
    else:
        xin, bufs = x.astype(np.float64), [None] * len(hidden)
    acts = []
    h = xin
    for layer, buf in zip(hidden, bufs):
        h = np.matmul(h, layer.weight.T, out=buf)
        h += layer.bias
        np.maximum(h, 0.0, out=h)
        acts.append(h)
    top = stack.layers[-1]
    h = np.matmul(h, top.weight.T, out=out)
    h += top.bias
    return h, ForwardCache(stack, stack.version, xin, acts)


def stored_backward(
    stack, upstream: np.ndarray, cache: ForwardCache
) -> tuple[np.ndarray, np.ndarray]:
    """``embednet.backward`` as it was, over a ``stored_forward`` cache."""
    cache.check()
    if cache.stack is not stack:
        raise ContractViolationError("cache built for a different stack")
    g = np.asarray(upstream, dtype=np.float64)
    acts = cache.acts
    layers = stack.layers
    want = (cache.inputs.shape[0], stack.out_width)
    if g.shape != want:
        raise ShapeError(f"upstream shape {g.shape} does not match output {want}")
    cache.live = False
    grads = np.empty(stack.num_params)
    (views,) = layer_views([stack], grads)
    for i in range(len(layers) - 1, -1, -1):
        below = cache.inputs if i == 0 else acts[i - 1]
        gw, gb = views[i]
        np.matmul(g.T, below, out=gw)
        g.sum(axis=0, out=gb)
        if i == 0:
            g = g @ layers[0].weight
            continue
        # the ReLU mask of the layer below, before its output is overwritten
        mask = below > 0.0
        g = np.matmul(g, layers[i].weight, out=below)
        g *= mask
    return grads, g


def row_softmax(logits: np.ndarray) -> np.ndarray:
    """The row softmax the three softmax trainers each wrote before they
    shared ``losses.softmax_xent``."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    if np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-12:
        raise ContractViolationError("softmax rows do not sum to 1")
    return p


def separate_loss_sp(bank: EmbeddingBank, tau_sp: float) -> SpResult:
    """``loss_sp`` with its own softmax, a diagonal pick and ``p - eye``."""
    vidx = np.flatnonzero(bank.valid)
    m = len(vidx)
    a3 = bank.f3d[vidx]
    a2 = bank.f2d[vidx]
    sims = a3 @ a2.T
    p = row_softmax(sims / tau_sp)
    eye = np.eye(m)
    value = float(-np.log(np.clip(np.diag(p), 1e-300, None)).sum())
    dlogits = (p - eye) / tau_sp
    grad_f3d = np.zeros_like(bank.f3d)
    grad_f2d = np.zeros_like(bank.f2d)
    grad_f3d[vidx] = dlogits @ a2
    grad_f2d[vidx] = dlogits.T @ a3
    off = sims + np.where(eye > 0, -np.inf, 0.0)
    return SpResult(
        value=value,
        grad_f3d=grad_f3d,
        grad_f2d=grad_f2d,
        mean_pos_sim=float(np.diag(sims).mean()),
        mean_negmax_sim=float(off.max(axis=1).mean()),
    )


def separate_loss_pro(
    bank: EmbeddingBank, class_ids: np.ndarray, pmix: np.ndarray, tau_pro: float
) -> ProResult:
    """``loss_pro`` with its own softmax, a gather, a copy and a subtract."""
    vidx = np.flatnonzero(bank.valid)
    m = len(vidx)
    pos = np.searchsorted(class_ids, bank.signs[vidx])
    a3 = bank.f3d[vidx]
    p = row_softmax(a3 @ pmix.T / tau_pro)
    picked = p[np.arange(m), pos]
    value = float(-np.log(np.clip(picked, 1e-300, None)).mean())
    dlogits = p.copy()
    dlogits[np.arange(m), pos] -= 1.0
    dlogits /= m * tau_pro
    grad_f3d = np.zeros_like(bank.f3d)
    grad_f3d[vidx] = dlogits @ pmix
    grad_pmix = dlogits.T @ a3
    return ProResult(value=value, grad_f3d=grad_f3d, grad_pmix=grad_pmix)


def onehot_linear_probe(z_train, y_train, z_test, y_test, epochs: int = 100):
    """``fit_linear_probe`` with its own softmax and an n x C one-hot matrix."""
    num_classes = int(max(y_train.max(), y_test.max(initial=0))) + 1
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
    per_class, iou = {}, {}
    for cls in np.unique(y_test):
        mask = y_test == cls
        hit = pred == cls
        per_class[int(cls)] = float((pred[mask] == cls).mean())
        iou[int(cls)] = float((mask & hit).sum() / (mask | hit).sum())
    return trainer.ProbeReport(
        mean_accuracy=float(np.mean(list(per_class.values()))),
        per_class=per_class,
        n_train_labeled=n,
        n_test=len(y_test),
        iou=iou,
        miou=float(np.mean(list(iou.values()))),
    )
