"""Deterministic synthetic multi-camera scenes with semantic ground truth.

A scene is a ground plane plus a handful of axis-aligned boxes and spheres,
one semantic class per primitive (class 0 is always ground).  Each of the L
cameras looks at the scene center from a ring; its rasters are produced by
exact ray casting, so visibility and class labels are trivially correct.
Region ids ("superpixels") come from connected components of the clean
semantic raster, optionally split k ways to mimic oversegmentation.

Points are sampled by back-projecting pixel centers of the rendered rasters
and are accepted only if, after float32 quantization, every camera that sees
them agrees on their class.  That construction gives the coverage guarantee
the association stage relies on without needing a z-buffer downstream.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .binio import ByteCursor, pack_array, pack_u32
from .errors import ConfigurationError, SceneFormatError, ShapeError

MAGIC = b"CSCS"
VERSION = 1
UNASSIGNED = np.uint32(0xFFFFFFFF)

# Orthonormality residual admitted by validation.  Rotations are built
# orthonormal to ~1e-15 in float64 but the file format stores float32,
# which alone introduces ~1e-7; 1e-6 accepts that and still rejects
# sheared or scaled matrices.
ROT_TOL = 1e-6

# Of every 8 feature channels, this many are keyed by class alone; one is
# keyed by region and the rest by pixel position.  Controls how much a 2D
# region's appearance is shared with the rest of its class.
CLASS_KEYED_CHANNELS = 3

# Labels and semantic rasters are uint16, so a scene holds at most this
# many classes; generation and ``read_scene`` apply the same bound.
MAX_CLASSES = 65536

# Ceilings on a scene's points K and pixel rows L*H*W, far above the desk
# defaults (4096 and 8192); generation and ``read_scene`` apply both, so
# an oversized request exits with a message instead of exhausting memory.
MAX_POINTS = 1 << 24
MAX_PIXEL_ROWS = 1 << 24


@dataclass
class CameraModel:
    """Pinhole camera: intrinsics plus a rigid world-to-camera transform.

    ``world_to_cam`` maps homogeneous world coordinates to camera
    coordinates with +z forward, +y down in the image.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    world_to_cam: np.ndarray  # (4,4) float64
    width: int
    height: int

    def validate(self) -> None:
        if self.fx <= 0 or self.fy <= 0:
            raise ConfigurationError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ConfigurationError("principal point outside the raster")
        m = np.asarray(self.world_to_cam, dtype=np.float64)
        if m.shape != (4, 4):
            raise ShapeError(f"world_to_cam must be 4x4, got {m.shape}")
        if not np.isfinite(m).all():
            raise ConfigurationError("world_to_cam has non-finite entries")
        r = m[:3, :3]
        if np.max(np.abs(r.T @ r - np.eye(3))) > ROT_TOL:
            raise ConfigurationError("rotation block is not orthonormal")
        if np.linalg.det(r) < 0:
            raise ConfigurationError("rotation block must have det +1")
        if not np.allclose(m[3], [0.0, 0.0, 0.0, 1.0]):
            raise ConfigurationError("last row of world_to_cam must be [0,0,0,1]")

    def eye(self) -> np.ndarray:
        """Camera center in world coordinates."""
        r = self.world_to_cam[:3, :3]
        t = self.world_to_cam[:3, 3]
        return -r.T @ t


@dataclass
class SceneGeometry:
    """Extents and raster sizes shared by every camera of a scene."""

    extent: float = 4.0  # ground half-size objects are placed within
    num_points: int = 4096  # K
    num_cameras: int = 2  # L
    height: int = 64  # H
    width: int = 64  # W
    feat_dim: int = 8  # F0

    def validate(self) -> None:
        if self.extent <= 0:
            raise ConfigurationError("extent must be positive")
        if self.num_points < 1:
            raise ConfigurationError("num_points must be >= 1")
        if self.num_cameras < 1:
            raise ConfigurationError("num_cameras must be >= 1")
        if self.height < 2 or self.width < 2:
            raise ConfigurationError("raster must be at least 2x2")
        if self.num_points > MAX_POINTS:
            raise ConfigurationError(
                f"num_points must be <= {MAX_POINTS}, got {self.num_points}"
            )
        rows = self.num_cameras * self.height * self.width
        if rows > MAX_PIXEL_ROWS:
            raise ConfigurationError(
                f"num_cameras * height * width must be <= {MAX_PIXEL_ROWS}, got {rows}"
            )
        if self.feat_dim < 1:
            raise ConfigurationError("feat_dim must be >= 1")


@dataclass
class SemanticOracleConfig:
    """Knobs of the semantic oracle that labels rasters and regions."""

    num_classes: int = 8  # T, ground included
    objects_per_scene: int = 6
    oversegment_factor: int = 1
    noise: float = 0.0  # per-region label-flip probability

    def validate(self) -> None:
        if self.num_classes < 2:
            raise ConfigurationError("need at least 2 classes (ground + 1)")
        if self.num_classes > MAX_CLASSES:
            raise ConfigurationError(
                f"num_classes must be <= {MAX_CLASSES}, got {self.num_classes}"
            )
        if self.objects_per_scene < 1:
            raise ConfigurationError("need at least one object per scene")
        if self.oversegment_factor < 1:
            raise ConfigurationError("oversegment_factor must be >= 1")
        if not (0.0 <= self.noise < 1.0):
            raise ConfigurationError("noise must lie in [0,1)")


@dataclass(eq=False)  # a generated __eq__ would raise on the array fields
class SceneFrame:
    """One point-cloud keyframe with L calibrated camera views.

    ``points`` is (K,4) float32 rows of (x,y,z,intensity).  Rasters are
    (L,H,W); superpixel ids are dense 0..Q_cam-1 per camera with
    UNASSIGNED marking pixels outside every labeled region.

    ``point_labels`` holds the true class of each sampled point.  It is
    evaluation-only ground truth: the training path never reads it, the
    semantic rasters (which may carry oracle noise) are the only label
    signal the losses ever see.
    """

    scene_id: int
    num_classes: int
    points: np.ndarray  # (K,4) float32
    point_labels: np.ndarray  # (K,) uint16
    cameras: list[CameraModel]
    pixel_features: np.ndarray  # (L,H,W,F0) float32
    semantic_raster: np.ndarray  # (L,H,W) uint16
    superpixel_raster: np.ndarray  # (L,H,W) uint32

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    @property
    def num_cameras(self) -> int:
        return len(self.cameras)


# ---------------------------------------------------------------------------
# primitives used by the ray caster


@dataclass
class _Primitive:
    kind: str  # "box" or "sphere"
    class_id: int
    center: np.ndarray  # (3,)
    half: np.ndarray  # (3,) box half extents; [r,r,r] for spheres
    radius: float  # bounding circle in the ground plane

    def hit(self, origin: np.ndarray, dirs: np.ndarray, inv: np.ndarray) -> np.ndarray:
        """Smallest positive ray parameter per direction, inf on miss.

        ``dirs`` is (N,3) unit directions and ``inv`` their reciprocals as
        (3,N) component rows, both laid out once per camera.
        """
        if self.kind == "sphere":
            oc = origin - self.center
            b = dirs @ oc
            c = oc @ oc - self.half[0] ** 2
            disc = b * b - c
            root = np.sqrt(np.maximum(disc, 0.0))
            t0 = -b - root
            t1 = -b + root
            t = np.where(t0 > 1e-9, t0, t1)
            return np.where((disc > 0) & (t > 1e-9), t, np.inf)
        # slab test, axis by axis in order 0, 1, 2: a zero direction
        # component on a slab plane gives 0 * inf = NaN, which fmax/fmin skip
        lo = self.center - self.half
        hi = self.center + self.half
        with np.errstate(invalid="ignore"):
            for axis in range(3):
                t_lo = (lo[axis] - origin[axis]) * inv[axis]
                t_hi = (hi[axis] - origin[axis]) * inv[axis]
                t_min = np.minimum(t_lo, t_hi)
                t_max = np.maximum(t_lo, t_hi, out=t_hi)
                if axis == 0:
                    near, far = t_min, t_max
                else:
                    np.fmax(near, t_min, out=near)
                    np.fmin(far, t_max, out=far)
        t = np.where(near > 1e-9, near, far)
        return np.where((far >= near) & (t > 1e-9), t, np.inf)


def _look_at(eye: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Rotation whose rows are the camera axes: +x right, +y down, +z forward."""
    fwd = target - eye
    fwd = fwd / np.linalg.norm(fwd)
    up = np.array([0.0, 0.0, 1.0])
    right = np.cross(fwd, up)
    nr = np.linalg.norm(right)
    if nr < 1e-12:  # looking straight up or down; pick an arbitrary right
        right = np.array([1.0, 0.0, 0.0])
        nr = 1.0
    right = right / nr
    down = np.cross(fwd, right)
    return np.stack([right, down, fwd])


def _ring_cameras(geom: SceneGeometry, rng: np.random.Generator) -> list[CameraModel]:
    cams = []
    target = np.array([0.0, 0.0, 0.5])
    base = rng.uniform(0.0, 2.0 * np.pi)
    for idx in range(geom.num_cameras):
        ang = base + 2.0 * np.pi * idx / geom.num_cameras
        eye = np.array(
            [
                geom.extent * 1.6 * np.cos(ang),
                geom.extent * 1.6 * np.sin(ang),
                geom.extent * 1.1,
            ]
        )
        r = _look_at(eye, target)
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-9
        m = np.eye(4)
        m[:3, :3] = r
        m[:3, 3] = -r @ eye
        # snap through float32 so the in-memory camera round-trips the
        # file format bit-exactly
        m32 = m.astype(np.float32).astype(np.float64)
        cam = CameraModel(
            fx=float(np.float32(geom.width)),
            fy=float(np.float32(geom.width)),
            cx=float(np.float32(geom.width / 2.0)),
            cy=float(np.float32(geom.height / 2.0)),
            world_to_cam=m32,
            width=geom.width,
            height=geom.height,
        )
        cam.validate()
        cams.append(cam)
    return cams


def _place_objects(
    cfg: SemanticOracleConfig, geom: SceneGeometry, rng: np.random.Generator
) -> list[_Primitive]:
    """Non-overlapping primitives; class controls family, size, and height."""
    classes = rng.permutation(cfg.num_classes - 1) + 1
    prims: list[_Primitive] = []
    lim = geom.extent * 0.6
    for i in range(cfg.objects_per_scene):
        cls = int(classes[i % len(classes)])
        # size grows with class id so geometry itself carries class signal
        size = (0.45 + 0.09 * cls) * rng.uniform(0.85, 1.15)
        if cls % 2 == 1:
            half = size * (0.5 + 0.3 * rng.uniform(size=3))
            prim = _Primitive(
                "box",
                cls,
                np.zeros(3),
                half,
                float(np.hypot(half[0], half[1])),
            )
            prim.center = np.array([0.0, 0.0, half[2]])
        else:
            rad = size * 0.6 * (0.85 + 0.3 * rng.uniform())
            prim = _Primitive(
                "sphere", cls, np.array([0.0, 0.0, rad]), np.full(3, rad), rad
            )
        placed = False
        for _ in range(6):  # shrink and retry when the floor is crowded
            for _ in range(200):
                xy = rng.uniform(-lim, lim, size=2)
                if all(
                    np.hypot(*(xy - p.center[:2])) > prim.radius + p.radius + 0.2
                    for p in prims
                ):
                    prim.center = np.array([xy[0], xy[1], prim.center[2]])
                    placed = True
                    break
            if placed:
                break
            prim.half = prim.half * 0.8
            prim.radius *= 0.8
            prim.center = np.array([0.0, 0.0, prim.center[2] * 0.8])
        if not placed:
            raise ConfigurationError(
                f"could not place object {i}: too many objects for extent "
                f"{geom.extent}"
            )
        prims.append(prim)
    return prims


def _pixel_rays(cam: CameraModel) -> np.ndarray:
    """World-frame unit directions through every pixel center, (H,W,3)."""
    rows, cols = np.meshgrid(
        np.arange(cam.height, dtype=np.float64),
        np.arange(cam.width, dtype=np.float64),
        indexing="ij",
    )
    d_cam = np.stack(
        [(cols - cam.cx) / cam.fx, (rows - cam.cy) / cam.fy, np.ones_like(rows)],
        axis=-1,
    )
    r = cam.world_to_cam[:3, :3]
    d_world = d_cam @ r  # == (R^T @ d_cam^T)^T
    return d_world / np.linalg.norm(d_world, axis=-1, keepdims=True)


def _raster_scene(
    eye: np.ndarray, dirs: np.ndarray, prims: list[_Primitive]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ray-cast one camera, given its eye and ``_pixel_rays``: per-pixel
    class, hit distance, hit flag."""
    flat = dirs.reshape(-1, 3)
    rows = np.ascontiguousarray(flat.T)
    with np.errstate(divide="ignore"):
        inv = 1.0 / rows
        tg = -eye[2] / rows[2]
    t_best = np.where((rows[2] < 0) & (tg > 1e-9), tg, np.inf)
    sem = np.zeros(flat.shape[0], dtype=np.uint16)  # ground, and every miss
    # running nearest hit: only a strictly nearer primitive takes a pixel,
    # so on a tie the earlier one keeps it
    for prim in prims:
        t = prim.hit(eye, flat, inv)
        nearer = t < t_best
        np.copyto(t_best, t, where=nearer)
        sem[nearer] = prim.class_id
    hit = np.isfinite(t_best)
    shape = dirs.shape[:2]
    return sem.reshape(shape), t_best.reshape(shape), hit.reshape(shape)


# ---------------------------------------------------------------------------
# regions


def connected_regions(values: np.ndarray, mask: np.ndarray) -> list[np.ndarray]:
    """4-connected components of equal ``values`` inside ``mask``.

    Returns flat pixel index arrays (int64, each sorted ascending), ordered by
    the smallest pixel index of the component.  Labels by hook-and-compress
    union-find (Shiloach & Vishkin 1982) over whole arrays: every root hooks
    onto the smallest root it shares an edge with, then pointer jumping makes
    every pixel point at its root, until no edge joins two roots.  Pointers
    only ever go to smaller indices, so each final root is its component's
    smallest pixel.  The test suite checks this against an independent
    labelling routine and a reference BFS.
    """
    h, w = values.shape
    inside = np.asarray(mask, dtype=bool)
    flat = np.arange(h * w, dtype=np.int64).reshape(h, w)
    right = inside[:, :-1] & inside[:, 1:] & (values[:, :-1] == values[:, 1:])
    down = inside[:-1, :] & inside[1:, :] & (values[:-1, :] == values[1:, :])
    a = np.concatenate([flat[:, :-1][right], flat[:-1, :][down]])
    b = np.concatenate([flat[:, 1:][right], flat[1:, :][down]])
    label = flat.ravel().copy()
    while True:
        la, lb = label[a], label[b]
        apart = la != lb
        if not apart.any():
            break
        # an edge whose ends share a root keeps sharing it: drop it
        a, b, la, lb = a[apart], b[apart], la[apart], lb[apart]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        jumped = label[label]
        while not np.array_equal(jumped, label):
            label, jumped = jumped, jumped[jumped]
    pixels = flat.ravel()[inside.ravel()]
    if not pixels.size:
        return []
    roots = label[pixels]
    order = np.argsort(roots, kind="stable")
    pixels, roots = pixels[order], roots[order]
    return np.split(pixels, np.flatnonzero(roots[1:] != roots[:-1]) + 1)


def split_region(flat_idx: np.ndarray, k: int, width: int) -> list[np.ndarray]:
    """Split a region into min(k, n) spatial chunks along its longer axis."""
    n = len(flat_idx)
    k = min(k, n)
    rows = flat_idx // width
    cols = flat_idx % width
    if rows.max() - rows.min() >= cols.max() - cols.min():
        order = np.lexsort((cols, rows))
    else:
        order = np.lexsort((rows, cols))
    ordered = flat_idx[order]
    return [ordered[i * n // k : (i + 1) * n // k] for i in range(k)]


def _segment(
    sem: np.ndarray, hit: np.ndarray, factor: int
) -> np.ndarray:
    """Dense superpixel ids from clean semantics; UNASSIGNED off-mask."""
    h, w = sem.shape
    spix = np.full(h * w, UNASSIGNED, dtype=np.uint32)
    next_id = 0
    for region in connected_regions(sem, hit):
        # one chunk is the whole region, and its pixel order cannot matter
        for chunk in [region] if factor == 1 else split_region(region, factor, w):
            spix[chunk] = next_id
            next_id += 1
    return spix.reshape(h, w)


# ---------------------------------------------------------------------------
# raw pixel features

_MIX = np.uint64(0x9E3779B97F4A7C15)


def _splitmix(x: np.ndarray) -> np.ndarray:
    z = (x + _MIX).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _hash_unit(key: np.ndarray) -> np.ndarray:
    """uint64 keys -> floats in [-1, 1)."""
    h = _splitmix(_splitmix(key))
    return (h >> np.uint64(11)).astype(np.float64) * (2.0 / 2**53) - 1.0


def _pixel_feature_raster(
    sem: np.ndarray,
    spix: np.ndarray,
    feat_dim: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-pixel features: hash channels keyed by class, region, position.

    Most channels depend on the class alone, mimicking a semantically
    coherent 2D backbone where two regions of one class look alike even
    across scenes; the remaining channels add region- and position-specific
    texture.  Gaussian noise keeps the signal from being an exact code.
    """
    h, w = sem.shape
    rows, cols = np.meshgrid(
        np.arange(h, dtype=np.uint64), np.arange(w, dtype=np.uint64), indexing="ij"
    )
    cls = sem.astype(np.uint64)
    reg = spix.astype(np.uint64)
    pos = rows * np.uint64(w) + cols
    out = np.empty((h, w, feat_dim), dtype=np.float64)
    for ch in range(feat_dim):
        salt = np.uint64((ch * 0xD1342543DE82EF95) % 2**64)
        if ch % 8 < CLASS_KEYED_CHANNELS:
            key = cls * np.uint64(0x100000001B3) + salt
        elif ch % 8 < CLASS_KEYED_CHANNELS + 1:
            key = (cls << np.uint64(32)) ^ reg ^ salt
        else:
            key = (cls << np.uint64(48)) ^ (pos << np.uint64(8)) ^ salt
        out[:, :, ch] = _hash_unit(key)
    out += rng.normal(0.0, 0.05, size=out.shape)
    return out.astype(np.float32)


# ---------------------------------------------------------------------------
# point sampling


def _sample_points(
    cams: list[CameraModel],
    rays: list[tuple[np.ndarray, np.ndarray]],
    sems: list[np.ndarray],
    dists: list[np.ndarray],
    hits: list[np.ndarray],
    geom: SceneGeometry,
    num_classes: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample K points by back-projecting rendered pixels.

    A candidate survives only if its float32 position projects onto an
    assigned pixel of the SAME class in every camera that sees it, which
    makes the class label recoverable from any covering view.  ``rays``
    holds each camera's eye and ``_pixel_rays``.
    """
    from .projection import project_points

    cap = 6.0 * geom.extent
    cand_world = []
    cand_cls = []
    for (eye, dirs), sem, dist, hit in zip(rays, sems, dists, hits):
        take = hit & (dist <= cap)
        if not take.any():
            continue
        pts = eye[None, :] + dist[take][:, None] * dirs[take]
        cand_world.append(pts.astype(np.float32))
        cand_cls.append(sem[take].astype(np.int64))
    if not cand_world:
        raise ConfigurationError("no rasterized surface to sample points from")
    world = np.concatenate(cand_world).astype(np.float64)
    cls = np.concatenate(cand_cls)

    keep = np.ones(len(world), dtype=bool)
    for cam, sem, hit in zip(cams, sems, hits):
        row, col, ok = project_points(world, cam)
        vis_cls = sem[row, col].astype(np.int64)
        vis_hit = hit[row, col]
        keep &= ~ok | (vis_hit & (vis_cls == cls))
    pool = np.flatnonzero(keep)
    if len(pool) == 0:
        raise ConfigurationError("every point candidate failed the class check")
    # near-equal per-class quotas: the raster is dominated by ground, but a
    # useful probe target needs labeled support for every class, so rare
    # classes are oversampled (with replacement once their pixels run out)
    pool_cls = cls[pool]
    present = np.unique(pool_cls)
    quota = np.full(len(present), geom.num_points // len(present), dtype=np.int64)
    quota[: geom.num_points % len(present)] += 1
    parts = []
    for t, want in zip(present, quota):
        members = pool[pool_cls == t]
        order = rng.permutation(len(members))
        if len(members) >= want:
            parts.append(members[order[:want]])
        else:
            extra = rng.integers(0, len(members), size=want - len(members))
            parts.append(np.concatenate([members[order], members[extra]]))
    chosen = np.concatenate(parts)

    labels = cls[chosen]
    # reflectance: per-class mean on a ramp with heavy overlap between
    # neighbouring classes, so intensity is informative but not a code
    mu = 0.1 + 0.8 * labels / (num_classes - 1)
    intensity = np.clip(mu + rng.normal(0.0, 0.12, size=len(chosen)), 0.0, 1.0)
    pts = np.empty((geom.num_points, 4), dtype=np.float32)
    pts[:, :3] = world[chosen].astype(np.float32)
    pts[:, 3] = intensity.astype(np.float32)
    return pts, labels.astype(np.int64)


# ---------------------------------------------------------------------------
# generation


def generate_scene(
    seed: int,
    cfg: SemanticOracleConfig,
    geom: SceneGeometry | None = None,
    scene_id: int = 0,
) -> SceneFrame:
    """Build one deterministic SceneFrame from a seed and configs."""
    cfg.validate()
    geom = geom or SceneGeometry()
    geom.validate()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    cams = _ring_cameras(geom, rng)
    prims = _place_objects(cfg, geom, rng)

    rays = [(cam.eye(), _pixel_rays(cam)) for cam in cams]
    sems, dists, hits = [], [], []
    for eye, dirs in rays:
        sem, dist, hit = _raster_scene(eye, dirs, prims)
        sems.append(sem)
        dists.append(dist)
        hits.append(hit)

    # objects the ray caster never surfaced anywhere cannot matter; note
    # that their classes then simply do not appear in this scene
    spixs = [_segment(sem, hit, cfg.oversegment_factor) for sem, hit in zip(sems, hits)]

    feats = [
        _pixel_feature_raster(sem, spix, geom.feat_dim, rng)
        for sem, spix in zip(sems, spixs)
    ]

    points, labels = _sample_points(
        cams, rays, sems, dists, hits, geom, cfg.num_classes, rng
    )

    # label noise is segment-coherent: a wrong oracle opinion covers a whole
    # region, the way a segmentation model errs, so region signs (and the
    # labels recovered from flipped pixels) inherit the error while the
    # pixel features keep describing what is actually there
    noisy = []
    for sem, spix in zip(sems, spixs):
        sem = sem.copy()
        if cfg.noise > 0.0:
            on = spix != UNASSIGNED
            ids = np.unique(spix[on])
            flip = rng.random(len(ids)) < cfg.noise
            shifts = rng.integers(1, cfg.num_classes, size=len(ids))
            # regions are class-pure, so shifting each pixel shifts its region
            shift = np.where(flip, shifts, 0)[np.searchsorted(ids, spix[on])]
            sem[on] = (sem[on] + shift) % cfg.num_classes
        noisy.append(sem)

    return SceneFrame(
        scene_id=scene_id,
        num_classes=cfg.num_classes,
        points=points,
        point_labels=labels.astype(np.uint16),
        cameras=cams,
        pixel_features=np.stack(feats),
        semantic_raster=np.stack(noisy),
        superpixel_raster=np.stack(spixs),
    )


# ---------------------------------------------------------------------------
# file format


def write_scene(frame: SceneFrame, path) -> None:
    buf = io.BytesIO()
    k = frame.num_points
    l = frame.num_cameras
    _, h, w, f0 = frame.pixel_features.shape
    buf.write(MAGIC)
    buf.write(pack_u32(VERSION, k, l, h, w, f0, frame.num_classes, frame.scene_id))
    buf.write(pack_array(frame.points, "float32"))
    buf.write(pack_array(frame.point_labels, "uint16"))
    for idx, cam in enumerate(frame.cameras):
        buf.write(pack_array(np.array([cam.fx, cam.fy, cam.cx, cam.cy]), "float32"))
        buf.write(pack_array(np.asarray(cam.world_to_cam), "float32"))
        buf.write(pack_array(frame.pixel_features[idx], "float32"))
        buf.write(pack_array(frame.semantic_raster[idx], "uint16"))
        buf.write(pack_array(frame.superpixel_raster[idx], "uint32"))
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def _finite(cur: ByteCursor, count: int, what: str) -> np.ndarray:
    """Read ``count`` float32 values, rejecting NaN and infinity."""
    start = cur.pos
    values = cur.array("float32", count, what)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise SceneFormatError(f"non-finite value in {what}", start + 4 * int(bad[0]))
    return values


def read_scene(path) -> SceneFrame:
    with open(path, "rb") as fh:
        data = fh.read()
    cur = ByteCursor(data, SceneFormatError)
    magic = cur.take(4, "magic")
    if magic != MAGIC:
        raise SceneFormatError(f"bad magic {magic!r}, expected {MAGIC!r}", 0)
    version = cur.u32("version")
    if version != VERSION:
        raise SceneFormatError(f"unsupported version {version}", 4)
    k = cur.u32("point count K")
    l = cur.u32("camera count L")
    h = cur.u32("raster height H")
    w = cur.u32("raster width W")
    f0 = cur.u32("feature width F0")
    t = cur.u32("class count T")
    scene_id = cur.u32("scene id")
    for value, name, offset in (
        (k, "point count K", 8),
        (l, "camera count L", 12),
        (h, "raster height H", 16),
        (w, "raster width W", 20),
        (f0, "feature width F0", 24),
    ):
        if value < 1:
            raise SceneFormatError(f"{name} must be positive, got {value}", offset)
    if not 2 <= t <= MAX_CLASSES:
        raise SceneFormatError(f"class count {t} outside [2, {MAX_CLASSES}]", 28)
    if k > MAX_POINTS:
        raise SceneFormatError(f"point count K {k} above {MAX_POINTS}", 8)
    if l * h * w > MAX_PIXEL_ROWS:
        raise SceneFormatError(
            f"pixel rows L*H*W {l * h * w} above {MAX_PIXEL_ROWS}", 12
        )
    points = _finite(cur, k * 4, "points").reshape(k, 4)
    label_offset = cur.pos
    point_labels = cur.array("uint16", k, "point labels")
    bad = np.flatnonzero(point_labels >= t)
    if bad.size:
        raise SceneFormatError(
            f"point label {point_labels[bad[0]]} not below T={t}",
            label_offset + 2 * int(bad[0]),
        )
    cams = []
    # sections are read through the cursor before any stacked allocation,
    # so a damaged header cannot request more memory than the file holds
    feat_list: list[np.ndarray] = []
    sem_list: list[np.ndarray] = []
    spix_list: list[np.ndarray] = []
    for idx in range(l):
        cam_offset = cur.pos
        intr = cur.array("float32", 4, f"camera {idx} intrinsics")
        m = cur.array("float32", 16, f"camera {idx} world_to_cam")
        cam = CameraModel(
            fx=float(intr[0]),
            fy=float(intr[1]),
            cx=float(intr[2]),
            cy=float(intr[3]),
            world_to_cam=m.astype(np.float64).reshape(4, 4),
            width=int(w),
            height=int(h),
        )
        try:
            cam.validate()
        except (ConfigurationError, ShapeError) as err:
            raise SceneFormatError(f"camera {idx} invalid: {err}", cam_offset) from err
        cams.append(cam)
        feat_list.append(
            _finite(cur, h * w * f0, f"camera {idx} pixel_features").reshape(h, w, f0)
        )
        sem_offset = cur.pos
        sem = cur.array("uint16", h * w, f"camera {idx} semantic_raster")
        spix_offset = cur.pos
        spix = cur.array("uint32", h * w, f"camera {idx} superpixel_raster")
        # ids index regions: one at or above H*W would size the region
        # table from a damaged byte, not from the raster
        bad = np.flatnonzero((spix != UNASSIGNED) & (spix >= h * w))
        if bad.size:
            raise SceneFormatError(
                f"camera {idx} superpixel_raster: id {spix[bad[0]]} not below "
                f"H*W={h * w}",
                spix_offset + 4 * int(bad[0]),
            )
        # an unassigned pixel's class is never read
        bad = np.flatnonzero((spix != UNASSIGNED) & (sem >= t))
        if bad.size:
            raise SceneFormatError(
                f"camera {idx} semantic_raster: id {sem[bad[0]]} on an assigned "
                f"pixel not below T={t}",
                sem_offset + 2 * int(bad[0]),
            )
        sem_list.append(sem.reshape(h, w))
        spix_list.append(spix.reshape(h, w))
    cur.expect_end("superpixel rasters")
    feats = np.stack(feat_list)
    sems = np.stack(sem_list)
    spixs = np.stack(spix_list)
    return SceneFrame(
        scene_id=scene_id,
        num_classes=int(t),
        points=points,
        point_labels=point_labels,
        cameras=cams,
        pixel_features=feats,
        semantic_raster=sems,
        superpixel_raster=spixs,
    )
