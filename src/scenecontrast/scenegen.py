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

from dataclasses import dataclass

import numpy as np

from .binio import pack_array, pack_u32, read_container, write_container
from .bounds import Bound, check
from .errors import ConfigurationError

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

# half-size of the ground square that objects are placed within
EXTENT = 4.0
# feature channels per pixel, a scene header's F0
FEAT_DIM = 8

# a scene's pixel rows L*H*W, which generation and read_scene bound beside the fields
PIXEL_ROWS = Bound(int, 1, 1 << 24, source="desk budget: 2048x the desk's 8192")


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
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise ConfigurationError("focal lengths must be positive and finite")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ConfigurationError("principal point outside the raster")
        m = self.world_to_cam
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


def project_points(
    points: np.ndarray, cam: CameraModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project (N,3) world points; returns (rows, cols, valid).

    A projection is valid iff camera-frame depth is strictly positive and
    the nearest-integer pixel (ties to even) lies inside the raster.  Rows
    and cols are defined only where valid is True.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    r = cam.world_to_cam[:3, :3]
    t = cam.world_to_cam[:3, 3]
    pc = pts @ r.T + t
    z = pc[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        row = np.rint(cam.fy * pc[:, 1] / z + cam.cy)
        col = np.rint(cam.fx * pc[:, 0] / z + cam.cx)
    ok = (
        (z > 0)
        & (row >= 0)
        & (row < cam.height)
        & (col >= 0)
        & (col < cam.width)
    )
    rows = np.where(ok, row, 0).astype(np.int64)
    cols = np.where(ok, col, 0).astype(np.int64)
    return rows, cols, ok


@dataclass
class SceneGeometry:
    """Point count and raster sizes shared by every camera of a scene."""

    num_points: int = 4096  # K
    num_cameras: int = 2  # L
    height: int = 64  # H
    width: int = 64  # W

    def validate(self) -> None:
        check(GEOMETRY_BOUNDS, vars(self))
        rows = self.num_cameras * self.height * self.width
        if message := PIXEL_ROWS.violation("num_cameras * height * width", rows):
            raise ConfigurationError(message)


GEOMETRY_BOUNDS = {
    "num_points": Bound(int, 1, 1 << 24, source="desk budget: 4096x the desk's 4096"),
    "num_cameras": Bound(int, 1),
    "height": Bound(int, 1),
    "width": Bound(int, 1),
}


@dataclass
class SemanticOracleConfig:
    """Knobs of the semantic oracle that labels rasters and regions."""

    num_classes: int = 8  # T, ground included
    objects_per_scene: int = 6
    oversegment_factor: int = 1
    noise: float = 0.0  # per-region label-flip probability

    def validate(self) -> None:
        check(ORACLE_BOUNDS, vars(self))


ORACLE_BOUNDS = {
    "num_classes": Bound(int, 2, 65536, source="dtype: uint16 labels"),  # ground + 1
    "objects_per_scene": Bound(int, 1),
    "oversegment_factor": Bound(int, 1),
    "noise": Bound(float, 0.0, 1.0, "[)", "a flip probability: at 1 no label is true"),
}

# the header's u32 fields in file order, field i at byte 8 + 4 * i
SCENE_HEADER = {
    "point count K": GEOMETRY_BOUNDS["num_points"],
    "camera count L": GEOMETRY_BOUNDS["num_cameras"],
    "raster height H": GEOMETRY_BOUNDS["height"],
    "raster width W": GEOMETRY_BOUNDS["width"],
    "feature width F0": Bound(int, 1),
    "class count T": ORACLE_BOUNDS["num_classes"],
    "scene id": Bound(int),
}


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

    Both rasters are None in the frames a ``SceneSet`` keeps once it has
    prepared them: only preparation reads the rasters.
    """

    scene_id: int
    num_classes: int
    points: np.ndarray  # (K,4) float32
    point_labels: np.ndarray  # (K,) uint16
    cameras: list[CameraModel]
    pixel_features: np.ndarray  # (L,H,W,F0) float32
    semantic_raster: np.ndarray | None  # (L,H,W) uint16
    superpixel_raster: np.ndarray | None  # (L,H,W) uint32

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
    # nonzero unless the view is vertical; no ring eye is above its target
    right = np.cross(fwd, np.array([0.0, 0.0, 1.0]))
    right = right / np.linalg.norm(right)
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
                EXTENT * 1.6 * np.cos(ang),
                EXTENT * 1.6 * np.sin(ang),
                EXTENT * 1.1,
            ]
        )
        r = _look_at(eye, target)
        m = np.eye(4)
        m[:3, :3] = r
        m[:3, 3] = -r @ eye
        # snap through float32 so the in-memory camera round-trips the
        # file format bit-exactly
        m32 = m.astype(np.float32).astype(np.float64)
        cams.append(CameraModel(
            fx=float(np.float32(geom.width)),
            fy=float(np.float32(geom.width)),
            cx=float(np.float32(geom.width / 2.0)),
            cy=float(np.float32(geom.height / 2.0)),
            world_to_cam=m32,
            width=geom.width,
            height=geom.height,
        ))
    return cams


def _place_objects(cfg: SemanticOracleConfig, rng: np.random.Generator) -> list[_Primitive]:
    """Non-overlapping primitives; class controls family, size, and height."""
    classes = rng.permutation(cfg.num_classes - 1) + 1
    prims: list[_Primitive] = []
    lim = EXTENT * 0.6
    for i in range(cfg.objects_per_scene):
        cls = int(classes[i % len(classes)])
        # size grows with class id so geometry itself carries class signal
        size = (0.45 + 0.09 * cls) * rng.uniform(0.85, 1.15)
        if cls % 2 == 1:
            kind, half = "box", size * (0.5 + 0.3 * rng.uniform(size=3))
            radius, height = float(np.hypot(half[0], half[1])), half[2]
        else:
            kind, radius = "sphere", size * 0.6 * (0.85 + 0.3 * rng.uniform())
            half, height = np.full(3, radius), radius
        for _ in range(6):  # shrink and retry when the floor is crowded
            for _ in range(200):
                xy = rng.uniform(-lim, lim, size=2)
                if all(np.hypot(*(xy - p.center[:2])) > radius + p.radius + 0.2 for p in prims):
                    break
            else:  # no free spot at this size
                half, radius, height = half * 0.8, radius * 0.8, height * 0.8
                continue
            break
        else:
            raise ConfigurationError(
                f"could not place object {i}: too many objects for extent {EXTENT}"
            )
        prims.append(_Primitive(kind, cls, np.array([xy[0], xy[1], height]), half, radius))
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
    the smallest pixel index of the component.  Each pixel starts labelled
    with the first pixel of its run along the row, so only the down edges
    go through hook-and-compress union-find (Shiloach & Vishkin 1982) over
    whole arrays: every root hooks onto the smallest root it shares an edge
    with, then pointer jumping makes every pixel point at its root, until
    no edge joins two roots.  Pointers only ever go to smaller indices, so
    each final root is its component's smallest pixel.  The test suite
    checks this against an independent labelling routine and a reference
    BFS.
    """
    h, w = values.shape
    inside = np.asarray(mask, dtype=bool)
    flat = np.arange(h * w, dtype=np.int64).reshape(h, w)
    right = inside[:, :-1] & inside[:, 1:] & (values[:, :-1] == values[:, 1:])
    down = inside[:-1, :] & inside[1:, :] & (values[:-1, :] == values[1:, :])
    # each pixel takes its row's last run start (no right edge in) up to it
    starts = flat.copy()
    starts[:, 1:][right] = 0
    label = np.maximum.accumulate(starts, axis=1).ravel()
    a, b = flat[:-1, :][down], flat[1:, :][down]
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
    sem: np.ndarray, spix: np.ndarray, rng: np.random.Generator
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
    out = np.empty((h, w, FEAT_DIM), dtype=np.float64)
    for ch in range(FEAT_DIM):
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


@dataclass(eq=False)
class _View:
    """One camera's pass: its rays, clean raster, regions and pixel features."""

    cam: CameraModel
    eye: np.ndarray  # (3,) camera center
    dirs: np.ndarray  # (H,W,3) unit rays from _pixel_rays
    sem: np.ndarray  # (H,W) uint16 clean classes
    dist: np.ndarray  # (H,W) float64 hit distance, inf on a miss
    hit: np.ndarray  # (H,W) bool
    spix: np.ndarray  # (H,W) uint32 region ids, dense 0..n-1 per camera
    feat: np.ndarray  # (H,W,F0) float32


def _sample_points(
    views: list[_View], num_points: int, num_classes: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``num_points`` points by back-projecting rendered pixels.

    A candidate survives only if its float32 position projects onto an
    assigned pixel of the SAME class in every camera that sees it, which
    makes the class label recoverable from any covering view.
    """
    cap = 6.0 * EXTENT
    cand_world = []
    cand_cls = []
    for v in views:
        take = v.hit & (v.dist <= cap)
        if not take.any():
            continue
        pts = v.eye[None, :] + v.dist[take][:, None] * v.dirs[take]
        cand_world.append(pts.astype(np.float32))
        cand_cls.append(v.sem[take].astype(np.int64))
    if not cand_world:
        raise ConfigurationError("no rasterized surface to sample points from")
    world = np.concatenate(cand_world).astype(np.float64)
    cls = np.concatenate(cand_cls)

    keep = np.ones(len(world), dtype=bool)
    for v in views:
        row, col, ok = project_points(world, v.cam)
        vis_cls = v.sem[row, col].astype(np.int64)
        vis_hit = v.hit[row, col]
        keep &= ~ok | (vis_hit & (vis_cls == cls))
    pool = np.flatnonzero(keep)
    if len(pool) == 0:
        raise ConfigurationError("every point candidate failed the class check")
    # near-equal per-class quotas: the raster is dominated by ground, but a
    # useful probe target needs labeled support for every class, so rare
    # classes are oversampled (with replacement once their pixels run out)
    pool_cls = cls[pool]
    present = np.flatnonzero(np.bincount(pool_cls))  # np.unique's, without numpy.ma
    quota = np.full(len(present), num_points // len(present), dtype=np.int64)
    quota[: num_points % len(present)] += 1
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
    pts = np.empty((num_points, 4), dtype=np.float32)
    pts[:, :3] = world[chosen].astype(np.float32)
    pts[:, 3] = intensity.astype(np.float32)
    return pts, labels.astype(np.int64)


# ---------------------------------------------------------------------------
# generation


def generate_scene(
    seed: int,
    cfg: SemanticOracleConfig,
    geom: SceneGeometry,
    scene_id: int = 0,
) -> SceneFrame:
    """Build one deterministic SceneFrame from a seed and configs."""
    cfg.validate()
    geom.validate()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    cams = _ring_cameras(geom, rng)
    prims = _place_objects(cfg, rng)

    # objects the ray caster never surfaced anywhere cannot matter; note
    # that their classes then simply do not appear in this scene
    views = []
    for cam in cams:
        eye, dirs = cam.eye(), _pixel_rays(cam)
        sem, dist, hit = _raster_scene(eye, dirs, prims)
        spix = _segment(sem, hit, cfg.oversegment_factor)
        feat = _pixel_feature_raster(sem, spix, rng)
        views.append(_View(cam, eye, dirs, sem, dist, hit, spix, feat))

    points, labels = _sample_points(views, geom.num_points, cfg.num_classes, rng)

    # label noise is segment-coherent: a wrong oracle opinion covers a whole
    # region, the way a segmentation model errs, so region signs (and the
    # labels recovered from flipped pixels) inherit the error while the
    # pixel features keep describing what is actually there
    noisy = []
    for v in views:
        sem = v.sem.copy()
        if cfg.noise > 0.0:
            on = v.spix != UNASSIGNED
            ids = v.spix[on]  # a camera's regions are numbered 0..n-1
            n = int(ids.max()) + 1 if ids.size else 0
            flip = rng.random(n) < cfg.noise
            shifts = rng.integers(1, cfg.num_classes, size=n)
            # regions are class-pure, so shifting each pixel shifts its region
            sem[on] = (sem[on] + np.where(flip, shifts, 0)[ids]) % cfg.num_classes
        noisy.append(sem)

    return SceneFrame(
        scene_id=scene_id,
        num_classes=cfg.num_classes,
        points=points,
        point_labels=labels.astype(np.uint16),
        cameras=cams,
        pixel_features=np.stack([v.feat for v in views]),
        semantic_raster=np.stack(noisy),
        superpixel_raster=np.stack([v.spix for v in views]),
    )


# ---------------------------------------------------------------------------
# file format


def write_scene(frame: SceneFrame, path) -> None:
    _, h, w, f0 = frame.pixel_features.shape
    header = (frame.num_points, frame.num_cameras, h, w, f0, frame.num_classes, frame.scene_id)
    chunks = [pack_u32(*header), pack_array(frame.points, "float32"),
              pack_array(frame.point_labels, "uint16")]
    for idx, cam in enumerate(frame.cameras):
        chunks += [
            pack_array(np.array([cam.fx, cam.fy, cam.cx, cam.cy]), "float32"),
            pack_array(np.asarray(cam.world_to_cam), "float32"),
            pack_array(frame.pixel_features[idx], "float32"),
            pack_array(frame.semantic_raster[idx], "uint16"),
            pack_array(frame.superpixel_raster[idx], "uint32"),
        ]
    write_container(path, MAGIC, VERSION, chunks)


def read_scene(path) -> SceneFrame:
    cur = read_container(path, MAGIC, VERSION)
    header = {name: cur.u32(name) for name in SCENE_HEADER}
    check(SCENE_HEADER, header, fail=lambda msg, i: cur.fail(msg, 8 + 4 * i))
    k, l, h, w, f0, t, scene_id = header.values()
    if message := PIXEL_ROWS.violation("pixel rows L*H*W", l * h * w):
        raise cur.fail(message, 12)
    points = cur.finite("float32", k * 4, "points").reshape(k, 4)
    label_offset = cur.pos
    point_labels = cur.array("uint16", k, "point labels")
    cur.reject(point_labels, point_labels >= t, label_offset,
               f"point label {{}} not below T={t}")
    cams = []
    # each camera's sections are read into its row of one array per field,
    # allocated only once the rest of the file can hold every camera's
    # sections, so a damaged header cannot ask for more memory than the
    # file holds.  A shorter file is read into new arrays, section by
    # section, and fails at the first section it lacks.
    fits = cur.remaining() >= l * (80 + h * w * (4 * f0 + 6))
    feats, sems, spixs = (
        np.empty((l, h * w * n), dtype) if fits else [None] * l
        for n, dtype in ((f0, np.float32), (1, np.uint16), (1, np.uint32))
    )
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
        except ConfigurationError as err:
            raise cur.fail(f"camera {idx} invalid: {err}", cam_offset) from err
        cams.append(cam)
        cur.finite("float32", h * w * f0, f"camera {idx} pixel_features", feats[idx])
        sem_offset = cur.pos
        sem = cur.array("uint16", h * w, f"camera {idx} semantic_raster", sems[idx])
        spix_offset = cur.pos
        spix = cur.array("uint32", h * w, f"camera {idx} superpixel_raster", spixs[idx])
        # ids index regions: one at or above H*W would size the region
        # table from a damaged byte, not from the raster
        assigned = spix != UNASSIGNED
        cur.reject(spix, assigned & (spix >= h * w), spix_offset,
                   f"camera {idx} superpixel_raster: id {{}} not below H*W={h * w}")
        # an unassigned pixel's class is never read
        cur.reject(sem, assigned & (sem >= t), sem_offset, f"camera {idx} semantic_raster: "
                   f"id {{}} on an assigned pixel not below T={t}")
    cur.expect_end("superpixel rasters")
    return SceneFrame(
        scene_id=scene_id,
        num_classes=int(t),
        points=points,
        point_labels=point_labels,
        cameras=cams,
        pixel_features=feats.reshape(l, h, w, f0),
        semantic_raster=sems.reshape(l, h, w),
        superpixel_raster=spixs.reshape(l, h, w),
    )
