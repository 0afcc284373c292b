"""Scene generator: determinism, region structure, label coverage."""

import numpy as np
import pytest
from scipy import ndimage

from scenecontrast import scenegen
from scenecontrast.errors import ConfigurationError
from scenecontrast.scenegen import (
    UNASSIGNED,
    CameraModel,
    SceneGeometry,
    SemanticOracleConfig,
    _look_at,
    _pixel_rays,
    _Primitive,
    _raster_scene,
    _ring_cameras,
    connected_regions,
    generate_scene,
    read_scene,
    write_scene,
)
from scenecontrast.trainer import SceneSet, TrainConfig, pretrain

from conftest import SMALL_CFG, SMALL_GEOM
from fdutil import (
    pinhole_reference,
    recover_point_labels,
    reference_hit,
    reference_raster_scene,
    reference_regions,
    reference_segment,
    scene_bytes,
)

FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


def oracle_regions(sem: np.ndarray, assigned: np.ndarray) -> set[frozenset]:
    """Independent connected-component pass (scipy), as pixel-index sets."""
    out = set()
    for cls in np.unique(sem[assigned]):
        mask = (sem == cls) & assigned
        lab, n = ndimage.label(mask, structure=FOUR_CONN)
        for i in range(1, n + 1):
            out.add(frozenset(np.flatnonzero((lab == i).ravel()).tolist()))
    return out


def spix_groups(spix: np.ndarray) -> dict[int, frozenset]:
    flat = spix.ravel()
    groups = {}
    for q in np.unique(flat[flat != UNASSIGNED]):
        groups[int(q)] = frozenset(np.flatnonzero(flat == q).tolist())
    return groups


def test_determinism_bitwise(small_scene):
    again = generate_scene(7, SMALL_CFG, SMALL_GEOM, scene_id=0)
    assert scene_bytes(small_scene) == scene_bytes(again)


def test_different_seeds_differ():
    a = generate_scene(1, SMALL_CFG, SMALL_GEOM)
    b = generate_scene(2, SMALL_CFG, SMALL_GEOM)
    assert scene_bytes(a) != scene_bytes(b)


def test_semantic_purity(small_scene):
    for cam in range(small_scene.num_cameras):
        sem = small_scene.semantic_raster[cam]
        spix = small_scene.superpixel_raster[cam]
        for q, pixels in spix_groups(spix).items():
            idx = np.array(sorted(pixels))
            assert len(np.unique(sem.ravel()[idx])) == 1


def test_superpixel_ids_dense(small_scene):
    for cam in range(small_scene.num_cameras):
        spix = small_scene.superpixel_raster[cam]
        ids = np.unique(spix[spix != UNASSIGNED])
        assert ids.min() == 0
        assert np.array_equal(ids, np.arange(len(ids)))


def test_no_oversegment_matches_region_count(small_scene):
    # oversegment_factor=1: one superpixel per connected region
    for cam in range(small_scene.num_cameras):
        sem = small_scene.semantic_raster[cam]
        spix = small_scene.superpixel_raster[cam]
        oracle = oracle_regions(sem, spix != UNASSIGNED)
        got = set(spix_groups(spix).values())
        assert got == oracle


def test_oversegment_splits_each_region():
    cfg = SemanticOracleConfig(num_classes=6, objects_per_scene=5, oversegment_factor=3)
    frame = generate_scene(7, cfg, SMALL_GEOM)
    for cam in range(frame.num_cameras):
        sem = frame.semantic_raster[cam]
        spix = frame.superpixel_raster[cam]
        groups = spix_groups(spix)
        for region in oracle_regions(sem, spix != UNASSIGNED):
            inside = [q for q, g in groups.items() if g <= region]
            covered = set().union(*(groups[q] for q in inside)) if inside else set()
            assert covered == region
            assert len(inside) == min(3, len(region))
        # no superpixel straddles two regions
        for g in groups.values():
            assert any(g <= region for region in oracle_regions(sem, spix != UNASSIGNED))


def test_every_used_class_rastered(small_scene):
    labels = recover_point_labels(small_scene)
    rastered = set()
    for cam in range(small_scene.num_cameras):
        spix = small_scene.superpixel_raster[cam]
        rastered |= set(
            np.unique(small_scene.semantic_raster[cam][spix != UNASSIGNED]).tolist()
        )
    assert set(np.unique(labels).tolist()) <= rastered


def test_coverage_invariant(small_scene):
    """Every point lands on an own-class pixel in every camera that sees it."""
    labels = recover_point_labels(small_scene)
    for k in range(small_scene.num_points):
        p = small_scene.points[k, :3]
        seen = 0
        for cam_idx, cam in enumerate(small_scene.cameras):
            hit = pinhole_reference(p, cam)
            if hit is None:
                continue
            seen += 1
            r, c = hit
            assert small_scene.superpixel_raster[cam_idx][r, c] != UNASSIGNED
            assert small_scene.semantic_raster[cam_idx][r, c] == labels[k]
        assert seen >= 1


def test_point_fields(small_scene):
    pts = small_scene.points
    assert pts.dtype == np.float32
    assert np.isfinite(pts).all()
    assert (pts[:, 3] >= 0).all() and (pts[:, 3] <= 1).all()


def test_point_classes_balanced(small_scene):
    """Per-class quotas: counts of present classes differ by at most one."""
    labels = recover_point_labels(small_scene)
    counts = np.bincount(labels)
    present = counts[counts > 0]
    assert present.max() - present.min() <= 1
    assert present.sum() == len(small_scene.points)


def test_stored_labels_match_raster_recovery(small_scene):
    # without noise the rasters are truthful, so reading a point's class
    # off any covering camera must reproduce the stored ground truth
    assert small_scene.point_labels.dtype == np.uint16
    recovered = recover_point_labels(small_scene)
    assert np.array_equal(recovered, small_scene.point_labels.astype(np.int64))


def test_camera_invariants(small_scene):
    for cam in small_scene.cameras:
        cam.validate()
        r = cam.world_to_cam[:3, :3]
        assert abs(np.linalg.det(r) - 1.0) < 1e-5


@pytest.mark.parametrize("height,width", [(1, 1), (1, 7), (9, 2), (16, 16), (48, 64)])
def test_ring_cameras_are_valid_by_construction(height, width):
    rng = np.random.default_rng(height * 100 + width)
    for num_cameras in range(1, 9):
        geom = SceneGeometry(num_points=1, num_cameras=num_cameras, height=height, width=width)
        cams = _ring_cameras(geom, rng)
        assert len(cams) == num_cameras
        for cam in cams:
            cam.validate()
            assert (cam.height, cam.width) == (height, width)


def test_noise_flips_whole_regions():
    noisy_cfg = SemanticOracleConfig(
        num_classes=6, objects_per_scene=5, noise=0.3
    )
    clean = generate_scene(7, SMALL_CFG, SMALL_GEOM)
    noisy = generate_scene(7, noisy_cfg, SMALL_GEOM)
    # structure (superpixels, points, features) is built before the flips
    assert np.array_equal(clean.superpixel_raster, noisy.superpixel_raster)
    assert np.array_equal(clean.points, noisy.points)
    assert np.array_equal(clean.point_labels, noisy.point_labels)
    assert np.array_equal(clean.pixel_features, noisy.pixel_features)
    # each region is flipped coherently or left alone, and a flip moves
    # every one of its pixels to the same different class
    flipped = total = 0
    for cam in range(len(clean.cameras)):
        spix = clean.superpixel_raster[cam]
        for rid in np.unique(spix[spix != UNASSIGNED]):
            mask = spix == rid
            before = np.unique(clean.semantic_raster[cam][mask])
            after = np.unique(noisy.semantic_raster[cam][mask])
            assert len(before) == 1 and len(after) == 1  # purity survives
            total += 1
            if after[0] != before[0]:
                flipped += 1
    assert 0 < flipped < total
    assert abs(flipped / total - 0.3) < 0.25  # loose binomial check


def test_invalid_configs_rejected():
    with pytest.raises(ConfigurationError):
        generate_scene(0, SemanticOracleConfig(num_classes=1), SMALL_GEOM)
    with pytest.raises(ConfigurationError):
        generate_scene(0, SemanticOracleConfig(objects_per_scene=0), SMALL_GEOM)
    with pytest.raises(ConfigurationError):
        generate_scene(0, SemanticOracleConfig(noise=1.0), SMALL_GEOM)
    with pytest.raises(ConfigurationError):
        generate_scene(0, SemanticOracleConfig(oversegment_factor=0), SMALL_GEOM)


@pytest.mark.parametrize("height,width", [(1, 32), (32, 1)])
def test_one_pixel_wide_raster_generates_reads_and_trains(tmp_path, height, width):
    """Generation, like the reader, takes a raster one pixel high or wide."""
    geom = SceneGeometry(num_points=64, height=height, width=width)
    frames = [generate_scene(s, SMALL_CFG, geom, scene_id=s) for s in range(4)]
    for f in frames:
        write_scene(f, tmp_path / f"{f.scene_id}.cscs")
    back = [read_scene(tmp_path / f"{s}.cscs") for s in range(4)]
    assert back[0].pixel_features.shape == (2, height, width, 8)
    cfg = TrainConfig(epochs=2, scenes_per_batch=2, embed_dim=8, lam=0)
    assert len(pretrain(SceneSet(back), cfg).metrics) > 1


def test_geometry_bounds_points_and_pixel_rows():
    # each bound is accepted exactly and rejected one past it
    bound = 1 << 24
    SceneGeometry(num_points=bound).validate()
    SceneGeometry(num_cameras=1, height=4096, width=4096).validate()
    with pytest.raises(ConfigurationError, match=f"num_points must be <= {bound}"):
        SceneGeometry(num_points=bound + 1).validate()
    with pytest.raises(
        ConfigurationError, match=rf"num_cameras \* height \* width must be <= {bound}"
    ):
        SceneGeometry(num_cameras=1, height=4096, width=4097).validate()


def test_too_many_objects_error():
    cfg = SemanticOracleConfig(num_classes=8, objects_per_scene=400)
    # at seed 0 the floor is full after 15 objects (at the CLI's seed 0, after 19)
    with pytest.raises(ConfigurationError, match="^could not place object 15: too many "
                       "objects for extent 4.0$"):
        generate_scene(0, cfg, SceneGeometry(num_points=64))


def oracle_region_list(values: np.ndarray, mask: np.ndarray) -> list[np.ndarray]:
    """The scipy oracle in ``connected_regions``'s order: by smallest pixel."""
    return [
        np.array(sorted(r), dtype=np.int64)
        for r in sorted(oracle_regions(values, mask), key=min)
    ]


def assert_same_regions(got: list[np.ndarray], want: list[np.ndarray], case="") -> None:
    assert len(got) == len(want), case
    for g, w in zip(got, want):
        assert g.dtype == np.int64, case
        assert np.array_equal(g, w), case


def serpentine(n: int) -> np.ndarray:
    """One value snaking through every other row, turning at alternate ends."""
    v = np.zeros((n, n), dtype=np.uint16)
    v[0::2] = 1
    for r in range(1, n, 2):
        v[r, -1 if r % 4 == 1 else 0] = 1
    return v


def comb(h: int, w: int) -> np.ndarray:
    """1s in every even column and along the last row; 0s between the teeth."""
    v = np.zeros((h, w), dtype=np.uint16)
    v[:, 0::2] = 1
    v[-1] = 1
    return v


def spiral(n: int) -> np.ndarray:
    """A one-pixel-wide inward spiral of 1s; the 0s spiral beside it."""
    v = np.zeros((n, n), dtype=np.uint16)
    r, c, dr, dc = 0, 0, 0, 1
    v[r, c] = 1

    def free(rr, cc):
        return 0 <= rr < n and 0 <= cc < n and v[rr, cc] == 0

    while True:
        for _ in range(2):
            ahead = free(r + dr, c + dc)
            # keep a one-pixel gap to the turn already laid
            gap = not (0 <= r + 2 * dr < n and 0 <= c + 2 * dc < n) or free(
                r + 2 * dr, c + 2 * dc
            )
            if ahead and gap:
                r, c = r + dr, c + dc
                v[r, c] = 1
                break
            dr, dc = dc, -dr  # turn right
        else:
            return v


def _raster_cases():
    """(name, values, mask) at the edges of ``connected_regions``'s contract."""
    rng = np.random.default_rng(3)

    def rand(h, w, k, density):
        values = rng.integers(0, k, size=(h, w)).astype(np.uint16)
        return values, rng.random((h, w)) < density

    yield ("random", *rand(10, 12, 3, 0.8))
    yield ("row", *rand(1, 17, 2, 0.9))
    yield ("column", *rand(17, 1, 2, 0.9))
    yield ("empty-mask", *rand(6, 5, 3, 0.0))
    yield ("full-mask", *rand(9, 7, 3, 1.0))
    yield "single-value", np.full((9, 7), 4, dtype=np.uint16), np.ones((9, 7), bool)
    yield "single-pixel", np.zeros((1, 1), dtype=np.uint16), np.ones((1, 1), bool)
    # long one-pixel-wide paths need many hook rounds
    yield "serpentine", serpentine(33), np.ones((33, 33), bool)
    yield "spiral", spiral(32), np.ones((32, 32), bool)
    yield "spiral-with-holes", spiral(32), rng.random((32, 32)) < 0.97
    # every row's runs above the last are one-pixel teeth, joined only there
    yield "comb", comb(9, 11), np.ones((9, 11), bool)
    # a hole cuts a row's run in two: apart on one row, rejoined around it
    hole = np.ones((3, 9), bool)
    hole[1, 4] = False
    yield "hole-in-run-row", np.full((1, 9), 2, dtype=np.uint16), hole[1:2]
    yield "hole-in-run", np.full((3, 9), 2, dtype=np.uint16), hole


def test_connected_regions_partition():
    for case, values, mask in _raster_cases():
        regions = connected_regions(values, mask)
        flat_all = np.concatenate(regions) if regions else np.empty(0, dtype=np.int64)
        assert len(flat_all) == int(mask.sum()), case
        assert len(np.unique(flat_all)) == len(flat_all), case
        assert_same_regions(regions, oracle_region_list(values, mask), case)
    # the long paths really are one component each
    for values in (serpentine(33), spiral(32)):
        (path,) = connected_regions(values, values > 0)
        assert len(path) == int(values.sum())


def test_edge_rasters_match_reference_bfs():
    for case, values, mask in _raster_cases():
        assert_same_regions(
            connected_regions(values, mask), reference_regions(values, mask), case
        )


def test_connected_regions_match_reference_bfs():
    rng = np.random.default_rng(11)
    for _ in range(400):
        h, w = rng.integers(1, 20, size=2)
        values = rng.integers(0, rng.integers(1, 5), size=(h, w)).astype(np.uint16)
        mask = rng.random((h, w)) < rng.random()
        assert_same_regions(
            connected_regions(values, mask), reference_regions(values, mask)
        )


@pytest.mark.parametrize(
    "cfg,geom,seeds",
    [
        (SemanticOracleConfig(), SceneGeometry(), (0, 5)),
        (
            SemanticOracleConfig(
                num_classes=6, objects_per_scene=5, oversegment_factor=3, noise=0.25
            ),
            SMALL_GEOM,
            (1, 4, 9),
        ),
    ],
    ids=["desk", "small-oversegmented-noisy"],
)
def test_scene_bytes_match_reference_labelling(cfg, geom, seeds, tmp_path, monkeypatch):
    real = scenegen.connected_regions

    def checked(values, mask):
        # every labelling, not only the bytes it leads to, must match
        got = real(values, mask)
        assert_same_regions(got, reference_regions(values, mask))
        return got

    for seed in seeds:
        monkeypatch.setattr(scenegen, "connected_regions", checked)
        write_scene(generate_scene(seed, cfg, geom, scene_id=seed), tmp_path / "a.cscs")
        monkeypatch.setattr(scenegen, "connected_regions", reference_regions)
        write_scene(generate_scene(seed, cfg, geom, scene_id=seed), tmp_path / "b.cscs")
        assert (tmp_path / "a.cscs").read_bytes() == (tmp_path / "b.cscs").read_bytes()


# the generator's flags at each bench workload, plus camera counts and a
# non-square raster the bench does not use
GENERATOR_CASES = {
    "desk": (SemanticOracleConfig(), SceneGeometry(), (0, 5)),
    "ablation-frozen2d": (
        SemanticOracleConfig(num_classes=6, objects_per_scene=5, noise=0.25),
        SceneGeometry(num_points=768, height=32, width=32),
        (1, 2, 3),
    ),
    "region-dense": (
        SemanticOracleConfig(
            num_classes=12, objects_per_scene=5, oversegment_factor=32, noise=0.1
        ),
        SceneGeometry(num_points=256, height=32, width=32),
        (1, 2),
    ),
    "one-camera": (SemanticOracleConfig(), SceneGeometry(num_cameras=1), (3, 4)),
    "three-cameras-20x40": (
        SemanticOracleConfig(),
        SceneGeometry(num_cameras=3, height=20, width=40),
        (6, 7),
    ),
}


@pytest.mark.parametrize("case", list(GENERATOR_CASES))
def test_scene_bytes_match_reference_caster(case, tmp_path, monkeypatch):
    cfg, geom, seeds = GENERATOR_CASES[case]
    for seed in seeds:
        write_scene(generate_scene(seed, cfg, geom, scene_id=seed), tmp_path / "a.cscs")
        with monkeypatch.context() as patched:
            patched.setattr(scenegen, "_raster_scene", reference_raster_scene)
            patched.setattr(scenegen, "_segment", reference_segment)
            ref = generate_scene(seed, cfg, geom, scene_id=seed)
        write_scene(ref, tmp_path / "b.cscs")
        assert (tmp_path / "a.cscs").read_bytes() == (tmp_path / "b.cscs").read_bytes()


BOX = _Primitive("box", 1, np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.5, 1.0]), 1.2)
SPHERE = _Primitive("sphere", 2, np.array([0.5, -0.25, 1.0]), np.full(3, 0.75), 0.75)


def hand_built_rays(origin: np.ndarray) -> np.ndarray:
    """Unit directions with exactly zero (and negative zero) components,
    some in general position, and one towards each primitive's center."""
    comps = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0)
    dirs = np.array(
        [(x, y, z) for x in comps for y in comps for z in comps if (x, y, z) != (0, 0, 0)]
    )
    aimed = [p.center - origin for p in (BOX, SPHERE) if (p.center != origin).any()]
    dirs = np.concatenate([dirs, np.random.default_rng(5).normal(size=(64, 3)), aimed])
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


@pytest.mark.parametrize(
    "origin",
    [
        (-5.0, 0.5, 1.0),  # outside, on the box's y = hi slab plane
        (-1.0, -2.0, 3.0),  # outside, on the x = lo plane
        (1.0, 0.5, 2.0),  # on a corner, three planes at once
        (0.0, 0.0, 1.0),  # the box's center
        (0.25, -0.5, 0.5),  # inside, on the y = lo plane
        (0.5, -0.25, 1.75),  # on the sphere's surface
        (3.0, 2.0, 5.0),  # outside both
    ],
)
def test_hit_distances_match_reference_bitwise(origin):
    origin = np.array(origin)
    dirs = hand_built_rays(origin)
    rows = np.ascontiguousarray(dirs.T)
    with np.errstate(divide="ignore"):
        inv = 1.0 / rows
    for prim in (BOX, SPHERE):
        got = prim.hit(origin, dirs, inv)
        want = reference_hit(prim, origin, dirs)
        assert np.isfinite(want).any(), prim.kind
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), prim.kind


def test_ray_along_a_slab_plane_hits_the_box():
    # y direction 0 on the y = hi plane: that slab gives 0 * inf = NaN for
    # one bound, and the other two axes alone decide the hit
    inv = np.array([[1.0], [np.inf], [np.inf]])
    for origin, t in (((-5.0, 0.5, 1.0), 4.0), ((0.0, 0.5, 1.0), 1.0)):
        got = BOX.hit(np.array(origin), np.array([[1.0, 0.0, 0.0]]), inv)
        assert got.tolist() == [t]


def test_coincident_boxes_keep_the_first_class():
    center, half = np.array([0.0, 0.0, -1.0]), np.array([1.0, 0.8, 0.6])
    first = _Primitive("box", 3, center, half, 1.3)
    second = _Primitive("box", 5, center.copy(), half.copy(), 1.3)
    eye = np.array([4.0, 3.0, -0.5])  # below the ground plane: it is never hit
    r = _look_at(eye, center)
    m = np.eye(4)
    m[:3, :3], m[:3, 3] = r, -r @ eye
    cam = CameraModel(fx=16.0, fy=16.0, cx=8.0, cy=8.0, world_to_cam=m, width=16, height=16)
    dirs = _pixel_rays(cam)
    for prims, cls in (([first, second], 3), ([second, first], 5)):
        sem, dist, hit = _raster_scene(eye, dirs, prims)
        assert 0 < hit.sum() < hit.size
        assert (sem[hit] == cls).all() and (sem[~hit] == 0).all()
        ref_sem, ref_dist, ref_hit = reference_raster_scene(eye, dirs, prims)
        assert np.array_equal(sem, ref_sem) and np.array_equal(hit, ref_hit)
        assert np.array_equal(dist.view(np.uint64), ref_dist.view(np.uint64))
