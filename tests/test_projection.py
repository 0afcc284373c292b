"""Projection and association against hand-rolled oracles."""

from dataclasses import replace

import numpy as np
import pytest

from scenecontrast.projection import (
    AssociationTable,
    build_associations,
    project_points,
)
from scenecontrast.scenegen import (
    UNASSIGNED,
    CameraModel,
    SceneFrame,
    SceneGeometry,
    SemanticOracleConfig,
    generate_scene,
)
from scenecontrast.trainer import prepare_frame

from conftest import SMALL_CFG, SMALL_GEOM
from fdutil import per_camera_associations, pinhole_reference


def identity_cam(fx=4.0, fy=4.0, cx=4.0, cy=4.0, size=8) -> CameraModel:
    return CameraModel(
        fx=fx, fy=fy, cx=cx, cy=cy,
        world_to_cam=np.eye(4), width=size, height=size,
    )


def make_frame(points, cameras, sems, spixs, num_classes=4) -> SceneFrame:
    l = len(cameras)
    h, w = sems[0].shape
    pts = np.asarray(points, dtype=np.float32)
    return SceneFrame(
        scene_id=0,
        num_classes=num_classes,
        points=pts,
        point_labels=np.zeros(len(pts), dtype=np.uint16),
        cameras=cameras,
        pixel_features=np.zeros((l, h, w, 2), dtype=np.float32),
        semantic_raster=np.stack(sems).astype(np.uint16),
        superpixel_raster=np.stack(spixs).astype(np.uint32),
    )


# ---------------------------------------------------------------------------
# project_points on hand-computed cases, and the scalar oracle on the same


def projected(xyz, cam):
    """(row, col) from project_points and from the oracle; asserts they agree."""
    rows, cols, ok = project_points(np.array([xyz], dtype=np.float64), cam)
    got = (int(rows[0]), int(cols[0])) if ok[0] else None
    assert got == pinhole_reference(xyz, cam)
    return got


def test_principal_point_ray():
    cam = CameraModel(1.0, 1.0, 32.0, 32.0, np.eye(4), 64, 64)
    assert projected((0.0, 0.0, 1.0), cam) == (32, 32)


def test_behind_camera_is_none():
    cam = CameraModel(1.0, 1.0, 32.0, 32.0, np.eye(4), 64, 64)
    assert projected((0.0, 0.0, -1.0), cam) is None
    assert projected((0.0, 0.0, 0.0), cam) is None  # z == 0 excluded too


def test_hand_pinhole_evaluation():
    # row = 100*1/2 + 240 = 290, col = 100*2/2 + 320 = 420
    cam = CameraModel(100.0, 100.0, 320.0, 240.0, np.eye(4), 640, 480)
    assert projected((2.0, 1.0, 2.0), cam) == (290, 420)


def test_rounding_ties_to_even():
    cam = CameraModel(1.0, 1.0, 2.0, 2.0, np.eye(4), 8, 8)
    assert projected((0.5, 0.0, 1.0), cam) == (2, 2)  # 2.5 -> 2
    assert projected((1.5, 0.0, 1.0), cam) == (2, 4)  # 3.5 -> 4


def test_out_of_bounds_is_none():
    cam = CameraModel(4.0, 4.0, 4.0, 4.0, np.eye(4), 8, 8)
    assert projected((10.0, 0.0, 1.0), cam) is None


def test_agrees_with_reference_pinhole(small_scene):
    pts = small_scene.points[:, :3].astype(np.float64)
    for cam in small_scene.cameras:
        rows, cols, ok = project_points(pts, cam)
        for k in range(len(pts)):
            ref = pinhole_reference(pts[k], cam)
            if ref is None:
                assert not ok[k]
            else:
                assert ok[k] and ref == (int(rows[k]), int(cols[k]))


# ---------------------------------------------------------------------------
# association oracle


def camera_offsets(frame: SceneFrame) -> np.ndarray:
    """Each camera's first global superpixel id, then the total count."""
    q_cam = []
    for spix in frame.superpixel_raster:
        a = spix[spix != UNASSIGNED]
        q_cam.append(int(a.max()) + 1 if a.size else 0)
    return np.concatenate([[0], np.cumsum(q_cam)]).astype(int)


def camera_and_raster_ids(frame: SceneFrame, table: AssociationTable) -> list[tuple[int, int]]:
    """Each superpixel's camera and its id in that camera's raster, from its global id."""
    offsets = camera_offsets(frame)
    cams = np.searchsorted(offsets, np.arange(table.Q), side="right") - 1
    return [(int(c), g - int(offsets[c])) for g, c in enumerate(cams)]


def brute_force_associations(frame: SceneFrame):
    """Independent double loop over (point, camera); returns maps to compare."""
    l = frame.num_cameras
    offsets = camera_offsets(frame)
    members = {g: [] for g in range(int(offsets[-1]))}
    p2p = [dict() for _ in range(l)]
    for k in range(frame.num_points):
        claimed = False
        for c in range(l):
            hit = pinhole_reference(frame.points[k, :3], frame.cameras[c])
            if hit is None:
                continue
            r, col = hit
            p2p[c][k] = (r, col)
            if not claimed:
                claimed = True
                sp = frame.superpixel_raster[c][r, col]
                if sp != UNASSIGNED:
                    members[int(offsets[c]) + int(sp)].append(k)
    return p2p, members, offsets


def assert_matches_oracle(frame: SceneFrame, table: AssociationTable):
    p2p, members, offsets = brute_force_associations(frame)
    assert table.Q == int(offsets[-1])
    # the projection maps the association is built from
    for c, cam in enumerate(frame.cameras):
        rows, cols, ok = project_points(frame.points[:, :3], cam)
        seen = {int(i): (int(rows[i]), int(cols[i])) for i in np.flatnonzero(ok)}
        assert seen == p2p[c], f"camera {c}"
    for g in range(table.Q):
        got = table.superpixels[g].point_indices.tolist()
        assert got == sorted(members[g]), f"superpixel {g}"
    # pixel sets, as offsets into the frame's rasters, and signs from the rasters
    _, h, w = frame.superpixel_raster.shape
    for sp, (cam, raster_id) in zip(table.superpixels, camera_and_raster_ids(frame, table)):
        raster = frame.superpixel_raster[cam].ravel()
        expect = cam * h * w + np.flatnonzero(raster == raster_id)
        assert sp.pixel_indices.dtype == np.int64
        assert np.array_equal(sp.pixel_indices, expect)
        sems = frame.semantic_raster.ravel()[expect]
        counts = np.bincount(sems.astype(int))
        assert sp.semantic_sign == int(np.argmax(counts))


def test_association_oracle(small_scene):
    assert_matches_oracle(small_scene, build_associations(small_scene))


def test_association_oracle_second_seed():
    frame = generate_scene(11, SMALL_CFG, SMALL_GEOM, scene_id=1)
    assert_matches_oracle(frame, build_associations(frame))


def test_partition_disjoint(small_scene):
    table = build_associations(small_scene)
    seen = np.zeros(small_scene.num_points, dtype=int)
    for sp in table.superpixels:
        seen[sp.point_indices] += 1
    assert seen.max() <= 1


def test_single_camera_partitions_visible_points(small_scene):
    # restrict the frame to camera 0 only
    frame = SceneFrame(
        scene_id=0,
        num_classes=small_scene.num_classes,
        points=small_scene.points,
        point_labels=small_scene.point_labels,
        cameras=small_scene.cameras[:1],
        pixel_features=small_scene.pixel_features[:1],
        semantic_raster=small_scene.semantic_raster[:1],
        superpixel_raster=small_scene.superpixel_raster[:1],
    )
    table = build_associations(frame)
    associated = sum(len(sp.point_indices) for sp in table.superpixels)
    _, _, ok = project_points(frame.points[:, :3], frame.cameras[0])
    # every visible point lands on an assigned pixel in this generator
    assert associated == int(ok.sum())


def test_visibility_soundness(small_scene):
    table = build_associations(small_scene)
    ids = camera_and_raster_ids(small_scene, table)
    for sp, (c, _) in zip(table.superpixels, ids):
        cam = small_scene.cameras[c]
        for k in sp.point_indices:
            assert pinhole_reference(small_scene.points[k, :3], cam) is not None


def test_permutation_stability(small_scene):
    rng = np.random.default_rng(5)
    perm = rng.permutation(small_scene.num_points)
    shuffled = SceneFrame(
        scene_id=0,
        num_classes=small_scene.num_classes,
        points=small_scene.points[perm],
        point_labels=small_scene.point_labels[perm],
        cameras=small_scene.cameras,
        pixel_features=small_scene.pixel_features,
        semantic_raster=small_scene.semantic_raster,
        superpixel_raster=small_scene.superpixel_raster,
    )
    base = build_associations(small_scene)
    table = build_associations(shuffled)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    for sp_a, sp_b in zip(base.superpixels, table.superpixels):
        assert np.array_equal(np.sort(inv[sp_a.point_indices]), sp_b.point_indices)


def test_first_camera_wins_and_unassigned_drops():
    # two identical cameras; every point visible in both; camera 0 claims all
    cam0 = identity_cam()
    cam1 = identity_cam()
    sem = np.zeros((8, 8), dtype=np.uint16)
    spix0 = np.zeros((8, 8), dtype=np.uint32)
    spix0[0, :] = np.uint32(0xFFFFFFFF)  # top row unassigned in camera 0
    spix1 = np.ones((8, 8), dtype=np.uint32) * 0
    # points: one lands at pixel (4,4); one lands on camera-0's unassigned row
    pts = [
        [0.0, 0.0, 2.0, 0.5],  # -> (4,4)
        [0.0, -2.0, 2.0, 0.5],  # row = 4*(-1)+4 = 0 -> unassigned in cam 0
    ]
    frame = make_frame(pts, [cam0, cam1], [sem, sem], [spix0, spix1])
    table = build_associations(frame)
    # both cameras see both points
    for cam in frame.cameras:
        _, _, ok = project_points(frame.points[:, :3], cam)
        assert ok.tolist() == [True, True]
    claimed = {k for sp in table.superpixels for k in sp.point_indices.tolist()}
    # point 0 claimed by camera 0's superpixel; point 1 dropped outright
    # (no fall-through to camera 1)
    assert claimed == {0}
    assert camera_and_raster_ids(frame, table)[0] == (0, 0)
    assert 0 in table.superpixels[0].point_indices


def test_empty_superpixels_flagged():
    cam = identity_cam()
    sem = np.zeros((8, 8), dtype=np.uint16)
    sem[:, 4:] = 1
    spix = np.zeros((8, 8), dtype=np.uint32)
    spix[:, 4:] = 1
    # single point lands in superpixel 0; superpixel 1 stays empty
    frame = make_frame([[-0.5, 0.0, 2.0, 0.1]], [cam], [sem], [spix])
    table = build_associations(frame)
    assert table.Q == 2
    assert table.superpixels[0].point_indices.tolist() == [0]
    assert len(table.superpixels[1].point_indices) == 0
    assert [q for q, sp in enumerate(table.superpixels) if len(sp.point_indices)] == [0]


def test_camera_without_superpixels_adds_none():
    # camera 0's raster is all unassigned, so camera 1 owns every superpixel;
    # camera 0 still claims the point first, which therefore drops
    cam = identity_cam()
    sem = np.zeros((8, 8), dtype=np.uint16)
    none = np.full((8, 8), UNASSIGNED, dtype=np.uint32)
    one = np.zeros((8, 8), dtype=np.uint32)
    frame = make_frame([[0.0, 0.0, 2.0, 0.5]], [cam, cam], [sem, sem], [none, one])
    table = build_associations(frame)
    assert camera_and_raster_ids(frame, table) == [(1, 0)]
    assert table.superpixels[0].pixel_indices.tolist() == list(range(64, 128))
    assert len(table.superpixels[0].point_indices) == 0
    assert_matches_oracle(frame, table)


def test_one_superpixel_per_region_id(small_scene):
    table = build_associations(small_scene)
    want = []
    for c in range(small_scene.num_cameras):
        spix = small_scene.superpixel_raster[c]
        want += [(c, int(i)) for i in np.unique(spix[spix != UNASSIGNED])]
    assert camera_and_raster_ids(small_scene, table) == want
    assert table.Q == len(want)


# ---------------------------------------------------------------------------
# prepare_frame against the per-camera association, array for array

GEOMETRIES = {
    "desk": (SemanticOracleConfig(), SceneGeometry()),
    "ablation": (
        SemanticOracleConfig(num_classes=6, objects_per_scene=5, noise=0.25),
        SceneGeometry(num_points=768, height=32, width=32),
    ),
    "region-dense": (
        SemanticOracleConfig(num_classes=12, objects_per_scene=5,
                             oversegment_factor=32, noise=0.1),
        SceneGeometry(num_points=256, height=32, width=32),
    ),
    "3cam-20x24": (SMALL_CFG, SceneGeometry(num_points=384, num_cameras=3, height=20, width=24)),
    "1x32": (SMALL_CFG, SceneGeometry(num_points=256, num_cameras=1, height=1, width=32)),
}


def assert_matches_per_camera(frame: SceneFrame):
    fd = prepare_frame(frame)
    groups2d, groups3d, signs = per_camera_associations(frame)
    for got, want in ((fd.regions2d, groups2d), (fd.regions3d, groups3d)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
    assert fd.signs.dtype == signs.dtype and np.array_equal(fd.signs, signs)


@pytest.mark.parametrize("name", GEOMETRIES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prepare_frame_matches_per_camera_reference(name, seed):
    cfg, geom = GEOMETRIES[name]
    assert_matches_per_camera(generate_scene(seed, cfg, geom, scene_id=seed))


@pytest.mark.parametrize("blank", [[1], [0, 1, 2]], ids=["one-camera", "every-camera"])
def test_prepare_frame_matches_per_camera_reference_unassigned(blank):
    cfg, geom = GEOMETRIES["3cam-20x24"]
    frame = generate_scene(4, cfg, geom, scene_id=0)
    spix = frame.superpixel_raster.copy()
    spix[blank] = UNASSIGNED
    frame = replace(frame, superpixel_raster=spix)
    assert len(prepare_frame(frame).regions2d) == camera_offsets(frame)[-1]
    assert_matches_per_camera(frame)
