"""Scene file format: byte-exact round trips and corruption handling."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scenecontrast.errors import SceneFormatError
from scenecontrast.scenegen import (
    UNASSIGNED,
    SceneGeometry,
    SemanticOracleConfig,
    generate_scene,
    read_scene,
    write_scene,
)
from scenecontrast.trainer import prepare_frame

from fdutil import scene_bytes

TINY = generate_scene(
    3,
    SemanticOracleConfig(num_classes=4, objects_per_scene=3),
    SceneGeometry(num_points=64, height=16, width=16),
    scene_id=9,
)


def test_round_trip_equality(tmp_path, small_scene):
    path = tmp_path / "scene.cscs"
    write_scene(small_scene, path)
    back = read_scene(path)
    assert scene_bytes(back) == path.read_bytes()
    for name in ("points", "point_labels", "pixel_features", "semantic_raster",
                 "superpixel_raster"):
        a, b = getattr(back, name), getattr(small_scene, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
    assert back.scene_id == small_scene.scene_id
    assert back.num_classes == small_scene.num_classes


def test_write_read_write_identical_bytes(tmp_path, small_scene):
    p1 = tmp_path / "a.cscs"
    p2 = tmp_path / "b.cscs"
    write_scene(small_scene, p1)
    write_scene(read_scene(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_corrupted_magic(tmp_path):
    path = tmp_path / "scene.cscs"
    write_scene(TINY, path)
    data = bytearray(path.read_bytes())
    data[0] = ord("X")
    path.write_bytes(bytes(data))
    with pytest.raises(SceneFormatError, match="magic") as err:
        read_scene(path)
    assert err.value.offset == 0


def test_version_mismatch(tmp_path):
    path = tmp_path / "scene.cscs"
    write_scene(TINY, path)
    data = bytearray(path.read_bytes())
    data[4] = 99
    path.write_bytes(bytes(data))
    with pytest.raises(SceneFormatError, match="version") as err:
        read_scene(path)
    assert err.value.offset == 4


def test_truncated_mid_raster_names_section(tmp_path):
    path = tmp_path / "scene.cscs"
    write_scene(TINY, path)
    data = path.read_bytes()
    # cut inside camera 0's semantic raster
    header = 4 + 8 * 4
    points = TINY.num_points * 4 * 4
    labels = TINY.num_points * 2
    cam_fixed = 4 * 4 + 16 * 4
    feats = 16 * 16 * TINY.pixel_features.shape[3] * 4
    cut = header + points + labels + cam_fixed + feats + 7
    path.write_bytes(data[:cut])
    with pytest.raises(SceneFormatError, match="camera 0 semantic_raster") as err:
        read_scene(path)
    assert err.value.offset == cut - 7


def test_truncated_points(tmp_path):
    path = tmp_path / "scene.cscs"
    write_scene(TINY, path)
    path.write_bytes(path.read_bytes()[: 4 + 8 * 4 + 10])
    with pytest.raises(SceneFormatError, match="points"):
        read_scene(path)


def test_trailing_garbage(tmp_path):
    path = tmp_path / "scene.cscs"
    write_scene(TINY, path)
    path.write_bytes(path.read_bytes() + b"\x00\x01")
    with pytest.raises(SceneFormatError, match="trailing"):
        read_scene(path)


# byte offsets of TINY's sections (16x16 rasters, 2 cameras)
HEADER = 4 + 8 * 4
LABELS = HEADER + TINY.num_points * 4 * 4
CAM0 = LABELS + TINY.num_points * 2
FEATS0 = CAM0 + 4 * 4 + 16 * 4
F0 = TINY.pixel_features.shape[3]
SEM0 = FEATS0 + 16 * 16 * F0 * 4
SPIX0 = SEM0 + 16 * 16 * 2
CAM1 = SPIX0 + 16 * 16 * 4
SEM1 = CAM1 + 4 * 4 + 16 * 4 + 16 * 16 * F0 * 4
SPIX1 = SEM1 + 16 * 16 * 2


def write_patched(path, offset, value: bytes):
    write_scene(TINY, path)
    data = bytearray(path.read_bytes())
    data[offset : offset + len(value)] = value
    path.write_bytes(bytes(data))


@pytest.mark.parametrize(
    "offset,section",
    [
        (HEADER + 4 * 4 * 5 + 4 * 3, "points"),  # point 5's intensity
        (HEADER + 4 * 4 * 7 + 4 * 1, "points"),  # point 7's y
        (FEATS0 + 4 * 11, "camera 0 pixel_features"),
    ],
    ids=["intensity", "coordinate", "pixel-feature"],
)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_value_names_section_and_offset(tmp_path, offset, section, value):
    path = tmp_path / "scene.cscs"
    write_patched(path, offset, np.float32(value).astype("<f4").tobytes())
    with pytest.raises(SceneFormatError, match=f"non-finite value in {section}") as err:
        read_scene(path)
    assert err.value.offset == offset


def test_class_count_bounded_by_the_label_dtype(tmp_path):
    """T = 65536 is the most uint16 labels address; one more is rejected."""
    path = tmp_path / "scene.cscs"
    write_patched(path, 28, np.uint32(65536).astype("<u4").tobytes())
    assert read_scene(path).num_classes == 65536
    write_patched(path, 28, np.uint32(65537).astype("<u4").tobytes())
    message = "class count T must be <= 65536, got 65537"
    with pytest.raises(SceneFormatError, match=message) as err:
        read_scene(path)
    assert err.value.offset == 28


def _traced_read(path):
    """``read_scene(path)`` or its error, and the peak bytes numpy and
    Python allocated meanwhile."""
    tracemalloc.start()
    try:
        try:
            got = read_scene(path)
        except SceneFormatError as err:
            got = err
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_scene_peak_memory_is_bounded_by_the_file(tmp_path):
    # the file is held once and each section is copied once, into its array
    path = tmp_path / "big.cscs"
    geom = SceneGeometry(num_cameras=2, height=512, width=512)
    write_scene(generate_scene(1, SemanticOracleConfig(), geom), path)
    size = path.stat().st_size
    frame, peak = _traced_read(path)
    assert peak <= 2.6 * size, peak / size
    assert scene_bytes(frame) == path.read_bytes()


def test_damaged_feature_width_allocates_nothing_the_file_lacks(tmp_path):
    # F0 = 2^30 asks for 2^42 feature bytes per camera; the file holds none
    path = tmp_path / "scene.cscs"
    write_patched(path, 24, np.uint32(1 << 30).astype("<u4").tobytes())
    err, peak = _traced_read(path)
    assert isinstance(err, SceneFormatError)
    assert str(err).startswith("truncated while reading camera 0 pixel_features")
    assert err.offset == FEATS0
    assert peak <= 2 * path.stat().st_size, peak


@pytest.mark.parametrize(
    "patched,value,message,offset",
    [
        (8, (1 << 24) + 1, "point count K must be <= 16777216, got 16777217", 8),
        # H at offset 16; the product L*H*W is named at L's offset
        (16, 1 << 23, "pixel rows L\\*H\\*W must be <= 16777216, got 268435456", 12),
    ],
    ids=["points", "pixel-rows"],
)
def test_oversized_header_rejected_before_any_array(tmp_path, patched, value, message, offset):
    # without the bound the reader would fail later, at a truncated section
    path = tmp_path / "scene.cscs"
    write_patched(path, patched, np.uint32(value).astype("<u4").tobytes())
    with pytest.raises(SceneFormatError, match=message) as err:
        read_scene(path)
    assert err.value.offset == offset


@pytest.mark.parametrize(
    "camera,section", [(0, SPIX0), (1, SPIX1)], ids=["camera0", "camera1"]
)
def test_superpixel_id_not_below_raster_size(tmp_path, camera, section):
    assert TINY.superpixel_raster[camera].reshape(-1)[3] != UNASSIGNED
    path = tmp_path / "scene.cscs"
    offset = section + 4 * 3
    write_patched(path, offset, np.uint32(16 * 16).astype("<u4").tobytes())
    with pytest.raises(SceneFormatError, match=f"camera {camera} superpixel") as err:
        read_scene(path)
    assert err.value.offset == offset
    # the largest id that fits is accepted
    write_patched(path, offset, np.uint32(16 * 16 - 1).astype("<u4").tobytes())
    assert read_scene(path).superpixel_raster[camera].reshape(-1)[3] == 255


def _rotation_row_negated(m):
    m[0, :3] *= -1  # still orthonormal, but a reflection
    return m


def _scaled(m):
    m[0, 0] *= 2.0
    return m


def _last_row(m):
    m[3, 0] = 1.0
    return m


def _non_finite(m):
    m[1, 3] = np.nan
    return m


@pytest.mark.parametrize(
    "intrinsics,world_to_cam,message",
    [
        ({0: -1.0}, None, "focal lengths must be positive and finite"),
        ({1: np.nan}, None, "focal lengths must be positive and finite"),
        ({0: np.inf}, None, "focal lengths must be positive and finite"),
        ({2: 16.0}, None, "principal point outside the raster"),
        ({3: -0.5}, None, "principal point outside the raster"),
        ({}, _non_finite, "world_to_cam has non-finite entries"),
        ({}, _scaled, "rotation block is not orthonormal"),
        ({}, _rotation_row_negated, "rotation block must have det \\+1"),
        ({}, _last_row, "last row of world_to_cam must be \\[0,0,0,1\\]"),
    ],
    ids=["fx-negative", "fy-nan", "fx-inf", "cx-at-width", "cy-negative",
         "non-finite", "not-orthonormal", "reflection", "last-row"],
)
@pytest.mark.parametrize("camera,block", [(0, CAM0), (1, CAM1)], ids=["camera0", "camera1"])
def test_invalid_camera_block_names_the_camera_and_its_offset(
    tmp_path, camera, block, intrinsics, world_to_cam, message
):
    """Every rejection of CameraModel.validate a file can reach; a 4x4
    shape cannot be written wrong, since the reader reshapes 16 floats."""
    cam = TINY.cameras[camera]
    intr = np.array([cam.fx, cam.fy, cam.cx, cam.cy], dtype=np.float32)
    for i, value in intrinsics.items():
        intr[i] = value
    m = np.array(cam.world_to_cam, dtype=np.float32)
    if world_to_cam is not None:
        m = world_to_cam(m)
    path = tmp_path / "scene.cscs"
    write_patched(path, block, intr.astype("<f4").tobytes() + m.astype("<f4").tobytes())
    with pytest.raises(SceneFormatError, match=f"camera {camera} invalid: {message}") as err:
        read_scene(path)
    assert err.value.offset == block


def test_point_label_out_of_class_range_names_its_offset(tmp_path):
    path = tmp_path / "scene.cscs"
    offset = LABELS + 2 * 5  # point 5's label; T is 4
    write_patched(path, offset, np.uint16(4).astype("<u2").tobytes())
    with pytest.raises(SceneFormatError, match="point label 4 not below T=4") as err:
        read_scene(path)
    assert err.value.offset == offset


@pytest.mark.parametrize(
    "camera,sem,spix", [(0, SEM0, SPIX0), (1, SEM1, SPIX1)], ids=["camera0", "camera1"]
)
def test_semantic_id_out_of_class_range_names_its_offset(tmp_path, camera, sem, spix):
    pixel = 7
    assert TINY.superpixel_raster[camera].reshape(-1)[pixel] != UNASSIGNED
    path = tmp_path / "scene.cscs"
    offset = sem + 2 * pixel
    write_patched(path, offset, np.uint16(4).astype("<u2").tobytes())
    with pytest.raises(
        SceneFormatError, match=f"camera {camera} semantic_raster: id 4 on an assigned"
    ) as err:
        read_scene(path)
    assert err.value.offset == offset
    # once the pixel is unassigned its class is never read, so any value passes
    data = bytearray(path.read_bytes())
    data[spix + 4 * pixel : spix + 4 * pixel + 4] = UNASSIGNED.astype("<u4").tobytes()
    path.write_bytes(bytes(data))
    assert read_scene(path).semantic_raster[camera].reshape(-1)[pixel] == 4


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_fuzzed_corruption_raises_cleanly(tmp_path_factory, data):
    """Any truncation or byte flip either raises SceneFormatError or reads
    back into a scene the trainer can prepare, with at most one region per
    raster cell."""
    path = tmp_path_factory.mktemp("fuzz") / "scene.cscs"
    write_scene(TINY, path)
    blob = bytearray(path.read_bytes())
    mode = data.draw(st.sampled_from(["truncate", "flip"]))
    if mode == "truncate":
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        blob = blob[:cut]
    else:
        pos = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        blob[pos] ^= data.draw(st.integers(min_value=1, max_value=255))
    path.write_bytes(bytes(blob))
    try:
        frame = read_scene(path)
    except SceneFormatError as err:
        assert 0 <= err.offset <= len(blob)
        return
    fd = prepare_frame(frame)
    assert len(fd.signs) == len(fd.regions2d) <= frame.superpixel_raster.size
    assert np.isfinite(fd.x2d).all() and np.isfinite(fd.x3d).all()
