"""Point-to-pixel projection and superpixel/superpoint association.

``build_associations`` turns one SceneFrame into an AssociationTable: every
point is projected into every camera, claimed by the lowest-index camera
with a valid projection, and grouped under the superpixel covering its
pixel there.  Superpixel ids are global across cameras (camera 0's ids
first, then camera 1 shifted, and so on).  Points are grouped by
superpixel, and each camera's pixels by local id, with one stable sort
and split each, so the indices inside a superpixel ascend.  The trainer
turns each superpixel into one row of the step's embedding bank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenegen import UNASSIGNED, CameraModel, SceneFrame


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
class Superpixel:
    """One region: its pixels, the points it claims, and its class."""

    camera: int
    pixel_indices: np.ndarray  # flat offsets into the camera raster
    point_indices: np.ndarray  # indices into the frame's point array
    semantic_sign: int


@dataclass
class AssociationTable:
    """Global superpixel list over one frame's cameras."""

    superpixels: list[Superpixel]

    @property
    def Q(self) -> int:
        return len(self.superpixels)


def _majority_sign(class_values: np.ndarray) -> int:
    # ties break toward the smallest class id (argmax returns the first max)
    counts = np.bincount(class_values.astype(np.int64))
    return int(np.argmax(counts))


def _groups(keys: np.ndarray, items: np.ndarray, n: int) -> list[np.ndarray]:
    """``items`` split by ``keys`` into groups 0..n-1, each in ``items`` order.

    Every key must lie in [0, n); a key no item carries gets an empty group.
    """
    order = np.argsort(keys, kind="stable")
    bounds = np.cumsum(np.bincount(keys, minlength=n))[:-1]
    return np.split(items[order], bounds)[:n]  # split gives one group at n == 0


def build_associations(frame: SceneFrame) -> AssociationTable:
    """Associate every point with at most one superpixel across all cameras.

    The lowest-index camera with a valid projection claims the point; a
    point whose claimed pixel carries no superpixel is dropped outright.
    Superpixels that end up with no points are kept, with no point indices.
    Point and pixel indices are ascending inside each superpixel.
    """
    k = frame.num_points
    l = frame.num_cameras
    world = frame.points[:, :3].astype(np.float64)

    rows = np.empty((l, k), dtype=np.int64)
    cols = np.empty((l, k), dtype=np.int64)
    ok = np.empty((l, k), dtype=bool)
    for c, cam in enumerate(frame.cameras):
        rows[c], cols[c], ok[c] = project_points(world, cam)

    # per-camera local superpixel counts -> global id offsets
    q_cam = []
    for c in range(l):
        spix = frame.superpixel_raster[c]
        assigned = spix[spix != UNASSIGNED]
        q_cam.append(int(assigned.max()) + 1 if assigned.size else 0)
    offsets = np.concatenate([[0], np.cumsum(q_cam)]).astype(np.int64)

    # claim: first camera whose projection is valid; unassigned cell drops
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

    superpixels: list[Superpixel] = []
    for c in range(l):
        spix = spix_flat[c]
        sem = frame.semantic_raster[c].reshape(-1)
        flat_idx = np.flatnonzero(spix != UNASSIGNED)
        pixels = _groups(spix[flat_idx], flat_idx, q_cam[c])
        for pix, points in zip(pixels, members[offsets[c] : offsets[c + 1]]):
            superpixels.append(
                Superpixel(
                    camera=c,
                    pixel_indices=pix,
                    point_indices=points,
                    semantic_sign=_majority_sign(sem[pix]) if pix.size else 0,
                )
            )

    return AssociationTable(superpixels=superpixels)
