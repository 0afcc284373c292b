"""Point-to-pixel projection and superpixel/superpoint association.

``build_associations`` turns one SceneFrame into an AssociationTable: every
point is projected into every camera, claimed by the lowest-index camera
with a valid projection, and grouped under the superpixel covering its
pixel there.  Superpixel ids are global across cameras (camera 0's ids
first, then camera 1 shifted, and so on).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenegen import UNASSIGNED, CameraModel, Point, SceneFrame


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


def project_point(p, cam: CameraModel) -> tuple[int, int] | None:
    """Scalar projection of a Point (or any (x,y,z) triple); None if unseen."""
    if isinstance(p, Point):
        xyz = np.array([p.x, p.y, p.z])
    else:
        xyz = np.asarray(p, dtype=np.float64)[:3]
    rows, cols, ok = project_points(xyz[None, :], cam)
    if not ok[0]:
        return None
    return int(rows[0]), int(cols[0])


@dataclass
class Superpixel:
    """One region: its pixels, the points it claims, and its class."""

    camera: int
    local_id: int
    pixel_indices: np.ndarray  # flat offsets into the camera raster
    point_indices: np.ndarray  # indices into the frame's point array
    semantic_sign: int

    @property
    def empty(self) -> bool:
        return len(self.point_indices) == 0


@dataclass
class AssociationTable:
    """Global superpixel list over one frame's cameras."""

    superpixels: list[Superpixel]
    num_points: int

    @property
    def Q(self) -> int:
        return len(self.superpixels)

    def valid_ids(self) -> list[int]:
        return [q for q, sp in enumerate(self.superpixels) if not sp.empty]


def _majority_sign(class_values: np.ndarray) -> int:
    # ties break toward the smallest class id (argmax returns the first max)
    counts = np.bincount(class_values.astype(np.int64))
    return int(np.argmax(counts))


def build_associations(frame: SceneFrame) -> AssociationTable:
    """Associate every point with at most one superpixel across all cameras.

    The lowest-index camera with a valid projection claims the point; a
    point whose claimed pixel carries no superpixel is dropped outright.
    Superpixels that end up with no points are kept but flagged empty.
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

    # group point indices by global superpixel id, ascending inside a group
    total_q = int(offsets[-1])
    members: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * total_q
    got = np.flatnonzero(claimed_q >= 0)
    order = np.lexsort((got, claimed_q[got]))
    sorted_pts = got[order]
    sorted_q = claimed_q[got][order]
    starts = np.searchsorted(sorted_q, np.arange(total_q))
    ends = np.searchsorted(sorted_q, np.arange(total_q), side="right")
    for q in range(total_q):
        members[q] = sorted_pts[starts[q] : ends[q]]

    superpixels: list[Superpixel] = []
    for c in range(l):
        spix = frame.superpixel_raster[c].reshape(-1)
        sem = frame.semantic_raster[c].reshape(-1)
        assigned = spix != UNASSIGNED
        flat_idx = np.flatnonzero(assigned)
        by_id = np.argsort(spix[flat_idx], kind="stable")
        ordered = flat_idx[by_id]
        ids = spix[ordered]
        starts_c = np.searchsorted(ids, np.arange(q_cam[c]))
        ends_c = np.searchsorted(ids, np.arange(q_cam[c]), side="right")
        for local_id in range(q_cam[c]):
            pix = ordered[starts_c[local_id] : ends_c[local_id]]
            g = int(offsets[c]) + local_id
            superpixels.append(
                Superpixel(
                    camera=c,
                    local_id=local_id,
                    pixel_indices=np.sort(pix),
                    point_indices=members[g],
                    semantic_sign=_majority_sign(sem[pix]) if pix.size else 0,
                )
            )

    return AssociationTable(superpixels=superpixels, num_points=k)


def dump_debug(table: AssociationTable) -> str:
    """One line per superpixel: id, class, pixel count, point count."""
    lines = [
        f"{q} class={sp.semantic_sign} pixels={len(sp.pixel_indices)} "
        f"points={len(sp.point_indices)}"
        for q, sp in enumerate(table.superpixels)
    ]
    return "\n".join(lines) + "\n"
