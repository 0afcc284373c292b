"""Point-to-pixel projection and superpixel/superpoint association.

``build_associations`` turns one SceneFrame into an AssociationTable: every
point is projected into every camera, claimed by the lowest-index camera
with a valid projection, and grouped under the superpixel covering its
pixel there.  Superpixel ids are global across cameras (camera 0's ids
first, then camera 1 shifted, and so on), computed once per pixel of the
frame's (L, H, W) superpixel raster.  Points are grouped by the id their
claimed pixel carries, and pixels by their own id, with one stable sort
and split each, so the indices inside a superpixel ascend and pixel
indices are offsets into the frame's rasters.  The trainer turns each
superpixel into one row of the step's embedding bank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .scenegen import UNASSIGNED, SceneFrame, project_points


@dataclass
class Superpixel:
    """One region: its pixels, the points it claims, and its class."""

    pixel_indices: np.ndarray  # flat offsets into the frame's (L, H, W) rasters
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
    if frame.superpixel_raster is None or frame.semantic_raster is None:
        raise ContractViolationError(
            f"scene {frame.scene_id} has no rasters, as a prepared SceneSet keeps "
            "its frames; build the set from the frames as read"
        )
    l, h, w = frame.superpixel_raster.shape
    world = frame.points[:, :3].astype(np.float64)
    # (L, K) rows, cols and validity: every point into every camera
    rows, cols, ok = map(np.stack, zip(*(project_points(world, cam) for cam in frame.cameras)))

    # one global id per pixel: each camera's local ids shifted past the
    # cameras before it; -1 where no superpixel covers the pixel
    ids = frame.superpixel_raster.reshape(l, h * w).astype(np.int64)
    assigned = ids != UNASSIGNED
    ids[~assigned] = -1
    offsets = np.concatenate([[0], np.cumsum(ids.max(axis=1) + 1)])
    np.add(ids, offsets[:-1, None], out=ids, where=assigned)
    ids, assigned = ids.reshape(-1), assigned.reshape(-1)
    q = int(offsets[-1])

    # claim: first camera whose projection is valid; unassigned cell drops
    idx = np.flatnonzero(ok.any(axis=0))
    cam_of = np.argmax(ok, axis=0)[idx]
    claimed = ids[(cam_of * h + rows[cam_of, idx]) * w + cols[cam_of, idx]]
    landed = claimed >= 0
    members = _groups(claimed[landed], idx[landed], q)

    pix = np.flatnonzero(assigned)
    pixels = _groups(ids[pix], pix, q)
    sem = frame.semantic_raster.reshape(-1)
    return AssociationTable(
        superpixels=[
            Superpixel(p, m, _majority_sign(sem[p]) if p.size else 0)
            for p, m in zip(pixels, members)
        ]
    )
