"""Test-local finite-difference harness and reference oracles.

The finite differences are deliberately independent of the package's own
gradient checker so the two can disagree: tests perturb arrays with this
code and compare against the package's analytic gradients.  The pinhole,
region-labelling and point-label oracles stand in for scalar code the
package does not carry, and ``scene_bytes`` for a frame equality.
"""

import tempfile
from pathlib import Path

import numpy as np

from scenecontrast.embednet import layer_views
from scenecontrast.projection import project_points
from scenecontrast.scenegen import UNASSIGNED, write_scene

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


def scene_bytes(frame) -> bytes:
    """The frame's ``.cscs`` encoding, which holds every field of the frame."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "frame.cscs"
        write_scene(frame, path)
        return path.read_bytes()
