"""The lane: a child Python process that embeds part of each training step.

A scene set's lane (``_Lane``) runs the trained sides (2D and 3D, or 3D
alone under ``freeze_2d``) of the last half of each batch's frames, since
a thread would contend with the calling thread for the interpreter lock
on the stacks' many short numpy calls; ``_embed`` and ``_embed_backward``
are the per-side work both processes run.  The child imports only this
module, numpy, the standard library and ``embednet``, whose functions
both processes call through the module.  A step goes through one buffer
both processes map (``_LaneBuffer``) and two eventfd doorbells, one each
way: each half is "write, ring, wait", and either side also watches the
other's pipe for a hang-up.  Pickle crosses the pipes only for the ready
report, the set's prepared inputs (once), and a layout message when the
stacks' shapes or the job count change.
"""

from __future__ import annotations

import mmap
import os
import pickle
import select
import subprocess
import sys
from contextlib import suppress
from pathlib import Path

import numpy as np

from . import embednet
from .embednet import DenseLayer, DenseStack, Regions

# the last word of the lane's command line, by which a process list finds it
LANE_MARKER = "scenecontrast-lane"
# Ctrl-C in a terminal reaches the whole process group; the parent handles
# it and stops the lane.  sys.argv[1] is where the parent found the package,
# sys.argv[2:5] the shared buffer's memfd and the two doorbells.
_LANE_CODE = (
    "import signal, sys; signal.signal(signal.SIGINT, signal.SIG_IGN); "
    "sys.path.insert(0, sys.argv[1]); "
    "from scenecontrast.lane import _serve_lane; _serve_lane(*map(int, sys.argv[2:5]))"
)
# how long the first step over a set waits for its lane to report ready;
# a lane that misses it is stopped, and the calling thread runs every frame
_READY_WAIT_S = 60.0
# the kinds of step half the header's first word names
_FORWARD, _BACKWARD = 1, 2
# a frame's sides, by the number a lane job gives its side
_SIDES = ("2d", "3d")


def _lend(lane: np.ndarray, stack: DenseStack, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``out`` and ``work`` views of ``stack`` over ``n`` rows, both
    over the start of a lane's buffer."""
    widths = (stack.out_width, stack.layers[0].weight.shape[0])
    return tuple(lane[: n * w].reshape(n, w) for w in widths)


def _embed(stack: DenseStack, x: np.ndarray, regions: Regions, slots: dict | None, key,
           lane: np.ndarray):
    """One side of one frame: (pooled rows, validity, caches for the backward).

    ``lane`` is the buffer of the lane that runs this call: its start
    holds first the stack's first hidden output and then, once that is
    dead, the stack's output until it is pooled.  With ``slots``, the
    forward writes into the buffers of the cache kept under ``key`` (the
    one of the step before) and keeps its own there.
    """
    out, work = _lend(lane, stack, len(x))
    reuse = None if slots is None else slots.get(key)
    h, cache = embednet.forward(stack, x, reuse=reuse, out=out, work=work)
    if slots is not None:
        slots[key] = cache
    rows, valid, pcache = embednet.pool_regions(h, regions)
    return rows, valid, (cache, pcache)


def _embed_backward(stack: DenseStack, upstream: np.ndarray, caches, lane: np.ndarray):
    """Parameter gradient vector of one side of one frame, given its rows' gradient.

    In the buffer of the lane that runs this call, the pooled gradient is
    written over the start, and once the top layers have read it the
    backward recomputes the first hidden output there.  The gradient of
    the frame's inputs is not computed.  The vector returned is the
    cache's, so it holds until the slot's next backward.
    """
    cache, pcache = caches
    out, work = _lend(lane, stack, pcache.regions.num_rows)
    g = embednet.pool_backward(upstream, pcache, out=out)
    return embednet.backward(stack, g, cache, work=work, input_grad=False)[0]


class _LaneFailed(Exception):
    """The lane exited, or stopped answering, after it was ready."""


def _start(fds: list[int]) -> subprocess.Popen:
    """A child Python serving the memfd and doorbells ``fds``, with one
    BLAS/OpenMP thread.  Not forked, which is unsafe once OpenBLAS has
    started threads, nor spawned by ``multiprocessing``, which re-runs an
    unguarded ``__main__``."""
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {**os.environ, **dict.fromkeys(threads, "1")}
    package_dir = str(Path(__file__).resolve().parents[1])
    return subprocess.Popen(
        [sys.executable, "-c", _LANE_CODE, package_dir, *map(str, fds), LANE_MARKER],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, pass_fds=fds,
    )


def _await_ready(proc: subprocess.Popen) -> str | None:
    """Wait for the child's ready report; why not, if it does not come."""
    if not select.select([proc.stdout], [], [], _READY_WAIT_S)[0]:
        return f"it was not ready within {_READY_WAIT_S:g} s"
    try:
        pickle.load(proc.stdout)
    except (EOFError, OSError, pickle.UnpicklingError):
        return "it exited before it was ready"
    return None


def _lane_warning(reason) -> None:
    print(f"warning: the lane did not start ({reason}); "
          "this thread runs every frame", file=sys.stderr)


def _reap(proc: subprocess.Popen, kill: bool) -> None:
    """Close the child's pipes and wait for it: an idle child exits when
    its input hangs up; with ``kill``, or if it has not exited within
    10 s, it is killed."""
    if kill:
        proc.kill()
    for pipe in (proc.stdin, proc.stdout):
        with suppress(OSError):  # what was left to flush to a child that is gone
            pipe.close()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


class _LaneBuffer:
    """The lane's shared buffer under one layout, as views of a map of the
    memfd ``fd``: ``header`` (int64: the step half's kind, the layout's
    version, then each of the ``jobs`` lane jobs' (side, slot, frame
    index) triple), ``params`` (embed2d's and then embed3d's slice of
    ``Model.params``, whose layer shapes ``shapes`` holds per stack), and
    per job its pooled ``rows``, ``upstream`` rows, gradient vector
    ``grad`` and ``valid`` flags, with room for ``regions`` regions.
    The caller's side makes the file large enough before the lane maps
    it; it never shrinks, so a map of an earlier layout stays valid."""

    def __init__(self, fd: int, shapes, jobs: int, regions: int):
        sizes = [sum(o * i + o for o, i in stack) for stack in shapes]
        table = (jobs, regions, shapes[0][-1][0])
        parts = [(np.int64, 2 + 3 * jobs), (np.float64, sum(sizes)), (np.float64, table),
                 (np.float64, table), (np.float64, (jobs, max(sizes))),
                 (np.bool_, (jobs, regions))]
        size = sum(np.dtype(t).itemsize * int(np.prod(s)) for t, s in parts)
        if os.fstat(fd).st_size < size:
            os.ftruncate(fd, size)
        mem, views, offset = mmap.mmap(fd, size), [], 0
        for dtype, shape in parts:
            views.append(np.frombuffer(mem, dtype, int(np.prod(shape)), offset).reshape(shape))
            offset += views[-1].nbytes
        self.header, self.params, self.rows, self.upstream, self.grad, self.valid = views


def _rang(poll, bell: int) -> bool:
    """Wait until the eventfd ``bell`` rings (True) or the peer's pipe, which
    ``poll`` watches for hang-up only, hangs up (False)."""
    ready = dict(poll.poll())
    if bell not in ready:
        return False
    os.eventfd_read(bell)
    return True


def _watch(bell: int, pipe) -> select.poll:
    """A poll of ``bell``'s ring and of ``pipe``'s hang-up, never its data."""
    poll = select.poll()
    poll.register(bell, select.POLLIN)
    poll.register(pipe, 0)
    return poll


class _Lane:
    """A scene set's lane, as the calling process holds it, over the set's
    prepared ``frames`` (``trainer.FrameData``).  ``held`` is True while
    the lane owes answers.  A lane that cannot start (it needs Linux's
    memfd and eventfd), exits before it is ready, or is not ready within
    ``_READY_WAIT_S``, is stopped and never ready, and says so once on
    stderr; one that fails later raises ``_LaneFailed``.
    """

    def __init__(self, frames: list):
        self.index = {id(fd): i for i, fd in enumerate(frames)}
        self.regions = max(len(fd.signs) for fd in frames)
        self.is_ready = self.held = False
        self.layout, self.version, self.buf = None, 0, None
        # each job's regions and gradient length in the step the lane holds
        self.sizes: list[tuple[int, int]] = []
        self.fds: list[int] = []  # the memfd, the doorbell to the lane, the one back
        self.proc = None
        if not (hasattr(os, "memfd_create") and hasattr(os, "eventfd")):
            _lane_warning("it needs os.memfd_create and os.eventfd, which are Linux's")
            return
        try:
            self.fds.append(os.memfd_create(LANE_MARKER))
            self.fds += [os.eventfd(0), os.eventfd(0)]
            self.proc = _start(self.fds)
            self.poll = _watch(self.fds[2], self.proc.stdout)
            failed = _await_ready(self.proc)
            if failed is None:
                self._send([((fd.x2d, fd.regions2d), (fd.x3d, fd.regions3d)) for fd in frames])
        except _LaneFailed:
            failed = "it exited before it was ready"
        except OSError as err:
            failed = err
        except BaseException:  # such as Ctrl-C while the lane starts
            self.close()
            raise
        if failed is None:
            self.is_ready = True
        else:
            self.close()
            _lane_warning(failed)

    def forward(self, stacks: list[DenseStack], params: np.ndarray, jobs) -> None:
        """Start ``_embed`` on each (side, slot, FrameData) of ``jobs`` with
        ``stacks``, embed2d and embed3d, whose parameters ``params`` holds."""
        self.held = True
        self.sizes = [(len(fd.signs), stacks[_SIDES.index(side)].num_params)
                      for side, _, fd in jobs]
        layout = [[l.weight.shape for l in stack.layers] for stack in stacks], len(jobs)
        if layout != self.layout:
            # views of the old map are dropped, not closed: closing a map
            # that views still export raises BufferError
            self.buf = _LaneBuffer(self.fds[0], *layout, self.regions)
            self.layout, self.version = layout, self.version + 1
            self._send(layout)
        buf = self.buf
        buf.params[...] = params
        buf.header[:2] = _FORWARD, self.version
        buf.header[2:] = [x for side, k, fd in jobs
                          for x in (_SIDES.index(side), k, self.index[id(fd)])]
        os.eventfd_write(self.fds[1], 1)

    def rows(self) -> list:
        """Each job's (rows, validity, None): ``_embed``'s, less the caches."""
        self._wait()
        got = [(self.buf.rows[j, :q], self.buf.valid[j, :q], None)
               for j, (q, _) in enumerate(self.sizes)]
        self.held = False
        return got

    def backward(self, upstreams: list[np.ndarray]) -> None:
        """Start ``_embed_backward`` on the forward's jobs, given their rows' gradients."""
        self.held = True
        for j, upstream in enumerate(upstreams):
            self.buf.upstream[j, : len(upstream)] = upstream
        self.buf.header[0] = _BACKWARD
        os.eventfd_write(self.fds[1], 1)

    def grads(self) -> list[np.ndarray]:
        """Each job's gradient vector, in job order."""
        self._wait()
        self.held = False
        return [self.buf.grad[j, :n] for j, (_, n) in enumerate(self.sizes)]

    def _send(self, message) -> None:
        try:
            pickle.dump(message, self.proc.stdin, protocol=5)
            self.proc.stdin.flush()
        except OSError:
            raise self._failure() from None

    def _wait(self) -> None:
        if not _rang(self.poll, self.fds[2]):
            raise self._failure()

    def _failure(self) -> _LaneFailed:
        try:
            return _LaneFailed(f"lane exited with code {self.proc.wait(timeout=10)}")
        except subprocess.TimeoutExpired:
            return _LaneFailed("lane stopped answering")

    def close(self) -> None:
        """Stop the lane and reap it: an idle ready lane exits when its
        input hangs up; one that owes answers, or is still starting, is
        killed.  The memfd and the doorbells are closed whether or not it
        started."""
        proc, self.proc, self.buf = self.proc, None, None
        fds, self.fds = self.fds, []
        for fd in fds:
            os.close(fd)
        if proc is not None:
            _reap(proc, kill=self.held or not self.is_ready)


def _serve_lane(memfd: int, go: int, done: int) -> None:
    """The lane's side of ``_Lane``, until its input hangs up: ``go`` is
    the doorbell it waits on, ``done`` the one it rings."""
    inp = sys.stdin.buffer
    version, buf, shapes = 0, None, None
    try:
        # unbuffered, so a parent gone before the report leaves nothing to
        # flush at exit
        with open(sys.stdout.fileno(), "wb", buffering=0, closefd=False) as out:
            pickle.dump("ready", out, protocol=5)
        poll = _watch(go, inp)
        frames = pickle.load(inp)  # each frame's (x2d, regions2d) and (x3d, regions3d)
        regions = max(len(r) for sides in frames for _, r in sides)
        rows_max = max(len(x) for sides in frames for x, _ in sides)
        while _rang(poll, go):
            if buf is None or buf.header[1] != version:  # a layout message waits
                new_shapes, jobs = pickle.load(inp)
                buf = _LaneBuffer(memfd, new_shapes, jobs, regions)
                version = int(buf.header[1])
                if new_shapes != shapes:  # the first run, or one with another embed_dim
                    shapes = new_shapes
                    stacks = [DenseStack([DenseLayer(np.zeros(s), np.zeros(s[0])) for s in side])
                              for side in shapes]
                    params = embednet.pack_params(stacks)
                    width = max(max(side[0][0], side[-1][0]) for side in shapes)
                    lane = np.empty(rows_max * width)
                    caches: dict = {}
            if buf.header[0] == _BACKWARD:
                for j, (side, held, q) in enumerate(kept):
                    g = _embed_backward(stacks[side], buf.upstream[j, :q], held, lane)
                    buf.grad[j, : len(g)] = g
            else:
                params[...] = buf.params
                for stack in stacks:
                    stack.bump()
                kept = []
                for j, (side, k, i) in enumerate(buf.header[2:].reshape(-1, 3).tolist()):
                    rows, valid, held = _embed(
                        stacks[side], *frames[i][side], caches, (side, k), lane)
                    buf.rows[j, : len(rows)] = rows
                    buf.valid[j, : len(valid)] = valid
                    kept.append((side, held, len(rows)))
            os.eventfd_write(done, 1)
    except (EOFError, BrokenPipeError):
        return
