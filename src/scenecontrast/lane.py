"""The lane: a child Python process that embeds part of each training step.

A scene set's lane (``_Lane``) runs the trained sides (2D and 3D, or 3D
alone under ``freeze_2d``) of the last half of each batch's frames, since
a thread would contend with the calling thread for the interpreter lock
on the stacks' many short numpy calls.  Each process runs its part of a
step through its own ``_Share``, on jobs of one format: (side, slot,
inputs), side 0 being embed2d and side 1 embed3d.  The child imports only
this module, numpy, the standard library and ``embednet``, whose functions
both processes call through the module.  A step goes through one buffer
both processes map (``_LaneBuffer``) and two eventfd doorbells, one each
way: each half is "write, ring, wait", and either side also watches the
other's pipe for a hang-up.  Pickle crosses the pipes only for the ready
report and the start message: the set's prepared inputs, the lane's
layout, which is fixed for its life, and ``_extent``'s figures.
"""

from __future__ import annotations

import mmap
import os
import pickle
import select
import sys
# subprocess is imported by _start and _reap, which only the parent runs
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


def _extent(frames: list, shapes) -> tuple[int, int]:
    """The scratch length a ``_Share`` needs over the prepared ``frames`` with
    stacks of layer shapes ``shapes`` (a frame's most rows times the wider of
    the first hidden and the output width), and a frame's most regions."""
    rows = max(len(x) for fd in frames for x in (fd.x2d, fd.x3d))
    width = max(max(stack[0][0], stack[-1][0]) for stack in shapes)
    return rows * width, max(len(fd.signs) for fd in frames)


class _Share:
    """One process's share of a step: the work of the (side, slot, inputs)
    jobs it runs with ``stacks`` (embed2d, side 0, and embed3d, side 1) on
    one scratch buffer ``extent`` floats long.  The scratch's start holds,
    in turn, each first hidden output, each stack output until it is
    pooled, each pooled gradient until the top layers have read it, and
    the first hidden output the backward recomputes.  ``slots`` holds the
    forward cache of each (side, slot) run here, whose buffers, gradient
    vector included, the next forward in that slot takes over; ``pending``
    the caches of the step in flight.
    """

    def __init__(self, stacks: list[DenseStack], extent: int):
        self.stacks = stacks
        self.scratch = np.empty(extent)
        self.slots: dict = {}
        self.pending: list = []

    def _views(self, side: int, n: int) -> list[np.ndarray]:
        """Stack ``side``'s ``out`` and ``work`` over ``n`` rows, both at the scratch's start."""
        stack = self.stacks[side]
        widths = (stack.out_width, stack.layers[0].weight.shape[0])
        return [self.scratch[: n * w].reshape(n, w) for w in widths]

    def pool(self, side: int, x: np.ndarray, regions: Regions, reuse=None):
        """Stack ``side`` on rows ``x``, pooled over ``regions``: (rows,
        validity, forward cache, pooling cache).  The forward takes over the
        buffers of ``reuse``, a cache of the step before, when they fit."""
        out, work = self._views(side, len(x))
        h, cache = embednet.forward(self.stacks[side], x, reuse=reuse, out=out, work=work)
        rows, valid, pcache = embednet.pool_regions(h, regions)
        return rows, valid, cache, pcache

    def forward(self, jobs) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each (side, slot, (x, regions)) job's pooled (rows, validity); each
        forward takes over its slot's cache and keeps its own for ``backward``."""
        got, self.pending = [], []
        for side, k, inputs in jobs:
            rows, valid, cache, pcache = self.pool(side, *inputs, reuse=self.slots.get((side, k)))
            self.slots[side, k] = cache
            self.pending.append((side, cache, pcache))
            got.append((rows, valid))
        return got

    def backward(self, upstreams) -> list[np.ndarray]:
        """Each job's parameter gradient vector, given its rows' gradient; the
        inputs' gradient is not computed.  A vector is its cache's, so it
        holds until the slot's next backward."""
        grads = []
        for (side, cache, pcache), upstream in zip(self.pending, upstreams, strict=True):
            out, work = self._views(side, pcache.regions.num_rows)
            g = embednet.pool_backward(upstream, pcache, out=out)
            grads.append(embednet.backward(
                self.stacks[side], g, cache, work=work, input_grad=False)[0])
        return grads


class _LaneFailed(Exception):
    """The lane exited, or stopped answering, after it was ready."""


def _start(fds: list[int]) -> subprocess.Popen:
    """A child Python serving the memfd and doorbells ``fds``, with one
    BLAS/OpenMP thread.  Not forked, which is unsafe once OpenBLAS has
    started threads, nor spawned by ``multiprocessing``, which re-runs an
    unguarded ``__main__``."""
    import subprocess

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


def _reap(proc: subprocess.Popen, kill: bool) -> int | None:
    """Close the child's pipes and wait for it: an idle child exits when
    its input hangs up; with ``kill``, or if it has not exited within
    10 s, it is killed.  Its exit code, or None if it did not exit in time."""
    import subprocess

    if kill:
        proc.kill()
    for pipe in (proc.stdin, proc.stdout):
        with suppress(OSError):  # what was left to flush to a child that is gone
            pipe.close()
    try:
        return proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


class _LaneBuffer:
    """The lane's shared buffer, as views of a map of the memfd ``fd``
    sized for ``layout`` (embed2d's and embed3d's layer shapes, and the
    number of lane jobs) and frames of up to ``regions`` regions:
    ``header`` (int64: the step half's kind, then each job's (side, slot,
    frame index) triple), ``params`` (embed2d's and then embed3d's slice
    of ``Model.params``, ``num_params`` long per stack), and per job its
    pooled ``rows``, ``upstream`` rows, gradient vector ``grad`` and
    ``valid`` flags."""

    def __init__(self, fd: int, layout, regions: int):
        shapes, jobs = layout
        self.num_params = [sum(o * i + o for o, i in stack) for stack in shapes]
        table = (jobs, regions, shapes[0][-1][0])
        parts = [(np.int64, 1 + 3 * jobs), (np.float64, sum(self.num_params)),
                 (np.float64, table), (np.float64, table),
                 (np.float64, (jobs, max(self.num_params))), (np.bool_, (jobs, regions))]
        size = sum(np.dtype(t).itemsize * int(np.prod(s)) for t, s in parts)
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
    prepared ``frames`` (``trainer.FrameData``) under ``layout`` (embed2d's
    and embed3d's layer shapes, and the job count of a step), both sent once
    as it starts.  ``held`` is True while the lane owes answers.  A lane that
    cannot start (it needs Linux's memfd and eventfd), exits before it is
    ready, or is not ready within ``_READY_WAIT_S``, is stopped and never
    ready, and says so once on stderr; one that fails later raises ``_LaneFailed``.
    """

    def __init__(self, frames: list, layout):
        self.index = {id(fd): i for i, fd in enumerate(frames)}
        self.is_ready = self.held = False
        self.layout, self.buf = layout, None
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
                extent = _extent(frames, layout[0])
                self.buf = _LaneBuffer(self.fds[0], layout, extent[1])
                sides = [((fd.x2d, fd.regions2d), (fd.x3d, fd.regions3d)) for fd in frames]
                pickle.dump((sides, layout, extent), self.proc.stdin, protocol=5)
                self.proc.stdin.flush()
        except BrokenPipeError:  # before it read the start message
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

    def forward(self, params: np.ndarray, jobs) -> None:
        """Start the lane's ``_Share.forward`` on each (side, slot, FrameData)
        of ``jobs``, with embed2d's and embed3d's parameters ``params``."""
        self.held = True
        buf = self.buf
        # each job's regions and gradient length in the step the lane holds
        self.sizes = [(len(fd.signs), buf.num_params[side]) for side, _, fd in jobs]
        buf.params[...] = params
        buf.header[0] = _FORWARD
        buf.header[1:] = [x for side, k, fd in jobs for x in (side, k, self.index[id(fd)])]
        os.eventfd_write(self.fds[1], 1)

    def rows(self) -> list:
        """Each job's (rows, validity), as ``_Share.forward`` gives them."""
        self._wait()
        buf = self.buf
        got = [(buf.rows[j, :q], buf.valid[j, :q]) for j, (q, _) in enumerate(self.sizes)]
        self.held = False
        return got

    def backward(self, upstreams: list[np.ndarray]) -> None:
        """Start the lane's ``_Share.backward``, given the jobs' rows' gradients."""
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

    def _wait(self) -> None:
        if not _rang(self.poll, self.fds[2]):
            code = _reap(self.proc, kill=False)
            raise _LaneFailed("lane stopped answering" if code is None
                              else f"lane exited with code {code}")

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
    try:
        # unbuffered, so a parent gone before the report leaves nothing to
        # flush at exit
        with open(sys.stdout.fileno(), "wb", buffering=0, closefd=False) as out:
            pickle.dump("ready", out, protocol=5)
        poll = _watch(go, inp)
        # each frame's (x2d, regions2d) and (x3d, regions3d), the layout, and
        # _extent's figures
        frames, layout, (scratch, regions) = pickle.load(inp)
        buf = _LaneBuffer(memfd, layout, regions)
        stacks = [DenseStack([DenseLayer(np.zeros(s), np.zeros(s[0])) for s in side])
                  for side in layout[0]]
        params = embednet.pack_params(stacks)
        share = _Share(stacks, scratch)
        while _rang(poll, go):
            if buf.header[0] == _BACKWARD:
                grads = share.backward(buf.upstream[j, : len(rows)]
                                       for j, (rows, _) in enumerate(got))
                for j, g in enumerate(grads):
                    buf.grad[j, : len(g)] = g
            else:
                params[...] = buf.params
                for stack in stacks:
                    stack.bump()
                jobs = buf.header[1:].reshape(-1, 3).tolist()
                got = share.forward((side, k, frames[i][side]) for side, k, i in jobs)
                for j, (rows, valid) in enumerate(got):
                    buf.rows[j, : len(rows)] = rows
                    buf.valid[j, : len(valid)] = valid
            os.eventfd_write(done, 1)
    except (EOFError, BrokenPipeError):
        return
