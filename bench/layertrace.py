"""Span tracing of the scenecontrast layers, installed from outside.

The traced run replaces public functions of each layer with a wrapper at
the place where its callers look it up (a module attribute, a name bound
by ``from ... import`` in the calling module, or a class attribute), so
the package itself is unchanged.  Spans stay in memory as
``[name, start, end, parent, step, info]`` and are written out once at
the end of the run.  A span's self time is its duration minus the
durations of its child spans; children of one span never overlap,
because every layer runs on the calling thread.
"""

from __future__ import annotations

import functools
import json
import statistics
import types
from time import perf_counter

# in-step span name -> per-step metric its self time is charged to.
# A span whose name is not listed (the blend projections' forward and
# backward) is charged to the metric of its nearest listed ancestor.
STEP_BUCKETS = {
    "trainer.run_step": "trainer.step_self_ms",
    "embednet.forward2d": "embednet.forward2d_ms",
    "embednet.backward2d": "embednet.backward2d_ms",
    "embednet.forward3d": "embednet.forward3d_ms",
    "embednet.backward3d": "embednet.backward3d_ms",
    "embednet.pool_regions": "embednet.pool_ms",
    "embednet.pool_backward": "embednet.pool_backward_ms",
    "embednet.make_bank": "embednet.make_bank_ms",
    "losses.loss_sp": "losses.loss_sp_ms",
    "losses.loss_pro": "losses.loss_pro_ms",
    "losses.total_loss": "losses.total_loss_ms",
    "protobank.build_prototypes": "protobank.build_ms",
    "protobank.ema_update": "protobank.ema_ms",
    "blending.blend": "blending.blend_ms",
    "blending.blend_backward": "blending.blend_backward_ms",
}

STACK_CALLS = ("forward2d", "backward2d", "forward3d", "backward3d")

# every per-layer metric the traced run reports, with its unit; per step
# means per trainer.run_step call, averaged over the job's calls
UNITS = {
    "scenegen.generate_ms": "ms/scene",
    "scenegen.write_ms": "ms/scene",
    "scenegen.read_ms": "ms/scene",
    "binio.pack_ms": "ms/scene",
    "binio.read_ms": "ms/scene",
    "binio.scene_bytes": "bytes",
    "binio.ckpt_bytes": "bytes",
    "projection.associate_ms": "ms/frame",
    "projection.regions": "count/frame",
    "projection.valid_region_ratio": "share",
    "trainer.prepare_ms": "ms/frame",
    "trainer.step_self_ms": "ms/step",
    "trainer.between_steps_ms": "ms/step",
    "trainer.skip_ratio": "share",
    "trainer.probe_ms": "ms/call",
    "trainer.checkpoint_ms": "ms/call",
    **{f"embednet.{c}_ms": "ms/step" for c in STACK_CALLS},
    **{f"embednet.{c}_call_ms": "ms/call" for c in STACK_CALLS},
    **{f"embednet.{c}_isolated_ms": "ms/call" for c in STACK_CALLS},
    "embednet.pool_ms": "ms/step",
    "embednet.pool_backward_ms": "ms/step",
    "embednet.make_bank_ms": "ms/step",
    "embednet.rows_per_step": "count/step",
    "embednet.flop_per_step": "count/step",
    "embednet.backward2d_useful_ratio": "share",
    "losses.loss_sp_ms": "ms/step",
    "losses.loss_pro_ms": "ms/step",
    "losses.total_loss_ms": "ms/step",
    "losses.valid_regions": "count/step",
    "protobank.build_ms": "ms/step",
    "protobank.ema_ms": "ms/step",
    "protobank.classes": "count/step",
    "blending.blend_ms": "ms/step",
    "blending.blend_backward_ms": "ms/step",
    "cli.self_ms": "ms/cmd",
    "trace.step_ms": "ms/step",
    "trace.untraced_step_ms": "ms/step",
    "trace.step_overhead_share": "share",
    "trace.step_accounted_share": "share",
    "trace.job_s": "s",
    "trace.untraced_job_s": "s",
    "trace.overhead_share": "share",
    "trace.span_cost_us": "us",
    "trace.span_overhead_share": "share",
    "trace.spans": "count",
}


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.open: list[int] = []
        self.step = -1
        self.steps_started = 0
        self.frozen_steps: set[int] = set()  # steps run with freeze_2d set
        self.enabled = True
        self.stack_kind: dict[int, str] = {}  # id(DenseStack) -> "2d" | "3d"
        self.models: list = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def wrap(self, owner, attr: str, label, info=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``label`` is the span name, or a function of the call's positional
        arguments returning it.  ``info(args, kwargs, result)`` returns a
        small dict of counts kept on the span.
        """
        real = getattr(owner, attr)
        rec = self

        @functools.wraps(real)
        def traced(*args, **kwargs):
            if not rec.enabled:
                return real(*args, **kwargs)
            name = label(args) if callable(label) else label
            span = [name, 0.0, 0.0, rec.open[-1] if rec.open else -1, rec.step, None]
            rec.open.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = perf_counter()
            try:
                result = real(*args, **kwargs)
            except BaseException as err:
                span[2] = perf_counter()
                rec.open.pop()
                span[5] = {"raised": type(err).__name__}
                raise
            span[2] = perf_counter()
            rec.open.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, real))

    def install(self, pkg) -> None:
        """Wrap every traced layer of the imported ``scenecontrast`` package."""
        binio, blending, cli = pkg.binio, pkg.blending, pkg.cli
        embednet, losses, projection = pkg.embednet, pkg.losses, pkg.projection
        protobank, scenegen, trainer = pkg.protobank, pkg.scenegen, pkg.trainer

        self.wrap(cli, "main", "cli.main")
        # scenegen names bound into cli by `from .scenegen import ...`
        for fn in ("generate_scene", "write_scene", "read_scene"):
            self.wrap(cli, fn, f"scenegen.{fn}")
        # binio: packers bound into both file formats, cursor methods on the class
        for mod in (scenegen, embednet):
            self.wrap(mod, "pack_array", "binio.pack")
            self.wrap(mod, "pack_u32", "binio.pack")
        for meth in ("take", "u32", "array", "expect_end"):
            self.wrap(binio.ByteCursor, meth, "binio.read")
        # projection: bound into trainer by name; project_points looked up
        # in projection's own globals
        self.wrap(trainer, "build_associations", "projection.build_associations",
                  info=_table_counts)
        self.wrap(projection, "project_points", "projection.project_points")

        for fn in ("forward", "backward"):
            self.wrap(embednet, fn, functools.partial(self._stack_label, fn),
                      info=functools.partial(_stack_counts, fn))
        for fn in ("pool_regions", "pool_backward", "make_bank", "init_stack",
                   "write_checkpoint", "read_checkpoint", "load_layers"):
            self.wrap(embednet, fn, f"embednet.{fn}")
        self.wrap(losses, "loss_sp", "losses.loss_sp",
                  info=lambda a, k, r: {"valid": a[0].num_valid})
        for fn in ("loss_pro", "total_loss", "csv_row"):
            self.wrap(losses, fn, f"losses.{fn}")
        self.wrap(protobank, "build_prototypes", "protobank.build_prototypes",
                  info=lambda a, k, r: {"classes": r.num_classes})
        self.wrap(protobank, "ema_update", "protobank.ema_update")
        self.wrap(blending, "blend", "blending.blend")
        self.wrap(blending, "blend_backward", "blending.blend_backward")

        for fn in ("init_model", "load_model"):
            self.wrap(trainer, fn, f"trainer.{fn}", info=self._register_model)
        for fn in ("prepare_frame", "pretrain", "linear_probe", "save_model",
                   "run_ablation"):
            self.wrap(trainer, fn, f"trainer.{fn}")
        self.wrap(trainer, "run_step", "trainer.run_step")
        # outermost: give the step's spans its id and its freeze flag
        span_step = trainer.run_step
        rec = self

        @functools.wraps(span_step)
        def stepped(model, batch, epoch, cfg, *args, **kwargs):
            rec.step = rec.steps_started
            rec.steps_started += 1
            if cfg.freeze_2d:
                rec.frozen_steps.add(rec.step)
            try:
                return span_step(model, batch, epoch, cfg, *args, **kwargs)
            finally:
                rec.step = -1

        trainer.run_step = stepped
        self._restore.append((trainer, "run_step", span_step))

    def uninstall(self) -> None:
        for owner, attr, real in reversed(self._restore):
            setattr(owner, attr, real)
        self._restore.clear()

    # -- classification ---------------------------------------------------

    def _stack_label(self, fn: str, args) -> str:
        return f"embednet.{fn}{self.stack_kind.get(id(args[0]), '_other')}"

    def _register_model(self, args, kwargs, model) -> None:
        # keep the model alive so no later stack can reuse its stacks' ids
        self.models.append(model)
        self.stack_kind[id(model.embed2d)] = "2d"
        self.stack_kind[id(model.embed3d)] = "3d"

    # -- output -----------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "step", "info"],
                       "spans": self.spans}, fh)


def _table_counts(args, kwargs, table) -> dict:
    return {
        "regions": table.Q,
        "with_points": sum(1 for sp in table.superpixels if len(sp.point_indices)),
    }


def _stack_counts(fn: str, args, kwargs, result) -> dict:
    stack, rows = args[0], args[1]
    macs = sum(layer.weight.size for layer in stack.layers)
    # forward: one GEMM per layer; backward: the weight and the input
    # gradient per layer, which backward computes for every layer
    per_row = 2 * macs if fn == "forward" else 4 * macs
    return {"rows": int(rows.shape[0]), "flop": int(rows.shape[0]) * per_row}


def self_times(spans: list[list]) -> list[float]:
    covered = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            covered[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


def _median_ms(values) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer figures of one traced job, by the names BENCHMARK.json lists."""
    spans = rec.spans
    selfs = self_times(spans)
    dur = [s[2] - s[1] for s in spans]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def durations(name, in_step=None):
        return [dur[i] for i in by_name.get(name, [])
                if in_step is None or (spans[i][4] >= 0) == in_step]

    out: dict[str, float] = {}

    # -- in-step accounting: every in-step span's self time lands in one bucket
    steps = by_name.get("trainer.run_step", [])
    n_steps = len(steps)
    bucket: list[str | None] = [None] * len(spans)
    totals = {m: 0.0 for m in STEP_BUCKETS.values()}
    for i, s in enumerate(spans):
        if s[4] < 0:
            continue
        bucket[i] = STEP_BUCKETS.get(s[0]) or bucket[s[3]]
        totals[bucket[i]] += selfs[i]
    for metric, total in totals.items():
        out[metric] = 1000.0 * total / n_steps if n_steps else 0.0
    step_ms = 1000.0 * _mean([dur[i] for i in steps])
    out["trace.step_ms"] = step_ms
    out["trace.step_accounted_share"] = (
        sum(totals.values()) * 1000.0 / n_steps / step_ms if n_steps else 0.0
    )
    out["trainer.skip_ratio"] = (
        sum(1 for i in steps if spans[i][5] is not None) / n_steps if n_steps else 0.0
    )

    # gaps between consecutive steps of one pretrain: SGD, CSV row, shuffle
    gaps = []
    for a, b in zip(steps, steps[1:]):
        if spans[a][3] == spans[b][3]:
            gaps.append(spans[b][1] - spans[a][2])
    out["trainer.between_steps_ms"] = 1000.0 * _mean(gaps)

    # -- stacks: per call in the loop, and work done per step
    for call in STACK_CALLS:
        out[f"embednet.{call}_call_ms"] = _median_ms(durations(f"embednet.{call}", True))
    rows = flop = 0
    useful = total_b2d = 0
    for name in ("embednet.forward2d", "embednet.forward3d", "embednet.backward2d",
                 "embednet.backward3d", "embednet.forward_other",
                 "embednet.backward_other"):
        for i in by_name.get(name, []):
            s = spans[i]
            if s[4] < 0:
                continue
            flop += s[5]["flop"]
            if name in ("embednet.forward2d", "embednet.forward3d"):
                rows += s[5]["rows"]
            if name == "embednet.backward2d":
                total_b2d += 1
                # a frozen step discards its 2D gradient
                useful += s[4] not in rec.frozen_steps
    out["embednet.rows_per_step"] = rows / n_steps if n_steps else 0.0
    out["embednet.flop_per_step"] = flop / n_steps if n_steps else 0.0
    out["embednet.backward2d_useful_ratio"] = useful / total_b2d if total_b2d else 0.0

    valid = [spans[i][5]["valid"] for i in by_name.get("losses.loss_sp", [])]
    out["losses.valid_regions"] = _mean(valid)
    classes = [spans[i][5]["classes"] for i in by_name.get("protobank.build_prototypes", [])]
    out["protobank.classes"] = _mean(classes)

    # -- outside the loop
    out["scenegen.generate_ms"] = _median_ms(durations("scenegen.generate_scene"))
    out["scenegen.write_ms"] = _median_ms(durations("scenegen.write_scene"))
    out["scenegen.read_ms"] = _median_ms(durations("scenegen.read_scene"))
    for owner, metric in (("scenegen.write_scene", "binio.pack_ms"),
                          ("scenegen.read_scene", "binio.read_ms")):
        calls = len(by_name.get(owner, []))
        spent = sum(selfs[i] for i, s in enumerate(spans)
                    if s[0].startswith("binio.") and _owner(spans, i) == owner)
        out[metric] = 1000.0 * spent / calls if calls else 0.0

    tables = [spans[i][5] for i in by_name.get("projection.build_associations", [])]
    out["projection.associate_ms"] = _median_ms(durations("projection.build_associations"))
    regions = sum(t["regions"] for t in tables)
    out["projection.regions"] = regions / len(tables) if tables else 0.0
    out["projection.valid_region_ratio"] = (
        sum(t["with_points"] for t in tables) / regions if regions else 0.0
    )

    out["trainer.prepare_ms"] = _median_ms(
        [selfs[i] for i in by_name.get("trainer.prepare_frame", [])]
    )
    out["trainer.probe_ms"] = _median_ms(durations("trainer.linear_probe"))
    out["trainer.checkpoint_ms"] = _median_ms(durations("trainer.save_model"))
    out["cli.self_ms"] = 1000.0 * _mean([selfs[i] for i in by_name.get("cli.main", [])])
    out["trace.spans"] = float(len(spans))
    return out


def _owner(spans: list[list], i: int) -> str:
    """Name of the nearest ancestor outside binio."""
    p = spans[i][3]
    while p >= 0 and spans[p][0].startswith("binio."):
        p = spans[p][3]
    return spans[p][0] if p >= 0 else ""


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Wall time one recorded span adds to a call, median over repeats.

    Unlike traced minus untraced ``job_s``, which the host's speed changes
    swamp, this cost times the span count is a steady estimate of the
    tracing overhead.
    """
    target = types.SimpleNamespace(noop=lambda: None)
    plain = target.noop
    rec = Recorder()
    rec.wrap(target, "noop", "probe.noop")
    traced = target.noop
    costs = []
    for _ in range(repeats):
        rec.spans.clear()
        t0 = perf_counter()
        for _ in range(calls):
            plain()
        t1 = perf_counter()
        for _ in range(calls):
            traced()
        t2 = perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def isolated_stack_ms(pkg, frame_data, model, repeats: int) -> dict[str, float]:
    """Median per-call time of the 2D and 3D stacks outside the loop.

    Uses one prepared frame of the workload, so the row counts are the
    ones the loop sees; the upstream gradient is a fixed pseudo-random
    matrix of the output's shape.
    """
    import numpy as np

    embednet = pkg.embednet
    rng = np.random.default_rng(0)
    out = {}
    for kind, stack, x in (("2d", model.embed2d, frame_data.x2d),
                           ("3d", model.embed3d, frame_data.x3d)):
        h, cache = embednet.forward(stack, x)
        upstream = rng.standard_normal(h.shape)
        fwd, bwd = [], []
        for _ in range(repeats):
            t0 = perf_counter()
            h, cache = embednet.forward(stack, x)
            t1 = perf_counter()
            embednet.backward(stack, upstream, cache)
            t2 = perf_counter()
            fwd.append(t1 - t0)
            bwd.append(t2 - t1)
        out[f"embednet.forward{kind}_isolated_ms"] = _median_ms(fwd)
        out[f"embednet.backward{kind}_isolated_ms"] = _median_ms(bwd)
    return out
