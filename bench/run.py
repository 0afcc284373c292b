"""Benchmark of the scenecontrast commands, one workload per process.

    python3 bench/run.py --workload desk-pretrain --seed 3 --seconds 60 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload is a closed loop of CLI commands (``gen-scenes``,
then ``pretrain`` and ``probe``, or ``ablate``) driven in-process through
``scenecontrast.cli.main``, one command at a time.  The workload seed
reaches the program only as ``gen-scenes --seed``.  Every command's output
is checked; a command that exits non-zero or fails its check counts as
failed.

``--trace 0`` reports the end-to-end metrics.  Its only hook times each
``trainer.run_step`` call.  ``--trace 1`` runs the job once that way and
once with every layer wrapped (see ``layertrace.py``), and reports the
per-layer metrics, the tracing overhead and isolated timings of the two
embedding stacks.  The last line of standard output is the result as one
JSON object; the line before it records the machine and the samples.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

# one BLAS/OpenMP thread: the box has two cores, and one thread is steadier
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# set-up repeated alone, up to the first step, this many times before the
# jobs and as many after them: the host's speed drifts over a run, and the
# set-up median should sample the same stretch of it as the jobs
SETUP_PROBES = 2


@dataclass(frozen=True)
class Workload:
    gen: tuple[str, ...]  # gen-scenes flags besides --seed and --out
    train: str  # "pretrain" or "ablate"
    # planning figure: one job's wall time on a slow host.  A run makes
    # floor(--seconds / job_s) jobs, at least one, so every run of a
    # workload does the same work whatever the host's speed.
    job_s: float
    config: dict[str, str] = field(default_factory=dict)  # empty: the defaults
    probe: bool = False  # probe the pretrain checkpoint


# Why each workload was chosen and which layers it loads is recorded in
# BENCHMARK.json and README.md.  region-dense is not listed in
# BENCHMARK.json: on a shared 2-core host its figures spread too widely
# between runs to serve as a gate (README.md, "Noise"); run it by hand.
WORKLOADS = {
    "desk-pretrain": Workload(
        gen=("--count", "32"),
        train="pretrain",
        job_s=40.0,
        probe=True,
    ),
    "ablation-frozen2d": Workload(
        gen=("--count", "16", "--points", "768", "--height", "32", "--width", "32",
             "--classes", "6", "--objects", "5", "--noise", "0.25"),
        train="ablate",
        job_s=30.0,
        config={"epochs": "60", "lr": "0.003", "tau_pro": "0.02", "lam": "2",
                "freeze_2d": "true"},
    ),
    "region-dense": Workload(
        gen=("--count", "16", "--points", "256", "--height", "32", "--width", "32",
             "--classes", "12", "--objects", "5", "--oversegment", "32",
             "--noise", "0.1"),
        train="pretrain",
        job_s=8.0,
        config={"lam": "0", "ema": "true", "tau_pro": "0.1"},
        probe=True,
    ),
}


class SetupReached(Exception):
    """Raised at the first training step of a set-up-only repetition."""


class StepClock:
    """Times every ``trainer.run_step`` call; the untraced run's only hook."""

    def __init__(self, trainer, degenerate):
        self.trainer = trainer
        self.real = trainer.run_step
        self.degenerate = degenerate
        self.samples: list[float] = []
        self.skipped = 0
        self.first: float | None = None
        self.stop_at_first = False
        trainer.run_step = self._timed

    def _timed(self, *args, **kwargs):
        t0 = perf_counter()
        if self.first is None:
            self.first = t0
        if self.stop_at_first:
            raise SetupReached
        try:
            result = self.real(*args, **kwargs)
        except self.degenerate:
            self.skipped += 1
            raise
        self.samples.append(perf_counter() - t0)
        return result

    def close(self) -> None:
        self.trainer.run_step = self.real


@dataclass
class Command:
    rc: int | None
    seconds: float
    stdout: str
    error: str


def run_command(cli, argv: list[str]) -> Command:
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SetupReached:
        raise
    except Exception as exc:  # a crash is a failed command, not a crashed run
        return Command(None, perf_counter() - t0, out.getvalue(),
                       f"{type(exc).__name__}: {exc}")
    return Command(rc, perf_counter() - t0, out.getvalue(), err.getvalue())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_accuracy(text: str) -> None:
    value = float(text)
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise ValueError(f"accuracy {text} outside [0, 1]")


@dataclass
class Job:
    """One pass over a workload's command sequence, with its checks."""

    seconds: float = 0.0  # command wall time only; checks are not timed
    setup: float | None = None
    steps: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    files: dict[str, int] = field(default_factory=dict)


class Bench:
    def __init__(self, pkg, name: str, seed: int, work: Path):
        self.pkg = pkg
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.work = work
        cfg = pkg.trainer.TrainConfig()
        for key, value in self.wl.config.items():
            pkg.trainer.set_config_value(cfg, key, value)
        cfg.validate()
        self.cfg = cfg
        self.count = int(self.wl.gen[self.wl.gen.index("--count") + 1])
        self.steps_per_run = cfg.epochs * (self.count // cfg.scenes_per_batch)
        self.clock: StepClock | None = None

    # -- commands ---------------------------------------------------------

    def _fresh(self, tag: str) -> Path:
        d = self.work / tag
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        if self.wl.config:
            lines = [f"{k} = {v}" for k, v in self.wl.config.items()]
            (d / "cfg.txt").write_text("\n".join(lines) + "\n")
        return d

    def _argvs(self, d: Path) -> list[list[str]]:
        cfg = ["--config", str(d / "cfg.txt")] if self.wl.config else []
        scenes = str(d / "scenes")
        cmds = [["gen-scenes", "--seed", str(self.seed), "--out", scenes, *self.wl.gen]]
        if self.wl.train == "pretrain":
            cmds.append(["pretrain", *cfg, "--scenes", scenes, "--out", str(d / "out")])
        else:
            cmds.append(["ablate", *cfg, "--scenes", scenes, "--seeds", "1",
                         "--out", str(d / "out")])
        if self.wl.probe:
            cmds.append(["probe", "--ckpt", str(d / "out" / "checkpoint.cscw"),
                         "--scenes", scenes, *cfg, "--out", str(d / "probe")])
        return cmds

    def setup_only(self) -> tuple[float, Job]:
        """Run the commands up to the first training step, then stop."""
        d = self._fresh("setup")
        gen, train = self._argvs(d)[:2]
        job = Job()
        self._run(job, d, gen)
        clock = self.clock
        clock.first = None
        clock.stop_at_first = True
        t0 = perf_counter()
        try:
            cmd = run_command(self.pkg.cli, train)
        except SetupReached:
            return job.seconds + clock.first - t0, job
        finally:
            clock.stop_at_first = False
            shutil.rmtree(d, ignore_errors=True)
        job.attempted += 1
        job.failures.append(f"{train[0]} ended before its first step: {cmd.error.strip()}")
        return math.nan, job

    def job(self, recorder=None) -> Job:
        """Run the whole command sequence once and check every output."""
        d = self._fresh("job")
        job = Job()
        steps_before = len(self.clock.samples)
        for argv in self._argvs(d):
            self._run(job, d, argv, recorder)
        job.steps = self.clock.samples[steps_before:]
        return job

    def _run(self, job: Job, d: Path, argv: list[str], recorder=None) -> None:
        clock = self.clock
        clock.first = None
        steps, skips = len(clock.samples), clock.skipped
        t0 = perf_counter()
        cmd = run_command(self.pkg.cli, argv)
        if job.setup is None and clock.first is not None:
            job.setup = job.seconds + clock.first - t0
        job.seconds += cmd.seconds
        job.attempted += 1
        if recorder is not None:
            recorder.enabled = False
        try:
            problem = None
            if cmd.rc != 0:
                problem = f"exit {cmd.rc}: {cmd.error.strip()[-300:]}"
            else:
                check = getattr(self, "_check_" + argv[0].replace("-", "_"))
                check(job, d, cmd, len(clock.samples) - steps, clock.skipped - skips)
        except (ValueError, OSError, KeyError, IndexError, self.pkg.errors.SceneContrastError) as err:
            problem = f"{type(err).__name__}: {err}"
        finally:
            if recorder is not None:
                recorder.enabled = True
        if problem is not None:
            job.failures.append(f"{argv[0]}: {problem}")

    # -- output checks ----------------------------------------------------
    # Each raises ValueError (or a read error) when an output is wrong.

    def _check_gen_scenes(self, job, d, cmd, steps, skips) -> None:
        files = sorted((d / "scenes").glob("*.cscs"))
        if len(files) != self.count:
            raise ValueError(f"{len(files)} scene files, want {self.count}")
        job.files["scene_bytes"] = files[0].stat().st_size

    def _check_pretrain(self, job, d, cmd, steps, skips) -> None:
        if steps + skips != self.steps_per_run:
            raise ValueError(f"{steps} steps + {skips} skipped, want {self.steps_per_run}")
        metrics = d / "out" / "metrics.csv"
        lines = metrics.read_text().splitlines()
        if lines[0] != self.pkg.losses.CSV_HEADER:
            raise ValueError(f"metrics.csv header {lines[0]!r}")
        if len(lines) - 1 != steps:
            raise ValueError(f"metrics.csv has {len(lines) - 1} rows, want {steps}")
        for n, line in enumerate(lines[1:], start=1):
            values = [float(v) for v in line.split(",")]
            if int(values[0]) != n or not all(math.isfinite(v) for v in values):
                raise ValueError(f"metrics.csv row {n}: {line}")
        ckpt = d / "out" / "checkpoint.cscw"
        layers = self.pkg.embednet.read_checkpoint(ckpt)
        if not all(np_finite(w) and np_finite(b) for w, b in layers):
            raise ValueError("checkpoint holds non-finite parameters")
        feat_dim = self.pkg.scenegen.read_scene(
            sorted((d / "scenes").glob("*.cscs"))[0]).pixel_features.shape[3]
        self.pkg.trainer.load_model(ckpt, feat_dim, self.cfg.embed_dim)
        job.files["ckpt_bytes"] = ckpt.stat().st_size
        job.digests["metrics.csv"] = sha256(metrics)
        job.digests["checkpoint.cscw"] = sha256(ckpt)

    def _check_probe(self, job, d, cmd, steps, skips) -> None:
        lines = cmd.stdout.splitlines()
        if not lines[0].startswith("mean_accuracy "):
            raise ValueError(f"probe printed {lines[0]!r}")
        check_accuracy(lines[0].split()[1])
        for line in lines[1:-1]:
            check_accuracy(line.split()[-1])
        if (d / "probe" / "probe.txt").read_text() != cmd.stdout:
            raise ValueError("probe.txt differs from the printed report")

    def _check_ablate(self, job, d, cmd, steps, skips) -> None:
        want = 3 * self.steps_per_run
        if steps + skips != want:
            raise ValueError(f"{steps} steps + {skips} skipped, want {want}")
        path = d / "out" / "ablate.csv"
        text = path.read_text()
        if text != cmd.stdout:
            raise ValueError("ablate.csv differs from the printed CSV")
        lines = text.splitlines()
        rows = [line.split(",") for line in lines[1:]]
        arms = [(arm, seed) for arm, seed, _ in rows]
        if lines[0] != "arm,seed,accuracy" or arms != [(a, "0") for a in self.pkg.trainer.ARMS]:
            raise ValueError(f"ablate.csv rows {arms}")
        for _, _, acc in rows:
            check_accuracy(acc)
        job.digests["ablate.csv"] = sha256(path)


def np_finite(a) -> bool:
    import numpy as np

    return bool(np.isfinite(a).all())


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {}
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        features = {}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu": sorted(k for k, v in features.items() if v and k.startswith("AVX")),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def gemm_ms() -> float:
    """Median time of a fixed in-place GEMM: the host's speed right now.

    The host's cores are shared, and its speed drifts between phases; this
    lets a reader tell a slow program from a slow host.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x, w = rng.standard_normal((4096, 64)), rng.standard_normal((64, 64))
    out = np.empty((4096, 64))
    times = []
    for _ in range(100):
        t0 = perf_counter()
        np.matmul(x, w, out=out)
        times.append(perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def platform_key(facts: dict) -> str:
    """Byte identity holds per numpy, BLAS build and CPU kernel set."""
    return "|".join([facts["numpy"], str(facts["blas"].get("version")),
                     ",".join(facts["cpu"])])


def check_digests(bench: Bench, jobs: list[Job], facts: dict) -> str:
    """Compare output digests across the run's jobs and with the recorded ones."""
    full = [j for j in jobs if j.digests]
    for job in full[1:]:
        if job.digests != full[0].digests:
            job.failures.append("outputs differ between two jobs of one run")
    table = json.loads(DIGESTS.read_text())
    if table["platform"] != platform_key(facts):
        return "not recorded for this platform"
    want = table["workloads"].get(bench.name, {}).get(str(bench.seed))
    if want is None:
        return "not recorded for this seed"
    for job in full:
        if job.digests != want:
            job.failures.append(f"digests {job.digests} differ from recorded {want}")
    return "checked"


def emit(facts: dict, jobs: list[Job], metrics: dict) -> None:
    attempted = sum(j.attempted for j in jobs)
    failures = [f for j in jobs for f in j.failures]
    for f in failures:
        print(f"failed: {f}", file=sys.stderr)
    facts["failures"] = failures
    print(json.dumps({"facts": facts}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "scenecontrast" / "__init__.py").is_file():
        print(f"error: no scenecontrast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import scenecontrast.cli  # noqa: F401  (loads every layer)
    import scenecontrast as pkg

    facts = machine_facts()
    facts.update(workload=args.workload, seed=args.seed, trace=args.trace,
                 load_start=os.getloadavg(), gemm_ms_start=gemm_ms())
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    bench = Bench(pkg, args.workload, args.seed, work)
    try:
        if args.trace:
            metrics, jobs = traced_run(bench, facts)
        else:
            metrics, jobs = untraced_run(bench, facts, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    facts["digests"] = check_digests(bench, jobs, facts)
    facts["output_digests"] = jobs[0].digests
    failed = sum(len(j.failures) for j in jobs)
    if not args.trace:
        metrics["passed_share"] = (1.0 - failed / sum(j.attempted for j in jobs), "share")
    facts.update(load_end=os.getloadavg(), gemm_ms_end=gemm_ms())
    emit(facts, jobs, metrics)
    return 0


def untraced_run(bench: Bench, facts: dict, seconds: float):
    """Set-up alone, then the planned number of jobs; end-to-end metrics."""
    bench.clock = StepClock(bench.pkg.trainer, bench.pkg.errors.DegenerateBatchError)
    try:
        setups, probes = [], []

        def probe() -> None:
            for _ in range(SETUP_PROBES):
                setup, job = bench.setup_only()
                setups.append(setup)
                probes.append(job)

        probe()
        full = [bench.job() for _ in range(max(1, int(seconds // bench.wl.job_s)))]
        probe()
    finally:
        bench.clock.close()
    setups += [j.setup for j in full]
    if None in setups or not all(math.isfinite(s) for s in setups):
        full[0].failures.append("set-up did not reach a training step")
        setups = [s for s in setups if s is not None and math.isfinite(s)] or [math.nan]
    steps = [s for j in full for s in j.steps] or [math.nan]
    metrics = {
        "job_s": (statistics.median(j.seconds for j in full), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "step_ms_p90": (1000.0 * percentile(steps, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # the step median is recorded but not a metric: it flips between the
    # host's fast and slow modes (README.md, "Noise")
    facts.update(jobs=len(full), job_s=[j.seconds for j in full], setup_s=setups,
                 step_samples=len(steps), step_ms_p50=1000.0 * statistics.median(steps),
                 skipped=bench.clock.skipped)
    return metrics, full + probes


def traced_run(bench: Bench, facts: dict):
    """One untraced and one traced job; per-layer metrics from the second."""
    import layertrace

    pkg = bench.pkg
    degenerate = pkg.errors.DegenerateBatchError
    bench.clock = StepClock(pkg.trainer, degenerate)
    try:
        _, warm = bench.setup_only()  # the untraced run also warms up first
        untraced = bench.job()
    finally:
        bench.clock.close()
    rec = layertrace.Recorder()
    rec.install(pkg)
    bench.clock = StepClock(pkg.trainer, degenerate)
    try:
        traced = bench.job(recorder=rec)
    finally:
        bench.clock.close()
        rec.uninstall()

    layers = layertrace.layer_metrics(rec)
    scene = sorted((bench.work / "job" / "scenes").glob("*.cscs"))[0]
    frame = pkg.trainer.prepare_frame(pkg.scenegen.read_scene(scene))
    model = pkg.trainer.init_model(frame.x2d.shape[1], bench.cfg.embed_dim, 0)
    layers.update(layertrace.isolated_stack_ms(pkg, frame, model, repeats=15))
    layers["binio.scene_bytes"] = traced.files.get("scene_bytes", 0)
    layers["binio.ckpt_bytes"] = traced.files.get("ckpt_bytes", 0)
    layers["trace.job_s"] = traced.seconds
    layers["trace.untraced_job_s"] = untraced.seconds
    layers["trace.overhead_share"] = traced.seconds / untraced.seconds - 1.0
    layers["trace.span_cost_us"] = 1e6 * layertrace.span_cost_s()
    layers["trace.span_overhead_share"] = (
        len(rec.spans) * layers["trace.span_cost_us"] / 1e6 / traced.seconds)
    untraced_step = 1000.0 * statistics.fmean(untraced.steps)
    layers["trace.untraced_step_ms"] = untraced_step
    layers["trace.step_overhead_share"] = layers["trace.step_ms"] / untraced_step - 1.0
    trace_file = WORK / f"trace-{bench.name}-{bench.seed}.json"
    rec.dump(trace_file)
    facts.update(trace_file=str(trace_file.relative_to(ROOT)), spans=len(rec.spans))
    metrics = {name: (layers[name], unit) for name, unit in layertrace.UNITS.items()}
    return metrics, [untraced, traced, warm]


if __name__ == "__main__":
    sys.exit(main())
