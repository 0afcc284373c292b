"""Command-line entry point.

Commands: gen-scenes, pretrain, gradcheck, probe, ablate.  Exit codes:
0 success, 1 invalid flags or configuration, 2 runtime failure (including
a gradcheck that finds a bad gradient, running out of memory, an
interrupt and SIGTERM).  All file outputs go under the path given by --out.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
# numpy imports this on first use, and a SIGINT or SIGTERM that lands inside
# that import can be lost; every command uses it, so import it now.  No
# command reaches numpy.ma, numpy's other late import: np.union1d and an
# np.unique with neither indices nor counts import it, so none calls them
import numpy.random  # noqa: F401

from . import trainer
from .bounds import Bound, check
from .errors import ConfigurationError, SceneContrastError
from .scenegen import (
    SceneGeometry,
    SemanticOracleConfig,
    generate_scene,
    read_scene,
    write_scene,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract wants 1
    def error(self, message):
        raise _UsageError(message)


def _scene_seed(base: int, scene: int) -> int:
    return int(np.random.SeedSequence((base, scene)).generate_state(1, np.uint64)[0])


# the flags that no config dataclass holds
FLAG_BOUNDS = {
    "--seed": Bound(int, 0),
    "--count": Bound(int, 1, 1 << 32, source="format: scene ids are u32"),
    "--seeds": Bound(int, 1, 1000, source="desk budget: 3 desk pretrains a seed"),
}


def _load_scene_dir(path: str) -> trainer.SceneSet:
    files = sorted(Path(path).glob("*.cscs"))
    if not files:
        raise ConfigurationError(f"no .cscs files under {path}")
    return trainer.SceneSet([read_scene(f) for f in files], files)


def _check_out(path: str) -> None:
    """Reject, before any work, an --out whose nearest existing path is no directory."""
    out = Path(path)
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not nearest.is_dir():
        raise ConfigurationError(f"--out {path}: {nearest} is not a directory")


def _config_from_args(args) -> trainer.TrainConfig:
    cfg = trainer.load_config(args.config) if args.config else trainer.TrainConfig()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "fraction", None) is not None:
        cfg = replace(cfg, probe_fraction=args.fraction)
    cfg.validate()
    return cfg


# gen-scenes flags, by the config that holds each one's field and default
_GEN_FLAGS = {
    SemanticOracleConfig: {"--classes": "num_classes", "--objects": "objects_per_scene",
                           "--oversegment": "oversegment_factor", "--noise": "noise"},
    SceneGeometry: {"--cameras": "num_cameras", "--points": "num_points",
                    "--height": "height", "--width": "width"},
}


def _cmd_gen_scenes(args) -> int:
    cfg, geom = (
        config(**{name: getattr(args, flag[2:]) for flag, name in flags.items()})
        for config, flags in _GEN_FLAGS.items()
    )
    out = Path(args.out)
    for s in range(args.count):
        frame = generate_scene(_scene_seed(args.seed, s), cfg, geom, scene_id=s)
        if s == 0:  # a scene exists: a failure before it leaves no --out behind
            out.mkdir(parents=True, exist_ok=True)
        write_scene(frame, out / f"scene_{s:04d}_f00.cscs")
    print(f"wrote {args.count} scenes to {out}")
    return 0


def _cmd_pretrain(args) -> int:
    cfg = _config_from_args(args)
    with _load_scene_dir(args.scenes) as scenes:  # stops the set's lane
        result = trainer.pretrain(scenes, cfg, out_dir=args.out)
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"metrics:    {result.metrics_path}")
    return 0


def _cmd_gradcheck(args) -> int:
    report = trainer.gradcheck(seed=args.seed)
    sys.stdout.write(report.summary())
    return 0 if report.all_passed else 2


def _cmd_probe(args) -> int:
    cfg = _config_from_args(args)
    scenes = _load_scene_dir(args.scenes)
    feat_dim = scenes.frames[0].pixel_features.shape[3]
    model = trainer.load_model(args.ckpt, feat_dim, cfg.embed_dim)
    report = trainer.linear_probe(model, scenes, cfg)
    sys.stdout.write(report.summary())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "probe.txt").write_text(report.summary())
    return 0


def _cmd_ablate(args) -> int:
    cfg = _config_from_args(args)
    # --seeds defaults to 10, or to 1 with --arm
    n = args.seeds if args.seeds is not None else 1 if args.arm else 10
    seeds = range(cfg.seed, cfg.seed + n)
    arms = (args.arm,) if args.arm else trainer.ARMS
    with _load_scene_dir(args.scenes) as scenes:  # one lane for every job
        rows = trainer.run_ablation(scenes, cfg, seeds, arms=arms)
    csv = trainer.ablation_csv(rows)
    sys.stdout.write(csv)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "ablate.csv").write_text(csv)
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="scenecontrast", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-scenes", help="write deterministic synthetic scenes")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--count", type=int, default=8)
    g.add_argument("--out", required=True)
    for config, flags in _GEN_FLAGS.items():
        defaults = config()
        for flag, name in flags.items():
            value = getattr(defaults, name)
            g.add_argument(flag, type=type(value), default=value)
    g.set_defaults(fn=_cmd_gen_scenes)

    t = sub.add_parser("pretrain", help="run the contrastive pre-training loop")
    t.add_argument("--config", default=None)
    t.add_argument("--scenes", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int, default=None)
    t.set_defaults(fn=_cmd_pretrain)

    c = sub.add_parser(
        "gradcheck",
        help="finite-difference audit; exit 0 only if every component passes",
    )
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(fn=_cmd_gradcheck)

    r = sub.add_parser("probe", help="linear probe of a trained checkpoint")
    r.add_argument("--ckpt", required=True)
    r.add_argument("--scenes", required=True)
    r.add_argument("--fraction", type=float, default=None)
    r.add_argument("--config", default=None)
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--out", default=None)
    r.set_defaults(fn=_cmd_probe)

    a = sub.add_parser("ablate", help="train and probe the comparison arms")
    a.add_argument("--scenes", required=True)
    a.add_argument("--seeds", type=int, default=None)
    a.add_argument("--arm", choices=list(trainer.ARMS), default=None)
    a.add_argument("--config", default=None)
    a.add_argument("--fraction", type=float, default=None)
    a.add_argument("--seed", type=int, default=None)
    a.add_argument("--out", default=None)
    a.set_defaults(fn=_cmd_ablate)

    return p


class _Terminated(BaseException):
    """Raised on the main thread by SIGTERM, so a run unwinds as on Ctrl-C."""


def _terminate(signum, frame):
    raise _Terminated


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    # signal handlers can only be set on the main thread; a caller that
    # runs main elsewhere keeps its own
    on_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _terminate) if on_main else None
    try:
        check(FLAG_BOUNDS, {f"--{k}": v for k, v in vars(args).items()})
        if getattr(args, "out", None):
            _check_out(args.out)
        return args.fn(args)
    except (ConfigurationError, OSError) as err:
        # a path flag names a file that is missing or cannot be used
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SceneContrastError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: {args.command}: out of memory", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(f"error: {args.command}: interrupted", file=sys.stderr)
        return 2
    except _Terminated:
        print(f"error: {args.command}: terminated", file=sys.stderr)
        return 2
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, previous or signal.SIG_DFL)  # None: set outside Python


if __name__ == "__main__":
    sys.exit(main())
