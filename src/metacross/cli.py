"""Command-line interface.

Subcommands: train-seg, train-cls, sweep, complexity, gradcheck,
probe-permutation. Exit codes: 0 success, 1 validation or file problem,
2 numeric failure during computation.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .complexity import (bottleneck_tokens, compare_bottlenecks,
                         render_comparison_csv, render_comparison_text)
from .configfile import SCHEMAS, load_config
from .errors import ConfigError, NumericError
from .harness import (attention_config_from_values, gradcheck_suite,
                      render_loss_csv, render_probe_json, run_probe, run_sweep,
                      train_classifier, train_segmentation,
                      write_sweep_outputs)
from .metadata import MODALITY_NAMES
from .segmentation import save_checkpoint

GRADCHECK_THRESHOLD = 1e-4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we own the exit codes
        raise _UsageError(message)


# flags that override a config key; a subcommand takes those its task's schema holds
_OVERRIDES = {"seed": {"type": int, "help": "override the config seed"},
              "out": {"help": "override the output directory"}}


def _build_parser() -> _Parser:
    parser = _Parser(prog="metacross", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name, (task, _) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        for key, kwargs in _OVERRIDES.items():
            if key in SCHEMAS[task]:
                p.add_argument(f"--{key}", default=None, **kwargs)
    return parser


def _check_outdir(values: dict) -> None:
    """A ConfigError naming ``out`` if its path runs through an existing file, checked
    before any work; the directory is made only when the results are written, so a
    run that fails leaves none behind."""
    out = Path(values["out"])
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"config key 'out': {path} exists and is not a directory")
            return


def _outdir(values: dict) -> Path:
    out = Path(values["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_train(train, values: dict) -> int:
    model, losses = train(values)
    out = _outdir(values)
    (out / "loss_curve.csv").write_text(render_loss_csv(losses))
    save_checkpoint(model, out / "checkpoint.ckpt")
    print(f"trained {values['steps']} steps; loss {losses[0]:.4f} -> {losses[-1]:.4f}")
    print(f"wrote {out / 'checkpoint.ckpt'} and {out / 'loss_curve.csv'}")
    return 0


def _cmd_sweep(values: dict) -> int:
    sweep = run_sweep(values)
    paths = write_sweep_outputs(values["out"], sweep)
    header = " ".join(f"{m:>6}" for m in MODALITY_NAMES)
    print(f"{header} {'dice':>10} {'n':>4} {'secs':>8}")
    for r in sweep["results"]:
        flags = " ".join(f"{'x' if a else '.':>6}" for a in r.available)
        print(f"{flags} {r.dice:>10.4f} {r.n_samples:>4} {r.wall_time:>8.2f}")
    print(f"average dice {sweep['average']:.4f}")
    print(f"wrote {paths['csv']} and {paths['json']}")
    return 0


def _cmd_complexity(values: dict) -> int:
    n = bottleneck_tokens(values["input_extent"], values["encoder_downsamples"], values["patch_size"])
    comparison = compare_bottlenecks(attention_config_from_values(values), n, values["metadata_embed_dim"])
    out = _outdir(values)
    path = out / "complexity_comparison.csv"
    path.write_text(render_comparison_csv(comparison))
    print(render_comparison_text(comparison), end="")
    print(f"wrote {path}")
    return 0


def _cmd_gradcheck(values: dict) -> int:
    failures = 0
    for name, err in gradcheck_suite(values["seed"]).items():
        ok = err < GRADCHECK_THRESHOLD
        failures += 0 if ok else 1
        print(f"{'ok' if ok else 'FAIL':>4}  {name:<16} max rel err {err:.3e}")
    if failures:
        raise NumericError(f"{failures} gradient check(s) exceeded {GRADCHECK_THRESHOLD}")
    return 0


def _cmd_probe(values: dict) -> int:
    probe = run_probe(values)
    out = _outdir(values)
    (out / "probe.json").write_text(render_probe_json(probe))
    save_checkpoint(probe["model"], out / "checkpoint.ckpt")
    print(f"true accuracy        {probe['true_accuracy']:.4f}")
    print(f"shuffled accuracy    {probe['mean_shuffled_accuracy']:.4f} (mean of {probe['trials']} trials)")
    print(f"delta                {probe['delta']:+.4f}  "
          f"95% CI [{probe['delta_ci_low']:+.4f}, {probe['delta_ci_high']:+.4f}]")
    print(f"wrote {out / 'probe.json'}")
    return 0


# command -> (config task, runner); a task whose schema has ``out`` writes into it
_COMMANDS = {
    "train-seg": ("seg", partial(_cmd_train, train_segmentation)),
    "train-cls": ("cls", partial(_cmd_train, train_classifier)),
    "sweep": ("seg", _cmd_sweep),
    "complexity": ("complexity", _cmd_complexity),
    "gradcheck": ("gradcheck", _cmd_gradcheck),
    "probe-permutation": ("cls", _cmd_probe),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("error: a subcommand is required", file=sys.stderr)
            return 1
        task, runner = _COMMANDS[args.command]
        values = load_config(args.config, task,
                             overrides={key: getattr(args, key, None) for key in _OVERRIDES})
        if "out" in values:
            _check_outdir(values)
        return runner(values)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
