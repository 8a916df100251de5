"""Command-line front end: experiment dispatch, config parsing, CSV output.

Exit codes: 0 success or --help; 1 input or usage error, or a closed stdout; 2 solver failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import lab
from .energy import stretch_datum
from .geometry import CrackSurface
from .minimize import SolverConfig


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, an input error, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# each flag a subcommand may read: the config key it sets (its dest) and its help
_FLAG_ARGS = {"seed": ("seed", "global RNG seed"), "h": ("h", "grid spacing"),
              "rho": ("rho_list", "thickness parameter"),
              "crack": ("crack_path", "crack surface text file"),
              "datum": ("stretch", "boundary datum, e.g. stretch:0.5")}


def _load_crack(cfg: lab.ExperimentConfig) -> CrackSurface:
    if not cfg.crack_path:
        raise ValueError("a crack file is required (--crack)")
    if not os.path.exists(cfg.crack_path):
        raise FileNotFoundError(f"crack file not found: {cfg.crack_path}")
    return CrackSurface.load(cfg.crack_path, cfg.n)


def _box(cfg):
    return (0.0,) * cfg.n, (1.0,) * cfg.n


def _membrane(cfg):
    return lab.membrane_crack_state(cfg.stretch, cfg.plan, cfg.omega_lo, cfg.omega_hi, cfg.n)


def _datum(cfg):
    return stretch_datum(cfg.stretch, cfg.n)


def _minimize(cfg):
    s, cracks, e, trace = lab.minimize_limit(cfg.plan, cfg.omega_lo, cfg.omega_hi, _datum(cfg),
                                             cfg.lame, SolverConfig())
    cracked = any(np.any(c) for c in cracks.broken) or bool(cracks.released)
    return [{"stretch": cfg.stretch, "bulk": e.bulk, "surface": e.surface,
             "penalty": e.boundary_penalty, "total": e.total,
             "cracked": int(cracked), "rounds": len(trace)}]


# each subcommand: its help, the _FLAG_ARGS it reads, and its driver from the
# validated ExperimentConfig to CSV rows
_COMMANDS = {
    "classify": (
        "bad-cube classification statistics for a crack", ("seed", "h", "crack"),
        lambda cfg: lab.classify_experiment(_load_crack(cfg), cfg.h, *_box(cfg),
                                            seed=cfg.seed, samples=min(cfg.samples, 20))),
    "jump-energy": (
        "Monte Carlo discrete jump energy over grid offsets", ("seed", "h", "crack"),
        lambda cfg: lab.jump_energy_experiment(_load_crack(cfg), cfg.h, *_box(cfg),
                                               samples=cfg.samples, seed=cfg.seed)),
    "approximate": (
        "approximant accuracy across an h schedule", ("h", "crack"),
        lambda cfg: lab.approximate_experiment(_load_crack(cfg), [cfg.h, cfg.h / 2, cfg.h / 4],
                                               *_box(cfg))),
    "recover": (
        "recovery-sequence energy sweep over rho", ("rho", "datum"),
        lambda cfg: lab.recovery_sweep(_membrane(cfg), cfg.lame, cfg.rho_list,
                                       layers=cfg.layers)),
    "minimize": ("single minimization of the reduced or rescaled energy", ("datum",), _minimize),
    "sweep": (
        "minima-convergence sweep over rho", ("rho", "datum"),
        lambda cfg: lab.minima_sweep(_datum(cfg), cfg.lame, cfg.rho_list, cfg.plan, cfg.omega_lo,
                                     cfg.omega_hi, layers=cfg.layers, cfg=SolverConfig())),
}


def _build_parser() -> argparse.ArgumentParser:
    # no abbreviations: `--h` would otherwise match `--help` on a subcommand without --h
    ap = _Parser(prog="platelab", allow_abbrev=False,
                 description="Numerical experiments for thin-plate fracture energies.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (helptext, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext, allow_abbrev=False)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--out", help="output CSV path")
        for flag in flags:
            dest, flaghelp = _FLAG_ARGS[flag]
            p.add_argument(f"--{flag}", dest=dest, metavar=flag.upper(), help=flaghelp)
    return ap


def _make_config(args, unused) -> lab.ExperimentConfig:
    """The config file's mapping with each given flag as one more entry, validated
    once.  `unused` are argparse's leftovers: flags this subcommand does not read."""
    if unused:
        raise ValueError(f"{unused[0].partition('=')[0]} is not used by {args.command}")
    mapping = {}
    if args.config:
        if not os.path.exists(args.config):
            raise FileNotFoundError(f"config file not found: {args.config}")
        mapping = lab.load_config(args.config)
    flags = {k: v for k, v in vars(args).items()
             if v is not None and k not in ("command", "config")}
    if "stretch" in flags:
        kind, _, flags["stretch"] = flags["stretch"].partition(":")
        if kind != "stretch":
            raise ValueError(f"unsupported datum spec: {args.stretch}")
    mapping.update(flags)
    return lab.config_from_mapping(mapping)


def run_cli(argv=None) -> int:
    try:
        args, unused = _build_parser().parse_known_args(argv)
    except SystemExit as exc:  # --help, or a usage error already printed
        return exc.code
    try:
        cfg = _make_config(args, unused)
        rows = _COMMANDS[args.command][2](cfg)
        if cfg.out:
            lab.write_csv(rows, cfg.out)
            print(f"wrote {len(rows)} rows to {cfg.out}")
        else:
            lab.write_rows(rows, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so the exit flush is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:  # OSError: a missing or unreadable path
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
