"""Command-line front end: experiment dispatch, config parsing, CSV output.

Exit codes: 0 success, 1 validation/input error, 2 solver failure.
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


# flags each subcommand reads; any other flag given is an error
_FLAGS = {
    "classify": ("seed", "h", "crack"),
    "jump-energy": ("seed", "h", "crack"),
    "approximate": ("h", "crack"),
    "recover": ("rho", "datum"),
    "liminf": ("rho", "datum"),
    "minimize": ("datum",),
    "sweep": ("rho", "datum"),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, an input error, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="platelab",
        description="Numerical experiments for thin-plate fracture energies.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("classify", "bad-cube classification statistics for a crack"),
        ("jump-energy", "Monte Carlo discrete jump energy over grid offsets"),
        ("approximate", "approximant accuracy across an h schedule"),
        ("recover", "recovery-sequence energy sweep over rho"),
        ("liminf", "lower-bound margins for the recovery family"),
        ("minimize", "single minimization of the reduced or rescaled energy"),
        ("sweep", "minima-convergence sweep over rho"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--seed", help="global RNG seed")
        p.add_argument("--h", help="grid spacing")
        p.add_argument("--rho", help="thickness parameter")
        p.add_argument("--crack", help="crack surface text file")
        p.add_argument("--datum", help="boundary datum, e.g. stretch:0.5")
    return ap


def _make_config(args) -> lab.ExperimentConfig:
    """The config file's mapping with each given flag as one more entry, validated once."""
    for flag in ("seed", "h", "rho", "crack", "datum"):
        if getattr(args, flag) is not None and flag not in _FLAGS[args.command]:
            raise ValueError(f"--{flag} is not used by {args.command}")
    mapping = {}
    if args.config:
        if not os.path.exists(args.config):
            raise FileNotFoundError(f"config file not found: {args.config}")
        mapping = lab.load_config(args.config)
    stretch = None
    if args.datum is not None:
        kind, _, stretch = args.datum.partition(":")
        if kind != "stretch":
            raise ValueError(f"unsupported datum spec: {args.datum}")
    flags = {"out": args.out, "seed": args.seed, "h": args.h, "rho_list": args.rho,
             "crack_path": args.crack, "stretch": stretch}
    mapping.update((k, v) for k, v in flags.items() if v is not None)
    return lab.config_from_mapping(mapping)


def _load_crack(cfg: lab.ExperimentConfig) -> CrackSurface:
    if not cfg.crack_path:
        raise ValueError("a crack file is required (--crack)")
    if not os.path.exists(cfg.crack_path):
        raise FileNotFoundError(f"crack file not found: {cfg.crack_path}")
    return CrackSurface.load(cfg.crack_path, cfg.n)


def _box(cfg):
    return (0.0,) * cfg.n, (1.0,) * cfg.n


def _dispatch(command: str, cfg: lab.ExperimentConfig) -> list:
    if command == "classify":
        crack = _load_crack(cfg)
        lo, hi = _box(cfg)
        return lab.classify_experiment(crack, cfg.h, lo, hi, seed=cfg.seed,
                                       samples=min(cfg.samples, 20))
    if command == "jump-energy":
        crack = _load_crack(cfg)
        lo, hi = _box(cfg)
        return lab.jump_energy_experiment(crack, cfg.h, lo, hi,
                                          samples=cfg.samples, seed=cfg.seed)
    if command == "approximate":
        crack = _load_crack(cfg)
        lo, hi = _box(cfg)
        base = cfg.h
        return lab.approximate_experiment(crack, [base, base / 2, base / 4], lo, hi)
    if command == "recover":
        s = lab.membrane_crack_state(cfg.stretch, cfg.plan,
                                     cfg.omega_lo, cfg.omega_hi, cfg.n)
        return lab.recovery_sweep(s, cfg.lame, cfg.rho_list, layers=cfg.layers)
    if command == "liminf":
        s = lab.membrane_crack_state(cfg.stretch, cfg.plan,
                                     cfg.omega_lo, cfg.omega_hi, cfg.n)

        def family(rho):
            return lab.recovery_sequence(s, cfg.lame, rho, np.sqrt(rho),
                                         layers=cfg.layers)

        return lab.liminf_probe(family, s, cfg.lame, cfg.rho_list)
    if command == "minimize":
        g = stretch_datum(cfg.stretch, cfg.n)
        scfg = SolverConfig()
        s, cracks, e, trace = lab.minimize_limit(cfg.plan, cfg.omega_lo,
                                                 cfg.omega_hi, g, cfg.lame, scfg)
        cracked = any(np.any(c) for c in cracks.broken) or bool(cracks.released)
        return [{"stretch": cfg.stretch, "bulk": e.bulk, "surface": e.surface,
                 "penalty": e.boundary_penalty, "total": e.total,
                 "cracked": int(cracked), "rounds": len(trace)}]
    # sweep: argparse admits no other subcommand
    g = stretch_datum(cfg.stretch, cfg.n)
    return lab.minima_sweep(g, cfg.lame, cfg.rho_list, cfg.plan,
                            cfg.omega_lo, cfg.omega_hi,
                            layers=cfg.layers, cfg=SolverConfig())


def run_cli(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _make_config(args)
        rows = _dispatch(args.command, cfg)
        if cfg.out:
            lab.write_csv(rows, cfg.out)
            print(f"wrote {len(rows)} rows to {cfg.out}")
        else:
            lab.write_rows(rows, sys.stdout)
    except (ValueError, FileNotFoundError) as exc:
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
