"""Command line entry points.

Exit codes: 0 on success, 1 for configuration problems, 2 for runtime
failures during a simulation.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from .allocation import AllocMode
from .errors import ConfigurationError, SimError
from .runner import emit, run_campaign
from .scenario import apply_overrides, load_config

DEFAULT_MODES = "5gnr,diaba,ciaba"


def _parse_modes(spec: str) -> list:
    modes = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            modes.append(AllocMode(token))
        except ValueError:
            valid = ", ".join(m.value for m in AllocMode)
            raise ConfigurationError(
                f"unknown allocation mode {token!r}; choose from: {valid}")
    if not modes:
        raise ConfigurationError("no allocation modes requested")
    return modes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmwsim",
        description="Multi-cell mm-wave hybrid-beamforming system simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo campaign")
    sim.add_argument("--config", required=True, help="YAML configuration file")
    sim.add_argument("--alloc", default=DEFAULT_MODES,
                     help="comma-separated allocation modes "
                          f"(default: {DEFAULT_MODES})")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the configured RNG seed")
    sim.add_argument("--out", default="out", help="output directory")
    sim.add_argument("--realizations", type=int, default=None,
                     help="override the configured realization count")
    sim.add_argument("--override", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="override any configuration key (repeatable)")

    chk = sub.add_parser("oracle-check",
                         help="compare allocators against the oracle "
                              "search on a guard-railed scenario")
    chk.add_argument("--config", required=True, help="YAML configuration file")
    return parser


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, args.override)
    if args.seed is not None:
        cfg = apply_overrides(cfg, seed=args.seed)
    if args.realizations is not None:
        cfg = apply_overrides(cfg, n_realizations=args.realizations)
    modes = _parse_modes(args.alloc)
    # before the campaign: an unusable --out must not cost a whole run
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory "
                                 f"{args.out}: {exc.strerror}") from exc
    result = run_campaign(cfg, modes)
    paths = emit(result, args.out)
    for mode in modes:
        s = result.mode_summary(mode)
        med = s.get("median_sinr_db")
        med_txt = "n/a" if med is None else f"{med:.2f} dB"
        print(f"{mode.value}: coverage={s.get('coverage', 0.0):.3f} "
              f"median_sinr={med_txt} "
              f"sum_rate={s.get('sum_throughput_bps', 0.0) / 1e9:.3f} Gbps")
    print(f"wrote {paths['records']}, {paths['summary']}, {paths['timings']}")
    return 0


def cmd_oracle_check(args) -> int:
    from .runner import prepare_realization, run_realization

    cfg = load_config(args.config)
    ctx = prepare_realization(cfg, 0)
    # the summaries' totals: plain additions in UE order, the same on every
    # Python version (built-in sum is compensated from 3.12 on)
    oracle = run_realization(ctx, AllocMode.ORACLE, cfg, 0)
    oracle_rate = oracle.summary["sum_throughput_bps"]
    ok = True
    for mode in (AllocMode.FIVEG_NR, AllocMode.DIABA, AllocMode.CIABA):
        res = run_realization(ctx, mode, cfg, 0)
        rate = res.summary["sum_throughput_bps"]
        dominated = rate <= oracle_rate + 1e-6
        ok = ok and dominated
        print(f"{mode.value}: sum_rate={rate / 1e9:.4f} Gbps "
              f"(oracle {oracle_rate / 1e9:.4f}) "
              f"{'ok' if dominated else 'ORACLE DOMINANCE VIOLATED'}")
    return 0 if ok else 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        # the parser admits no command but these two
        return cmd_oracle_check(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except SimError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
