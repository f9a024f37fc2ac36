"""Command-line harness: single runs, rate sweeps, and self-checks.

Exit codes: 0 success, 2 validation failure (bad config or a failed check),
1 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .metrics import write_traces
from .runner import run, sweep
from .scenario import OPTIMIZERS, Scenario, ScenarioError, load_scenario
from .validation import (BER_TOLERANCE_DB, EXPECTED_FRAME_AIRTIME_S, CalibrationError,
                         check_calibration, load_calibration, validate_ber)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridsim",
        description="Simulate reconfigurable optical/radio IoT nodes with "
                    "calibrated energy models.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one scenario")
    run_p.add_argument("--config", required=True, help="scenario file")
    run_p.add_argument("--seed", type=int, default=None, help="override the seed")
    run_p.add_argument("--out", default=None, help="directory for trace files")
    run_p.add_argument("--optimizer", choices=OPTIMIZERS, default=None,
                       help="override the configured optimizer")

    sweep_p = sub.add_parser("sweep", help="sweep target application rates")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--rates", required=True,
                         help="comma-separated target rates in kb/s")
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--out", default=None, help="directory for the sweep CSV")
    sweep_p.add_argument("--optimizer", choices=OPTIMIZERS, default=None,
                         help="restrict the sweep to one optimizer")

    ber_p = sub.add_parser("validate-ber",
                           help="compare the GFSK curve to the reference table")
    ber_p.add_argument("--fixture", default=None, help="alternative fixture CSV")

    cal_p = sub.add_parser("check-calibration",
                           help="recompute headline energies from the current table")
    cal_p.add_argument("--table", default=None, help="alternative calibration CSV")

    print_p = sub.add_parser("print-config", help="echo the validated scenario")
    print_p.add_argument("--config", required=True)
    return parser


def _load(args) -> Scenario:
    scenario = load_scenario(args.config)
    if getattr(args, "seed", None) is not None:
        scenario = scenario.replace(seed=args.seed)
    if getattr(args, "optimizer", None) is not None:
        scenario = scenario.replace(optimizer=args.optimizer)
    return scenario


def _cmd_run(args) -> int:
    scenario = _load(args)
    metrics = run(scenario)
    if args.out:
        paths = write_traces(metrics, args.out)
        for path in paths:
            print(path)
    for name, nm in sorted(metrics.nodes.items()):
        print(f"{name}: delivered {nm.megabytes_delivered:.3f} MB, "
              f"avg {nm.achieved_rate_kbps:.1f} kb/s over {nm.eligible_s:.1f} s "
              f"eligible, remaining {nm.remaining_j:.3f} J, "
              f"{nm.modality_switches} modality switches")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    scenario = _load(args)
    try:
        rates = [float(r) for r in args.rates.split(",") if r.strip()]
    except ValueError as exc:
        raise ScenarioError(f"--rates: {exc}") from None
    if not rates:
        raise ScenarioError("--rates must list at least one rate")
    optimizers = (args.optimizer,) if args.optimizer else OPTIMIZERS
    result = sweep(scenario, rates, optimizers=optimizers)
    csv_text = result.to_csv()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "sweep.csv"
        path.write_bytes(csv_text.encode())
        print(path)
    print(csv_text, end="")
    return EXIT_OK


def _cmd_validate_ber(args) -> int:
    report = validate_ber(args.fixture)
    print(f"points compared: {len(report.deviations_db)}")
    print(f"max horizontal deviation: {report.max_deviation_db:.6f} dB "
          f"(tolerance {BER_TOLERANCE_DB} dB)")
    print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _cmd_check_calibration(args) -> int:
    table = load_calibration(args.table) if args.table else None
    report = check_calibration(table)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.computed_j:.6g} J vs "
              f"{check.expected_j:.6g} J ({check.relative_error * 100:.2f}%)")
    status = "PASS" if report.airtime_ok else "FAIL"
    print(f"{status} vlc_frame_airtime: {report.frame_airtime_s:.3f} s vs "
          f"{EXPECTED_FRAME_AIRTIME_S:.2f} s")
    print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _cmd_print_config(args) -> int:
    scenario = _load(args)
    print(json.dumps(scenario.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "validate-ber": _cmd_validate_ber,
        "check-calibration": _cmd_check_calibration,
        "print-config": _cmd_print_config,
    }
    try:
        return handlers[args.command](args)
    except (ScenarioError, CalibrationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - surface anything else as runtime
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
