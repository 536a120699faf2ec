"""Command-line front end.

Subcommands: synth, fit-corr, calibrate, reconstruct, eval, sweep.
Every subcommand but synth takes ``--config FILE``; ``_COMMAND_KEYS``
lists the keys each one reads, and ``_configure`` reads and checks them.
Outputs are CSV or JSON.  Exit codes: 0 success, 2 validation (a bad flag
or config key, checked before any data file is read), 3 runtime (bad
data, failed fit, I/O during processing).
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .calibration import (
    _bin_axes,
    _check_min_support,
    delta_gain,
    estimate_a_uav,
    estimate_effective_pattern,
    read_delta_csv,
    write_delta_csv,
)
from .completion import McConfig, build_grid
from .errors import RemSenseError, _check_int, _check_real
from .evaluation import (
    METHODS,
    SWEEP_AXES,
    EvalConfig,
    fit_residual_model,
    ingest_measurements,
    monte_carlo_eval,
    predict_residuals,
    sweep,
)
from .scenes import (
    _corr_from_dict,
    _corr_to_dict,
    _geopoint_from_dict,
    _prop_from_dict,
    generate_campaign,
    scene_from_json,
    write_measurements_csv,
)
from .shadowing import (
    _predicted_power,
    empirical_correlation,
    extract_sf,
    fit_correlation_model,
)


class _ConfigProblem(Exception):
    """Raised while assembling a command's configuration."""


def _boolean(value):
    if not isinstance(value, bool):
        raise TypeError(f"must be true or false, got {value!r}")
    return value


def _checked(check):
    """A parser that returns the value once ``check`` accepts it."""
    def parse(value):
        check(value)
        return value
    return parse


# config key -> (flag dest or None, parser or None).  A flag that is set
# wins over its key; the parser builds or checks the value, whichever
# set it, and its errors name that key or flag.
_KEYS = {
    "gs": (None, _geopoint_from_dict),
    "prop": (None, _prop_from_dict),
    "test_campaign": ("test", None),
    "train_campaign": ("train", None),
    "method": ("method", None),
    "m_samples": ("m_samples", None),
    "radius_m": ("radius", None),
    "iterations": ("iterations", None),
    "seed": ("seed", None),
    "delta_csv": ("delta_csv", None),
    "calibrated": ("calibrated", _boolean),
    "mean_z": (None, None),
    "corr_model": (None, _corr_from_dict),
    "sigma_split": (None, None),
    "calibration_bin_deg": ("bin_deg", _checked(_bin_axes)),
    "calibration_min_support": ("min_support", _checked(_check_min_support)),
    "mc": (None, lambda d: McConfig(**d)),
    "workers": ("workers", None),
}
_REQUIRED = ("gs", "prop")
_COMMAND_KEYS = {
    "fit-corr": _REQUIRED,
    "calibrate": _REQUIRED + ("calibration_bin_deg",
                              "calibration_min_support"),
    "reconstruct": _REQUIRED + ("method", "radius_m", "delta_csv", "mc"),
    "eval": tuple(_KEYS),
    "sweep": tuple(_KEYS),
}


def _configure(args) -> dict:
    """Read and check every setting of ``args.command``, before any data.

    Each key the command reads comes from the config file, or from its
    flag when that is set.  A key that is absent or null and a flag that
    is not given are left out, so the library's own defaults apply.
    Returns the settings by key; ``eval`` and ``sweep`` get their
    ``EvalConfig`` as ``"cfg"``.  Every KeyError, TypeError or ValueError
    raised while they are read and checked becomes a _ConfigProblem
    (exit 2).  Only then is the ``delta_csv`` file read into ``"delta"``
    (and into the ``EvalConfig``), so a bad one keeps exit 3, as the
    measurement files the command reads later do.
    """
    command, where = args.command, None
    try:
        config = ({} if args.config is None
                  else json.loads(Path(args.config).read_text()))
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
        for key in sorted(set(config) - set(_KEYS)):
            print(f"warning: unknown config key '{key}'", file=sys.stderr)
        s = {}
        for key in _COMMAND_KEYS[command]:
            dest, parse = _KEYS[key]
            flag = getattr(args, dest, None) if dest else None
            value = config.get(key) if flag is None else flag
            if value is None:
                if key in _REQUIRED:
                    raise _ConfigProblem(
                        f"config is missing required key '{key}'")
                continue
            where = key if flag is None else "--" + dest.replace("_", "-")
            s[key] = parse(value) if parse else value
        where = None

        if command == "reconstruct":
            s = {"method": "OK", "radius_m": 200.0, "mc": McConfig(), **s}
            if s["method"] not in METHODS:
                raise ValueError(f"method must be one of {METHODS}")
            _check_real("radius_m", s["radius_m"], positive=True)
            _check_real("--spacing", args.spacing, positive=True)
            if args.alt is not None:
                _check_real("--alt", args.alt)
        elif command in ("eval", "sweep"):
            fields = {k: v for k, v in s.items() if k != "delta_csv"}
            s["cfg"] = EvalConfig(
                test_campaign=fields.pop("test_campaign", None), **fields)
            if command == "sweep":
                s["values"] = _sweep_values(args.axis, args.values)
            if (s["cfg"].test_campaign is None
                    and getattr(args, "axis", None) != "altitude_campaign"):
                raise _ConfigProblem("a test campaign is required (--test)")
    except (KeyError, TypeError, ValueError) as exc:
        message = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise _ConfigProblem(
            f"{where}: {message}" if where else str(message)) from None
    s["delta"] = read_delta_csv(s["delta_csv"]) if s.get("delta_csv") else None
    if s["delta"] is not None and "cfg" in s:
        s["cfg"] = dataclasses.replace(s["cfg"], delta=s["delta"])
    return s


# ---------------------------------------------------------------- synth


def _cmd_synth(args):
    if args.seed is not None:
        try:
            _check_int("--seed", args.seed, 0)
        except ValueError as exc:
            raise _ConfigProblem(str(exc)) from None
    scene, traj = scene_from_json(args.scene)
    if traj is None:
        raise _ConfigProblem("scene file has no 'trajectory' entry")
    if args.seed is not None:
        scene = dataclasses.replace(scene, seed=args.seed)
    measurements, _truth = generate_campaign(scene, traj)
    write_measurements_csv(args.out, measurements)
    print(f"wrote {len(measurements)} measurements to {args.out}")
    return 0


# -------------------------------------------------------------- fit-corr


def _cmd_fit_corr(args):
    s = _configure(args)
    measurements = ingest_measurements(args.measurements)
    print(f"read {len(measurements)} measurements")
    sf = extract_sf(measurements, s["prop"], s["gs"])
    table = empirical_correlation(sf)
    model = fit_correlation_model(table)
    out = {
        "model": _corr_to_dict(model),
        "n_measurements": len(measurements),
        "n_pairs_used": int(table.n_pairs_used),
        "sigma_hat": float(table.sigma),
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print(
        f"fit a={model.a:.4f} p1={model.p1:.5f} p2={model.p2:.5f} "
        f"q={model.q:.5f} sigma_z={model.sigma_z:.4f} -> {args.out}"
    )
    return 0


# -------------------------------------------------------------- calibrate


def _cmd_calibrate(args):
    s = _configure(args)
    prop = s["prop"]
    binning = {_KEYS[key][0]: value for key, value in s.items()
               if key.startswith("calibration_")}
    measurements = ingest_measurements(args.measurements)
    print(f"read {len(measurements)} measurements")
    ratios = estimate_a_uav(measurements, prop, s["gs"],
                            campaign=args.measurements)
    effective = estimate_effective_pattern(ratios, prop.gs_pattern, **binning)
    delta = delta_gain(effective, prop.uav_pattern)
    write_delta_csv(args.out, delta)
    n_sup = int(np.count_nonzero(delta.supported))
    print(f"wrote gain correction ({n_sup} supported bins) to {args.out}")
    return 0


# ------------------------------------------------------------ reconstruct


def _cmd_reconstruct(args):
    s = _configure(args)
    gs, prop, method, delta = s["gs"], s["prop"], s["method"], s["delta"]
    measurements = ingest_measurements(args.measurements)
    print(f"read {len(measurements)} measurements")
    samples = extract_sf(measurements, prop, gs, delta_gain=delta)
    spec = build_grid(samples, args.spacing)
    if args.alt is not None:
        if method == "MC_GPR" and np.any(samples.alt != args.alt):
            raise _ConfigProblem(
                f"MC_GPR maps the samples' own altitude; --alt {args.alt:g} "
                "differs from it"
            )
        spec = dataclasses.replace(spec, alt_m=args.alt)

    lat_q, lon_q = (g.ravel() for g in spec.node_latlon())
    alt_q = np.full(lat_q.shape, spec.alt_m)
    _, rhat = _predicted_power(prop, gs, lat_q, lon_q, alt_q, delta)

    fit = (None if method == "TRPL_only"
           else fit_residual_model(samples, method))
    z_hat = predict_residuals(method, fit, samples, lat_q, lon_q, alt_q,
                              radius_m=s["radius_m"], mc=s["mc"])
    power = rhat + z_hat
    with open(args.out, "w", newline="") as fh:
        fh.write("lat_deg,lon_deg,alt_m,power_dbm\n")
        for la, lo, al, p in zip(lat_q, lon_q, alt_q, power):
            fh.write(f"{repr(float(la))},{repr(float(lo))},"
                     f"{repr(float(al))},{repr(float(p))}\n")
    print(
        f"wrote {spec.n_rows}x{spec.n_cols} grid ({method}) to {args.out}"
    )
    return 0


# ------------------------------------------------------------------ eval


def _cmd_eval(args):
    report = monte_carlo_eval(_configure(args)["cfg"])
    payload = report.to_dict()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    print(
        f"{report.method}{' calibrated' if report.calibrated else ''}: "
        f"median RMSE {report.median_rmse_db:.4f} dB over "
        f"{len(report.rmse_db)} iterations (n_test={report.n_test})"
    )
    if args.out:
        print(f"report -> {args.out}")
    return 0


# ----------------------------------------------------------------- sweep


def _sweep_values(axis, raw):
    parts = [p for p in (s.strip() for s in raw.split(",")) if p]
    if not parts:
        raise _ConfigProblem("--values is empty")
    cast = {"M": int, "R": float}.get(axis, str)
    return [cast(p) for p in parts]


def _cmd_sweep(args):
    s = _configure(args)
    reports = sweep(s["cfg"], args.axis, s["values"], out_csv=args.out)
    for value, report in zip(s["values"], reports):
        print(
            f"{args.axis}={value}: median RMSE "
            f"{report.median_rmse_db:.4f} dB"
        )
    if args.out:
        print(f"long-format CSV -> {args.out}")
    return 0


# ----------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="remsense",
        description="Radio environment map reconstruction toolkit",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", help="generate a synthetic campaign CSV")
    p.add_argument("--scene", required=True,
                   help="scene JSON (with a 'trajectory' entry)")
    p.add_argument("--out", required=True, help="output measurement CSV")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scene seed")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit-corr",
                       help="fit the shadowing correlation model")
    p.add_argument("--measurements", required=True)
    p.add_argument("--config", required=True,
                   help="JSON with 'gs' and 'prop'")
    p.add_argument("--out", required=True, help="output model JSON")
    p.set_defaults(func=_cmd_fit_corr)

    p = sub.add_parser("calibrate",
                       help="estimate the antenna gain correction")
    p.add_argument("--measurements", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output correction CSV")
    p.add_argument("--bin-deg", type=float, default=None, dest="bin_deg")
    p.add_argument("--min-support", type=int, default=None,
                   dest="min_support")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("reconstruct",
                       help="reconstruct a power map grid from a campaign")
    p.add_argument("--measurements", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output grid CSV")
    p.add_argument("--method", default=None)
    p.add_argument("--radius", type=float, default=None,
                   help="kriging neighborhood radius (m)")
    p.add_argument("--spacing", type=float, default=25.0,
                   help="grid spacing (m)")
    p.add_argument("--alt", type=float, default=None,
                   help="grid altitude (m); default: campaign mean; "
                   "MC_GPR takes only the samples' altitude")
    p.add_argument("--delta-csv", default=None, dest="delta_csv",
                   help="gain correction CSV to apply")
    p.set_defaults(func=_cmd_reconstruct)

    for name in ("eval", "sweep"):
        p = sub.add_parser(
            name,
            help="run the Monte-Carlo evaluation protocol" if name == "eval"
            else f"evaluate along an axis ({', '.join(SWEEP_AXES)})",
        )
        p.add_argument("--config", default=None)
        p.add_argument("--test", default=None, help="test campaign CSV")
        p.add_argument("--train", default=None, help="train campaign CSV")
        p.add_argument("--method", default=None)
        p.add_argument("-M", "--m-samples", type=int, default=None,
                       dest="m_samples")
        p.add_argument("-R", "--radius", type=float, default=None)
        p.add_argument("--iterations", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None,
                       help="has no effect and will be removed; given here "
                       "or as the config key, it only warns: iterations run "
                       "serially")
        p.add_argument("--calibrated", action="store_true", default=None)
        p.add_argument("--delta-csv", default=None, dest="delta_csv")
        if name == "eval":
            p.add_argument("--out", default=None, help="report JSON path")
            p.set_defaults(func=_cmd_eval)
        else:
            p.add_argument("--axis", required=True,
                           choices=SWEEP_AXES)
            p.add_argument("--values", required=True,
                           help="comma-separated values")
            p.add_argument("--out", default=None,
                           help="long-format CSV path")
            p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except _ConfigProblem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return 2
    except RemSenseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
