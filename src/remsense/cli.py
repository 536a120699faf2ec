"""Command-line front end.

Subcommands: synth, fit-corr, calibrate, reconstruct, eval, sweep.
Every subcommand accepts ``--config FILE`` with a JSON document; flags
override matching config keys.  Outputs are CSV or JSON.  Exit codes:
0 success, 2 validation (bad flags, bad config), 3 runtime (bad data,
failed fit, I/O during processing).
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from .calibration import (
    delta_gain,
    estimate_a_uav,
    estimate_effective_pattern,
    read_delta_csv,
    write_delta_csv,
)
from .completion import McAssistedGpr, McConfig, build_grid
from .errors import RangeError, RemSenseError
from .evaluation import (
    METHODS,
    EvalConfig,
    fit_residual_model,
    ingest_measurements,
    monte_carlo_eval,
    sweep,
)
from .gpr import gpr_fit, gpr_predict_mean
from .kriging import KrigingConfig, predict_batch
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


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise _ConfigProblem("config file must hold a JSON object")
    return doc


def _require(doc: dict, key: str):
    if key not in doc:
        raise _ConfigProblem(f"config is missing required key '{key}'")
    return doc[key]


def _station_and_prop(doc: dict):
    gs = _geopoint_from_dict(_require(doc, "gs"))
    prop = _prop_from_dict(_require(doc, "prop"))
    return gs, prop


def _mc_from_dict(d: dict) -> McConfig:
    allowed = {f.name for f in dataclasses.fields(McConfig)}
    unknown = set(d) - allowed
    if unknown:
        raise _ConfigProblem(f"unknown mc keys: {sorted(unknown)}")
    try:
        return McConfig(**d)
    except RangeError as exc:
        raise _ConfigProblem(f"mc: {exc}") from None


# ---------------------------------------------------------------- synth


def _cmd_synth(args):
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
    doc = _load_config(args.config)
    gs, prop = _station_and_prop(doc)
    measurements = ingest_measurements(args.measurements)
    print(f"read {len(measurements)} measurements")
    sf = extract_sf(measurements, prop, gs)
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
    doc = _load_config(args.config)
    gs, prop = _station_and_prop(doc)
    bin_deg = args.bin_deg if args.bin_deg is not None else doc.get(
        "calibration_bin_deg", 5.0)
    min_support = args.min_support if args.min_support is not None else doc.get(
        "calibration_min_support", 25)
    measurements = ingest_measurements(args.measurements)
    print(f"read {len(measurements)} measurements")
    ratios = estimate_a_uav(measurements, prop, gs, campaign=args.measurements)
    effective = estimate_effective_pattern(
        ratios, prop.gs_pattern, bin_deg=bin_deg, min_support=min_support
    )
    delta = delta_gain(effective, prop.uav_pattern)
    write_delta_csv(args.out, delta)
    n_sup = int(np.count_nonzero(delta.supported))
    print(f"wrote gain correction ({n_sup} supported bins) to {args.out}")
    return 0


# ------------------------------------------------------------ reconstruct


def _cmd_reconstruct(args):
    doc = _load_config(args.config)
    gs, prop = _station_and_prop(doc)
    method = args.method or doc.get("method", "OK")
    if method not in METHODS:
        raise _ConfigProblem(f"method must be one of {METHODS}")
    if not args.spacing > 0:
        raise _ConfigProblem(f"spacing must be positive, got {args.spacing:g}")
    radius_m = args.radius if args.radius is not None else doc.get(
        "radius_m", 200.0)
    if not radius_m > 0:
        raise _ConfigProblem(f"radius_m must be positive, got {radius_m:g}")
    mc = _mc_from_dict(doc.get("mc", {}))
    delta = None
    if args.delta_csv:
        delta = read_delta_csv(args.delta_csv)
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

    z_hat = np.zeros(lat_q.size)
    if method != "TRPL_only":
        fit = fit_residual_model(samples, method)
        if method in ("GPR", "MC_GPR"):
            model = gpr_fit(samples, fit.corr, fit.sigma_y, fit.sigma_gp)
            if method == "GPR":
                z_hat = gpr_predict_mean(model, lat_q, lon_q, alt_q)
            else:
                pipeline = McAssistedGpr(model, mc)
                z_hat = pipeline.predict(lat_q, lon_q)
        else:
            variant = (method if fit.transform is not None
                       else method.replace("TG_", ""))
            kcfg = KrigingConfig(radius_m=radius_m, variant=variant,
                                 mean_z=fit.mean_z)
            z_hat = predict_batch(samples, fit.corr, lat_q, lon_q, alt_q,
                                  kcfg, transform=fit.transform,
                                  model_u=fit.corr_u).z_hat

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


def _eval_config(args, doc):
    gs, prop = _station_and_prop(doc)

    def pick(flag, key, default):
        return flag if flag is not None else doc.get(key, default)

    corr = None
    if doc.get("corr_model") is not None:
        corr = _corr_from_dict(doc["corr_model"])
    delta = None
    delta_path = pick(getattr(args, "delta_csv", None), "delta_csv", None)
    if delta_path:
        delta = read_delta_csv(delta_path)
    sigma_split = doc.get("sigma_split")
    if sigma_split is not None:
        sigma_split = tuple(float(v) for v in sigma_split)
    calibrated = doc.get("calibrated", False)
    if getattr(args, "calibrated", False):
        calibrated = True

    return EvalConfig(
        gs=gs,
        prop=prop,
        test_campaign=pick(args.test, "test_campaign", None),
        train_campaign=pick(args.train, "train_campaign", None),
        method=pick(args.method, "method", "OK"),
        calibrated=calibrated,
        m_samples=pick(args.m_samples, "m_samples", 100),
        radius_m=pick(args.radius, "radius_m", 200.0),
        iterations=pick(args.iterations, "iterations", 5000),
        seed=pick(args.seed, "seed", 0),
        workers=pick(args.workers, "workers", 1),
        mean_z=doc.get("mean_z"),
        corr_model=corr,
        sigma_split=sigma_split,
        delta=delta,
        calibration_bin_deg=doc.get("calibration_bin_deg", 5.0),
        calibration_min_support=doc.get("calibration_min_support", 25),
        mc=_mc_from_dict(doc.get("mc", {})),
    )


def _cmd_eval(args):
    doc = _load_config(args.config)
    try:
        cfg = _eval_config(args, doc)
    except (TypeError, ValueError, KeyError) as exc:
        raise _ConfigProblem(str(exc)) from None
    if cfg.test_campaign is None:
        raise _ConfigProblem("a test campaign is required (--test)")
    report = monte_carlo_eval(cfg)
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
    if axis == "M":
        return [int(p) for p in parts]
    if axis == "R":
        return [float(p) for p in parts]
    return parts


def _cmd_sweep(args):
    doc = _load_config(args.config)
    try:
        base = _eval_config(args, doc)
        values = _sweep_values(args.axis, args.values)
    except (TypeError, ValueError, KeyError) as exc:
        raise _ConfigProblem(str(exc)) from None
    if base.test_campaign is None and args.axis != "altitude_campaign":
        raise _ConfigProblem("a test campaign is required (--test)")
    reports = sweep(base, args.axis, values, out_csv=args.out)
    for value, report in zip(values, reports):
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
            else "evaluate along an axis (M, R, method, altitude_campaign)",
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
                       help="accepted for compatibility and has no effect: "
                       "iterations run serially")
        p.add_argument("--calibrated", action="store_true")
        p.add_argument("--delta-csv", default=None, dest="delta_csv")
        if name == "eval":
            p.add_argument("--out", default=None, help="report JSON path")
            p.set_defaults(func=_cmd_eval)
        else:
            p.add_argument("--axis", required=True,
                           choices=("M", "R", "method", "altitude_campaign"))
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
