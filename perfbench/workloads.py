"""Workload definitions: seeded inputs and the operations each workload runs.

An operation is one call into a user entry point: ``monte_carlo_eval``
on CSV paths, or ``remsense.cli.main`` with an argument list.  Every
operation has a *full* form (the measured work) and a *minimal* form
(the same command at the least work it accepts: one Monte-Carlo
iteration, or a reconstruct grid of at most a dozen nodes).  The
minimal forms summed are the workload's set-up cost; full minus minimal
is its marginal work.

Input generation imports ``remsense`` lazily, so this module can be
loaded before ``PYTHONPATH`` points at the checkout.
"""

import json
import os
from dataclasses import dataclass, field

WORKLOADS = ("eval-krige", "eval-gpr", "map-bulk")

# iterations per full-form eval operation; smoke mode uses SMOKE_ITERATIONS
ITERATIONS = {
    "c06-OK": 10,
    "c06-SK": 10,
    "c06-TG_OK": 10,
    "c06-OK-w2": 10,
    "c09-OK": 60,
    "zz-GPR": 200,
    "zz-MC_GPR": 30,
}
SMOKE_ITERATIONS = 2

# grid spacings: full reconstruct, and the coarse pass (<= 12 nodes)
GRID_SPACING_M = 10.0
COARSE_SPACING_M = {"rec-GPR": 400.0, "rec-OK": 200.0}


def scene_seeds(seed: int) -> dict:
    """Scene seeds per input; seed 0 gives the acceptance-test seeds."""
    off = 1000 * int(seed)
    return {
        "c06_train": 301 + off,
        "c06_test": 302 + off,
        "zz_train": 101 + off,
        "zz_test": 102 + off,
        "bulk": 701 + off,
        "eval": 42 + int(seed),
    }


def station():
    """Ground station and propagation settings of the eval campaigns."""
    import remsense as rs

    gs = rs.GeoPoint(35.72, -78.70, 10.0)
    prop = rs.PropagationConfig(carrier_hz=3.32e9, tx_power_dbm=23.0)
    return gs, prop


BULK_TRAJECTORY = {
    "kind": "lawnmower",
    "origin": {"lat_deg": 35.721, "lon_deg": -78.702, "alt_m": 60.0},
    "width_m": 900.0,
    "height_m": 800.0,
    "n_rows": 12,
    "alt_m": 60.0,
    "sample_spacing_m": 4.5,
}


def make_inputs(workdir: str, seed: int, workload: str) -> dict:
    """Write the input files ``workload`` reads for ``seed`` into ``workdir``.

    Returns a manifest of paths and expected sizes, which is also
    written to ``inputs.json``.
    """
    from remsense.patterns import sector_blockage_delta
    from remsense.scenes import (
        _geopoint_to_dict,
        _prop_to_dict,
        scene_from_json,
        scene_to_json,
    )

    import remsense as rs

    gs, prop = station()
    corr = rs.CorrelationModel(a=0.7, p1=0.05, p2=0.005, q=0.1, sigma_z=3.0)
    base = rs.GeoPoint(35.721, -78.702, 50.0)
    seeds = scene_seeds(seed)
    paths = {}

    def campaign(name, scene_seed, traj, limit=None):
        rows, _ = rs.generate_campaign(
            rs.SceneSpec(gs=gs, cfg=prop, corr=corr, seed=scene_seed), traj)
        rows = rows[:limit] if limit else rows
        paths[name] = os.path.join(workdir, f"{name}.csv")
        rs.write_measurements_csv(paths[name], rows)
        return len(rows)

    # the zigzag pair is the conftest ``gaussian_campaigns`` shape
    sizes = {
        "zz_test": campaign("zz_test", seeds["zz_test"],
                            rs.zigzag_trajectory(base, 500.0, 400.0, 11,
                                                 70.0, 14.0)),
    }
    if workload != "map-bulk":
        sizes["zz_train"] = campaign(
            "zz_train", seeds["zz_train"],
            rs.lawnmower_trajectory(base, 500.0, 400.0, 10, 50.0, 14.0))
    if workload == "eval-krige":
        # the c06 acceptance shape: 800-row train, first 1500 test rows
        sizes["c06_train"] = campaign(
            "c06_train", seeds["c06_train"],
            rs.lawnmower_trajectory(base, 750.0, 600.0, 12, 60.0, 12.0))
        sizes["c06_test"] = campaign(
            "c06_test", seeds["c06_test"],
            rs.lawnmower_trajectory(base, 750.0, 600.0, 18, 70.0, 9.0),
            limit=1500)
    if workload != "map-bulk":
        return _write_manifest(workdir, seed, seeds, paths, sizes)

    # map-bulk: free-space two-ray, correlated field, -6 dB receive sector
    friis = rs.PropagationConfig(carrier_hz=3.32e9, tx_power_dbm=23.0,
                                 ground_rel_permittivity=1.0)
    field_corr = rs.CorrelationModel(a=0.7, p1=0.05, p2=0.005, q=0.1,
                                     sigma_z=2.0)
    bulk = rs.SceneSpec(gs=gs, cfg=friis, corr=field_corr, noise_sd=0.5,
                        pattern_distortion=sector_blockage_delta(
                            150.0, 190.0, -6.0),
                        seed=seeds["bulk"])
    paths["bulk_scene"] = os.path.join(workdir, "bulk_scene.json")
    scene_to_json(bulk, paths["bulk_scene"], BULK_TRAJECTORY)
    _, traj = scene_from_json(paths["bulk_scene"])
    sizes["bulk"] = len(traj.waypoints)

    for name, p in (("bulk_cfg", friis), ("zz_cfg", prop)):
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump({"gs": _geopoint_to_dict(gs), "prop": _prop_to_dict(p),
                       "radius_m": 200.0}, fh)

    return _write_manifest(workdir, seed, seeds, paths, sizes)


def _write_manifest(workdir, seed, seeds, paths, sizes):
    manifest = {"seed": int(seed), "seeds": seeds, "paths": paths,
                "sizes": sizes}
    with open(os.path.join(workdir, "inputs.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


@dataclass
class Op:
    """One user-level command of a workload.

    ``kind`` is ``eval`` or ``cli``.  For eval ops ``spec`` holds the
    ``EvalConfig`` keyword arguments without ``iterations``; for cli ops
    ``argv`` / ``argv_min`` are the full and minimal argument lists.
    ``units_key`` names what the full form does more of than the minimal
    one (``iters``, ``iters_w2`` or ``nodes``); empty keeps the op out of
    the marginal rates.  Ops with ``in_setup`` false have no minimal form.
    """

    name: str
    kind: str
    spec: dict = field(default_factory=dict)
    argv: list = None
    argv_min: list = None
    iterations: int = 1
    in_setup: bool = True
    units_key: str = ""


def build_ops(workload: str, manifest: dict, smoke: bool = False) -> list:
    """Operations of ``workload`` in run order."""
    paths = manifest["paths"]
    seed = manifest["seeds"]["eval"]

    def iters(name):
        return SMOKE_ITERATIONS if smoke else ITERATIONS[name]

    def ev(name, method, train, test, radius=200.0, workers=1):
        return Op(name=name, kind="eval", iterations=iters(name),
                  units_key="iters_w2" if workers > 1 else "iters",
                  spec=dict(method=method, train_campaign=paths[train],
                            test_campaign=paths[test], m_samples=100,
                            radius_m=radius, seed=seed, workers=workers))

    if workload == "eval-krige":
        return [
            ev("c06-OK", "OK", "c06_train", "c06_test"),
            ev("c06-SK", "SK", "c06_train", "c06_test"),
            ev("c06-TG_OK", "TG_OK", "c06_train", "c06_test"),
            ev("c06-OK-w2", "OK", "c06_train", "c06_test", workers=2),
            ev("c09-OK", "OK", "zz_train", "zz_test", radius=70.0),
        ]
    if workload == "eval-gpr":
        return [
            ev("zz-GPR", "GPR", "zz_train", "zz_test"),
            ev("zz-MC_GPR", "MC_GPR", "zz_train", "zz_test"),
        ]
    if workload != "map-bulk":
        raise ValueError(f"unknown workload {workload!r}")
    work = os.path.dirname(paths["bulk_scene"])
    synth_out = os.path.join(work, "synth.csv")
    delta = os.path.join(work, "delta.csv")

    def rec(name, measurements, cfg, method, extra=()):
        def argv(spacing):
            return ["reconstruct", "--measurements", measurements,
                    "--config", paths[cfg], "--method", method, *extra,
                    "--out", os.path.join(work, f"{name}.csv"),
                    "--spacing", repr(spacing)]

        return Op(name=name, kind="cli", units_key="nodes",
                  argv=argv(GRID_SPACING_M),
                  argv_min=argv(COARSE_SPACING_M[name]))

    calib = ["calibrate", "--measurements", synth_out,
             "--config", paths["bulk_cfg"], "--out", delta]
    return [
        Op(name="synth", kind="cli", in_setup=False,
           argv=["synth", "--scene", paths["bulk_scene"], "--out", synth_out]),
        # calibrate has no smaller form; its minimal form is itself
        Op(name="calibrate", kind="cli", argv=calib, argv_min=calib),
        rec("rec-GPR", synth_out, "bulk_cfg", "GPR", ("--delta-csv", delta)),
        rec("rec-OK", paths["zz_test"], "zz_cfg", "OK"),
    ]

