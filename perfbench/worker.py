"""One benchmark run's measuring process; ``run.py`` starts it.

``--mode inputs`` writes the seeded input files.  ``--mode measure``
runs the workload's operations in this fresh process, in rounds until
the next round would overrun ``--seconds`` (at least one round).  Each
round runs every operation's minimal form and then its full form, so
set-up time and marginal rates come from adjacent pairs.  Every output
is checked.  With ``--trace 1`` each untraced round is followed by a
traced round of full forms, and per-layer metrics are reported
instead.  The result goes to ``--result`` as JSON.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import remsense
from remsense import cli
from remsense.evaluation import EvalConfig, monte_carlo_eval

import workloads
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
RMSE_TOL_DB = 1e-9  # eval results; batched kriging moved them by 4e-15 dB
GRID_TOL_DB = 1e-6  # map values (calibration, synth, reconstruct grids)
KRIGING = ("OK", "SK", "TG_OK", "TG_SK")

# (metric, unit, layer key, field); "s" is the layer's summed self time
PER_LAYER = [
    ("kriging.solve.calls", "count", "kriging.solve", "calls"),
    ("kriging.solve.s", "s", "kriging.solve", "s"),
    ("kriging.solve.k_mean", "count", "kriging.solve", "k_mean"),
    ("kriging.solve.k_max", "count", "kriging.solve", "k_max"),
    ("evaluation.monte_carlo_eval.self_s", "s",
     "evaluation.monte_carlo_eval", "s"),
    ("shadowing.model_eval.s", "s", "shadowing.model_eval", "s"),
    ("shadowing.model_eval.entries", "count", "shadowing.model_eval",
     "entries"),
    ("evaluation.fallback_targets", "count", "report", "fallback_targets"),
    ("kriging.predict.calls", "count", "kriging.predict", "calls"),
    ("kriging.predict.s", "s", "kriging.predict", "s"),
    ("cli.reconstruct.self_s", "s", "cli.reconstruct", "s"),
    ("gpr.gpr_fit.calls", "count", "gpr.gpr_fit", "calls"),
    ("gpr.gpr_fit.s", "s", "gpr.gpr_fit", "s"),
    ("gpr.gpr_fit.rows_max", "count", "gpr.gpr_fit", "rows_max"),
    ("gpr.gpr_predict_batch.s", "s", "gpr.gpr_predict_batch", "s"),
    ("gpr.gpr_predict_batch.targets", "count", "gpr.gpr_predict_batch",
     "targets"),
    ("gpr.variance_clamps", "count", "gpr.gpr_predict_batch",
     "variance_clamps"),
    ("completion.gpr_to_grid.s", "s", "completion.gpr_to_grid", "s"),
    ("completion.grid_nodes", "count", "completion.gpr_to_grid",
     "grid_nodes"),
    ("completion.nuclear_norm_min.s", "s", "completion.nuclear_norm_min",
     "s"),
    ("completion.bisection_iters", "count", "completion.nuclear_norm_min",
     "bisection_iters"),
    ("completion.nuclear_norm_project.calls", "count",
     "completion.nuclear_norm_project", "calls"),
    ("completion.nuclear_norm_project.s", "s",
     "completion.nuclear_norm_project", "s"),
    ("completion.mc_bisection_maxed", "count", "completion.nuclear_norm_min",
     "mc_bisection_maxed"),
    ("completion.spline_predict.s", "s", "completion.spline_predict", "s"),
    ("shadowing.empirical_correlation.s", "s",
     "shadowing.empirical_correlation", "s"),
    ("shadowing.empirical_correlation.calls", "count",
     "shadowing.empirical_correlation", "calls"),
    ("shadowing.pairs_used_ratio", "ratio", "shadowing.empirical_correlation",
     "pairs_ratio"),
    ("shadowing.pairs_used", "count", "shadowing.empirical_correlation",
     "pairs_used"),
    ("shadowing.pairs_total", "count", "shadowing.empirical_correlation",
     "pairs_total"),
    ("shadowing.fit_correlation_model.s", "s",
     "shadowing.fit_correlation_model", "s"),
    ("gpr.estimate_hyperparameters.s", "s", "gpr.estimate_hyperparameters",
     "s"),
    ("kriging.normal_score.s", "s", "kriging.normal_score", "s"),
    ("evaluation.ingest.s", "s", "evaluation.ingest", "s"),
    ("evaluation.ingest.rows", "count", "evaluation.ingest", "rows"),
    ("geo.link_geometry_batch.s", "s", "geo.link_geometry_batch", "s"),
    ("geo.link_geometry_batch.rows", "count", "geo.link_geometry_batch",
     "rows"),
    ("propagation.trpl_received_power_db.s", "s",
     "propagation.trpl_received_power_db", "s"),
    ("propagation.trpl_received_power_db.rows", "count",
     "propagation.trpl_received_power_db", "rows"),
    ("shadowing.extract_sf.s", "s", "shadowing.extract_sf", "s"),
    ("calibration.estimate_a_uav.s", "s", "calibration.estimate_a_uav", "s"),
    ("calibration.estimate_effective_pattern.s", "s",
     "calibration.estimate_effective_pattern", "s"),
    ("scenes.field_factorisation.s", "s", "scenes.field_factorisation", "s"),
    ("scenes.generate_campaign.s", "s", "scenes.generate_campaign", "s"),
    ("scenes.write_measurements_csv.s", "s", "scenes.write_measurements_csv",
     "s"),
    ("cli.synth.self_s", "s", "cli.synth", "s"),
    ("cli.calibrate.self_s", "s", "cli.calibrate", "s"),
    ("trace.overhead_share", "ratio", "trace", "overhead_share"),
]


def _digest(values, decimals):
    """Order-sensitive digest of values rounded to ``decimals``."""
    text = ",".join(f"{v:.{decimals}f}" for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ------------------------------------------------------------ operations


class Runner:
    """Runs operations, checks their outputs and counts failures."""

    def __init__(self, manifest, smoke):
        self.manifest = manifest
        self.gs, self.prop = workloads.station()
        self.attempted = 0
        self.problems = []
        self.first_rmse = {}  # op -> rmse of iteration 0 (minimal form)
        self.rmse_lists = {}  # op -> full-form rmse list
        self.coarse = {}  # op -> {(lat, lon): power} from the coarse pass
        self.synth_rsrp = None  # values of the first synth output
        refs = {}
        if os.path.exists(REFERENCES):
            with open(REFERENCES) as fh:
                refs = json.load(fh)
        use = not smoke and refs.get("seed") == manifest["seed"]
        self.refs = refs.get("ops", {}) if use else {}
        self.observed = {}

    def run(self, op, minimal, tracer=None):
        """Run one op; returns (seconds, observation or None)."""
        self.attempted += 1
        form = "minimal" if minimal else "full"
        span = contextlib.nullcontext()
        if op.kind == "eval":
            iterations = 1 if minimal else op.iterations
            cfg = EvalConfig(gs=self.gs, prop=self.prop,
                             iterations=iterations, **op.spec)
            if tracer is not None:
                span = tracer.span("evaluation.monte_carlo_eval")
            start = time.perf_counter()
            try:
                with span:
                    report = monte_carlo_eval(cfg)
            except Exception as exc:  # a failed op is counted, not fatal
                traceback.print_exc()
                return self._fail(op, form, f"raised {exc!r}",
                                  time.perf_counter() - start)
            seconds = time.perf_counter() - start
            obs = self._eval_obs(report)
        else:
            argv = op.argv_min if minimal else op.argv
            if tracer is not None:
                span = tracer.span(f"cli.{argv[0]}")
            out = io.StringIO()
            start = time.perf_counter()
            try:
                with span, contextlib.redirect_stdout(out):
                    code = cli.main(argv)
            except Exception as exc:
                traceback.print_exc()
                return self._fail(op, form, f"raised {exc!r}",
                                  time.perf_counter() - start)
            seconds = time.perf_counter() - start
            if code != 0:
                return self._fail(op, form, f"exit code {code}", seconds)
            obs = self._cli_obs(op, argv)
        problems = self._check(op, minimal, obs)
        if problems:
            return self._fail(op, form, "; ".join(problems), seconds)
        if not minimal:
            self.observed[op.name] = obs
        return seconds, obs

    def _fail(self, op, form, message, seconds):
        self.problems.append(f"{op.name} ({form}): {message}")
        return seconds, None

    # ------------------------------------------------------ observations

    @staticmethod
    def _eval_obs(report):
        return {
            "iterations": len(report.rmse_db),
            "median_rmse_db": report.median_rmse_db,
            "rmse_first": report.rmse_db[0],
            "counters": dict(report.counters),
            "n_train": report.n_train,
            "n_test": report.n_test,
            "rmse": list(report.rmse_db),
            "digest": _digest(report.rmse_db, 9),
        }

    def _cli_obs(self, op, argv):
        out = argv[argv.index("--out") + 1]
        _, rows = _read_rows(out)
        if argv[0] == "synth":
            rsrp = [float(r[4]) for r in rows]
            return {"rows": len(rows), "rsrp_sum": math.fsum(rsrp),
                    "geometry": [r[:4] for r in rows], "rsrp": rsrp,
                    "digest": _digest(rsrp, 6)}
        if argv[0] == "calibrate":
            # az_deg,el_deg,gain_dbi,support
            delta = [float(r[2]) for r in rows if int(r[3]) > 0]
            return {"bins": len(rows), "supported": len(delta),
                    "delta_sum": math.fsum(delta),
                    "finite": all(math.isfinite(v) for v in delta),
                    "digest": _digest(delta, 6)}
        power = np.array([float(r[3]) for r in rows])
        return {"nodes": len(rows),
                "finite": bool(np.all(np.isfinite(power))),
                "power_mean": float(np.mean(power)),
                "power_min": float(np.min(power)),
                "power_max": float(np.max(power)),
                "samples": power[::97].tolist(),
                "by_node": {(r[0], r[1]): float(r[3]) for r in rows},
                "digest": _digest(power, 6)}

    # ------------------------------------------------------------ checks

    def _check(self, op, minimal, obs):
        sizes = self.manifest["sizes"]
        problems = []
        if op.kind == "eval":
            want = 1 if minimal else op.iterations
            test = os.path.splitext(os.path.basename(
                op.spec["test_campaign"]))[0]
            if obs["iterations"] != want:
                problems.append(f"{obs['iterations']} iterations, want {want}")
            if obs["n_test"] != sizes[test]:
                problems.append(f"n_test {obs['n_test']} != {sizes[test]}")
            if not all(math.isfinite(v) and v > 0 for v in obs["rmse"]):
                problems.append("non-finite or zero RMSE")
            if minimal:
                self.first_rmse[op.name] = obs["rmse_first"]
            else:
                first = self.first_rmse.get(op.name)
                if (first is not None
                        and abs(first - obs["rmse_first"]) > RMSE_TOL_DB):
                    problems.append("iteration 0 differs from the minimal run")
                twin = self.rmse_lists.get(op.name.replace("-w2", ""))
                if (op.spec["workers"] > 1 and twin is not None
                        and twin != obs["rmse"]):
                    problems.append("workers=2 results differ from workers=1")
                self.rmse_lists[op.name] = obs["rmse"]
        elif op.name == "synth":
            problems += self._check_synth(obs)
        elif op.name == "calibrate":
            if obs["supported"] == 0 or not obs["finite"]:
                problems.append("no finite supported calibration bins")
        else:
            problems += self._check_grid(op, minimal, obs)
        if not minimal and op.name in self.refs:
            problems += self._check_ref(self.refs[op.name], obs)
        return problems

    def _check_synth(self, obs):
        from remsense.scenes import scene_from_json

        _, traj = scene_from_json(self.manifest["paths"]["bulk_scene"])
        want = [[str(i), repr(p.lat_deg), repr(p.lon_deg), repr(p.alt_m)]
                for i, p in enumerate(traj.waypoints)]
        if obs["geometry"] != want:
            return [f"synth rows differ from the {len(want)} waypoints"]
        if not all(math.isfinite(v) for v in obs["rsrp"]):
            return ["synth wrote non-finite power"]
        if self.synth_rsrp is not None and obs["rsrp"] != self.synth_rsrp:
            return ["synth output changed between rounds"]
        self.synth_rsrp = obs["rsrp"]
        return []

    def _check_grid(self, op, minimal, obs):
        problems = []
        if not obs["finite"]:
            problems.append("non-finite grid power")
        if minimal:
            if obs["nodes"] > 12:
                problems.append(f"coarse pass has {obs['nodes']} nodes")
            self.coarse[op.name] = obs["by_node"]
            return problems
        coarse = self.coarse.get(op.name, {})
        shared = [k for k in coarse if k in obs["by_node"]]
        if coarse and len(shared) < 4:
            problems.append(f"only {len(shared)} coarse nodes on the grid")
        for key in shared:
            if abs(coarse[key] - obs["by_node"][key]) > GRID_TOL_DB:
                problems.append(f"coarse and full grids disagree at {key}")
                break
        return problems

    @staticmethod
    def _check_ref(ref, obs):
        problems = []
        for name, want in ref.items():
            got = obs.get(name)
            if isinstance(want, float):
                tol = RMSE_TOL_DB if name in ("median_rmse_db",
                                              "rmse_first") else GRID_TOL_DB
                ok = got is not None and abs(got - want) <= tol
            elif isinstance(want, list) and isinstance(want[0], float):
                ok = got is not None and len(got) == len(want) and all(
                    abs(a - b) <= GRID_TOL_DB for a, b in zip(got, want))
            else:
                ok = got == want
            if not ok:
                problems.append(f"reference {name}: got {got!r}, "
                                f"want {want!r}")
        return problems


REFERENCE_FIELDS = {
    "eval": ("iterations", "median_rmse_db", "rmse_first", "counters",
             "n_train", "n_test"),
    "synth": ("rows", "rsrp_sum"),
    "calibrate": ("bins", "supported", "delta_sum"),
    "reconstruct": ("nodes", "power_mean", "power_min", "power_max",
                    "samples"),
}


def reference_entry(op, obs):
    kind = op.kind if op.kind == "eval" else op.argv[0]
    return {k: obs[k] for k in REFERENCE_FIELDS[kind]}


# ------------------------------------------------------------- measuring


def _units(op, full, minimal):
    """Marginal work units of the full form over the minimal form."""
    if op.kind == "eval":
        return full["iterations"] - minimal["iterations"]
    return full["nodes"] - minimal["nodes"]


def run_round(runner, ops, tracer=None, minimal=True):
    """Each op's minimal form (if any, when ``minimal``) then its full form.

    Returns per-op ``{"full": s, "minimal": s, "units": n}`` and the
    full-form observations.  Adjacent minimal/full pairs see the same
    machine state, which steadies the marginal rates.
    """
    times, obs = {}, {}
    for op in ops:
        t = times[op.name] = {}
        m_obs = None
        if minimal and op.in_setup:
            t["minimal"], m_obs = runner.run(op, True, tracer)
        t["full"], obs[op.name] = runner.run(op, False, tracer)
        if op.units_key and m_obs and obs[op.name]:
            t["units"] = _units(op, obs[op.name], m_obs)
    return times, obs


def round_metrics(ops, times):
    """Set-up sum, full-form sum and marginal rates of one round."""
    units, secs = {}, {}
    for op in ops:
        t = times[op.name]
        if "units" in t:
            units[op.units_key] = units.get(op.units_key, 0) + t["units"]
            secs[op.units_key] = (secs.get(op.units_key, 0.0)
                                  + t["full"] - t["minimal"])
    return {
        "setup_s": sum(t.get("minimal", 0.0) for t in times.values()),
        "wall_s": sum(t["full"] for t in times.values()),
        **{k: units[k] / secs[k] for k in units if secs[k] > 0},
    }


def coverage(ops, obs, stats):
    """Identities the traced round must satisfy; returns problems."""
    solves = fits = 0
    for op in ops:
        o = obs.get(op.name)
        if o is None:
            continue
        method = op.spec.get("method") if op.kind == "eval" else None
        if method in KRIGING:
            n_targets = o["n_test"] - op.spec["m_samples"]
            solves += (o["iterations"] * n_targets
                       - o["counters"]["fallback_targets"])
        elif method in ("GPR", "MC_GPR"):
            fits += o["iterations"]
        elif op.kind == "cli" and op.argv[0] == "reconstruct":
            rec_method = op.argv[op.argv.index("--method") + 1]
            fits += rec_method in ("GPR", "MC_GPR")
    problems = []
    got = stats.get("kriging.solve", {}).get("calls", 0)
    if got != solves:
        problems.append(f"coverage: kriging.solve.calls {got} != {solves}")
    got = stats.get("gpr.gpr_fit", {}).get("calls", 0)
    if got != fits:
        problems.append(f"coverage: gpr.gpr_fit.calls {got} != {fits}")
    return problems


def layer_values(stats, obs):
    """Per-layer metric values of one traced round."""
    def field(key, name):
        st = stats.get(key, {})
        if name == "k_mean":
            return st.get("k_sum", 0) / st["calls"] if st.get("calls") else 0.0
        if name == "pairs_ratio":
            total = st.get("pairs_total", 0)
            return st.get("pairs_used", 0) / total if total else 0.0
        return st.get(name, 0)

    fallbacks = sum(o["counters"]["fallback_targets"]
                    for o in obs.values() if o and "counters" in o)
    values = {}
    for name, _unit, key, fld in PER_LAYER:
        if key == "report":
            values[name] = fallbacks
        elif key != "trace":
            values[name] = field(key, fld)
    return values


def blas_threads():
    """Thread count reported by each loaded OpenBLAS, by library file."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                found[os.path.basename(path)] = int(fn())
                break
    return found


def environment():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "remsense": os.path.dirname(remsense.__file__),
    }


RATE_NAMES = {"iters": "iters_per_s", "iters_w2": "iters_per_s_w2",
              "nodes": "reconstruct_nodes_per_s"}


def measure(args):
    with open(os.path.join(args.workdir, "inputs.json")) as fh:
        manifest = json.load(fh)
    ops = workloads.build_ops(args.workload, manifest, smoke=args.smoke)
    runner = Runner(manifest, args.smoke)

    # rounds until the next one would overrun --seconds; at least one.
    # Traced runs alternate an untraced round with a traced one.
    start = time.perf_counter()
    deadline = start + args.seconds
    rounds, traced = [], []
    while True:
        rounds.append(run_round(runner, ops))
        if args.trace:
            tracer = Tracer()
            with tracer:
                t_times, t_obs = run_round(runner, ops, tracer, minimal=False)
            t_wall = sum(t["full"] for t in t_times.values())
            traced.append((t_wall, tracer.stats, t_obs))
        now = time.perf_counter()
        per_pass = (now - start) / len(rounds)
        if args.smoke or now + per_pass > deadline:
            break

    per_round = [round_metrics(ops, times) for times, _ in rounds]
    detail = {"rounds": len(rounds), "environment": environment(),
              "round_metrics": per_round,
              "observed": {k: {f: v for f, v in o.items()
                               if f not in ("rmse", "by_node", "geometry",
                                            "rsrp", "samples")}
                           for k, o in runner.observed.items()}}
    walls = [r["wall_s"] for r in per_round]
    if args.trace:
        layers = []
        for _, stats, t_obs in traced:
            runner.problems += coverage(ops, t_obs, stats)
            layers.append(layer_values(stats, t_obs))
        # median_low keeps the counts integral
        metrics = {name: {"value": statistics.median_low(v[name]
                                                         for v in layers),
                          "unit": unit}
                   for name, unit, key, _ in PER_LAYER if key != "trace"}
        t_walls = [t[0] for t in traced]
        overhead = statistics.median(t_walls) / statistics.median(walls) - 1
        metrics["trace.overhead_share"] = {"value": overhead, "unit": "ratio"}
        detail["traced_wall_s"] = t_walls
        detail["layer_stats"] = traced[-1][1]
    else:
        def med(key):
            return statistics.median(r[key] for r in per_round if key in r)

        rates = [k for k in RATE_NAMES if any(k in r for r in per_round)]
        metrics = {
            "setup_s": {"value": med("setup_s"), "unit": "s"},
            "wall_s": {"value": med("wall_s"), "unit": "s"},
            "ops_per_s": {"value": med(rates[0]) if rates else 0.0,
                          "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        detail["workload_metrics"] = {
            RATE_NAMES[k]: {"value": med(k), "unit": "1/s"} for k in rates}
        detail["op_seconds"] = {
            op.name: {form: statistics.median(times[op.name][form]
                                              for times, _ in rounds)
                      for form in ("minimal", "full")
                      if form in rounds[0][0][op.name]}
            for op in ops}
        if any(op.name == "synth" for op in ops):
            detail["workload_metrics"]["synth_s"] = {
                "value": statistics.median(times["synth"]["full"]
                                           for times, _ in rounds),
                "unit": "s"}
        if args.record_references:
            detail["references"] = {op.name: reference_entry(
                op, runner.observed[op.name]) for op in ops
                if op.name in runner.observed}
    return {"attempted": runner.attempted, "failed": len(runner.problems),
            "problems": runner.problems, "metrics": metrics,
            "detail": detail}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("inputs", "measure"),
                        required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)

    if args.mode == "inputs":
        workloads.make_inputs(args.workdir, args.seed, args.workload)
        return 0
    result = measure(args)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
