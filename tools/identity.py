"""Write remsense's standard outputs at a seed, or compare two checkouts'.

Usage, from the root of a checkout:

    python3 tools/identity.py --seed 0 --out DIR
    python3 tools/identity.py --seed 0 --against OTHER_CHECKOUT

The inputs come from ``perfbench.workloads.make_inputs`` at the seed
(the ``eval-krige`` and ``map-bulk`` files), made once with this
checkout.  From them a child process, with BLAS pinned to one thread,
writes:

* ``monte_carlo_eval`` ``to_dict()`` of all seven methods on the zigzag
  campaigns, plain and calibrated;
* the c06 kriging evals (OK, SK, TG_OK, TG_SK) at R = 200, 70 and 30 m;
* the ``synth`` CSV of the bulk scene and the ``calibrate`` CSV of it;
* the ``reconstruct`` grid of every method on the zigzag train campaign.

With ``--against DIR`` a second child writes the same outputs with
``DIR/src`` on its path, and each output is printed as ``identical``
or with its largest absolute difference; the exit status is 1 unless
all are identical.  No digest is stored: bits hold for one numpy, scipy
and BLAS build, so the check compares two trees on one machine.
"""

import argparse
import contextlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # leave the checkouts as they were
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
METHODS = ("TRPL_only", "OK", "SK", "TG_OK", "TG_SK", "GPR", "MC_GPR")
KRIGING = ("OK", "SK", "TG_OK", "TG_SK")
C06_RADII_M = (200.0, 70.0, 30.0)
ITERATIONS = 4
# the zigzag train campaign has too few rows for the default 5-degree
# bins of at least 25 samples
CALIBRATED = dict(calibrated=True, calibration_bin_deg=10.0,
                  calibration_min_support=5)
SPACING_M = 20.0


def make_inputs(workdir, seed):
    """Input files of the seed, made with this checkout; their manifest."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import workloads

    paths = {}
    for workload in ("eval-krige", "map-bulk"):
        paths.update(workloads.make_inputs(workdir, seed, workload)["paths"])
    return {"seed": seed, "eval_seed": workloads.scene_seeds(seed)["eval"],
            "paths": paths}


def write_outputs(manifest, outdir):
    """Every output of the manifest's inputs, with the remsense on the path."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads
    from remsense.cli import main
    from remsense.evaluation import EvalConfig, monte_carlo_eval

    paths = manifest["paths"]
    gs, prop = workloads.station()

    def evaluate(name, method, train, test, **kw):
        cfg = EvalConfig(gs=gs, prop=prop, method=method,
                         train_campaign=paths[train], test_campaign=paths[test],
                         iterations=ITERATIONS, seed=manifest["eval_seed"],
                         **kw)
        with open(os.path.join(outdir, f"{name}.json"), "w") as fh:
            json.dump(monte_carlo_eval(cfg).to_dict(), fh, indent=1,
                      sort_keys=True)

    def cli(*argv):
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            if main(list(argv)) != 0:
                raise RuntimeError(f"remsense {' '.join(argv)} failed")

    for method in METHODS:
        evaluate(f"zz-{method}", method, "zz_train", "zz_test")
        evaluate(f"zz-{method}-cal", method, "zz_train", "zz_test",
                 **CALIBRATED)
    for method in KRIGING:
        for radius in C06_RADII_M:
            evaluate(f"c06-{method}-R{radius:g}", method, "c06_train",
                     "c06_test", radius_m=radius)
    synth = os.path.join(outdir, "synth.csv")
    cli("synth", "--scene", paths["bulk_scene"], "--out", synth)
    cli("calibrate", "--measurements", synth, "--config", paths["bulk_cfg"],
        "--out", os.path.join(outdir, "calibrate.csv"))
    for method in METHODS:
        cli("reconstruct", "--measurements", paths["zz_train"],
            "--config", paths["zz_cfg"], "--method", method,
            "--spacing", repr(SPACING_M),
            "--out", os.path.join(outdir, f"rec-{method}.csv"))


def _child(src, manifest_path, outdir):
    """Run :func:`write_outputs` in a fresh process importing ``src``."""
    env = dict(os.environ)
    for name in THREAD_ENV:
        env[name] = "1"
    env["PYTHONPATH"] = src
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    os.makedirs(outdir, exist_ok=True)
    subprocess.run([sys.executable, os.path.abspath(__file__),
                    "--write", manifest_path, outdir], env=env, check=True)


def _numbers(path):
    """Every value of a JSON or CSV output, flattened in order."""
    with open(path) as fh:
        if path.endswith(".json"):
            def flat(v):
                if isinstance(v, dict):
                    return [x for k in sorted(v) for x in [k, *flat(v[k])]]
                if isinstance(v, list):
                    return [x for e in v for x in flat(e)]
                return [v]
            return flat(json.load(fh))
        return [cell for line in fh for cell in line.rstrip("\n").split(",")]


def difference(a, b):
    """``"identical"``, the largest absolute difference of two outputs,
    or why they cannot be compared value by value."""
    with open(a, "rb") as fa, open(b, "rb") as fb:
        if fa.read() == fb.read():
            return "identical"
    va, vb = _numbers(a), _numbers(b)
    if len(va) != len(vb):
        return f"differs: {len(va)} values against {len(vb)}"
    worst = 0.0
    for x, y in zip(va, vb):
        try:
            x, y = float(x), float(y)
        except (TypeError, ValueError):
            if x != y:
                return f"differs: {x!r} against {y!r}"
            continue
        if x != y and not (math.isnan(x) and math.isnan(y)):
            worst = max(worst, abs(x - y))
    return f"largest absolute difference {worst:.3e}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None,
                    help="directory for the outputs (default: a temporary "
                         "one, removed at the end)")
    ap.add_argument("--against", metavar="DIR", default=None,
                    help="another checkout whose src/ writes the outputs "
                         "to compare with")
    ap.add_argument("--write", nargs=2, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.write:
        with open(args.write[0]) as fh:
            write_outputs(json.load(fh), args.write[1])
        return 0

    work = args.out or tempfile.mkdtemp(prefix="remsense-identity-")
    try:
        inputs = os.path.join(work, "inputs")
        os.makedirs(inputs, exist_ok=True)
        manifest_path = os.path.join(inputs, "manifest.json")
        with open(manifest_path, "w") as fh:
            json.dump(make_inputs(inputs, args.seed), fh, indent=1)
        here = os.path.join(work, "this")
        _child(os.path.join(ROOT, "src"), manifest_path, here)
        if args.against is None:
            print(f"wrote {len(os.listdir(here))} outputs to {here}")
            return 0
        there = os.path.join(work, "against")
        _child(os.path.join(os.path.abspath(args.against), "src"),
               manifest_path, there)
        same = True
        for name in sorted(os.listdir(here)):
            result = difference(os.path.join(here, name),
                                os.path.join(there, name))
            same &= result == "identical"
            print(f"{name}: {result}")
        return 0 if same else 1
    finally:
        if args.out is None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
