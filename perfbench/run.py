"""remsense benchmark: one run of one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload eval-krige --seed 0 --trace 0
    python3 perfbench/run.py --smoke

A run generates its inputs from ``--seed`` in one child process, then
measures in a second, fresh child process with BLAS pinned to one
thread; both import ``remsense`` from the checkout's ``src``.  The last
line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``).  The
line before it holds the detail record: environment, per-operation
times, the workload-specific metrics (``iters_per_s``, ``iters_per_s_w2``,
``reconstruct_nodes_per_s``, ``synth_s``, ``failed_share``), output
digests and any problems found.

``--smoke`` runs every workload once at minimum size in both trace
modes and checks that every metric BENCHMARK.json names is reported
and numeric.  ``--record-references`` (with ``--seed 0``) rewrites
``references.json`` from the run's outputs.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True  # leave the checkout as it was
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIME_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The run cannot produce a result."""


def _git_sha():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src):
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _child_env():
    env = dict(os.environ)
    for name in THREAD_ENV:
        env[name] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, mode, workdir, deadline, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(float(args.seconds)), "--trace", str(args.trace),
           "--workdir", workdir, *extra]
    if args.smoke:
        cmd.append("--smoke")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} step")
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} step exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} step exited with code {proc.returncode}")


def run_once(args):
    """One run; returns (result line dict, detail dict)."""
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "remsense", "__init__.py")):
        raise BenchError(f"no remsense package under {src}")
    load_start = os.getloadavg()
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        _worker(args, "inputs", workdir, deadline)
        result_path = os.path.join(workdir, "result.json")
        extra = ["--result", result_path]
        if args.record_references:
            extra.append("--record-references")
        _worker(args, "measure", workdir, deadline, extra)
        with open(result_path) as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    detail = result["detail"]
    attempted, failed = result["attempted"], result["failed"]
    detail.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, git_sha=_git_sha(), src_sha256=_source_digest(src),
        nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
        loadavg_start=load_start, loadavg_end=os.getloadavg(),
        run_wall_s=time.monotonic() - started,
        failed_share=failed / attempted, problems=result["problems"],
        load_model="closed loop, one client; BLAS pinned to 1 thread")
    line = {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": result["metrics"]}
    return line, detail


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_metrics(line, trace):
    """Problems with the metric set against BENCHMARK.json."""
    want = expected_metrics(trace)
    got = line["metrics"]
    problems = [f"missing metric {n}" for n in want if n not in got]
    problems += [f"unlisted metric {n}" for n in got if n not in want]
    for name, m in got.items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"metric {name} is not a finite number: {v!r}")
        if name in want and m.get("unit") != want[name]:
            problems.append(f"metric {name} unit {m.get('unit')!r}")
    return problems


def smoke(args):
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            args.workload, args.trace = workload, trace
            line, detail = run_once(args)
            problems = check_metrics(line, trace) + detail["problems"]
            if not line["correct"]:
                problems.append("run not correct")
            status = "ok" if not problems else "; ".join(problems)
            print(f"smoke {workload} trace={trace}: {status} "
                  f"({detail['run_wall_s']:.1f} s)", flush=True)
            failures += problems
    return 1 if failures else 0


def record_references(detail):
    path = os.path.join(HERE, "references.json")
    refs = {"seed": 0, "ops": {}}
    if os.path.exists(path):
        with open(path) as fh:
            refs = json.load(fh)
    refs["ops"].update(detail.pop("references"))
    refs["ops"] = dict(sorted(refs["ops"].items()))
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="remsense benchmark run",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke(args)
        if args.workload is None:
            parser.error("--workload is required")
        if args.record_references and (args.seed != 0 or args.trace):
            parser.error("--record-references needs --seed 0 --trace 0")
        line, detail = run_once(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.record_references:
        record_references(detail)
    problems = check_metrics(line, args.trace)
    if problems:
        print("perfbench: " + "; ".join(problems), file=sys.stderr)
        return 2
    for p in detail["problems"]:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
