"""Benchmark of the hubplan pipeline: history -> scenarios -> MILP -> own
simplex and branch and bound -> audited reports.

Run from the repository root:

    python3 perfbench/run.py --workload plan-desk --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json for why each is in the set):

    plan-desk   hubplan plan on the bundled desk_run config, tax 40
    sweep-n3    hubplan sweep over five tax levels on three scenario days
    chance-n20  library solve + chance audit of four 20-scenario days
    scen-gen    hubplan scen gen on the bundled history at n = 6, 50, 200

An untraced run starts four probe processes that only time set-up. Every
run then starts a worker process that sets up hubplan, repeats the
workload (a closed loop: one caller, next repetition when the last has
finished) as often as fits in ``--seconds`` at the reference speed (at
least once; the count depends on the workload, not on how fast the
machine or the code is, so two commits measure the same work), and checks
every output: each
solved model against scipy's HiGHS and ``check_solution``, exit codes,
chance audits, scenario files, and output digests equal across
repetitions.

With ``--trace 0`` the last line is the end-to-end result: run_norm_s,
setup_s (median time to import hubplan and load the inputs, over the
worker and the probes) and peak_rss_mib (peak resident memory of the
worker). run_norm_s is the median over repetitions of their time at the
reference machine speed: the worker cuts each repetition into segments of
a few seconds, times a fixed calibration slice between every two, and
divides each segment by the slices on either side of it (see
worker.Meter). With
``--trace 1`` the worker makes one untraced repetition and then traced
ones, and the last line holds the per-layer metrics of tracer.py plus
trace.overhead_s. Lines before it give the raw wall time run_s, the
operation counts, fail_share, moment_err and corr_err, the run environment
and the digests. The full record is written to perfbench/.work/results/.

Exit status is 0 when every operation succeeded and every check passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plan-desk", "sweep-n3", "chance-n20", "scen-gen")
SETUP_PROBES = 4
# BLAS may use every core the process may run on; the solver path is
# single-threaded, the generator's matrix products are not
BLAS_THREADS = str(len(os.sched_getaffinity(0)))
WORKER_TIMEOUT_S = 130
PROBE_TIMEOUT_S = 10


def _worker(args, env):
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)


def _probes(workload, env, n):
    """Set-up times of n fresh probe processes."""
    out = []
    for _ in range(n):
        probe = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
             workload, "--probe"], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if probe.returncode != 0:
            sys.stderr.write(probe.stderr[-4000:])
            return None
        out.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])
    return out


def _fmt(v):
    return "n/a" if v is None else f"{v:.6g}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hubplan", "cli.py")):
        print("perfbench: src/hubplan not found next to perfbench/; run it "
              "from a checkout of the repository", file=sys.stderr)
        return 2

    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS,
               PYTHONHASHSEED="0")
    results = os.path.join(HERE, ".work", "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    if os.path.exists(path):
        os.remove(path)
    # set-up is an end-to-end metric, so only untraced runs sample it
    probes = _probes(args.workload, env, 0 if args.trace else SETUP_PROBES)
    if probes is None:
        return 1
    proc = _worker(["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace",
                    str(args.trace), "--result", path], env)
    if proc.returncode != 0 or not os.path.exists(path):
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        print(f"perfbench: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    with open(path, "r", encoding="utf-8") as fh:
        res = json.load(fh)

    setups = [res["setup_s"]] + probes
    res["setup_samples"] = setups
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)

    attempted, failed = res["attempted"], res["failed"]
    n_untraced = sum(not r["traced"] for r in res["reps"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(res['reps'])}")
    print("env " + " ".join(f"{k}={v}" for k, v in res["env"].items()))
    cal = res["cal_slices"]
    print(f"  run_s         {res['run_s']:.4f} s     (median of {n_untraced})")
    print(f"  run_norm_s    {res['run_norm_s']:.4f} s     (median of "
          f"{n_untraced}; calibration slice {statistics.median(cal):.4f} s, "
          f"median of {len(cal)})")
    print(f"  setup_s       {statistics.median(setups):.4f} s     "
          f"(median of {len(setups)})")
    print(f"  peak_rss_mib  {res['peak_rss_mib']:.1f} MiB")
    print(f"  fail_share    {failed / attempted:.4f}       "
          f"({failed} of {attempted} operations)")
    print(f"  moment_err    {_fmt(res['moment_err'])}       "
          "(largest over the generations; tolerance 0.05)")
    print(f"  corr_err      {_fmt(res['corr_err'])}")
    for op in res["reps"][0]["ops"]:
        obj = "" if op["objective"] is None else f" objective {op['objective']!r}"
        print(f"  op {op['op']}: {'ok' if op['ok'] else 'FAILED'}"
              f"{obj} {json.dumps(op['digests'], sort_keys=True)}")
    for rep in res["reps"]:
        for op in rep["ops"]:
            if not op["ok"]:
                print(f"  failure in {op['op']}: {op['error']}")

    if args.trace:
        metrics = res["layers"]
        if res["missing"]:
            print("  missing (hook point gone): " + ", ".join(res["missing"]))
        diff = res["fidelity_diff"]
        print("  counts " + ("as recorded at the first commit" if not diff
                             else "differ from the first commit [then, now]: "
                             + json.dumps(diff, sort_keys=True)))
        for name, m in metrics.items():
            print(f"  {name:26s} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {
            "run_norm_s": {"value": res["run_norm_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
