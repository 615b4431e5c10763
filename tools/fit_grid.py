"""Scenario generation over the bundled grid: rounds, Newton steps, the
deepest line-search rung a converging row took, and digests of the output.

Run from the repo root:
    PYTHONPATH=src python tools/fit_grid.py --out grid.json
    PYTHONPATH=src python tools/fit_grid.py --compare grid.json

Each of the 48 cases (n = 3, 6, 10, 20, 50, 100, 200, 365 x seed = 1-5, 7)
runs generate_scenarios on the bundled history with its defaults. Per case
it prints the rounds logged, the Newton steps taken over all of them (one
step is one pass of fit_cubic_batch's loop with a row still active), the
deepest rung, as j of lam = 2^-j, that any row accepted in a fit it
went on to converge, and the sha256 of the generated values, of the
iteration log and of best_iteration. --out writes these as JSON;
--compare reads such a file, from another checkout or commit, and lists
the cases whose digests differ (exit 1 when any does).

The counts are the ones fit_cubic_batch returns with each fit: a round's
steps are its largest per-row count, its rung the deepest one among the
rows that converged. Each fit runs once. Generated floats depend on the
BLAS kernel and thread count, so run as a script the tool puts numpy on
one BLAS thread unless OPENBLAS_NUM_THREADS is set, and digests compare
runs on one machine.
"""

import argparse
import hashlib
import json
import os
import sys
import time
import warnings

if __name__ == "__main__":  # before numpy starts its thread pool
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from hubplan import scengen  # noqa: E402
from hubplan.fileio import read_case, read_history  # noqa: E402

SIZES = (3, 6, 10, 20, 50, 100, 200, 365)
SEEDS = (1, 2, 3, 4, 5, 7)


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def run_case(case, hist, n, seed):
    """One generation, counted and digested."""
    batch, tally = scengen.fit_cubic_batch, {"steps": 0, "deepest": 0}

    def counted(*args):
        _coef, failed, steps, rung = out = batch(*args)
        tally["steps"] += int(steps.max(initial=0))
        tally["deepest"] = max(tally["deepest"],
                               int(rung[~failed].max(initial=0)))
        return out

    scengen.fit_cubic_batch = counted
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _scen, raw = scengen.generate_scenarios(case, *hist,
                                                    n_scenarios=n, seed=seed)
    finally:
        scengen.fit_cubic_batch = batch
    log = json.dumps(raw.iteration_log, sort_keys=True).encode()
    return {"n": n, "seed": seed, "rounds": len(raw.iteration_log),
            "steps": tally["steps"], "deepest_rung": tally["deepest"],
            "values": _sha(np.ascontiguousarray(raw.values).tobytes()),
            "log": _sha(log),
            "best_iteration": _sha(str(raw.best_iteration).encode())}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the per-case record as JSON here")
    ap.add_argument("--compare", help="a JSON record from an earlier --out; "
                    "list the cases whose digests differ")
    args = ap.parse_args(argv)

    data = os.path.join(os.path.dirname(scengen.__file__), "data")
    case = read_case(os.path.join(data, "case.json"))
    hist = read_history(os.path.join(data, "history_loads.csv"),
                        os.path.join(data, "history_ev.csv"))
    t0 = time.perf_counter()
    cases = []
    print(f"{'n':>4} {'seed':>4} {'rounds':>6} {'steps':>6} {'rung':>4}  "
          "values / log / best_iteration sha256")
    for n in SIZES:
        for seed in SEEDS:
            c = run_case(case, hist, n, seed)
            cases.append(c)
            print(f"{n:>4} {seed:>4} {c['rounds']:>6} {c['steps']:>6} "
                  f"{c['deepest_rung']:>4}  {c['values'][:12]} "
                  f"{c['log'][:12]} {c['best_iteration'][:12]}")
    print(f"{len(cases)} cases, {sum(c['steps'] for c in cases)} Newton "
          f"steps, deepest converging rung "
          f"{max(c['deepest_rung'] for c in cases)}, ladder "
          f"{scengen._LAM_HALVINGS}, {time.perf_counter() - t0:.1f} s")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"ladder": scengen._LAM_HALVINGS, "cases": cases}, fh,
                      indent=1)
            fh.write("\n")
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            other = {(c["n"], c["seed"]): c for c in json.load(fh)["cases"]}
        keys = ("values", "log", "best_iteration")
        differ = [c for c in cases if (c["n"], c["seed"]) not in other
                  or any(c[k] != other[(c["n"], c["seed"])][k] for k in keys)]
        for c in differ:
            print(f"differs: n={c['n']} seed={c['seed']}")
        print(f"{len(differ)} of {len(cases)} cases differ from {args.compare}")
        return 1 if differ else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
