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

The counts come from a copy of fit_cubic_batch's loop that records each
row's accepted rung; every fit is also run by hubplan itself, and the copy
must return the same coefficients and failure mask bit for bit, so the
counts describe the code under test. Generated floats depend on the BLAS
kernel and thread count, so run as a script the tool puts numpy on one
BLAS thread unless OPENBLAS_NUM_THREADS is set, and digests compare runs
on one machine.
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


def _walk(target, seed_moments, coef0, tol=1e-10, max_iters=200):
    """fit_cubic_batch's loop, recording the steps taken and each row's
    deepest accepted rung. Returns (coef, failed, steps, deepest)."""
    ms = scengen._moment_system
    target = np.asarray(target, dtype=float)
    coef = np.array(coef0, dtype=float)
    scale = np.maximum(1.0, np.abs(target))
    hank = scengen._hankel(seed_moments)
    ladder = 0.5 ** np.arange(1, scengen._LAM_HALVINGS + 1)
    ey, jac = ms(coef, hank)
    err = np.max(np.abs((ey - target) / scale), axis=-1)
    failed = np.zeros(coef.shape[0], dtype=bool)
    deepest = np.zeros(coef.shape[0], dtype=int)
    steps = 0
    for _ in range(max_iters):
        act = np.flatnonzero(~(err <= tol) & ~failed)
        if act.size == 0:
            break
        steps += 1
        rhs = -(ey[act] - target[act])
        try:
            step = np.linalg.solve(jac[act], rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = np.array([scengen._newton_step(a, b)
                             for a, b in zip(jac[act], rhs)])
        cand = coef[act] + step
        ey_c, jac_c = ms(cand, hank[act])
        err_c = np.max(np.abs((ey_c - target[act]) / scale[act]), axis=-1)
        ok = err_c < err[act]
        rej = np.flatnonzero(~ok)
        if rej.size:
            rows = act[rej]
            cands = coef[rows, None] + ladder[:, None] * step[rej, None]
            ey_l, jac_l = ms(cands, hank[rows, None])
            err_l = np.max(np.abs((ey_l - target[rows, None])
                                  / scale[rows, None]), axis=-1)
            better = err_l < err[rows, None]
            rung = np.argmax(better, axis=1)
            moved = better[np.arange(rows.size), rung]
            failed[rows[~moved]] = True
            pick, rung = rej[moved], rung[moved]
            deepest[act[pick]] = np.maximum(deepest[act[pick]], rung + 1)
            cand[pick] = cands[moved, rung]
            ey_c[pick], jac_c[pick] = ey_l[moved, rung], jac_l[moved, rung]
            err_c[pick] = err_l[moved, rung]
            ok[pick] = True
        take = act[ok]
        coef[take], ey[take], jac[take], err[take] = (
            cand[ok], ey_c[ok], jac_c[ok], err_c[ok])
    return coef, failed | ~(err <= tol), steps, deepest


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def run_case(case, hist, n, seed):
    """One generation, counted and digested."""
    batch, tally = scengen.fit_cubic_batch, {"steps": 0, "deepest": 0}

    def counted(*args):
        coef, failed = batch(*args)
        c2, f2, steps, deepest = _walk(*args)
        if not (np.array_equal(coef, c2) and np.array_equal(failed, f2)):
            sys.exit(f"n={n} seed={seed}: the counting copy of "
                     "fit_cubic_batch no longer matches it")
        tally["steps"] += steps
        tally["deepest"] = max(tally["deepest"],
                               int(deepest[~failed].max(initial=0)))
        return coef, failed

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
