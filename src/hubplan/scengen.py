"""Moment-matching scenario generation.

Scenario days are drawn to reproduce the first four marginal moments and the
correlation matrix of historical data (Hoyland, Kaut & Wallace 2003). Each
dimension starts from counter-based normal seed noise, is pushed through a
cubic transform fitted so its raw moments hit the targets (Fleishman 1978),
and the panel is then re-mixed through Cholesky factors so the sample
correlation matches the target exactly. Transform and mixing are alternated
until both errors are within 0.05 (_GEN_TOL), for at most 50 rounds
(_GEN_ROUNDS); every round's errors go to the iteration log, and nothing
is written to stderr or raised as a warning.

All dimensions' cubics are fitted in one batched damped Newton solve per
round (fit_cubic_batch): the seed moments come from one power table, the
stacked 4x4 Newton systems are solved together, and the line search tries
the full step for every row, then the 16 halved steps of the rows that
reject it in one evaluation. A row that no step of at least 2^-16 of its
Newton step improves has stalled: it stays affine for that round, and the
round's log names it. The ladder's length rests on measurement, not on a
bound (see fit_cubic_batch, which returns each row's Newton steps and
deepest rung for tools/fit_grid.py to count).

Every factorization, solve and product on this path runs on numpy's
BLAS/LAPACK. numpy and scipy each bundle an OpenBLAS with its own thread
pool, and a round that switched between them (a numpy product, then a
scipy factor or solve) made each library wait for the other's spinning
threads: on a 2-core machine with two threads, about 8 ms per re-mix at
n = 200 and 77 dimensions, against under 1 ms on one library. scipy's dpotrf is called only to name the failing
minor of a matrix that is not positive definite, as the error is raised.

Everything here is deterministic in (targets, n, seed): reruns give
bit-identical output.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf

from .core import ScenarioSet
from .errors import (DecompositionError, DegenerateColumnError,
                     InvalidParameterError, MomentFitError)

_VAR_FLOOR = 1e-12
_EIG_FLOOR = 1e-8  # smallest eigenvalue _nearest_corr leaves


@dataclass(frozen=True)
class MomentTargets:
    """Per-dimension targets: mean, variance, skewness, kurtosis (plain, not
    excess) and a full correlation matrix."""

    mean: np.ndarray
    variance: np.ndarray
    skewness: np.ndarray
    kurtosis: np.ndarray
    correlation: np.ndarray

    def __post_init__(self):
        for name in ("mean", "variance", "skewness", "kurtosis"):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(-1)
            object.__setattr__(self, name, arr)
        d = self.mean.size
        corr = np.asarray(self.correlation, dtype=float)
        if corr.shape != (d, d):
            raise InvalidParameterError(f"correlation must be {d}x{d}, got {corr.shape}")
        for name in ("variance", "skewness", "kurtosis"):
            if getattr(self, name).size != d:
                raise InvalidParameterError(f"{name} length != {d}")
        if np.any(self.variance <= 0.0):
            bad = int(np.argmax(self.variance <= 0.0))
            raise InvalidParameterError(f"variance[{bad}] must be > 0")
        if not np.allclose(corr, corr.T, atol=1e-12):
            raise InvalidParameterError("correlation must be symmetric")
        if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
            raise InvalidParameterError("correlation diagonal must be 1")
        object.__setattr__(self, "correlation", corr)

    @property
    def n_dims(self):
        return self.mean.size


@dataclass(frozen=True)
class RawSampleMatrix:
    """Generated panel (n rows, one column per dimension) plus the iteration
    log: per round its moment error, correlation error, fit_failed (the
    sorted dimensions whose cubic fit failed and stayed affine) and
    fit_fails, the length of fit_failed. values come from round
    best_iteration (1-based), which need not be the last round logged; 0
    means no round was kept."""

    values: np.ndarray
    seed: int
    iteration_log: list = field(default_factory=list)
    converged: bool = False
    best_iteration: int = 0


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric PD matrix.

    Only the lower triangle is read (numpy's LAPACK). Raises
    DecompositionError carrying the 1-based order of the first leading
    minor that fails positivity, or that holds a non-finite entry.
    """
    a = np.asarray(a, dtype=float)
    bad_rows = np.flatnonzero(~np.isfinite(np.tril(a)).all(axis=1))
    if bad_rows.size:
        raise DecompositionError(minor=int(bad_rows[0]) + 1)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        # numpy does not name the failing minor; scipy's dpotrf does, and
        # is called only on the way out (see the module docstring). Should
        # the two disagree on a borderline matrix, the whole matrix is the
        # minor known to fail.
        _low, info = dpotrf(a, lower=1, clean=1)
        raise DecompositionError(minor=int(info) or a.shape[0]) from None


def sample_moments(values: np.ndarray) -> MomentTargets:
    """Estimate the four marginal moments and correlation of a data panel.

    Uses population (divide-by-n) conventions throughout. A numerically
    constant column raises DegenerateColumnError naming the column.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 2:
        raise InvalidParameterError("values must be 2-D (observations x dimensions)")
    n, d = x.shape
    if n < 4:
        raise InvalidParameterError(f"need at least 4 observations, got {n}")
    mean, var, skew, kurt, corr = _moments(x)
    floor = _VAR_FLOOR * np.maximum(1.0, mean ** 2)
    for j in range(d):
        if var[j] <= floor[j]:
            raise DegenerateColumnError(column=j)
    return MomentTargets(mean=mean, variance=var, skewness=skew,
                         kurtosis=kurt, correlation=0.5 * (corr + corr.T))


def _moments(x):
    """Population mean, variance, skewness, kurtosis and correlation (unit
    diagonal) of the columns of x, the standard deviation floored at
    sqrt(_VAR_FLOOR)."""
    mean = x.mean(axis=0)
    cen = x - mean
    var = np.mean(cen ** 2, axis=0)
    z = cen / np.sqrt(np.maximum(var, _VAR_FLOOR))
    corr = (z.T @ z) / x.shape[0]
    np.fill_diagonal(corr, 1.0)
    return mean, var, np.mean(z ** 3, axis=0), np.mean(z ** 4, axis=0), corr


def _below_kurtosis_bound(skew, kurt):
    """Whether kurt falls below the feasibility bound skew^2 + 1 (by more
    than 1e-9)."""
    return kurt < skew * skew + 1.0 - 1e-9


def _raw_targets(mean, var, skew, kurt):
    m3c = skew * var ** 1.5
    m4c = kurt * var ** 2
    r1 = mean
    r2 = var + mean ** 2
    r3 = m3c + 3.0 * mean * var + mean ** 3
    r4 = m4c + 4.0 * mean * m3c + 6.0 * mean ** 2 * var + mean ** 4
    return np.array([r1, r2, r3, r4])


def _seed_moments(rows):
    """Raw moments E[X^k], k = 0..12, of each row of a (d, n) sample."""
    m = np.ones((rows.shape[0], 13))
    p = np.ones_like(rows)
    for k in range(1, 13):
        p = p * rows
        m[:, k] = p.mean(axis=1)
    return m


def _affine_start(mean, var, m):
    """(d, 4) coefficients of the affine map giving seed rows the target mean
    and variance: Newton's starting point."""
    b0 = np.sqrt(np.maximum(var, _VAR_FLOOR)
                 / np.maximum(m[:, 2] - m[:, 1] ** 2, _VAR_FLOOR))
    zero = np.zeros_like(b0)
    return np.column_stack([mean - b0 * m[:, 1], b0, zero, zero])


@functools.cache
def _selector(n):
    """0/1 matrix taking the flattened outer product of a polynomial's n
    coefficients and a cubic's 4 to the coefficients of their product."""
    k = np.arange(4 * n)
    sel = np.zeros((4 * n, n + 3))
    sel[k, k // 4 + k % 4] = 1.0
    return sel


_JAC_ORDER = np.arange(1.0, 5.0)[:, None]
# fit_cubic_batch's line search halves lam from 1 down to 2^-_LAM_HALVINGS;
# a row has converged once its scaled residual is within _FIT_TOL, and
# fails after _FIT_STEPS Newton steps short of it
_LAM_HALVINGS = 16
_FIT_TOL = 1e-10
_FIT_STEPS = 200
# hmm_generate has converged once both errors are within _GEN_TOL, and runs
# at most _GEN_ROUNDS rounds
_GEN_TOL = 0.05
_GEN_ROUNDS = 50


def _hankel(seed_moments):
    """(d, 4, 10) tables hank[:, j, i] = E[X^(i+j)] of (d, >= 13) moments."""
    return np.asarray(seed_moments, dtype=float)[
        :, np.add.outer(np.arange(4), np.arange(10))]


def _moment_system(coef, hank):
    """Raw moments E[Y^k], k = 1..4, of Y = p(X) and their Jacobian wrt p.

    coef (..., 4) holds the coefficients of powers 0..3. hank (..., 4, 10) is
    the seed's Hankel table hank[j, i] = E[X^(i+j)], broadcast against
    coef's leading axes. Returns ey (..., 4) and jac (..., 4, 4).
    """
    lead = coef.shape[:-1]
    cols = [np.broadcast_to(hank[..., :1], lead + (4, 1)),
            hank[..., :4] @ coef[..., None]]
    pk = coef  # coefficients of p^k, k = 1, 2, 3
    for _ in range(2):
        pk = ((pk[..., :, None] * coef[..., None, :]).reshape(lead + (-1,))
              @ _selector(pk.shape[-1]))
        cols.append(hank[..., :pk.shape[-1]] @ pk[..., None])
    g = np.concatenate(cols, axis=-1)  # g[j, k] = E[X^j Y^k]
    ey4 = coef[..., None, :] @ cols[3]  # E[Y^4] = sum_j p_j E[X^j Y^3]
    return (np.concatenate([g[..., 0, 1:], ey4[..., 0]], axis=-1),
            _JAC_ORDER * np.swapaxes(g, -1, -2))


def _newton_step(jac, rhs):
    try:
        return np.linalg.solve(jac, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(jac, rhs, rcond=None)[0]


def fit_cubic_batch(target, seed_moments, coef0):
    """Fit one cubic transform Y = p(X) per row so Y's raw moments hit target.

    target (d, 4) holds E[Y^k], k = 1..4; seed_moments (d, >= 13) the seed
    rows' raw moments E[X^k], k = 0..12; coef0 (d, 4) the starting
    coefficients of powers 0..3. Every row takes damped Newton steps on its
    four raw-moment equations, all rows together: each step accepts the
    largest lam = 2^-j (j = 0..16) that strictly lowers the row's largest
    residual scaled by max(1, |target|). lam = 1 is tried for every row
    first, then the other 16 rungs at once for the rows that reject it. A row
    with no improving rung has stalled. The ladder stops at 2^-16, one rung
    below the shortest step a converging row is known to take: over the
    bundled grid of tools/fit_grid.py (n = 3 to 365, seeds 1-5 and 7), one
    of the 39 923 row fits that converged after a Newton step took a step
    shorter than 2^-13, 2^-15 at (n, seed) = (50, 4), round 1, row 25. So
    converging rows keep their paths and only rows that fail anyway stop
    sooner; with 14 rungs that row fails and the (50, 4) panel changes.

    Returns (coef, failed, steps, rung). failed marks the rows that stalled
    or were not within _FIT_TOL after _FIT_STEPS steps; their coef is the
    last iterate. steps counts each row's Newton steps, the stalling pass
    included; rows only ever leave the active set, so steps.max() is the
    loop's pass count. rung is the largest j of a step lam = 2^-j the row
    accepted, 0 when all its steps were full.
    """
    target = np.asarray(target, dtype=float)
    coef = np.array(coef0, dtype=float)
    scale = np.maximum(1.0, np.abs(target))
    hank = _hankel(seed_moments)
    ladder = 0.5 ** np.arange(1, _LAM_HALVINGS + 1)  # tried after lam = 1
    ey, jac = _moment_system(coef, hank)
    err = np.max(np.abs((ey - target) / scale), axis=-1)
    failed = np.zeros(coef.shape[0], dtype=bool)
    steps = np.zeros(coef.shape[0], dtype=int)
    rung = np.zeros(coef.shape[0], dtype=int)
    for _ in range(_FIT_STEPS):
        act = np.flatnonzero(~(err <= _FIT_TOL) & ~failed)
        if act.size == 0:
            break
        steps[act] += 1
        rhs = -(ey[act] - target[act])
        try:
            step = np.linalg.solve(jac[act], rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = np.array([_newton_step(a, b) for a, b in zip(jac[act], rhs)])
        cand = coef[act] + step
        ey_c, jac_c = _moment_system(cand, hank[act])
        err_c = np.max(np.abs((ey_c - target[act]) / scale[act]), axis=-1)
        ok = err_c < err[act]
        rej = np.flatnonzero(~ok)
        if rej.size:
            rows = act[rej]
            cands = coef[rows, None] + ladder[:, None] * step[rej, None]
            ey_l, jac_l = _moment_system(cands, hank[rows, None])
            err_l = np.max(np.abs((ey_l - target[rows, None])
                                  / scale[rows, None]), axis=-1)
            better = err_l < err[rows, None]
            j = np.argmax(better, axis=1)  # lam = 2^-(j + 1)
            moved = better[np.arange(rows.size), j]
            failed[rows[~moved]] = True
            pick, j = rej[moved], j[moved]
            rung[act[pick]] = np.maximum(rung[act[pick]], j + 1)
            cand[pick] = cands[moved, j]
            ey_c[pick], jac_c[pick] = ey_l[moved, j], jac_l[moved, j]
            err_c[pick] = err_l[moved, j]
            ok[pick] = True
        take = act[ok]
        coef[take], ey[take], jac[take], err[take] = (
            cand[ok], ey_c[ok], jac_c[ok], err_c[ok])
    return coef, failed | ~(err <= _FIT_TOL), steps, rung


def fit_cubic_transform(mean, var, skew, kurt, seed_moments):
    """Fit Y = a + bX + cX^2 + dX^3 so Y's first four moments hit the targets.

    seed_moments are the raw moments of the seed sample X up to order 12
    (seed_moments[k] = E[X^k], length >= 13). The one-row case of
    fit_cubic_batch, whose _FIT_TOL is relative to max(1, |target|).

    Raises MomentFitError when the targets violate the kurtosis feasibility
    bound (kurt >= skew^2 + 1) or Newton stalls.
    """
    m = np.asarray(seed_moments, dtype=float)
    if m.size < 13:
        raise InvalidParameterError("seed_moments must reach order 12")
    if _below_kurtosis_bound(skew, kurt):
        raise MomentFitError(
            f"infeasible targets: kurtosis {kurt} below bound {skew * skew + 1.0}")
    m = m[None, :13]
    target = _raw_targets(float(mean), float(var), float(skew), float(kurt))
    coef0 = _affine_start(float(mean), float(var), m)
    coef, failed = fit_cubic_batch(target[None], m, coef0)[:2]
    if failed[0]:
        ey, _jac = _moment_system(coef, _hankel(m))
        resid = np.abs(ey[0] - target) / np.maximum(1.0, np.abs(target))
        raise MomentFitError(
            f"Newton stalled or not within {_FIT_TOL} after {_FIT_STEPS} "
            "iterations",
            residual=float(np.max(resid)))
    return tuple(coef[0])


def impose_correlation(values: np.ndarray, l_tgt: np.ndarray) -> np.ndarray:
    """Re-mix standardized columns so their sample correlation becomes the
    target whose Cholesky factor is l_tgt (cholesky_lower(target), which a
    caller re-mixing towards one target many times computes once).

    Whitens with the Cholesky factor of the input's own sample correlation and
    colors with l_tgt, so the result is exact (up to float arithmetic) for any
    full-rank input; columns keep unit sample variance.

    With fewer rows than dimensions the sample correlation is singular, so
    the whitening factor comes from a shrunk matrix (1-lam)*cur + lam*I with
    the smallest lam that is positive definite; the mix is then approximate
    and the caller's iteration loop is what closes the residual gap.
    """
    w = np.asarray(values, dtype=float)
    n = w.shape[0]
    cur = (w.T @ w) / n
    np.fill_diagonal(cur, 1.0)
    cur = 0.5 * (cur + cur.T)
    for lam in (0.0, 1e-8, 1e-6, 1e-4, 1e-2, 0.1):
        try:
            l_cur = np.linalg.cholesky(
                (1.0 - lam) * cur + lam * np.eye(cur.shape[0]))
            break
        except np.linalg.LinAlgError:
            continue
    else:  # lam = 0.5: PD by construction
        l_cur = cholesky_lower(0.5 * cur + 0.5 * np.eye(cur.shape[0]))
    return (l_tgt @ np.linalg.solve(l_cur, w.T)).T


def _standardize(rows):
    """Rows of a (d, n) array shifted and scaled to mean 0, variance 1."""
    mu = rows.mean(axis=1, keepdims=True)
    sd = np.sqrt(np.mean((rows - mu) ** 2, axis=1, keepdims=True))
    if np.any(sd <= 0.0):
        raise DegenerateColumnError(column=int(np.argmax(sd <= 0.0)),
                                    message="seed column collapsed")
    return (rows - mu) / sd


def _panel_errors(w, targets):
    """(moment error, correlation error) of a standardized-target panel."""
    mean, var, skew, kurt, corr = _moments(w)
    moment_err = max(float(np.max(np.abs(mean))),
                     float(np.max(np.abs(var - 1.0))),
                     float(np.max(np.abs(skew - targets.skewness))),
                     float(np.max(np.abs(kurt - targets.kurtosis))))
    corr_err = float(np.max(np.abs(corr - targets.correlation)))
    return moment_err, corr_err


def hmm_generate(targets: MomentTargets, n: int, seed: int) -> RawSampleMatrix:
    """Generate n rows matching the target moments and correlation.

    Alternates a batched cubic re-fit of every dimension with correlation
    re-mixing, for at most _GEN_ROUNDS (50) rounds, and returns the best
    iterate: the first round with the smallest max(moment_err, corr_err),
    named by ``best_iteration``. ``converged`` reports whether both the
    largest marginal-moment error and the largest correlation-entry error
    reached _GEN_TOL (0.05). A small n for the number of dimensions shows
    in those errors, which the iteration log records each round.

    Seed noise is drawn from a counter-based generator keyed on
    (seed, dimension), so results do not depend on evaluation order.
    """
    d = targets.n_dims
    if n < 2:
        raise InvalidParameterError("n must be >= 2")
    short = _below_kurtosis_bound(targets.skewness, targets.kurtosis)
    if np.any(short):
        j = int(np.argmax(short))
        s, k = targets.skewness[j], targets.kurtosis[j]
        raise MomentFitError(
            f"dimension {j}: kurtosis {k} below feasibility bound {s * s + 1.0}",
            dimension=j)
    # fail fast on a non-PD target correlation; every round mixes with it
    l_tgt = cholesky_lower(targets.correlation)

    wt = np.empty((d, n))  # the panel transposed: one row per dimension
    for j in range(d):
        gen = np.random.Generator(np.random.Philox(key=[seed, j]))
        wt[j] = gen.standard_normal(n)
    w = _standardize(wt).T

    target = np.column_stack([np.zeros(d), np.ones(d), targets.skewness,
                              targets.kurtosis])
    log = []
    best_w, best_err, best_it = w.copy(), math.inf, 0
    converged = False
    for it in range(1, _GEN_ROUNDS + 1):
        wt = w.T
        m = _seed_moments(wt)
        coef, failed = fit_cubic_batch(target, m,
                                       _affine_start(0.0, 1.0, m))[:2]
        # a failed dimension stays affine (standardized) this round
        c, x = coef[~failed].T[:, :, None], wt[~failed]
        wt[~failed] = c[0] + x * (c[1] + x * (c[2] + x * c[3]))
        w = impose_correlation(_standardize(wt).T, l_tgt)
        moment_err, corr_err = _panel_errors(w, targets)
        log.append({"iteration": it, "moment_err": moment_err, "corr_err": corr_err,
                    "fit_fails": int(failed.sum()),
                    "fit_failed": np.flatnonzero(failed).tolist()})
        if max(moment_err, corr_err) < best_err:
            best_err = max(moment_err, corr_err)
            best_w, best_it = w.copy(), it
        if moment_err <= _GEN_TOL and corr_err <= _GEN_TOL:
            converged = True
            break
        if it - best_it >= 8:
            break  # plateaued; keep the best iterate seen
    # per-column affine maps leave skewness, kurtosis and correlation alone,
    # so pin the sample mean and variance exactly
    best_w = _standardize(best_w.T).T
    values = targets.mean + np.sqrt(targets.variance) * best_w
    return RawSampleMatrix(values=values, seed=seed, iteration_log=log,
                           converged=converged, best_iteration=best_it)


def clamp_days(case, elec, heat, pv, ev):
    """Clamp day rows to the ranges a ScenarioSet of case takes.

    Loads are floored at 0 and PV clipped into [0, pv_cap]. In the
    (N, n_ev, 3) visits ev, hours are rounded to the nearest integer and
    clamped into the day, an empty window becoming depart = arrive + 1,
    and each SOC is clipped into the fleet's band. Returns new (elec,
    heat, pv, ev) arrays.
    """
    t_day, fleet = case.hours_per_day, case.catalog.ev_fleet
    arrive = np.clip(np.rint(ev[..., 0]), 0, t_day - 1)
    depart = np.maximum(np.clip(np.rint(ev[..., 1]), 1, t_day), arrive + 1)
    soc = np.clip(ev[..., 2], fleet.soc_min, fleet.soc_max)
    return (np.maximum(elec, 0.0), np.maximum(heat, 0.0),
            np.clip(pv, 0.0, case.tariffs.pv_cap),
            np.stack([arrive, depart, soc], axis=-1))


def _block_mask(t_day, n_ev):
    """Boolean mask of the correlation entries generate_scenarios keeps."""
    d = 3 * t_day + 3 * n_ev
    blocks = np.empty(d, dtype=int)
    blocks[:t_day] = 0          # electric load
    blocks[t_day:2 * t_day] = 1  # heat load
    blocks[2 * t_day:3 * t_day] = 2  # pv
    blocks[3 * t_day:] = 3      # ev fields
    keep = blocks[:, None] == blocks[None, :]
    load_pv = ((blocks[:, None] == 0) | (blocks[:, None] == 1)) & (blocks[None, :] == 2)
    keep |= load_pv | load_pv.T
    return keep


def _nearest_corr(corr):
    """Clip eigenvalues at _EIG_FLOOR and rescale to a PD correlation."""
    vals, vecs = np.linalg.eigh(corr)
    vals = np.maximum(vals, _EIG_FLOOR)
    fixed = (vecs * vals) @ vecs.T
    d = np.sqrt(np.diag(fixed))
    fixed = fixed / np.outer(d, d)
    np.fill_diagonal(fixed, 1.0)
    return 0.5 * (fixed + fixed.T)


def check_history(case, hours, vehicles):
    """Raise InvalidParameterError unless a history of hours columns a day
    and vehicles EV columns fits case's hours_per_day and fleet."""
    if hours != case.hours_per_day:
        raise InvalidParameterError(
            f"history spans {hours} hours, case expects {case.hours_per_day}")
    n_ev = case.catalog.ev_fleet.n_ev
    if n_ev > vehicles:
        raise InvalidParameterError(
            f"fleet has {n_ev} vehicles, history provides {vehicles}")


def generate_scenarios(case, history_elec, history_heat, history_pv,
                       history_ev, n_scenarios, seed):
    """Turn historical day tables into a moment-matched ScenarioSet.

    The profiles are (n_days, T) tables and history_ev an (n_days, n_ev, 3)
    array of (arrive, depart, initial_soc), (n_days, 0, 3) for a history
    without vehicles. The joint distribution spans 3*T hourly dimensions
    plus 3 fields per vehicle. Numerically constant history columns (night
    PV, off-season heat) are held at their mean instead of entering the
    fit. Generated days go through clamp_days and ScenarioSet.from_days.

    The fleet's n_ev vehicles take the history's first n_ev vehicle columns;
    a history with fewer vehicles is an InvalidParameterError. Correlations
    are kept within each block (electric load, heat load, PV, EV fields)
    and between the loads and PV; the rest are set to zero.

    Returns (scenario_set, raw) where raw is the RawSampleMatrix with its
    iteration log.
    """
    if n_scenarios < 2:
        raise InvalidParameterError(f"n_scenarios must be >= 2, got {n_scenarios}")
    elec = np.asarray(history_elec, dtype=float)
    heat = np.asarray(history_heat, dtype=float)
    pv = np.asarray(history_pv, dtype=float)
    n_days, t_day = elec.shape
    ev = np.asarray(history_ev, dtype=float)
    check_history(case, t_day, ev.shape[1])
    ev = ev[:, :case.catalog.ev_fleet.n_ev, :]

    panel = np.hstack([elec, heat, pv, ev.reshape(n_days, -1)])
    mean = panel.mean(axis=0)
    var = np.mean((panel - mean) ** 2, axis=0)
    active = var > _VAR_FLOOR * np.maximum(1.0, mean ** 2)

    out = np.tile(mean, (n_scenarios, 1))
    raw = RawSampleMatrix(values=out.copy(), seed=seed, iteration_log=[],
                          converged=True)
    if np.any(active):
        targets = sample_moments(panel[:, active])
        keep = _block_mask(t_day, ev.shape[1])[np.ix_(active, active)]
        corr = np.where(keep, targets.correlation, 0.0)
        np.fill_diagonal(corr, 1.0)
        targets = MomentTargets(mean=targets.mean, variance=targets.variance,
                                skewness=targets.skewness,
                                kurtosis=targets.kurtosis,
                                correlation=_nearest_corr(corr))
        raw = hmm_generate(targets, n_scenarios, seed)
        out[:, active] = raw.values

    *profiles, visits = np.split(out, [t_day, 2 * t_day, 3 * t_day], axis=1)
    days = clamp_days(case, *profiles, visits.reshape(n_scenarios, -1, 3))
    return ScenarioSet.from_days(case.time_grid(n_scenarios), *days), raw
