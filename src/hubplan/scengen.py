"""Moment-matching scenario generation.

Scenario days are drawn to reproduce the first four marginal moments and the
correlation matrix of historical data. Each dimension starts from counter-based
normal seed noise, is pushed through a cubic transform fitted so its raw
moments hit the targets, and the panel is then re-mixed through Cholesky
factors so the sample correlation matches the target exactly. Transform and
mixing are alternated until both errors sit inside tolerance.

Everything here is deterministic in (targets, n, seed): reruns give
bit-identical output.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import EvRecord, Scenario, ScenarioSet
from .errors import (DecompositionError, DegenerateColumnError,
                     InvalidParameterError, MomentFitError)

_VAR_FLOOR = 1e-12


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
    log: per round its moment error, correlation error and fit_fails, the
    number of dimensions whose cubic fit failed and stayed affine."""

    values: np.ndarray
    seed: int
    iteration_log: list = field(default_factory=list)
    converged: bool = False


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric PD matrix.

    Raises DecompositionError carrying the 1-based order of the first
    leading minor that fails positivity.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    low = np.zeros((n, n))
    for j in range(n):
        s = a[j, j] - low[j, :j] @ low[j, :j]
        if s <= 0.0 or not math.isfinite(s):
            raise DecompositionError(minor=j + 1)
        low[j, j] = math.sqrt(s)
        if j + 1 < n:
            low[j + 1:, j] = (a[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    return low


def _pop_std(x):
    return math.sqrt(float(np.mean((x - np.mean(x)) ** 2)))


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
    mean = x.mean(axis=0)
    cen = x - mean
    var = np.mean(cen ** 2, axis=0)
    floor = _VAR_FLOOR * np.maximum(1.0, mean ** 2)
    for j in range(d):
        if var[j] <= floor[j]:
            raise DegenerateColumnError(column=j)
    std = np.sqrt(var)
    z = cen / std
    skew = np.mean(z ** 3, axis=0)
    kurt = np.mean(z ** 4, axis=0)
    corr = (z.T @ z) / n
    np.fill_diagonal(corr, 1.0)
    corr = 0.5 * (corr + corr.T)
    return MomentTargets(mean=mean, variance=var, skewness=skew,
                         kurtosis=kurt, correlation=corr)


def _raw_moments(x: np.ndarray, upto: int) -> np.ndarray:
    out = np.empty(upto + 1)
    out[0] = 1.0
    p = np.ones_like(x)
    for k in range(1, upto + 1):
        p = p * x
        out[k] = np.mean(p)
    return out


def _raw_targets(mean, var, skew, kurt):
    m3c = skew * var ** 1.5
    m4c = kurt * var ** 2
    r1 = mean
    r2 = var + mean ** 2
    r3 = m3c + 3.0 * mean * var + mean ** 3
    r4 = m4c + 4.0 * mean * m3c + 6.0 * mean ** 2 * var + mean ** 4
    return np.array([r1, r2, r3, r4])


def _cubic_system(coef, m):
    """Raw moments of Y = p(X) and their Jacobian wrt the cubic coefficients.

    coef are the coefficients of powers 0..3; m holds seed raw moments up to
    order 12 (products of two cubics need X powers up to 3*4).
    """
    p1 = coef
    p2 = np.convolve(p1, p1)
    p3 = np.convolve(p2, p1)
    p4 = np.convolve(p3, p1)
    ey = np.array([p1 @ m[:4], p2 @ m[:7], p3 @ m[:10], p4 @ m[:13]])
    jac = np.empty((4, 4))
    powers = [np.array([1.0]), p1, p2, p3]
    for k in range(4):
        pk = powers[k]
        for j in range(4):
            jac[k, j] = (k + 1) * (pk @ m[j:j + pk.size])
    return ey, jac


def fit_cubic_transform(mean, var, skew, kurt, seed_moments, tol=1e-10,
                        max_iters=200):
    """Fit Y = a + bX + cX^2 + dX^3 so Y's first four moments hit the targets.

    seed_moments are the raw moments of the seed sample X up to order 12
    (seed_moments[k] = E[X^k], length >= 13). Solved by damped Newton on the
    four raw-moment equations; tol is relative to max(1, |target|).

    Raises MomentFitError when the targets violate the kurtosis feasibility
    bound (kurt >= skew^2 + 1) or Newton stalls.
    """
    m = np.asarray(seed_moments, dtype=float)
    if m.size < 13:
        raise InvalidParameterError("seed_moments must reach order 12")
    if kurt < skew * skew + 1.0 - 1e-9:
        raise MomentFitError(
            f"infeasible targets: kurtosis {kurt} below bound {skew * skew + 1.0}")
    target = _raw_targets(float(mean), float(var), float(skew), float(kurt))
    scale = np.maximum(1.0, np.abs(target))

    seed_var = m[2] - m[1] ** 2
    b0 = math.sqrt(max(var, _VAR_FLOOR) / max(seed_var, _VAR_FLOOR))
    coef = np.array([mean - b0 * m[1], b0, 0.0, 0.0])

    ey, jac = _cubic_system(coef, m)
    resid = (ey - target) / scale
    err = float(np.max(np.abs(resid)))
    for _ in range(max_iters):
        if err <= tol:
            return tuple(coef)
        try:
            step = np.linalg.solve(jac, -(ey - target))
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, -(ey - target), rcond=None)[0]
        lam = 1.0
        improved = False
        while lam >= 2.0 ** -30:
            cand = coef + lam * step
            ey_c, jac_c = _cubic_system(cand, m)
            err_c = float(np.max(np.abs((ey_c - target) / scale)))
            if err_c < err:
                coef, ey, jac, err = cand, ey_c, jac_c, err_c
                improved = True
                break
            lam *= 0.5
        if not improved:
            raise MomentFitError("Newton stalled", residual=err)
    if err <= tol:
        return tuple(coef)
    raise MomentFitError(f"no convergence in {max_iters} iterations", residual=err)


def impose_correlation(values: np.ndarray, corr: np.ndarray) -> np.ndarray:
    """Re-mix standardized columns so their sample correlation becomes corr.

    Whitens with the Cholesky factor of the input's own sample correlation and
    colors with the factor of the target, so the result is exact (up to float
    arithmetic) for any full-rank input; columns keep unit sample variance.

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
    lams = (0.0, 1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.5)
    for lam in lams:
        shrunk = (1.0 - lam) * cur + lam * np.eye(cur.shape[0])
        if lam == lams[-1]:
            l_cur = cholesky_lower(shrunk)  # PD by construction
            break
        try:
            l_cur = cholesky_lower(shrunk)
            break
        except DecompositionError:
            continue
    l_tgt = cholesky_lower(np.asarray(corr, dtype=float))
    from scipy.linalg import solve_triangular
    white = solve_triangular(l_cur, w.T, lower=True)
    return (l_tgt @ white).T


def _standardize(col):
    mu = float(np.mean(col))
    sd = _pop_std(col)
    if sd <= 0.0:
        raise DegenerateColumnError(column=-1, message="seed column collapsed")
    return (col - mu) / sd


def _panel_errors(w, targets):
    """(moment error, correlation error) of a standardized-target panel."""
    n, d = w.shape
    mean = w.mean(axis=0)
    cen = w - mean
    var = np.mean(cen ** 2, axis=0)
    std = np.sqrt(np.maximum(var, _VAR_FLOOR))
    z = cen / std
    skew = np.mean(z ** 3, axis=0)
    kurt = np.mean(z ** 4, axis=0)
    moment_err = max(float(np.max(np.abs(mean))),
                     float(np.max(np.abs(var - 1.0))),
                     float(np.max(np.abs(skew - targets.skewness))),
                     float(np.max(np.abs(kurt - targets.kurtosis))))
    corr = (z.T @ z) / n
    np.fill_diagonal(corr, 1.0)
    corr_err = float(np.max(np.abs(corr - targets.correlation)))
    return moment_err, corr_err


def hmm_generate(targets: MomentTargets, n: int, seed: int, tol=0.05,
                 max_iters=50) -> RawSampleMatrix:
    """Generate n rows matching the target moments and correlation.

    Alternates per-dimension cubic re-fitting with correlation re-mixing and
    returns the best iterate. ``converged`` reports whether both the largest
    marginal-moment error and the largest correlation-entry error made it
    below tol.

    Seed noise is drawn from a counter-based generator keyed on
    (seed, dimension), so results do not depend on evaluation order.
    """
    d = targets.n_dims
    if n < 2:
        raise InvalidParameterError("n must be >= 2")
    if n < 8 * d:
        warnings.warn(f"n = {n} is small for {d} dimensions; "
                      f"moment estimates will be noisy", stacklevel=2)
    for j in range(d):
        s, k = targets.skewness[j], targets.kurtosis[j]
        if k < s * s + 1.0 - 1e-9:
            raise MomentFitError(
                f"dimension {j}: kurtosis {k} below feasibility bound {s * s + 1.0}",
                dimension=j)
    # fail fast on a non-PD target correlation
    cholesky_lower(targets.correlation)

    w = np.empty((n, d))
    for j in range(d):
        gen = np.random.Generator(np.random.Philox(key=[seed, j]))
        w[:, j] = _standardize(gen.standard_normal(n))

    std_targets = [(0.0, 1.0, targets.skewness[j], targets.kurtosis[j])
                   for j in range(d)]
    log = []
    best_w, best_err, best_it = w.copy(), math.inf, 0
    converged = False
    for it in range(1, max_iters + 1):
        fit_fails = 0
        for j in range(d):
            col = w[:, j]
            try:
                coef = fit_cubic_transform(*std_targets[j], _raw_moments(col, 12))
                col = coef[0] + col * (coef[1] + col * (coef[2] + col * coef[3]))
            except MomentFitError:
                fit_fails += 1  # the column stays affine (standardized) this round
            w[:, j] = _standardize(col)
        w = impose_correlation(w, targets.correlation)
        moment_err, corr_err = _panel_errors(w, targets)
        log.append({"iteration": it, "moment_err": moment_err, "corr_err": corr_err,
                    "fit_fails": fit_fails})
        if max(moment_err, corr_err) < best_err:
            best_err = max(moment_err, corr_err)
            best_w, best_it = w.copy(), it
        if moment_err <= tol and corr_err <= tol:
            converged = True
            break
        if it - best_it >= 8:
            break  # plateaued; keep the best iterate seen
    # per-column affine maps leave skewness, kurtosis and correlation alone,
    # so pin the sample mean and variance exactly
    for j in range(d):
        best_w[:, j] = _standardize(best_w[:, j])
    values = targets.mean + np.sqrt(targets.variance) * best_w
    return RawSampleMatrix(values=values, seed=seed, iteration_log=log,
                           converged=converged)


def discretize_ev_fields(arrive, depart, soc, hours_per_day, fleet):
    """Round one vehicle's sampled visit to a valid whole-hour record.

    Hours are rounded to the nearest integer then clamped into the day;
    an inverted or empty window is repaired to depart = arrive + 1; the SOC
    is clipped into the fleet's band.
    """
    a = int(np.rint(arrive))
    d = int(np.rint(depart))
    a = min(max(a, 0), hours_per_day - 1)
    d = min(max(d, 1), hours_per_day)
    if d <= a:
        d = a + 1
    s = min(max(float(soc), fleet.soc_min), fleet.soc_max)
    return EvRecord(arrive_hour=a, depart_hour=d, initial_soc=s)


def _block_mask(t_day, n_ev):
    """Boolean mask of correlation entries kept in block mode."""
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


def _nearest_corr(corr, floor=1e-8):
    """Clip eigenvalues and rescale so the matrix is a valid PD correlation."""
    vals, vecs = np.linalg.eigh(corr)
    vals = np.maximum(vals, floor)
    fixed = (vecs * vals) @ vecs.T
    d = np.sqrt(np.diag(fixed))
    fixed = fixed / np.outer(d, d)
    np.fill_diagonal(fixed, 1.0)
    return 0.5 * (fixed + fixed.T)


def generate_scenarios(case, history_elec, history_heat, history_pv,
                       history_ev, n_scenarios, seed, tol=0.05, max_iters=50,
                       block_correlation=True, n_ev=None):
    """Turn historical day tables into a moment-matched ScenarioSet.

    The joint distribution spans 3*T hourly dimensions plus 3 fields per
    vehicle. Numerically constant history columns (night PV, off-season heat)
    are held at their mean instead of entering the fit. Generated profiles
    are clamped to physical ranges and EV visits discretized to whole hours.

    n_ev limits how many of the history's vehicle columns are used (default
    all); the case's fleet size must match the resulting count.

    Returns (scenario_set, raw) where raw is the RawSampleMatrix with its
    iteration log.
    """
    elec = np.asarray(history_elec, dtype=float)
    heat = np.asarray(history_heat, dtype=float)
    pv = np.asarray(history_pv, dtype=float)
    n_days, t_day = elec.shape
    if t_day != case.hours_per_day:
        raise InvalidParameterError(
            f"history spans {t_day} hours, case expects {case.hours_per_day}")
    fleet = case.catalog.ev_fleet
    if history_ev is None:
        ev = np.zeros((n_days, 0, 3))
    else:
        ev = np.asarray(history_ev, dtype=float)
    if n_ev is not None:
        if n_ev > ev.shape[1]:
            raise InvalidParameterError(
                f"history has {ev.shape[1]} vehicles, {n_ev} requested")
        ev = ev[:, :n_ev, :]
    if fleet.n_ev != ev.shape[1]:
        raise InvalidParameterError(
            f"fleet has {fleet.n_ev} vehicles, history provides {ev.shape[1]}")

    panel = np.hstack([elec, heat, pv, ev.reshape(n_days, -1)])
    d_all = panel.shape[1]
    mean = panel.mean(axis=0)
    var = np.mean((panel - mean) ** 2, axis=0)
    active = var > _VAR_FLOOR * np.maximum(1.0, mean ** 2)

    out = np.tile(mean, (n_scenarios, 1))
    raw = RawSampleMatrix(values=out.copy(), seed=seed, iteration_log=[],
                          converged=True)
    if np.any(active):
        targets = sample_moments(panel[:, active])
        if block_correlation:
            keep = _block_mask(t_day, ev.shape[1])[np.ix_(active, active)]
            corr = np.where(keep, targets.correlation, 0.0)
            np.fill_diagonal(corr, 1.0)
            targets = MomentTargets(mean=targets.mean, variance=targets.variance,
                                    skewness=targets.skewness,
                                    kurtosis=targets.kurtosis,
                                    correlation=_nearest_corr(corr))
        raw = hmm_generate(targets, n_scenarios, seed, tol=tol,
                           max_iters=max_iters)
        out[:, active] = raw.values

    t3 = 3 * t_day
    out[:, :t3] = np.maximum(out[:, :t3], 0.0)
    out[:, 2 * t_day:t3] = np.minimum(out[:, 2 * t_day:t3], case.tariffs.pv_cap)

    scenarios = []
    for s in range(n_scenarios):
        recs = tuple(
            discretize_ev_fields(out[s, t3 + 3 * j], out[s, t3 + 3 * j + 1],
                                 out[s, t3 + 3 * j + 2], t_day, fleet)
            for j in range(ev.shape[1]))
        scenarios.append(Scenario(tuple(out[s, :t_day]),
                                  tuple(out[s, t_day:2 * t_day]),
                                  tuple(out[s, 2 * t_day:t3]), recs))
    grid = case.time_grid(n_scenarios)
    return ScenarioSet(grid=grid, scenarios=tuple(scenarios)), raw
