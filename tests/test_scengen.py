"""Moment-matching scenario generation: estimators, transforms, pipeline."""
import os

import numpy as np
import pytest

from hubplan import scengen
from hubplan.errors import (DecompositionError, DegenerateColumnError,
                            InvalidParameterError, MomentFitError)
from hubplan.fileio import read_case, read_history, write_scenario_set
from hubplan.scengen import (MomentTargets, cholesky_lower,
                             discretize_ev_fields, fit_cubic_batch,
                             fit_cubic_transform, generate_scenarios,
                             hmm_generate, impose_correlation, sample_moments)

# raw moments of N(0,1) up to order 12: E[X^k] = (k-1)!! for even k
_NORMAL_MOMENTS = [1.0, 0.0, 1.0, 0.0, 3.0, 0.0, 15.0, 0.0, 105.0, 0.0,
                   945.0, 0.0, 10395.0]


def test_sample_moments_against_numpy():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(400, 3)) * [1.0, 2.0, 0.5] + [0.0, -1.0, 3.0]
    x[:, 2] = np.exp(x[:, 2] - 3.0)  # one skewed column
    got = sample_moments(x)
    mu = x.mean(axis=0)
    var = ((x - mu) ** 2).mean(axis=0)  # population convention
    z = (x - mu) / np.sqrt(var)
    np.testing.assert_allclose(got.mean, mu, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.variance, var, rtol=1e-12)
    np.testing.assert_allclose(got.skewness, (z ** 3).mean(axis=0), atol=1e-10)
    np.testing.assert_allclose(got.kurtosis, (z ** 4).mean(axis=0), rtol=1e-10)
    np.testing.assert_allclose(got.correlation, np.corrcoef(x, rowvar=False),
                               atol=1e-10)
    assert np.allclose(np.diag(got.correlation), 1.0)


def test_sample_moments_constant_column():
    x = np.ones((50, 2))
    x[:, 0] = np.arange(50.0)
    with pytest.raises(DegenerateColumnError):
        sample_moments(x)


@pytest.mark.parametrize("values, message", [
    (np.zeros(8), "values must be 2-D (observations x dimensions)"),
    (np.eye(3), "need at least 4 observations, got 3"),
])
def test_sample_moments_refuses_its_shape(values, message):
    with pytest.raises(InvalidParameterError) as ei:
        sample_moments(values)
    assert str(ei.value) == message


def _targets(**changed):
    """Two-dimensional standard normal targets with changed fields."""
    fields = dict(mean=np.zeros(2), variance=np.ones(2),
                  skewness=np.zeros(2), kurtosis=np.full(2, 3.0),
                  correlation=np.eye(2))
    return MomentTargets(**{**fields, **changed})


@pytest.mark.parametrize("changed, message", [
    ({"correlation": np.eye(3)}, "correlation must be 2x2, got (3, 3)"),
    ({"kurtosis": np.full(3, 3.0)}, "kurtosis length != 2"),
    ({"variance": np.array([1.0, 0.0])}, "variance[1] must be > 0"),
    ({"correlation": np.array([[1.0, 0.5], [0.4, 1.0]])},
     "correlation must be symmetric"),
    ({"correlation": np.array([[1.0, 0.5], [0.5, 2.0]])},
     "correlation diagonal must be 1"),
])
def test_moment_targets_refusals(changed, message):
    with pytest.raises(InvalidParameterError) as ei:
        _targets(**changed)
    assert str(ei.value) == message


def test_hmm_generate_refusals():
    with pytest.raises(InvalidParameterError, match="n must be >= 2"):
        hmm_generate(_targets(), 1, seed=0)
    # kurtosis must reach skewness^2 + 1 for any distribution to have both
    bad = _targets(skewness=np.array([0.0, 2.0]),
                   kurtosis=np.array([3.0, 4.5]))
    with pytest.raises(MomentFitError) as ei:
        hmm_generate(bad, 64, seed=0)
    assert ei.value.dimension == 1
    assert str(ei.value) == ("dimension 1: kurtosis 4.5 below feasibility "
                             "bound 5.0")


def test_cholesky_lower_matches_numpy():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(5, 5))
    spd = a @ a.T + 5 * np.eye(5)
    ell = cholesky_lower(spd)
    np.testing.assert_allclose(ell, np.linalg.cholesky(spd), rtol=1e-10)
    np.testing.assert_allclose(ell @ ell.T, spd, rtol=1e-10)


def test_cholesky_rejects_indefinite():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.raises(DecompositionError):
        cholesky_lower(bad)


def test_cholesky_names_the_failing_minor():
    # the 2 x 2 leading block is indefinite; a non-finite entry fails the
    # first minor holding it
    bad = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(DecompositionError) as exc:
        cholesky_lower(bad)
    assert exc.value.minor == 2
    nan = np.eye(3)
    nan[2, 0] = np.nan
    with pytest.raises(DecompositionError) as exc:
        cholesky_lower(nan)
    assert exc.value.minor == 3


def test_cholesky_reads_only_the_lower_triangle():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(6, 6))
    spd = a @ a.T + 6 * np.eye(6)
    junk = spd.copy()
    junk[np.triu_indices(6, 1)] = rng.normal(size=15) * 1e3
    junk[0, 5] = np.nan
    np.testing.assert_array_equal(cholesky_lower(junk), cholesky_lower(spd))


def test_fit_cubic_identity_on_normal_targets():
    a, b, c, d = fit_cubic_transform(0.0, 1.0, 0.0, 3.0, _NORMAL_MOMENTS)
    np.testing.assert_allclose([a, b, c, d], [0.0, 1.0, 0.0, 0.0], atol=1e-8)


def test_fit_cubic_affine_case():
    # mean 2, var 9, normal shape: exactly a = 2, b = 3
    a, b, c, d = fit_cubic_transform(2.0, 9.0, 0.0, 3.0, _NORMAL_MOMENTS)
    np.testing.assert_allclose([a, b], [2.0, 3.0], atol=1e-8)
    np.testing.assert_allclose([c, d], [0.0, 0.0], atol=1e-8)


def test_fit_cubic_hits_targets_on_sample():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(100000)
    seed_moments = [np.mean(x ** k) for k in range(13)]
    targets = (1.5, 4.0, 0.9, 4.5)
    a, b, c, d = fit_cubic_transform(*targets, seed_moments)
    y = a + b * x + c * x ** 2 + d * x ** 3
    got = sample_moments(y[:, None])
    assert abs(got.mean[0] - targets[0]) < 0.02
    assert abs(got.variance[0] - targets[1]) / targets[1] < 0.02
    assert abs(got.skewness[0] - targets[2]) < 0.05
    assert abs(got.kurtosis[0] - targets[3]) < 0.15


def test_fit_cubic_infeasible_kurtosis():
    with pytest.raises(MomentFitError):
        fit_cubic_transform(0.0, 1.0, 2.0, 2.0, _NORMAL_MOMENTS)  # < s^2+1
    # inside the bound, but no cubic of a normal is that platykurtic
    with pytest.raises(MomentFitError) as info:
        fit_cubic_transform(0.0, 1.0, 0.0, 1.2, _NORMAL_MOMENTS)
    assert info.value.residual > 1e-10


# The scalar damped Newton fit that fit_cubic_batch replaces, kept as its
# reference: one row at a time, halving lam from 1 down to 2^-halvings (by
# default the shipped ladder's 2^-_LAM_HALVINGS) until the largest scaled
# residual falls.
def _ref_cubic_system(coef, m):
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


def _ref_fit(target, m, coef, tol=1e-10, max_iters=200, halvings=None):
    """(coef, ok, err, lams): the last iterate, whether it reached tol, its
    largest scaled residual and the lam each Newton step accepted."""
    if halvings is None:
        halvings = scengen._LAM_HALVINGS
    scale = np.maximum(1.0, np.abs(target))
    ey, jac = _ref_cubic_system(coef, m)
    err = float(np.max(np.abs((ey - target) / scale)))
    lams = []
    for _ in range(max_iters):
        if err <= tol:
            break
        try:
            step = np.linalg.solve(jac, -(ey - target))
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, -(ey - target), rcond=None)[0]
        lam = 1.0
        while lam >= 2.0 ** -halvings:
            cand = coef + lam * step
            ey_c, jac_c = _ref_cubic_system(cand, m)
            err_c = float(np.max(np.abs((ey_c - target) / scale)))
            if err_c < err:
                coef, ey, jac, err = cand, ey_c, jac_c, err_c
                lams.append(lam)
                break
            lam *= 0.5
        else:
            return coef, False, err, lams  # stalled
    return coef, err <= tol, err, lams


def test_fit_cubic_batch_matches_reference():
    # standardized seeds (as hmm_generate passes them) of 6..200 normal or
    # lognormal draws; targets with a kurtosis margin of 0.2..4 above
    # skew^2 + 1, so some fits converge and the platykurtic ones stall; all
    # rows go through one batched call
    rng = np.random.default_rng(21)
    tol, rows = scengen._FIT_TOL, 300
    m = np.empty((rows, 13))
    target = np.empty((rows, 4))
    for r in range(rows):
        x = rng.standard_normal(rng.integers(6, 201))
        if r % 3 == 0:
            x = np.exp(0.5 * x)
        x = (x - x.mean()) / x.std()
        m[r] = [np.mean(x ** k) for k in range(13)]
        mean, var = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 4.0)
        skew = rng.uniform(-1.5, 1.5)
        kurt = skew * skew + 1.0 + rng.uniform(0.2, 4.0)
        target[r] = scengen._raw_targets(mean, var, skew, kurt)
    b0 = np.sqrt((target[:, 1] - target[:, 0] ** 2) / (m[:, 2] - m[:, 1] ** 2))
    coef0 = np.column_stack([target[:, 0] - b0 * m[:, 1], b0,
                             np.zeros(rows), np.zeros(rows)])
    coef, failed, steps, rung = fit_cubic_batch(target, m, coef0)
    seen = {True: 0, False: 0}
    for r in range(rows):
        ref, ok, err, lams = _ref_fit(target[r], m[r], coef0[r], tol=tol)
        if tol / 10 <= err <= 10 * tol:
            continue  # borderline: rounding may decide either way
        seen[ok] += 1
        assert failed[r] == (not ok), r
        if ok:
            assert steps[r] == len(lams), r
            assert rung[r] == max((round(-np.log2(lam)) for lam in lams),
                                  default=0), r
            assert np.all(np.abs(coef[r] - ref)
                          <= 1e-9 * np.maximum(1.0, np.abs(ref))), r
        else:
            # a failed row crawls at steps whose gain rounding decides, so
            # its counts need not be the reference's; the pass in which it
            # stalled is one of its steps
            assert 0 < steps[r] <= 200, r
            assert rung[r] <= scengen._LAM_HALVINGS, r
    assert seen[True] >= 50 and seen[False] >= 50


def test_fit_batch_falls_back_per_row_on_a_singular_jacobian(monkeypatch):
    # a +-1 coin seed has E[X^k] alternating 1, 0, so its Jacobian is
    # singular and the batched solve raises; each row is then solved alone
    rng = np.random.default_rng(5)
    x = rng.standard_normal(40)
    x = (x - x.mean()) / x.std()
    m = scengen._seed_moments(np.stack([x, np.tile([1.0, -1.0], 20)]))
    target = np.tile(scengen._raw_targets(0.0, 1.0, 0.5, 3.5), (2, 1))
    coef0 = scengen._affine_start(np.zeros(2), np.ones(2), m)
    step, calls = scengen._newton_step, []
    monkeypatch.setattr(scengen, "_newton_step",
                        lambda a, b: calls.append(1) or step(a, b))
    coef, failed = fit_cubic_batch(target, m, coef0)[:2]
    assert calls and failed.tolist() == [False, True]
    alone, failed_alone = fit_cubic_batch(target[:1], m[:1], coef0[:1])[:2]
    assert not failed_alone[0]
    assert np.array_equal(coef[0], alone[0])  # bit for bit


def test_fit_ladder_accepts_first_improving_halving(monkeypatch):
    # from this start the full step, 1/2 and 1/4 all raise the residual
    target = np.array([0.0, 1.0, 1.3, 5.0])  # mean 0, var 1, skew 1.3, kurt 5
    coef0 = np.array([0.4, -0.35, 0.45, -0.15])
    m = np.array(_NORMAL_MOMENTS)
    ref, _ok, _err, lams = _ref_fit(target, m, coef0, max_iters=1)
    assert lams == [0.125]
    with monkeypatch.context() as one_step:
        one_step.setattr(scengen, "_FIT_STEPS", 1)
        coef, failed, steps, rung = fit_cubic_batch(target[None], m[None],
                                                    coef0[None])
    assert failed[0]  # one step does not reach tol
    assert steps.tolist() == [1] and rung.tolist() == [3]  # lam = 2^-3
    np.testing.assert_allclose(coef[0], ref, rtol=1e-12)
    # and over the whole fit
    ref, ok, _err, lams = _ref_fit(target, m, coef0)
    coef, failed = fit_cubic_batch(target[None], m[None], coef0[None])[:2]
    assert ok and not failed[0] and len(lams) > 1
    np.testing.assert_allclose(coef[0], ref, rtol=1e-9)


def test_fit_stalls_below_the_shortest_rung(bundled, monkeypatch):
    # a platykurtic bundled dimension crawls: walked step by step with a
    # 30-halving ladder, it reaches an iterate whose first improving step is
    # shorter than the shipped ladder's last rung; the batched fit stops
    # there, leaves the row as it is and marks it failed
    batch, fits = scengen.fit_cubic_batch, []
    monkeypatch.setattr(scengen, "fit_cubic_batch",
                        lambda *args: fits.append(args) or batch(*args))
    monkeypatch.setattr(scengen, "_GEN_ROUNDS", 1)
    case, (elec, heat, pv, ev) = bundled
    generate_scenarios(case, elec, heat, pv, ev, n_scenarios=6, seed=3)
    (target, m, coef0), = fits
    shortest = 2.0 ** -scengen._LAM_HALVINGS
    for r in np.flatnonzero(batch(target, m, coef0)[1]):
        c = coef0[r]
        for _ in range(200):
            nxt, _ok, _err, lams = _ref_fit(target[r], m[r], c, max_iters=1,
                                            halvings=30)
            if not lams or lams[0] < shortest:
                break
            c = nxt
        if lams and lams[0] < shortest:
            break
    else:
        pytest.fail("no failed row crawls below the shortest rung")
    _ref, ok, _err, lams = _ref_fit(target[r], m[r], c, max_iters=1)
    assert not ok and lams == []
    monkeypatch.setattr(scengen, "_FIT_STEPS", 1)
    coef, failed, steps, rung = batch(target[r][None], m[r][None], c[None])
    # the pass that found no improving rung is a step, and took no rung
    assert failed[0] and steps.tolist() == [1] and rung.tolist() == [0]
    assert np.array_equal(coef[0], c)


def test_impose_correlation_exact_full_rank():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(300, 3))
    x = (x - x.mean(axis=0)) / x.std(axis=0)  # the caller standardizes first
    target = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.0], [0.2, 0.0, 1.0]])
    y = impose_correlation(x, target)
    zc = y - y.mean(axis=0)
    cov = zc.T @ zc / len(y)
    corr = cov / np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    np.testing.assert_allclose(corr, target, atol=1e-10)


def test_impose_correlation_rank_deficient_best_effort():
    # 5 rows cannot carry an exact 6-dim correlation; shrinkage keeps the
    # transform defined and the output finite
    rng = np.random.default_rng(5)
    x = rng.normal(size=(5, 6))
    target = np.eye(6)
    y = impose_correlation(x, target)
    assert y.shape == (5, 6) and np.all(np.isfinite(y))


def test_hmm_generate_matches_targets():
    corr = np.array([[1.0, 0.6], [0.6, 1.0]])
    tg = MomentTargets(mean=np.array([1.0, -2.0]),
                       variance=np.array([4.0, 0.25]),
                       skewness=np.array([0.8, 0.0]),
                       kurtosis=np.array([4.0, 3.0]),
                       correlation=corr)
    raw = hmm_generate(tg, 500, seed=11)
    assert raw.converged
    got = sample_moments(raw.values)
    assert np.max(np.abs(got.mean - tg.mean)) < 0.05
    assert np.max(np.abs(got.variance - tg.variance)
                  / np.maximum(1.0, tg.variance)) < 0.05
    assert np.max(np.abs(got.skewness - tg.skewness)) < 0.05
    assert np.max(np.abs(got.kurtosis - tg.kurtosis)) < 0.05
    assert abs(got.correlation[0, 1] - 0.6) < 0.05


def test_hmm_generate_deterministic():
    tg = MomentTargets(mean=np.zeros(2), variance=np.ones(2),
                       skewness=np.zeros(2), kurtosis=np.full(2, 3.0),
                       correlation=np.eye(2))
    a = hmm_generate(tg, 64, seed=9)
    b = hmm_generate(tg, 64, seed=9)
    c = hmm_generate(tg, 64, seed=10)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_hmm_generate_mean_variance_pinned():
    # sample mean and variance are re-pinned exactly, not just within tol
    tg = MomentTargets(mean=np.array([3.0]), variance=np.array([2.0]),
                       skewness=np.array([0.5]), kurtosis=np.array([3.6]),
                       correlation=np.eye(1))
    raw = hmm_generate(tg, 200, seed=1)
    v = raw.values[:, 0]
    assert abs(v.mean() - 3.0) < 1e-9
    assert abs(((v - v.mean()) ** 2).mean() - 2.0) < 1e-9


def test_discretize_ev_fields(tiny):
    cases = [(7.6, 17.2, 0.55), (-1.0, 0.4, 0.05), (2.2, 2.4, 1.3)]
    out = [discretize_ev_fields(a, d, s, 24, tiny.fleet) for a, d, s in cases]
    for r in out:
        assert isinstance(r.arrive_hour, int) and isinstance(r.depart_hour, int)
        assert 0 <= r.arrive_hour < r.depart_hour <= 24
        assert tiny.fleet.soc_min <= r.initial_soc <= tiny.fleet.soc_max
    assert (out[0].arrive_hour, out[0].depart_hour) == (8, 17)
    assert out[2].depart_hour == out[2].arrive_hour + 1  # window repaired


@pytest.fixture(scope="module")
def bundled(data_dir):
    case = read_case(os.path.join(data_dir, "case.json"))
    hist = read_history(os.path.join(data_dir, "history_loads.csv"),
                        os.path.join(data_dir, "history_ev.csv"))
    return case, hist


def test_generate_scenarios_bundled(bundled, tmp_path):
    case, (elec, heat, pv, ev) = bundled
    scen, raw = generate_scenarios(case, elec, heat, pv, ev,
                                   n_scenarios=25, seed=3)
    assert scen.grid.n_scenarios == 25 and scen.grid.hours_per_day == 24
    fleet = case.catalog.ev_fleet
    for sc in scen.scenarios:
        assert len(sc.ev_records) == fleet.n_ev
        assert all(v >= 0.0 for v in sc.elec_load)
        assert all(v >= 0.0 for v in sc.heat_load)
        assert all(0.0 <= v <= case.tariffs.pv_cap for v in sc.pv_avail)
        for r in sc.ev_records:
            assert isinstance(r.arrive_hour, int)
            assert 0 <= r.arrive_hour < r.depart_hour <= 24
            assert fleet.soc_min <= r.initial_soc <= fleet.soc_max
    # identical seeds give byte-identical files
    p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    e1, e2 = tmp_path / "ev1.csv", tmp_path / "ev2.csv"
    scen2, _ = generate_scenarios(case, elec, heat, pv, ev,
                                  n_scenarios=25, seed=3)
    write_scenario_set(scen, str(p1), str(e1))
    write_scenario_set(scen2, str(p2), str(e2))
    assert p1.read_bytes() == p2.read_bytes()
    assert e1.read_bytes() == e2.read_bytes()


def test_generate_scenarios_small_n(bundled):
    case, (elec, heat, pv, ev) = bundled
    scen, raw = generate_scenarios(case, elec, heat, pv, ev, n_scenarios=10,
                                   seed=7)
    assert scen.grid.n_scenarios == 10
    # ten draws over many dimensions cannot hit every cross moment; the
    # result is still a valid scenario set with per-day variety
    sums = {round(sum(sc.elec_load), 6) for sc in scen.scenarios}
    assert len(sums) > 1


def test_fit_failures_are_counted(bundled, monkeypatch):
    # platykurtic load columns have no cubic-of-normal fit; each round
    # counts the dimensions that stayed affine, which is why this run
    # cannot converge
    monkeypatch.setattr(scengen, "_GEN_ROUNDS", 1)
    case, (elec, heat, pv, ev) = bundled
    _scen, raw = generate_scenarios(case, elec, heat, pv, ev, n_scenarios=6,
                                    seed=1)
    assert not raw.converged
    (entry,) = raw.iteration_log
    assert 0 < entry["fit_fails"] < raw.values.shape[1]
    failed = entry["fit_failed"]
    assert len(failed) == entry["fit_fails"]
    assert failed == sorted(set(failed))
    assert 0 <= failed[0] and failed[-1] < raw.values.shape[1]


def test_fit_work_per_round_is_bounded(bundled, monkeypatch):
    # the line search tries lam = 1 in one batched evaluation and all other
    # rungs in one more, so a round costs at most 2 * max_iters + 1
    # evaluations however many dimensions stall. A row that needs a step
    # shorter than the ladder's last rung stalls instead of crawling on, so
    # here every round ends within half the step budget
    system, batch = scengen._moment_system, scengen.fit_cubic_batch
    calls, per_round = [0], []

    def counted_system(*args):
        calls[0] += 1
        return system(*args)

    def counted_batch(*args, **kwargs):
        before = calls[0]
        out = batch(*args, **kwargs)
        per_round.append(calls[0] - before)
        return out

    monkeypatch.setattr(scengen, "_moment_system", counted_system)
    monkeypatch.setattr(scengen, "fit_cubic_batch", counted_batch)
    case, (elec, heat, pv, ev) = bundled
    _scen, raw = generate_scenarios(case, elec, heat, pv, ev, n_scenarios=6,
                                    seed=3)
    max_iters = scengen._FIT_STEPS
    assert len(per_round) == len(raw.iteration_log)
    assert 1 < max(per_round) <= 2 * max_iters + 1
    assert max(per_round) <= 2 * (max_iters // 2) + 1
    assert sum(e["fit_fails"] for e in raw.iteration_log) > 0


@pytest.mark.parametrize("n, seed", [(6, 3), (10, 7), (50, 4), (6, 7)])
def test_shorter_ladder_keeps_the_panel(bundled, monkeypatch, n, seed):
    # on these draws every row that converges keeps to steps the shipped
    # ladder holds, and a failed row's coefficients are never used (it
    # stays affine), so stopping the ladder there instead of at 2^-30
    # leaves every output as it was. (10, 7) is the README plan's draw;
    # (50, 4) and (6, 7) hold the grid's converging rows with the shortest
    # steps, 2^-15 and 2^-13
    case, (elec, heat, pv, ev) = bundled

    def draw():
        return generate_scenarios(case, elec, heat, pv, ev, n_scenarios=n,
                                  seed=seed)[1]

    short = draw()
    monkeypatch.setattr(scengen, "_LAM_HALVINGS", 30)
    long = draw()
    assert np.array_equal(short.values, long.values)
    assert short.iteration_log == long.iteration_log
    assert short.best_iteration == long.best_iteration


def test_ladder_keeps_the_shortest_converging_step(bundled, monkeypatch):
    # the shortest step any converging row of the bundled grid takes
    # (tools/fit_grid.py): (n, seed) = (50, 4), round 1, row 25 converges
    # only through a step of 2^-15, so the shipped ladder must reach it; a
    # ladder of 14 rungs fails the row
    batch, fits = scengen.fit_cubic_batch, []
    monkeypatch.setattr(scengen, "fit_cubic_batch",
                        lambda *args: fits.append(args) or batch(*args))
    monkeypatch.setattr(scengen, "_GEN_ROUNDS", 1)
    case, (elec, heat, pv, ev) = bundled
    generate_scenarios(case, elec, heat, pv, ev, n_scenarios=50, seed=4)
    (target, m, coef0), = fits
    _ref, ok, _err, lams = _ref_fit(target[25], m[25], coef0[25], halvings=30)
    assert ok and min(lams) == 2.0 ** -15
    _coef, failed, _steps, rung = batch(target, m, coef0)
    assert not failed[25] and rung[25] == 15
    monkeypatch.setattr(scengen, "_LAM_HALVINGS", 14)
    assert batch(target, m, coef0)[1][25]


@pytest.mark.parametrize("n", [-3, 0, 1])
def test_generate_scenarios_rejects_small_n(bundled, n):
    case, (elec, heat, pv, ev) = bundled
    with pytest.raises(InvalidParameterError):
        generate_scenarios(case, elec, heat, pv, ev, n_scenarios=n, seed=3)


def test_generate_scenarios_needs_fleet_vehicles(bundled):
    # the fleet of 5 takes the history's first 5 of 10 vehicles; a history
    # with fewer than 5 is refused before any fit
    case, (elec, heat, pv, ev) = bundled
    with pytest.raises(InvalidParameterError) as ei:
        generate_scenarios(case, elec, heat, pv, ev[:, :2], n_scenarios=6,
                           seed=3)
    assert str(ei.value) == "fleet has 5 vehicles, history provides 2"


def _scipy_call(*_args, **_kwargs):
    raise AssertionError("the scenario generator called into scipy.linalg")


@pytest.mark.parametrize("n", [50, 200])
def test_generator_stays_on_numpy_blas(bundled, monkeypatch, n):
    # numpy and scipy each bundle a BLAS with its own thread pool; switching
    # between them every round makes each wait for the other's spinning
    # threads. n = 50, below the 77 dimensions, fails shrink rungs.
    import scipy.linalg
    import scipy.linalg.lapack
    monkeypatch.setattr(scengen, "dpotrf", _scipy_call)
    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", _scipy_call)
    for name in ("solve_triangular", "cholesky", "cho_factor", "solve",
                 "lu_factor"):
        monkeypatch.setattr(scipy.linalg, name, _scipy_call)
    case, (elec, heat, pv, ev) = bundled
    _scen, raw = generate_scenarios(case, elec, heat, pv, ev, n_scenarios=n,
                                    seed=3)
    assert raw.iteration_log and np.all(np.isfinite(raw.values))


def test_non_pd_target_names_its_minor():
    corr = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
    tg = MomentTargets(mean=np.zeros(3), variance=np.ones(3),
                       skewness=np.zeros(3), kurtosis=np.full(3, 3.0),
                       correlation=corr)
    with pytest.raises(DecompositionError) as exc:
        hmm_generate(tg, 64, seed=1)
    assert exc.value.minor == 3


def test_best_iteration_names_the_returned_round(bundled):
    # the panel comes from the first round with the smallest
    # max(moment_err, corr_err); here that is not the last round
    case, (elec, heat, pv, ev) = bundled
    _scen, raw = generate_scenarios(case, elec, heat, pv, ev, n_scenarios=50,
                                    seed=3)
    worst = [max(e["moment_err"], e["corr_err"]) for e in raw.iteration_log]
    assert raw.best_iteration == int(np.argmin(worst)) + 1
    assert raw.best_iteration < len(raw.iteration_log)
    assert raw.iteration_log[raw.best_iteration - 1]["iteration"] == \
        raw.best_iteration
