"""Moment-matching scenario generation: estimators, transforms, pipeline."""
import os

import numpy as np
import pytest

from hubplan.errors import (DecompositionError, DegenerateColumnError,
                            MomentFitError)
from hubplan.fileio import read_case, read_history, write_scenario_set
from hubplan.scengen import (MomentTargets, cholesky_lower,
                             discretize_ev_fields, fit_cubic_transform,
                             generate_scenarios, hmm_generate,
                             impose_correlation, sample_moments)

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
                                   n_scenarios=25, seed=3,
                                   n_ev=case.catalog.ev_fleet.n_ev)
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
                                  n_scenarios=25, seed=3,
                                  n_ev=case.catalog.ev_fleet.n_ev)
    write_scenario_set(scen, str(p1), str(e1))
    write_scenario_set(scen2, str(p2), str(e2))
    assert p1.read_bytes() == p2.read_bytes()
    assert e1.read_bytes() == e2.read_bytes()


def test_generate_scenarios_small_n_warns(bundled):
    case, (elec, heat, pv, ev) = bundled
    with pytest.warns(UserWarning):
        scen, raw = generate_scenarios(case, elec, heat, pv, ev,
                                       n_scenarios=10, seed=7,
                                       n_ev=case.catalog.ev_fleet.n_ev)
    assert scen.grid.n_scenarios == 10
    # ten draws over many dimensions cannot hit every cross moment; the
    # result is still a valid scenario set with per-day variety
    sums = {round(sum(sc.elec_load), 6) for sc in scen.scenarios}
    assert len(sums) > 1


def test_fit_failures_are_counted(bundled):
    # platykurtic load columns have no cubic-of-normal fit; each round
    # counts the dimensions that stayed affine, which is why this run
    # cannot converge
    case, (elec, heat, pv, ev) = bundled
    with pytest.warns(UserWarning):
        _scen, raw = generate_scenarios(case, elec, heat, pv, ev,
                                        n_scenarios=6, seed=1, max_iters=1,
                                        n_ev=case.catalog.ev_fleet.n_ev)
    assert not raw.converged
    (entry,) = raw.iteration_log
    assert 0 < entry["fit_fails"] < raw.values.shape[1]
