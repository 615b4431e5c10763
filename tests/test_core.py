"""Core data types: validation rules, the annualization weight, helpers."""
import dataclasses
import math
import time
from fractions import Fraction

import pytest

from hubplan.core import (DAYS_PER_YEAR, FC_IDS, MONEY_SCALE, BessSpec,
                          EquipmentCatalog, EvFleetSpec, EvRecord, FcSpec,
                          Scenario, ScenarioSet, TariffSet, TessSpec,
                          TimeGrid, annualization_factor, validate_scenario_set)
from hubplan.errors import InvalidParameterError


def test_constants():
    assert MONEY_SCALE == 1.0e4
    assert DAYS_PER_YEAR == 365
    assert FC_IDS == ("SOFC", "PEM_gas", "PEM_H2")


def test_annualization_single_year():
    g = TimeGrid(24, 10, 1, 0.06)
    assert annualization_factor(g) == 36.5  # 365/10, no discounting in year 1


def test_annualization_zero_discount():
    g = TimeGrid(24, 5, 20, 0.0)
    assert abs(annualization_factor(g) - 20 * 365 / 5) < 1e-12


def test_annualization_fraction_oracle():
    # exact rational arithmetic on the same binary values of gamma
    for pp, gam, n in [(10, 0.06, 100), (30, 0.03, 365), (3, 0.2, 7)]:
        g = TimeGrid(24, n, pp, gam)
        q = Fraction(1) + Fraction(gam)
        exact = sum(Fraction(365, n) / q ** (y - 1) for y in range(1, pp + 1))
        got = annualization_factor(g)
        assert abs(got - float(exact)) <= 1e-12 * float(exact)


def test_annualization_closed_form_matches_the_yearly_sum():
    for pp in (1, 2, 10, 30, 100):
        for gam in (0.0, 0.01, 0.06, 0.5):
            for n in (1, 10, 365):
                g = 1.0 + gam
                loop = sum(DAYS_PER_YEAR / (n * g ** (y - 1))
                           for y in range(1, pp + 1))
                got = annualization_factor(TimeGrid(24, n, pp, gam))
                assert abs(got - loop) <= 1e-12 * loop, (pp, gam, n)


@pytest.mark.parametrize("gam", [0.0, 1e-12])
def test_annualization_of_a_long_horizon_is_fast(gam):
    # the yearly sum took 1.6 s at 10**7 years; the closed form is O(1)
    # and keeps its digits at a tiny rate, where the sum is PP - gamma
    # PP (PP - 1) / 2 to a relative 2e-11
    pp = 10**7
    g = TimeGrid(24, 10, pp, gam)
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        m = annualization_factor(g)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3
    want = DAYS_PER_YEAR / 10 * (pp - gam * pp * (pp - 1) / 2)
    assert abs(m - want) <= 1e-9 * want


def test_annualization_decreasing_in_discount():
    lo = annualization_factor(TimeGrid(24, 50, 15, 0.02))
    hi = annualization_factor(TimeGrid(24, 50, 15, 0.12))
    assert hi < lo


def test_time_grid_validation():
    with pytest.raises(InvalidParameterError):
        TimeGrid(0, 1, 1, 0.0)
    with pytest.raises(InvalidParameterError, match="hours_per_day"):
        TimeGrid(1, 1, 1, 0.0)  # an hour cannot close a storage cycle alone
    with pytest.raises(InvalidParameterError):
        TimeGrid(24, 0, 1, 0.0)
    with pytest.raises(InvalidParameterError):
        TimeGrid(24, 1, 0, 0.0)
    with pytest.raises(InvalidParameterError):
        TimeGrid(24, 1, 1, -0.01)
    with pytest.raises(InvalidParameterError):
        TimeGrid(24, 1, 1, math.inf)


def test_fc_spec_validation():
    ok = dict(fc_id="SOFC", invest_cost=80.0, gas_to_elec=0.63,
              gas_to_heat=0.28, max_elec=4.5, max_heat=2.0,
              fuel_price=0.257, fuel_emission=0.22, max_units=40)
    FcSpec(**ok)
    with pytest.raises(InvalidParameterError):
        FcSpec(**{**ok, "fc_id": "diesel"})
    with pytest.raises(InvalidParameterError):
        FcSpec(**{**ok, "gas_to_elec": 0.0})
    with pytest.raises(InvalidParameterError):
        FcSpec(**{**ok, "gas_to_elec": 0.7, "gas_to_heat": 0.4})  # sum > 1
    with pytest.raises(InvalidParameterError):
        FcSpec(**{**ok, "max_elec": 0.0})
    with pytest.raises(InvalidParameterError):
        FcSpec(**{**ok, "max_units": -1})


def test_bess_spec_validation():
    ok = dict(invest_cost=0.15, rate_fraction=0.25, eta_ch=0.95, eta_dis=0.95,
              soc_min=0.1, soc_max=0.9, lifetime_cycles=3000.0,
              max_capacity=200.0)
    BessSpec(**ok)
    with pytest.raises(InvalidParameterError):
        BessSpec(**{**ok, "eta_ch": 1.2})
    with pytest.raises(InvalidParameterError):
        BessSpec(**{**ok, "soc_min": 0.9, "soc_max": 0.1})
    with pytest.raises(InvalidParameterError):
        BessSpec(**{**ok, "rate_fraction": 0.0})


def test_ev_fleet_validation():
    ok = dict(n_ev=5, capacity=60.0, charger_power=7.0,
              discharge_rate_fraction=0.25, eta_ch=0.93, eta_dis=0.93,
              soc_min=0.2, soc_max=1.0, target_departure_soc=0.9)
    EvFleetSpec(**ok)
    with pytest.raises(InvalidParameterError):
        EvFleetSpec(**{**ok, "n_ev": -1})
    with pytest.raises(InvalidParameterError):
        EvFleetSpec(**{**ok, "target_departure_soc": 0.1})  # below soc_min


def test_tariff_validation():
    ok = dict(elec_price=(0.3, 1.0), grid_emission=(0.6, 0.8),
              carbon_tax=0.1, soc_penalty=2.0, grid_cap=100.0, pv_cap=50.0)
    TariffSet(**ok)
    with pytest.raises(InvalidParameterError):
        TariffSet(**{**ok, "grid_emission": (0.6,)})  # length mismatch
    with pytest.raises(InvalidParameterError):
        TariffSet(**{**ok, "elec_price": (0.3, -1.0)})
    with pytest.raises(InvalidParameterError):
        TariffSet(**{**ok, "carbon_tax": -0.1})


_TARIFFS = dict(elec_price=(0.3, 1.0), grid_emission=(0.6, 0.8),
                carbon_tax=0.1, soc_penalty=2.0, grid_cap=100.0, pv_cap=50.0)


@pytest.mark.parametrize("make, message", [
    (lambda: TariffSet(**{**_TARIFFS, "grid_emission": (0.6, 0.8, 0.7)}),
     "grid_emission must have length 2, got 3"),
    (lambda: TariffSet(**{**_TARIFFS, "elec_price": (0.3, math.inf)}),
     "elec_price[1] is not finite"),
    (lambda: TariffSet(**{**_TARIFFS, "elec_price": (0.3, -1.5)}),
     "elec_price[1] = -1.5 is below 0.0"),
    # the first bad entry is named, a low one before a later NaN
    (lambda: TariffSet(**{**_TARIFFS, "grid_emission": (-0.0625, math.nan)}),
     "grid_emission[0] = -0.0625 is below 0.0"),
    (lambda: TariffSet(**{**_TARIFFS, "grid_emission": (math.nan, -1.0)}),
     "grid_emission[0] is not finite"),
    (lambda: Scenario(elec_load=(1.0, 2.0), heat_load=(0.0, -math.inf),
                      pv_avail=(0.0, 0.0)),
     "heat_load[1] is not finite"),
    (lambda: Scenario(elec_load=(1.0, 2.0), heat_load=(0.0, 0.0),
                      pv_avail=(0.0,)),
     "pv_avail must have length 2, got 1"),
])
def test_sequence_messages(make, message):
    with pytest.raises(InvalidParameterError) as err:
        make()
    assert str(err.value) == message


def test_ev_record_validation():
    EvRecord(0, 3, 0.4)
    with pytest.raises(InvalidParameterError):
        EvRecord(3, 3, 0.4)  # must park at least one hour
    with pytest.raises(InvalidParameterError):
        EvRecord(-1, 3, 0.4)
    with pytest.raises(InvalidParameterError):
        EvRecord(0, 3, 1.4)


def test_scenario_set_shape_checks():
    g = TimeGrid(2, 2, 1, 0.0)
    sc = Scenario(elec_load=(1.0, 2.0), heat_load=(0.0, 0.0),
                  pv_avail=(0.0, 0.0))
    ScenarioSet(grid=g, scenarios=(sc, sc))
    with pytest.raises(InvalidParameterError):
        ScenarioSet(grid=g, scenarios=(sc,))  # wrong N
    with pytest.raises(InvalidParameterError):
        Scenario(elec_load=(1.0, 2.0), heat_load=(0.0,), pv_avail=(0.0, 0.0))
    with pytest.raises(InvalidParameterError):
        Scenario(elec_load=(1.0, math.nan), heat_load=(0.0, 0.0),
                 pv_avail=(0.0, 0.0))


def test_catalog_duplicate_fc_rejected(tiny):
    with pytest.raises(InvalidParameterError):
        EquipmentCatalog(fuel_cells=(tiny.fc, tiny.fc), bess=tiny.bess,
                         tess=tiny.tess, ev_fleet=tiny.fleet)
    assert tiny.catalog.fc("PEM_gas") is tiny.fc
    with pytest.raises(KeyError):
        tiny.catalog.fc("SOFC")


def test_validate_scenario_set_clean(tiny):
    assert validate_scenario_set(tiny.scen, tiny.catalog, tiny.tariffs) == []


def test_validate_scenario_set_flags(tiny):
    g = TimeGrid(2, 1, 1, 0.0)
    bad = ScenarioSet(grid=g, scenarios=(
        Scenario(elec_load=(1.0, -2.0), heat_load=(0.0, 0.0),
                 pv_avail=(0.0, 80.0),
                 ev_records=(EvRecord(5, 9, 0.05),)),))
    tar = TariffSet(elec_price=(0.3, 1.0), grid_emission=(0.6, 0.8),
                    carbon_tax=0.1, soc_penalty=2.0, grid_cap=100.0,
                    pv_cap=50.0)
    out = validate_scenario_set(bad, tiny.catalog, tar)
    fields = {v.field for v in out}
    # negative load, pv over cap, arrive/depart off-grid, soc below fleet min
    assert {"elec_load", "pv_avail", "arrive_hour", "depart_hour",
            "initial_soc"} <= fields
    assert any("scenario 0" in str(v) for v in out)


def test_validate_flags_record_count(tiny):
    # each scenario holds one record per fleet vehicle; the tiny fleet has 1
    first, second = tiny.scen.scenarios
    bad = dataclasses.replace(tiny.scen, scenarios=(
        first, dataclasses.replace(second, ev_records=second.ev_records * 2)))
    out = validate_scenario_set(bad, tiny.catalog, tiny.tariffs)
    assert [str(v) for v in out] == [
        "scenario 1: ev_records: 2 records, fleet has 1"]


def test_validate_flags_tariff_length(tiny):
    tar = TariffSet(elec_price=(0.3,), grid_emission=(0.6,), carbon_tax=0.1,
                    soc_penalty=2.0, grid_cap=100.0, pv_cap=50.0)
    out = validate_scenario_set(tiny.scen, tiny.catalog, tar)
    assert any(v.field == "elec_price" for v in out)
