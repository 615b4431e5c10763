"""Build the bundled synthetic dataset: one case file plus a year of
hourly history for an office-type building with a small commuter EV pool.

The profiles are synthetic (seasonal/diurnal shapes with lognormal noise,
autocorrelated PV weather); prices and equipment figures are typical
coastal-China values. Output is deterministic in --seed.

Run from the repo root:
    python tools/make_dataset.py --out src/hubplan/data
"""

import argparse
import os

import numpy as np

from hubplan.core import (BessSpec, EquipmentCatalog, EvFleetSpec, FcSpec,
                          TariffSet, TessSpec)
from hubplan.fileio import (CaseData, EV_HEADER, PROFILE_HEADER, write_case,
                            write_table_csv)

T = 24
N_DAYS = 365
N_EV = 10  # history pool; the case fleet uses the first 5 columns


def build_case() -> CaseData:
    fuel_cells = (
        FcSpec(fc_id="SOFC", invest_cost=80.0, gas_to_elec=0.63,
               gas_to_heat=0.28, max_elec=4.5, max_heat=2.0,
               fuel_price=0.257, fuel_emission=0.22, max_units=40),
        FcSpec(fc_id="PEM_gas", invest_cost=30.0, gas_to_elec=0.34,
               gas_to_heat=0.5, max_elec=4.2, max_heat=6.2,
               fuel_price=0.257, fuel_emission=0.22, max_units=40),
        FcSpec(fc_id="PEM_H2", invest_cost=295.0, gas_to_elec=0.5,
               gas_to_heat=0.45, max_elec=60.0, max_heat=60.0,
               fuel_price=0.8, fuel_emission=0.0, max_units=10),
    )
    bess = BessSpec(invest_cost=0.15, rate_fraction=0.25, eta_ch=0.95,
                    eta_dis=0.95, soc_min=0.1, soc_max=1.0,
                    lifetime_cycles=5000.0, max_capacity=3000.0)
    tess = TessSpec(capacity=150.0, rate_fraction=0.5, eta_ch=0.92,
                    eta_dis=0.92)
    fleet = EvFleetSpec(n_ev=5, capacity=60.0, charger_power=7.0,
                        discharge_rate_fraction=0.25, eta_ch=0.93,
                        eta_dis=0.93, soc_min=0.2, soc_max=1.0,
                        target_departure_soc=0.9)
    price = [0.674] * T
    for h in (22, 23, 0, 1, 2, 3, 4, 5):
        price[h] = 0.297
    for h in (8, 9, 10, 18, 19, 20):
        price[h] = 1.02
    emission = [0.82 if 6 <= h <= 21 else 0.56 for h in range(T)]
    tariffs = TariffSet(elec_price=tuple(price),
                        grid_emission=tuple(emission),
                        carbon_tax=0.04, soc_penalty=1.0,
                        grid_cap=2000.0, pv_cap=1000.0)
    catalog = EquipmentCatalog(fuel_cells=fuel_cells, bess=bess, tess=tess,
                               ev_fleet=fleet)
    return CaseData(catalog=catalog, tariffs=tariffs, hours_per_day=T,
                    planning_years=10, discount_rate=0.06)


def _occupancy(weekend):
    occ = np.full(T, 0.15)
    occ[7] = 0.55
    occ[8] = 0.9
    occ[9:18] = 1.0
    occ[18] = 0.75
    occ[19] = 0.5
    occ[20] = 0.3
    occ[21] = 0.2
    if weekend:
        occ = 0.15 + 0.45 * (occ - 0.15)
    return occ


def _heat_occupancy():
    occ = np.full(T, 0.25)
    occ[6:9] = 1.0  # morning preheat
    occ[9:18] = 0.8
    occ[18:22] = 0.5
    return occ


def make_profiles(rng):
    """Return (elec, heat, pv) shaped (N_DAYS, T) in kW."""
    hours = np.arange(T)
    elec = np.empty((N_DAYS, T))
    heat = np.empty((N_DAYS, T))
    pv = np.empty((N_DAYS, T))
    weather = 0.6
    for d in range(N_DAYS):
        phi = 2.0 * np.pi * (d - 196) / 365.0
        summer = 0.5 * (1.0 + np.cos(phi))  # 1 mid-July, 0 mid-January
        winter = 1.0 - summer
        weekend = d % 7 >= 5
        day_f = rng.lognormal(0.0, 0.05)

        occ = _occupancy(weekend)
        base = 68.0 + 185.0 * occ * (0.85 + 0.35 * summer + 0.1 * winter)
        elec[d] = base * day_f * rng.lognormal(0.0, 0.04, T)

        hbase = 22.0 + 128.0 * winter * _heat_occupancy()
        heat[d] = hbase * rng.lognormal(0.0, 0.05) * rng.lognormal(0.0, 0.05, T)

        # weather persists day to day; clear-sky span widens in summer
        weather = 0.5 * weather + 0.5 * (0.12 + 0.88 * rng.beta(2.2, 1.1))
        span = 5.8 + 1.3 * summer
        shape = np.maximum(0.0, np.cos(np.pi * (hours - 12.5) / (2 * span)))
        pv[d] = (330.0 * (0.8 + 0.25 * summer) * weather * shape ** 1.3
                 * rng.lognormal(0.0, 0.03, T))
    return elec.round(3), heat.round(3), pv.round(3)


def make_ev_log(rng):
    """Return (N_DAYS, N_EV, 3) columns (arrive, depart, soc0), fractional
    hours; windows stay inside [6.6, 20.4] so every visit spans a workday."""
    mu_a = rng.uniform(7.7, 8.8, N_EV)
    mu_d = rng.uniform(17.3, 18.6, N_EV)
    mu_s = rng.uniform(0.38, 0.52, N_EV)
    out = np.empty((N_DAYS, N_EV, 3))
    for d in range(N_DAYS):
        arrive = np.clip(rng.normal(mu_a, 0.4), 6.6, 9.0)
        depart = np.clip(rng.normal(mu_d + 0.35 * (arrive - mu_a), 0.5),
                         16.9, 20.4)
        soc = np.clip(rng.normal(mu_s, 0.07), 0.30, 0.70)
        out[d, :, 0] = arrive
        out[d, :, 1] = depart
        out[d, :, 2] = soc
    return out.round(4)


def write_history(out_dir, elec, heat, pv, ev):
    loads_path = os.path.join(out_dir, "history_loads.csv")
    write_table_csv(loads_path, PROFILE_HEADER, (
        [d, h, *vals] for d in range(elec.shape[0])
        for h, vals in enumerate(zip(elec[d], heat[d], pv[d]))))
    ev_path = os.path.join(out_dir, "history_ev.csv")
    write_table_csv(ev_path, EV_HEADER, (
        [d, j, *visit] for d in range(ev.shape[0])
        for j, visit in enumerate(ev[d])))
    return loads_path, ev_path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="src/hubplan/data",
                    help="output directory (default: %(default)s)")
    ap.add_argument("--seed", type=int, default=7312)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    case = build_case()
    write_case(case, os.path.join(args.out, "case.json"))
    elec, heat, pv, ev = *make_profiles(rng), make_ev_log(rng)
    loads_path, ev_path = write_history(args.out, elec, heat, pv, ev)
    print(f"wrote {loads_path}: {elec.shape[0]} days, "
          f"elec peak {elec.max():.1f} kW, heat peak {heat.max():.1f} kW, "
          f"pv peak {pv.max():.1f} kW")
    print(f"wrote {ev_path}: {ev.shape[1]} vehicles, "
          f"windows [{ev[:, :, 0].min():.2f}, {ev[:, :, 1].max():.2f}]")


if __name__ == "__main__":
    main()
