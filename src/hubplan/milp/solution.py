"""Mapping solver column vectors back to semantic planning fields."""

from dataclasses import dataclass, field

import numpy as np

from ..errors import SolverError
from ..model import (K_BCH, K_BDIS, K_BE, K_FUEL, K_GRID, K_PV, K_SHORT,
                     K_TCH, K_TDIS, K_TE, K_VCH, K_VDIS, K_VE, K_XESS, K_XFC,
                     K_YB, K_YEV, K_YT, K_Z)
from .verify import INT_TOL


@dataclass
class PlanSolution:
    """A solved plan in physical terms.

    First stage: x_ess (kWh) and x_fc (units per fuel-cell id, exact
    ints). Second stage arrays are indexed [scenario, hour] (and fuel-cell
    or vehicle where present); EV arrays hold NaN outside each vehicle's
    parking window, and ev_e spans T+1 points with the arrival datum at
    index arrive. e_dep is the departure energy (kWh), z the per-scenario
    substandard flags. objective is in the solver's money unit.
    """

    objective: float
    x_ess: float
    x_fc: dict
    grid: np.ndarray
    pv: np.ndarray
    fuel: np.ndarray
    bess_ch: np.ndarray
    bess_dis: np.ndarray
    bess_e: np.ndarray
    tess_ch: np.ndarray
    tess_dis: np.ndarray
    tess_e: np.ndarray
    ev_ch: np.ndarray
    ev_dis: np.ndarray
    ev_e: np.ndarray
    shortfall: np.ndarray
    e_dep: np.ndarray
    z: np.ndarray
    substandard: list = field(default_factory=list)
    y_bess: np.ndarray = None
    y_tess: np.ndarray = None
    y_ev: np.ndarray = None


def _round_int(v, name):
    r = float(np.rint(v))
    if abs(v - r) > INT_TOL:
        raise SolverError(f"column {name} = {v!r} is not integral "
                          f"within {INT_TOL}")
    return r


def extract_solution(bnb, index) -> PlanSolution:
    """Turn a BnbSolution's column vector into a PlanSolution.

    Integer columns are rounded to exact integers (values further than
    INT_TOL from an integer are refused). Missing keys in the index are an
    internal consistency error and raise KeyError.
    """
    x = np.asarray(bnb.x, dtype=float)
    if x.shape[0] != index.n_cols:
        raise SolverError(f"column vector has {x.shape[0]} entries, "
                          f"index describes {index.n_cols}")
    n, t_day = index.n_scenarios, index.hours
    n_fc = len(index.fc_ids)
    n_ev = index.n_ev

    def grab(kind, *idx):
        return float(x[index.col(kind, *idx)]) + 0.0  # -0.0 -> 0.0

    x_ess = grab(K_XESS)
    x_fc = {}
    for i, fc_id in enumerate(index.fc_ids):
        x_fc[fc_id] = int(_round_int(grab(K_XFC, i), f"XFC{i}"))

    grid = np.empty((n, t_day))
    pv = np.empty((n, t_day))
    fuel = np.empty((n, t_day, n_fc))
    bess = {k: np.empty((n, t_day)) for k in (K_BCH, K_BDIS, K_BE)}
    tess = {k: np.empty((n, t_day)) for k in (K_TCH, K_TDIS, K_TE)}
    for s in range(n):
        for t in range(t_day):
            grid[s, t] = grab(K_GRID, s, t)
            pv[s, t] = grab(K_PV, s, t)
            for i in range(n_fc):
                fuel[s, t, i] = grab(K_FUEL, s, t, i)
            for k, arr in bess.items():
                arr[s, t] = grab(k, s, t)
            for k, arr in tess.items():
                arr[s, t] = grab(k, s, t)

    ev_ch = np.full((n, n_ev, t_day), np.nan)
    ev_dis = np.full((n, n_ev, t_day), np.nan)
    ev_e = np.full((n, n_ev, t_day + 1), np.nan)
    shortfall = np.empty((n, n_ev))
    e_dep = np.empty((n, n_ev))
    for s in range(n):
        for j in range(n_ev):
            arrive, depart = index.window(s, j)
            ev_e[s, j, arrive] = index.ev_init[(s, j)]
            for t in range(arrive, depart):
                ev_ch[s, j, t] = grab(K_VCH, s, t, j)
                ev_dis[s, j, t] = grab(K_VDIS, s, t, j)
            for t in range(arrive + 1, depart + 1):
                ev_e[s, j, t] = grab(K_VE, s, t, j)
            shortfall[s, j] = grab(K_SHORT, s, j)
            e_dep[s, j] = ev_e[s, j, depart]

    z = np.empty(n, dtype=np.int64)
    for s in range(n):
        z[s] = int(_round_int(grab(K_Z, s), f"Z{s}"))
    substandard = [int(s) for s in np.flatnonzero(z == 1)]

    y_bess = y_tess = y_ev = None
    if index.binary_mode:
        y_bess = np.empty((n, t_day), dtype=np.int64)
        y_tess = np.empty((n, t_day), dtype=np.int64)
        y_ev = np.full((n, n_ev, t_day), np.nan)
        for s in range(n):
            for t in range(t_day):
                y_bess[s, t] = int(_round_int(grab(K_YB, s, t), f"YB{s}_{t}"))
                y_tess[s, t] = int(_round_int(grab(K_YT, s, t), f"YT{s}_{t}"))
            for j in range(n_ev):
                arrive, depart = index.window(s, j)
                for t in range(arrive, depart):
                    y_ev[s, j, t] = _round_int(grab(K_YEV, s, t, j),
                                               f"YV{s}_{t}_{j}")

    return PlanSolution(
        objective=float(bnb.objective), x_ess=x_ess, x_fc=x_fc, grid=grid,
        pv=pv, fuel=fuel, bess_ch=bess[K_BCH], bess_dis=bess[K_BDIS],
        bess_e=bess[K_BE], tess_ch=tess[K_TCH], tess_dis=tess[K_TDIS],
        tess_e=tess[K_TE], ev_ch=ev_ch, ev_dis=ev_dis, ev_e=ev_e,
        shortfall=shortfall, e_dep=e_dep, z=z, substandard=substandard,
        y_bess=y_bess, y_tess=y_tess, y_ev=y_ev)
