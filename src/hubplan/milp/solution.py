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


def extract_solution(bnb, index) -> PlanSolution:
    """Turn a BnbSolution's column vector into a PlanSolution.

    Each array is gathered through the index's column-id array of its kind
    (NaN where a key has no column). Integer columns are rounded to exact
    integers; a value further than INT_TOL from an integer is refused,
    naming the first such column of the first kind checked (XFC, Z, then
    the exclusivity flags YB, YT and YV in binary mode).
    """
    x = np.asarray(bnb.x, dtype=float)
    if x.shape[0] != index.n_cols:
        raise SolverError(f"column vector has {x.shape[0]} entries, "
                          f"index describes {index.n_cols}")

    def gather(kind):
        ids = index.ids[kind]
        return np.where(ids >= 0, x[ids] + 0.0, np.nan)  # -0.0 -> 0.0

    def ev(vals):
        # EV keys (kind, s, t, j) are reported at [s, j, t]
        return np.ascontiguousarray(vals.transpose(0, 2, 1))

    def integral(kind):
        vals = gather(kind)
        r = np.rint(vals)
        bad = np.flatnonzero(np.abs(vals - r) > INT_TOL)  # NaN never is
        if bad.size:
            name = index.names[index.ids[kind].flat[bad[0]]]
            raise SolverError(f"column {name} = {float(vals.flat[bad[0]])!r} "
                              f"is not integral within {INT_TOL}")
        return r

    x_fc = {fc_id: int(v) for fc_id, v in zip(index.fc_ids, integral(K_XFC))}
    z = integral(K_Z).astype(np.int64)
    ev_e = ev(gather(K_VE))
    e_dep = np.empty(index.ids[K_SHORT].shape)
    for (s, j), (arrive, depart) in index.windows.items():
        ev_e[s, j, arrive] = index.ev_init[(s, j)]
        e_dep[s, j] = ev_e[s, j, depart]

    y_bess = y_tess = y_ev = None
    if index.binary_mode:
        y_bess = integral(K_YB).astype(np.int64)
        y_tess = integral(K_YT).astype(np.int64)
        y_ev = ev(integral(K_YEV))

    return PlanSolution(
        objective=float(bnb.objective), x_ess=float(gather(K_XESS)),
        x_fc=x_fc, grid=gather(K_GRID), pv=gather(K_PV), fuel=gather(K_FUEL),
        bess_ch=gather(K_BCH), bess_dis=gather(K_BDIS), bess_e=gather(K_BE),
        tess_ch=gather(K_TCH), tess_dis=gather(K_TDIS), tess_e=gather(K_TE),
        ev_ch=ev(gather(K_VCH)), ev_dis=ev(gather(K_VDIS)), ev_e=ev_e,
        shortfall=gather(K_SHORT), e_dep=e_dep, z=z,
        substandard=[int(s) for s in np.flatnonzero(z == 1)],
        y_bess=y_bess, y_tess=y_tess, y_ev=y_ev)
