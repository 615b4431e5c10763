"""Domain types and basic quantities for building energy-hub planning.

Conventions used throughout the package:

* time is a cycle of ``hours_per_day`` one-hour steps, indexed 0-based;
* power in kW, energy in kWh, money in units of 1e4 yuan (``MONEY_SCALE``);
* per-kWh tariffs and prices are quoted in yuan and divided by
  ``MONEY_SCALE`` when they enter an objective;
* emission factors in kg CO2 per kWh, carbon tax in yuan per kg;
* every verdict on a solved plan (the solution check, the physics
  recheck, the chance audit) allows ``FEAS_TOL``, and an integer column may
  sit ``INT_TOL`` from an integer.

All domain types are frozen dataclasses validated at construction; vector
fields are stored as plain tuples so instances stay immutable and compare
by value.
"""

import math
from dataclasses import dataclass, field, replace

from .errors import InvalidParameterError

MONEY_SCALE = 1.0e4  # yuan per model money unit

FC_IDS = ("SOFC", "PEM_gas", "PEM_H2")

DAYS_PER_YEAR = 365

FEAS_TOL = 1e-6  # the one tolerance of a verdict on a solved plan
INT_TOL = FEAS_TOL  # distance from an integer an integer column may keep


def _check(cond, msg):
    if not cond:
        raise InvalidParameterError(msg)


def _finite_seq(name, seq, n=None, lo=None):
    vals = tuple(float(v) for v in seq)
    if n is not None:
        _check(len(vals) == n, f"{name} must have length {n}, got {len(vals)}")
    finite = all(map(math.isfinite, vals))
    if finite and (lo is None or min(vals, default=lo) >= lo):
        return vals
    for i, v in enumerate(vals):  # name the first bad entry
        _check(math.isfinite(v), f"{name}[{i}] is not finite")
        _check(lo is None or v >= lo, f"{name}[{i}] = {v} is below {lo}")


@dataclass(frozen=True)
class TimeGrid:
    """Scenario-day time structure and planning horizon.

    hours_per_day   T, hourly steps per representative day
    n_scenarios     N, number of scenario days
    planning_years  PP, years in the planning period
    discount_rate   gamma, annual discount rate (0.06 = 6 %)
    """

    hours_per_day: int
    n_scenarios: int
    planning_years: int
    discount_rate: float

    def __post_init__(self):
        # a daily storage cycle links each hour to a different hour before it
        _check(self.hours_per_day >= 2,
               f"hours_per_day must be >= 2, got {self.hours_per_day}")
        _check(self.n_scenarios >= 1, "n_scenarios must be >= 1")
        _check(self.planning_years >= 1, "planning_years must be >= 1")
        _check(math.isfinite(self.discount_rate) and self.discount_rate >= 0.0,
               "discount_rate must be finite and >= 0")
        try:  # the discount of the last year
            (1.0 + self.discount_rate) ** (self.planning_years - 1)
        except OverflowError:
            raise InvalidParameterError(
                f"planning_years {self.planning_years} at discount_rate "
                f"{self.discount_rate} overflows a float") from None


def annualization_factor(grid: TimeGrid) -> float:
    """Present-value weight m applied to one hour of scenario-average cost.

    m = sum_{y=1..PP} 365 / (N * (1+gamma)^(y-1))

    Multiplying a per-scenario-day operating cost summed over scenarios by m
    yields the discounted cost over the whole planning period; the 1/N is the
    scenario-average weight. The sum is taken in closed form: 365 PP / N at
    gamma = 0, else the geometric series 365 / N (1 - (1+gamma)^-PP)
    (1+gamma) / gamma, with (1+gamma)^-PP - 1 as expm1(-PP log1p(gamma)) so
    that a small gamma keeps its digits.
    """
    n, pp, rate = grid.n_scenarios, grid.planning_years, grid.discount_rate
    if rate == 0.0:
        return DAYS_PER_YEAR * pp / n
    return (DAYS_PER_YEAR / n * -math.expm1(-pp * math.log1p(rate))
            * (1.0 + rate) / rate)


@dataclass(frozen=True)
class FcSpec:
    """One fuel-cell technology.

    invest_cost    money units (1e4 yuan) per installed set
    gas_to_elec    electric coupling, kWh_e per kWh fuel
    gas_to_heat    thermal coupling, kWh_th per kWh fuel
    max_elec       electric output cap per set, kW
    max_heat       thermal output cap per set, kW
    fuel_price     yuan per kWh of fuel
    fuel_emission  kg CO2 per kWh of fuel
    max_units      largest number of sets that may be installed
    """

    fc_id: str
    invest_cost: float
    gas_to_elec: float
    gas_to_heat: float
    max_elec: float
    max_heat: float
    fuel_price: float
    fuel_emission: float
    max_units: int

    def __post_init__(self):
        _check(self.fc_id in FC_IDS, f"fc_id must be one of {FC_IDS}, got {self.fc_id!r}")
        _check(self.invest_cost >= 0.0, "invest_cost must be >= 0")
        _check(0.0 < self.gas_to_elec <= 1.0, "gas_to_elec must be in (0, 1]")
        _check(0.0 <= self.gas_to_heat <= 1.0, "gas_to_heat must be in [0, 1]")
        _check(self.gas_to_elec + self.gas_to_heat <= 1.0 + 1e-9,
               "gas_to_elec + gas_to_heat must not exceed 1")
        _check(self.max_elec > 0.0, "max_elec must be > 0")
        _check(self.max_heat >= 0.0, "max_heat must be >= 0")
        _check(self.fuel_price >= 0.0, "fuel_price must be >= 0")
        _check(self.fuel_emission >= 0.0, "fuel_emission must be >= 0")
        _check(self.max_units >= 0, "max_units must be >= 0")


@dataclass(frozen=True)
class BessSpec:
    """Stationary battery storage; capacity X_ess is a decision variable.

    invest_cost      money units per kWh of installed capacity
    rate_fraction    charge/discharge power cap as a fraction of capacity
    lifetime_cycles  total full-capacity charge throughput over the planning
                     period, in multiples of capacity
    max_capacity     upper bound on installed capacity, kWh
    """

    invest_cost: float
    rate_fraction: float
    eta_ch: float
    eta_dis: float
    soc_min: float
    soc_max: float
    lifetime_cycles: float
    max_capacity: float

    def __post_init__(self):
        _check(self.invest_cost >= 0.0, "invest_cost must be >= 0")
        _check(0.0 < self.rate_fraction <= 1.0, "rate_fraction must be in (0, 1]")
        _check(0.0 < self.eta_ch <= 1.0, "eta_ch must be in (0, 1]")
        _check(0.0 < self.eta_dis <= 1.0, "eta_dis must be in (0, 1]")
        _check(0.0 <= self.soc_min < self.soc_max <= 1.0,
               "need 0 <= soc_min < soc_max <= 1")
        _check(self.lifetime_cycles > 0.0, "lifetime_cycles must be > 0")
        _check(self.max_capacity >= 0.0, "max_capacity must be >= 0")


@dataclass(frozen=True)
class TessSpec:
    """Thermal storage tank of fixed capacity (kWh)."""

    capacity: float
    rate_fraction: float
    eta_ch: float
    eta_dis: float

    def __post_init__(self):
        _check(self.capacity >= 0.0, "capacity must be >= 0")
        _check(0.0 < self.rate_fraction <= 1.0, "rate_fraction must be in (0, 1]")
        _check(0.0 < self.eta_ch <= 1.0, "eta_ch must be in (0, 1]")
        _check(0.0 < self.eta_dis <= 1.0, "eta_dis must be in (0, 1]")


@dataclass(frozen=True)
class EvFleetSpec:
    """Bidirectional electric-vehicle fleet.

    capacity                battery size per vehicle, kWh
    charger_power           charge power cap, kW
    discharge_rate_fraction discharge power cap as fraction of capacity
    target_departure_soc    SOC every vehicle should reach by departure
    """

    n_ev: int
    capacity: float
    charger_power: float
    discharge_rate_fraction: float
    eta_ch: float
    eta_dis: float
    soc_min: float
    soc_max: float
    target_departure_soc: float = 0.9

    def __post_init__(self):
        _check(self.n_ev >= 0, "n_ev must be >= 0")
        _check(self.capacity > 0.0 or self.n_ev == 0, "capacity must be > 0")
        _check(self.charger_power >= 0.0, "charger_power must be >= 0")
        _check(0.0 <= self.discharge_rate_fraction <= 1.0,
               "discharge_rate_fraction must be in [0, 1]")
        _check(0.0 < self.eta_ch <= 1.0, "eta_ch must be in (0, 1]")
        _check(0.0 < self.eta_dis <= 1.0, "eta_dis must be in (0, 1]")
        _check(0.0 <= self.soc_min < self.soc_max <= 1.0,
               "need 0 <= soc_min < soc_max <= 1")
        _check(self.soc_min <= self.target_departure_soc <= self.soc_max,
               "target_departure_soc must lie in [soc_min, soc_max]")


@dataclass(frozen=True)
class EquipmentCatalog:
    """Everything installable or dispatchable behind the meter."""

    fuel_cells: tuple
    bess: BessSpec
    tess: TessSpec
    ev_fleet: EvFleetSpec

    def __post_init__(self):
        fcs = tuple(self.fuel_cells)
        _check(all(isinstance(f, FcSpec) for f in fcs), "fuel_cells must contain FcSpec")
        ids = [f.fc_id for f in fcs]
        _check(len(set(ids)) == len(ids), "duplicate fuel-cell ids")
        object.__setattr__(self, "fuel_cells", fcs)

    def fc(self, fc_id: str) -> FcSpec:
        for f in self.fuel_cells:
            if f.fc_id == fc_id:
                return f
        raise KeyError(fc_id)


@dataclass(frozen=True)
class TariffSet:
    """Hourly prices and emission factors plus site-level caps.

    elec_price     yuan/kWh bought from the grid, length T
    grid_emission  kg CO2 per kWh bought, length T
    carbon_tax     yuan per kg CO2
    soc_penalty    yuan per kWh of EV departure-SOC shortfall
    grid_cap       import limit, kW
    pv_cap         installed PV rating, kW
    """

    elec_price: tuple
    grid_emission: tuple
    carbon_tax: float
    soc_penalty: float
    grid_cap: float
    pv_cap: float

    def __post_init__(self):
        ep = _finite_seq("elec_price", self.elec_price, lo=0.0)
        ge = _finite_seq("grid_emission", self.grid_emission, n=len(ep), lo=0.0)
        object.__setattr__(self, "elec_price", ep)
        object.__setattr__(self, "grid_emission", ge)
        _check(math.isfinite(self.carbon_tax) and self.carbon_tax >= 0.0,
               "carbon_tax must be finite and >= 0")
        _check(self.soc_penalty >= 0.0, "soc_penalty must be >= 0")
        _check(self.grid_cap >= 0.0, "grid_cap must be >= 0")
        _check(self.pv_cap >= 0.0, "pv_cap must be >= 0")

    def with_carbon_tax(self, yuan_per_ton):
        """These tariffs at a carbon tax quoted in yuan per ton of CO2.

        The tariffs' own tax, quoted back as carbon_tax * 1000, returns them
        unchanged: dividing it by 1000 can land one ulp off carbon_tax.
        """
        if yuan_per_ton == self.carbon_tax * 1000.0:
            return self
        return replace(self, carbon_tax=float(yuan_per_ton) / 1000.0)


@dataclass(frozen=True)
class EvRecord:
    """One vehicle's visit in one scenario; hours are whole, 0-based.

    The vehicle is parked during hours arrive_hour .. depart_hour-1 and must
    hit its target SOC at the start of hour depart_hour.
    """

    arrive_hour: int
    depart_hour: int
    initial_soc: float

    def __post_init__(self):
        _check(self.arrive_hour >= 0, "arrive_hour must be >= 0")
        _check(self.depart_hour > self.arrive_hour,
               "depart_hour must exceed arrive_hour")
        _check(0.0 <= self.initial_soc <= 1.0, "initial_soc must be in [0, 1]")


@dataclass(frozen=True)
class Scenario:
    """One equally likely representative day."""

    elec_load: tuple
    heat_load: tuple
    pv_avail: tuple
    ev_records: tuple = field(default_factory=tuple)

    def __post_init__(self):
        t = len(self.elec_load)
        object.__setattr__(self, "elec_load", _finite_seq("elec_load", self.elec_load, n=t))
        object.__setattr__(self, "heat_load", _finite_seq("heat_load", self.heat_load, n=t))
        object.__setattr__(self, "pv_avail", _finite_seq("pv_avail", self.pv_avail, n=t))
        object.__setattr__(self, "ev_records", tuple(self.ev_records))
        _check(all(isinstance(r, EvRecord) for r in self.ev_records),
               "ev_records must contain EvRecord")


@dataclass(frozen=True)
class ScenarioSet:
    """The sampled uncertainty: N scenarios on a common grid."""

    grid: TimeGrid
    scenarios: tuple

    def __post_init__(self):
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        _check(len(self.scenarios) == self.grid.n_scenarios,
               f"expected {self.grid.n_scenarios} scenarios, got {len(self.scenarios)}")
        t = self.grid.hours_per_day
        for s, sc in enumerate(self.scenarios):
            _check(isinstance(sc, Scenario), f"scenario {s} is not a Scenario")
            _check(len(sc.elec_load) == t,
                   f"scenario {s}: profile length {len(sc.elec_load)} != T={t}")

    @classmethod
    def from_days(cls, grid, elec, heat, pv, ev):
        """The set of the days given as (N, T) profiles and (N, n_ev, 3)
        visits (arrive, depart, initial_soc) in whole hours.

        A visit EvRecord refuses raises its InvalidParameterError, prefixed
        ``scenario {s}: ``.
        """
        scenarios = []
        for s, visits in enumerate(ev):
            try:
                recs = tuple(EvRecord(int(a), int(d), float(soc))
                             for a, d, soc in visits)
            except InvalidParameterError as exc:
                raise InvalidParameterError(f"scenario {s}: {exc}") from exc
            scenarios.append(Scenario(tuple(elec[s]), tuple(heat[s]),
                                      tuple(pv[s]), recs))
        return cls(grid=grid, scenarios=tuple(scenarios))


@dataclass(frozen=True)
class Violation:
    """One invariant breach found by validate_scenario_set."""

    scenario: int
    field: str
    message: str
    hour: int = None
    ev: int = None

    def __str__(self):
        where = f"scenario {self.scenario}"
        if self.hour is not None:
            where += f", hour {self.hour}"
        if self.ev is not None:
            where += f", ev {self.ev}"
        return f"{where}: {self.field}: {self.message}"


def validate_scenario_set(scen_set: ScenarioSet, catalog: EquipmentCatalog,
                          tariffs: TariffSet) -> list:
    """Collect every invariant violation in a scenario set.

    Returns an empty list when the set is consistent with the catalog and
    tariffs; otherwise one Violation per breach, in deterministic order.
    """
    out = []
    grid = scen_set.grid
    t_day = grid.hours_per_day
    fleet = catalog.ev_fleet
    if len(tariffs.elec_price) != t_day:
        out.append(Violation(-1, "elec_price",
                             f"tariff length {len(tariffs.elec_price)} != T={t_day}"))
    for s, sc in enumerate(scen_set.scenarios):
        for name in ("elec_load", "heat_load", "pv_avail"):
            vals = getattr(sc, name)
            for h, v in enumerate(vals):
                if v < 0.0:
                    out.append(Violation(s, name, f"negative value {v}", hour=h))
        for h, v in enumerate(sc.pv_avail):
            if v > tariffs.pv_cap + 1e-9:
                out.append(Violation(s, "pv_avail",
                                     f"{v} exceeds pv_cap {tariffs.pv_cap}", hour=h))
        if len(sc.ev_records) != fleet.n_ev:
            out.append(Violation(s, "ev_records",
                                 f"{len(sc.ev_records)} records, fleet has {fleet.n_ev}"))
        for j, r in enumerate(sc.ev_records):
            if not (0 <= r.arrive_hour < t_day):
                out.append(Violation(s, "arrive_hour",
                                     f"{r.arrive_hour} outside [0, {t_day})", ev=j))
            if not (r.arrive_hour < r.depart_hour <= t_day):
                out.append(Violation(s, "depart_hour",
                                     f"{r.depart_hour} outside ({r.arrive_hour}, {t_day}]", ev=j))
            if not (fleet.soc_min - 1e-9 <= r.initial_soc <= fleet.soc_max + 1e-9):
                out.append(Violation(s, "initial_soc",
                                     f"{r.initial_soc} outside [{fleet.soc_min}, {fleet.soc_max}]",
                                     ev=j))
    return out
