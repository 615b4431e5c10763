"""Span tracer for the traced benchmark run.

hubplan is not instrumented. The tracer replaces the module attributes that
hubplan resolves at call time (``cli.assemble_model``, ``bnb.solve_lp``,
``simplex.splu``, the ``_kernels`` functions the simplex calls as ``ker.*``,
...) with wrappers that record one span per call: label, start, end, parent
span and the counts the call returned. Calls are strictly nested (one
thread), so a span's self time is its duration minus the durations of its
direct children. Spans stay in memory until the run ends.

A hook point that a later version of hubplan no longer has is listed in
``Tracer.missing``; the per-layer metrics that depend on it are then
reported as missing instead of failing the run.
"""

import itertools
import sys
from time import perf_counter

# (module, attribute, span label); counts come from COUNTS[label]
HOOKS = [
    ("hubplan.cli", "main", "cli"),
    ("hubplan.cli", "read_case", "fileio.read"),
    ("hubplan.cli", "read_history", "fileio.read"),
    ("hubplan.cli", "read_scenario_set", "fileio.read"),
    ("hubplan.cli", "write_scenario_set", "fileio.write"),
    ("hubplan.cli", "write_audit_json", "fileio.write"),
    ("hubplan.cli", "write_table_csv", "fileio.write"),
    ("hubplan.cli", "write_plan_summary", "fileio.write"),
    ("hubplan.cli", "write_cost_breakdown", "fileio.write"),
    ("hubplan.cli", "generate_scenarios", "scengen"),
    ("hubplan.cli", "assemble_model", "model.assemble"),
    ("hubplan.cli", "branch_and_bound", "bnb"),
    ("hubplan.cli", "check_solution", "verify"),
    ("hubplan.cli", "extract_solution", "analysis"),
    ("hubplan.cli", "cost_breakdown", "analysis"),
    ("hubplan.cli", "chance_audit", "analysis"),
    ("hubplan.cli", "verify_plan", "analysis"),
    ("hubplan.cli", "select_extreme_scenario", "analysis"),
    ("hubplan.cli", "dispatch_table", "analysis"),
    ("hubplan.cli", "soc_table", "analysis"),
    ("hubplan.cli", "sweep_carbon_tax", "analysis"),
    ("hubplan.analysis", "assemble_model", "model.assemble"),
    ("hubplan.analysis", "branch_and_bound", "bnb"),
    ("hubplan.analysis", "check_solution", "verify"),
    ("hubplan.analysis", "extract_solution", "analysis"),
    ("hubplan.analysis", "cost_breakdown", "analysis"),
    ("hubplan.analysis", "chance_audit", "analysis"),
    # the library entry points the chance workload calls by module attribute
    ("hubplan.model", "assemble_model", "model.assemble"),
    ("hubplan.milp.bnb", "branch_and_bound", "bnb"),
    ("hubplan.milp.solution", "extract_solution", "analysis"),
    ("hubplan.milp.bnb", "solve_lp", "simplex.lp"),
    ("hubplan.milp.bnb", "check_solution", "verify"),
    ("hubplan.scengen", "hmm_generate", "scengen.hmm"),
    ("hubplan.scengen", "fit_cubic_transform", "scengen.fit"),
    ("hubplan.scengen", "impose_correlation", "scengen.correlate"),
    ("hubplan.milp.simplex", "splu", "simplex.factor"),
    ("hubplan.milp._kernels", "ftran_etas", "simplex.eta_ftran"),
    ("hubplan.milp._kernels", "btran_etas", "simplex.eta_btran"),
    ("hubplan.milp._kernels", "ratio_test", "simplex.ratio"),
    ("hubplan.milp._kernels", "basic_state", "simplex.state"),
]


def _lp_counts(r):
    return {"pivots": r.iterations, "status": r.status}


def _bnb_counts(r):
    return {"nodes": r.n_nodes, "status": r.status}


def _hmm_counts(r):
    last = r.iteration_log[-1] if r.iteration_log else {}
    return {"iterations": len(r.iteration_log),
            "moment_err": last.get("moment_err", 0.0),
            "corr_err": last.get("corr_err", 0.0)}


def _model_counts(m):
    return {"rows": m.n_rows, "cols": m.n_cols, "nnz": m.a_matrix.nnz}


COUNTS = {
    "simplex.lp": _lp_counts,
    "bnb": _bnb_counts,
    "scengen.hmm": _hmm_counts,
    "model.assemble": _model_counts,
}


class Span:
    __slots__ = ("sid", "parent", "label", "caller", "start", "end",
                 "child", "counts")


class _TimedFactor:
    """Stands in for a SuperLU object so that each ``solve`` is a span."""

    __slots__ = ("_lu", "solve")

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Installs span-recording wrappers on HOOKS and removes them again."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._ids = itertools.count()
        self._stack = []
        self._saved = []

    def traced(self, fn, label, counts=None):
        """Return fn wrapped so each call records a span named label."""
        spans, stack, ids = self.spans, self._stack, self._ids

        def wrapper(*args, **kwargs):
            sp = Span()
            sp.sid = next(ids)
            spans.append(sp)
            sp.parent = stack[-1].sid if stack else None
            sp.label = label
            sp.caller = sys._getframe(1).f_code.co_name
            sp.child = 0.0
            sp.counts = None
            stack.append(sp)
            sp.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                sp.counts = {"error": type(exc).__name__}
                raise
            finally:
                sp.end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child += sp.end - sp.start
            if counts is not None:
                sp.counts = counts(result)
            return result

        return wrapper

    def _factor(self, splu):
        factor = self.traced(splu, "simplex.factor")
        traced = self.traced

        def timed_splu(*args, **kwargs):
            lu = factor(*args, **kwargs)
            return _TimedFactor(lu, traced(lu.solve, "simplex.lu_solve"))

        return timed_splu

    def install(self):
        for mod_name, attr, label in HOOKS:
            module = sys.modules.get(mod_name)
            fn = getattr(module, attr, None) if module is not None else None
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            if label == "simplex.factor":
                wrapped = self._factor(fn)
            else:
                wrapped = self.traced(fn, label, COUNTS.get(label))
            setattr(module, attr, wrapped)

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def take(self):
        """Return the spans recorded since the last take and forget them."""
        out = list(self.spans)
        self.spans.clear()
        return out


def _sum(spans, key=None):
    if key is None:
        return sum(s.end - s.start for s in spans)
    return sum(key(s) for s in spans)


def _self(s):
    return s.end - s.start - s.child


def layer_metrics(spans):
    """Per-layer metrics of one traced repetition, as {name: (value, unit)}.

    Times are inclusive unless named self_s. A root LP is the first LP a
    branch-and-bound call solves, a dive LP one solved from ``_dive``, and a
    node LP any other LP that branch and bound solves.
    """
    by = {}
    for s in spans:
        by.setdefault(s.label, []).append(s)
    get = lambda label: by.get(label, [])  # noqa: E731

    lps = get("simplex.lp")
    bnb_ids = {s.sid for s in get("bnb")}
    root, dive, node = [], [], []
    seen = set()
    for s in sorted(lps, key=lambda s: s.start):
        if s.caller == "_dive":
            dive.append(s)
        elif s.parent in bnb_ids and s.parent not in seen:
            seen.add(s.parent)
            root.append(s)
        elif s.parent in bnb_ids:
            node.append(s)
    pivots = lambda ss: sum(s.counts["pivots"] for s in ss if s.counts  # noqa: E731
                            and "pivots" in s.counts)
    lp_s = _sum(lps)
    n_piv = pivots(lps)
    fits = get("scengen.fit")
    fit_fail = sum(1 for s in fits if s.counts and "error" in s.counts)
    hmm = [s.counts for s in get("scengen.hmm") if s.counts
           and "iterations" in s.counts]
    models = [s.counts for s in get("model.assemble") if s.counts
              and "rows" in s.counts]
    node_infeasible = sum(1 for s in node if s.counts
                          and s.counts.get("status") == "infeasible")
    s_unit, n_unit = "s", "count"
    return {
        "scengen.s": (_sum(get("scengen")), s_unit),
        "scengen.iterations": (sum(h["iterations"] for h in hmm), n_unit),
        "scengen.fit_calls": (len(fits), n_unit),
        "scengen.fit_fails": (fit_fail, n_unit),
        "scengen.fit_fail_share": (fit_fail / len(fits) if fits else 0.0,
                                   "share"),
        "scengen.fit_s": (_sum(fits), s_unit),
        "scengen.correlate_s": (_sum(get("scengen.correlate")), s_unit),
        "scengen.moment_err": (max((h["moment_err"] for h in hmm),
                                   default=0.0), "abs"),
        "scengen.corr_err": (max((h["corr_err"] for h in hmm),
                                 default=0.0), "abs"),
        "simplex.calls": (len(lps), n_unit),
        "simplex.pivots": (n_piv, n_unit),
        "simplex.s": (lp_s, s_unit),
        "simplex.us_per_pivot": (1e6 * lp_s / n_piv if n_piv else 0.0, "us"),
        "simplex.root_pivots": (pivots(root), n_unit),
        "simplex.root_s": (_sum(root), s_unit),
        "simplex.factor_calls": (len(get("simplex.factor")), n_unit),
        "simplex.factor_s": (_sum(get("simplex.factor")), s_unit),
        "simplex.lu_solve_s": (_sum(get("simplex.lu_solve")), s_unit),
        "simplex.eta_ftran_s": (_sum(get("simplex.eta_ftran")), s_unit),
        "simplex.eta_btran_s": (_sum(get("simplex.eta_btran")), s_unit),
        "simplex.ratio_s": (_sum(get("simplex.ratio")), s_unit),
        "simplex.state_s": (_sum(get("simplex.state")), s_unit),
        "simplex.self_s": (_sum(lps, _self), s_unit),
        "bnb.s": (_sum(get("bnb")), s_unit),
        "bnb.nodes": (sum(s.counts["nodes"] for s in get("bnb")
                          if s.counts and "nodes" in s.counts), n_unit),
        "bnb.node_lps": (len(node), n_unit),
        "bnb.node_pivots_per_lp": (pivots(node) / len(node) if node else 0.0,
                                   "pivots/lp"),
        "bnb.node_infeasible_share": (node_infeasible / len(node) if node
                                      else 0.0, "share"),
        "bnb.dive_lps": (len(dive), n_unit),
        "bnb.dive_pivots": (pivots(dive), n_unit),
        "bnb.dive_s": (_sum(dive), s_unit),
        "model.assemble_s": (_sum(get("model.assemble")), s_unit),
        "model.assemblies": (len(get("model.assemble")), n_unit),
        "model.rows": (max((m["rows"] for m in models), default=0), n_unit),
        "model.cols": (max((m["cols"] for m in models), default=0), n_unit),
        "model.nnz": (max((m["nnz"] for m in models), default=0), n_unit),
        "verify.calls": (len(get("verify")), n_unit),
        "verify.s": (_sum(get("verify")), s_unit),
        "fileio.read_s": (_sum(get("fileio.read")), s_unit),
        "fileio.write_s": (_sum(get("fileio.write")), s_unit),
        "analysis.s": (_sum(get("analysis"), _self), s_unit),
        "cli.self_s": (_sum(get("cli"), _self), s_unit),
    }


# metric name -> hook labels it needs; a metric whose label has no installed
# hook is reported as missing
NEEDS = {
    "scengen.": ("scengen.fit", "scengen.hmm", "scengen.correlate",
                 "scengen"),
    "simplex.factor": ("simplex.factor",),
    "simplex.lu_solve": ("simplex.factor",),
    "simplex.eta_ftran": ("simplex.eta_ftran",),
    "simplex.eta_btran": ("simplex.eta_btran",),
    "simplex.ratio": ("simplex.ratio",),
    "simplex.state": ("simplex.state",),
    "simplex.self_s": ("simplex.factor", "simplex.eta_ftran",
                       "simplex.eta_btran", "simplex.ratio", "simplex.state"),
    "simplex.": ("simplex.lp",),
    "bnb.": ("bnb", "simplex.lp"),
    "model.": ("model.assemble",),
    "verify.": ("verify",),
    "fileio.": ("fileio.read", "fileio.write"),
    "analysis.": ("analysis",),
    "cli.": ("cli",),
}


def missing_metrics(names, missing_hooks):
    """Metric names that depend on a hook the program no longer has."""
    gone = {label for mod_name, attr, label in HOOKS
            if f"{mod_name}.{attr}" in missing_hooks}
    out = []
    for name in names:
        for prefix, labels in NEEDS.items():
            if name.startswith(prefix):
                if gone.intersection(labels):
                    out.append(name)
                break
    return out
