"""One measured run of one workload, in a process of its own.

run.py starts this file; it is not meant to be called by hand. It imports
hubplan from the ``src`` directory next to ``perfbench``, loads the
workload's inputs, runs as many repetitions of the workload as fit in
``--seconds`` at the reference speed (see run_reps; in a traced run one
untraced repetition first), records peak memory, checks every output and
writes a result JSON.

    worker.py --workload NAME --seed N --seconds S --trace 0|1 --result PATH
    worker.py --workload NAME --probe
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hubplan.milp._kernels as kernels  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

WORK = os.path.join(HERE, ".work")
# reference calibration slice: about the median slice on the machine the
# baseline was recorded on
CAL_REF_S = 0.4
# per-operation counts kept from traced repetitions
OP_COUNTS = ("simplex.calls", "simplex.pivots", "bnb.nodes",
             "scengen.fit_calls", "scengen.fit_fails")


def environment(seed):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "use_numba": bool(kernels.USE_NUMBA),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


class Calibration:
    """A fixed mix of the kinds of work hubplan does, in three parts of
    about equal time: an interpreter loop, small numpy vector operations
    like the simplex's eta updates, and SuperLU factorizations with solves.
    One slice takes about 0.4 s on the 2-core machine the benchmark was
    written on.

    That machine runs the same work up to 40 % faster or slower from one
    minute to the next, and the three parts slow down together with
    hubplan's own work. The worker times a slice between every two timed
    segments of a repetition, so that each segment can be divided by the
    speed the machine had while it ran.
    """

    def __init__(self):
        from scipy import sparse
        from scipy.sparse.linalg import splu
        rng = np.random.default_rng(0)
        self._splu = splu
        # small enough that its factors do not raise the peak memory
        self._a = (sparse.random(600, 600, density=0.004, random_state=rng)
                   + 4.0 * sparse.identity(600)).tocsc()
        self._b = rng.standard_normal(600)
        self._etas = rng.standard_normal((50, 3951))
        self._v = rng.standard_normal(3951)
        self.slices = []

    def slice(self):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(1000000):
            acc += (i % 7) * 0.5
        v = self._v.copy()
        for _ in range(350):
            for w in self._etas:
                v -= w * (1e-6 * float(w @ v))
        for _ in range(28):
            lu = self._splu(self._a)
            for _ in range(10):
                lu.solve(self._b)
        self.slices.append(time.perf_counter() - t0)


class Meter:
    """Cuts the repetitions into timed segments, with a calibration slice
    before the first and after each one.

    Segments end after every operation and after the first call in
    workloads.SEGMENT_ENDS (an LP, a generator iteration) that returns
    ``min_segment_s`` or more after the segment began; so a slice costs at
    most about a sixth of the time it calibrates. Segment i lies between
    slices i and i + 1. Its normalized time is its wall time times
    CAL_REF_S over the mean of those two slices: the time the segment would
    have taken at the machine speed of the reference.
    """

    min_segment_s = 2.5

    def __init__(self):
        self.cal = Calibration()
        self.segments = []
        self._t0 = None

    def start(self):
        self.cal.slice()
        self._t0 = time.perf_counter()

    def mark(self, min_s=0.0):
        """End the current segment, time a slice and start the next, unless
        the segment has lasted less than ``min_s``."""
        now = time.perf_counter()
        if now - self._t0 < min_s:
            return
        self.segments.append(now - self._t0)
        self.cal.slice()
        self._t0 = time.perf_counter()

    def normalized(self, first, last):
        """Raw and normalized time of segments first..last-1."""
        cal = self.cal.slices
        raw = sum(self.segments[first:last])
        norm = sum(self.segments[i] * CAL_REF_S * 2.0 / (cal[i] + cal[i + 1])
                   for i in range(first, last))
        return raw, norm


def _slug(label):
    return label.replace("=", "").replace(",", "_")


def run_reps(workload, seed, seconds, trace):
    """As many repetitions as fit in ``seconds`` at the reference speed
    (``workload.rep_s`` each, at least one), so that two commits measure
    the same work; a traced run makes one untraced repetition first, then
    that many traced ones. Only the operations themselves are timed, cut
    into segments (see Meter) with a calibration slice between two; in
    traced repetitions segments end only between operations, so that no
    slice falls inside a span."""
    tracer = tr.Tracer() if trace else None
    meter = Meter()
    labels = wl.order(workload.ops(), seed)
    workload.capture.meter = meter
    count = max(1, int(seconds // workload.rep_s))
    reps = []
    meter.start()
    for _ in range(count + 1 if trace else count):
        traced = trace and len(reps) >= 1
        if traced and len(reps) == 1:
            workload.capture.meter = None
            tracer.install()
        first = len(meter.segments)
        rep_dir = os.path.join(workload.work, f"rep{len(reps)}")
        ops, spans = [], []
        for label in labels:
            done = workload.run(label, os.path.join(rep_dir, _slug(label)))
            meter.mark()
            if traced:
                # counts of this operation alone, for the fidelity record
                op_spans = tracer.take()
                layers = tr.layer_metrics(op_spans)
                done[0].counts = {k: layers[k][0] for k in OP_COUNTS}
                spans += op_spans
            ops += done
        rep = {"traced": traced, "ops": ops}
        rep["run_s"], rep["run_norm_s"] = meter.normalized(
            first, len(meter.segments))
        if traced:
            rep["layers"] = tr.layer_metrics(spans)
            if not any(r.get("layers") for r in reps):
                rep["spans"] = spans
        if reps:
            for op in ops:
                op.solves = []          # only the first repetition is re-solved
        reps.append(rep)
    if tracer is not None:
        tracer.uninstall()
    return reps, (tracer.missing if tracer else []), meter


def check(workload, reps):
    """Re-check the first repetition independently and require every later
    repetition (traced or not) to reproduce its objectives and digests."""
    first = reps[0]["ops"]
    for op in first:
        if op.ok:
            problems = workload.check(op)
            if problems:
                op.ok, op.error = False, "; ".join(problems)
    for rep in reps[1:]:
        for op, ref in zip(rep["ops"], first):
            if op.ok and (op.digests != ref.digests
                          or op.objective != ref.objective):
                op.ok = False
                op.error = "outputs differ from the first repetition"


def fidelity(workload, reps):
    """Counts of the first traced repetition that differ from the counts
    recorded at the first commit: {op: {count: [recorded, now]}}."""
    rep = next(r for r in reps if r["traced"])
    out = {}
    for op in rep["ops"]:
        for name, want in workload.fidelity.get(op.label, {}).items():
            got = op.counts.get(name)
            if got != want:
                out.setdefault(op.label, {})[name] = [want, got]
    return out


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["id", "parent", "name", "caller", "start", "end",
                      "self", "counts"])
        for s in spans:
            out.writerow([s.sid, s.parent, s.label, s.caller, repr(s.start),
                          repr(s.end), repr(s.end - s.start - s.child),
                          "" if s.counts is None else json.dumps(s.counts)])


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result")
    ap.add_argument("--probe", action="store_true",
                    help="only time set-up and print it")
    args = ap.parse_args(argv)

    work = os.path.join(WORK, args.workload)
    workload = wl.WORKLOADS[args.workload](work, args.seed)
    if args.probe:
        workload.load()
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0

    import_s = time.perf_counter() - T0
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload.prepare()
    t0 = time.perf_counter()
    workload.load()
    setup_s = import_s + time.perf_counter() - t0

    capture = wl.Capture()
    capture.install()
    workload.capture = capture
    reps, missing, meter = run_reps(workload, args.seed, args.seconds,
                                    args.trace)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check(workload, reps)
    ops = [op for rep in reps for op in rep["ops"]]
    untraced = [r for r in reps if not r["traced"]]
    gen = [op for op in reps[0]["ops"] if op.moment_err is not None]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(args.seed),
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib,
        "run_s": statistics.median(r["run_s"] for r in untraced),
        "run_norm_s": statistics.median(r["run_norm_s"] for r in untraced),
        "segments": meter.segments,
        "cal_slices": meter.cal.slices,
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "moment_err": max((op.moment_err for op in gen), default=None),
        "corr_err": max((op.corr_err for op in gen), default=None),
        "reps": [{"run_s": r["run_s"], "run_norm_s": r["run_norm_s"],
                  "traced": r["traced"],
                  "ops": [op.record() for op in r["ops"]]} for r in reps],
    }
    if args.trace:
        traced = [r for r in reps if r["traced"]]
        layers = {}
        for name, (_v, unit) in traced[0]["layers"].items():
            layers[name] = (statistics.median(
                r["layers"][name][0] for r in traced), unit)
        layers["trace.overhead_s"] = (statistics.median(
            r["run_norm_s"] for r in traced) - result["run_norm_s"], "s")
        gone = set(tr.missing_metrics(layers, missing))
        result["layers"] = {k: {"value": v, "unit": u}
                            for k, (v, u) in layers.items() if k not in gone}
        result["missing"] = sorted(gone)
        result["missing_hooks"] = missing
        result["fidelity_diff"] = fidelity(workload, reps)
        spans_path = os.path.join(work, "spans.csv")
        write_spans(spans_path, next(r["spans"] for r in traced
                                     if "spans" in r))
        result["spans"] = os.path.relpath(spans_path, ROOT)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
