"""Drift-corrected benchmark of the analyze and moduli paths of involutive.

Usage (from the repository root):

    python3 benchmark/run.py --workload analyze-involutive --seed 1 \
        --seconds 20 --trace 0

Runs whole rounds of the workload's fixed operation list in one process,
one operation at a time, until ``--seconds`` have passed, and checks
every output.  Each operation's time is divided by the time of a fixed
stdlib ``Fraction`` kernel measured nearest to it (the ``ref`` unit), so
machine drift cancels.  ``--trace 1`` alternates untraced and traced
rounds and reports per-layer figures instead of end-to-end ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Details go to
``benchmark/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

REF_EVERY_S = 0.1      # longest gap between two reference samples
REF_REPEATS = 3        # kernel runs per reference sample (median taken)
SETUP_IMPORTS = 6      # fresh interpreters timed for setup_s, before
                       # and again after the rounds
REF_NOMINAL_S = 0.002  # reference-kernel time that setup_s is scaled to
TAIL_BEYOND = 10       # operations beyond the tail percentile

SETUP_CODE = ("import time; t = time.perf_counter(); "
              "import involutive, involutive.cli; "
              "print(repr(time.perf_counter() - t))")


# ---------------------------------------------------------------------------
# reference kernel


def _reference_matrix() -> list:
    x, rows = 12345, []
    for _ in range(7):
        row = []
        for _ in range(8):
            x = (1103515245 * x + 12345) % 2 ** 31
            row.append(x % 19 - 9)
        rows.append(row)
    return rows


REF_MATRIX = _reference_matrix()


def reference_kernel() -> int:
    """Gauss-Jordan elimination of a fixed 7 x 8 matrix over Fraction;
    returns the rank."""
    a = [[Fraction(e) for e in row] for row in REF_MATRIX]
    rank = 0
    for c in range(8):
        p = next((i for i in range(rank, 7) if a[i][c]), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        inv = 1 / a[rank][c]
        a[rank] = [e * inv for e in a[rank]]
        for i in range(7):
            f = a[i][c]
            if i != rank and f:
                a[i] = [e - f * q for e, q in zip(a[i], a[rank])]
        rank += 1
    return rank


class Reference:
    """Reference samples (midpoint, seconds), each the median of
    ``REF_REPEATS`` kernel runs."""

    def __init__(self):
        self.mids: list = []
        self.secs: list = []

    def sample(self):
        times = []
        start = perf_counter()
        for _ in range(REF_REPEATS):
            t0 = perf_counter()
            reference_kernel()
            times.append(perf_counter() - t0)
        self.mids.append((start + perf_counter()) / 2)
        self.secs.append(statistics.median(times))

    def due(self) -> bool:
        return perf_counter() - self.mids[-1] >= REF_EVERY_S

    def around(self, t0: float, t1: float) -> float:
        """Mean of the last sample before ``t0`` and the first after ``t1``."""
        before = bisect_left(self.mids, t0) - 1
        after = bisect_left(self.mids, t1)
        return (self.secs[before] + self.secs[after]) / 2


# ---------------------------------------------------------------------------
# measurement


def setup_seconds(ref) -> list:
    """Import times of the program in fresh interpreters, each with the
    mean of the reference samples taken just before and after it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(SETUP_IMPORTS):
        ref.sample()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        ref.sample()
        out.append((float(proc.stdout.strip().splitlines()[-1]),
                    (ref.secs[-2] + ref.secs[-1]) / 2))
    return out


def judge(op, out, exc) -> tuple:
    """(failed, wrong): ``wrong`` explains an unexpected failure."""
    if exc is None:
        try:
            op.check(out)
            return False, None
        except workloads.CheckFailed as err:
            return True, None if op.fault == err.msg else str(err)
    if op.fault == type(exc).__name__:
        return True, None
    return True, f"{op.label}: raised {type(exc).__name__}: {exc}"


def run_rounds(ops, seconds, ref, tracer) -> list:
    """Whole rounds until ``seconds`` pass.  With a tracer, rounds
    alternate untraced / traced and at least one of each runs."""
    records = []
    deadline = perf_counter() + seconds
    ref.sample()
    rnd = 0
    while True:
        traced = tracer is not None and rnd % 2 == 1
        if traced:
            tracer.install()
        try:
            for k, op in enumerate(ops):
                if ref.due():
                    ref.sample()
                out = exc = layers = None
                t0 = perf_counter()
                try:
                    out = tracer.run(op.call) if traced else op.call()
                except Exception as err:  # judged below, like a wrong output
                    exc = err
                t1 = perf_counter()
                if traced:
                    layers = tracer.take()
                failed, wrong = judge(op, out, exc)
                records.append({"round": rnd, "op": k, "t0": t0, "t1": t1,
                                "traced": traced, "failed": failed,
                                "wrong": wrong, "layers": layers})
        finally:
            if traced:
                tracer.uninstall()
        rnd += 1
        if perf_counter() >= deadline and (tracer is None or rnd >= 2):
            break
    ref.sample()
    for rec in records:
        rec["ref_s"] = ref.around(rec["t0"], rec["t1"])
        rec["ms"] = (rec["t1"] - rec["t0"]) * 1000
        rec["ref"] = (rec["t1"] - rec["t0"]) / rec["ref_s"]
    return records


def end_to_end(ops, records) -> tuple:
    per_op = [[r for r in records if r["op"] == k] for k in range(len(ops))]
    ref_op = sorted(statistics.median(r["ref"] for r in rs) for rs in per_op)
    ms_op = sorted(statistics.median(r["ms"] for r in rs) for rs in per_op)
    tail = len(ops) - TAIL_BEYOND - 1
    done = sum(not r["failed"] for r in records)
    total_ref = sum(r["ref"] for r in records)
    total_s = sum(r["t1"] - r["t0"] for r in records)
    metrics = {
        "op_median_ref": (statistics.median(ref_op), "ref"),
        "op_tail_ref": (ref_op[tail], "ref"),
        "ops_per_kref": (1000 * done / total_ref, "1/kref"),
    }
    raw = {
        "op_median_ref": f"{statistics.median(ms_op):.3f} ms",
        "op_tail_ref": f"{ms_op[tail]:.3f} ms "
                       f"(p{100 * (tail + 1) / len(ops):.1f} of "
                       f"{len(ops)} operations)",
        "ops_per_kref": f"{done / total_s:.3f} ops/s",
    }
    return metrics, raw


def per_layer(records, counters) -> dict:
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    n = len(traced)
    self_ref: dict = {}
    calls: dict = {}
    elims = 0
    for rec in traced:
        self_s, ncalls, n_elims, _ = rec["layers"]
        for name, sec in self_s.items():
            self_ref[name] = self_ref.get(name, 0.0) + sec / rec["ref_s"]
        for name, c in ncalls.items():
            calls[name] = calls.get(name, 0) + c
        elims += n_elims
    rounds = len({r["round"] for r in traced})
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def t(name):
        return self_ref.get(name, 0.0) / n

    def ratio(num, den):
        return num / den if den else 0.0

    for layer in tracing.LAYERS:
        put(f"{layer}.self_ref", sum(v for k, v in self_ref.items()
                                     if k.startswith(layer + ".")) / n,
            "ref")
    put("tableau.find_generic_basis.self_ref",
        t("tableau.find_generic_basis"), "ref")
    put("tableau.find_generic_basis.elims", elims / n, "count")
    put("linalg.rref.calls", calls.get("linalg.rref", 0) / n, "count")
    put("linalg.rref.self_ref", t("linalg.rref"), "ref")
    put("linalg.rref.entries", counters["linalg.rref.entries"] / n,
        "count")
    put("linalg.max_entry_bits", counters["linalg.max_entry_bits"], "bits")
    put("linalg.matmul.calls", calls.get("linalg.matmul", 0) / n, "count")
    put("linalg.matmul.self_ref", t("linalg.matmul"), "ref")
    put("involutivity.prolongation_dimension.self_ref",
        t("involutivity.prolongation_dimension")
        + t("involutivity.prolongation_matrix"), "ref")
    for name in ("involutivity.search_endovolutive_basis",
                 "involutivity.quadratic_criterion",
                 "involutivity.reduced_conditions",
                 "involutivity.build_b_array",
                 "moduli.export_ideal", "guillemin.w1_of_phi",
                 "guillemin.check_gnf_commutativity",
                 "document.document_from_dict", "cli.report_to_dict"):
        put(f"{name}.self_ref", t(name), "ref")
    put("involutivity.search_endovolutive_basis.found_ratio",
        ratio(counters["involutivity.search_endovolutive_basis.found"],
              calls.get("involutivity.search_endovolutive_basis", 0)),
        "ratio")
    put("involutivity.prolongation_dimension.entries",
        counters["involutivity.prolongation_dimension.entries"] / n,
        "count")
    put("moduli.export_ideal.generators",
        counters["moduli.export_ideal.generators"] / n, "count")
    put("moduli.enumerate_census.assignments",
        counters["moduli.enumerate_census.assignments"] / n, "count")
    put("moduli.sample_involutive.kept_ratio",
        ratio(counters["moduli.sample_involutive.kept"],
              counters["moduli.sample_involutive.drawn"]), "ratio")
    put("trace.overhead_ratio",
        ratio(sum(r["ref"] for r in traced) / rounds,
              sum(r["ref"] for r in plain)
              / len({r["round"] for r in plain})), "ratio")
    return out


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "involutive" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import involutive
    import involutive.cli  # noqa: F401  (imports every module of the package)

    ops = workloads.build(args.workload, involutive, args.seed)
    ref = Reference()
    setup = [] if args.trace else setup_seconds(ref)
    tracer = tracing.Tracer() if args.trace else None
    records = run_rounds(ops, args.seconds, ref, tracer)
    if not args.trace:
        setup += setup_seconds(ref)
    wrong = [r["wrong"] for r in records if r["wrong"]]
    for msg in dict.fromkeys(wrong):
        print(f"WRONG: {msg}", file=sys.stderr)

    rounds = len({r["round"] for r in records})
    ref_ms = statistics.median(ref.secs) * 1000
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} "
          f"operations x {rounds} rounds; reference kernel "
          f"{ref_ms:.4f} ms (median of {len(ref.secs)} samples)")
    if args.trace:
        metrics = per_layer(records, tracer.counters)
        raw = {}
    else:
        metrics, raw = end_to_end(ops, records)
        metrics["setup_s"] = (statistics.median(
            s / ref_s for s, ref_s in setup) * REF_NOMINAL_S, "s")
        raw["setup_s"] = (f"{statistics.median(s for s, _ in setup):.6f} s "
                          f"raw, median of {len(setup)} fresh imports")
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = (rss, "MB")
    for name, (value, unit) in metrics.items():
        note = f"  ({raw[name]})" if name in raw else ""
        print(f"  {name:<52} {value:14.6f} {unit}{note}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds,
        "attempted_all_rounds": len(records),
        "failed_all_rounds": sum(r["failed"] for r in records),
        "reference_ms": [s * 1000 for s in ref.secs],
        "setup_s": setup,
        "operations": [
            {"label": op.label, "fault": op.fault,
             "ms": [r["ms"] for r in records if r["op"] == k],
             "ref": [r["ref"] for r in records if r["op"] == k]}
            for k, op in enumerate(ops)],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    if args.trace:
        last = max(r["round"] for r in records if r["traced"])
        base = min(r["t0"] for r in records if r["round"] == last)
        spans = detail["spans"] = []  # [name, start, end, parent index]
        for r in records:
            if r["round"] == last:
                offset = len(spans)
                spans += [[name, start - base, end - base,
                           parent + offset if parent >= 0 else -1]
                          for name, start, end, parent, _ in r["layers"][3]]
    suffix = "-trace" if args.trace else ""
    with open(out_dir / f"{args.workload}-seed{args.seed}{suffix}.json",
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh)

    # attempted and failed count one round, so that neither depends on
    # how many rounds fit in --seconds; an operation that failed in any
    # round counts as failed.
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(ops),
        "failed": len({r["op"] for r in records if r["failed"]}),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
