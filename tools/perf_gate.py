#!/usr/bin/env python3
"""CI perf-regression gate: compare BENCH_*.json against checked-in baselines.

The benches are deterministic simulations, so almost every metric they emit
(event counts, simulated bytes, throughput, loss, queue peaks) must match
the baseline bit-for-bit -- any drift means the simulation changed, which
either is a bug or requires a deliberate baseline update (see
EXPERIMENTS.md, "Updating perf baselines"). Wall-clock metrics are the
exception: absolute walls (.*wall.*, .*per_sec.*, ns_per_op) vary with the
host and are skipped entirely, while within-run wall *ratios* -- the
speedup/overhead guards the hot-path work is gated on -- are compared
against the baseline with a tolerance band, because a ratio of two walls
from the same process is stable enough to gate on even on a noisy runner.
Rows that carry a "name" (micro_benchmarks) are matched by name; unnamed
rows (sweep points) are matched by position.

Usage:
  tools/perf_gate.py --baselines bench/baselines --results build [--band 0.4]

Exit status 0 = gate green; 1 = regression (delta table on stdout).
"""

import argparse
import json
import os
import re
import sys

# Absolute wall-derived metrics: host-dependent, never gated.
SKIP_PAT = re.compile(r"(wall|per_sec|ns_per_op|_ms$)")
# Wall-ratio guards: gated with a band. "lower" = regression when the value
# drops below baseline*(1-band) (speedups must not shrink); "upper" =
# regression when it rises above baseline*(1+band) (overheads must not grow).
RATIO_RULES = {
    "speedup_wall": "lower",
    "queue_speedup_wall": "lower",
    "hotpath_speedup_wall": "lower",
    "tracing_overhead_wall": "upper",
}
# Relative tolerance for deterministic metrics: %.17g round-trips exactly,
# so this only forgives last-ulp parser differences.
EXACT_RTOL = 1e-9


def classify(name):
    if name in RATIO_RULES:
        return RATIO_RULES[name]
    if SKIP_PAT.search(name):
        return "skip"
    return "exact"


def close(a, b):
    if a == b:
        return True
    return abs(a - b) <= EXACT_RTOL * max(abs(a), abs(b), 1e-12)


def compare_cells(bench, where, base_cells, got_cells, failures):
    """base_cells/got_cells: dict name -> value (float or None)."""
    for name, base in base_cells.items():
        kind = classify(name)
        if kind == "skip":
            continue
        if name not in got_cells:
            failures.append((bench, where, name, base, None, "metric missing"))
            continue
        got = got_cells[name]
        if base is None or got is None:
            if base is not got:
                failures.append((bench, where, name, base, got, "null mismatch"))
            continue
        if kind == "exact":
            if not close(base, got):
                delta = (got - base) / base * 100.0 if base else float("inf")
                failures.append(
                    (bench, where, name, base, got, f"{delta:+.4g}%"))
        elif kind == "lower":
            if got < base * (1.0 - compare_cells.band):
                failures.append(
                    (bench, where, name, base, got,
                     f"below {base * (1.0 - compare_cells.band):.3g}"))
        elif kind == "upper":
            if got > base * (1.0 + compare_cells.band):
                failures.append(
                    (bench, where, name, base, got,
                     f"above {base * (1.0 + compare_cells.band):.3g}"))
    for name in got_cells:
        if name not in base_cells and classify(name) != "skip":
            failures.append(
                (bench, where, name, None, got_cells[name],
                 "missing baseline key — run tools/rebaseline"))


def row_cells(row):
    # JsonBench rows are flat {metric: number-or-null} objects, plus an
    # optional "name" string that identifies the row.
    return {k: v for k, v in row.items() if k != "name"}


def pair_rows(bench, base_rows, got_rows, failures):
    """Pairs baseline and result rows: by "name" when every row has one
    (a renamed, added or dropped case is reported as such), else by
    position."""
    rows = base_rows + got_rows
    if rows and all("name" in r for r in rows):
        got_by_name = {r["name"]: r for r in got_rows}
        base_names = {r["name"] for r in base_rows}
        pairs = []
        for br in base_rows:
            gr = got_by_name.get(br["name"])
            if gr is None:
                failures.append((bench, br["name"], "-", None, None,
                                 "row missing"))
            else:
                pairs.append((br["name"], br, gr))
        for name in got_by_name:
            if name not in base_names:
                failures.append((bench, name, "-", None, None,
                                 "missing baseline row — run tools/rebaseline"))
        return pairs
    if len(base_rows) != len(got_rows):
        failures.append((bench, "rows", "count", len(base_rows),
                         len(got_rows), "row count changed"))
        return []
    return [(f"row {i}", br, gr)
            for i, (br, gr) in enumerate(zip(base_rows, got_rows))]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baselines", default="bench/baselines")
    ap.add_argument("--results", default=".")
    ap.add_argument("--band", type=float, default=0.4,
                    help="tolerance band for wall-ratio guards (default 0.4)")
    args = ap.parse_args()
    compare_cells.band = args.band

    def bench_jsons(directory):
        try:
            entries = os.listdir(directory)
        except FileNotFoundError:
            return None
        return sorted(f for f in entries
                      if f.startswith("BENCH_") and f.endswith(".json"))

    names = bench_jsons(args.baselines)
    if names is None:
        print(f"perf_gate: baseline directory {args.baselines} does not "
              f"exist — run tools/rebaseline to create it", file=sys.stderr)
        return 1
    if not names:
        print(f"perf_gate: no baselines in {args.baselines} — run "
              f"tools/rebaseline", file=sys.stderr)
        return 1

    failures = []
    checked = 0
    # A result with no baseline is a new bench that was never baselined:
    # fail loudly instead of silently skipping it (the gate would otherwise
    # go green on a bench it never looked at).
    for fname in bench_jsons(args.results) or []:
        if fname not in names:
            failures.append((fname[len("BENCH_"):-len(".json")], "-", "-",
                             None, None,
                             "missing baseline — run tools/rebaseline"))
    for fname in names:
        bench = fname[len("BENCH_"):-len(".json")]
        with open(os.path.join(args.baselines, fname)) as f:
            base = json.load(f)
        got_path = os.path.join(args.results, fname)
        if not os.path.exists(got_path):
            failures.append((bench, "-", "-", None, None, "result file missing"))
            continue
        with open(got_path) as f:
            got = json.load(f)

        for where, br, gr in pair_rows(bench, base.get("rows", []),
                                       got.get("rows", []), failures):
            compare_cells(bench, where, row_cells(br), row_cells(gr),
                          failures)
            checked += 1
        compare_cells(bench, "counters",
                      dict(base.get("counters", {})),
                      dict(got.get("counters", {})), failures)

    if failures:
        print(f"perf_gate: FAIL ({len(failures)} deltas, band ±{args.band})")
        widths = ("bench", "where", "metric", "baseline", "actual", "delta")
        table = [widths] + [
            (b, w, m,
             "-" if bv is None else f"{bv:.10g}",
             "-" if gv is None else f"{gv:.10g}", d)
            for b, w, m, bv, gv, d in failures
        ]
        cols = [max(len(str(r[c])) for r in table) for c in range(6)]
        for r in table:
            print("  " + "  ".join(str(r[c]).ljust(cols[c]) for c in range(6)))
        print("perf_gate: a deterministic-metric delta means the simulation "
              "changed; if intentional, run tools/rebaseline to regenerate "
              "bench/baselines (see EXPERIMENTS.md).")
        return 1
    print(f"perf_gate: OK ({len(names)} benches, {checked} rows, "
          f"band ±{args.band} on wall ratios)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
