#!/usr/bin/env python3
"""Diff two lmo.bench/1 records and fail on any gated regression.

    tools/bench_report.py OLD NEW [--threshold X]
    tools/bench_report.py --self-test

An lmo.bench/1 record (written by bench::write_bench_record in
bench/common.cpp; bench_scale and bench_served emit one with --out) is

    {"schema": "lmo.bench/1", "bench": "bench_served",
     "host": {"cores": 4, "build": "release", "compiler": "..."},
     "workload": {"cluster_size": 16, "threads": 4, ...},
     "metrics": [{"name": "service_qps", "value": 846465.08, "unit": "1/s",
                  "better": "higher", "gate": "threshold"},
                 ...]}

NEW fails against OLD when
  * the bench name or the workload objects differ (the runs are not
    comparable);
  * a metric is present in only one record, or its unit, better or gate
    changed;
  * a gated metric's new value is not finite (NaN is written as null);
  * an `exact` metric changed at all;
  * a `threshold` metric moved in its worse direction by more than
    THRESHOLD_BOUND (a relative change of 0.5), or moved from a
    non-finite value. A move in the better direction never fails.
    --threshold X replaces the bound with X.
`none` metrics are recorded, never gated; `host` is information only.

Exit 0 when NEW passes, 1 when it fails or a file is not an lmo.bench/1
record, 2 on a usage error. Absolute acceptance bars are not checked here:
each lives in the binary that measures it (bench_served --min-qps and
--min-scaling, bench_ext_tuner --max-regret, --fidelity-baseline).
"""

import argparse
import json
import math
import sys

SCHEMA = "lmo.bench/1"
# Relative worse-direction move a `threshold` metric may make: benchmark
# timings and throughputs on shared hosts spread this far between runs.
THRESHOLD_BOUND = 0.5


def rel_change(old, new):
    """Relative change in [0, inf]. NaN never propagates: equal values
    (including two NaNs) give 0.0, and a value moving to or from a
    non-finite state counts as an infinite change rather than NaN, which
    would fail every `change > bound` comparison and hide the move."""
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / max(abs(old), abs(new))


def value(metric):
    """A metric's value as a float; null (a non-finite value) is NaN."""
    v = metric.get("value")
    return math.nan if v is None else float(v)


def load(path):
    with open(path) as f:
        doc = json.load(f)
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCHEMA:
        sys.exit(f"error: {path} is not an {SCHEMA} record (schema {schema!r})")
    names = [m["name"] for m in doc["metrics"]]
    if len(set(names)) != len(names):
        sys.exit(f"error: {path} names a metric more than once")
    return doc


def diff(old, new, threshold=THRESHOLD_BOUND):
    """Failures of NEW against OLD as printable strings; empty = pass."""
    failures = []
    if old["bench"] != new["bench"]:
        failures.append(f"bench: {old['bench']} -> {new['bench']}")
    ow, nw = old["workload"], new["workload"]
    for key in sorted(ow.keys() | nw.keys()):
        if key not in ow or key not in nw or ow[key] != nw[key]:
            failures.append(f"workload.{key}: {json.dumps(ow.get(key))} -> "
                            f"{json.dumps(nw.get(key))} (runs are not "
                            f"comparable)")
    olds = {m["name"]: m for m in old["metrics"]}
    news = {m["name"]: m for m in new["metrics"]}
    failures += [f"{n}: dropped" for n in olds if n not in news]
    failures += [f"{n}: added" for n in news if n not in olds]
    for name, w in news.items():
        o = olds.get(name)
        if o is None:
            continue
        changed = [f"{k} {o.get(k)!r} -> {w.get(k)!r}"
                   for k in ("unit", "better", "gate") if o.get(k) != w.get(k)]
        if changed:
            failures.append(f"{name}: {', '.join(changed)}")
            continue
        a, b, gate = value(o), value(w), w["gate"]
        moved = f"{name}: {a:g} -> {b:g} {w['unit']}"
        if gate == "none":
            continue
        if not math.isfinite(b):
            failures.append(f"{moved} (not finite)")
        elif gate == "exact":
            if a != b:
                failures.append(f"{moved} (gate exact)")
        elif gate == "threshold":
            worse = b < a if w["better"] == "higher" else b > a
            change = rel_change(a, b)
            if change > threshold and (worse or not math.isfinite(a)):
                failures.append(f"{moved} ({change:.0%} worse, bound "
                                f"{threshold:.0%})")
        else:
            failures.append(f"{name}: unknown gate {gate!r}")
    return failures


def self_test():
    """Dependency-free checks of the gate logic (ctest runs this)."""
    nan = math.nan
    # rel_change: plain ratios, and no NaN leaking through comparisons.
    assert rel_change(1.0, 1.0) == 0.0 and rel_change(0.0, 0.0) == 0.0
    assert abs(rel_change(100.0, 90.0) - 0.1) < 1e-12
    assert abs(rel_change(90.0, 100.0) - 0.1) < 1e-12
    assert rel_change(nan, nan) == 0.0
    assert rel_change(nan, 1.0) == math.inf == rel_change(1.0, nan)
    assert rel_change(math.inf, 1.0) == math.inf
    assert rel_change(math.inf, math.inf) == 0.0
    assert rel_change(0.0, 1.0) == 1.0

    def metric(name, v, gate="threshold", better="lower", unit="s"):
        return {"name": name, "value": v, "unit": unit, "better": better,
                "gate": gate}

    def record(*metrics, workload=None):
        return {"schema": SCHEMA, "bench": "bench_x",
                "host": {"cores": 4, "build": "release"},
                "workload": workload or {"seed": 1, "models": ["lmo"]},
                "metrics": list(metrics)}

    def fails(old, new, threshold=THRESHOLD_BOUND, needle=""):
        got = diff(old, new, threshold)
        assert len(got) == 1 and needle in got[0], got
        return got

    base = record(metric("N=16.events", 61, "exact", unit="count"),
                  metric("N=16.fit_s", 0.004),
                  metric("qps", 850000.0, better="higher", unit="1/s"),
                  metric("scaling_vs_single", 1.0, "none", "higher", "ratio"))

    def moved(**values):
        return record(*[dict(m, value=values.get(m["name"], m["value"]))
                        for m in base["metrics"]])

    assert diff(base, base) == []
    # Host fields are information only.
    assert diff(base, dict(base, host={"cores": 1})) == []
    # exact: one event more fails, however small.
    fails(base, moved(**{"N=16.events": 62}), needle="gate exact")
    # threshold, worse direction: 40% inside the band passes, 3x fails.
    assert diff(base, moved(**{"N=16.fit_s": 0.0056, "qps": 510000.0})) == []
    fails(base, moved(**{"N=16.fit_s": 0.012}), needle="N=16.fit_s")
    fails(base, moved(qps=280000.0), needle="qps")
    # threshold, better direction: any size passes.
    assert diff(base, moved(**{"N=16.fit_s": 0.0001, "qps": 2.8e8})) == []
    # none: never gated, not even a NaN.
    assert diff(base, moved(scaling_vs_single=nan)) == []
    # NaN (or null) values fail every gate, in either direction.
    fails(base, moved(qps=nan), needle="not finite")
    fails(base, moved(**{"N=16.events": None}), needle="not finite")
    fails(moved(qps=nan), base, needle="qps")
    # Added and dropped metrics fail, e.g. a rank count coming or going.
    extra = record(*base["metrics"], metric("N=256.events", 1021, "exact"))
    fails(base, extra, needle="N=256.events: added")
    fails(extra, base, needle="N=256.events: dropped")
    # Workload mismatches fail: a batch shape or a shorter model list.
    fails(base, record(*base["metrics"],
                       workload={"seed": 2, "models": ["lmo"]}),
          needle="workload.seed: 1 -> 2")
    fails(base, record(*base["metrics"], workload={"seed": 1, "models": []}),
          needle="workload.models")
    fails(base, record(*base["metrics"], workload={"seed": 1}),
          needle="workload.models")
    fails(base, dict(base, bench="bench_y"), needle="bench")
    # A changed unit, better or gate fails.
    for key, v in (("unit", "ms"), ("better", "higher"), ("gate", "none")):
        changed = [dict(m) for m in base["metrics"]]
        changed[1][key] = v
        fails(base, record(*changed), needle=f"N=16.fit_s: {key}")
    # --threshold overrides the bound, tighter or looser.
    fails(base, moved(qps=700000.0), threshold=0.1, needle="bound 10%")
    assert diff(base, moved(**{"N=16.fit_s": 1.0, "qps": 1.0}), 1e9) == []
    # ...but not the exact gate or a NaN.
    fails(base, moved(**{"N=16.events": 62}), threshold=1e9, needle="exact")
    fails(base, moved(qps=nan), threshold=1e9, needle="not finite")
    print("bench_report.py self-test passed")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", nargs="?", metavar="OLD",
                        help="baseline lmo.bench/1 record")
    parser.add_argument("new", nargs="?", metavar="NEW",
                        help="lmo.bench/1 record under test")
    parser.add_argument("--threshold", type=float, default=THRESHOLD_BOUND,
                        help="relative worse-direction bound of every "
                        "threshold metric (default %(default)s)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in checks and exit")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return
    if args.new is None:
        parser.error("OLD and NEW records are required (or --self-test)")
    old, new = load(args.old), load(args.new)
    failures = diff(old, new, args.threshold)
    for failure in failures:
        print(f"{new['bench']}: FAIL {failure}")
    if failures:
        sys.exit(1)
    gates = [m["gate"] for m in new["metrics"]]
    print(f"{new['bench']}: {len(gates)} metrics match {args.old} "
          f"({gates.count('exact')} exact, {gates.count('threshold')} "
          f"threshold, {gates.count('none')} ungated)")


if __name__ == "__main__":
    main()
