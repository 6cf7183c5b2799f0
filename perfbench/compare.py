"""Compare two sets of benchmark runs: parent against change.

Make the runs (seeds 1..PAIRS for each workload, alternating which side goes
first, identical benchmark code for both trees, the run length from
BENCHMARK.json, one traced run per side and workload at the end):

    python3 perfbench/compare.py collect --parent PARENT_TREE --change CHANGE_TREE \
        --out perfbench/.compare [--pairs 10] [--workloads ...]

Report them:

    python3 perfbench/compare.py report perfbench/.compare/parent perfbench/.compare/change

For every workload and end-to-end metric the report gives each side's
median and quartiles, the share of same-seed pairs the change wins, and a
verdict against the bounds in BENCHMARK.json. Beside it are the traced
per-layer time deltas, so a gain can be traced to the layer that made it.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_records(directory) -> list:
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*", "*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        if isinstance(rec, dict) and "workload" in rec:
            records.append(rec)
    return records


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, pairs, bound, better) -> tuple[str, float]:
    """Verdict of change against parent for one metric, and the change's win share.

    regressed: the change's median is worse than the parent's by more than
    the bound. improved: the change wins at least 9 in 10 same-seed pairs
    and the medians differ by more than the parent's quartile spread.
    unresolved: either side's spread exceeds the bound, unless every change
    run beats every parent run. Otherwise unchanged.
    """
    sign = 1.0 if better == "lower" else -1.0
    mp, mc = median(parent), median(change)
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    worse_by = sign * (mc - mp) / abs(mp) if mp else 0.0
    p1, p3 = quartiles(parent)
    c1, c3 = quartiles(change)
    spread = max((p3 - p1) / abs(mp) if mp else 0.0, (c3 - c1) / abs(mc) if mc else 0.0)
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if worse_by > bound:
        return "regressed", win_share
    if pairs and win_share >= 0.9 and sign * (mp - mc) > (p3 - p1):
        return "improved", win_share
    if spread > bound and not all_better:
        return "unresolved", win_share
    return "unchanged", win_share


def _by_seed(records, section):
    out = {}
    for rec in records:
        if section in rec:
            out.setdefault(rec["seed"], []).append(rec[section])
    return out


def report(parent_dir, change_dir) -> int:
    with open(BENCHMARK_JSON) as fh:
        bench = json.load(fh)
    parent, change = load_records(parent_dir), load_records(change_dir)
    blas = {json.dumps([r["machine"]["blas_threads"], r["machine"]["blas_thread_env"]]) for r in parent + change}
    if len(blas) > 1:
        print(f"BLAS thread settings differ between runs: {sorted(blas)}; not comparable")
        return 3
    status = 0
    for wl in [w["name"] for w in bench["workloads"]]:
        p_recs = [r for r in parent if r["workload"] == wl]
        c_recs = [r for r in change if r["workload"] == wl]
        if not p_recs or not c_recs:
            continue
        print(f"\n== {wl}: {len(p_recs)} parent and {len(c_recs)} change records")
        for side, recs in (("parent", p_recs), ("change", c_recs)):
            att = sum(r["attempted"] for r in recs)
            bad = sum(r["failed"] for r in recs)
            problems = sum(1 for r in recs if r["problems"])
            print(f"  {side}: failed_share {bad / att if att else 1.0:.4g} ({bad}/{att}), "
                  f"{problems} runs with failed checks")
            status |= 1 if problems else 0
        p_seed, c_seed = _by_seed(p_recs, "end_to_end"), _by_seed(c_recs, "end_to_end")
        print(f"  {'metric':<14}{'parent median [q1, q3]':>34}{'change median [q1, q3]':>34}"
              f"{'wins':>7}  verdict (bound)")
        for m in bench["end_to_end"]:
            name = m["name"]
            pv = [e[name]["value"] for es in p_seed.values() for e in es]
            cv = [e[name]["value"] for es in c_seed.values() for e in es]
            if not pv or not cv:
                continue
            pairs = [(p_seed[s][0][name]["value"], c_seed[s][0][name]["value"])
                     for s in sorted(set(p_seed) & set(c_seed))]
            v, win = verdict(pv, cv, pairs, m["bound"], m["better"])
            (p1, p3), (c1, c3) = quartiles(pv), quartiles(cv)
            wins = f"{win:.0%}" if pairs else "-"  # no seed run on both sides
            print(f"  {name:<14}{median(pv):>14.5g} [{p1:.5g}, {p3:.5g}] {m['unit']:<3}"
                  f"{median(cv):>12.5g} [{c1:.5g}, {c3:.5g}] {m['unit']:<3}"
                  f"{wins:>6}  {v} ({m['bound']:.0%})")
            status |= 2 if v == "regressed" else 0
        p_layer, c_layer = _by_seed(p_recs, "per_layer"), _by_seed(c_recs, "per_layer")
        rows = []
        for m in bench["per_layer"]:
            name = m["name"]
            if m["unit"] != "s" or name.startswith("trace."):
                continue
            pv = [e[name]["value"] for es in p_layer.values() for e in es]
            cv = [e[name]["value"] for es in c_layer.values() for e in es]
            if pv and cv and (median(pv) or median(cv)):
                rows.append((median(cv) - median(pv), name, median(pv), median(cv)))
        if rows:
            print("  traced layer times (self or inclusive seconds), largest change first:")
            for delta, name, mp, mc in sorted(rows, key=lambda r: -abs(r[0]))[:15]:
                share = f"{delta / mp:+.1%}" if mp else "n/a"
                print(f"    {name:<40}{mp:>10.4g} s -> {mc:<10.4g} s  {delta:+.4g} s ({share})")
    return status


def collect(args) -> int:
    with open(BENCHMARK_JSON) as fh:
        bench = json.load(fh)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    sides = [("parent", os.path.abspath(args.parent)), ("change", os.path.abspath(args.change))]

    def run(side, root, wl, seed, trace):
        cmd = [sys.executable, RUN, "--workload", wl, "--seed", str(seed), "--seconds",
               str(bench["run_seconds"]), "--trace", str(trace), "--root", root,
               "--out", os.path.join(args.out, side)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        print(f"{side} {wl} seed {seed} trace {trace}: exit {proc.returncode} {last[0][:160]}", flush=True)

    for seed in range(1, args.pairs + 1):
        order = sides if seed % 2 else sides[::-1]
        for wl in names:
            for side, root in order:
                run(side, root, wl, seed, 0)
    for wl in names:
        for side, root in sides:
            run(side, root, wl, 1, 1)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run both trees, alternating which goes first")
    c.add_argument("--parent", required=True, help="source tree of the parent commit")
    c.add_argument("--change", required=True, help="source tree of the change")
    c.add_argument("--out", required=True)
    c.add_argument("--pairs", type=int, default=10)
    c.add_argument("--workloads", nargs="*")
    r = sub.add_parser("report", help="print the comparison")
    r.add_argument("parent_dir")
    r.add_argument("change_dir")
    args = ap.parse_args(argv)
    if args.command == "collect":
        return collect(args)
    return report(args.parent_dir, args.change_dir)


if __name__ == "__main__":
    sys.exit(main())
