#!/usr/bin/env python3
"""Compare two sets of end-to-end results, workload by workload and metric by metric.

    python3 benchmarks/e2e/compare.py BASE_DIR CHANGE_DIR

Each directory holds the plain-mode results JSON files ``run.py --out DIR``
wrote (parent vs change, or two sets from one commit).  Results pair up by
workload, seed and run index (the n-th run of a seed in one directory pairs
with the n-th in the other), so the pairs may all use the default seed and
check every makespan.  Run at least ten pairs, alternating which side runs
first.  Results whose provenance differs in anything but the git revision
are refused (exit 2).

For every workload and end-to-end metric the table gives each side's median
and quartiles and the fraction of pairs the change wins (ties count for
neither), then a verdict with the bound from ``BENCHMARK.json``:

- ``improved``: at least ten pairs, the change wins at least nine in ten,
  the medians differ by more than the base's quartile distance, and the
  change fails no more operations than the base;
- ``unresolved``: the base's own spread (quartile distance over median) is
  wider than the bound, and not every change run beats every base run;
- ``regressed``: the change's median is worse than the base's by more than
  the bound;
- ``no worse``: anything else.

Exit status is 1 when any pairing regressed or is unresolved, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(directory: Path) -> dict[tuple[str, int, int], dict]:
    """Plain-mode results by ``(workload, seed, run index)``."""
    out = {}
    for path in sorted(directory.glob("*-plain-seed*-run*.json")):
        try:
            doc = json.loads(path.read_text())
        except ValueError:
            continue
        if isinstance(doc, dict) and doc.get("mode") == "plain":
            out[(doc["workload"], doc["provenance"]["seed"], doc["run"])] = doc
    return out


def provenance_diff(a: dict, b: dict) -> list[str]:
    keys = (set(a) | set(b)) - {"git_rev"}
    return sorted(k for k in keys if a.get(k) != b.get(k))


def verdict(base: list[float], change: list[float], better: str, bound: float,
            failed_base: int, failed_change: int) -> tuple[str, dict]:
    """Verdict and the summary numbers of one (workload, metric) pairing."""
    sign = 1.0 if better == "higher" else -1.0
    n = len(base)
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    med_b, med_c = statistics.median(base), statistics.median(change)
    stats = {"pairs": n, "win_frac": wins / n if n else 0.0, "base": med_b, "change": med_c}
    if n < 2:
        return "unresolved", stats
    q1_b, _, q3_b = statistics.quantiles(base, n=4)
    q1_c, _, q3_c = statistics.quantiles(change, n=4)
    stats.update(base_q=(q1_b, q3_b), change_q=(q1_c, q3_c))
    spread = (q3_b - q1_b) / abs(med_b) if med_b else float("inf")
    worse_by = -sign * (med_c - med_b) / abs(med_b) if med_b else float("inf")
    all_better = (
        min(change) > max(base) if better == "higher" else max(change) < min(base)
    )
    if (
        n >= 10
        and wins >= 0.9 * n
        and abs(med_c - med_b) > q3_b - q1_b
        and failed_change <= failed_base
    ):
        return "improved", stats
    if spread > bound and not all_better:
        return "unresolved", stats
    if worse_by > bound:
        return "regressed", stats
    return "no worse", stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(args.base), load(args.change)
    pairs = sorted(set(base) & set(change))
    if not pairs:
        print("no (workload, seed, run) results present on both sides", file=sys.stderr)
        return 2
    for key in pairs:
        diff = provenance_diff(base[key]["provenance"], change[key]["provenance"])
        if diff:
            print(f"refusing to compare {key[0]} seed {key[1]} run {key[2]}: provenance differs in "
                  f"{', '.join(diff)}", file=sys.stderr)
            return 2
    status = 0
    print(f"{'workload':<13} {'metric':<16} {'base median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'wins':>5} verdict")
    for workload in sorted({key[0] for key in pairs}):
        keys = [key for key in pairs if key[0] == workload]
        failed_b = sum(base[key]["failed"] for key in keys)
        failed_c = sum(change[key]["failed"] for key in keys)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values_b = [base[key]["metrics"][name]["value"] for key in keys]
            values_c = [change[key]["metrics"][name]["value"] for key in keys]
            result, stats = verdict(
                values_b, values_c, metric["better"], metric["bound"], failed_b, failed_c
            )
            if result in ("regressed", "unresolved"):
                status = 1
            qb = stats.get("base_q", (float("nan"),) * 2)
            qc = stats.get("change_q", (float("nan"),) * 2)
            cell_b = f"{stats['base']:.5g} [{qb[0]:.5g}, {qb[1]:.5g}]"
            cell_c = f"{stats['change']:.5g} [{qc[0]:.5g}, {qc[1]:.5g}]"
            print(
                f"{workload:<13} {name:<16} {cell_b:<34} {cell_c:<34} "
                f"{stats['win_frac']:>5.2f} {result} "
                f"(bound {metric['bound']:.0%}, {stats['pairs']} pairs)"
            )
        print(f"{workload:<13} failed operations: base {failed_b}, change {failed_c}")
    return status


if __name__ == "__main__":
    sys.exit(main())
