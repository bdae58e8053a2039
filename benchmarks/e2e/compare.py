"""Compare two sets of benchmark runs by the bounds in ``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py --parent P.log [...] --change C.log [...]
    python3 benchmarks/e2e/compare.py --overhead RUNS.log [...]

Each file holds the captured stdout of one or more ``bench.py`` runs (an
``e2e-run`` line, then the result line).  With ``--parent``/``--change``,
for every (workload, end-to-end metric) of the untraced runs it prints
each side's median and quartiles, the median of the per-seed ratios
(``paired``: runs of one seed made back to back share the host's state,
so this resolves much smaller changes than the medians do), and a
verdict:

* ``improved`` -- the change wins at least 9 of 10 seed-paired runs and the
  medians differ by more than the parent's interquartile range;
* ``unresolved`` -- either side's spread (IQR / median) exceeds the bound;
* ``regressed`` -- the change's median is worse by more than the bound;
* ``unchanged`` -- otherwise.

Runs of the same (workload, seed) must have equal ``outputs_sha256``; if
they do not, the two sides computed different things and the comparison
is refused (exit 2).  Exit 1 when any pair regressed, else 0.

With ``--overhead`` it pairs each traced run with the untraced run of the
same (workload, seed) and prints, per workload, the median tracing
overhead: the traced ``obs.op_typical_ms`` over the untraced
``op_typical_ms``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
PAIR_WIN_SHARE = 0.9


def load_runs(paths: List[str], traced: bool = False) -> List[Tuple[dict, dict]]:
    """``(info, result)`` for every run in the files, untraced or traced."""
    runs = []
    for path in paths:
        info = None
        for line in Path(path).read_text().splitlines():
            if line.startswith("e2e-run "):
                info = json.loads(line[len("e2e-run "):])
            elif line.startswith("{") and info is not None:
                if bool(info["trace"]) == traced:
                    runs.append((info, json.loads(line)))
                info = None
    return runs


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(parent, change, spec) -> Tuple[List[list], bool]:
    outputs: Dict[Tuple[str, int], str] = {}
    for info, _result in parent:
        outputs[(info["workload"], info["seed"])] = info["outputs_sha256"]
    for info, _result in change:
        key = (info["workload"], info["seed"])
        if key in outputs and outputs[key] != info["outputs_sha256"]:
            raise ValueError(
                f"{key[0]} seed {key[1]}: outputs_sha256 differs between the "
                "sides; they did not compute the same results"
            )

    def by_seed(runs):
        table = defaultdict(dict)
        for info, result in runs:
            for name, metric in result["metrics"].items():
                table[(info["workload"], name)][info["seed"]] = metric["value"]
        return table

    before, after = by_seed(parent), by_seed(change)
    rows, regressed = [], False
    for workload in sorted({w for w, _ in before} & {w for w, _ in after}):
        for metric in spec["end_to_end"]:
            a = before.get((workload, metric["name"]), {})
            b = after.get((workload, metric["name"]), {})
            if not a or not b:
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            qa, qb = _quartiles(list(a.values())), _quartiles(list(b.values()))
            worse = sign * (qb[1] - qa[1]) / qa[1]
            spread = max((q[2] - q[0]) / q[1] for q in (qa, qb))
            seeds = sorted(set(a) & set(b))
            wins = sum(1 for s in seeds if sign * (b[s] - a[s]) < 0)
            paired = (
                statistics.median(sign * (b[s] / a[s] - 1) for s in seeds)
                if seeds else float("nan")
            )
            if (seeds and wins >= PAIR_WIN_SHARE * len(seeds)
                    and sign * (qa[1] - qb[1]) > qa[2] - qa[0]):
                verdict = "improved"
            elif spread > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regressed"
                regressed = True
            else:
                verdict = "unchanged"
            rows.append([
                workload, metric["name"], metric["unit"],
                f"{qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]",
                f"{qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]",
                f"{100 * worse:+.1f}%", f"{100 * paired:+.1f}%",
                f"{metric['bound']:.0%}",
                f"{wins}/{len(seeds)}", verdict,
            ])
    return rows, regressed


def tracing_overhead(untraced, traced) -> Dict[str, Tuple[float, int]]:
    """Per workload: median traced/untraced op median ratio - 1, and pairs."""
    plain = {
        (info["workload"], info["seed"]): result["metrics"]["op_typical_ms"]["value"]
        for info, result in untraced
    }
    ratios = defaultdict(list)
    for info, result in traced:
        key = (info["workload"], info["seed"])
        if key in plain:
            ratios[key[0]].append(
                result["metrics"]["obs.op_typical_ms"]["value"] / plain[key] - 1.0
            )
    return {w: (statistics.median(r), len(r)) for w, r in sorted(ratios.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+")
    parser.add_argument("--change", nargs="+")
    parser.add_argument("--overhead", nargs="+", metavar="RUNS")
    args = parser.parse_args(argv)
    if args.overhead:
        runs = args.overhead
        table = tracing_overhead(load_runs(runs), load_runs(runs, traced=True))
        for workload, (overhead, pairs) in table.items():
            print(f"{workload}  tracing overhead {100 * overhead:+.1f}% "
                  f"(median of {pairs} seed pairs)")
        return 0
    if not (args.parent and args.change):
        parser.error("give --parent and --change, or --overhead")
    spec = json.loads(BENCHMARK.read_text())
    parent, change = load_runs(args.parent), load_runs(args.change)
    try:
        rows, regressed = compare(parent, change, spec)
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    for name, runs in (("parent", parent), ("change", change)):
        failed = sum(result["failed"] for _info, result in runs)
        print(f"{name}: {len(runs)} runs, {failed} failed ops")
    header = ["workload", "metric", "unit", "parent median [q1, q3]",
              "change median [q1, q3]", "worse by", "paired", "bound", "wins",
              "verdict"]
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
