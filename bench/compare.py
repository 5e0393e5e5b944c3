"""Verdicts on two ``--all`` result files (A = parent, B = change).

Per (metric, workload): ``improved``, ``unchanged``, ``regressed`` or
``unresolved``, from the medians, the quartiles and the bound
``BENCHMARK.json`` fixes for the metric.

* An end-to-end metric *regressed* when B's median is worse than A's by
  more than the bound.  When either side's own spread (inter-quartile
  distance over median) is wider than the bound the verdict is
  *unresolved* instead, unless every run of one side beats every run of
  the other.
* It *improved* when B wins at least nine tenths of the pairs (run i of
  A against run i of B) and the medians differ by more than A's spread.
* Exact counts must be equal run for run; when they are not, the verdict
  follows the metric's direction.  Other per-layer metrics get a verdict
  the same way as end-to-end ones, against a bound of 0.25, for reading
  only.

The exit status is 1 when an end-to-end metric regressed.
"""

from __future__ import annotations

import json
import pathlib
import statistics

from . import metrics

PER_LAYER_BOUND = 0.25


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def series(document: dict, workload: str, section: str, name: str) -> list[float]:
    return [
        run[workload][section][name] for run in document["runs"]
        if workload in run and name in run[workload].get(section, {})
    ]


def verdict(name: str, a: list[float], b: list[float], bound: float) -> str:
    higher = metrics.BETTER[name] == "higher"
    if name in metrics.EXACT:
        if a == b:
            return "unchanged"
        gain = statistics.median(b) - statistics.median(a)
        if gain == 0:
            return "unresolved"
        return "improved" if (gain > 0) == higher else "regressed"
    med_a, med_b = statistics.median(a), statistics.median(b)
    if med_a == 0:
        return "unchanged" if med_b == 0 else "unresolved"
    # Positive = B is better.
    gain = (med_b - med_a) / abs(med_a) * (1 if higher else -1)
    better = (lambda x, y: x > y) if higher else (lambda x, y: x < y)
    b_always_wins = all(better(y, x) for x in a for y in b)
    a_always_wins = all(better(x, y) for x in a for y in b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if better(y, x))
    # One run a side has no spread of its own; the bound stands in.
    needed = spread(a) if len(pairs) > 1 else bound
    if gain > needed and wins >= 0.9 * len(pairs):
        return "improved"
    if gain < -bound:
        if max(spread(a), spread(b)) > bound and not a_always_wins:
            return "unresolved"
        return "regressed"
    if max(spread(a), spread(b)) > bound and not (b_always_wins or a_always_wins):
        return "unresolved"
    return "unchanged"


def rows(doc_a: dict, doc_b: dict):
    for workload in metrics.WORKLOADS:
        for section, table in (("end_to_end", metrics.END_TO_END),
                               ("per_layer", metrics.PER_LAYER)):
            for metric in table:
                a = series(doc_a, workload, section, metric.name)
                b = series(doc_b, workload, section, metric.name)
                if not a or not b:
                    continue
                bound = metrics.BOUNDS.get(metric.name, PER_LAYER_BOUND)
                yield (workload, section, metric.name, a, b,
                       verdict(metric.name, a, b, bound))


def main(path_a: pathlib.Path, path_b: pathlib.Path) -> int:
    doc_a = json.loads(path_a.read_text())
    doc_b = json.loads(path_b.read_text())
    for label, doc in (("A", doc_a), ("B", doc_b)):
        print(f"{label}: {len(doc['runs'])} run(s), seed {doc['seed']}, "
              f"host {doc['host']}")
    if doc_a["host"] != doc_b["host"]:
        print("hosts differ: a difference below may be the host's, not the code's")
    regressed = changed_counts = 0
    for workload, section, name, a, b, result in rows(doc_a, doc_b):
        quiet = section == "per_layer" and result == "unchanged"
        if name in metrics.EXACT and result != "unchanged":
            changed_counts += 1
        if section == "end_to_end" and result == "regressed":
            regressed += 1
        if quiet:
            continue
        qa, qb = quartiles(a), quartiles(b)
        print(f"{workload:20s} {name:36s} {result:10s} "
              f"A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
              f"B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {metrics.UNITS[name]}")
    print(f"end-to-end metrics regressed: {regressed}; "
          f"exact counts changed: {changed_counts} "
          "(per-layer rows that are unchanged are not listed)")
    return 1 if regressed else 0


def print_spread(document: dict) -> None:
    """Inter-quartile spread of every end-to-end metric over the runs."""
    print("spread over the runs (inter-quartile distance / median; bound):")
    for workload in metrics.WORKLOADS:
        for metric in metrics.END_TO_END:
            values = series(document, workload, "end_to_end", metric.name)
            if len(values) < 2:
                continue
            _, q2, _ = quartiles(values)
            print(f"{workload:20s} {metric.name:16s} median {q2:12.6g} "
                  f"{metric.unit:4s} spread {spread(values):7.4f}  "
                  f"bound {metric.bound}")
