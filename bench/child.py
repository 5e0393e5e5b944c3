"""The workload process: set up, say ready, measure, check, report.

``bench/run.py`` starts one of these per measurement so that every run
pays its own imports and starts with cold caches.  The first line on
stdout after set-up is ``READY``; the last is one JSON object with the
counts, the problems found and the metrics this run can know (the
parent adds ``setup_s`` and the host calibration).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-expected", action="store_true")
    parser.add_argument("--out-dir", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)

    from repro.parallel.shmplane import leaked_segments

    from . import hostinfo, workloads
    from .metrics import DEFAULT_SEED
    from .trace import Tracer

    tracer = Tracer()
    if args.trace:
        tracer.install()
    workload = workloads.make(args.workload, args.seed, args.smoke)
    problems: list[str] = []
    bad: set[int] = set()  # id() of every record that failed a check
    try:
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        setup_kernel = hostinfo.kernel()

        metrics: dict = {}
        if args.record_expected:
            records, _ = workload.run(count=workload.recorded_count)
        elif not args.trace:
            records, busy = workload.run(seconds=args.seconds)
            metrics.update(workloads.end_to_end(records, busy))
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
        else:
            # The fixed schedule twice: plain, then under the recorder.
            setup_view = tracer.view(scale=hostinfo.scale_of([setup_kernel]))
            tracer.uninstall()
            plain, plain_busy = workload.run(count=workload.traced_count)
            tracer.install()
            workload.reset()
            mark = tracer.mark()
            records, busy = workload.run(count=workload.traced_count)
            view = tracer.view(mark, hostinfo.scale_of(r["kernel_s"] for r in records))
            metrics.update(workload.layers(view, records))
            if workload.baseline_count:
                mark = tracer.mark()
                baseline = workload.run_baseline()
                metrics.update(workload.baseline_layers(
                    tracer.view(mark, hostinfo.scale_of(r["kernel_s"] for r in baseline)),
                    baseline, records,
                ))
                check_equal(baseline, records, bad, problems)
            tracer.uninstall()
            metrics["bench.trace_overhead_share"] = (busy - plain_busy) / plain_busy
            metrics["bench.traced_requests"] = len(records)
            check_equal(plain, records, bad, problems)

        # -- correctness: status, committed hashes, reference re-serve ------
        bad |= {id(r) for r in records if not r["ok"]}
        problems += [f"non-200: {r['key']}" for r in records if not r["ok"]]
        verifier = workload.verifier()
        try:
            if args.trace:
                metrics.update(workloads.setup_layers(
                    setup_view,
                    [session.program for session in verifier.sessions.values()],
                ))
            expected_path = BENCH_DIR / "expected" / f"{args.workload}.json"
            if args.record_expected:
                sample = records
            else:
                sample = workload.sample(records)
                if args.seed == DEFAULT_SEED and not args.smoke:
                    expected = json.loads(expected_path.read_text())["answers"]
                    for record in records:
                        want = expected.get(record["key"])
                        if want is not None and want != record["sha"]:
                            bad.add(id(record))
                            problems.append(f"differs from expected: {record['key']}")
            for record in sample:
                if verifier.sha(record) != record["sha"]:
                    bad.add(id(record))
                    problems.append(f"differs from reference: {record['key']}")
        finally:
            verifier.close()
        if args.record_expected and not problems:
            expected_path.parent.mkdir(exist_ok=True)
            expected_path.write_text(json.dumps({
                "seed": args.seed,
                "answers": {r["key"]: r["sha"] for r in records},
            }, indent=1, sort_keys=True) + "\n")
    finally:
        workload.close()
        if args.trace:
            args.out_dir.mkdir(parents=True, exist_ok=True)
            tracer.dump(args.out_dir / f"trace-{args.workload}.json")

    leaked = leaked_segments()
    problems += [f"leaked segment: {name}" for name in leaked]
    if args.trace and workload.workers > 1:
        metrics["procpool.worker_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        )
    classes: dict = {}
    for record in records:
        classes[record["cls"]] = classes.get(record["cls"], 0) + 1
    print(json.dumps({
        "attempted": len(records),
        "failed": len(bad) + len(leaked),
        "checked": len(sample),
        "samples": classes,
        "problems": problems[:20],
        "metrics": metrics,
    }))
    return 0


def check_equal(first: list[dict], second: list[dict], bad: set,
                problems: list[str]) -> None:
    """Two passes over the same requests must serve the same bytes."""
    shas = {r["key"]: r["sha"] for r in first}
    for record in second:
        if shas.get(record["key"], record["sha"]) != record["sha"]:
            bad.add(id(record))
            problems.append(f"passes disagree: {record['key']}")


if __name__ == "__main__":
    sys.exit(main())
