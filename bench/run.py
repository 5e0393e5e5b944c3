"""Run the repo benchmark.  Start here; ``bench/README.md`` has the detail.

One workload, as the benchmark driver calls it (the last line printed is
the result object)::

    python3 bench/run.py --workload cornell_serial --seed 24301 --seconds 10 --trace 0

Every workload, untraced and traced, every metric by name with its unit::

    python3 bench/run.py --all [--seed N] [--runs N] [--out results.json]

Compare two ``--all`` result files::

    python3 bench/run.py --compare parent.json change.json
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if __package__ in (None, ""):
    # Run as a script: drop bench/ itself from the path (its trace.py
    # would shadow the stdlib's) and import as the package it is.
    sys.path[:] = [p for p in sys.path if pathlib.Path(p or ".").resolve() != BENCH_DIR]
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench import compare, hostinfo, metrics  # noqa: E402

#: Set-up is timed in this many processes that do nothing else;
#: ``setup_s`` is their median.
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 170.0
GROUP_GRACE_S = 2.0


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT), str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class ChildFailed(RuntimeError):
    pass


def spawn(child_args: list[str]) -> tuple[float, dict, int]:
    """Run one workload process: (seconds to READY, its report, survivors).

    The child leads its own process group, so that anything it leaves
    running — a pool worker, say — is found (and stopped) here.
    """
    command = [sys.executable, "-m", "bench.child"] + child_args
    start = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, stop_group, (process.pid,))
    watchdog.start()
    ready = None
    last = ""
    try:
        with process.stdout:
            for line in process.stdout:
                if ready is None and line.strip() == "READY":
                    ready = time.perf_counter() - start
                elif line.strip():
                    last = line
        code = process.wait()
    finally:
        watchdog.cancel()
        survivors = stop_group(process.pid)
    if code != 0 or ready is None:
        raise ChildFailed(f"{' '.join(command)} exited with {code}")
    return ready, json.loads(last) if last.startswith("{") else {}, survivors


def stop_group(pgid: int) -> int:
    """Kill whatever still runs in process group *pgid*; how many did.

    Called once the leader is reaped (or overdue), so every member found
    is a process the workload failed to stop.  multiprocessing's resource
    tracker exits by itself just after its parent, hence the short grace.
    """
    give_up = time.perf_counter() + GROUP_GRACE_S
    while True:
        members = 0
        for entry in pathlib.Path("/proc").glob("[0-9]*"):
            try:
                fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue
            if int(fields[2]) == pgid and fields[0] != "Z":
                members += 1
        if not members or time.perf_counter() > give_up:
            break
        time.sleep(0.02)
    if members:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return members


def measure(workload: str, seed: int, seconds: float, trace: int, *,
            smoke: bool = False, out_dir: pathlib.Path) -> dict:
    """One run of one workload; the driver-facing result plus diagnostics."""
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--out-dir", str(out_dir)]
    if smoke:
        base.append("--smoke")
    calib_before = hostinfo.calibrate()
    setups = []
    if not trace:
        for _ in range(1 if smoke else SETUP_RUNS):
            # Set-up is long next to one kernel reading: five a side.
            before = [hostinfo.kernel() for _ in range(5)]
            ready = spawn(base + ["--setup-only"])[0]
            after = [hostinfo.kernel() for _ in range(5)]
            setups.append(ready * hostinfo.scale_of(before + after))
    _, report, survivors = spawn(base + ["--trace", str(trace)])
    calib_after = hostinfo.calibrate()
    spread = hostinfo.calib_spread(calib_before, calib_after)

    values = dict(report["metrics"])
    if trace:
        values.update({
            "host.nproc": os.cpu_count(),
            "host.calib_s": calib_before,
            "host.calib_spread": spread,
        })
        names = [m.name for m in metrics.PER_LAYER]
    else:
        values["setup_s"] = statistics.median(setups)
        names = [m.name for m in metrics.END_TO_END]
    unknown = set(values) - set(names)
    if unknown:
        raise ChildFailed(f"undeclared metrics: {sorted(unknown)}")
    problems = list(report["problems"])
    if survivors:
        problems.append(f"{survivors} process(es) outlived the workload")
    failed = report["failed"] + survivors
    return {
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": metrics.UNITS[name]}
            for name in names
        },
        # Diagnostics, printed above the result line.
        "noisy": spread > hostinfo.NOISY_SPREAD,
        "calib_s": [calib_before, calib_after],
        "samples": report["samples"],
        "checked": report["checked"],
        "problems": problems,
    }


def show(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload:20s} {name:38s} {metric['value']:>16.6g} {metric['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"{workload:20s} {'failed_share':38s} {share:>16.6g} share "
          f"({result['failed']} of {result['attempted']}; "
          f"{result['checked']} re-served; per class {result['samples']})")
    if result["noisy"]:
        before, after = result["calib_s"]
        print(f"{workload:20s} noisy: calibration {before:.4f}s -> {after:.4f}s")
    for problem in result["problems"]:
        print(f"{workload:20s} PROBLEM {problem}")


def driver_result(result: dict) -> dict:
    return {key: result[key] for key in
            ("correct", "attempted", "failed", "metrics")}


def run_all(args, out_dir: pathlib.Path) -> int:
    """Every workload untraced and traced, *runs* times; 0 when all correct."""
    document = {
        "host": hostinfo.host_stanza(), "seed": args.seed,
        "run_seconds": args.seconds, "smoke": args.smoke, "runs": [],
    }
    failed = 0
    for index in range(args.runs):
        run: dict = {}
        for workload in args.workloads:
            entry = {"noisy": False, "failed": 0, "attempted": 0}
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                result = measure(workload, args.seed + index, args.seconds,
                                 trace, smoke=args.smoke, out_dir=out_dir)
                if result["noisy"] and not args.smoke:
                    show(workload, result)
                    print(f"{workload:20s} re-running once: the host moved")
                    result = measure(workload, args.seed + index, args.seconds,
                                     trace, smoke=args.smoke, out_dir=out_dir)
                show(workload, result)
                entry[section] = {
                    name: m["value"] for name, m in result["metrics"].items()
                }
                entry["noisy"] |= result["noisy"]
                entry["failed"] += result["failed"]
                entry["attempted"] += result["attempted"]
            failed += entry["failed"]
            run[workload] = entry
        document["runs"].append(run)
    out = args.out or out_dir / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {out}")
    if args.runs > 1:
        compare.print_spread(document)
    return 1 if failed else 0


def record_expected(args, out_dir: pathlib.Path) -> int:
    for workload in args.workloads:
        _, report, _ = spawn([
            "--workload", workload, "--seed", str(metrics.DEFAULT_SEED),
            "--seconds", "0", "--out-dir", str(out_dir), "--record-expected",
        ])
        print(f"{workload}: {report['attempted']} answers, "
              f"{report['failed']} failed the reference check")
        if report["failed"]:
            for problem in report["problems"]:
                print("  PROBLEM", problem)
            return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=list(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=metrics.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced then traced")
    parser.add_argument("--runs", type=int, default=1,
                        help="with --all: repeat on seeds seed, seed+1, ...")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets: checks the harness, not the code")
    parser.add_argument("--out", type=pathlib.Path,
                        help="with --all: where the result file goes")
    parser.add_argument("--out-dir", type=pathlib.Path,
                        default=BENCH_DIR / "out",
                        help="trace files and the default result file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        type=pathlib.Path)
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite bench/expected/ for the default seed")
    args = parser.parse_args(argv)
    args.workloads = [args.workload] if args.workload else list(metrics.WORKLOADS)
    if args.smoke and args.seconds == metrics.RUN_SECONDS:
        args.seconds = 0.3

    if args.compare:
        return compare.main(*args.compare)
    if args.record_expected:
        return record_expected(args, args.out_dir)
    if args.all:
        return run_all(args, args.out_dir)
    if not args.workload:
        parser.error("give --workload, --all, --compare or --record-expected")
    result = measure(args.workload, args.seed, args.seconds, args.trace,
                     smoke=args.smoke, out_dir=args.out_dir)
    show(args.workload, result)
    print(json.dumps(driver_result(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
