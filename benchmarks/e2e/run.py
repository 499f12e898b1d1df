#!/usr/bin/env python3
"""End-to-end benchmark of the simulator, measured from outside.

Four workloads drive the public API and ``repro serve``:

``specs``         every committed ``specs/*.json`` through
                  ``run_experiment``: cold rounds and cache-warm rounds
``megaflows``     a 100k-flow traffic matrix, hybrid engine (fluid tier)
``matrix-exact``  1,020 streams, just under the hybrid switchover
                  (exact numpy tier)
``serve``         an open loop of Poisson submissions to ``repro serve``

Run from the repository root (the benchmark puts ``src`` on the path
itself)::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--quick] [--out FILE]

Each workload runs in fresh child processes: untraced runs start
``SETUP_PROCESSES`` of them and report the median set-up time; the
last one also measures for ``--seconds``.  The metrics, their units
and their bounds are the ones ``BENCHMARK.json`` declares.  Every
metric is printed by name with its unit and sample count, and the last
line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  ``--out`` writes every sample, the digests of
the generated inputs and of the outputs, and the environment.  With
``--trace`` (or ``--trace 1``) the layer spans are installed on every
other op and the per-layer metrics replace the end-to-end ones.

Exit codes: 0 when every correctness check passed, 1 when one failed
(or the serve load generator could not keep its schedule), 2 for bad
arguments or a checkout without ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

WORKLOAD_NAMES = ("specs", "megaflows", "matrix-exact", "serve")
DEFAULT_SECONDS = 25.0
QUICK_SECONDS = 1.0
#: Fresh processes per untraced run; setup_s is the median of theirs.
SETUP_PROCESSES = 3
#: A workload's children must all end within this many seconds.
WORKLOAD_BUDGET_S = 170.0

#: Environment knobs that would change what the library runs.
SCRUBBED_ENV = ("REPRO_WORKERS", "REPRO_CACHE", "REPRO_CACHE_DIR",
                "REPRO_BACKEND", "REPRO_SERVE_URL")

EXIT_OK, EXIT_FAILED, EXIT_USAGE = 0, 1, 2


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark: specs, megaflows, "
                    "matrix-exact and serve workloads.")
    parser.add_argument("--workload", action="extend", nargs="+",
                        choices=WORKLOAD_NAMES, default=None,
                        help="workloads to run (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed the inputs are generated from")
    # --seconds and the 0|1 value of --trace are how automated runs
    # pass BENCHMARK.json's run_seconds and the pass to run.
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measurement window per workload (default "
                             f"{DEFAULT_SECONDS:g}, {QUICK_SECONDS:g} with "
                             "--quick)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="traced pass: report the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="small inputs and a short window (self-test)")
    parser.add_argument("--out", default=None,
                        help="write samples, digests and metrics as JSON")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="corrupt one expected digest (self-test of "
                             "the correctness checks)")
    # Internal: the child process that runs one workload.
    parser.add_argument("--child", choices=WORKLOAD_NAMES,
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--trace-file", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.workload = list(dict.fromkeys(args.workload or WORKLOAD_NAMES))
    return args


# -- child: one workload in this process --------------------------------------

def child_main(args: argparse.Namespace) -> int:
    from probe import SpeedProbe

    # Started first, so set-up time is corrected by the speed the
    # imports below ran at.
    probe = SpeedProbe()
    probe.start()
    probe_started = probe.clock()
    sys.path.insert(0, str(SRC))
    import numpy

    from loadgen import ServeWorkload
    from workloads import TIMES, WORKLOADS

    classes = dict(WORKLOADS, serve=ServeWorkload)
    trace = bool(args.trace)
    workload = classes[args.child](
        args.seed, quick=args.quick, workdir=pathlib.Path(args.workdir),
        trace=trace, probe=probe, inject_mismatch=args.inject_mismatch)
    try:
        workload.setup()
        if workload.setup_wall is None:
            workload.setup_wall = time.monotonic() - args.spawned_at
            workload.setup_span = (probe_started, probe.clock())
        if not args.setup_only:
            workload.measure(args.seconds)
            workload.finish()
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        traceback.print_exc()
        workload.fail(f"{type(exc).__name__}: {exc}")
    finally:
        workload.close()
        probe.stop()

    doc: Dict[str, object] = {
        "workload": args.child,
        "setup_s": workload.corrected_setup(),
        "setup_wall_s": workload.setup_wall,
        "peak_rss_mb": workload.peak_rss_mb(),
        "attempted": workload.attempted,
        "failed": len(workload.failures),
        "failures": workload.failures[:20],
        "valid": workload.valid,
        "n_inputs": workload.n_inputs,
        "samples": workload.samples,
        "wall_samples": workload.wall,
        "estimates": {kind: workload.estimate(kind) for kind in TIMES},
        "n": {kind: workload.n_samples(kind) for kind in TIMES},
        "inputs_digest": workload.inputs_digest,
        "outputs_digest": workload.outputs_digest,
        "info": workload.info,
        "numpy": numpy.__version__,
    }
    if trace:
        doc["layers"] = workload.layer_metrics()
        doc["traced_samples"] = workload.traced
        if workload.recorder.spans and args.trace_file:
            workload.recorder.write_chrome_trace(args.trace_file)
    print(json.dumps(doc))
    return EXIT_OK


# -- parent: spawn children, summarize ----------------------------------------

def child_env(workdir: pathlib.Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    # Temporary files stay inside the checkout.
    env["TMPDIR"] = str(workdir)
    # String hashing decides set and dict iteration order, and with it
    # up to a tenth of some ops' time; a pinned seed makes runs repeat.
    env["PYTHONHASHSEED"] = "0"
    return env


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill a child and everything it started, and reap them."""
    os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()
    _wait_group_gone(proc.pid)


def _wait_group_gone(pgid: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def spawn_child(name: str, args: argparse.Namespace, workdir: pathlib.Path,
                *, setup_only: bool, deadline: float,
                trace_file: Optional[str] = None) -> Dict[str, object]:
    """Run one child process; its last stdout line is its result."""
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "run.py"), "--child", name,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    for flag, on in (("--quick", args.quick), ("--setup-only", setup_only),
                     ("--inject-mismatch", args.inject_mismatch)):
        if on:
            cmd.append(flag)
    if trace_file:
        cmd += ["--trace-file", trace_file]
    spawned = time.monotonic()
    # A session of its own, so a timeout can take down the child and
    # the server it may have started together.
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)],
                            stdout=subprocess.PIPE, cwd=ROOT,
                            env=child_env(workdir), start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        return {"failed": 1, "attempted": 1,
                "failures": [f"{name}: child timed out"]}
    except BaseException:
        _kill_group(proc)
        raise
    _wait_group_gone(proc.pid)
    lines = [l for l in out.decode("utf-8", "replace").splitlines()
             if l.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"failed": 1, "attempted": 1,
                "failures": [f"{name}: child exited {proc.returncode} "
                             "without a result"]}


def declared_metrics(trace: bool) -> List[Tuple[str, str]]:
    """``(name, unit)`` of the metrics BENCHMARK.json declares for the
    pass: ``per_layer`` when traced, else ``end_to_end``."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"])
            for m in doc["per_layer" if trace else "end_to_end"]]


def e2e_values(setups: List[float], child: Dict[str, object]
               ) -> Dict[str, Tuple[float, int]]:
    """``metric -> (value, sample count)`` of the end-to-end metrics.

    ``latency_ms`` and ``pipeline_ms`` are the workload's estimates of
    its op times (see ``Workload.estimate``).
    """
    from summary import percentile

    values = {}
    if setups:
        values["setup_s"] = (percentile(setups, 0.5), len(setups))
    if child.get("peak_rss_mb"):
        values["peak_rss_mb"] = (child["peak_rss_mb"], 1)
    estimates, counts = child.get("estimates") or {}, child.get("n") or {}
    for metric, kind in (("latency_ms", "latency_s"),
                         ("pipeline_ms", "pipeline_s")):
        if estimates.get(kind) is not None:
            values[metric] = (estimates[kind] * 1e3, counts[kind])
    return values


def run_workload(name: str, args: argparse.Namespace, workdir: pathlib.Path,
                 declared: List[Tuple[str, str]]) -> Dict[str, object]:
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    n_processes = 1 if (args.trace or args.quick) else SETUP_PROCESSES
    children = [spawn_child(name, args, workdir / f"{name}-{i}",
                            setup_only=True, deadline=deadline)
                for i in range(n_processes - 1)]
    trace_file = None
    if args.trace and args.out:
        trace_file = str(pathlib.Path(args.out).with_suffix("")) \
            + f".{name}.trace.json"
    main = spawn_child(name, args, workdir / f"{name}-{n_processes - 1}",
                       setup_only=False, deadline=deadline,
                       trace_file=trace_file)
    children.append(main)
    setups = [c["setup_s"] for c in children if c.get("setup_s") is not None]
    failures = [f for c in children for f in c.get("failures", [])]
    attempted = sum(int(c.get("attempted", 0)) for c in children)
    failed = sum(int(c.get("failed", 0)) for c in children)
    if args.trace:
        # Layers a workload never calls report 0; no table at all means
        # the run broke.
        layers = main.get("layers") or {}
        n_traced = sum(len(v) for v in (main.get("traced_samples") or {})
                       .get("latency_s", {}).values())
        values = {metric: (layers.get(metric, 0.0), n_traced or 1)
                  for metric, _ in declared} if layers else {}
    else:
        values = e2e_values(setups, main)
    metrics = {metric: {"value": values[metric][0], "unit": unit,
                        "n": values[metric][1]}
               for metric, unit in declared if metric in values}
    missing = [metric for metric, _ in declared if metric not in values]
    if missing and not failed:
        failures.append(f"{name}: no samples for {', '.join(missing)}")
        failed += 1
    record = {
        "attempted": max(1, attempted),
        "failed": failed,
        "failed_frac": failed / max(1, attempted),
        "valid": bool(main.get("valid", False)),
        "failures": failures,
        "inputs_digest": main.get("inputs_digest"),
        "outputs_digest": main.get("outputs_digest"),
        "metrics": metrics,
        "n_inputs": main.get("n_inputs"),
        "samples": dict(main.get("samples") or {}, setup_s=setups),
        "wall_samples": dict(main.get("wall_samples") or {}, setup_s=[
            c["setup_wall_s"] for c in children
            if c.get("setup_wall_s") is not None]),
        "info": main.get("info", {}),
        "numpy": main.get("numpy"),
    }
    for key in ("layers", "traced_samples"):
        if key in main:
            record[key] = main[key]
    return record


def print_workload(name: str, record: Dict[str, object],
                   args: argparse.Namespace) -> None:
    mode = "traced" if args.trace else "untraced"
    print(f"{name}: seed {args.seed}, {args.seconds:g} s window, {mode}")
    for metric, entry in record["metrics"].items():
        print(f"  {metric:28s} {entry['value']:14.6f} {entry['unit']:6s} "
              f"n={entry['n']}")
    print(f"  attempted {record['attempted']}, failed {record['failed']} "
          f"(failed_frac {record['failed_frac']:.4g})")
    print(f"  inputs_digest  {record['inputs_digest']}")
    print(f"  outputs_digest {record['outputs_digest']}")
    for failure in record["failures"][:10]:
        print(f"  FAILED: {failure}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run the benchmark from a "
              "checkout of the repository", file=sys.stderr)
        return EXIT_USAGE
    if args.child:
        return child_main(args)
    try:
        declared = declared_metrics(bool(args.trace))
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read the metrics from BENCHMARK.json: {exc}",
              file=sys.stderr)
        return EXIT_USAGE

    # SIGTERM unwinds like an exception, so children are killed and the
    # scratch directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(EXIT_FAILED))
    workdir = HERE / ".work" / f"run-{os.getpid()}"
    results: Dict[str, Dict[str, object]] = {}
    try:
        for name in args.workload:
            results[name] = run_workload(name, args, workdir, declared)
            print_workload(name, results[name], args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    correct = all(r["failed"] == 0 and r["valid"] for r in results.values())
    if args.out:
        numpy_version = next((r["numpy"] for r in results.values()
                              if r.get("numpy")), None)
        doc = {
            "schema": 1,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "quick": args.quick,
            "correct": correct,
            "env": {"nproc": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(),
                    "numpy": numpy_version,
                    "machine": platform.machine()},
            "workloads": results,
        }
        pathlib.Path(args.out).write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")

    def line_key(workload: str, metric: str) -> str:
        return metric if len(results) == 1 else f"{workload}/{metric}"

    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {line_key(name, metric): {"value": entry["value"],
                                             "unit": entry["unit"]}
                    for name, r in results.items()
                    for metric, entry in r["metrics"].items()},
    }))
    return EXIT_OK if correct else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
