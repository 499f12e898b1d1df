"""Command-line interface: ``python -m repro.cli <command>``.

Gives operators the library's main workflows without writing Python:

* ``designs``  — list the built-in notional designs (paper Figs 3-7);
* ``audit``    — run the four-pattern compliance audit on a design;
* ``transfer`` — simulate a data transfer over a design;
* ``mathis``   — Eq 1/Eq 2 calculator (throughput, required window);
* ``upgrade``  — plan + apply the Science DMZ upgrade to the baseline
  campus and show the before/after audits;
* ``trace``    — run a traced soft-failure scenario and export the
  event log (Chrome ``trace_event`` JSON + optional JSONL);
* ``sweep``    — parallel, cacheable parameter studies (Figure 1's
  loss×RTT grid from the command line), a front end that builds a
  sweep spec and runs it the way ``run`` does;
* ``run``      — execute a serializable experiment spec
  (``specs/*.json``) through the experiment layer, writing a
  provenance manifest; ``--golden`` gates on recorded digests;
* ``chaos``    — run a fault campaign against its invariant oracles
  through the ``run`` path (or replay a single shrunk schedule
  artifact); exits 1 on any oracle violation;
* ``specs``    — list the spec files in a directory with their digests;
* ``bench``    — time the simulator's hot paths and gate against the
  committed performance baseline (``benchmarks/baseline.json``);
* ``serve``    — run the multi-tenant experiment service (HTTP JSON
  API, bounded fair queue, shared result cache; SIGTERM drains
  gracefully);
* ``submit``   — send a spec to a running service and wait for the
  manifest (identical digests to ``repro run``);
* ``jobs``     — list a service's jobs or show its metrics snapshot.

Exit codes
----------
Every command follows one convention:

===== ==========================================================
code  meaning
===== ==========================================================
0     success — the command did what was asked
1     domain failure — valid input, bad outcome: audit failed,
      golden digests drifted, an oracle was violated, a bench
      regressed, a job failed, the service was unreachable
      (:class:`~repro.errors.ServeError`)
2     bad input — unusable spec/flags/file
      (:class:`~repro.errors.ReproError` others, argparse errors)
===== ==========================================================

"Retryable" is the rule of thumb: 2 means fix the invocation, 1 means
investigate the system under test.

Environment
-----------
``REPRO_WORKERS`` (pool size), ``REPRO_CACHE`` (``1`` for
``.repro-cache/``, or a cache directory) and ``REPRO_BACKEND``
(simulation engine) supply the run settings of ``run``, ``sweep``,
``chaos`` and ``serve`` wherever a flag does not; both are parsed once,
by :func:`context_from_args` over :meth:`RunContext.from_env`.
``REPRO_SERVE_URL`` is the default service URL of ``submit``/``jobs``.

Examples
--------
::

    python -m repro.cli audit simple-science-dmz
    python -m repro.cli transfer simple-science-dmz --size 239.5GB \
        --files 273 --tool globus
    python -m repro.cli mathis --mss 9000B --rtt 50ms --loss 4.5e-5
    python -m repro.cli upgrade
    python -m repro.cli trace simple-science-dmz --fault linecard \
        --at 30m --until 2h --out dmz.trace.json
    python -m repro.cli sweep mathis --rtt 1,10,50,100 \
        --loss 4.5e-5,1e-4 --workers 4 --cache --stats
    python -m repro.cli run specs/linecard_softfail.json --cache --stats
    python -m repro.cli serve --workers 4 --cache
    python -m repro.cli submit specs/fig1_tcp_loss_quick.json
    python -m repro.cli specs
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Optional

import numpy as np

from .analysis import ResultTable
from .core import apply_upgrade, plan_upgrade
from .dtn import Dataset, TransferPlan, TOOL_REGISTRY
from .errors import ConfigurationError, ReproError, ServeError
from .exec.cache import DEFAULT_CACHE_DIR
from .experiment import (ExperimentSpec, RunContext, SweepSpec,
                         run_experiment, spec_kind)
from .experiment.context import _usable_dir
# The design registry moved to the experiment layer (specs refer to the
# same names); re-exported here because callers and tests iterate
# ``cli.DESIGNS``.
from .experiment.registry import DESIGNS, build_design
from .tcp.mathis import mathis_throughput, required_window
from .units import parse_rate, parse_size, parse_time
from .vectorize import SIM_ENGINES, resolve_engine

__all__ = ["main", "DESIGNS", "EXIT_OK", "EXIT_DOMAIN_FAILURE",
           "EXIT_BAD_INPUT"]

#: The exit-code convention (see the module docstring's table).
EXIT_OK = 0
EXIT_DOMAIN_FAILURE = 1
EXIT_BAD_INPUT = 2


def context_from_args(args: argparse.Namespace, *,
                      default_workers: int = 1) -> RunContext:
    """The run settings of one command, parsed and checked up front.

    The command's ``--workers``, ``--cache``/``--cache-dir``,
    ``--artifacts`` and ``--backend`` flags, where it has them, override
    the environment knobs :meth:`RunContext.from_env` reads; an absent
    flag falls through to them.  Bad values exit 2 before anything runs.
    """
    cache = getattr(args, "cache_dir", None)
    if cache is None and getattr(args, "cache", False):
        cache = DEFAULT_CACHE_DIR
    return RunContext.from_env(
        default_workers=default_workers,
        workers=getattr(args, "workers", None),
        cache=cache,
        artifacts=getattr(args, "artifacts", None),
        backend=getattr(args, "backend", None))


def _print_run(result, ctx: RunContext, stats: bool) -> None:
    """Print a run: header, the kind's renderer, summary, digests."""
    spec, manifest = result.spec, result.manifest
    print(f"{spec.kind} {spec.name!r}: {spec.description or spec.name}")
    render = spec_kind(spec.kind).render
    if render is not None:
        print(render(result))
    for key in sorted(manifest.summary):
        print(f"  {key}: {manifest.summary[key]}")
    if result.cached:
        print("  (served from the result cache)")
    print(f"  engine:          {manifest.backend}")
    print(f"  spec digest:     {manifest.spec_digest}")
    print(f"  result digest:   {manifest.result_digest}")
    print(f"  manifest digest: {manifest.digest()}")
    if result.manifest_path:
        print(f"  artifacts:       {result.artifact_dir}/")
    if stats:
        print()
        print("execution stats:")
        counters = ctx.stats()
        for key in sorted(counters):
            print(f"  {key}: {counters[key]}")


def cmd_designs(args: argparse.Namespace) -> int:
    table = ResultTable("built-in designs", ["name", "figure", "description"])
    figures = {
        "general-purpose-campus": "§2 baseline",
        "simple-science-dmz": "Figure 3",
        "supercomputer-center": "Figure 4",
        "big-data-site": "Figure 5",
        "colorado-campus": "Figures 6/7",
        "federated-wan": "§7.1 federation",
    }
    for name in sorted(DESIGNS):
        bundle = DESIGNS[name]()
        table.add_row([name, figures[name], bundle.description])
    print(table.render_text())
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    bundle = build_design(args.design)
    report = bundle.audit()
    print(report.render_text())
    return 0 if report.passed else 1


def cmd_transfer(args: argparse.Namespace) -> int:
    bundle = build_design(args.design)
    size = parse_size(args.size)
    dataset = Dataset("cli-transfer", size, file_count=args.files)
    dst = args.dst or bundle.dtns[0]
    policy = bundle.science_policy if not args.via_firewall else {}
    plan = TransferPlan(bundle.topology, bundle.remote_dtn, dst, dataset,
                        args.tool, policy=policy)
    rng = np.random.default_rng(args.seed)
    report = plan.execute(rng)
    print(report.summary())
    if report.expected_corrupt_files > 0.01:
        print(f"warning: ~{report.expected_corrupt_files:.2f} files "
              "expected silently corrupted (tool has no checksums)")
    return 0


def cmd_mathis(args: argparse.Namespace) -> int:
    mss = parse_size(args.mss)
    rtt = parse_time(args.rtt)
    if args.loss is not None:
        rate = mathis_throughput(mss, rtt, args.loss)
        print(f"Mathis ceiling: {rate.human()} "
              f"(mss {mss.human()}, rtt {rtt.human()}, loss {args.loss:g})")
    if args.rate is not None:
        target = parse_rate(args.rate)
        window = required_window(target, rtt)
        print(f"required window for {target.human()} at {rtt.human()}: "
              f"{window.human()}")
    if args.loss is None and args.rate is None:
        print("nothing to compute: pass --loss and/or --rate", file=sys.stderr)
        return 2
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from .core import lint_path
    bundle = build_design(args.design)
    dst = args.dst or bundle.dtns[0]
    policy = bundle.science_policy if not args.via_firewall else {}
    findings = lint_path(bundle.topology, bundle.remote_dtn, dst,
                         policy=policy)
    if not findings:
        print(f"path {bundle.remote_dtn} -> {dst}: clean "
              "(no §5 hygiene findings)")
        return 0
    for finding in findings:
        print(str(finding))
    worst = findings[0].level.value
    print(f"\n{len(findings)} findings; worst severity: {worst}")
    return 1


def cmd_export(args: argparse.Namespace) -> int:
    import json

    from .netsim import topology_to_dict
    bundle = build_design(args.design)
    data = topology_to_dict(bundle.topology)
    text = json.dumps(data, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {bundle.topology.node_count} nodes / "
              f"{bundle.topology.link_count} links to {args.output}")
    else:
        print(text)
    return 0


def cmd_describe(args: argparse.Namespace) -> int:
    import json

    from .netsim import topology_from_dict
    with open(args.file, "r", encoding="utf-8") as handle:
        topo = topology_from_dict(json.load(handle))
    table = ResultTable(f"topology {topo.name!r}",
                        ["node", "kind", "tags"])
    for node in sorted(topo.nodes(), key=lambda n: n.name):
        table.add_row([node.name, node.kind, ",".join(sorted(node.tags))])
    print(table.render_text())
    print(f"{topo.link_count} links")
    return 0


#: Fault factories for ``repro trace --fault``.
TRACE_FAULTS = {
    "linecard": "FailingLineCard",
    "optics": "DirtyOptics",
    "cpu": "ManagementCpuForwarding",
    "duplex": "DuplexMismatch",
}


def cmd_trace(args: argparse.Namespace) -> int:
    from .devices import faults as fault_lib
    from .scenario import Scenario
    from .telemetry import write_chrome_trace, write_jsonl

    bundle = build_design(args.design)
    hosts = list(bundle.perfsonar) or bundle.dtns[:1]
    hosts = [h for h in hosts if h != bundle.remote_dtn]
    hosts.append(bundle.remote_dtn)
    if len(hosts) < 2:
        raise ReproError(
            f"design {args.design!r} has no host to mesh against the "
            "remote DTN; cannot build a traced scenario")

    node = args.node or bundle.border
    fault = getattr(fault_lib, TRACE_FAULTS[args.fault])()
    at = parse_time(args.at)
    until = parse_time(args.until)
    repair = parse_time(args.repair_at) if args.repair_at else None
    for label, when in (("fault", at), ("repair", repair)):
        if when is not None and when.s >= until.s:
            raise ReproError(
                f"{label} time {when.human()} is not before the horizon "
                f"{until.human()}")

    scenario = Scenario(bundle, seed=args.seed)
    scenario.with_mesh(hosts)
    scenario.inject(node, fault, at=at)
    if repair is not None:
        scenario.repair_at(repair)
    outcome = scenario.run(until=until, trace=True)
    tracer = outcome.trace

    print(outcome.summary())
    print()
    out = args.out or f"{args.design}.trace.json"
    path = write_chrome_trace(tracer.events(), out, metrics=tracer.metrics)
    print(f"wrote {len(tracer.events())} events to {path} "
          "(load in chrome://tracing or ui.perfetto.dev)")
    if args.jsonl:
        jsonl_path = write_jsonl(tracer.events(), args.jsonl)
        print(f"wrote JSONL log to {jsonl_path}")
    print()
    print("metrics:")
    print(tracer.metrics.render_text())
    if args.tail > 0:
        print()
        print(tracer.recorder.render_tail(args.tail))
    return 0


def _csv_floats(text: str, option: str) -> list:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ReproError(f"{option} expects comma-separated numbers, "
                         f"got {text!r}")


def cmd_sweep(args: argparse.Namespace) -> int:
    import json

    rtts = _csv_floats(args.rtt, "--rtt")
    losses = _csv_floats(args.loss, "--loss")
    if not rtts or not losses:
        raise ReproError("sweep needs at least one --rtt and one --loss")
    if any(l <= 0 for l in losses):
        raise ReproError("--loss values must be positive (the Mathis "
                         "model diverges at zero loss)")
    spec = SweepSpec.from_grid(
        {"rtt_ms": rtts, "loss": losses,
         "mss_bytes": [int(parse_size(args.mss).bytes)]},
        name=f"{args.target}-sweep", target=args.target,
        value_label="gbps")
    ctx = context_from_args(args)
    sweep = run_experiment(spec, ctx, persist=False).value
    print(sweep.table(
        f"{args.target} sweep — {len(sweep.records)} points, "
        f"workers={ctx.workers}, cache={'on' if ctx.cache else 'off'}"
    ).render_text())

    if args.stats:
        print()
        print("execution stats:")
        print(ctx.metrics.render_text())
    if args.stats_json:
        with open(args.stats_json, "w", encoding="utf-8") as handle:
            json.dump({"target": args.target, "grid_points":
                       len(sweep.records), **sweep.stats},
                      handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote execution stats to {args.stats_json}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    import json

    spec = ExperimentSpec.from_file(args.spec)
    ctx = context_from_args(args)
    result = run_experiment(spec, ctx, persist=not args.no_persist)
    _print_run(result, ctx, args.stats)
    if not args.golden:
        return 0
    try:
        with open(args.golden, "r", encoding="utf-8") as handle:
            golden = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read golden file "
                         f"{args.golden!r}: {exc}")
    entry = golden.get(spec.name)
    if entry is None:
        raise ReproError(
            f"golden file {args.golden!r} has no entry for "
            f"spec {spec.name!r}")
    drift = [f"  {field}: golden {entry.get(field)} != run "
             f"{getattr(result.manifest, field)}"
             for field in ("spec_digest", "result_digest")
             if entry.get(field) != getattr(result.manifest, field)]
    if drift:
        print(f"GOLDEN DRIFT for {spec.name!r}:", file=sys.stderr)
        for line in drift:
            print(line, file=sys.stderr)
        return 1
    print(f"golden: spec and result digests match {args.golden}")
    return 0


def _parse_oracle_arg(arg: str):
    """``name[:k=v,...]`` -> ``(name, {k: v})`` with JSON-typed values."""
    import json

    name, _, rest = arg.partition(":")
    name = name.strip()
    if not name:
        raise ReproError(f"bad --oracle {arg!r}: empty oracle name")
    params = {}
    if rest:
        for piece in rest.split(","):
            key, sep, raw = piece.partition("=")
            if not sep or not key.strip():
                raise ReproError(
                    f"bad --oracle {arg!r}: expected NAME[:k=v,...], "
                    f"got parameter piece {piece!r}")
            try:
                params[key.strip()] = json.loads(raw)
            except ValueError:
                params[key.strip()] = raw
    return name, params


def cmd_chaos(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from .chaos import default_oracles, get_oracle
    from .chaos.runner import _campaign_point
    from .chaos.spec import CampaignSpec, OracleSpec
    from .exec.seeding import canonical_json
    from .experiment.spec import ScenarioSpec

    spec = ExperimentSpec.from_file(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    oracle_items = [_parse_oracle_arg(a) for a in args.oracle or []]
    for name, _ in oracle_items:
        get_oracle(name)  # fail fast with the known-oracle list

    if isinstance(spec, ScenarioSpec):
        # Replay mode: judge one concrete schedule (e.g. a shrunk
        # repro-*.json artifact) against the oracles, in-process.
        oracle_items = oracle_items or [(n, {}) for n in default_oracles()]
        result = _campaign_point(
            spec.to_json(),
            canonical_json([[n, p] for n, p in oracle_items]),
            canonical_json(None))
        print(f"replayed schedule {spec.name!r} "
              f"(seed {spec.seed}) against "
              f"{len(oracle_items)} oracle(s)")
        for key in sorted(result["summary"]):
            print(f"  {key}: {result['summary'][key]}")
        if result["violations"]:
            for oracle, msgs in sorted(result["violations"].items()):
                for msg in msgs:
                    print(f"VIOLATION {oracle}: {msg}", file=sys.stderr)
            return 1
        print("every oracle held")
        return 0

    if not isinstance(spec, CampaignSpec):
        raise ReproError(
            f"`repro chaos` needs a campaign or scenario spec, got "
            f"kind {spec.kind!r} from {args.spec!r}")
    if oracle_items:
        spec = dataclasses.replace(spec, oracles=tuple(
            OracleSpec(name=n, params=tuple(sorted(p.items())))
            for n, p in oracle_items))
    ctx = context_from_args(args)
    result = run_experiment(spec, ctx, persist=not args.no_persist)
    _print_run(result, ctx, args.stats)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(result.payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote campaign report to {args.report}")
    return 1 if result.manifest.summary.get("failed") else 0


def cmd_specs(args: argparse.Namespace) -> int:
    import hashlib
    import json

    from .exec.seeding import canonical_json
    from .experiment import lazy_spec_kinds, spec_kinds
    from .experiment.spec import SPEC_SCHEMA_VERSION

    root = pathlib.Path(args.dir)
    if not root.is_dir():
        raise ReproError(f"no spec directory {str(root)!r}")
    rows = []
    bad = 0
    for path in sorted(root.glob("*.json")):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:
            bad += 1
            rows.append([path.name, "-", "-", "-", "-",
                         f"UNREADABLE: {exc}"])
            continue
        if not isinstance(data, dict) or "kind" not in data:
            continue  # sidecar JSON (e.g. golden.json), not a spec
        kind = data.get("kind")
        if kind in lazy_spec_kinds():
            # Listing must not import optional subsystems as a side
            # effect; committed lazy-kind specs are full `save()` dumps,
            # so their canonical-JSON hash IS the parsed spec's digest.
            if data.get("schema") != SPEC_SCHEMA_VERSION or \
                    not data.get("name"):
                bad += 1
                rows.append([path.name, str(kind), "-", "-", "-",
                             "UNREADABLE: bad schema or missing name"])
                continue
            digest = hashlib.sha256(
                canonical_json(data).encode("utf-8")).hexdigest()
            rows.append([path.name, str(kind), data["name"],
                         int(data.get("seed", 0)), digest[:12],
                         str(data.get("description", ""))])
            continue
        if kind not in spec_kinds():
            bad += 1
            rows.append([path.name, str(kind), "-", "-", "-",
                         f"UNREADABLE: unknown kind {kind!r}"])
            continue
        try:
            spec = ExperimentSpec.from_dict(data)
        except ConfigurationError as exc:
            bad += 1
            rows.append([path.name, "-", "-", "-", "-",
                         f"UNREADABLE: {exc}"])
            continue
        rows.append([path.name, spec.kind, spec.name, spec.seed,
                     spec.digest()[:12], spec.description])
    if not rows:
        print(f"no *.json specs under {root}/")
        return 0
    table = ResultTable(f"specs under {root}/",
                        ["file", "kind", "name", "seed", "digest",
                         "description"])
    for row in rows:
        table.add_row(row)
    print(table.render_text())
    return 1 if bad else 0


def _check_output_file(path: str, flag: str) -> None:
    """Fail unless ``path`` can be written as a file (creating its
    parent directory), so a bad path fails before any work."""
    target = pathlib.Path(path)
    if target.is_dir():
        raise ConfigurationError(f"{flag} {path!r} is a directory")
    _usable_dir(target.parent, f"{flag} {path!r}: directory", create=True)


def cmd_bench(args: argparse.Namespace) -> int:
    from . import bench

    # Every flag is checked before the suite is timed.
    if args.repeats < 1:
        raise ConfigurationError(
            f"--repeats must be at least 1, got {args.repeats}")
    if args.tolerance < 0:
        raise ConfigurationError("--tolerance must be non-negative")
    names = None
    if args.only is not None:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
        if not names:
            raise ConfigurationError("--only names no scenario")
        bench.select(names)
    for path, flag in ((args.out, "--out"),
                       (args.write_baseline, "--write-baseline")):
        if path:
            _check_output_file(path, flag)
    baseline = None
    if args.compare:
        baseline = bench.load_baseline(args.compare)
        if bool(baseline.get("quick")) != args.quick:
            raise ConfigurationError(
                f"refusing to compare with {args.compare!r}: one of it and "
                "this run is in quick mode and the other is not; their "
                "workloads differ")

    def progress(name: str, seconds: float) -> None:
        print(f"  {name:<24s} {seconds * 1000:10.1f} ms")

    print("running bench suite"
          + (" (quick mode)" if args.quick else "") + ":")
    payload = bench.run_suite(names, repeats=args.repeats,
                              quick=args.quick, progress=progress)
    print(f"  {'calibration':<24s} "
          f"{payload['calibration'] * 1000:10.1f} ms")

    if args.out:
        bench.write_json(payload, args.out)
        print(f"wrote results to {args.out}")
    if args.write_baseline:
        bench.write_json(payload, args.write_baseline)
        print(f"wrote baseline to {args.write_baseline}")

    if baseline is None:
        return 0
    rows = bench.compare(payload, baseline, tolerance=args.tolerance)
    if not rows:
        print(f"no shared scenarios between this run and {args.compare}")
        return 0
    table = ResultTable(
        f"vs baseline {args.compare} (tolerance {args.tolerance:.0%})",
        ["scenario", "baseline", "current", "ratio", "status"])
    regressions = 0
    for row in rows:
        regressed = bool(row["regressed"])
        regressions += regressed
        table.add_row([
            row["name"],
            f"{row['baseline_s'] * 1000:.1f}ms",
            f"{row['current_s'] * 1000:.1f}ms",
            f"{row['ratio']:.2f}x",
            "REGRESSED" if regressed else "ok",
        ])
    print(table.render_text())
    if regressions:
        print(f"{regressions} scenario(s) regressed beyond "
              f"{args.tolerance:.0%}", file=sys.stderr)
        return 1
    return 0


def cmd_upgrade(args: argparse.Namespace) -> int:
    bundle = build_design(args.design)
    hosts = bundle.dtns
    plan = plan_upgrade(bundle.topology, science_hosts=hosts,
                        border=bundle.border, wan=bundle.wan)
    print("BEFORE:")
    print(plan.before.render_text())
    print()
    if not plan.needed:
        print("design already passes; nothing to do")
        return 0
    result = apply_upgrade(bundle.topology, science_hosts=hosts,
                           border=bundle.border, wan=bundle.wan)
    print(result.render_text())
    print()
    print("AFTER:")
    print(result.after.render_text())
    return 0 if result.successful else 1


def _default_serve_url() -> str:
    import os

    from .serve import DEFAULT_HOST, DEFAULT_PORT

    return os.environ.get("REPRO_SERVE_URL",
                          f"http://{DEFAULT_HOST}:{DEFAULT_PORT}")


def cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ExperimentService, serve_forever

    ctx = context_from_args(args, default_workers=2)
    service = ExperimentService(
        workers=ctx.workers,
        capacity=args.capacity,
        cache=ctx.cache,
        state_dir=args.state_dir,
        inner_workers=args.inner_workers,
    )
    serve_forever(service, host=args.host, port=args.port)
    return EXIT_OK


def cmd_submit(args: argparse.Namespace) -> int:
    import json

    from .serve import ServiceClient

    # Parse locally first: a bad spec is the *user's* problem (exit 2)
    # and should not need a round-trip to find out.
    spec = ExperimentSpec.from_file(args.spec)
    client = ServiceClient(args.url, timeout=args.timeout)

    job = client.submit(json.loads(spec.to_json()), tenant=args.tenant,
                        priority=args.priority)
    if args.no_wait:
        if args.json:
            print(json.dumps(job, indent=2, sort_keys=True))
        else:
            print(f"submitted {job['id']}: {spec.kind} {spec.name!r} "
                  f"state={job['state']}"
                  + (f" (deduped: {job['deduped']})"
                     if job.get("deduped") else ""))
        return EXIT_OK

    result = client.result(job["id"], timeout=args.timeout)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return EXIT_OK
    manifest = result.get("manifest") or {}
    print(f"{result['kind']} {result['name']!r}: job {result['id']} "
          f"{result['state']}"
          + (f" (deduped: {result['deduped']})"
             if result.get("deduped") else ""))
    for key in sorted(manifest.get("summary") or {}):
        print(f"  {key}: {manifest['summary'][key]}")
    print(f"  spec digest:     {manifest.get('spec_digest')}")
    print(f"  result digest:   {manifest.get('result_digest')}")
    latency = result.get("queue_latency_s")
    if latency is not None:
        print(f"  queue latency:   {latency * 1000:.1f} ms")
    return EXIT_OK


def cmd_jobs(args: argparse.Namespace) -> int:
    import json

    from .serve import ServiceClient

    client = ServiceClient(args.url, timeout=args.timeout)
    if args.metrics:
        print(json.dumps(client.metrics(), indent=2, sort_keys=True))
        return EXIT_OK
    rows = client.jobs(tenant=args.tenant, limit=args.limit)
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return EXIT_OK
    if not rows:
        print("no jobs")
        return EXIT_OK
    table = ResultTable(
        f"jobs at {args.url}",
        ["id", "tenant", "prio", "kind", "name", "state", "dedup",
         "points"])
    for job in rows:
        done = job.get("points_done")
        total = job.get("points_total")
        points = f"{done}/{total}" if total else (str(done) if done
                                                  else "-")
        table.add_row([job["id"], job["tenant"], job["priority"],
                       job["kind"], job["name"], job["state"],
                       job.get("deduped") or "-", points])
    print(table.render_text())
    return EXIT_OK


def _add_run_settings(parser: argparse.ArgumentParser, *,
                      workers_help: str = "process-pool size (default: "
                                          "$REPRO_WORKERS or 1)",
                      artifacts: bool = False) -> None:
    """The run-setting flags :func:`context_from_args` reads."""
    parser.add_argument("--workers", type=int, default=None,
                        help=workers_help)
    parser.add_argument("--cache", action="store_true",
                        help="use the result cache under .repro-cache/ "
                             "(default: $REPRO_CACHE, which is 1 for "
                             ".repro-cache/ or a cache directory)")
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory (implies --cache)")
    if artifacts:
        parser.add_argument("--artifacts", default=None,
                            help="artifact directory (default "
                                 "runs/<spec name>/)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Science DMZ design-pattern simulator (SC'13 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("designs", help="list built-in designs").set_defaults(
        func=cmd_designs)

    p_audit = sub.add_parser("audit", help="run the four-pattern audit")
    p_audit.add_argument("design", choices=sorted(DESIGNS))
    p_audit.set_defaults(func=cmd_audit)

    p_xfer = sub.add_parser("transfer", help="simulate a data transfer")
    p_xfer.add_argument("design", choices=sorted(DESIGNS))
    p_xfer.add_argument("--size", default="100GB",
                        help="dataset size, e.g. 239.5GB (default 100GB)")
    p_xfer.add_argument("--files", type=int, default=100,
                        help="file count (default 100)")
    p_xfer.add_argument("--tool", default="globus",
                        choices=sorted(TOOL_REGISTRY),
                        help="transfer tool (default globus)")
    p_xfer.add_argument("--dst", default=None,
                        help="destination host (default: the design's "
                             "first DTN)")
    p_xfer.add_argument("--via-firewall", action="store_true",
                        help="do not apply the science routing policy")
    p_xfer.add_argument("--seed", type=int, default=0)
    p_xfer.set_defaults(func=cmd_transfer)

    p_math = sub.add_parser("mathis", help="Eq 1 / Eq 2 calculator")
    p_math.add_argument("--mss", default="1460B")
    p_math.add_argument("--rtt", default="50ms")
    p_math.add_argument("--loss", type=float, default=None,
                        help="per-packet loss probability")
    p_math.add_argument("--rate", default=None,
                        help="target rate for the window calculation, "
                             "e.g. 1Gbps")
    p_math.set_defaults(func=cmd_mathis)

    p_lint = sub.add_parser("lint",
                            help="run §5 path-hygiene checks on a design")
    p_lint.add_argument("design", choices=sorted(DESIGNS))
    p_lint.add_argument("--dst", default=None,
                        help="destination host (default: first DTN)")
    p_lint.add_argument("--via-firewall", action="store_true",
                        help="lint the firewalled path instead")
    p_lint.set_defaults(func=cmd_lint)

    p_exp = sub.add_parser("export",
                           help="serialize a built-in design to JSON")
    p_exp.add_argument("design", choices=sorted(DESIGNS))
    p_exp.add_argument("--output", "-o", default=None,
                       help="file path (default: stdout)")
    p_exp.set_defaults(func=cmd_export)

    p_desc = sub.add_parser("describe",
                            help="summarize a serialized topology file")
    p_desc.add_argument("file")
    p_desc.set_defaults(func=cmd_describe)

    p_up = sub.add_parser("upgrade",
                          help="plan + apply a Science DMZ upgrade")
    p_up.add_argument("design", nargs="?",
                      default="general-purpose-campus",
                      choices=sorted(DESIGNS))
    p_up.set_defaults(func=cmd_upgrade)

    p_trace = sub.add_parser(
        "trace",
        help="run a traced soft-failure scenario and export the event log")
    p_trace.add_argument("design", choices=sorted(DESIGNS))
    p_trace.add_argument("--fault", default="linecard",
                         choices=sorted(TRACE_FAULTS),
                         help="soft failure to inject (default linecard)")
    p_trace.add_argument("--node", default=None,
                         help="node to fault (default: the design's border)")
    p_trace.add_argument("--at", default="30m",
                         help="fault onset time (default 30m)")
    p_trace.add_argument("--repair-at", default=None,
                         help="repair time (default: never)")
    p_trace.add_argument("--until", default="2h",
                         help="scenario horizon (default 2h)")
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--out", "-o", default=None,
                         help="Chrome trace_event JSON path "
                              "(default <design>.trace.json)")
    p_trace.add_argument("--jsonl", default=None,
                         help="also write the raw event log as JSONL here")
    p_trace.add_argument("--tail", type=int, default=15,
                         help="flight-recorder tail lines to print "
                              "(0 to suppress; default 15)")
    p_trace.set_defaults(func=cmd_trace)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a parameter sweep (parallel, with a result cache)")
    p_sweep.add_argument("target", choices=["mathis"],
                         help="what to sweep (mathis: Eq 1 over "
                              "loss x RTT, the Figure 1 grid)")
    p_sweep.add_argument("--rtt", default="1,2,5,10,20,40,60,80,100",
                         help="comma-separated RTTs in ms "
                              "(default: the Figure 1 sweep)")
    p_sweep.add_argument("--loss", default="4.5455e-5",
                         help="comma-separated loss probabilities "
                              "(default: the paper's 1/22000)")
    p_sweep.add_argument("--mss", default="9000B",
                         help="segment size (default 9000B jumbo)")
    _add_run_settings(p_sweep)
    p_sweep.add_argument("--stats", action="store_true",
                         help="print execution/cache telemetry counters")
    p_sweep.add_argument("--stats-json", default=None,
                         help="also write the counters as JSON here "
                              "(CI artifact)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_run = sub.add_parser(
        "run",
        help="execute an experiment spec JSON and write its manifest")
    p_run.add_argument("spec", help="path to a spec file (see `repro specs`)")
    _add_run_settings(p_run, artifacts=True)
    p_run.add_argument("--no-persist", action="store_true",
                       help="do not write spec/result/manifest files "
                            "(digests are printed regardless)")
    p_run.add_argument("--stats", action="store_true",
                       help="print execution/cache telemetry counters")
    p_run.add_argument("--golden", default=None, metavar="GOLDEN_JSON",
                       help="compare spec/result digests against this "
                            "recorded ledger; exit 1 on drift")
    p_run.add_argument("--backend", default=None, choices=SIM_ENGINES,
                       help="simulation engine (default: $REPRO_BACKEND "
                            "or numpy); fluid/hybrid are the approximate "
                            "mean-field tier and fork the cache identity")
    p_run.set_defaults(func=cmd_run)

    p_chaos = sub.add_parser(
        "chaos",
        help="run a fault campaign against invariant oracles "
             "(exit 1 on violation)")
    p_chaos.add_argument("spec",
                         help="campaign spec JSON, or a scenario spec "
                              "(e.g. a shrunk repro-*.json) to replay")
    p_chaos.add_argument("--seed", type=int, default=None,
                         help="override the spec's root seed")
    p_chaos.add_argument("--oracle", action="append", metavar="NAME[:k=v,..]",
                         help="oracle to apply (repeatable); replaces the "
                              "spec's oracle set")
    _add_run_settings(p_chaos, artifacts=True)
    p_chaos.add_argument("--no-persist", action="store_true",
                         help="skip writing artifacts (digests are "
                              "computed regardless)")
    p_chaos.add_argument("--report", default=None, metavar="PATH",
                         help="also write the campaign report JSON here")
    p_chaos.add_argument("--stats", action="store_true",
                         help="print execution/cache telemetry counters")
    p_chaos.set_defaults(func=cmd_chaos)

    p_specs = sub.add_parser(
        "specs", help="list experiment spec files with their digests")
    p_specs.add_argument("--dir", default="specs",
                         help="directory to scan (default specs/)")
    p_specs.set_defaults(func=cmd_specs)

    p_bench = sub.add_parser(
        "bench",
        help="time the simulator hot paths and gate against a baseline")
    p_bench.add_argument("--quick", action="store_true",
                         help="shrunk workloads (CI smoke; compare only "
                              "against a --quick baseline)")
    p_bench.add_argument("--repeats", type=int, default=3,
                         help="timed runs per scenario; best is kept "
                              "(default 3)")
    p_bench.add_argument("--only", default=None,
                         help="comma-separated scenario names "
                              "(default: all)")
    p_bench.add_argument("--out", "-o", default=None,
                         help="write this run's results JSON here")
    p_bench.add_argument("--compare", default=None, metavar="BASELINE",
                         help="compare against a baseline JSON; exit 1 "
                              "on regression")
    p_bench.add_argument("--write-baseline", default=None, metavar="PATH",
                         help="write this run as the new baseline JSON")
    p_bench.add_argument("--tolerance", type=float, default=0.30,
                         help="allowed normalized slowdown before "
                              "--compare fails (default 0.30)")
    p_bench.set_defaults(func=cmd_bench)

    p_serve = sub.add_parser(
        "serve",
        help="run the multi-tenant experiment service (SIGTERM drains)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8351,
                         help="listen port (0 picks a free one; "
                              "default 8351)")
    p_serve.add_argument("--capacity", type=int, default=1024,
                         help="queue bound before 429s (default 1024)")
    _add_run_settings(p_serve, workers_help="concurrent jobs (default: "
                                            "$REPRO_WORKERS or 2)")
    p_serve.add_argument("--state-dir", default=None,
                         help="persist the queue here on drain and "
                              "restore it on start")
    p_serve.add_argument("--inner-workers", type=int, default=1,
                         help="process-pool size within one job "
                              "(default 1: jobs are the parallelism)")
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit",
        help="submit a spec to a running service and wait for digests")
    p_submit.add_argument("spec", help="path to a spec file")
    p_submit.add_argument("--url", default=_default_serve_url(),
                          help="service URL (default $REPRO_SERVE_URL "
                               "or the local default port)")
    p_submit.add_argument("--tenant", default="cli",
                          help="tenant name for fair queueing "
                               "(default cli)")
    p_submit.add_argument("--priority", default="normal",
                          choices=["interactive", "normal", "batch"])
    p_submit.add_argument("--timeout", type=float, default=300.0,
                          help="seconds to wait for the result "
                               "(default 300)")
    p_submit.add_argument("--no-wait", action="store_true",
                          help="return after admission; poll with "
                               "`repro jobs`")
    p_submit.add_argument("--json", action="store_true",
                          help="print the raw job document as JSON")
    p_submit.set_defaults(func=cmd_submit)

    p_jobs = sub.add_parser(
        "jobs", help="list a service's jobs / show its metrics")
    p_jobs.add_argument("--url", default=_default_serve_url())
    p_jobs.add_argument("--tenant", default=None,
                        help="only this tenant's jobs")
    p_jobs.add_argument("--limit", type=int, default=None,
                        help="only the most recent N jobs")
    p_jobs.add_argument("--metrics", action="store_true",
                        help="print the service metrics snapshot instead")
    p_jobs.add_argument("--json", action="store_true")
    p_jobs.add_argument("--timeout", type=float, default=30.0)
    p_jobs.set_defaults(func=cmd_jobs)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Resolve the process-default engine now, so a bad REPRO_BACKEND
        # is the standard exit-2 error rather than a traceback from the
        # first kernel call (or from inside a pool worker).
        resolve_engine()
        return args.func(args)
    except ServeError as exc:
        # Operational failure (unreachable service, failed job, full
        # queue after retries) — the invocation was fine.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_FAILURE
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
