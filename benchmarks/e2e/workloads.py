"""The in-process workloads: committed specs, megaflows, exact matrix.

Each workload is a class with the same life cycle, driven by
``run.py`` inside a fresh child process:

``setup()``
    Untimed warm-up: imports, caches, anything users pay once.
``measure(seconds)``
    Timed ops until the window is full.  Each ``op(k, traced)`` runs
    input ``k`` and records its times, corrected for host contention,
    under ``latency_s`` (what a user waits for) and ``pipeline_s`` (the
    same path without simulation work), and counts every attempted and
    failed operation.  Traced ops
    run with the layer spans installed and keep their samples apart, so
    the two can be compared input by input.
``finish()``
    Untimed checks after the window (offline cross-checks) and the
    ``inputs_digest`` / ``outputs_digest`` of the run.

The seed only generates inputs; the library under test receives the
generated specs and flow demands, never the seed.  The serve workload
lives in ``loadgen.py`` because it drives a server process instead.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib
import resource
import time
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

# Layer entry points are looked up on their modules at call time, so
# the traced pass's wrappers see the benchmark's own calls too.
from repro import experiment
from repro import workloads as wl
from repro.exec.cache import ResultCache
from repro.tcp.simulate import MultiFlowSimulation
from repro.units import MB, seconds

from layers import SpanRecorder, layer_table
from probe import SpeedProbe
from summary import percentile

SPECS_DIR = pathlib.Path(__file__).resolve().parents[2] / "specs"


def sha256_json(data: object) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: The op times behind the ``latency_ms`` and ``pipeline_ms`` metrics.
TIMES = ("latency_s", "pipeline_s")


class Workload:
    """Shared bookkeeping; subclasses fill in setup/op/finish."""

    name = ""
    #: Distinct inputs the ops cycle through.
    n_inputs = 1
    #: Root kind the layer table is normalized by, and per-layer
    #: overrides for layers that serve another kind of op.
    main_root = "run"
    layer_homes: Dict[str, str] = {}

    def __init__(self, seed: int, *, quick: bool, workdir: pathlib.Path,
                 trace: bool, probe: SpeedProbe,
                 inject_mismatch: bool = False) -> None:
        self.seed = int(seed)
        self.quick = quick
        self.workdir = workdir
        self.trace = trace
        #: Interpreter speed of the process doing the work; op times
        #: are corrected by it (see ``probe.py``).
        self.speed = probe
        self.recorder = SpanRecorder()
        self.inject_mismatch = inject_mismatch
        #: Corrected op times by kind and input, of untraced and of
        #: traced ops, and the untraced ones as measured.
        self.samples: Dict[str, Dict[int, List[float]]] = {
            kind: {} for kind in TIMES}
        self.traced: Dict[str, Dict[int, List[float]]] = {
            kind: {} for kind in TIMES}
        self.wall: Dict[str, Dict[int, List[float]]] = {
            kind: {} for kind in TIMES}
        self.attempted = 0
        self.failures: List[str] = []
        self.inputs_digest: Optional[str] = None
        self.outputs_digest: Optional[str] = None
        self.info: Dict[str, object] = {}
        #: Set-up wall time and its span on the clock of ``speed``, when
        #: the workload measures them itself; otherwise the child's
        #: interpreter start to the first timed op.
        self.setup_wall: Optional[float] = None
        self.setup_span: Optional[Tuple[float, float]] = None
        self.rss_mb: Optional[float] = None
        #: False when the run cannot stand for the system's speed.
        self.valid = True

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def root(self, traced: bool, kind: str):
        """A root span for a traced op, nothing for an untraced one."""
        return (self.recorder.root(kind) if traced
                else contextlib.nullcontext())

    def record(self, traced: bool, kind: str, k: int, start: float,
               end: float, seconds: Optional[float] = None) -> None:
        """One op time of ``kind`` on input ``k``: ``seconds`` (by
        default ``end - start``) taken between ``start`` and ``end`` on
        the clock of :attr:`speed`."""
        wall = end - start if seconds is None else seconds
        sink = self.traced if traced else self.samples
        sink[kind].setdefault(k, []).append(
            wall * self.speed.factor(start, end))
        if not traced:
            self.wall[kind].setdefault(k, []).append(wall)

    def corrected_setup(self) -> Optional[float]:
        if self.setup_wall is None:
            return None
        return self.setup_wall * self.speed.factor(*self.setup_span)

    def estimate(self, kind: str, *, traced: bool = False,
                 inputs: Optional[Set[int]] = None) -> Optional[float]:
        """Mean over inputs (all timed ones, or ``inputs``) of the
        median of each input's corrected op times."""
        by_input = (self.traced if traced else self.samples)[kind]
        keys = [k for k in by_input if inputs is None or k in inputs]
        if not keys:
            return None
        return sum(percentile(by_input[k], 0.5) for k in keys) / len(keys)

    def n_samples(self, kind: str) -> int:
        return sum(len(v) for v in self.samples[kind].values())

    def setup(self) -> None:
        pass

    def measure(self, seconds: float) -> None:
        """Run ops until the next one would end past the window.

        Ops come in pairs on one input, cycling through the inputs.  In
        a traced run the second op of each pair has the layer spans
        installed, so every input is timed both ways in the same
        window, and the window holds at least one pair per input.
        """
        min_ops = 2 * self.n_inputs if self.trace else 1
        start = time.perf_counter()
        n = 0
        while True:
            began = time.perf_counter()
            self.op((n // 2) % self.n_inputs,
                    traced=self.trace and n % 2 == 1)
            n += 1
            now = time.perf_counter()
            if n >= min_ops and now - start + (now - began) > seconds:
                break
        # Before the untimed checks, whose digests of 100k-flow inputs
        # would otherwise set the peak.
        self.rss_mb = self._maxrss_mb()

    def op(self, k: int, traced: bool) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        pass

    def close(self) -> None:
        pass

    @staticmethod
    def _maxrss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def peak_rss_mb(self) -> Optional[float]:
        """Peak resident memory of set-up and the timed ops."""
        return self.rss_mb if self.rss_mb is not None else self._maxrss_mb()

    def layer_metrics(self) -> Dict[str, float]:
        """The per-layer table of a traced run, with the tracing cost:
        the traced latency over the untraced one, on the inputs timed
        both ways."""
        if not self.trace:
            return {}
        out = layer_table(self.recorder, self.main_root, self.layer_homes)
        both = set(self.samples["latency_s"]) & set(self.traced["latency_s"])
        if both:
            out["trace.overhead_frac"] = (
                self.estimate("latency_s", traced=True, inputs=both)
                / self.estimate("latency_s", inputs=both) - 1.0)
        return out


class SpecsWorkload(Workload):
    """Every committed spec through ``run_experiment``, cold and warm.

    One op is a cycle: a cold round (every spec, no cache, in the
    seed's order) and then ``warm_rounds`` warm rounds answered by a
    :class:`ResultCache` that set-up filled.  A cold round's time is a
    latency sample; each warm round's time is a pipeline sample.
    """

    name = "specs"
    main_root = "cold"
    layer_homes = {
        "experiment.parse": "warm",
        "experiment.run": "warm",
        "exec.map": "warm",
        "exec.cache.load": "warm",
        "exec.cache.store": "setup",
    }

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        files = sorted(p for p in SPECS_DIR.glob("*.json")
                       if p.name != "golden.json")
        self.texts = {p.name: p.read_text(encoding="utf-8") for p in files}
        rng = np.random.default_rng(self.seed)
        self.order = [files[i].name for i in rng.permutation(len(files))]
        self.warm_rounds = 1 if self.quick else 6
        self.expected: Dict[str, str] = {}
        self.cache: Optional[ResultCache] = None
        self.inputs_digest = sha256_json({
            "order": self.order,
            "texts": {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
                      for name, text in self.texts.items()},
        })

    def _round(self, cache: Optional[ResultCache]) -> Dict[str, str]:
        """Run every spec once; returns ``{file: result digest}``."""
        digests: Dict[str, str] = {}
        for name in self.order:
            self.attempted += 1
            try:
                spec = experiment.ExperimentSpec.from_json(self.texts[name])
                result = experiment.run_experiment(
                    spec, experiment.RunContext(cache=cache), persist=False)
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                self.fail(f"{name}: {type(exc).__name__}: {exc}")
                continue
            digests[name] = result.manifest.result_digest
            expected = self.expected.get(name)
            if expected is not None and digests[name] != expected:
                self.fail(f"{name}: result digest {digests[name][:12]} "
                          f"!= expected {expected[:12]}")
        return digests

    def setup(self) -> None:
        """One untimed round that also fills the warm rounds' cache."""
        golden = json.loads(
            (SPECS_DIR / "golden.json").read_text(encoding="utf-8"))
        self.cache = ResultCache(self.workdir / "result-cache")
        with self.recorder.active(self.trace), \
                self.root(self.trace, "setup"):
            digests = self._round(self.cache)
        for name, digest in digests.items():
            spec_name = json.loads(self.texts[name]).get("name")
            reference = golden.get(spec_name, {}).get("result_digest")
            if reference is not None and reference != digest:
                self.fail(f"{name}: set-up digest {digest[:12]} does not "
                          "match specs/golden.json")
            self.expected[name] = reference or digest
        self.outputs_digest = sha256_json(self.expected)
        if self.inject_mismatch:
            self.expected[self.order[0]] = "0" * 64

    def op(self, k: int, traced: bool) -> None:
        with self.recorder.active(traced):
            t0 = time.perf_counter()
            with self.root(traced, "cold"):
                self._round(None)
            self.record(traced, "latency_s", k, t0, time.perf_counter())
            for _ in range(self.warm_rounds):
                misses = self.cache.misses
                t0 = time.perf_counter()
                with self.root(traced, "warm"):
                    self._round(self.cache)
                self.record(traced, "pipeline_s", k, t0, time.perf_counter())
                if self.cache.misses != misses:
                    self.fail("a warm round missed the result cache")

    def finish(self) -> None:
        self.info["cache"] = self.cache.stats()


N_SITES = 12
SITES = [f"site{i}" for i in range(N_SITES)]


class MatrixWorkload(Workload):
    """A gravity traffic matrix on the WAN backbone, hybrid engine.

    One op builds the backbone and the matrix, constructs the
    simulation, runs it to completion and tallies per-flow progress.
    The whole op is a latency sample; the part before the tick loop
    (backbone, matrix, simulation set-up) is a pipeline sample.  Ops
    cycle through ``n_inputs`` matrices drawn from the seed; averaging
    each matrix's fastest run keeps one matrix's cost from deciding the
    metric.
    """

    n_flows = 0
    matrix_kwargs: Dict[str, object] = {}

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.seeds = np.random.SeedSequence(self.seed).spawn(self.n_inputs)
        #: Output digest (per-flow delivered bits and finish times) of
        #: each input's first run.
        self.reference: Dict[int, str] = {}

    def _matrix(self, k: int):
        return wl.traffic_matrix(SITES, n_flows=self.n_flows,
                                 rng=np.random.default_rng(self.seeds[k]),
                                 **self.matrix_kwargs)

    def _simulate(self, k: int, backend: str = "hybrid"):
        """``(sim, seconds before the tick loop, requested, delivered,
        finish)`` for input ``k``."""
        t0 = time.perf_counter()
        topology = wl.wan_backbone(N_SITES)
        sim = MultiFlowSimulation(topology, self._matrix(k).specs(),
                                  backend=backend)
        built = time.perf_counter() - t0
        progress = sim.run().values()
        requested = np.array([p.spec.size.bits for p in progress])
        delivered = np.array([p.delivered.bits for p in progress])
        finish = np.array([np.nan if p.finish_time is None
                           else p.finish_time.s for p in progress])
        return sim, built, requested, delivered, finish

    def setup(self) -> None:
        """Touch both engine tiers once so lazy imports are paid here."""
        for n_flows in (8, 300):
            matrix = wl.traffic_matrix(
                SITES, n_flows=n_flows, rng=np.random.default_rng(0),
                mean_size=MB(1), arrival_window=seconds(1))
            MultiFlowSimulation(wl.wan_backbone(N_SITES), matrix.specs(),
                                backend="hybrid").run()

    def _check(self, k: int, requested: np.ndarray, delivered: np.ndarray,
               finish: np.ndarray) -> str:
        unfinished = int(np.isnan(finish).sum())
        if unfinished:
            self.fail(f"input {k}: {unfinished} flows did not finish")
        if not np.allclose(delivered, requested, rtol=1e-9, atol=0.0):
            worst = float(np.max(np.abs(delivered - requested) / requested))
            self.fail(f"input {k}: delivered bits differ from requested "
                      f"(worst relative error {worst:.3g})")
        return hashlib.sha256(delivered.tobytes()
                              + finish.tobytes()).hexdigest()

    def _record(self, k: int, digest: str) -> None:
        """Keep the first output digest of input ``k``; later runs of
        the same input must reproduce it."""
        if k not in self.reference:
            self.reference[k] = "0" * 64 if self.inject_mismatch else digest
        elif digest != self.reference[k]:
            self.fail(f"input {k}: output digest {digest[:12]} differs "
                      f"from the first run's {self.reference[k][:12]}")

    def op(self, k: int, traced: bool) -> None:
        self.attempted += 1
        with self.recorder.active(traced):
            t0 = time.perf_counter()
            with self.root(traced, "run"):
                sim, built, requested, delivered, finish = self._simulate(k)
            self.record(traced, "latency_s", k, t0, time.perf_counter())
        self.record(traced, "pipeline_s", k, t0, t0 + built)
        self.info["engine"] = sim.backend
        fluid = getattr(sim, "fluid_result", None)
        if fluid is not None:
            self.info["ticks"] = fluid.ticks
            self.info["classes"] = fluid.n_classes
        self._record(k, self._check(k, requested, delivered, finish))

    def finish(self) -> None:
        # Inputs a short window never reached still join the digests.
        for k in range(self.n_inputs):
            if k not in self.reference:
                self.attempted += 1
                _, _, requested, delivered, finish = self._simulate(k)
                self._record(k, self._check(k, requested, delivered, finish))
        self.outputs_digest = sha256_json(
            [self.reference[k] for k in range(self.n_inputs)])
        inputs = []
        for k in range(self.n_inputs):
            flows = self._matrix(k).flows
            inputs.append(hashlib.sha256(json.dumps(
                [[f.src, f.dst, f.size.bits, f.start.s, f.parallel_streams]
                 for f in flows]).encode("utf-8")).hexdigest())
        self.inputs_digest = sha256_json(inputs)


class MegaflowsWorkload(MatrixWorkload):
    """100k flows: far above the switchover, so hybrid runs ``fluid``.

    Transfers average 2 MB and arrive within 5 s, so one run takes
    about 2,000 engine ticks over the same ~1,050 flow classes a longer
    matrix would have, and a window holds several runs.
    """

    name = "megaflows"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.n_flows = 5_000 if self.quick else 100_000
        self.matrix_kwargs = {"mean_size": MB(2),
                              "arrival_window": seconds(5)}


class MatrixExactWorkload(MatrixWorkload):
    """255 flows x 4 streams: just under the switchover, so hybrid runs
    the exact ``numpy`` kernel; checked against an explicit numpy run."""

    name = "matrix-exact"
    n_flows = 255

    def __init__(self, *args, **kwargs) -> None:
        self.n_inputs = 2 if kwargs.get("quick") else 6
        super().__init__(*args, **kwargs)
        if self.quick:
            # Same stream count and engine, a tenth of the ticks.
            self.matrix_kwargs = {"mean_size": MB(200)}

    def finish(self) -> None:
        super().finish()
        self.attempted += 1
        _, _, requested, delivered, finish = self._simulate(0, "numpy")
        if self._check(0, requested, delivered, finish) != self.reference[0]:
            self.fail("input 0: backend='numpy' per-flow delivered bits or "
                      "finish times differ from the hybrid run")


WORKLOADS = {cls.name: cls for cls in (SpecsWorkload, MegaflowsWorkload,
                                       MatrixExactWorkload)}
