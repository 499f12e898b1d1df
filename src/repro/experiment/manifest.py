"""RunManifest: the provenance record written on every experiment run.

A manifest answers, for a run that happened, the questions a referee
would ask: *which* experiment (spec digest), *which code* (a version
tag hashed over the package source), *which seed*, *what came out*
(result digest + outcome summary), *what files were produced*
(per-artifact sha256), and *how long it took*.

The manifest splits into a **deterministic core** and a **run section**.
The core — everything above except timings/counters — is a pure
function of ``(spec, code, seed)``; :meth:`RunManifest.digest` hashes
exactly the core, so serial, parallel and cache-warm runs of the same
spec produce the *same digest*, which is what the golden-replay CI job
gates on.  Wall-clock timings, pool size and cache hit/miss counters
are real provenance too, but they legitimately differ run to run, so
they live in the ``run`` section outside the digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..errors import ConfigurationError
from ..exec.seeding import canonical_json

__all__ = ["RunManifest", "package_code_version", "file_sha256"]

#: Bumped when the manifest layout changes incompatibly.
MANIFEST_SCHEMA_VERSION = 1

_CODE_VERSION: Optional[str] = None


def package_code_version() -> str:
    """A short tag that changes when any ``repro`` source file changes.

    sha256 over every ``.py`` file under the installed package, in
    sorted relative-path order.  Used as the manifest's code-version
    tag *and* as the result cache's version component during spec runs,
    so a cache entry can never outlive the code that produced it.
    Computed once per process.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        root = pathlib.Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def file_sha256(path: os.PathLike | str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunManifest:
    """Provenance of one experiment run (see module docs for the split).

    ``summary`` is the run's deterministic outcome summary (alert
    counts, detection delays, best grid point, ...); ``artifacts`` maps
    artifact file names to their sha256.  ``timings``/``stats``/
    ``workers`` are the non-deterministic run section.
    """

    kind: str
    name: str
    spec_digest: str
    code_version: str
    seed: int
    result_digest: str
    summary: Dict[str, object] = field(default_factory=dict)
    artifacts: Dict[str, str] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    stats: Dict[str, int] = field(default_factory=dict)
    workers: int = 1
    #: Resolved simulation engine the run executed on ("numpy",
    #: "fluid", "hybrid").  Run section, not core: the digest does not
    #: fork on it, and approximate engines are kept honest by the cache
    #: identity instead (see ``repro.experiment.runner``).  None on
    #: manifests written before the engine tier existed.
    backend: Optional[str] = None
    #: Artifacts whose bytes legitimately vary run-to-run (e.g. bench
    #: timing payloads); hashed for the record but outside the digest.
    run_artifacts: Dict[str, str] = field(default_factory=dict)

    # -- deterministic core ---------------------------------------------------
    def core(self) -> Dict[str, object]:
        """The digest-covered subset: a pure function of spec+code+seed."""
        return {
            "schema": MANIFEST_SCHEMA_VERSION,
            "kind": self.kind,
            "name": self.name,
            "spec_digest": self.spec_digest,
            "code_version": self.code_version,
            "seed": self.seed,
            "result_digest": self.result_digest,
            "summary": self.summary,
            "artifacts": self.artifacts,
        }

    def core_json(self) -> str:
        """Canonical JSON of the core — byte-identical across reruns."""
        return canonical_json(self.core())

    def digest(self) -> str:
        """sha256 of the core; what golden replays compare."""
        return hashlib.sha256(self.core_json().encode("utf-8")).hexdigest()

    # -- full serialization ---------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        out = self.core()
        out["digest"] = self.digest()
        out["run"] = {
            "timings": self.timings,
            "stats": self.stats,
            "workers": self.workers,
            "backend": self.backend,
            "artifacts": self.run_artifacts,
        }
        return out

    def write(self, path: os.PathLike | str) -> str:
        """Write the full manifest as human-diffable JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return os.fspath(path)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunManifest":
        if data.get("schema") != MANIFEST_SCHEMA_VERSION:
            raise ConfigurationError(
                f"manifest has schema {data.get('schema')!r}; this "
                f"library speaks schema {MANIFEST_SCHEMA_VERSION}")
        run = data.get("run") or {}
        manifest = cls(
            kind=str(data["kind"]),
            name=str(data["name"]),
            spec_digest=str(data["spec_digest"]),
            code_version=str(data["code_version"]),
            seed=int(data["seed"]),
            result_digest=str(data["result_digest"]),
            summary=dict(data.get("summary") or {}),
            artifacts=dict(data.get("artifacts") or {}),
            timings=dict(run.get("timings") or {}),
            stats=dict(run.get("stats") or {}),
            workers=int(run.get("workers", 1)),
            backend=(str(run["backend"])
                     if run.get("backend") is not None else None),
            run_artifacts=dict(run.get("artifacts") or {}),
        )
        recorded = data.get("digest")
        if recorded is not None and recorded != manifest.digest():
            raise ConfigurationError(
                f"manifest digest mismatch: file says {recorded!r}, "
                f"core hashes to {manifest.digest()!r} — the file was "
                "edited after it was written")
        return manifest

    @classmethod
    def from_file(cls, path: os.PathLike | str) -> "RunManifest":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ConfigurationError(f"cannot read manifest {path!r}: {exc}")
        except ValueError as exc:
            raise ConfigurationError(
                f"manifest {path!r} is not valid JSON: {exc}")
        return cls.from_dict(data)
