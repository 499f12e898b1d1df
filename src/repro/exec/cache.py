"""Content-addressed on-disk cache for sweep/benchmark grid points.

Regenerating a paper figure sweeps the same grid over and over while
only the analysis around it changes; the cache turns every repeat into
a disk read.  It follows the in-network-caching observation of
*Analyzing scientific data sharing patterns* (PAPERS.md): scientific
workloads re-request the same objects heavily, so even a simple
content-addressed store removes most of the recomputation.

Keys and layout
---------------
A cache key is ``sha256(canonical_json({fn, params, seed, version}))``
where ``fn`` is the swept function's ``module.qualname``, ``params``
the grid point, ``seed`` the derived per-point seed (or null), and
``version`` a *code version tag* — by default a hash of the function's
source (:func:`code_version_tag`), so editing the function invalidates
its entries without touching anyone else's.  Entries live under::

    .repro-cache/<key[:2]>/<key>.json

one JSON document per grid point, with the stored value, the error (for
sweeps run with ``on_error='record'``), and enough metadata to audit an
entry by hand.

Only values that survive a *strict* JSON round-trip (type-preserving,
so tuples and numpy scalars don't silently become something else) are
stored; everything else counts as ``uncacheable`` and is simply
recomputed each run.  This is what makes cached sweeps byte-identical
to serial ones — the cache never stores a value it cannot reproduce
exactly.

Telemetry
---------
Hit/miss/store/uncacheable/corrupt counters are
:class:`repro.telemetry.Counter` instruments in a
:class:`~repro.telemetry.metrics.MetricsRegistry` under the
``exec.cache`` component, so ``registry.render_text()`` and
``as_dict()`` export them like every other subsystem's metrics.

Concurrency
-----------
The store is safe under concurrent writers — worker pools, the
multi-tenant experiment service (:mod:`repro.serve`), or several
independent processes sharing one cache directory:

* writes go to a private temp file and land via an atomic
  ``os.replace``, so a reader can never observe a torn entry and the
  last concurrent writer of a key simply wins (both wrote the same
  deterministic bytes anyway);
* reads tolerate everything a crashed or racing writer could leave
  behind — missing files, non-UTF-8 garbage, truncated JSON — and
  count it as ``corrupt`` + ``miss`` instead of raising;
* counter updates take a lock, so hit/miss accounting stays exact when
  one cache object is shared across scheduler threads.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import pathlib
import tempfile
import threading
from typing import Callable, Dict, Mapping, Optional

from ..errors import ExecError
from ..telemetry import MetricsRegistry
from .seeding import canonical_json

__all__ = ["ResultCache", "cache_key", "code_version_tag", "function_id",
           "DEFAULT_CACHE_DIR"]

#: Default on-disk location, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Bumped when the entry layout changes; part of every key, so layout
#: changes can never resurface stale payloads.
LAYOUT_VERSION = 1


def code_version_tag(fn: Callable[..., object]) -> str:
    """A short tag that changes when ``fn``'s source changes.

    Hashes the function's source text (falling back to just its
    identity for builtins/callables without source).  Used as the
    default ``version`` component of cache keys: edit the function and
    its old entries silently become misses.
    """
    ident = function_id(fn)
    try:
        source = inspect.getsource(fn)
    except (OSError, TypeError):
        source = ""
    digest = hashlib.sha256(f"{ident}\n{source}".encode("utf-8"))
    return digest.hexdigest()[:16]


def function_id(fn: Callable[..., object]) -> str:
    """A swept function's identity in its cache keys: module.qualname."""
    return f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"


def cache_key(fn_id: str, params: Mapping[str, object],
              seed: Optional[int], version: str) -> str:
    """The sha256 hex key for one grid point.

    Pure function of its arguments via :func:`canonical_json` — no
    ``hash()`` anywhere, so keys are identical across processes,
    platforms and ``PYTHONHASHSEED`` values.
    """
    material = canonical_json({
        "layout": LAYOUT_VERSION,
        "fn": fn_id,
        "params": dict(params),
        "seed": seed,
        "version": version,
    })
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _strictly_roundtrips(value: object, decoded: object) -> bool:
    """True iff ``decoded`` (from JSON) reproduces ``value`` exactly.

    Stricter than ``==``: booleans must stay booleans, ints ints,
    lists lists.  Tuples, numpy scalars, sets etc. all fail here and
    make the value uncacheable rather than subtly different on reload.
    """
    if value is None or value is True or value is False:
        return decoded is value
    vtype = type(value)
    if vtype is int:
        return type(decoded) is int and decoded == value
    if vtype is float:
        return type(decoded) is float and repr(decoded) == repr(value)
    if vtype is str:
        return type(decoded) is str and decoded == value
    if vtype is list:
        return (type(decoded) is list and len(decoded) == len(value)
                and all(_strictly_roundtrips(v, d)
                        for v, d in zip(value, decoded)))
    if vtype is dict:
        return (type(decoded) is dict
                and set(decoded) == {k for k in value}
                and all(type(k) is str for k in value)
                and all(_strictly_roundtrips(value[k], decoded[k])
                        for k in value))
    return False


class ResultCache:
    """Content-addressed store of grid-point outcomes.

    Parameters
    ----------
    root:
        Directory for the entry files (created lazily on first store).
    metrics:
        Optional shared :class:`MetricsRegistry`; by default the cache
        owns a fresh one.  Counters live under component
        ``exec.cache``.
    """

    COMPONENT = "exec.cache"

    def __init__(self, root: os.PathLike | str = DEFAULT_CACHE_DIR, *,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.root = pathlib.Path(root)
        # File operations are lock-free (atomic rename); only the
        # counter read-modify-writes need serializing across threads.
        self._lock = threading.Lock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._hits = self.metrics.counter("hits", component=self.COMPONENT)
        self._misses = self.metrics.counter("misses",
                                            component=self.COMPONENT)
        self._stores = self.metrics.counter("stores",
                                            component=self.COMPONENT)
        self._uncacheable = self.metrics.counter(
            "uncacheable", component=self.COMPONENT)
        self._corrupt = self.metrics.counter("corrupt",
                                             component=self.COMPONENT)

    # -- keys -----------------------------------------------------------------
    def key(self, fn_id: str, params: Mapping[str, object],
            seed: Optional[int] = None, version: str = "") -> str:
        return cache_key(fn_id, params, seed, version)

    def key_for(self, fn: Callable[..., object],
                params: Mapping[str, object],
                seed: Optional[int] = None,
                version: Optional[str] = None) -> str:
        """Key for a live function; derives the version tag if needed."""
        return cache_key(function_id(fn), params, seed,
                         code_version_tag(fn) if version is None else version)

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    # -- read/write -----------------------------------------------------------
    def load(self, key: str) -> Optional[Dict[str, object]]:
        """The stored entry for ``key``, or None (counted as a miss).

        Corrupt or unreadable entries — truncated JSON, non-UTF-8
        bytes, the wrong shape — count separately and behave as
        misses; the next store overwrites them.  A concurrent writer
        can never produce one (writes are atomic), but a crashed tool
        or a stray file in the cache directory can.
        """
        path = self._path(key)
        try:
            text = path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            with self._lock:
                self._misses.inc()
            return None
        except ValueError:
            # UnicodeDecodeError: partially-written or foreign bytes.
            with self._lock:
                self._corrupt.inc()
                self._misses.inc()
            return None
        try:
            entry = json.loads(text)
            if not isinstance(entry, dict) or "ok" not in entry:
                raise ValueError("not a cache entry")
        except ValueError:
            with self._lock:
                self._corrupt.inc()
                self._misses.inc()
            return None
        with self._lock:
            self._hits.inc()
        return entry

    def store(self, key: str, *, fn_id: str,
              params: Mapping[str, object], seed: Optional[int],
              version: str, value: object,
              error: Optional[str] = None) -> bool:
        """Persist one outcome; False if the value is uncacheable.

        Error outcomes (``error is not None``) are always cacheable —
        the simulator is deterministic, so a failure at a grid point is
        as much a result as a number.  Writes are atomic (temp file +
        ``os.replace``), so a crashed run never leaves a torn entry and
        concurrent writers of the same key race harmlessly (last
        replace wins; both wrote identical bytes).
        """
        if error is None:
            try:
                encoded = json.dumps(value, allow_nan=False)
            except (TypeError, ValueError):
                with self._lock:
                    self._uncacheable.inc()
                return False
            if not _strictly_roundtrips(value, json.loads(encoded)):
                with self._lock:
                    self._uncacheable.inc()
                return False
        entry = {
            "key": key,
            "fn": fn_id,
            "params": _portable(params),
            "seed": seed,
            "version": version,
            "layout": LAYOUT_VERSION,
            "ok": error is None,
            "value": value if error is None else None,
            "error": error,
        }
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True)
            os.replace(tmp, path)
        except (TypeError, ValueError, OSError):
            try:
                os.unlink(tmp)
            except OSError:
                pass
            with self._lock:
                self._uncacheable.inc()
            return False
        with self._lock:
            self._stores.inc()
        return True

    def clear(self) -> int:
        """Delete every entry; returns how many were removed.

        Tolerates concurrent writers and clearers: an entry another
        process removed first simply doesn't count toward the total.
        """
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except FileNotFoundError:
                continue
            except OSError as exc:
                raise ExecError(f"cannot clear cache entry {path}: {exc}")
        return removed

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    # -- telemetry ------------------------------------------------------------
    @property
    def hits(self) -> int:
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        return int(self._misses.value)

    @property
    def stores(self) -> int:
        return int(self._stores.value)

    @property
    def uncacheable(self) -> int:
        return int(self._uncacheable.value)

    def stats(self) -> Dict[str, int]:
        """Counter snapshot, e.g. for a CI artifact."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "uncacheable": self.uncacheable,
            "corrupt": int(self._corrupt.value),
            "entries": len(self),
        }


def _portable(params: Mapping[str, object]) -> Dict[str, object]:
    """Params as stored in the entry file — display metadata only.

    The authoritative params stay with the caller; these exist so an
    entry can be audited by hand (``cat`` the JSON and see the point).
    """
    return {str(k): v if isinstance(v, (bool, int, float, str, type(None)))
            else repr(v)
            for k, v in params.items()}
