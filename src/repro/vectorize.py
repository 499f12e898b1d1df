"""Engine selection for the simulation kernels.

The three hot paths (the multi-flow tick loop, the fan-in Lindley sweep,
and max-min fair allocation) each ship one exact numpy kernel.  The
scalar loops those kernels replaced are the test oracle in
``tests/reference/kernels.py``, which also states the rules that keep
each kernel bit-identical to its reference.

The multi-flow simulator additionally understands an *approximate*
tier: ``"fluid"`` selects the :mod:`repro.fluid` mean-field engine,
which trades per-flow congestion state for flow-class population
dynamics, so its results carry an accuracy contract (delivered-bytes
ratio within 1% at matched horizon) rather than a bit-identity
contract; ``"hybrid"`` picks between the two by stream population.
The fan-in sweep and max-min allocation have only the exact kernel, so
selecting the fluid engine process-wide never changes *their* numbers.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator, Optional

from .errors import ConfigurationError

__all__ = ["SIM_ENGINES", "resolve_engine", "use_backend"]

#: Everything a simulation ``backend=`` argument may name: the exact
#: numpy kernel, the approximate mean-field engine ("fluid") and the
#: population-threshold dispatcher ("hybrid").
SIM_ENGINES = ("numpy", "fluid", "hybrid")

#: Process-wide default set by :func:`use_backend`; None means "consult
#: the REPRO_BACKEND environment variable, else numpy".
_DEFAULT_BACKEND: Optional[str] = None


def resolve_engine(backend: Optional[str] = None) -> str:
    """A validated engine name; None resolves the process default.

    Resolution order for None: :func:`use_backend`, then the
    ``REPRO_BACKEND`` environment variable, then ``"numpy"``.  An
    unknown name raises :class:`~repro.errors.ConfigurationError`.
    """
    if backend is None:
        if _DEFAULT_BACKEND is not None:
            return _DEFAULT_BACKEND
        backend = os.environ.get("REPRO_BACKEND", "") or "numpy"
    if backend not in SIM_ENGINES:
        known = ", ".join(SIM_ENGINES)
        raise ConfigurationError(
            f"unknown simulation backend {backend!r}; known: {known}")
    return backend


@contextlib.contextmanager
def use_backend(backend: str) -> Iterator[str]:
    """Temporarily make ``backend`` the process default::

        with use_backend("fluid"):
            run_experiment(spec)   # every simulation without backend=
                                   # takes the fluid engine
    """
    global _DEFAULT_BACKEND
    previous = _DEFAULT_BACKEND
    _DEFAULT_BACKEND = resolve_engine(backend)
    try:
        yield _DEFAULT_BACKEND
    finally:
        _DEFAULT_BACKEND = previous
