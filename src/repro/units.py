"""Unit-safe quantities for network simulation.

Networking literature mixes bits and bytes, SI and binary prefixes, and
per-second rates freely — the Science DMZ paper itself quotes ``Gbps``,
``MB/s``, ``KByte`` windows and ``ms`` latencies within single paragraphs.
Getting a factor of 8 (or 1024/1000) wrong silently corrupts every experiment
downstream, so this module provides three small frozen value types:

* :class:`DataSize` — an amount of data, stored in bits.
* :class:`DataRate` — data per unit time, stored in bits per second.
* :class:`TimeDelta` — a duration, stored in seconds.

The types support the arithmetic that is physically meaningful
(``size / rate -> time``, ``rate * time -> size``, scaling by plain numbers)
and raise :class:`~repro.errors.UnitError` for the rest.  Constructors exist
for every spelling used in the paper (``KB`` is binary 1024 to match TCP
window conventions; ``kb``/``Mb``/``Gb`` rates are SI decimal to match link
speeds, as is universal in networking).

Examples
--------
>>> from repro.units import Gbps, MB, ms
>>> window = MB(1.25)
>>> (window / ms(10)).gbps
1.048576
>>> Gbps(1).bdp(ms(10)).megabytes
1.25
"""

from __future__ import annotations

import math
import re
from dataclasses import FrozenInstanceError, dataclass
from typing import Union

from .errors import UnitError

__all__ = [
    "DataSize",
    "DataRate",
    "TimeDelta",
    "bits",
    "bytes_",
    "KB",
    "MB",
    "GB",
    "TB",
    "PB",
    "kB_dec",
    "MB_dec",
    "GB_dec",
    "TB_dec",
    "bps",
    "Kbps",
    "Mbps",
    "Gbps",
    "Tbps",
    "MBps",
    "GBps",
    "seconds",
    "ms",
    "us",
    "minutes",
    "hours",
    "days",
    "parse_size",
    "parse_rate",
    "parse_time",
]

Number = Union[int, float]

_SI = {"k": 1e3, "m": 1e6, "g": 1e9, "t": 1e12, "p": 1e15}
_BIN = {"k": 2**10, "m": 2**20, "g": 2**30, "t": 2**40, "p": 2**50}


def _check_number(value: object, what: str) -> float:
    """``value`` as a float, if it is a real number and not NaN.

    The unit types' ``__post_init__`` skip this check for a Python
    ``float`` that is ``>= 0.0``: such a value (``-0.0`` and ``inf``
    included) would come back unchanged and pass the sign test, so it
    is stored as given.  Everything else (bools, ints, numpy scalars,
    NaN, negatives) takes this path.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UnitError(f"{what} must be a real number, got {type(value).__name__}")
    v = float(value)
    if math.isnan(v):
        raise UnitError(f"{what} must not be NaN")
    return v


def _frozen(cls):
    """Make every assignment and deletion on ``cls`` raise
    :class:`~dataclasses.FrozenInstanceError`.  Python 3.11's own frozen
    slotted ``__setattr__`` raises ``TypeError`` for a non-field name
    (``MB(1).bytes = 3``).  Construction sets fields through
    ``object.__setattr__`` or slot descriptors, never through these."""
    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    return cls


@_frozen
@dataclass(frozen=True, slots=True, order=True)
class DataSize:
    """An amount of data, canonically stored in bits.

    ``DataSize`` is ordered and hashable; arithmetic with another
    :class:`DataSize` or a plain scalar behaves as expected, and dividing by a
    :class:`DataRate` or :class:`TimeDelta` produces the physically correct
    type.
    """

    bits: float

    def __post_init__(self) -> None:
        if type(self.bits) is float and self.bits >= 0.0:
            return  # already canonical: see _check_number
        v = _check_number(self.bits, "DataSize.bits")
        if v < 0:
            raise UnitError(f"DataSize must be non-negative, got {v} bits")
        object.__setattr__(self, "bits", v)

    # -- accessors ---------------------------------------------------------
    @property
    def bytes(self) -> float:
        return self.bits / 8.0

    @property
    def kilobytes(self) -> float:
        """Binary kilobytes (KiB) — TCP window convention."""
        return self.bytes / _BIN["k"]

    @property
    def megabytes(self) -> float:
        """Decimal megabytes (MB) — transfer-size convention."""
        return self.bytes / _SI["m"]

    @property
    def gigabytes(self) -> float:
        return self.bytes / _SI["g"]

    @property
    def terabytes(self) -> float:
        return self.bytes / _SI["t"]

    @property
    def megabits(self) -> float:
        return self.bits / _SI["m"]

    @property
    def gigabits(self) -> float:
        return self.bits / _SI["g"]

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "DataSize") -> "DataSize":
        if not isinstance(other, DataSize):
            return NotImplemented
        return DataSize(self.bits + other.bits)

    def __sub__(self, other: "DataSize") -> "DataSize":
        if not isinstance(other, DataSize):
            return NotImplemented
        if other.bits > self.bits:
            raise UnitError(
                f"DataSize subtraction underflow: {self} - {other} is negative"
            )
        return DataSize(self.bits - other.bits)

    def __mul__(self, factor: Number) -> "DataSize":
        f = _check_number(factor, "DataSize scale factor")
        return DataSize(self.bits * f)

    __rmul__ = __mul__

    def __truediv__(self, other: object):
        if isinstance(other, DataRate):
            if other.bps == 0:
                raise UnitError("cannot divide DataSize by a zero DataRate")
            return TimeDelta(self.bits / other.bps)
        if isinstance(other, TimeDelta):
            if other.s == 0:
                raise UnitError("cannot divide DataSize by a zero TimeDelta")
            return DataRate(self.bits / other.s)
        if isinstance(other, DataSize):
            if other.bits == 0:
                raise UnitError("cannot divide DataSize by a zero DataSize")
            return self.bits / other.bits
        if isinstance(other, (int, float)):
            f = _check_number(other, "DataSize divisor")
            if f == 0:
                raise UnitError("cannot divide DataSize by zero")
            return DataSize(self.bits / f)
        return NotImplemented

    def __bool__(self) -> bool:
        return self.bits > 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DataSize({self.human()})"

    def human(self) -> str:
        """Render with an auto-selected decimal byte unit (``'1.25 MB'``)."""
        b = self.bytes
        for unit, factor in (("PB", 1e15), ("TB", 1e12), ("GB", 1e9),
                             ("MB", 1e6), ("kB", 1e3)):
            if b >= factor:
                return f"{b / factor:.4g} {unit}"
        return f"{b:.4g} B"


@_frozen
@dataclass(frozen=True, slots=True, order=True)
class DataRate:
    """Data per unit time, canonically stored in bits per second."""

    bps: float

    def __post_init__(self) -> None:
        if type(self.bps) is float and self.bps >= 0.0:
            return  # already canonical: see _check_number
        v = _check_number(self.bps, "DataRate.bps")
        if v < 0:
            raise UnitError(f"DataRate must be non-negative, got {v} bps")
        object.__setattr__(self, "bps", v)

    @property
    def kbps(self) -> float:
        return self.bps / _SI["k"]

    @property
    def mbps(self) -> float:
        return self.bps / _SI["m"]

    @property
    def gbps(self) -> float:
        return self.bps / _SI["g"]

    @property
    def bytes_per_second(self) -> float:
        return self.bps / 8.0

    @property
    def MBps(self) -> float:
        """Decimal megabytes per second (disk/transfer convention)."""
        return self.bps / 8.0 / _SI["m"]

    def bdp(self, rtt: "TimeDelta") -> DataSize:
        """Bandwidth-delay product: data in flight to fill this pipe at ``rtt``.

        This is the paper's Eq. 2: ``1 Gbps * 10 ms -> 1.25 MB``.
        """
        if not isinstance(rtt, TimeDelta):
            raise UnitError("bdp() requires a TimeDelta round-trip time")
        return DataSize(self.bps * rtt.s)

    def __add__(self, other: "DataRate") -> "DataRate":
        if not isinstance(other, DataRate):
            return NotImplemented
        return DataRate(self.bps + other.bps)

    def __sub__(self, other: "DataRate") -> "DataRate":
        if not isinstance(other, DataRate):
            return NotImplemented
        if other.bps > self.bps:
            raise UnitError(
                f"DataRate subtraction underflow: {self} - {other} is negative"
            )
        return DataRate(self.bps - other.bps)

    def __mul__(self, other: object):
        if isinstance(other, TimeDelta):
            return DataSize(self.bps * other.s)
        if isinstance(other, (int, float)):
            f = _check_number(other, "DataRate scale factor")
            return DataRate(self.bps * f)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: object):
        if isinstance(other, DataRate):
            if other.bps == 0:
                raise UnitError("cannot divide by a zero DataRate")
            return self.bps / other.bps
        if isinstance(other, (int, float)):
            f = _check_number(other, "DataRate divisor")
            if f == 0:
                raise UnitError("cannot divide DataRate by zero")
            return DataRate(self.bps / f)
        return NotImplemented

    def __bool__(self) -> bool:
        return self.bps > 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DataRate({self.human()})"

    def human(self) -> str:
        v = self.bps
        for unit, factor in (("Tbps", 1e12), ("Gbps", 1e9), ("Mbps", 1e6),
                             ("Kbps", 1e3)):
            if v >= factor:
                return f"{v / factor:.4g} {unit}"
        return f"{v:.4g} bps"


@_frozen
@dataclass(frozen=True, slots=True, order=True)
class TimeDelta:
    """A duration, canonically stored in seconds."""

    s: float

    def __post_init__(self) -> None:
        if type(self.s) is float and self.s >= 0.0:
            return  # already canonical: see _check_number
        v = _check_number(self.s, "TimeDelta.s")
        if v < 0:
            raise UnitError(f"TimeDelta must be non-negative, got {v} s")
        object.__setattr__(self, "s", v)

    @property
    def ms(self) -> float:
        return self.s * 1e3

    @property
    def us(self) -> float:
        return self.s * 1e6

    @property
    def minutes(self) -> float:
        return self.s / 60.0

    @property
    def hours(self) -> float:
        return self.s / 3600.0

    @property
    def days(self) -> float:
        return self.s / 86400.0

    def __add__(self, other: "TimeDelta") -> "TimeDelta":
        if not isinstance(other, TimeDelta):
            return NotImplemented
        return TimeDelta(self.s + other.s)

    def __sub__(self, other: "TimeDelta") -> "TimeDelta":
        if not isinstance(other, TimeDelta):
            return NotImplemented
        if other.s > self.s:
            raise UnitError(
                f"TimeDelta subtraction underflow: {self} - {other} is negative"
            )
        return TimeDelta(self.s - other.s)

    def __mul__(self, other: object):
        if isinstance(other, DataRate):
            return DataSize(other.bps * self.s)
        if isinstance(other, (int, float)):
            f = _check_number(other, "TimeDelta scale factor")
            return TimeDelta(self.s * f)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: object):
        if isinstance(other, TimeDelta):
            if other.s == 0:
                raise UnitError("cannot divide by a zero TimeDelta")
            return self.s / other.s
        if isinstance(other, (int, float)):
            f = _check_number(other, "TimeDelta divisor")
            if f == 0:
                raise UnitError("cannot divide TimeDelta by zero")
            return TimeDelta(self.s / f)
        return NotImplemented

    def __bool__(self) -> bool:
        return self.s > 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TimeDelta({self.human()})"

    def human(self) -> str:
        v = self.s
        if v >= 86400:
            return f"{v / 86400:.4g} d"
        if v >= 3600:
            return f"{v / 3600:.4g} h"
        if v >= 60:
            return f"{v / 60:.4g} min"
        if v >= 1:
            return f"{v:.4g} s"
        if v >= 1e-3:
            return f"{v * 1e3:.4g} ms"
        return f"{v * 1e6:.4g} us"


# Unchecked builds, for records that keep a quantity as a float they
# validated when it came in (FlowSpec, FlowProgress) and build the
# wrapper on every read: ``obj = _new(DataSize); _put_bits(obj, b)``
# costs about half of ``DataSize(b)``, whose checks would only repeat
# themselves.
_new = object.__new__
_put_bits = DataSize.bits.__set__
_put_s = TimeDelta.s.__set__


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def bits(n: Number) -> DataSize:
    return DataSize(float(n))


def bytes_(n: Number) -> DataSize:
    return DataSize(float(n) * 8.0)


def KB(n: Number) -> DataSize:
    """Binary kilobytes (1024 B) — matches TCP window conventions (64 KB)."""
    return DataSize(float(n) * _BIN["k"] * 8.0)


def MB(n: Number) -> DataSize:
    """Decimal megabytes (1e6 B) — matches the paper's transfer sizes."""
    return DataSize(float(n) * _SI["m"] * 8.0)


def GB(n: Number) -> DataSize:
    return DataSize(float(n) * _SI["g"] * 8.0)


def TB(n: Number) -> DataSize:
    return DataSize(float(n) * _SI["t"] * 8.0)


def PB(n: Number) -> DataSize:
    return DataSize(float(n) * _SI["p"] * 8.0)


# Decimal aliases kept explicit for callers who care about the distinction.
kB_dec = lambda n: DataSize(float(n) * _SI["k"] * 8.0)  # noqa: E731
MB_dec = MB
GB_dec = GB
TB_dec = TB


def bps(n: Number) -> DataRate:
    return DataRate(float(n))


def Kbps(n: Number) -> DataRate:
    return DataRate(float(n) * _SI["k"])


def Mbps(n: Number) -> DataRate:
    return DataRate(float(n) * _SI["m"])


def Gbps(n: Number) -> DataRate:
    return DataRate(float(n) * _SI["g"])


def Tbps(n: Number) -> DataRate:
    return DataRate(float(n) * _SI["t"])


def MBps(n: Number) -> DataRate:
    """Decimal megabytes per second (the paper's '395MB/s')."""
    return DataRate(float(n) * _SI["m"] * 8.0)


def GBps(n: Number) -> DataRate:
    return DataRate(float(n) * _SI["g"] * 8.0)


def seconds(n: Number) -> TimeDelta:
    return TimeDelta(float(n))


def ms(n: Number) -> TimeDelta:
    return TimeDelta(float(n) * 1e-3)


def us(n: Number) -> TimeDelta:
    return TimeDelta(float(n) * 1e-6)


def minutes(n: Number) -> TimeDelta:
    return TimeDelta(float(n) * 60.0)


def hours(n: Number) -> TimeDelta:
    return TimeDelta(float(n) * 3600.0)


def days(n: Number) -> TimeDelta:
    return TimeDelta(float(n) * 86400.0)


# ---------------------------------------------------------------------------
# Parsers — accept the spellings that appear in the paper and ops literature.
# ---------------------------------------------------------------------------

_SIZE_RE = re.compile(
    r"^\s*(?P<num>[0-9]*\.?[0-9]+)\s*(?P<unit>[a-zA-Z]+)\s*$"
)

_SIZE_UNITS = {
    "b": 1.0,  # bits
    "bit": 1.0,
    "bits": 1.0,
    "B": 8.0,
    "byte": 8.0,
    "bytes": 8.0,
    "KB": _BIN["k"] * 8.0,
    "KiB": _BIN["k"] * 8.0,
    "kB": _SI["k"] * 8.0,
    "MB": _SI["m"] * 8.0,
    "MiB": _BIN["m"] * 8.0,
    "GB": _SI["g"] * 8.0,
    "GiB": _BIN["g"] * 8.0,
    "TB": _SI["t"] * 8.0,
    "TiB": _BIN["t"] * 8.0,
    "PB": _SI["p"] * 8.0,
    "Kb": _SI["k"],
    "Mb": _SI["m"],
    "Gb": _SI["g"],
    "Tb": _SI["t"],
}

_RATE_UNITS = {
    "bps": 1.0,
    "kbps": _SI["k"],
    "Kbps": _SI["k"],
    "mbps": _SI["m"],
    "Mbps": _SI["m"],
    "gbps": _SI["g"],
    "Gbps": _SI["g"],
    "tbps": _SI["t"],
    "Tbps": _SI["t"],
    "MBps": _SI["m"] * 8.0,
    "GBps": _SI["g"] * 8.0,
    "KBps": _SI["k"] * 8.0,
}

_TIME_UNITS = {
    "s": 1.0,
    "sec": 1.0,
    "secs": 1.0,
    "ms": 1e-3,
    "us": 1e-6,
    "min": 60.0,
    "m": 60.0,
    "h": 3600.0,
    "hr": 3600.0,
    "d": 86400.0,
    "day": 86400.0,
    "days": 86400.0,
}


def _parse(text: str, table: dict, what: str, case_sensitive: bool) -> float:
    if not isinstance(text, str):
        raise UnitError(f"{what} must be parsed from a string, got {type(text)}")
    match = _SIZE_RE.match(text)
    if match is None:
        raise UnitError(f"cannot parse {what} from {text!r}")
    num = float(match.group("num"))
    unit = match.group("unit")
    if unit in table:
        return num * table[unit]
    if not case_sensitive:
        lowered = {k.lower(): v for k, v in table.items()}
        if unit.lower() in lowered:
            return num * lowered[unit.lower()]
    raise UnitError(f"unknown {what} unit {unit!r} in {text!r}")


def parse_size(text: str) -> DataSize:
    """Parse ``'239.5GB'``, ``'64 KB'``, ``'9000B'`` etc. into a DataSize.

    Size units are case-sensitive because ``Mb`` (megabits) and ``MB``
    (megabytes) must not be confused.
    """
    return DataSize(_parse(text, _SIZE_UNITS, "size", case_sensitive=True))


def parse_rate(text: str) -> DataRate:
    """Parse ``'10Gbps'``, ``'395 MBps'`` etc. into a DataRate."""
    return DataRate(_parse(text, _RATE_UNITS, "rate", case_sensitive=False))


def parse_time(text: str) -> TimeDelta:
    """Parse ``'10ms'``, ``'3 days'`` etc. into a TimeDelta."""
    return TimeDelta(_parse(text, _TIME_UNITS, "time", case_sensitive=True))
