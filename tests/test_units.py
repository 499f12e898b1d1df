"""Tests for repro.units: constructors, arithmetic, parsing, invariants."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import UnitError
from repro.units import (
    GB,
    KB,
    MB,
    PB,
    TB,
    DataRate,
    DataSize,
    Gbps,
    GBps,
    Kbps,
    Mbps,
    MBps,
    Tbps,
    TimeDelta,
    bits,
    bytes_,
    days,
    hours,
    minutes,
    ms,
    parse_rate,
    parse_size,
    parse_time,
    seconds,
    us,
)


class TestDataSizeConstruction:
    def test_bits_roundtrip(self):
        assert bits(1000).bits == 1000

    def test_bytes_are_eight_bits(self):
        assert bytes_(1).bits == 8

    def test_kb_is_binary(self):
        # TCP windows: 64 KB means 65536 bytes.
        assert KB(64).bytes == 65536

    def test_mb_is_decimal(self):
        assert MB(1).bytes == 1_000_000

    def test_gb_tb_pb_scale(self):
        assert GB(1).bytes == 1e9
        assert TB(1).bytes == 1e12
        assert PB(1).bytes == 1e15

    def test_negative_rejected(self):
        with pytest.raises(UnitError):
            DataSize(-1)

    def test_nan_rejected(self):
        with pytest.raises(UnitError):
            DataSize(float("nan"))

    def test_bool_rejected(self):
        with pytest.raises(UnitError):
            DataSize(True)

    def test_string_rejected(self):
        with pytest.raises(UnitError):
            DataSize("100")


class TestDataSizeArithmetic:
    def test_add(self):
        assert (MB(1) + MB(2)).megabytes == pytest.approx(3)

    def test_subtract(self):
        assert (MB(3) - MB(1)).megabytes == pytest.approx(2)

    def test_subtract_underflow_raises(self):
        with pytest.raises(UnitError):
            MB(1) - MB(2)

    def test_scale(self):
        assert (MB(2) * 3).megabytes == pytest.approx(6)
        assert (3 * MB(2)).megabytes == pytest.approx(6)

    def test_divide_by_rate_gives_time(self):
        t = GB(1) / Gbps(1)
        assert isinstance(t, TimeDelta)
        assert t.s == pytest.approx(8.0)

    def test_divide_by_time_gives_rate(self):
        r = GB(1) / seconds(8)
        assert isinstance(r, DataRate)
        assert r.gbps == pytest.approx(1.0)

    def test_divide_by_size_gives_ratio(self):
        assert MB(2) / MB(1) == pytest.approx(2.0)

    def test_divide_by_zero_rate_raises(self):
        with pytest.raises(UnitError):
            MB(1) / DataRate(0)

    def test_ordering(self):
        assert KB(64) < MB(1) < GB(1)

    def test_zero_is_falsy(self):
        assert not bits(0)
        assert bits(1)

    def test_human_rendering(self):
        assert MB(1.25).human() == "1.25 MB"
        assert GB(239.5).human() == "239.5 GB"


class TestConstructionEdgeCases:
    """Every unit type stores what ``_check_number`` would return, on its
    fast path (a non-negative Python float, stored as given) and off it
    (everything else)."""

    TYPES = [(DataSize, "bits"), (DataRate, "bps"), (TimeDelta, "s")]

    @pytest.mark.parametrize("cls,attr", TYPES)
    def test_bool_rejected(self, cls, attr):
        for flag in (True, False):
            with pytest.raises(UnitError, match="real number, got bool"):
                cls(flag)

    @pytest.mark.parametrize("cls,attr", TYPES)
    def test_int_stored_as_float(self, cls, attr):
        value = getattr(cls(3), attr)
        assert type(value) is float and value == 3.0

    @pytest.mark.parametrize("cls,attr", TYPES)
    def test_numpy_float_stored_as_python_float(self, cls, attr):
        value = getattr(cls(np.float64(2.5)), attr)
        assert type(value) is float and value == 2.5
        with pytest.raises(UnitError, match="non-negative"):
            cls(np.float64(-2.5))

    @pytest.mark.parametrize("cls,attr", TYPES)
    def test_nan_rejected(self, cls, attr):
        for nan in (float("nan"), np.float64("nan")):
            with pytest.raises(UnitError, match="NaN"):
                cls(nan)

    @pytest.mark.parametrize("cls,attr", TYPES)
    def test_negative_rejected(self, cls, attr):
        for negative in (-1.0, -1, -1e-300, float("-inf")):
            with pytest.raises(UnitError, match="non-negative"):
                cls(negative)

    @pytest.mark.parametrize("cls,attr", TYPES)
    def test_negative_zero_kept(self, cls, attr):
        value = getattr(cls(-0.0), attr)
        assert value == 0.0 and math.copysign(1.0, value) == -1.0

    @pytest.mark.parametrize("cls,attr", TYPES)
    def test_infinity_kept(self, cls, attr):
        assert getattr(cls(float("inf")), attr) == math.inf

    @pytest.mark.parametrize("cls,attr", TYPES)
    def test_float_stored_as_given(self, cls, attr):
        value = 1.5e9
        assert getattr(cls(value), attr) is value


class TestFrozen:
    """Every assignment or deletion raises FrozenInstanceError: on the
    field, on a derived property and on a name the class never had."""

    @pytest.mark.parametrize("make,name", [
        (MB, "bits"), (MB, "bytes"), (MB, "foo"),
        (Gbps, "bps"), (Gbps, "gbps"), (Gbps, "foo"),
        (seconds, "s"), (seconds, "ms"), (seconds, "foo"),
    ], ids=lambda v: v if isinstance(v, str) else v.__name__)
    def test_assignment_and_deletion_refused(self, make, name):
        obj = make(1)
        before = repr(obj)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
        assert repr(obj) == before


class TestDataRate:
    def test_constructors(self):
        assert Kbps(1).bps == 1e3
        assert Mbps(1).bps == 1e6
        assert Gbps(1).bps == 1e9
        assert Tbps(1).bps == 1e12

    def test_byte_rates(self):
        assert MBps(1).bps == 8e6
        assert GBps(1).bps == 8e9
        assert MBps(395).MBps == pytest.approx(395)

    def test_bdp_matches_paper_eq2(self):
        # Eq 2: 1 Gbps x 10 ms -> 1.25 MB.
        assert Gbps(1).bdp(ms(10)).megabytes == pytest.approx(1.25)

    def test_bdp_requires_timedelta(self):
        with pytest.raises(UnitError):
            Gbps(1).bdp(0.01)

    def test_rate_times_time_gives_size(self):
        assert (Gbps(1) * seconds(8)).gigabytes == pytest.approx(1.0)
        assert (seconds(8) * Gbps(1)).gigabytes == pytest.approx(1.0)

    def test_rate_division(self):
        assert Gbps(10) / Gbps(2) == pytest.approx(5.0)
        assert (Gbps(10) / 2).gbps == pytest.approx(5.0)

    def test_add_subtract(self):
        assert (Gbps(1) + Gbps(2)).gbps == pytest.approx(3)
        with pytest.raises(UnitError):
            Gbps(1) - Gbps(2)

    def test_negative_rejected(self):
        with pytest.raises(UnitError):
            DataRate(-5)


class TestTimeDelta:
    def test_constructors(self):
        assert ms(10).s == pytest.approx(0.01)
        assert us(5).s == pytest.approx(5e-6)
        assert minutes(2).s == 120
        assert hours(1).s == 3600
        assert days(3).s == 259200

    def test_accessors(self):
        assert seconds(0.25).ms == 250
        assert hours(48).days == 2

    def test_add_subtract(self):
        assert (ms(10) + ms(5)).ms == pytest.approx(15)
        with pytest.raises(UnitError):
            ms(1) - ms(2)

    def test_division(self):
        assert minutes(1) / seconds(30) == pytest.approx(2.0)
        assert (minutes(1) / 2).s == 30

    def test_human(self):
        assert days(3).human() == "3 d"
        assert ms(10).human() == "10 ms"


class TestParsers:
    def test_parse_size_decimal_and_binary(self):
        assert parse_size("239.5GB").gigabytes == pytest.approx(239.5)
        assert parse_size("64 KB").bytes == 65536
        assert parse_size("9000B").bytes == 9000

    def test_parse_size_bits_vs_bytes_case(self):
        assert parse_size("1Mb").bits == 1e6
        assert parse_size("1MB").bits == 8e6

    def test_parse_size_bad(self):
        with pytest.raises(UnitError):
            parse_size("lots")
        with pytest.raises(UnitError):
            parse_size("1 parsec")

    def test_parse_rate(self):
        assert parse_rate("10Gbps").gbps == pytest.approx(10)
        assert parse_rate("395 MBps").MBps == pytest.approx(395)
        assert parse_rate("10gbps").gbps == pytest.approx(10)

    def test_parse_time(self):
        assert parse_time("10ms").s == pytest.approx(0.01)
        assert parse_time("3 days").days == pytest.approx(3)
        with pytest.raises(UnitError):
            parse_time("later")

    def test_parse_non_string(self):
        with pytest.raises(UnitError):
            parse_size(100)


class TestUnitProperties:
    """Hypothesis invariants over the unit algebra."""

    @given(st.floats(min_value=1e-3, max_value=1e15),
           st.floats(min_value=1e-6, max_value=1e5))
    def test_size_rate_time_roundtrip(self, size_bits, rate_bps):
        size = DataSize(size_bits)
        rate = DataRate(rate_bps)
        t = size / rate
        back = rate * t
        assert back.bits == pytest.approx(size.bits, rel=1e-9)

    @given(st.floats(min_value=0, max_value=1e15),
           st.floats(min_value=0, max_value=1e15))
    def test_addition_commutes(self, a, b):
        assert (DataSize(a) + DataSize(b)).bits == (DataSize(b) + DataSize(a)).bits

    @given(st.floats(min_value=1e-3, max_value=1e12),
           st.floats(min_value=1e-6, max_value=1e4))
    def test_bdp_scales_linearly_with_rtt(self, bps, rtt_s):
        rate = DataRate(bps)
        one = rate.bdp(TimeDelta(rtt_s))
        two = rate.bdp(TimeDelta(2 * rtt_s))
        assert two.bits == pytest.approx(2 * one.bits, rel=1e-9)

    @given(st.floats(min_value=0, max_value=1e15))
    def test_ordering_consistent_with_bits(self, v):
        assert not (DataSize(v) < DataSize(v))
        assert DataSize(v) <= DataSize(v)
