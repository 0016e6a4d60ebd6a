"""orjson's number reader gives the double Python's float gives.

``fdmkit.cli.ingest_csv`` reads the data rows of a CSV as JSON arrays
with orjson and converts the numbers with ``np.fromiter``. It gives the
same samples as the row loop with ``float`` only if orjson, on this
host and at this version, rounds every number it accepts as ``float``
does. These strings are the hard cases of decimal-to-double
conversion: exact halfway points between adjacent doubles and strings
just either side of them, long mantissas, subnormals, integers that
orjson keeps as integers or reads as doubles, and random shortest
round-trip strings.
"""

import random
import struct
from decimal import Decimal, localcontext

import numpy as np
import orjson
import pytest


def read_with_orjson(strings):
    """The doubles ingest makes of ``strings``: one orjson array, then
    np.fromiter."""
    values = orjson.loads(("[" + ",".join(strings) + "]").encode())
    return np.fromiter(values, np.float64, len(values))


def assert_as_float(strings):
    got = read_with_orjson(strings).view(np.int64)
    want = np.array([float(s) for s in strings]).view(np.int64)
    bad = np.flatnonzero(got != want)
    assert not bad.size, (
        f"{bad.size} of {len(strings)} strings read differently, first "
        f"{strings[bad[0]][:80]!r}")


def random_doubles(rng, count):
    """``count`` finite doubles drawn uniformly over their bit patterns."""
    out = []
    while len(out) < count:
        x = struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
        if np.isfinite(x):
            out.append(x)
    return out


def halfway_strings(xs):
    """The exact decimal midpoint of each x and the next double up, and
    a string a little below and a little above it."""
    out = []
    with localcontext() as ctx:
        ctx.prec = 2000  # every midpoint of two doubles is exact
        for x in xs:
            up = float(np.nextafter(x, np.inf))
            if not np.isfinite(up):
                continue
            mid = (Decimal(x) + Decimal(up)) / 2
            mant, exp = f"{mid:e}".split("e")
            nudge = Decimal(10) ** -(len(mant) + 3)
            out += [f"{mant}e{exp}",
                    f"{Decimal(mant) - nudge:f}e{exp}",
                    f"{mant}1e{exp}" if "." in mant else f"{mant}.1e{exp}"]
    return out


def test_halfway_points_and_their_neighbours():
    rng = random.Random(20)
    xs = random_doubles(rng, 4000)
    # subnormals, the smallest normals and the largest finite doubles
    xs += [float(np.nextafter(0.0, 1.0)) * k for k in (1, 2, 3, 2**52 - 1)]
    xs += [2.0 ** -1022, 2.0 ** 53, 2.0 ** 64, float(np.nextafter(np.inf, 0.0) * 0.5)]
    assert_as_float(halfway_strings(xs))


def test_long_mantissas():
    rng = random.Random(21)
    strings = []
    for _ in range(20000):
        digits = str(rng.randint(1, 9)) + "".join(
            rng.choice("0123456789") for _ in range(rng.randint(16, 39)))
        sign = rng.choice(["", "-"])
        # below 1e308: a larger one may overflow, as the next test checks
        strings.append(f"{sign}{digits[0]}.{digits[1:]}e{rng.randint(-345, 307)}")
    assert_as_float(strings)


def test_subnormals():
    rng = random.Random(22)
    tiny = float(np.nextafter(0.0, 1.0))
    strings = [repr(tiny * rng.randint(1, 2**52 - 1)) for _ in range(5000)]
    strings += [f"{tiny * rng.randint(1, 2**52 - 1):.{p}e}"
                for p in range(1, 25) for _ in range(200)]
    strings += ["4.9e-324", "5e-324", "2.4703282292062328e-324",
                "2.4703282292062327e-324", "1e-323", "2.225073858507201e-308",
                "2.2250738585072011e-308", "2.2250738585072014e-308",
                "1e-400", "-1e-400", "-5e-324"]
    assert_as_float(strings)


def test_integers_past_two_to_the_53_and_64():
    rng = random.Random(23)
    strings = []
    for base in (2**53, 2**63, 2**64, 10**20, 10**30):
        for k in range(-40, 41):
            strings += [str(base + k), str(-(base + k))]
    strings += [str(rng.randrange(2**53, 2**64)) for _ in range(5000)]
    strings += [str(rng.randrange(2**64, 10**40)) for _ in range(5000)]
    strings += ["9007199254740993", "18446744073709551615",
                "18446744073709551616", "-9223372036854775809",
                "123456789012345678901234567890", "0", "-1"]
    assert_as_float(strings)


def test_random_repr_strings():
    rng = random.Random(24)
    xs = random_doubles(rng, 100_000)
    assert_as_float([repr(x) for x in xs])
    assert_as_float([f"{x:.17e}" for x in xs[:20000]])


def test_largest_finite_doubles():
    assert_as_float(["1.7976931348623158e308", "1.797693134862315807e308",
                     "-1.7976931348623157e308", str(2**1024 - 2**970 - 1)])


# float rounds each of these to infinity, which the row loop then refuses
@pytest.mark.parametrize("text", [
    "1e400", "-1e400", "1" + "0" * 400, "1.7976931348623159e308",
    "1.797693134862315808e308", str(2**1024 - 2**970),
])
def test_overflow_raises(text):
    assert np.isinf(float(text))
    with pytest.raises(orjson.JSONDecodeError):
        orjson.loads(text)


def test_negative_zero_integer_loses_its_sign():
    # why the reader sends a "-0" cell to the row loop: orjson reads it
    # as the integer 0, where float gives -0.0
    assert type(orjson.loads("-0")) is int
    assert not np.signbit(read_with_orjson(["-0"])[0])
    assert np.signbit(read_with_orjson(["-0.0", "-0e0", "-0E5"])).all()
