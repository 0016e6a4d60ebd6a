"""Deterministic test-signal generators.

Every kind is a pure function of the sample times, the rate, its params
(typed keyword-only arguments with defaults) and ``noise(size)``, which
draws standard normals from the spec's seed with numpy's PCG64, so a
spec reproduces the same samples on every run and platform. A draw
without a seed is refused.
"""

import inspect
import math
import typing
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .spectral import (MAX_VALUES, MultichannelSignal, Signal,
                       check_sample_rate, is_integer, is_real, sample_times)


@dataclass
class GeneratorSpec:
    """Recipe for one synthetic record.

    ``params`` holds the kind-specific knobs; unknown keys and values
    of the wrong type are rejected rather than ignored or converted.
    """

    kind: str
    n: int
    sample_rate_hz: float
    seed: int | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.kind, str):
            raise ParameterError(f"kind must be a string, got {self.kind!r}")
        if not is_integer(self.n):
            raise ParameterError(f"n must be an integer, got {self.n!r}")
        # a record's time axis and every channel hold n float64 values
        if not 2 <= self.n <= MAX_VALUES:
            raise ParameterError(
                f"n must be in [2, {MAX_VALUES}], got {self.n}")
        self.sample_rate_hz = check_sample_rate(self.sample_rate_hz, self.n)
        if self.seed is not None and not (is_integer(self.seed) and self.seed >= 0):
            raise ParameterError(
                f"seed must be a non-negative integer, got {self.seed!r}"
            )
        if not isinstance(self.params, dict):
            raise ParameterError("params must be a dict")


def _tone_mix(t, fs, noise, *, freqs: list[float] = (4.0, 8.0, 16.0, 32.0),
              amps: list[float] | None = None, sigma: float = 0.0,
              channels: list[list[int]] | None = None):
    freqs = np.asarray(freqs, dtype=np.float64)
    amps = np.ones(freqs.size) if amps is None else np.asarray(amps, dtype=np.float64)
    if amps.size != freqs.size:
        raise ParameterError(
            f"amps has {amps.size} entries for {freqs.size} freqs"
        )
    if not sigma >= 0:
        raise ParameterError(f"sigma must be >= 0, got {sigma}")
    tones = amps[:, None] * np.sin(2.0 * np.pi * freqs[:, None] * t[None, :])
    out = []
    for idx in [list(range(freqs.size))] if channels is None else channels:
        for j in idx:
            if not (0 <= j < freqs.size):
                raise ParameterError(f"channel tone index {j} out of range")
        x = tones[idx].sum(axis=0)
        if sigma > 0:
            # one stream, channels drawn in order, so channel noise is
            # independent yet the whole record is a function of the seed
            x = x + sigma * noise(t.size)
        out.append(x)
    return out[0] if channels is None else out


def _intermittent_tone(t, fs, noise, *, f_low: float = 4.0,
                       f_high: float = 32.0, amp_low: float = 1.0,
                       amp_high: float = 0.5, burst_start: float = 0.4,
                       burst_stop: float = 0.6):
    if not (0.0 <= burst_start < burst_stop <= 1.0):
        raise ParameterError(
            f"burst window [{burst_start}, {burst_stop}) must sit inside [0, 1]"
        )
    duration = t.size / fs
    gate = (t >= burst_start * duration) & (t < burst_stop * duration)
    x = amp_low * np.sin(2.0 * np.pi * f_low * t)
    x = x + np.where(gate, amp_high * np.sin(2.0 * np.pi * f_high * t), 0.0)
    return x


def _linear_chirp(t, fs, noise, *, f0: float = 2.0, f1: float = 30.0):
    duration = t.size / fs
    phase = 2.0 * np.pi * (f0 * t + (f1 - f0) * t * t / (2.0 * duration))
    return np.cos(phase)


def _fm_sinusoid(t, fs, noise, *, f_carrier: float = 20.0,
                 deviation_hz: float = 8.0, rate_hz: float = 1.0):
    if not rate_hz > 0:
        raise ParameterError(f"rate_hz must be > 0, got {rate_hz}")
    # modulation index deviation_hz/rate_hz: instantaneous frequency
    # swings f_carrier +- deviation_hz at rate_hz
    return np.cos(2.0 * np.pi * f_carrier * t
                  + (deviation_hz / rate_hz) * np.sin(2.0 * np.pi * rate_hz * t))


def _intrawave_mix(t, fs, noise):
    a = 1.0 / (1.2 + np.cos(2.0 * np.pi * t))
    b = np.cos(32.0 * np.pi * t + 0.2 * np.cos(64.0 * np.pi * t))
    c = 1.5 + np.sin(2.0 * np.pi * t)
    return a + b / c


def _model_wave(t, fs, noise, *, omega: float = 1.0, epsilon: float = 0.5):
    return np.cos(omega * t + epsilon * np.sin(omega * t))


def _unit_sample(t, fs, noise, *, n0: int | None = None):
    n0 = t.size // 2 if n0 is None else n0
    if not (0 <= n0 < t.size):
        raise ParameterError(f"n0 must be in [0, {t.size}), got {n0}")
    x = np.zeros(t.size)
    x[n0] = 1.0
    return x


def _white_gaussian(t, fs, noise, *, sigma: float = 1.0):
    if not sigma > 0:
        raise ParameterError(f"sigma must be > 0, got {sigma}")
    return sigma * noise(t.size)


# a kind's name is its function's, without the underscore
_GENERATORS = {f.__name__[1:]: f for f in (
    _tone_mix, _intermittent_tone, _linear_chirp, _fm_sinusoid,
    _intrawave_mix, _model_wave, _unit_sample, _white_gaussian)}


def _as_declared(value, hint):
    """``value`` checked as a ``hint`` of float, int, list[...] or ``... |
    None``; TypeError if it is not one (no bool is, nor a non-finite
    float). Numbers come back as float for float, and sequences as lists,
    which index arrays by element."""
    args = typing.get_args(hint)
    if type(None) in args:
        return None if value is None else _as_declared(value, args[0])
    if hint is float and is_real(value) and math.isfinite(value):
        return float(value)
    if hint is int and is_integer(value):
        return value
    if typing.get_origin(hint) is list and isinstance(value, (list, tuple)):
        return [_as_declared(v, args[0]) for v in value]
    raise TypeError


def generate(spec: GeneratorSpec):
    """Produce the record a GeneratorSpec describes.

    The params are checked against the kind's keyword-only arguments.
    Returns a Signal, or a MultichannelSignal when the recipe's params
    ask for multiple channels (tone_mix with a ``channels`` list).
    """
    func = _GENERATORS.get(spec.kind)
    if func is None:
        raise ParameterError(f"unknown generator kind {spec.kind!r}; valid "
                             "kinds: " + ", ".join(sorted(_GENERATORS)))
    declared = {name: p.annotation
                for name, p in inspect.signature(func).parameters.items()
                if p.kind is p.KEYWORD_ONLY}
    unknown = sorted(set(spec.params) - set(declared))
    if unknown:
        raise ParameterError(f"bad params for {spec.kind}: unknown params "
                             + ", ".join(unknown))
    kwargs = {}
    for name, value in spec.params.items():
        try:
            kwargs[name] = _as_declared(value, declared[name])
        except (TypeError, OverflowError):
            raise ParameterError(
                f"bad params for {spec.kind}: {name} must be "
                f"{inspect.formatannotation(declared[name])}, got {value!r}"
            ) from None
    if spec.seed is not None:
        noise = np.random.default_rng(spec.seed).standard_normal
    else:
        def noise(size):
            raise ParameterError(f"{spec.kind} draws noise; a seed is required")

    fs = spec.sample_rate_hz
    t = sample_times(spec.n, fs, 0.0)
    # finite times can still overflow a recipe (the chirp squares t)
    with np.errstate(over="ignore", invalid="ignore"):
        out = func(t, fs, noise, **kwargs)
    channels = out if isinstance(out, list) else [out]
    if not all(np.isfinite(x).all() for x in channels):
        raise ParameterError(f"{spec.kind} at {fs!r} Hz overflows float64")
    signals = tuple(Signal(x, fs) for x in channels)
    return MultichannelSignal(signals) if isinstance(out, list) else signals[0]


def aligned_tone_fixture(n: int = 1024, sample_rate_hz: float = 128.0,
                         sigma: float = 0.2, seed: int | None = 7) -> MultichannelSignal:
    """Four noisy channels sharing sinusoids at 4, 8, 16, and 32 Hz.

    With the defaults every tone lands exactly on a DFT bin and each
    dyadic filter-bank level isolates exactly one tone, which makes
    this the reference record for cross-channel band alignment checks.
    Channel p carries the tone subset:

        0: 4, 8, 16, 32   1: 8, 16, 32   2: 4, 8, 16   3: 4, 8, 32
    """
    spec = GeneratorSpec(
        kind="tone_mix",
        n=n,
        sample_rate_hz=sample_rate_hz,
        seed=seed,
        params={
            "freqs": (4.0, 8.0, 16.0, 32.0),
            "sigma": sigma,
            "channels": ((0, 1, 2, 3), (1, 2, 3), (0, 1, 2), (0, 1, 3)),
        },
    )
    out = generate(spec)
    assert isinstance(out, MultichannelSignal)
    return out
