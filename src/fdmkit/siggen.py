"""Deterministic test-signal generators.

Every generator is a pure function of (n, sample_rate_hz, params) plus
an optional seeded RNG, so a spec reproduces the same samples on every
run and platform. Randomness comes only from numpy's default
PCG64 generator; kinds that draw from it refuse to run without a seed.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .mfdm import MultichannelSignal
from .spectral import Signal, check_sample_rate


@dataclass
class GeneratorSpec:
    """Recipe for one synthetic record.

    ``params`` holds the kind-specific knobs; unknown keys are
    rejected rather than ignored so typos fail loudly.
    """

    kind: str
    n: int
    sample_rate_hz: float
    seed: int | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError(f"n must be >= 2, got {self.n}")
        check_sample_rate(self.sample_rate_hz, self.n)
        if not isinstance(self.params, dict):
            raise ParameterError("params must be a dict")


def _tone_mix(t, fs, params, rng_factory):
    freqs = np.asarray(params.get("freqs", (4.0, 8.0, 16.0, 32.0)), dtype=np.float64)
    amps = np.asarray(params.get("amps", np.ones(freqs.size)), dtype=np.float64)
    sigma = float(params.get("sigma", 0.0))
    channels = params.get("channels")
    if amps.size != freqs.size:
        raise ParameterError(
            f"amps has {amps.size} entries for {freqs.size} freqs"
        )
    if sigma < 0:
        raise ParameterError(f"sigma must be >= 0, got {sigma}")
    rng = rng_factory() if sigma > 0 else None
    tones = amps[:, None] * np.sin(2.0 * np.pi * freqs[:, None] * t[None, :])
    if channels is None:
        x = tones.sum(axis=0)
        if rng is not None:
            x = x + sigma * rng.standard_normal(t.size)
        return x
    out = []
    for idx in channels:
        idx = tuple(int(j) for j in idx)
        for j in idx:
            if not (0 <= j < freqs.size):
                raise ParameterError(f"channel tone index {j} out of range")
        x = tones[list(idx)].sum(axis=0) if idx else np.zeros(t.size)
        if rng is not None:
            # one stream, channels drawn in order, so channel noise is
            # independent yet the whole record is a function of the seed
            x = x + sigma * rng.standard_normal(t.size)
        out.append(x)
    return out


def _intermittent_tone(t, fs, params, rng_factory):
    f_low = float(params.get("f_low", 4.0))
    f_high = float(params.get("f_high", 32.0))
    amp_low = float(params.get("amp_low", 1.0))
    amp_high = float(params.get("amp_high", 0.5))
    start = float(params.get("burst_start", 0.4))
    stop = float(params.get("burst_stop", 0.6))
    if not (0.0 <= start < stop <= 1.0):
        raise ParameterError(
            f"burst window [{start}, {stop}) must sit inside [0, 1]"
        )
    duration = t.size / fs
    gate = (t >= start * duration) & (t < stop * duration)
    x = amp_low * np.sin(2.0 * np.pi * f_low * t)
    x = x + np.where(gate, amp_high * np.sin(2.0 * np.pi * f_high * t), 0.0)
    return x


def _linear_chirp(t, fs, params, rng_factory):
    f0 = float(params.get("f0", 2.0))
    f1 = float(params.get("f1", 30.0))
    duration = t.size / fs
    phase = 2.0 * np.pi * (f0 * t + (f1 - f0) * t * t / (2.0 * duration))
    return np.cos(phase)


def _fm_sinusoid(t, fs, params, rng_factory):
    fc = float(params.get("f_carrier", 20.0))
    dev = float(params.get("deviation_hz", 8.0))
    rate = float(params.get("rate_hz", 1.0))
    if rate <= 0:
        raise ParameterError(f"rate_hz must be > 0, got {rate}")
    # modulation index dev/rate: instantaneous frequency swings
    # fc +- dev at rate_hz
    return np.cos(2.0 * np.pi * fc * t
                  + (dev / rate) * np.sin(2.0 * np.pi * rate * t))


def _intrawave_mix(t, fs, params, rng_factory):
    a = 1.0 / (1.2 + np.cos(2.0 * np.pi * t))
    b = np.cos(32.0 * np.pi * t + 0.2 * np.cos(64.0 * np.pi * t))
    c = 1.5 + np.sin(2.0 * np.pi * t)
    return a + b / c


def _model_wave(t, fs, params, rng_factory):
    omega = float(params.get("omega", 1.0))
    epsilon = float(params.get("epsilon", 0.5))
    return np.cos(omega * t + epsilon * np.sin(omega * t))


def _unit_sample(t, fs, params, rng_factory):
    n = t.size
    n0 = int(params.get("n0", n // 2))
    if not (0 <= n0 < n):
        raise ParameterError(f"n0 must be in [0, {n}), got {n0}")
    x = np.zeros(n)
    x[n0] = 1.0
    return x


def _white_gaussian(t, fs, params, rng_factory):
    sigma = float(params.get("sigma", 1.0))
    if sigma <= 0:
        raise ParameterError(f"sigma must be > 0, got {sigma}")
    return sigma * rng_factory().standard_normal(t.size)


# kind -> (generator, allowed params, always needs a seed)
_GENERATORS = {
    "tone_mix": (_tone_mix, {"freqs", "amps", "sigma", "channels"}, False),
    "intermittent_tone": (_intermittent_tone,
                          {"f_low", "f_high", "amp_low", "amp_high",
                           "burst_start", "burst_stop"}, False),
    "linear_chirp": (_linear_chirp, {"f0", "f1"}, False),
    "fm_sinusoid": (_fm_sinusoid, {"f_carrier", "deviation_hz", "rate_hz"}, False),
    "intrawave_mix": (_intrawave_mix, set(), False),
    "model_wave": (_model_wave, {"omega", "epsilon"}, False),
    "unit_sample": (_unit_sample, {"n0"}, False),
    "white_gaussian": (_white_gaussian, {"sigma"}, True),
}


def generate(spec: GeneratorSpec):
    """Produce the record a GeneratorSpec describes.

    Returns a Signal, or a MultichannelSignal when the recipe's params
    ask for multiple channels (tone_mix with a ``channels`` list).
    """
    try:
        func, allowed, needs_seed = _GENERATORS[spec.kind]
    except KeyError:
        raise ParameterError(
            f"unknown generator kind {spec.kind!r}; valid kinds: "
            + ", ".join(sorted(_GENERATORS))
        ) from None
    extra = set(spec.params) - allowed
    if extra:
        raise ParameterError(
            f"unknown params for {spec.kind}: {', '.join(sorted(extra))}"
        )
    if needs_seed and spec.seed is None:
        raise ParameterError(f"kind {spec.kind!r} draws noise; a seed is required")

    def rng_factory():
        if spec.seed is None:
            raise ParameterError(
                f"kind {spec.kind!r} with these params draws noise; "
                "a seed is required"
            )
        return np.random.default_rng(spec.seed)

    fs = spec.sample_rate_hz
    t = np.arange(spec.n) / fs
    out = func(t, fs, spec.params, rng_factory)
    if isinstance(out, list):
        return MultichannelSignal(tuple(Signal(x, fs) for x in out))
    return Signal(out, fs)


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
