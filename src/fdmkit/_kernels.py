"""Band-scan kernels behind the decomposition engine.

The greedy scan spends nearly all its time answering one question per
candidate band: is the unwrapped phase of the band's analytic signal
non-decreasing (within tolerance) at every interior sample? The answer
is defined on one floating-point recipe, the sequential sums z_seq: the
complex accumulation is spelled out in real/imaginary parts (each part
summed on its own, no fused multiply-add surprises), each sample of the
band signal is the bins' terms added one at a time in scan order onto
+0.0, phases come from atan2, and phase increments are wrapped to
(-pi, pi] the same way ``np.unwrap`` wraps them.

The first-violation search judges the candidates in scan order, each
at every sample of the sums ``_tail`` yields as it adds one bin at a
time, and stops at the first failure after a pass. Nearly every
candidate it judges passes, and a pass needs every sample, so it takes
no probe.

The maximal search is probe-first. On broadband records almost every
candidate is rejected, most of them by a phase violation within the
first few samples, so each candidate is first judged on its first
PROBE samples only, its probe window. The windows are built BLOCK
consecutive candidates at a time, on two panels (``_Panel``): the head,
samples 0..HEAD-1, and the tail, samples HEAD-2..PROBE-1. On each
panel a block's windows come out of one cumulative sum down the
candidate axis whose first row is the previous candidate's window;
cumsum adds row by row, so sample m of row j is
((z[m] + w_1[m]) + w_2[m]) + ... + w_j[m], the very additions, in the
very order, of z_seq. The sum runs over a complex128 view that pairs
neighbouring samples of the real rows, and of the imaginary rows: a
complex add is one IEEE add per part, so the adds are the same, with
half as many chains down the candidates. A zero sample or a phase
slope below -eps inside a window rejects its candidate for good.

Every block is summed and judged on the head. Most candidates fail
there, and a block none of whose candidates passes the head only
waits: its tail is summed just before that of the next block with a
head survivor, which needs the running sums past it, and a band's
blocks after its last such block never sum a tail at all. A candidate
survives the probe when it passes both panels. They share two samples,
so that between them they judge every interior slope of the window.

Before any probe, the top candidate (every bin of the run, in scan
order) is judged at every sample: by the certified check described
below, with one more window, judged first, for the probe's samples
(``_Check.whole``). Under max an admissible top is the answer, and on
single-band records (chirps, FM tones, model waves) it is, so they
build no probe. A failed top that survives the probe fails its check
again, at the cost of a judgement: its windows are still loaded at it.
The top check takes certificates only: a window they leave open (a
unit sample's, whose whole-band |z_f| sits under 2 delta almost
everywhere) leaves its verdict open, and the probe and the survivors'
checks settle the band as before, for less than exact sums over that
window would cost. The bits hold: a settled top check judges z_seq at
every slope, the verdict the probe (samples 0..PROBE-1) and a survivor
check (PROBE-2..n-1) reach between them.

A candidate whose window passes is a survivor; its full check judges
the samples from the window's last two on. The search collects every
survivor and checks them from the highest down, stopping at the first
pass, with certified checks (``_Check``), one per band, shared with
the top check, on the context's buffers and windows. A check judges
z_f = ifft(masked coefficients, norm="forward"), one O(n log n)
transform whatever the number of bins, and trusts z_f's verdict only
where a proven bound delta >= |z_seq - z_f| settles it:

- a pass is certain when every judged slope clears -eps by its
  allowance, every |z_f| > 2 delta, and no wrapped step lies within
  its allowance of +-pi;
- a fail is certain when one such slope lies below -eps by its
  allowance.

A sample's phase moves by at most asin(delta / |z_f|) between z_f and
z_seq. A step's allowance is the sum of its two samples' moves, and a
slope's the mean of its two steps'. Each also gets _ATAN2 per phase for
the atan2 kernel, enough for both numpy's AVX-512 kernel and glibc's,
and _ROUND for the roundings of the steps, the wrap, the mean and the
comparisons themselves. A fail is certified at the least slope alone
(``_fails_at``), and a pass by a single allowance from the least
|z_f|; a window either settles or is left open (``_Window.judge``).
A check returns False on any certain fail. Otherwise each open window
in turn is judged on z_seq itself at every one of its samples, up to
the first that fails: ``_exact_sums`` runs ``_tail``, the engine of
the first-violation walk, over the window's samples alone and keeps
its last sums, the walk's bits at those samples. The windows overlap
by two samples, so between them their interior slopes are every slope
the check judges, and the verdict is, bit for bit, that of summing the
whole band in scan order.

Failing checks mostly fail early, so a check judges its first WINDOW
samples first and the rest only when those settle no fail, each on a
``_Window``. A window is loaded from z_f and then follows the walk down
the candidates: consecutive survivors are mostly a bin or two apart,
and dropping those bins' terms from the window costs less than a fresh
transform. Each drop adds its own rounding to the window's bound. Past
the leading window a radix transform is the cheaper, so there only a
length with a slow route (a prime factor above 11) drops bins.

The bound delta on |z_seq - z_f| is stated with u = 2**-53 and
gamma_k = k u / (1 - k u), for a candidate of K bins with S = sum |c_k|
and ||c||_2 their 2-norm:

- Sequential side (Higham, Accuracy and Stability of Numerical
  Algorithms, 2nd ed., ch. 3-4). The twiddle table holds
  fl(cos(fl(fl(2 pi j) / n))), so its angle is off by at most
  2 pi gamma_3 and numpy's cos and sin add at most 8 u per part:
  |w - e^{i 2 pi j/n}| <= mu_tab = 2 pi gamma_3 + 8 sqrt(2) u. A term is
  off by at most |c_k| tau, tau = mu_tab + sqrt(2) gamma_2 (1 + mu_tab),
  and recursive summation of K terms, each part on its own, adds
  gamma_{K-1} sum |term| (Minkowski puts the two parts together):
  |z_seq - z| <= S (tau + gamma_{K-1} (1 + tau)).
- FFT side, as a 2-norm bound with ||e||_inf <= ||e||_2. pocketfft
  runs a length as passes: hard-coded radices 2, 3, 4, 5, 7, 8 and 11,
  and a generic pass for any other prime factor. In each of them an
  output part is a sum over the input parts along one path each,
  weighted by the real and imaginary parts of the DFT coefficient,
  whose moduli sum to at most |a_l| per input. A path holds at most 12
  roundings in a hard-coded pass, the rounded literal constants
  included, and at most r + 6 in a generic pass of radix r, whose
  weights come from a table of roots off by up to mu = 16 u. The output
  is then multiplied by a twiddle off by at most mu (pocketfft builds
  them from two table entries made by sin and cos). So a pass output is
  off by at most eps_r sum_l |a_l| (``_pass_error``), and a pass of
  exact norm sqrt(r) by at most r eps_r ||a||_2. Over passes (the
  argument of Higham's Thm 24.2) ||fl(F x) - F x||_2 <= sqrt(n) theta
  ||x||_2 with theta = prod (1 + sqrt(r) eps_r) - 1 over the prime
  factors of n with multiplicity, which bounds any grouping of the 2s
  into passes of 4 and 8. Where pocketfft's cost rule may instead pick
  Bluestein's algorithm (n >= 50 with a prime factor p, p**2 > n), the
  bound is the larger of that and ``_bluestein_error``: a product with
  a chirp, a transform at an 11-smooth N2 >= 2n - 1, a product with a
  transformed chirp of modulus <= 1, a transform back and a product
  with the chirp, whose stage bounds chain to about
  (N2 / sqrt(n)) 3 theta(N2). Every length is covered, so no length
  leaves every window open to exact sums.
- delta = 1.001 (S (tau + gamma_{K-1}(1 + tau)) + sqrt(n) theta
  min(S, ||c||_2) + n**2 2**-1070). The factor covers delta's own
  roundings, and the last term the absolute error of products that
  underflow, outside the relative model.

The wrap uses compare and subtract in place of ``np.mod``, with the
same bits (see ``_wrap``). Layout matters as much as arithmetic here. A
block's windows are judged as one flat, contiguous run of samples
rather than through strided 2-D views: the steps across row seams are
computed with the rest and their slopes dropped before the per-row
verdict (see ``_admissible_rows``); the rows a panel judges are
always contiguous float64.

A decomposition scans all its bands through one ``ScanContext``, which
holds what does not depend on the band: the coefficients, the twiddle
tables and the complex table ``tab`` the checks' drops read, the
checks' transform buffers and windows, and the probe panels. Each is
built on its first use and handed to the next band reset: a panel's
carry goes back to +0.0, a window's ``count`` to 0, so that it reaches
no candidate of another band. A panel builds a block's terms
(``_Panel.build``) from twiddle indices k m mod n: its table of j step
m mod n plus the block's row k0 m mod n, folded back into [0, n) by
``_fold`` with no division per block, then ``_term``. The head's term
of bin k at sample m, c_k e^{i 2 pi k m / n}, does not depend on the
band, and under the maximal search every band re-probes each bin above
its start: so on the first probe an ascending panel of the head builds
every bin's head terms into one table (``ScanContext.head_terms``), and
a head block copies its rows out of it, a reversed slice for descending
bins, before its cumsum. The table takes about 512 n bytes (2.1 MB at
n=4096), and ``decompose`` refuses a record whose context would pass
``spectral.MAX_VALUES`` (``context_values``). The tail's table would be
three times as large, so a tail block builds its own terms.
"""
import functools
import math

import numpy as np

_PI = math.pi
_TWO_PI = 2.0 * math.pi


def twiddle_tables(n: int):
    """cos/sin lookup tables for e^{j 2 pi m / n}, m = 0..n-1."""
    ang = _TWO_PI * np.arange(n) / n
    return np.cos(ang), np.sin(ang)


# Leading samples the maximal search judges every candidate on first;
# most candidates already break admissibility inside this window.
PROBE = 256
# Leading probe samples every block is judged on. A block sums and
# judges the rest of its window only once one of its candidates passes
# these; the blocks after a band's last such block never do. On white
# noise, n=4096, lth/max (seeds 0-3) that is 933 of 2,071 blocks (45%).
HEAD = 64
# Maximal-search candidates whose probe windows come out of one cumsum.
BLOCK = 64
# Leading samples of a certified full check judged before the rest;
# failing checks mostly fail inside it.
WINDOW = 1024

_U = 2.0**-53
# the ulp of pi; atan2 error of either numpy kernel, and the slack for
# the roundings of a step, its wrap, a slope and a comparison
_ULP_PI = 2.0**-51
_ATAN2 = 8 * _ULP_PI
_ROUND = 64 * _ULP_PI


def _wrap(d, out=None):
    """``np.mod(d + pi, 2 pi) - pi`` by compare and subtract.

    Bit for bit the same as the ``np.mod`` form for every d in
    [-2 pi, 2 pi], the range of a difference of two atan2 values. With
    s = d + pi, ``np.mod`` returns s itself on [0, 2 pi), s - 2 pi from
    2 pi up (fmod is exact, and so is this subtraction for s below
    4 pi) and the rounded s + 2 pi below zero. The two corrections
    touch disjoint samples only because the subtraction comes first:
    s + 2 pi may round up to 2 pi itself, which ``np.mod`` returns as is.
    """
    s = np.add(d, _PI, out=out)
    s[np.nonzero(s >= _TWO_PI)] -= _TWO_PI
    s[np.nonzero(s < 0.0)] += _TWO_PI
    s -= _PI
    return s


def _admissible_rows(zr, zi, eps, work=None):
    """Admissibility of every row of zr + i zi (time on the last axis).

    The rows are judged as one flat run of samples, so that every step
    works on contiguous memory: atan2, the phase steps, the wrap and the
    slope sums all run over ``reshape(-1)``. The step from the last
    sample of a row to the first of the next is computed along with the
    rest; it is a difference of two atan2 values, inside ``_wrap``'s
    domain, and the two slopes it enters, those of a row's first and
    last sample, are dropped before the per-row verdict. Interior
    slopes get the same bits as when each row is judged alone.

    ``work`` optionally supplies three contiguous scratch arrays shaped
    like zr, so that a hot loop allocates nothing the size of a row.
    """
    if work is None:
        work = [np.empty(zr.shape) for _ in range(3)]
    raw = work[0].reshape(-1)
    d = work[1].reshape(-1)[:-1]
    s = work[2].reshape(-1)[:-1]
    # a zero sample has no phase; zr alone is almost never exactly 0
    zero = ~zr.all(axis=-1)
    if zero.any():
        zero = ((zr == 0.0) & (zi == 0.0)).any(axis=-1)
    np.arctan2(zi.reshape(-1), zr.reshape(-1), out=raw)
    np.subtract(raw[1:], raw[:-1], out=d)
    dm = _wrap(d, out=s)
    # np.unwrap keeps +pi for a positive jump of exactly pi
    at_pi = dm == -_PI
    if at_pi.any():
        dm[at_pi & (d > 0.0)] = _PI
    # slope of flat sample i at raw[i]; raw[0] and raw[-1] keep their
    # atan2 values and sit in masked columns
    omega = np.add(dm[:-1], dm[1:], out=raw[1:-1])
    omega *= 0.5
    bad = (raw < -eps).reshape(zr.shape)
    bad[..., 0] = False
    bad[..., -1] = False
    return ~(zero | bad.any(axis=-1))


def _fold(idx, n, alt):
    """Take twiddle indices in [0, 2n) back into [0, n), in place and
    without a division: of idx and idx - n, the one in range is the
    smaller as unsigned integers. ``alt`` is scratch shaped like idx."""
    np.subtract(idx, n, out=alt)
    np.minimum(idx.view(np.uint64), alt.view(np.uint64),
               out=idx.view(np.uint64))


def _term(cr, ci, idx, cos_tab, sin_tab, out):
    """Real and imaginary parts of (cr + i ci) e^{i 2 pi idx / n}.

    They are cr*wr - ci*wi and cr*wi + ci*wr, each product rounded on
    its own. ``out`` supplies four scratch arrays shaped like idx; the
    last two receive the result.
    """
    wr, wi, re, im = out
    np.take(cos_tab, idx, out=wr, mode="clip")
    np.take(sin_tab, idx, out=wi, mode="clip")
    np.multiply(cr, wr, out=re)
    np.multiply(ci, wi, out=im)
    re -= im
    np.multiply(cr, wi, out=im)
    wr *= ci
    im += wr
    return re, im


def _tail(sr, si, cos_tab, sin_tab, bins, m):
    """Yield z_seq (zr, zi) at the samples ``m`` for each candidate of
    ``bins`` in turn: each bin's term added in order onto +0.0. The
    arrays are updated in place for the next candidate.

    Each bin is one step (+1 or -1, read off ``bins``) from the last,
    so bin k's twiddle index k m mod n is the previous bin's plus
    (step m) mod n, folded back into [0, n) by ``_fold``. A sample's
    sums do not depend on which other samples ``m`` holds.
    """
    n = sr.shape[0]
    step = int(bins[1] - bins[0]) if bins.size > 1 else 1
    zr = np.zeros(m.size)
    zi = np.zeros(m.size)
    idx = ((int(bins[0]) - step) * m) % n
    alt = np.empty_like(idx)
    delta = (step * m) % n
    work = [np.empty(m.size) for _ in range(4)]
    for k in bins.tolist():
        idx += delta
        _fold(idx, n, alt)
        re, im = _term(sr[k], si[k], idx, cos_tab, sin_tab, work)
        zr += re
        zi += im
        yield zr, zi


def _exact_sums(sr, si, cos_tab, sin_tab, ks, ms):
    """z_seq at samples ``ms`` for the band of bins ``ks``: the last
    sums ``_tail`` yields over those samples."""
    for zr, zi in _tail(sr, si, cos_tab, sin_tab, ks, ms):
        pass
    return zr, zi


def _gamma(k):
    return k * _U / (1.0 - k * _U)


_SQRT2 = math.sqrt(2.0)
# |w - e^{i theta}| for the scan's twiddle tables, and a term's error
# per unit |c_k|; see the module docstring
_MU_TAB = _TWO_PI * _gamma(3) + 8 * _SQRT2 * _U
_TAU = _MU_TAB + _SQRT2 * _gamma(2) * (1 + _MU_TAB)
# pocketfft: twiddle error, and the error of a product with a twiddle
# per unit modulus of the other factor
_MU = 16 * _U
_EPS_MUL = _SQRT2 * _gamma(2) * (1 + _MU) + _MU


def _prime_factors(n):
    out, p = [], 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    return out + [n] if n > 1 else out


def _good_size(n):
    """The smallest 11-smooth length >= n."""
    while _prime_factors(n)[-1] > 11:
        n += 1
    return n


def _pass_error(r):
    """Error of one output of a radix-r pass per unit sum |a_l| of its
    inputs, twiddle product included. A hard-coded radix (r <= 11) has
    at most 12 roundings on a path, its literal constants' included;
    the generic pass pairs inputs, sums (r - 1) / 2 weighted pairs and
    pairs the results again, within r + 6 roundings, and its weights,
    read from a table of roots, are off by up to mu each."""
    if r <= 11:
        butterfly = _SQRT2 * _gamma(12)
    else:
        g = _gamma(r + 6)
        butterfly = _SQRT2 * g + 2 * _MU * (1 + g)
    return butterfly + _EPS_MUL * (1 + butterfly)


def _passes_error(factors):
    """theta with ||fl(F x) - F x||_2 <= sqrt(n) theta ||x||_2 on
    pocketfft's passes, one per prime factor of n."""
    theta = 1.0
    for p in factors:
        theta *= 1.0 + math.sqrt(p) * _pass_error(p)
    return theta - 1.0


def _bluestein_error(n, n2):
    """theta for Bluestein's route at inner length n2: the stage bounds
    of chirp products (_EPS_MUL), transforms (_passes_error) and the
    product with the transformed chirp, whose own error is rho."""
    t2 = _passes_error(_prime_factors(n2))
    tau = _MU + _gamma(2) * (1 + _MU)
    rho = t2 * (1 + tau) + tau
    e_b = t2 * (1 + _EPS_MUL) + _EPS_MUL
    e_c = (1 + rho) * e_b + rho + _SQRT2 * _gamma(2) * (1 + rho) * (1 + e_b)
    e_d = t2 * (1 + e_c) + e_c
    return (1 + _EPS_MUL) * n2 / math.sqrt(n) * e_d + _EPS_MUL


def _ifft_error(n):
    """theta with |z_f - z| <= sqrt(n) theta ||c||_2 at every sample,
    whichever route pocketfft takes for length n, and whether that
    route is slow (a prime factor past 11: a generic pass or
    Bluestein's).

    pocketfft runs its passes unless n >= 50 has a prime factor p with
    p**2 > n; then a cost estimate picks between its passes and
    Bluestein's algorithm, and the larger of the two bounds holds
    either way.
    """
    factors = _prime_factors(n)
    theta = _passes_error(factors)
    if n >= 50 and factors[-1] ** 2 > n:
        theta = max(theta, _bluestein_error(n, _good_size(2 * n - 1)))
    return theta, factors[-1] > 11


def _allowance(ratio):
    """Bound on the phase move of a sample with delta / |z_f| = ratio
    (at most 1/2), plus both samples' atan2 errors."""
    return math.asin(ratio) * (1.0 + 2.0**-40) + 2 * _ATAN2


# Bins a window drops one term at a time before a fresh transform is
# cheaper. Past the leading window, a radix transform costs less than
# one dropped bin, and Bluestein's about as much as this many.
DROPS = 16
# Cells of the terms ``_Window.drop`` takes out in one block.
_CHUNK = 1 << 18


class _Window:
    """A run of samples lo..hi-1 of the band signal of ``count`` bins,
    kept within ``delta`` of the exact one.

    It is loaded from z_f and then follows the walk down the candidates
    by dropping the terms of the bins the walk leaves, up to ``limit``
    bins at a time (fewer where their terms would pass _CHUNK cells).
    """

    def __init__(self, lo, hi, limit):
        size = hi - lo
        self.lo = lo
        self.m = np.arange(lo, hi)
        self.limit = min(limit, _CHUNK // size)
        self.z = np.empty(size, dtype=np.complex128)
        self.count = 0
        self.delta = 0.0
        self.idx = np.empty((self.limit, size), dtype=np.intp)
        self.terms = np.empty((self.limit, size), dtype=np.complex128)
        self.work = [np.empty(size) for _ in range(3)]

    @staticmethod
    def values(size, limit):
        """Float64 values a window of ``size`` samples holds: 6 a sample
        for its indices, sums and three work rows, and 3 a cell for the
        twiddle indices and terms of the bins it drops at a time."""
        return size * (6 + 3 * min(limit, _CHUNK // size))

    def reaches(self, pos):
        return 0 <= self.count - pos - 1 <= self.limit

    def load(self, z, pos, delta):
        np.copyto(self.z, z[self.lo:self.lo + self.z.size])
        self.count = pos + 1
        self.delta = delta

    def drop(self, check, pos):
        """Take the terms of bins[pos + 1:count] out.

        The terms are the scan's, each off by at most |c_k| tau; their
        sum adds gamma_{d-1} of their moduli and the subtraction u of
        the result, whose modulus is at most S of candidate pos plus
        the window's error.
        """
        d = self.count - pos - 1
        if d == 0:
            return
        # twiddle indices k m mod n, rows k descending
        idx = np.multiply.outer(check.bins[self.count - 1:pos:-1], self.m,
                                out=self.idx[:d])
        tab = check.scan.tab
        idx %= tab.size
        terms = np.take(tab, idx, out=self.terms[:d])
        terms *= check.c[self.count - 1:pos:-1, None]
        self.z -= terms[0] if d == 1 else terms.sum(axis=0)
        drop = check.mag[pos + 1:self.count].sum() * (1.0 + 2.0**-40)
        err = drop * (_TAU + _gamma(d - 1) * (1 + _TAU)) + d * 2.0**-1070
        self.delta = ((self.delta + err) * (1 + _U)
                      + 1.001 * _U * check.l1[pos]) * (1 + 16 * _U)
        self.count = pos + 1

    def judge(self, eps, delta):
        """Judge the window, within delta of z_seq: False on a fail
        certain at its least slope, True on a pass certain at every
        slope, else None, the window left open."""
        z = self.z
        raw, absz, dm = self.work
        d = absz[:-1]
        dm = dm[:-1]
        np.arctan2(z.imag, z.real, out=raw)
        np.subtract(raw[1:], raw[:-1], out=d)
        # the step wrapped to about (-pi, pi]; a step this puts near
        # +-pi has no certificate, so which side it lands on is moot
        np.multiply(d, 1.0 / _TWO_PI, out=dm)
        np.rint(dm, out=dm)
        dm *= _TWO_PI
        np.subtract(d, dm, out=dm)
        omega = np.add(dm[:-1], dm[1:], out=raw[1:-1])
        omega *= 0.5
        i = int(omega.argmin())
        if omega[i] < -eps:
            # a failing check, most likely certain at its least slope
            return False if _fails_at(z, dm, omega, i, eps, delta) else None
        # one allowance for every sample, from the least |z_f|
        least = np.abs(z, out=absz).min()
        if least > 2.0 * delta:
            step = 2.0 * _allowance(delta / least) + _ROUND
            if (omega[i] - step - _ROUND > -eps
                    and max(dm.max(), -dm.min()) < _PI - step - _ROUND):
                return True
        return None


def _fails_at(z, dm, omega, i, eps, delta):
    """Is the one slope omega[i] a certain fail? It is when its three
    samples have |z_f| > 2 delta, neither of its steps lies within its
    allowance of +-pi, and it lies below -eps by its allowance."""
    mags = [abs(complex(v)) for v in z[i:i + 3]]
    if not all(r > 2.0 * delta for r in mags):
        return False
    a = [_allowance(delta / r) for r in mags]
    step0 = a[0] + a[1] + _ROUND
    step1 = a[1] + a[2] + _ROUND
    return (abs(dm[i]) < _PI - step0 - _ROUND
            and abs(dm[i + 1]) < _PI - step1 - _ROUND
            and omega[i] + 0.5 * (step0 + step1) + _ROUND < -eps)


def _spans(n, start, slow):
    """(lo, hi, limit) of each window of a check from ``start``: the
    samples up to WINDOW from it, then the rest, which drop bins only
    where the record's transform is slow."""
    end = min(start + WINDOW, n)
    spans = [(start, end, DROPS)]
    if end < n:
        spans.append((end - 2, n, DROPS if slow else 0))
    return spans


class _Check:
    """Certified full checks of the candidates ``bins[:pos + 1]`` on
    samples ``start``..n-1 (see the module docstring), for one band of
    the record of ``scan``.

    The samples up to WINDOW from ``start`` are judged first, and the
    rest only when those do not settle a fail, each on its own
    ``_Window``. A window that cannot reach the candidate by dropping
    bins is loaded, with every other, from a fresh z_f. The windows the
    certificates leave open are then summed exactly, one at a time.
    """

    def __init__(self, scan, bins, start):
        n = scan.n
        theta, slow = scan.fft_error
        sr, si = scan.coeffs[:2]
        self.scan = scan
        self.bins = bins
        self.c = np.empty(bins.size, dtype=np.complex128)
        self.c.real = sr[bins]
        self.c.imag = si[bins]
        k = np.arange(1, bins.size + 1)
        self.mag = np.abs(self.c)
        with np.errstate(over="ignore", invalid="ignore"):
            self.l1 = np.cumsum(self.mag)
            # the floor keeps the norm above what squares underflowing
            # to zero would hide
            l2 = np.sqrt(np.cumsum(self.mag * self.mag) + k * 2.0**-1074)
            g = _gamma(k - 1)
            tiny = n * n * 2.0**-1070
            self.dseq = 1.001 * (self.l1 * (_TAU + g * (1 + _TAU)) + tiny)
            self.dfft = 1.001 * (math.sqrt(n) * theta
                                 * np.minimum(self.l1, l2) + tiny)
        self.windows = [scan.window(*w) for w in _spans(n, start, slow)]

    def _transform(self, pos):
        """z_f of candidate ``pos``; every window is loaded from it."""
        band, z = self.scan.transform_buffers
        band.fill(0.0)
        band[self.bins[:pos + 1]] = self.c[:pos + 1]
        np.fft.ifft(band, norm="forward", out=z)
        for w in self.windows:
            w.load(z, pos, self.dfft[pos])

    def __call__(self, pos, eps, exact=True):
        """Is candidate ``bins[pos]`` admissible on the checked samples?
        Without ``exact``, None, the verdict left open, when a window is
        left open."""
        if not self.l1[pos] > 0.0:
            # every term is a signed zero, and so is every sum
            return False
        left = []
        with np.errstate(all="ignore"):
            for w in self.windows:
                if w.reaches(pos):
                    w.drop(self, pos)
                else:
                    self._transform(pos)
                got = w.judge(eps, self.dseq[pos] + w.delta)
                if got is False:
                    return False
                if got is None:
                    left.append(w)
        if left and not exact:
            return None
        # open windows, judged on z_seq at every one of their samples
        for w in left:
            zr, zi = _exact_sums(*self.scan.coeffs, self.bins[:pos + 1], w.m)
            if not _admissible_rows(zr, zi, eps):
                return False
        return True

    def whole(self, pos, eps):
        """Is candidate ``bins[pos]`` admissible at every sample, those
        before ``start`` included? None when a window is left open. The
        samples up to ``start`` + 2 are judged first, on a window of
        their own; the others keep the z_f this loads for the checks
        that follow."""
        windows = self.windows
        self.windows = [self.scan.window(0, windows[0].lo + 2, 0)] + windows
        got = self(pos, eps, exact=False)
        self.windows = windows
        return got


class _Panel:
    """Samples lo..hi-1 of the maximal search's probe windows, built
    and judged BLOCK candidates at a time, in scan order.

    Row j + 1 of a block is row j plus the term of the block's
    candidate j, and row 0 carries the previous block's last candidate.
    The real and imaginary rows sit in one float64 buffer, and the
    cumulative sum runs down a complex128 view of it that pairs
    neighbouring samples: a complex add is one IEEE add per part, so
    every sample gets the adds of z_seq, in its order, with half as
    many chains. An odd width gets one more sample for that view; it
    is summed but never judged.

    The head copies a block's terms from the record's table ``terms``
    (``ScanContext.head_terms``), bins in scan order, at its own
    samples. Without one, a block builds its terms (``build``): twiddle
    indices from ``table``, j step m mod n for row j, plus the block's
    row k0 m mod n, folded back into [0, n), then ``_term``.
    """

    def __init__(self, scan, step, lo, hi, terms=None):
        n = scan.n
        self.coeffs = scan.coeffs
        self.step = step
        self.terms = terms
        self.width = hi - lo
        wide = self.width + self.width % 2
        self.m = np.arange(lo, lo + wide)
        if terms is None:
            self.table = (step * np.arange(BLOCK)[:, None] * self.m) % n
            self.idx = np.empty((BLOCK, wide), dtype=np.intp)
            self.alt = np.empty((BLOCK, wide), dtype=np.intp)
        self.rows = np.zeros((2, BLOCK + 1, wide))
        self.pairs = self.rows.view(np.complex128)
        # building the rows and judging them take turns on the scratch;
        # an odd width judges contiguous copies of its rows
        self.work = [np.empty(BLOCK * wide)
                     for _ in range(3 if wide == self.width else 5)]

    def build(self, ks, out):
        """The terms of the block of candidates ``ks`` at the panel's
        samples, real parts into out[0] and imaginary into out[1]."""
        sr, si, cos_tab, sin_tab = self.coeffs
        n = sr.shape[0]
        b, wide = ks.size, self.m.size
        idx = self.idx[:b]
        np.add(self.table[:b], (int(ks[0]) * self.m) % n, out=idx)
        _fold(idx, n, self.alt[:b])
        wr, wi = (w[:b * wide].reshape(b, wide) for w in self.work[:2])
        _term(sr[ks, None], si[ks, None], idx, cos_tab, sin_tab,
              (wr, wi, out[0], out[1]))

    def add(self, ks):
        """Sum the block of candidates ``ks`` onto the carried row."""
        b = ks.size
        k = int(ks[0])
        rows = self.rows[:, 1:b + 1]
        if self.terms is None:
            self.build(ks, rows)
        elif self.step > 0:
            rows[...] = self.terms[:, k:k + b, :self.m.size]
        else:
            rows[...] = self.terms[:, k - b + 1:k + 1, :self.m.size][:, ::-1]
        pairs = self.pairs[:, :b + 1]
        np.cumsum(pairs, axis=1, out=pairs)
        self.rows[:, 0] = self.rows[:, b]

    def judge(self, ks, eps):
        """Sum the block ``ks`` and judge its rows on these samples."""
        self.add(ks)
        b, w = ks.size, self.width
        flat = [v[:b * w].reshape(b, w) for v in self.work]
        zr, zi = self.rows[:, 1:b + 1]
        if w < zr.shape[1]:
            np.copyto(flat[3], zr[:, :w])
            np.copyto(flat[4], zi[:, :w])
            zr, zi = flat[3], flat[4]
        return _admissible_rows(zr, zi, eps, flat[:3])


def context_values(n, exhaustive, merges=False):
    """Float64 values in the record-wide tables of the scan context of
    an n-sample record: the complex twiddle table and the checks' two
    transform buffers, 6 n; under the maximal search the probe head's
    term table, 2 (n // 2 + 1) values a sample of the head, about 512 n
    bytes, and the windows of the checks every band runs; and, if a tail
    ``merges``, the windows of its check. Windows take about 6 values a
    sample of the record, each set counted as if the transform were
    slow. The probe panels are left out; their size does not grow with
    n."""
    def windows(start):
        return sum(_Window.values(hi - lo, limit)
                   for lo, hi, limit in _spans(n, start, True))

    values = 6 * n
    if exhaustive:
        h = min(HEAD, PROBE, n)
        values += 2 * (n // 2 + 1) * (h + h % 2)
        if PROBE < n:
            # the boundary's checks, and the window ``whole`` adds
            values += windows(PROBE - 2) + _Window.values(PROBE, 0)
    if merges:
        values += windows(0)
    return values


class ScanContext:
    """What every band scan of one record shares: the coefficients and
    twiddle tables, and, each built on its first use, the certified
    checks' complex twiddle table ``tab``, their transform buffers and
    windows, the probe panels and the probe head's term table.

    A band resets what it takes: a panel's carry goes back to +0.0 and
    a window's ``count`` to 0, so a window reaches no candidate of
    another band. Under the maximal search every band re-probes the bins
    above its start; their head terms come from one table, built once
    by a panel of the head.
    """

    def __init__(self, sr, si, cos_tab, sin_tab):
        self.coeffs = sr, si, cos_tab, sin_tab
        self.n = sr.shape[0]
        self._windows = {}
        self._panels = {}

    @functools.cached_property
    def fft_error(self):
        return _ifft_error(self.n)

    @functools.cached_property
    def tab(self):
        """e^{i 2 pi j / n} from the twiddle tables, j = 0..n-1."""
        tab = np.empty(self.n, dtype=np.complex128)
        tab.real, tab.imag = self.coeffs[2:]
        return tab

    @functools.cached_property
    def transform_buffers(self):
        """A check's masked coefficients and their transform z_f."""
        return (np.empty(self.n, dtype=np.complex128),
                np.empty(self.n, dtype=np.complex128))

    def window(self, lo, hi, limit):
        """The ``_Window`` of samples lo..hi-1, reaching no candidate."""
        key = lo, hi, limit
        w = self._windows.get(key)
        if w is None:
            w = self._windows[key] = _Window(lo, hi, limit)
        w.count = 0
        return w

    def panel(self, step, lo, hi):
        """The probe panel of samples lo..hi-1 for bins of ``step``,
        carrying +0.0. The head (lo = 0) reads the head-term table."""
        key = step, lo, hi, BLOCK
        p = self._panels.get(key)
        if p is None:
            terms = self.head_terms if lo == 0 else None
            p = self._panels[key] = _Panel(self, step, lo, hi, terms)
        p.rows[:, 0] = 0.0
        return p

    @functools.cached_property
    def head_terms(self):
        """c_k e^{i 2 pi k m / n} of every bin k <= n // 2 at the samples
        of the probe's head: real parts in [0], imaginary in [1]. An
        ascending panel of the head builds them BLOCK bins at a time,
        with the bits its own blocks would get."""
        h = min(HEAD, PROBE, self.n)
        bins = self.n // 2 + 1
        panel = _Panel(self, 1, 0, h)
        terms = np.empty((2, bins, panel.m.size))
        for k in range(0, bins, BLOCK):
            ks = np.arange(k, min(k + BLOCK, bins))
            panel.build(ks, terms[:, k:k + ks.size])
        return terms

    def boundary(self, bins, eps, exhaustive):
        """``scan_boundary`` of the record's band ``bins``."""
        sr, si, cos_tab, sin_tab = self.coeffs
        n = self.n
        # position in bins of the highest candidate known admissible
        best = -1
        if not exhaustive:
            # a candidate of exactly zero coefficients sums to +0.0 at
            # every sample and fails, so the walk starts at the first
            # nonzero bin
            live = np.flatnonzero((sr[bins] != 0.0) | (si[bins] != 0.0))
            if live.size == 0:
                return -1
            bins = bins[live[0]:]
            work = [np.empty(n) for _ in range(3)]
            sums = _tail(sr, si, cos_tab, sin_tab, bins, np.arange(n))
            for pos, (zr, zi) in enumerate(sums):
                if _admissible_rows(zr, zi, eps, work):
                    best = pos
                elif best != -1:
                    break
            return int(bins[best]) if best != -1 else -1
        p = min(PROBE, n)
        if p < n:
            # the top candidate on every sample first, with no exact
            # sums (see the module docstring)
            check = _Check(self, bins, p - 2)
            if check.whole(bins.size - 1, eps):
                return int(bins[-1])
        step = int(bins[1] - bins[0]) if bins.size > 1 else 1
        h = min(HEAD, p)
        head = self.panel(step, 0, h)
        # the panels share two samples, so that between them they judge
        # every interior slope of the probe window
        tail = self.panel(step, h - 2, p) if h < p else None
        # blocks whose tails wait for a later block that needs their sums
        queued = []
        survivors = []
        for start in range(0, bins.size, BLOCK):
            ks = bins[start:start + BLOCK]
            passed = head.judge(ks, eps)
            if tail is not None:
                if not passed.any():
                    queued.append(ks)
                    continue
                for q in queued:
                    tail.add(q)
                queued.clear()
                passed &= tail.judge(ks, eps)
            survivors += (start + np.flatnonzero(passed)).tolist()
        if survivors and p < n:
            best = next((pos for pos in reversed(survivors)
                         if check(pos, eps)), -1)
        elif survivors:
            # the probe saw every sample
            best = survivors[-1]
        return int(bins[best]) if best != -1 else -1


def scan_boundary(sr, si, cos_tab, sin_tab, bins, eps, exhaustive):
    """Grow a band one bin at a time in ``bins`` order (a non-empty run
    of consecutive bins, ascending or descending); return the bin that
    closes its last admissible candidate, or -1 if none is. It scans
    through a context of its own; a decomposition shares one across its
    bands (``ScanContext.boundary``).

    The first-violation search judges the candidates in order, each at
    every sample of the sums ``_tail`` yields, and stops at the first
    failure after a pass.

    The exhaustive search returns the largest admissible candidate.
    On a record longer than PROBE, the top candidate is checked first
    on every sample (``_Check.whole``), on certificates alone; a pass
    is the answer, and a fail or a window left open leaves it to the
    probe. Every candidate is then judged on its first PROBE
    samples, built BLOCK candidates at a time: first on the head
    panel, samples 0..HEAD-1, and only then, for a block with a head
    survivor, on the tail panel, samples HEAD-2..PROBE-1, whose sums
    catch up over the blocks that had none just before it. A
    violation there is final, and a record of at most PROBE samples
    needs nothing more.
    The survivors then get certified full checks, on the same
    ``_Check``, from the highest down, up to the first pass: a lower
    survivor cannot matter once a higher one is admissible. The answer
    is the one that checking every survivor on the sequential sums
    would give.
    """
    return ScanContext(sr, si, cos_tab, sin_tab).boundary(bins, eps,
                                                          exhaustive)


def band_admissible(scan, lo, hi, eps):
    """Is the band of bins lo..hi of the record of ``scan`` (a
    ``ScanContext``), summed in ascending order, admissible at every
    sample? The one candidate a merged tail leaves to judge."""
    bins = np.arange(lo, hi + 1)
    return _Check(scan, bins, 0)(bins.size - 1, eps)
