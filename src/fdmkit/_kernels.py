"""Band-scan kernels behind the decomposition engine.

The greedy scan spends nearly all its time answering one question per
candidate band: after adding one more DFT bin to the running analytic
signal, is its unwrapped phase still non-decreasing (within tolerance)
at every interior sample? The floating-point recipe is fixed: the
complex accumulation is spelled out in real/imaginary parts (no
complex dtype, no fused multiply-add surprises), each sample of the
band signal is the bins' terms added one at a time in scan order,
phases come from atan2, and phase increments are wrapped to (-pi, pi]
the same way ``np.unwrap`` wraps them.

The scan is probe-first. On broadband records almost every
candidate is rejected, most of them by a phase violation within the
first few samples, so each candidate is first judged on its first
PROBE samples only. The probe windows of BLOCK consecutive candidates
come out of one cumulative sum down the candidate axis whose first row
is the previous candidate's window; cumsum adds row by row, so sample
m of row j is ((z[m] + w_1[m]) + w_2[m]) + ... + w_j[m], the very
additions, in the very order, of adding each bin into one running
buffer. The windows are therefore bit-identical to the full
accumulation, and a zero sample or a phase slope below -eps inside one
rejects its candidate for good.

A candidate whose window passes is a survivor. Its full check catches
up one buffer of the samples from the window's last two on, adding the
pending bins one at a time with the window's adds in their order, and
then judges the phase steps the window could not see.

The maximal search only wants the largest admissible candidate, so it
defers full checks. After a survivor passes, the next 1, 2, 4, ...
survivors are skipped, the stride doubling with each pass and starting
over after a failure, and the running sums at the highest pass are kept
as one checkpoint. At the end of the range the topmost skipped survivor
is checked, unless the tail already holds bins past it; if it
fails, the checkpoint is restored and the other skipped survivors are
replayed in ascending order. A replay adds the same bins in the same
order onto the same sums, so every candidate that is judged is judged
on the same bits as when every survivor was checked in turn, and the
answer cannot change. The first-violation search checks every survivor
in turn: its answer is the last pass before the first failure.

Bins after a band's last full check are never synthesized past the
window. The wrap uses compare and subtract in place of ``np.mod``,
with the same bits (see ``_wrap``).

Layout matters as much as arithmetic here. A block's windows are
judged as one flat, contiguous run of samples rather than through
strided 2-D views: the steps across row seams are computed with the
rest and their slopes dropped before the per-row verdict (see
``_admissible_rows``). A block's twiddle indices k m mod n come from a
table of j step m mod n, built once per scan, plus the block's row
k0 m mod n, folded back into [0, n) by ``_fold`` as the tail's are,
with no division per block.
"""
import math

import numpy as np

_PI = math.pi
_TWO_PI = 2.0 * math.pi


def twiddle_tables(n: int):
    """cos/sin lookup tables for e^{j 2 pi m / n}, m = 0..n-1."""
    ang = _TWO_PI * np.arange(n) / n
    return np.cos(ang), np.sin(ang)


# Leading samples of the band signal kept current for every candidate;
# most candidates already break admissibility inside this window.
PROBE = 256
# Candidates whose probe windows come out of one cumulative sum.
BLOCK = 64


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


def _fold(idx, turn, alt):
    """Take twiddle indices one ``turn`` (+n or -n) out of [0, n) back
    into it, in place and without a division: of idx and idx - turn,
    the one in range is the smaller as unsigned integers. ``alt`` is
    scratch shaped like idx."""
    np.subtract(idx, turn, out=alt)
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


class _Tail:
    """Samples p-2..n-1 of a band signal that grows one bin at a time.

    It adds ``bins`` one at a time, only when a candidate needs its
    full check, with the probe windows' adds in their order, so its
    first two samples equal the window's last two bit for bit.
    ``count`` bins are in; one checkpoint of the sums, the indices and
    ``count`` lets a lower candidate be replayed after a higher one.

    Each bin is one step (+1 or -1) from the last, so bin k's twiddle
    index k*m mod n is the previous bin's plus step*m, taken back into
    [0, n) by ``_fold``.
    """

    def __init__(self, sr, si, cos_tab, sin_tab, bins, step, p):
        n = sr.shape[0]
        m = np.arange(p - 2, n)
        self.coeffs = sr, si, cos_tab, sin_tab
        self.bins = bins
        self.count = 0
        self.zr = np.zeros(m.size)
        self.zi = np.zeros(m.size)
        self.idx = ((int(bins[0]) - step) * m) % n
        self.alt = np.empty_like(self.idx)
        self.delta = step * m
        self.turn = step * n
        # adding a bin and checking a candidate take turns on the
        # scratch arrays
        self.work = [np.empty(m.size) for _ in range(4)]
        self.checkpoint = None

    def save(self):
        self.checkpoint = (self.zr.copy(), self.zi.copy(),
                           self.idx.copy(), self.count)

    def restore(self):
        # the scan restores at most once, so the copies can be taken over
        self.zr, self.zi, self.idx, self.count = self.checkpoint

    def admissible(self, pos, eps):
        """Catch up to candidate ``bins[pos]``, at or past the last bin
        added, and judge the phase steps its window could not see."""
        sr, si, cos_tab, sin_tab = self.coeffs
        idx = self.idx
        for k in self.bins[self.count:pos + 1].tolist():
            idx += self.delta
            _fold(idx, self.turn, self.alt)
            re, im = _term(sr[k], si[k], idx, cos_tab, sin_tab, self.work)
            self.zr += re
            self.zi += im
        self.count = pos + 1
        return bool(_admissible_rows(self.zr, self.zi, eps, self.work))


def scan_boundary(sr, si, cos_tab, sin_tab, bins, eps, exhaustive):
    """Grow a band one bin at a time in ``bins`` order (a non-empty run
    of consecutive bins, ascending or descending); return the bin that
    closes its last admissible candidate, or -1 if none is.

    Every candidate is first judged on its first PROBE samples, built
    BLOCK candidates at a time; a violation there is final. A candidate
    that survives has the rest of its band signal caught up and checked
    (``_Tail.admissible``), unless the search can settle without it.

    The exhaustive search returns the largest admissible candidate, so
    a survivor's full check matters only if no higher survivor passes.
    After a pass the next 1, 2, 4, ... survivors are deferred, the
    stride doubling with each further pass and starting over at 1 after
    a failure; the tail sums at the highest pass are kept as the one
    checkpoint. At the end of the range the topmost deferred survivor
    is checked first, unless the tail already holds bins past it; if it
    fails, the checkpoint is restored and the other deferred survivors
    are replayed in ascending order. Every candidate judged, replays
    included, gets its bins added in scan order onto the same sums, so
    its verdict has the same bits as checking every survivor in turn.
    The first-violation search checks every survivor in turn, because
    its answer is the last pass before the first failure.
    """
    n = sr.shape[0]
    p = min(PROBE, n)
    step = int(bins[1] - bins[0]) if bins.size > 1 else 1
    m = np.arange(p)
    # twiddle index of row j, sample m is (k0 m + j step m) mod n: a
    # per-block row plus this table, folded back into [0, n)
    table = (step * np.arange(BLOCK)[:, None] * m) % n
    idx = np.empty((BLOCK, p), dtype=np.intp)
    alt = np.empty((BLOCK, p), dtype=np.intp)
    # row 0: probe window of the previous block's last candidate
    rows_r = np.zeros((BLOCK + 1, p))
    rows_i = np.zeros((BLOCK + 1, p))
    # building the windows and checking them take turns on the scratch
    work = [np.empty((BLOCK, p)) for _ in range(3)]
    tail = _Tail(sr, si, cos_tab, sin_tab, bins, step, p) if p < n else None
    # best is the position in bins of the highest candidate known
    # admissible; deferred holds the positions of the survivors above it
    # whose full check was put off
    best = -1
    deferred = []
    skip, stride = 0, 1
    for start in range(0, bins.size, BLOCK):
        ks = bins[start:start + BLOCK]
        b = ks.size
        np.add(table[:b], (int(ks[0]) * m) % n, out=idx[:b])
        _fold(idx[:b], n, alt[:b])
        _term(sr[ks, None], si[ks, None], idx[:b], cos_tab, sin_tab,
              (work[0][:b], work[1][:b], rows_r[1:b + 1], rows_i[1:b + 1]))
        # row j+1 adds bins one by one onto row j, in scan order: the
        # same sequence of float adds as growing a single buffer
        np.cumsum(rows_r[:b + 1], axis=0, out=rows_r[:b + 1])
        np.cumsum(rows_i[:b + 1], axis=0, out=rows_i[:b + 1])
        passed = _admissible_rows(rows_r[1:b + 1], rows_i[1:b + 1], eps,
                                  [w[:b] for w in work])
        for j, ok in enumerate(passed.tolist()):
            pos = start + j
            if ok and tail is not None:
                if skip:
                    deferred.append(pos)
                    skip -= 1
                    continue
                ok = tail.admissible(pos, eps)
                if exhaustive:
                    if ok:
                        tail.save()
                        deferred.clear()
                        skip, stride = stride, 2 * stride
                    else:
                        stride = 1
            if ok:
                best = pos
            elif best != -1 and not exhaustive:
                return int(bins[best])
        rows_r[0] = rows_r[b]
        rows_i[0] = rows_i[b]
    if deferred:
        pos = deferred[-1]
        if pos >= tail.count:
            if tail.admissible(pos, eps):
                return int(bins[pos])
            deferred.pop()
        tail.restore()
        for pos in deferred:
            if tail.admissible(pos, eps):
                best = pos
    return int(bins[best]) if best != -1 else -1
