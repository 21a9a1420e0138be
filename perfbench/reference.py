"""Independent reference for the benchmark's answer checks.

Nothing here imports addcomp.  Sets arrive as the generator's specs (nested
tuples, see workloads.py) and membership is rebuilt from their parameters:
a segmented sieve for the nonprimes, the block formulas for the lemma43,
blocks10 and generic families, and residue/period/core arithmetic for the
closed-form kinds.  W + C on a window is then computed by definition.

Closed-form pairs get exact global answers: past the cores and thresholds
(at most 2*reach + 2*period from 0) each side of W + C is periodic, with
the lcm of the two sets' tail periods on that side, so a check window that
reaches one more period beyond that sees every gap there is, and a gap in
that outer period means infinitely many gaps.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

import numpy as np

# ---------------------------------------------------------------------------
# primes


@lru_cache(maxsize=8)
def _base_primes(limit: int) -> np.ndarray:
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).astype(np.int64)


def prime_mask(lo: int, hi: int) -> np.ndarray:
    """Primality of every integer in [lo, hi] by a segmented sieve."""
    n = hi - lo + 1
    out = np.zeros(n, dtype=bool)
    first = max(lo, 2)
    if first > hi:
        return out
    seg = np.ones(hi - first + 1, dtype=bool)
    root = isqrt(hi)
    limit = 1 << max(4, root.bit_length())
    ps = _base_primes(limit)
    ps = ps[ps <= root]
    span = hi - first + 1
    small = ps[ps <= span]
    for p in small.tolist():
        start = max(p * p, -(-first // p) * p)
        if start <= hi:
            seg[start - first :: p] = False
    big = ps[ps > span]
    if big.size:
        starts = np.maximum(big * big, -(-first // big) * big)
        hit = starts[starts <= hi]
        seg[hit - first] = False
    out[first - lo :] = seg
    return out


# ---------------------------------------------------------------------------
# membership


def _lemma43_block(k: int) -> tuple[int, int]:
    start = (k - 1) * (k + 2) // 2 + 2 ** (k + 1)
    return start, start + k


def _generic_start(spec, k: int) -> int:
    _, ai, bi, aj, bj, origin = spec
    return origin + (ai + aj) * (k - 1) * k // 2 + (bi + bj) * (k - 1)


def _blocks(spec, lo: int, hi: int):
    """Closed blocks [s, e] of a block family that meet [lo, hi]."""
    kind = spec[0]
    if kind == "lemma44":
        for k in range(1, 41):
            s, e = _lemma43_block(k)
            if s > hi:
                return
            if e >= lo:
                yield s, e
        return
    if kind in ("blocks10", "blocks10c"):
        comp = kind == "blocks10c"

        def block(k):
            if comp:
                s = 10 * k * (k - 1) + 1
                return s, s + 10 * k - 2
            return 10 * k * k, 10 * k * k + 10 * k

        k = max(1, isqrt(max(lo, 0) // 10) - 1)
        while True:
            s, e = block(k)
            if s > hi:
                return
            if e >= lo:
                yield s, e
            k += 1
    if kind == "generic":
        _, ai, bi, aj, bj, origin = spec
        # largest k with start(k) <= lo, by doubling then bisection
        k_lo, k_hi = 1, 1
        while _generic_start(spec, k_hi) <= lo:
            k_lo, k_hi = k_hi, k_hi * 2
        while k_lo < k_hi - 1:
            mid = (k_lo + k_hi) // 2
            if _generic_start(spec, mid) <= lo:
                k_lo = mid
            else:
                k_hi = mid
        k = k_lo
        while True:
            s = _generic_start(spec, k)
            if s > hi:
                return
            e = s + ai * k + bi - 1
            if e >= lo:
                yield s, e
            k += 1
    raise ValueError(f"not a block family: {kind}")


def members(spec, lo: int, hi: int) -> np.ndarray:
    """Boolean membership of every integer in [lo, hi]."""
    n = hi - lo + 1
    kind = spec[0]
    if kind == "finite":
        out = np.zeros(n, dtype=bool)
        idx = [e - lo for e in spec[1] if lo <= e <= hi]
        out[idx] = True
        return out
    if kind == "cofinite":
        out = np.ones(n, dtype=bool)
        idx = [e - lo for e in spec[1] if lo <= e <= hi]
        out[idx] = False
        return out
    if kind in ("below", "above"):
        t = np.arange(lo, hi + 1, dtype=np.int64)
        return t < spec[1] if kind == "below" else t > spec[1]
    if kind == "ap":
        _, res, mod, side, frm = spec
        t = np.arange(lo, hi + 1, dtype=np.int64)
        hit = (t - res) % mod == 0
        return hit & ((t < frm) if side == "below" else (t > frm))
    if kind == "nonprimes":
        return ~prime_mask(lo, hi)
    if kind in ("lemma44", "blocks10", "blocks10c", "generic"):
        out = np.zeros(n, dtype=bool)
        for s, e in _blocks(spec, lo, hi):
            out[max(s, lo) - lo : min(e, hi) - lo + 1] = True
        return out
    if kind == "union":
        return members(spec[1], lo, hi) | members(spec[2], lo, hi)
    if kind == "minus":
        return members(spec[1], lo, hi) & ~members(("finite", spec[2]), lo, hi)
    if kind == "translate":
        return members(spec[1], lo - spec[2], hi - spec[2])
    if kind == "neg":
        return members(spec[1], -hi, -lo)[::-1].copy()
    raise ValueError(f"unknown spec kind {kind!r}")


def finite_elements(spec) -> tuple[int, ...] | None:
    """The elements of a finite spec, or None for an infinite one."""
    if spec[0] == "finite":
        return tuple(sorted(set(spec[1])))
    if spec[0] == "minus":
        inner = finite_elements(spec[1])
        if inner is None:
            return None
        return tuple(t for t in inner if t not in set(spec[2]))
    if spec[0] == "union":
        a, b = finite_elements(spec[1]), finite_elements(spec[2])
        if a is None or b is None:
            return None
        return tuple(sorted(set(a) | set(b)))
    return None


def reach(spec) -> int:
    """Largest |number| written in a closed-form spec."""
    kind = spec[0]
    if kind in ("finite", "cofinite"):
        return max((abs(t) for t in spec[1]), default=0)
    if kind in ("below", "above"):
        return abs(spec[1])
    if kind == "ap":
        return abs(spec[4])
    if kind == "union":
        return max(reach(spec[1]), reach(spec[2]))
    if kind == "minus":
        return max(reach(spec[1]), max((abs(t) for t in spec[2]), default=0))
    raise ValueError(f"{kind} has no closed form")


def tail_periods(spec) -> tuple[int, int]:
    """(left, right) tail periods of a closed-form spec; 1 for a side with
    no tail or a full ray."""
    kind = spec[0]
    if kind == "ap":
        return (spec[2], 1) if spec[3] == "below" else (1, spec[2])
    if kind == "union":
        (a, b), (c, d) = tail_periods(spec[1]), tail_periods(spec[2])
        return _lcm(a, c), _lcm(b, d)
    if kind == "minus":
        return tail_periods(spec[1])
    return 1, 1


# ---------------------------------------------------------------------------
# sumsets by definition


def cover_finite(w_spec, cs, lo: int, hi: int) -> np.ndarray:
    """Coverage of [lo, hi] by W + C for a finite C."""
    out = np.zeros(hi - lo + 1, dtype=bool)
    if not cs:
        return out
    base = lo - max(cs)
    wa = members(w_spec, base, hi - min(cs))
    for c in cs:
        a = lo - c - base
        out |= wa[a : a + hi - lo + 1]
    return out


def rep_counts(w_spec, cs, lo: int, hi: int) -> np.ndarray:
    """Number of c in C with t - c in W, for every t in [lo, hi]."""
    out = np.zeros(hi - lo + 1, dtype=np.int32)
    if not cs:
        return out
    base = lo - max(cs)
    wa = members(w_spec, base, hi - min(cs))
    for c in cs:
        a = lo - c - base
        out += wa[a : a + hi - lo + 1]
    return out


def cover(w_spec, c_spec, lo: int, hi: int) -> np.ndarray:
    """Coverage of [lo, hi] by W + C.

    A finite operand is shifted directly.  Two infinite operands must both be
    closed-form; C is then enumerated on a radius that provably reaches every
    representation t = w + c with t in the window (a far pair sits in two
    periodic tails and can be stepped by the joint period into range), and
    the sum is taken by FFT convolution.
    """
    cs = finite_elements(c_spec)
    if cs is not None:
        return cover_finite(w_spec, cs, lo, hi)
    ws = finite_elements(w_spec)
    if ws is not None:
        return cover_finite(c_spec, ws, lo, hi)
    (wl, wr), (cl, cr) = tail_periods(w_spec), tail_periods(c_spec)
    step = max(_lcm(wl, cr), _lcm(wr, cl))
    radius = max(abs(lo), abs(hi)) + reach(w_spec) + reach(c_spec) + 2 * step + 8
    ca = members(c_spec, -radius, radius).astype(np.float64)
    wa = members(w_spec, lo - radius, hi + radius).astype(np.float64)
    size = 1 << (len(ca) + len(wa) - 1).bit_length()
    conv = np.fft.irfft(np.fft.rfft(wa, size) * np.fft.rfft(ca, size), size)
    # index i + j of the product is t = (lo - radius) + (-radius) + i + j
    off = 2 * radius
    return conv[off : off + hi - lo + 1] > 0.5


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


class ClosedPair:
    """Exact global answers for a closed-form W and C."""

    def __init__(self, w_spec, c_spec) -> None:
        self.w, self.c = w_spec, c_spec
        span = reach(w_spec) + reach(c_spec)
        (wl, wr), (cl, cr) = tail_periods(w_spec), tail_periods(c_spec)
        left, right = _lcm(wl, cl), _lcm(wr, cr)
        # beyond +-(2 span + 2 period) each side is periodic; look one more
        # period further out on that side
        self.inner_lo, self.inner_hi = -(2 * span + 2 * left + 16), 2 * span + 2 * right + 16
        self.lo, self.hi = self.inner_lo - left - 1, self.inner_hi + right + 1
        self.covered = cover(w_spec, c_spec, self.lo, self.hi)
        gaps = np.flatnonzero(~self.covered) + self.lo
        self.gaps = gaps.tolist()
        self.outer = bool(np.any((gaps < self.inner_lo) | (gaps > self.inner_hi)))

    @property
    def complement(self) -> bool:
        return not self.gaps

    @property
    def asymptotic(self) -> bool:
        return not self.outer

    def is_gap(self, t: int) -> bool:
        if self.lo <= t <= self.hi:
            return not bool(self.covered[t - self.lo])
        return not bool(cover(self.w, self.c, t, t)[0])


def order_by_abs(points) -> list[int]:
    """Smallest |t| first, the negative point first on ties."""
    return sorted(points, key=lambda t: (abs(t), t > 0))


def runs(mask: np.ndarray, lo: int) -> list[tuple[bool, int, int]]:
    """Maximal constant runs of a coverage mask as (covered, lo, hi)."""
    if mask.size == 0:
        return []
    edges = np.flatnonzero(mask[1:] != mask[:-1]) + 1
    starts = np.concatenate(([0], edges))
    ends = np.concatenate((edges - 1, [mask.size - 1]))
    return [(bool(mask[s]), lo + int(s), lo + int(e)) for s, e in zip(starts, ends)]


def bits_to_mask(bits: int, width: int) -> np.ndarray:
    """Unpack a little-endian big-int bitmask into a boolean array."""
    raw = np.frombuffer(bits.to_bytes((width + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:width].astype(bool)


def greedy_cover(w_spec, lo: int, hi: int) -> tuple[list[int], list[int]]:
    """Greedy complement of a finite W on [lo, hi]: scanning upward, each
    uncovered t adds c = t - max(w <= t).  Returns (C, skipped targets)."""
    ws = finite_elements(w_spec)
    if ws is None:
        raise ValueError("greedy_cover needs a finite W")
    covered = np.zeros(hi - lo + 1, dtype=bool)
    picked: list[int] = []
    skipped: list[int] = []
    for t in range(lo, hi + 1):
        if covered[t - lo]:
            continue
        below = [w for w in ws if w <= t]
        if not below:
            skipped.append(t)
            continue
        c = t - max(below)
        picked.append(c)
        for w in ws:
            if lo <= w + c <= hi:
                covered[w + c - lo] = True
    return sorted(set(picked)), skipped
