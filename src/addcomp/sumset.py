"""Sumset computation: exact closed forms and windowed coverage masks.

The closed-form kernel ``bep_sumset`` adds two sets that are finite,
cofinite, or bounded-except-periodic.  Each operand splits into at most
three pieces (left tail, finite core, right tail) and the nine piece pairs
contribute one of four atom shapes to the sum:

* core x core: an explicit finite point set.
* tail x core point k: the tail pattern translated by k, exact, one-sided.
* left tail x right tail: a full arithmetic-progression pattern covering
  every integer in the residue classes (sum of the two residue sets modulo
  the gcd of the periods); reachable for every t because the fast-growing
  side can always run far enough.
* left x left (or right x right): beyond a safety margin of one lcm the
  contribution is again exactly the residue-sum pattern; inside the margin
  membership is decided explicitly by convolving the two patterns over the
  finite uncertain band.

Everything between the derived pattern thresholds is filled in bit-exactly,
then handed to the canonicalizer, so the returned descriptor is exact, not
windowed.  ``windowed_sumset`` falls back to truncated enumeration only for
operand pairs with no exact route and reports how far from the window edge
its answer can be trusted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import BadParamsError, RadiusTooSmallError, ToolkitError, UndecidablePairError
from .intset import (
    BEPSet,
    CofiniteSet,
    FiniteSet,
    IntSet,
    TailSpec,
    UnionSet,
    Window,
    _toward,
    cofinite,
    enumerate_window,
    finite,
    is_infinite,
    make_bep,
    normalize,
)

# ---------------------------------------------------------------------------
# coverage masks
#
# A mask is a nonnegative int whose bit j stands for the point lo + j of its
# window.  Only this section packs or unpacks that layout; everything else
# goes through mask_from_flags, flags_from_mask and flag_points.


def mask_from_flags(flags: np.ndarray) -> int:
    """Mask int of a bool array: bit j is set when flags[j] is."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def flags_from_mask(bits: int, width: int) -> np.ndarray:
    """Bool array of the low ``width`` bits of a mask; higher bits are ignored."""
    low = bits & ((1 << width) - 1)
    raw = np.frombuffer(low.to_bytes((width + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, count=width, bitorder="little").view(bool)


def flag_points(flags: np.ndarray, lo: int) -> list[int]:
    """The points lo + j with flags[j] set, ascending.

    lo + len(flags) - 1 must fit in int64, as it does for any Window.
    """
    # the offset goes in before tolist: one int64 array is far smaller than
    # an intermediate list of Python ints
    return (np.flatnonzero(flags) + lo).tolist()


@dataclass(frozen=True)
class CoverageMask:
    """Bitmask of covered points over a window.

    ``interior_margin`` is the edge distrust: points within the margin of
    either window end may be misreported because an operand was truncated.
    A margin of 0 means every bit is exact.
    """

    window: Window
    bits: int
    interior_margin: int = 0

    def covered(self, t: int) -> bool:
        if t not in self.window:
            raise BadParamsError(f"{t} outside the mask window")
        return bool((self.bits >> (t - self.window.lo)) & 1)

    def flags(self) -> np.ndarray:
        """Coverage of each window point, in order, as a bool array."""
        return flags_from_mask(self.bits, len(self.window))

    def covered_count(self) -> int:
        return self.bits.bit_count()

    def interior(self) -> Window | None:
        return self.window.shrink(self.interior_margin)

    def uncovered(self) -> list[int]:
        return flag_points(~self.flags(), self.window.lo)

    def uncovered_interior(self) -> list[int]:
        inner = self.interior()
        if inner is None:
            return []
        m = self.interior_margin
        return flag_points(~self.flags()[m : len(self.window) - m], inner.lo)

    def runs(self) -> list[tuple[bool, int, int]]:
        flags = self.flags()
        starts = np.flatnonzero(np.concatenate(([True], flags[1:] != flags[:-1])))
        ends = np.append(starts[1:], len(flags)) - 1
        lo = self.window.lo
        return list(zip(flags[starts].tolist(), (starts + lo).tolist(), (ends + lo).tolist()))

    def to_json(self) -> dict:
        return {
            "window": self.window.to_json(),
            "interiorMargin": self.interior_margin,
            "runs": [
                {"covered": c, "lo": lo, "hi": hi} for c, lo, hi in self.runs()
            ],
        }


def window_flags(s: IntSet, window: Window) -> np.ndarray:
    """Membership of each window point in s, in order, as a bool array."""
    flags = np.zeros(len(window), bool)
    flags[np.array(enumerate_window(s, window), np.int64) - window.lo] = True
    return flags


def window_bits(s: IntSet, window: Window) -> int:
    """Membership bitmask of s over the window (bit j is window.lo + j)."""
    return mask_from_flags(window_flags(s, window))


def _pattern_bits(residues: frozenset[int], period: int, lo: int, hi: int) -> int:
    """Bits (indexed from lo) of the residue pattern over [lo, hi]."""
    if lo > hi:
        return 0
    width = hi - lo + 1
    bits = 0
    for r in residues:
        bits |= 1 << ((r - lo) % period)
    # one period's pattern, doubled until it spans the width: linear in width
    span = period
    while span < width:
        bits |= bits << span
        span *= 2
    return bits & ((1 << width) - 1)


# ---------------------------------------------------------------------------
# the exact kernel


def _parts(s: IntSet):
    """Split a canonical closed-form descriptor into (left, core, right, lo, hi).

    Tails are TailSpec or None; returns None for kinds with no closed form.
    """
    if isinstance(s, FiniteSet):
        return None, list(s.elements), None, s.elements[0], s.elements[-1]
    if isinstance(s, CofiniteSet):
        if s.excluded:
            lo, hi = s.excluded[0], s.excluded[-1]
            ex = set(s.excluded)
            core = [t for t in range(lo, hi + 1) if t not in ex]
            return TailSpec.full(lo), core, TailSpec.full(hi), lo, hi
        return TailSpec.full(0), [], TailSpec.full(-1), 0, -1
    if isinstance(s, BEPSet):
        left = s.left if s.left.kind == "periodic" else None
        right = s.right if s.right.kind == "periodic" else None
        return left, list(s.core), right, s.core_lo, s.core_hi
    return None


def closed_form(s: IntSet) -> bool:
    """Whether the normalized descriptor has an exact sumset route."""
    return _parts(normalize(s)) is not None


def bep_sumset(a: IntSet, b: IntSet) -> IntSet:
    """Exact sumset of two closed-form descriptors, as a canonical descriptor.

    Raises UndecidablePairError when either operand is not finite, cofinite,
    or bounded-except-periodic after normalization.
    """
    return _bep_sum_cached(normalize(a), normalize(b))


@lru_cache(maxsize=4096)
def _bep_sum_cached(a: IntSet, b: IntSet) -> IntSet:
    pa = _parts(a)
    pb = _parts(b)
    if pa is None or pb is None:
        raise UndecidablePairError(
            f"no exact route for {type(a).__name__} + {type(b).__name__}"
        )
    LA, KA, RA, alo, ahi = pa
    LB, KB, RB, blo, bhi = pb

    if LA is None and RA is None and LB is None and RB is None:
        return finite(x + y for x in KA for y in KB)

    lo_caps: list[int] = []
    hi_caps: list[int] = []
    left_mods: list[tuple[int, frozenset[int]]] = []
    right_mods: list[tuple[int, frozenset[int]]] = []
    atoms_left: list[tuple[int, int, frozenset[int]]] = []   # (ub, period, residues)
    atoms_right: list[tuple[int, int, frozenset[int]]] = []  # (lb, period, residues)
    ap_full: list[tuple[int, frozenset[int]]] = []

    points = sorted({x + y for x in KA for y in KB})
    if points:
        lo_caps.append(points[0])
        hi_caps.append(points[-1])

    def add_left_atoms(tail: TailSpec, thr: int, ks: list[int]) -> None:
        for k in ks:
            res = frozenset((r + k) % tail.period for r in tail.residues)
            atoms_left.append((thr - 1 + k, tail.period, res))
            lo_caps.append(thr + k)
            hi_caps.append(thr - 1 + k)
            left_mods.append((tail.period, res))

    def add_right_atoms(tail: TailSpec, thr: int, ks: list[int]) -> None:
        for k in ks:
            res = frozenset((r + k) % tail.period for r in tail.residues)
            atoms_right.append((thr + 1 + k, tail.period, res))
            hi_caps.append(thr + k)
            lo_caps.append(thr + 1 + k)
            right_mods.append((tail.period, res))

    if LA and KB:
        add_left_atoms(LA, alo, KB)
    if LB and KA:
        add_left_atoms(LB, blo, KA)
    if RA and KB:
        add_right_atoms(RA, ahi, KB)
    if RB and KA:
        add_right_atoms(RB, bhi, KA)

    def residue_sums(x: TailSpec, y: TailSpec) -> tuple[int, frozenset[int]]:
        g = math.gcd(x.period, y.period)
        return g, frozenset((rx + ry) % g for rx in x.residues for ry in y.residues)

    ll = rr = None
    if LA and LB:
        g, res = residue_sums(LA, LB)
        lo_caps.append(alo + blo - math.lcm(LA.period, LB.period))
        hi_caps.append(alo + blo - 2)
        left_mods.append((g, res))
        ll = (LA, alo, LB, blo)
    if RA and RB:
        g, res = residue_sums(RA, RB)
        hi_caps.append(ahi + bhi + math.lcm(RA.period, RB.period))
        lo_caps.append(ahi + bhi + 2)
        right_mods.append((g, res))
        rr = (RA, ahi, RB, bhi)
    for x, y in ((LA, RB), (RA, LB)):
        if x and y:
            g, res = residue_sums(x, y)
            ap_full.append((g, res))
            left_mods.append((g, res))
            right_mods.append((g, res))

    lo = min(lo_caps) if lo_caps else 0
    hi = max(hi_caps) if hi_caps else lo - 1
    if hi < lo - 1:
        hi = lo - 1

    band = 0
    if lo <= hi:
        full_mask = (1 << (hi - lo + 1)) - 1
        for p in points:
            if lo <= p <= hi:
                band |= 1 << (p - lo)
        for ub, period, res in atoms_left:
            band |= _pattern_bits(res, period, lo, min(hi, ub))
        for lb, period, res in atoms_right:
            start = max(lo, lb)
            band |= _pattern_bits(res, period, start, hi) << (start - lo)
        for period, res in ap_full:
            band |= _pattern_bits(res, period, lo, hi)
        if ll is not None:
            ta, thra, tb, thrb = ll
            y_lo, y_hi = lo - (thra - 1), thrb - 1
            if y_lo <= y_hi:
                ymask = _pattern_bits(tb.residues, tb.period, y_lo, y_hi)
                for x in ta.elements(lo - (thrb - 1), thra - 1):
                    sh = x + y_lo - lo
                    m = ymask << sh if sh >= 0 else ymask >> -sh
                    band |= m & full_mask
        if rr is not None:
            ta, thra, tb, thrb = rr
            y_lo, y_hi = thrb + 1, hi - (thra + 1)
            if y_lo <= y_hi:
                ymask = _pattern_bits(tb.residues, tb.period, y_lo, y_hi)
                for x in ta.elements(thra + 1, hi - (thrb + 1)):
                    sh = x + y_lo - lo
                    m = ymask << sh if sh >= 0 else ymask >> -sh
                    band |= m & full_mask

    def merged(mods: list[tuple[int, frozenset[int]]], threshold: int) -> TailSpec:
        if not mods:
            return TailSpec.empty(threshold)
        period = 1
        for p, _ in mods:
            period = math.lcm(period, p)
        res = {
            r
            for r in range(period)
            if any((r % p) in rs for p, rs in mods)
        }
        return TailSpec.periodic(threshold, period, res)

    # the band may reach past the int64 range, so the offset is added in Python
    core = [lo + j for j in np.flatnonzero(flags_from_mask(band, hi - lo + 1)).tolist()]
    return make_bep(merged(left_mods, lo), core, lo, hi, merged(right_mods, hi))


def complement_set(s: IntSet) -> IntSet | None:
    """Integer complement of a closed-form descriptor; None when empty.

    Raises UndecidablePairError for kinds with no closed-form complement.
    """
    s = normalize(s)
    if isinstance(s, FiniteSet):
        return cofinite(s.elements)
    if isinstance(s, CofiniteSet):
        if not s.excluded:
            return None
        return finite(s.excluded)
    if isinstance(s, BEPSet):
        missing = [
            t for t in range(s.core_lo, s.core_hi + 1) if not s.member(t)
        ]
        return make_bep(
            s.left.inverted(), missing, s.core_lo, s.core_hi, s.right.inverted()
        )
    raise UndecidablePairError(f"no closed-form complement for {type(s).__name__}")


# ---------------------------------------------------------------------------
# pointwise and windowed routes


def _full_coverage_provable(a: IntSet, b: IntSet) -> bool:
    """True when a + b = Z is provable without enumeration, for normalized
    a and b: a cofinite operand against an infinite one (or the full set
    against any), or the long-runs argument: one operand contains intervals
    of unbounded length toward some direction and the other has bounded
    gaps toward the opposite direction."""
    for x, y in ((a, b), (b, a)):
        if isinstance(x, CofiniteSet) and (not x.excluded or is_infinite(y)):
            return True
        for d in (1, -1):
            if _toward(x, d)[1] and _toward(y, -d)[2]:
                return True
    return False


def pointwise_hit(a: IntSet, b: IntSet, t: int) -> bool | None:
    """Does t lie in a + b?  None when undecidable with the exact routes."""
    try:
        return windowed_sumset(a, b, Window(t, t)).covered(t)
    except UndecidablePairError:
        return None


def _shifted_union_bits(y: IntSet, shifts: Sequence[int], window: Window) -> int:
    """Mask of y + shifts over the window, for ascending shifts.

    The windows [lo - e, hi - e] are merged into disjoint runs of
    overlapping or touching windows, y is enumerated once per run, and each
    shift ORs in its slice, so no point is enumerated twice and the
    enumerated width is at most the sum of the shifted windows.
    """
    runs: list[list] = []  # [lo, hi, shifts], by ascending lo
    for e in reversed(shifts):
        lo, hi = window.lo - e, window.hi - e
        if runs and lo <= runs[-1][1] + 1:
            runs[-1][1] = hi
            runs[-1][2].append(e)
        else:
            runs.append([lo, hi, [e]])
    width = len(window)
    covered = np.zeros(width, bool)
    try:
        for lo, hi, es in runs:
            flags = window_flags(y, Window(lo, hi))
            for e in es:
                at = window.lo - e - lo
                covered |= flags[at : at + width]
    except (OverflowError, ToolkitError):
        # a run can fail at another point, or for another reason, than the
        # shift that fails first in ascending order; replaying shift by
        # shift raises that first error
        for e in shifts:
            window_flags(y, Window(window.lo - e, window.hi - e))
        raise
    return mask_from_flags(covered)


def windowed_sumset(
    a: IntSet, b: IntSet, window: Window, radius: int | None = None
) -> CoverageMask:
    """Coverage of a + b over the window.

    Exact (margin 0) whenever a closed route exists: both operands in closed
    form, either operand finite, or provable full coverage.  Otherwise the
    second operand is enumerated within [-radius, radius] and the margin
    records the largest |element| used; with no radius the pair is rejected
    as undecidable.
    """
    na, nb = normalize(a), normalize(b)
    if _parts(na) is not None and _parts(nb) is not None:
        return CoverageMask(window, window_bits(bep_sumset(na, nb), window), 0)
    for x, y in ((na, nb), (nb, na)):
        if isinstance(x, FiniteSet):
            return CoverageMask(window, _shifted_union_bits(y, x.elements, window), 0)
    if _full_coverage_provable(na, nb):
        return CoverageMask(window, (1 << len(window)) - 1, 0)
    for x, y in ((na, nb), (nb, na)):
        if isinstance(x, UnionSet):
            bits = 0
            margin = 0
            for p in x.parts:
                m = windowed_sumset(p, y, window, radius)
                bits |= m.bits
                margin = max(margin, m.interior_margin)
            return CoverageMask(window, bits, margin)
    if radius is not None:
        second = enumerate_window(nb, Window(-radius, radius))
        if not second:
            raise RadiusTooSmallError(
                f"second operand has no elements in [-{radius}, {radius}]"
            )
        bits = _shifted_union_bits(na, second, window)
        return CoverageMask(window, bits, max(abs(e) for e in second))
    raise UndecidablePairError(
        f"no exact route for {type(na).__name__} + {type(nb).__name__}; "
        "supply an enumeration radius"
    )
