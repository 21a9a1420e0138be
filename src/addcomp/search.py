"""Reference oracles and small-instance searches.

brute_force_cover recomputes coverage from the definition and is the court
of appeal for every exact routine; greedy_asymptotic_complement manufactures
test complements; minimal_subset_search enumerates minimal holding subsets;
cy_gap_classifier reports empirical gap trends with advisory flags.
"""
from __future__ import annotations

from math import lcm

import numpy as np

from .errors import (
    EmptySetError,
    RadiusTooSmallError,
    TooLargeError,
    UndecidablePairError,
)
from .intset import (
    FiniteSet,
    IntSet,
    Window,
    check_i64,
    contains,
    enumerate_window,
    finite,
    max_element_le,
    normalize,
)
from .predicates import Verdict, is_asymptotic_complement, is_complement
from .sumset import CoverageMask, _parts, mask_from_flags, window_flags


def _reach(parts) -> tuple[int, int]:
    """(coordinate reach, tail period lcm) of a closed-form piece split."""
    left, core, right, lo, hi = parts
    reach = max(abs(lo), abs(hi)) if core or left or right else 0
    period = 1
    for tail in (left, right):
        if tail is not None and tail.kind == "periodic":
            period = lcm(period, tail.period)
            reach = max(reach, abs(tail.threshold))
    return reach, period


def complete_radius(w: IntSet, c: IntSet, window: Window) -> int | None:
    """Radius making brute enumeration provably complete on the window.

    Any covering pair with a far C element has both members deep in periodic
    tails, and stepping the pair by the joint tail period walks the C member
    into range while the W member stays in its tail.  Returns None when
    either set has no closed form, where no such bound exists.
    """
    pw = _parts(normalize(w))
    pc = _parts(normalize(c))
    if pw is None or pc is None:
        return None
    reach_w, per_w = _reach(pw)
    reach_c, per_c = _reach(pc)
    period = lcm(per_w, per_c)
    return max(abs(window.lo), abs(window.hi)) + reach_w + reach_c + 2 * period + 8


def brute_force_cover(
    w: IntSet, c: IntSet, window: Window, radius: int | None = None
) -> CoverageMask:
    """Definitional coverage of the window by w + c.

    Enumerates c inside [-radius, radius] and w over every shifted window,
    marking sums directly.  The mask is exact (margin 0) when the
    enumeration is provably complete: c lay entirely inside the radius, or
    both sets are closed-form and the radius reaches complete_radius.
    Otherwise the whole radius is flagged as untrusted margin.
    """
    nc = normalize(c)
    full = complete_radius(w, nc, window)
    if radius is None:
        radius = full if full is not None else 2 * len(window) + 64
    if radius < 0:
        radius = 0
    celems = enumerate_window(nc, Window(-radius, radius))
    if not celems:
        raise RadiusTooSmallError(
            f"no elements of C inside [-{radius}, {radius}]"
        )
    total = isinstance(nc, FiniteSet) and set(celems) == set(nc.elements)
    exact = total or (full is not None and radius >= full)

    span = len(window)
    wlo = window.lo - max(celems)
    whi = window.hi - min(celems)
    welems = np.array(enumerate_window(w, Window(wlo, whi)), dtype=np.int64)
    carr = np.array(celems, dtype=np.int64)
    buf = np.zeros(span, dtype=bool)
    if welems.size:
        chunk = max(1, 2_000_000 // max(1, welems.size))
        for i in range(0, carr.size, chunk):
            sums = welems[None, :] + carr[i : i + chunk, None]
            offs = (sums - window.lo).ravel()
            offs = offs[(offs >= 0) & (offs < span)]
            buf[offs] = True
    return CoverageMask(window, mask_from_flags(buf), 0 if exact else min(radius, span))


def greedy_asymptotic_complement(
    w: IntSet, target: Window
) -> tuple[FiniteSet, list[int]]:
    """Cover the target window greedily.

    Scans targets ascending; each uncovered t contributes c = t - max(w <= t).
    Returns the collected set and the targets skipped because w has nothing
    at or below them.
    """
    picked: list[int] = []
    skipped: list[int] = []
    span = len(target)
    covered = np.zeros(span, bool)
    for idx, t in enumerate(target):
        if covered[idx]:
            continue
        top = max_element_le(w, t)
        if top is None:
            skipped.append(t)
            continue
        cand = t - top
        picked.append(cand)
        shifted = Window(target.lo - cand, target.hi - cand)
        covered |= window_flags(w, shifted)
    if not picked:
        raise EmptySetError("no target was coverable, nothing picked")
    return finite(sorted(set(picked))), skipped


def minimal_subset_search(
    w: IntSet, c: IntSet
) -> tuple[list[FiniteSet], list[FiniteSet]]:
    """All inclusion-minimal subsets of finite c that remain complements,
    and those that remain asymptotic complements.

    Both properties are preserved by adding elements, so a subset is minimal
    exactly when it holds and every single-element removal fails.  The walk
    explores only holding subsets, memoized; results are lexicographic.
    """
    nc = normalize(c)
    if not isinstance(nc, FiniteSet):
        raise TooLargeError("exhaustive search needs a finite C")
    if len(nc.elements) > 20:
        raise TooLargeError(f"|C| = {len(nc.elements)} exceeds the enumeration cap 20")

    def solve(pred) -> list[FiniteSet]:
        holds: dict[tuple[int, ...], bool] = {}

        def holding(elems: tuple[int, ...]) -> bool:
            if not elems:
                return False
            got = holds.get(elems)
            if got is None:
                verdict: Verdict = pred(w, finite(elems))
                if verdict.status == "unknown":
                    raise UndecidablePairError(
                        "no exact verdict for a subset; cannot certify minimality"
                    )
                got = holds[elems] = verdict.is_true
            return got

        out: set[tuple[int, ...]] = set()
        seen: set[tuple[int, ...]] = set()

        def walk(elems: tuple[int, ...]) -> None:
            if elems in seen:
                return
            seen.add(elems)
            shrinkable = False
            for x in elems:
                sub = tuple(t for t in elems if t != x)
                if holding(sub):
                    shrinkable = True
                    walk(sub)
            if not shrinkable:
                out.add(elems)

        if holding(nc.elements):
            walk(nc.elements)
        return [finite(e) for e in sorted(out)]

    return solve(is_complement), solve(is_asymptotic_complement)


# ---------------------------------------------------------------------------
# gap classifier


def _gap_stats(gaps: list[int]) -> dict:
    if not gaps:
        return {"count": 0, "max": None, "last": None, "quarterMins": [], "quarterMaxes": []}
    q = max(1, len(gaps) // 4)
    quarters = [gaps[i : i + q] for i in range(0, len(gaps), q)][:4]
    return {
        "count": len(gaps),
        "max": max(gaps),
        "last": gaps[-1],
        "quarterMins": [min(ch) for ch in quarters],
        "quarterMaxes": [max(ch) for ch in quarters],
    }


def _rising(values: list[int]) -> bool:
    return (
        len(values) >= 2
        and all(a <= b for a, b in zip(values, values[1:]))
        and values[-1] > values[0]
    )


def cy_gap_classifier(w: IntSet, horizon: int = 10**4) -> dict:
    """Empirical gap trends of W and of Z>=1 minus W over [1, horizon].

    Flags are advisory observations, not theorem applications: cy2a when the
    gaps of W keep growing somewhere (limsup-style), thmD when the gaps of
    the positive complement grow everywhere (lim-style) and have left 1
    behind, cy2b when additionally 1 is a member so the classical
    normalization applies.
    """
    check_i64(horizon, "horizon")
    if horizon < 16:
        raise TooLargeError("horizon must be at least 16")
    win = Window(1, horizon)
    members = enumerate_window(w, win)
    inside = set(members)
    missing = [t for t in win if t not in inside]
    wgaps = [b - a for a, b in zip(members, members[1:])]
    mgaps = [b - a for a, b in zip(missing, missing[1:])]
    ws = _gap_stats(wgaps)
    ms = _gap_stats(mgaps)
    cy2a = _rising(ws["quarterMaxes"])
    thm_d = _rising(ms["quarterMins"]) and (ms["quarterMins"][-1] if ms["quarterMins"] else 0) >= 2
    report = {
        "window": win.to_json(),
        "memberCount": len(members),
        "wGaps": ws,
        "complementGaps": ms,
        "flags": {
            "cy2a": cy2a,
            "cy2b": thm_d and contains(w, 1),
            "thmD": thm_d,
        },
        "notes": [],
    }
    if not wgaps:
        report["notes"].append("W has fewer than two members in [1, horizon]")
    if not mgaps:
        report["notes"].append("the positive complement has fewer than two members in [1, horizon]")
    if mgaps and ms["quarterMins"][-1] == 1:
        report["notes"].append("complement gaps of 1 persist into the last quarter")
    return report
