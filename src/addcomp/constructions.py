"""Constructive procedures that shrink or build complements, with certificates.

Each shrink returns the reduced set together with a ShrinkCertificate naming
the removed element, the surviving frame elements whose translates absorb the
removed one, and a finite window guaranteed to contain every point the removal
can cost.  Certificates are statements about W and the chosen elements alone;
they hold whether or not C was an asymptotic complement to begin with.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .errors import (
    BadParamsError,
    ComplementNotInfiniteError,
    FNotSubsetError,
    HypothesisNotObservedError,
    MissingResidueClassError,
    NoCongruentPairError,
    NotContainingSubgroupError,
    PreconditionViolatedError,
    ToolkitError,
)
from .intset import (
    BEPSet,
    CofiniteSet,
    FamilySet,
    FiniteSet,
    IntSet,
    Lemma43Rule,
    TailSpec,
    Window,
    blocks10_family,
    check_i64,
    checked_add,
    classify,
    contains,
    enumerate_window,
    finite,
    lemma43_set,
    lemma44_set,
    max_element_le,
    min_element,
    min_element_ge,
    minus,
    negate,
    nonprimes,
    normalize,
    rule_end,
    subgroup_set,
)
from .predicates import (
    DEFAULT_WINDOW,
    Verdict,
    is_asymptotic_complement,
    is_complement,
    is_minimal_asymptotic_complement,
    is_minimal_complement,
    removal_growth,
)
from .sumset import complement_set


@dataclass(frozen=True)
class ShrinkCertificate:
    """Witness that removing one element loses at most a finite window.

    frame holds the surviving anchors: (a, c) straddling the removed b for
    interval and gap-floor shrinks, (a,) alone for the congruent-pair shrink.
    thresholds carries the observed (i', i'') gap-floor indices when the
    shrink rests on them.
    """

    removed: int
    frame: tuple[int, ...]
    loss_bound: Window
    thresholds: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if not self.frame or self.removed in self.frame:
            raise BadParamsError("frame must be nonempty and exclude the removed element")
        if len(self.frame) == 2 and not (self.frame[0] < self.removed < self.frame[1]):
            raise BadParamsError("a two-point frame must straddle the removed element")

    def to_json(self) -> dict:
        return {
            "removed": self.removed,
            "frame": list(self.frame),
            "finiteLossBound": self.loss_bound.to_json(),
            "thresholds": None if self.thresholds is None else list(self.thresholds),
        }


# ---------------------------------------------------------------------------
# cofinite and finite W


def thmA2_pair(w: IntSet) -> tuple[FiniteSet, Verdict]:
    """A two-element minimal complement {0, x} to a cofinite set.

    x is the smallest positive member of w avoiding every difference of two
    excluded points; translating by x then repairs every hole of w without
    either element becoming redundant.  When w is all of Z the singleton {0}
    is returned instead, every singleton being minimal there.
    """
    nw = normalize(w)
    if not isinstance(nw, CofiniteSet):
        raise BadParamsError("expected a cofinite descriptor")
    if not nw.excluded:
        cset = finite([0])
        return cset, is_minimal_complement(nw, cset)
    excluded = set(nw.excluded)
    diffs = {gi - gj for gi in excluded for gj in excluded}
    x = 1
    while x in excluded or x in diffs:
        x += 1
    cset = finite([0, x])
    return cset, is_minimal_complement(nw, cset)


def thmA1_shrink(
    w: IntSet,
    c: IntSet,
    f,
    window: Window | None = None,
    radius: int | None = None,
) -> tuple[IntSet, Verdict]:
    """Remove a finite f from c; against finite w this never destroys an
    asymptotic complement, since the deleted coverage w + f is finite."""
    nw = normalize(w)
    if not isinstance(nw, FiniteSet):
        raise BadParamsError("expected a finite w")
    gone = tuple(sorted({check_i64(t, "removed element") for t in _iter_elements(f)}))
    for t in gone:
        if not contains(c, t):
            raise FNotSubsetError(f"{t} is not an element of C")
    base = is_asymptotic_complement(nw, c, window, radius)
    shrunk = minus(c, gone)
    after = is_asymptotic_complement(nw, shrunk, window, radius)
    if base.is_false:
        after = Verdict(
            after.status,
            after.exact,
            witnesses=after.witnesses,
            window=after.window,
            detail=("C was not an asymptotic complement before the removal; " + after.detail).strip(),
        )
    return shrunk, after


def _iter_elements(f):
    if isinstance(f, FiniteSet):
        return f.elements
    if isinstance(f, IntSet):
        raise BadParamsError("F must be a finite collection of integers")
    return tuple(f)


# ---------------------------------------------------------------------------
# subgroups


def subgroup_masc(
    n: int, c: IntSet, bound: int = 10**6, max_steps: int = 200_000
) -> tuple[FiniteSet, Verdict]:
    """One representative of c per residue class mod n.

    Selection walks c outward from zero (smallest absolute value first,
    nonnegative before negative on ties) until every class is seen.  The
    result is simultaneously a complement and an exact minimal asymptotic
    complement to nZ: dropping the class-r representative uncovers the whole
    class r.
    """
    if not isinstance(n, int) or n < 1:
        raise BadParamsError("n must be a positive integer")
    reps: dict[int, int] = {}
    up = min_element_ge(c, 0)
    down = max_element_le(c, -1)
    steps = 0
    while len(reps) < n and steps < max_steps:
        if up is not None and up > bound:
            up = None
        if down is not None and down < -bound:
            down = None
        if up is None and down is None:
            break
        if up is not None and (down is None or up <= -down):
            t, up = up, min_element_ge(c, up + 1)
        else:
            t, down = down, max_element_le(c, down - 1)
        reps.setdefault(t % n, t)
        steps += 1
    if len(reps) < n:
        missing = min(r for r in range(n) if r not in reps)
        raise MissingResidueClassError(missing, n)
    cset = finite(sorted(reps.values()))
    w = subgroup_set(n)
    cv = is_complement(w, cset)
    mv = is_minimal_asymptotic_complement(w, cset)
    detail = f"complement verdict {cv.status} ({'exact' if cv.exact else 'window'}); {mv.detail}"
    return cset, Verdict(
        mv.status,
        mv.exact and cv.exact,
        witnesses=mv.witnesses,
        evidence=mv.evidence,
        removals=mv.removals,
        window=mv.window,
        detail=detail,
    )


def _tail_admits_multiples(tail: TailSpec, n: int) -> bool:
    if tail.is_full:
        return True
    if tail.is_empty:
        return False
    g = gcd(n, tail.period)
    return all(r in tail.residues for r in range(0, tail.period, g))


def _contains_subgroup(wb: BEPSet, n: int) -> bool:
    if not _tail_admits_multiples(wb.left, n) or not _tail_admits_multiples(wb.right, n):
        return False
    t = wb.core_lo + (-wb.core_lo) % n
    while t <= wb.core_hi:
        if not wb.member(t):
            return False
        t += n
    return True


def _detect_subgroup(wb: BEPSet) -> int:
    if not wb.member(0):
        raise NotContainingSubgroupError("0 is missing, so no nZ fits inside W")
    periods = [t.period for t in (wb.left, wb.right) if t.kind == "periodic"]
    if len(periods) < 2:
        raise NotContainingSubgroupError("both tails must be periodic for W to contain nZ")
    base = lcm(*periods)
    width = max(0, wb.core_hi - wb.core_lo + 1)
    for n in range(1, 4 * base + 2 * width + 5):
        if _contains_subgroup(wb, n):
            return n
    far = base * (max(abs(wb.core_lo), abs(wb.core_hi), 1) // base + 2)
    if _contains_subgroup(wb, far):
        return far
    raise NotContainingSubgroupError("no contained subgroup nZ was found")


def finite_index_minimals(w: IntSet, n: int | None = None) -> tuple[FiniteSet, FiniteSet]:
    """Minimal complement and minimal asymptotic complement inside {0..n-1}.

    W must contain nZ with Z minus W infinite; then {0..n-1} is a complement
    and the subset lattice below it is descended by repeatedly removing the
    largest element whose removal keeps the property, restarting the scan
    after every removal.  Both descents are exact (closed-form sumsets).
    """
    nw = normalize(w)
    if isinstance(nw, FiniteSet):
        raise NotContainingSubgroupError("a finite set contains no subgroup nZ")
    if isinstance(nw, CofiniteSet):
        raise ComplementNotInfiniteError(
            "Z minus W is finite; the cofinite pair construction applies instead"
        )
    if not isinstance(nw, BEPSet):
        raise BadParamsError("expected a bounded-except-periodic descriptor")
    if n is None:
        n = _detect_subgroup(nw)
    else:
        if not isinstance(n, int) or n < 1:
            raise BadParamsError("n must be a positive integer")
        if not _contains_subgroup(nw, n):
            raise NotContainingSubgroupError(f"{n}Z is not contained in W")
    comp = complement_set(nw)
    if comp is None or isinstance(normalize(comp), FiniteSet):
        raise ComplementNotInfiniteError(
            "Z minus W is finite; the cofinite pair construction applies instead"
        )

    def descend(test) -> list[int]:
        current = list(range(n))
        while True:
            removed = None
            for x in sorted(current, reverse=True):
                if len(current) == 1:
                    break
                trial = finite(t for t in current if t != x)
                if test(nw, trial).is_true:
                    removed = x
                    current = list(trial.elements)
                    break
            if removed is None:
                return current
    mc = descend(is_complement)
    mac = descend(is_asymptotic_complement)
    return finite(mc), finite(mac)


# ---------------------------------------------------------------------------
# shrinks


def _pick_triple(
    c: IntSet, triple, win: Window, modulus: int | None
) -> tuple[int, int, int]:
    if triple is not None:
        a, b, cc = (check_i64(t, "triple element") for t in triple)
        if not (a < b < cc):
            raise PreconditionViolatedError("need a < b < c")
        for t in (a, b, cc):
            if not contains(c, t):
                raise PreconditionViolatedError(f"{t} is not an element of C")
        if modulus is not None and ((b - a) % modulus or (cc - b) % modulus):
            raise PreconditionViolatedError(
                f"a, b, c must be congruent mod {modulus} for this left tail"
            )
        return a, b, cc
    elems = enumerate_window(c, win)
    if modulus is None:
        if len(elems) >= 3:
            return elems[0], elems[1], elems[2]
    else:
        by_class: dict[int, list[int]] = {}
        for t in elems:
            bucket = by_class.setdefault(t % modulus, [])
            bucket.append(t)
            if len(bucket) == 3:
                return bucket[0], bucket[1], bucket[2]
    raise PreconditionViolatedError(
        "no admissible a < b < c found in C inside the search window"
    )


def ep_shrink(
    w: IntSet, c: IntSet, pair: tuple[int, int] | None = None, window: Window | None = None
) -> tuple[IntSet, ShrinkCertificate]:
    """Drop one of two congruent elements of c against an eventually periodic w.

    With a = b (mod T), the translate b + (periodic part of w) already lies
    inside a + w, so only b + (pre-periodic part of w) can be lost: a finite
    window.  The second element of the pair is removed.
    """
    nw = normalize(w)
    cls = classify(nw)
    if not cls.eventually_periodic or not isinstance(nw, BEPSet):
        raise PreconditionViolatedError(
            "W must be eventually periodic: bounded below with a forward period"
        )
    period = cls.period or 1
    win = window or DEFAULT_WINDOW
    if pair is None:
        seen: dict[int, int] = {}
        found = None
        for t in enumerate_window(c, win):
            r = t % period
            if r in seen:
                found = (seen[r], t)
                break
            seen[r] = t
        if found is None:
            raise NoCongruentPairError(
                f"no two elements of C congruent mod {period} in [{win.lo}, {win.hi}]"
            )
        a, b = found
    else:
        a, b = (check_i64(t, "pair element") for t in pair)
        if a == b or (a - b) % period:
            raise PreconditionViolatedError(
                f"pair must be two distinct elements congruent mod {period}"
            )
        for t in (a, b):
            if not contains(c, t):
                raise PreconditionViolatedError(f"{t} is not an element of C")
    m = min_element(nw)
    hi_inner = nw.core_hi + max(0, a - b)
    bound = Window(b + m, b + max(hi_inner, m))
    return minus(c, {b}), ShrinkCertificate(removed=b, frame=(a,), loss_bound=bound)


def interval_shrink(
    w: IntSet, c: IntSet, triple: tuple[int, int, int] | None = None, window: Window | None = None
) -> tuple[IntSet, ShrinkCertificate]:
    """Drop the middle of a < b < c against a block-family w.

    Every block long enough (length at least c-a+1) satisfies
    b + block within (a + block) union (c + block), and a full or arithmetic
    ray is absorbed by the translate of c alone, so the loss sits inside an
    explicit window around b + (the first c-a blocks).
    """
    nw = normalize(w)
    if isinstance(nw, FamilySet) and nw.negated:
        mtriple = tuple(sorted(-t for t in triple)) if triple is not None else None
        shr, cert = interval_shrink(negate(nw), negate(c), mtriple, window)
        return negate(shr), ShrinkCertificate(
            removed=-cert.removed,
            frame=(-cert.frame[1], -cert.frame[0]),
            loss_bound=Window(-cert.loss_bound.hi, -cert.loss_bound.lo),
        )
    if not isinstance(nw, FamilySet):
        raise PreconditionViolatedError("W must be a block-family descriptor")
    rule = nw.rule
    modulus = None
    if nw.left.kind == "periodic" and not nw.left.is_full:
        modulus = nw.left.period
    win = window or DEFAULT_WINDOW
    a, b, cc = _pick_triple(c, triple, win, modulus)
    big = cc - a
    if rule.length(big + 1) < big + 1:
        raise PreconditionViolatedError(
            f"rule blocks of index > {big} stay shorter than {big + 1}; "
            "the interval containment needs length(k) >= k"
        )
    floor_inner = rule.start(1) if nw.left.is_empty else nw.left.threshold
    lo = min(a, b + nw.shift + floor_inner)
    if isinstance(rule, Lemma43Rule):
        hi = b + nw.shift + rule_end(rule, big)
    else:
        hi = b + nw.shift + rule.start(big) + rule.length(big)
    pts = [lo, hi]
    for r in nw.removes:
        pts.extend((a + r, cc + r))
    for extra in nw.adds:
        pts.append(b + extra)
    bound = Window(min(pts), max(pts))
    _verify_loss_contained(nw, normalize(c), b, bound)
    return minus(c, {b}), ShrinkCertificate(removed=b, frame=(a, cc), loss_bound=bound)


def _verify_loss_contained(nw: IntSet, nc: IntSet, b: int, bound: Window) -> None:
    """Best-effort check that points covered before removing b and not after
    all fall in bound; skipped when no exact windowed route exists at
    reasonable cost."""
    if len(bound) > 200_000 or not isinstance(nc, FiniteSet):
        return
    lost, _, _ = removal_growth(nw, nc, {b}, Window(bound.lo - 64, bound.hi + 64))
    stray = [t for t in lost if t not in bound]
    if stray:
        raise ToolkitError(f"loss escaped the certificate bound at {stray[:4]}")


def thmD_shrink(
    w: IntSet,
    c: IntSet,
    triple: tuple[int, int, int] | None = None,
    horizon: int = 10**6,
    window: Window | None = None,
) -> tuple[IntSet, ShrinkCertificate]:
    """Drop the middle of a < b < c against a bounded-below w whose missing
    points (above min w) eventually keep gaps of at least c-a+1.

    Once consecutive uncovered points v_i differ by more than c-a, the two
    probes u+(b-a) and u-(c-b) cannot both be uncovered, so b+u is absorbed
    by a or c for every u in w at or beyond the observed threshold v_i''.
    The certificate records (i', i''): first indices with all later observed
    gaps >= 2 and >= c-a+1.  The floor is one more than the frame width
    because two uncovered points exactly c-a apart would defeat both probes.
    """
    if horizon < 100:
        raise BadParamsError("horizon must be at least 100")
    nw = normalize(w)
    m = min_element(nw)
    if m is None:
        raise PreconditionViolatedError("W must be bounded below")
    win = window or DEFAULT_WINDOW
    a, b, cc = _pick_triple(c, triple, win, None)
    floor2 = cc - a + 1
    span = Window(m, checked_add(m, horizon - 1))
    inside = enumerate_window(nw, span)
    v: list[int] = []
    prev = m - 1
    for u in inside:
        v.extend(range(prev + 1, u))
        prev = u
    v.extend(range(prev + 1, span.hi + 1))
    gaps = [v[i + 1] - v[i] for i in range(len(v) - 1)]
    if len(gaps) < 5:
        raise HypothesisNotObservedError(
            "fewer than six uncovered points above min W within the horizon",
            report={"horizon": horizon, "uncoveredCount": len(v)},
        )
    last1 = max((i for i, g in enumerate(gaps, 1) if g < 2), default=0)
    last2 = max((i for i, g in enumerate(gaps, 1) if g < floor2), default=0)
    i1, i2 = last1 + 1, last2 + 1
    observed = len(gaps) - i2 + 1
    if observed < 5:
        raise HypothesisNotObservedError(
            f"the gap floor {floor2} is not held by at least five observed gaps "
            "within the horizon",
            report={
                "horizon": horizon,
                "requiredFloor": floor2,
                "observedTailGaps": max(observed, 0),
                "lastGaps": gaps[-8:],
            },
        )
    bound = Window(checked_add(b, m), checked_add(b, v[i2 - 1]))
    return minus(c, {b}), ShrinkCertificate(
        removed=b, frame=(a, cc), loss_bound=bound, thresholds=(i1, i2)
    )


# ---------------------------------------------------------------------------
# built-in sets


def builtin(name: str, **params) -> IntSet:
    """Named sets used throughout: the nonprimes, the quadratic-plus-power
    block family with or without its ray, the four ray variants over those
    blocks, the width-10k families, and the subgroups nZ."""
    def only(*allowed):
        extra = set(params) - set(allowed)
        if extra:
            raise BadParamsError(f"unknown parameters for {name}: {sorted(extra)}")

    if name == "subgroup":
        only("n")
        n = params.get("n")
        if not isinstance(n, int) or n < 1:
            raise BadParamsError("subgroup needs a positive integer n")
        return normalize(subgroup_set(n))
    if name == "nonprimes":
        only()
        return nonprimes()
    if name == "lemma43":
        only()
        return normalize(lemma43_set())
    if name == "lemma44":
        only()
        return normalize(lemma44_set())
    if name == "blocks10":
        only()
        return normalize(blocks10_family(False))
    if name == "blocks10-complement":
        only()
        return normalize(blocks10_family(True))
    if name == "thmC":
        only("variant", "F", "a", "n")
        variant = params.get("variant")
        if variant not in (1, 2, 3, 4):
            raise BadParamsError("thmC needs variant in 1..4")
        rule = Lemma43Rule()
        ray_top = rule.start(1)
        if variant == 1:
            return normalize(lemma44_set())
        if variant == 2:
            return normalize(lemma43_set())
        if variant == 3:
            f = params.get("F")
            if f is None:
                raise BadParamsError("variant 3 needs a nonempty finite F")
            gone = tuple(sorted({check_i64(t, "F element") for t in f}))
            if not gone:
                raise BadParamsError("variant 3 needs a nonempty finite F")
            below = tuple(t for t in gone if t < ray_top)
            return normalize(
                FamilySet(rule, TailSpec.full(ray_top), removes=below)
            )
        aa, n = params.get("a"), params.get("n")
        if not isinstance(aa, int) or not isinstance(n, int) or n == 0:
            raise BadParamsError("variant 4 needs integers a and n with n != 0")
        step = abs(n)
        return normalize(
            FamilySet(rule, TailSpec.periodic(ray_top, step, {aa % step}))
        )
    raise BadParamsError(f"unknown builtin {name!r}")
