"""Decision procedures: complement, asymptotic complement, minimality.

Every predicate returns a Verdict rather than a bare bool.  A verdict's
``exact`` flag separates two grades of answer: exact verdicts are proved
over all of Z by a closed-form computation or a structural argument, while
window-grade verdicts (exact=False) report what holds on the stated window
and record it.  False verdicts always carry at least one witness; witnesses
are ordered by absolute value with ties going to the negative element.

Statuses are "true", "false", and "unknown"; "unknown" appears when neither
an exact route nor a trustworthy window answer exists, and for questions
whose truth would settle open problems about primes (coverage by several
prime-shifted classes of one parity), where honest tooling must not guess.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EmptySetError,
    RadiusTooSmallError,
    UndecidablePairError,
)
from .intset import (
    INT64_MAX,
    INT64_MIN,
    BEPSet,
    CofiniteSet,
    FamilySet,
    FiniteSet,
    IntSet,
    PointwiseSet,
    Window,
    enumerate_window,
    finite,
    is_prime,
    minus,
    normalize,
    rule_gap,
    smallest_abs_elements,
)
from .sumset import (
    CoverageMask,
    _full_coverage_provable,
    bep_sumset,
    closed_form,
    complement_set,
    flag_points,
    windowed_sumset,
)

DEFAULT_WINDOW = Window(-200, 200)


@dataclass(frozen=True)
class Verdict:
    status: str
    exact: bool
    witnesses: tuple[int, ...] = ()
    evidence: tuple[int, ...] | None = None
    family: dict | None = None
    window: Window | None = None
    removals: tuple[tuple[int, tuple[int, ...]], ...] = ()
    detail: str = ""

    def __post_init__(self) -> None:
        if self.status not in ("true", "false", "unknown"):
            raise ValueError(f"bad status {self.status!r}")

    @property
    def is_true(self) -> bool:
        return self.status == "true"

    @property
    def is_false(self) -> bool:
        return self.status == "false"

    def exit_code(self) -> int:
        return {"true": 0, "false": 1, "unknown": 2}[self.status]

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "exact": self.exact,
            "witnesses": list(self.witnesses),
            "evidence": None if self.evidence is None else list(self.evidence),
            "family": self.family,
            "window": None if self.window is None else self.window.to_json(),
            "removals": [[c, list(w)] for c, w in self.removals],
            "detail": self.detail,
        }


def order_witnesses(points, limit: int = 8) -> tuple[int, ...]:
    return tuple(sorted(points, key=lambda t: (abs(t), t > 0))[:limit])


def _describe(s: IntSet) -> dict:
    """Structured shape of a closed-form descriptor, for false verdicts."""
    s = normalize(s)
    if isinstance(s, FiniteSet):
        return {"kind": "finite", "elements": list(s.elements)}
    if isinstance(s, CofiniteSet):
        return {"kind": "cofinite", "excluded": list(s.excluded)}
    if isinstance(s, BEPSet):
        def side(tail):
            if tail.kind != "periodic":
                return None
            return {"period": tail.period, "residues": sorted(tail.residues)}
        return {
            "kind": "bep",
            "left": side(s.left),
            "right": side(s.right),
            "window": [s.core_lo, s.core_hi],
            "sporadic": list(s.core),
        }
    return {"kind": type(s).__name__}


# ---------------------------------------------------------------------------
# exact routes
#
# Both predicates ask about one object, the exceptional set E = Z \ (w + c):
# a complement leaves E empty, an asymptotic complement leaves it finite.
# Each route answers for E on the pairs it knows, or passes with None.


def _closed_form_route(nw: IntSet, nc: IntSet, window: Window) -> Verdict | None:
    if not (closed_form(nw) and closed_form(nc)):
        return None
    comp = complement_set(bep_sumset(nw, nc))
    if comp is None:
        return Verdict("true", True, evidence=(), detail="no exceptional points")
    comp = normalize(comp)
    if isinstance(comp, FiniteSet):
        return Verdict(
            "true",
            True,
            evidence=comp.elements,
            detail=f"{len(comp.elements)} exceptional points",
        )
    return Verdict(
        "false",
        True,
        witnesses=order_witnesses(smallest_abs_elements(comp, 8)),
        family=_describe(comp),
        detail="uncovered set is infinite, described by its closed form",
    )


def _long_runs_route(nw: IntSet, nc: IntSet, window: Window) -> Verdict | None:
    if not _full_coverage_provable(nw, nc):
        return None
    return Verdict("true", True, evidence=(), detail="full coverage by the long-runs argument")


def _finite_pair(nw: IntSet, nc: IntSet, kind: type):
    """The operand of the given kind and the finite one, or None."""
    for x, y in ((nw, nc), (nc, nw)):
        if isinstance(x, kind) and isinstance(y, FiniteSet):
            return x, y
    return None


def _nonprime_route(nw: IntSet, nc: IntSet, window: Window) -> Verdict | None:
    """Exact asymptotic answers for the nonprime set against a finite set.

    The sum covers a residue parity class wherever some shift lands on an
    even value other than 2, so with both parities present among c + shift
    the exceptional set is confined to an explicit finite candidate list.
    With a single shift the gap set is exactly a translated copy of the
    primes (infinite).  Several shifts of one parity would need simultaneous
    prime values, which is open, so that case stays unknown.
    """
    pair = _finite_pair(nw, nc, PointwiseSet)
    if pair is None:
        return None
    pw, fin = pair
    sign = -1 if pw.negated else 1
    shifts = [c + pw.shift for c in fin.elements]
    parities = {s % 2 for s in shifts}

    def covered(t: int) -> bool:
        return any(pw.member(t - c) for c in fin.elements)

    if len(parities) == 2:
        cand: set[int] = set()
        for p in (0, 1):
            cls = [c for c in fin.elements if (c + pw.shift) % 2 == p]
            if not cls:
                continue
            inter: set[int] | None = None
            for c in cls:
                opts = {c + pw.shift + 2 * sign}
                opts.update(c + r for r in pw.removes)
                inter = opts if inter is None else inter & opts
            cand |= inter or set()
        bad = sorted(t for t in cand if not covered(t))
        return Verdict(
            "true",
            True,
            evidence=tuple(bad),
            detail="both parities reached; candidates checked pointwise",
        )
    if len(fin.elements) == 1:
        c0 = fin.elements[0]
        pool: list[int] = []
        p = 2
        while len(pool) < 12 and p < 200:
            if is_prime(p):
                t = c0 + pw.shift + sign * p
                if not covered(t):
                    pool.append(t)
            p += 1
        for r in pw.removes:
            t = c0 + r
            if not covered(t):
                pool.append(t)
        return Verdict(
            "false",
            True,
            witnesses=order_witnesses(pool),
            family={
                "kind": "shifted_primes",
                "offset": c0 + pw.shift,
                "scale": sign,
            },
            detail="single shift leaves a translated copy of the primes uncovered",
        )
    bad = [t for t in window if not covered(t)]
    return Verdict(
        "unknown",
        False,
        witnesses=order_witnesses(bad),
        window=window,
        detail=(
            f"all shifts share one parity; finiteness of the gap set is a "
            f"simultaneous-primes question ({len(bad)} gaps on the window)"
        ),
    )


def _block_gap_route(nw: IntSet, nc: IntSet, window: Window) -> Verdict | None:
    """A block family plus a finite set never covers cofinitely: once the
    between-block gaps outgrow the finite set's diameter, each gap keeps an
    uncovered point.

    Gaps are scanned in outer coordinates, from the end next to block k
    toward block k + 1, so a reflected family's gaps are scanned downward."""
    pair = _finite_pair(nw, nc, FamilySet)
    if pair is None:
        return None
    fam, fin = pair
    d = -1 if fam.negated else 1
    span = fin.elements[-1] - fin.elements[0]
    # t - c lies in the gap for every c in fin from t_start to t_stop
    near, far = (fin.elements[-1], fin.elements[0])[::d]
    witnesses: list[int] = []
    first_k = None
    for k in range(1, min(fam.rule.max_k(), 200_000)):
        if len(witnesses) >= 5:
            break
        g_lo, g_hi = rule_gap(fam.rule, k)
        if g_hi - g_lo < span:
            continue
        if first_k is None:
            first_k = k
        t_start, t_stop = fam.outer(g_lo) + near, fam.outer(g_hi) + far
        for t in range(t_start, t_stop + d, d):
            if not any(fam.member(t - c) for c in fin.elements):
                witnesses.append(t)
                break
    if first_k is None or not witnesses:
        return None
    family = {"kind": "block_gaps", "rule": fam.rule.params(), "firstGapIndex": first_k}
    if fam.negated:
        family["mirrored"] = True
    return Verdict(
        "false",
        True,
        # a reflected family's witnesses are ordered by absolute value, an
        # unreflected one's in gap order
        witnesses=order_witnesses(witnesses) if fam.negated else tuple(witnesses),
        family=family,
        detail=(
            "between-block gaps outgrow the finite diameter from index "
            f"{first_k}; one uncovered point per later gap"
        ),
    )


_ROUTES = (_closed_form_route, _long_runs_route, _nonprime_route, _block_gap_route)


def _mask(nw: IntSet, nc: IntSet, window: Window, radius: int | None) -> CoverageMask | Verdict:
    """The coverage mask of w + c on the window, or an unknown verdict when
    there is none or its trusted interior is empty."""
    try:
        mask = windowed_sumset(nw, nc, window, radius)
    except (UndecidablePairError, RadiusTooSmallError) as e:
        return Verdict("unknown", False, window=window, detail=str(e))
    if mask.interior() is None:
        detail = f"the enumeration margin {mask.interior_margin} leaves no trusted interior"
        return Verdict("unknown", False, window=window, detail=detail)
    return mask


# ---------------------------------------------------------------------------
# complement


def is_complement(
    w: IntSet, c: IntSet, window: Window | None = None, radius: int | None = None
) -> Verdict:
    """Is w + c all of Z?

    A closed form decides exactly.  Otherwise the window decides, and a
    window with no gap at all is exact when a route proves E empty.
    """
    nw, nc = normalize(w), normalize(c)
    win = window or DEFAULT_WINDOW
    v = _closed_form_route(nw, nc, win)
    if v is not None:
        if v.evidence == ():
            return Verdict("true", True, evidence=(), detail="sumset covers every integer")
        if v.is_true:  # E is finite, so its points nearest 0 are the witnesses
            witnesses, family = order_witnesses(v.evidence), _describe(finite(v.evidence))
        else:
            witnesses, family = v.witnesses, v.family
        return Verdict(
            "false",
            True,
            witnesses=witnesses,
            family=family,
            detail="uncovered set computed in closed form",
        )
    mask = _mask(nw, nc, win, radius)
    if isinstance(mask, Verdict):
        return mask
    bad = mask.uncovered_interior()
    exact = mask.interior_margin == 0
    if bad:
        return Verdict(
            "false",
            exact,
            witnesses=order_witnesses(bad),
            window=win,
            detail="uncovered points are exact" if exact else (
                f"uncovered inside the trusted interior (margin {mask.interior_margin})"
            ),
        )
    if exact:
        # the routes after the closed form that can prove E empty
        for route in (_long_runs_route, _nonprime_route):
            v = route(nw, nc, win)
            if v is not None and v.exact and v.evidence == ():
                return replace(v, window=win)
        return Verdict("true", False, window=win, detail="no gap on the window")
    # nothing is uncovered on the trusted interior, so every gap is an edge gap
    edge = len(mask.uncovered())
    detail = "covered on the trusted interior" + (f"; {edge} untrusted edge gaps" if edge else "")
    return Verdict("true", False, window=win, detail=detail)


# ---------------------------------------------------------------------------
# asymptotic complement


def asymptotic_exceptional_set(
    w: IntSet, c: IntSet, window: Window | None = None, radius: int | None = None
) -> Verdict:
    """Verdict on whether Z minus (w + c) is finite, with the exceptional
    set as evidence when it is exactly computable."""
    nw, nc = normalize(w), normalize(c)
    win = window or DEFAULT_WINDOW
    for route in _ROUTES:
        v = route(nw, nc, win)
        if v is not None:
            return v
    mask = _mask(nw, nc, win, radius)
    if isinstance(mask, Verdict):
        return mask
    bad = mask.uncovered_interior()
    if not bad:
        return Verdict("true", False, window=win, detail="no gap on the trusted interior")
    return Verdict(
        "unknown",
        False,
        witnesses=order_witnesses(bad),
        window=win,
        detail=(
            f"{len(bad)} uncovered points on the trusted interior; "
            "no exact route decides whether the global gap set is finite"
        ),
    )


def is_asymptotic_complement(
    w: IntSet, c: IntSet, window: Window | None = None, radius: int | None = None
) -> Verdict:
    v = asymptotic_exceptional_set(w, c, window, radius)
    n = len(v.evidence) if v.evidence is not None else None
    extra = f"; exceptional set size {n}" if n is not None else ""
    return replace(v, evidence=None, detail=(v.detail + extra).strip("; "))


# ---------------------------------------------------------------------------
# minimality


def _removal_candidates(nc: IntSet) -> list[int] | None:
    """Elements whose removal is tested for minimality.

    Finite sets test every element.  BEP sets test the core and two full
    periods into each periodic tail (removals deeper in a tail are related
    to those by the tail translation).  Other kinds are not supported.
    """
    if isinstance(nc, FiniteSet):
        return list(nc.elements)
    if isinstance(nc, BEPSet):
        cands = list(nc.core)
        if nc.left.kind == "periodic":
            lo = nc.core_lo - 2 * nc.left.period
            cands = nc.left.elements(lo, nc.core_lo - 1) + cands
        if nc.right.kind == "periodic":
            hi = nc.core_hi + 2 * nc.right.period
            cands = cands + nc.right.elements(nc.core_hi + 1, hi)
        return cands
    if isinstance(nc, CofiniteSet):
        # a cofinite set minus one point is still cofinite, so the first
        # sampled removal already decides; sampling can never certify true
        return smallest_abs_elements(nc, 3)
    return None


def _minimality(
    w: IntSet,
    c: IntSet,
    predicate,
    window: Window | None,
    radius: int | None,
    name: str,
) -> Verdict:
    base = predicate(w, c, window, radius)
    if not base.is_true:
        return replace(
            base, detail=f"not a {name} in the first place; {base.detail}".strip("; ")
        )
    nc = normalize(c)
    cands = _removal_candidates(nc)
    if cands is None:
        return Verdict(
            "unknown",
            False,
            detail=f"minimality testing needs a finite or bounded-except-periodic candidate, "
            f"got {type(nc).__name__}",
        )
    sampled = not isinstance(nc, FiniteSet)
    removals: list[tuple[int, tuple[int, ...]]] = []
    exact = base.exact and not sampled
    for x in sorted(cands):
        if isinstance(nc, FiniteSet) and len(nc.elements) == 1:
            sub = Verdict("false", True, witnesses=(0,), detail="empty removal covers nothing")
        else:
            sub = predicate(w, minus(nc, {x}), window, radius)
        if sub.is_true:
            return Verdict(
                "false",
                sub.exact and base.exact,
                witnesses=(x,),
                window=sub.window,
                detail=f"remains a {name} after removing {x}",
            )
        if sub.status == "unknown":
            return Verdict(
                "unknown",
                False,
                witnesses=(x,),
                window=sub.window,
                detail=f"cannot decide the removal of {x}: {sub.detail}",
            )
        exact = exact and sub.exact
        removals.append((x, sub.witnesses[:4]))
    if isinstance(nc, CofiniteSet):
        return Verdict(
            "unknown",
            False,
            removals=tuple(removals),
            detail="sampled removals all break it, but a cofinite candidate "
            "has untestable elements beyond the sample",
        )
    detail = f"every removal ({len(removals)} tested) breaks the {name}"
    if sampled:
        detail += "; tail removals sampled two periods beyond each threshold"
    return Verdict(
        "true",
        exact,
        evidence=base.evidence,
        window=base.window,
        removals=tuple(removals),
        detail=detail,
    )


def is_minimal_complement(
    w: IntSet, c: IntSet, window: Window | None = None, radius: int | None = None
) -> Verdict:
    return _minimality(w, c, is_complement, window, radius, "complement")


def is_minimal_asymptotic_complement(
    w: IntSet, c: IntSet, window: Window | None = None, radius: int | None = None
) -> Verdict:
    # the exceptional-set form of the predicate, so a true verdict carries
    # the exceptional set as evidence
    return _minimality(
        w, c, asymptotic_exceptional_set, window, radius, "asymptotic complement"
    )


# ---------------------------------------------------------------------------
# redundancy


def removal_growth(
    w: IntSet,
    c: IntSet,
    removed,
    window: Window | None = None,
    radius: int | None = None,
) -> tuple[list[int], bool, Window | None]:
    """Newly uncovered points after removing ``removed`` from c, restricted
    to the trusted interior, plus whether that growth sits clear of the
    window edges (fully enclosed) and the trusted interior used.

    Enclosure means no new gap within max(8, len//20) of either trusted
    edge, so the finite loss visibly stops before the horizon does.
    """
    win = window or DEFAULT_WINDOW
    base = windowed_sumset(w, c, win, radius)
    after = windowed_sumset(w, minus(c, removed), win, radius)
    return _window_loss(base, after, win)


def _inner(win: Window, margin: int) -> Window | None:
    """The part of the window a growth must stay inside to count as enclosed."""
    return win.shrink(margin + max(8, len(win) // 20))


def _enclosed(growth: list[int], inner: Window | None) -> bool:
    return inner is not None and all(t in inner for t in growth)


def _window_loss(
    base: CoverageMask, after: CoverageMask, win: Window
) -> tuple[list[int], bool, Window | None]:
    """The removal_growth triple for two masks over the same window."""
    margin = max(base.interior_margin, after.interior_margin)
    trusted = win.shrink(margin)
    if trusted is None:
        return [], False, None
    lost = base.flags() & ~after.flags()
    growth = flag_points(lost[margin : len(win) - margin], trusted.lo)
    return growth, _enclosed(growth, _inner(win, margin)), trusted


def _sole_losses(nw: IntSet, nc: IntSet, win: Window) -> dict[int, list[int]] | None:
    """Every single-element loss of w + c on the window from one counting pass.

    Needs a finite operand F (the smaller one when both are finite); the
    other operand O is enumerated once per shift f in F, so the cost is
    O(|F| * |window|) whatever the diameter of F.  Counting the
    representations t = w + c' of each window point t, and keeping the c'
    of the last one, maps each c to the points whose only representation
    uses it: exactly the points that removing c uncovers, since both sums
    are exact on the whole window.  None when neither operand is finite,
    or when a shifted window would leave the signed 64-bit range.
    """
    finite_ops = [
        (f, o, f_is_c)
        for f, o, f_is_c in ((nc, nw, True), (nw, nc, False))
        if isinstance(f, FiniteSet)
    ]
    if not finite_ops:
        return None
    fs, other, f_is_c = min(finite_ops, key=lambda p: len(p[0].elements))
    if win.lo - fs.elements[-1] < INT64_MIN or win.hi - fs.elements[0] > INT64_MAX:
        return None
    count = np.zeros(len(win), np.int64)
    sole = np.zeros(len(win), np.int64)
    for f in fs.elements:
        lo = win.lo - f
        pts = enumerate_window(other, Window(lo, win.hi - f))
        if not pts:
            continue
        # relative indices in Python ints, so no i64 arithmetic near the limits
        idx = np.array([t - lo for t in pts], np.int64)
        count[idx] += 1
        sole[idx] = f if f_is_c else np.array(pts, np.int64)
    hit = np.flatnonzero(count == 1)
    losses: dict[int, list[int]] = {}
    for j, x in zip(hit.tolist(), sole[hit].tolist()):
        losses.setdefault(x, []).append(win.lo + j)
    return losses


def redundant_elements(
    w: IntSet, c: IntSet, window: Window | None = None, radius: int | None = None
) -> list[tuple[int, tuple[int, ...]]]:
    """Elements of c (within the window) whose removal costs only a finite,
    fully-enclosed set of newly uncovered points; each comes with that set.

    With a finite operand (after normalization) every loss comes from one
    representation-count pass: removing c uncovers exactly the points t
    whose only representation t = w + c' has c' = c (Nathanson's criterion
    for essential elements).  That pass is exact on the whole window and
    costs O(|F| * |window|) for the finite operand F.  Otherwise (or when a
    window shifted by F would leave the signed 64-bit range) the sumset is
    computed once and once more per removal, as in removal_growth; when the
    first cannot be computed no element is reported.
    """
    win = window or DEFAULT_WINDOW
    nw, nc = normalize(w), normalize(c)
    xs = enumerate_window(nc, win)
    if not xs or (isinstance(nc, FiniteSet) and len(nc.elements) == 1):
        return []
    losses = _sole_losses(nw, nc, win)
    if losses is not None:
        inner = _inner(win, 0)
        return [(x, tuple(g)) for x in xs if _enclosed(g := losses.get(x, []), inner)]
    try:
        base = windowed_sumset(nw, nc, win, radius)
    except (UndecidablePairError, RadiusTooSmallError, EmptySetError):
        return []
    out = []
    for x in xs:
        try:
            after = windowed_sumset(nw, minus(nc, {x}), win, radius)
        except (UndecidablePairError, RadiusTooSmallError, EmptySetError):
            continue
        growth, enclosed, _ = _window_loss(base, after, win)
        if enclosed:
            out.append((x, tuple(growth)))
    return out
