"""Descriptor membership, enumeration, normalization, and classification."""
from __future__ import annotations

import functools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomp.errors import EmptySetError, ToolkitError
from addcomp.intset import (
    _SIEVE_ROOT_CAP,
    INT64_MAX,
    INT64_MIN,
    BEPSet,
    CofiniteSet,
    EditedSet,
    FamilySet,
    FiniteSet,
    Lemma43Rule,
    TailSpec,
    UnionSet,
    Window,
    above,
    ap,
    below,
    blocks10_family,
    classify,
    cofinite,
    contains,
    enumerate_window,
    finite,
    gap_sequence,
    gaps_bounded_toward,
    generic_family,
    integers,
    is_prime,
    lemma43_set,
    lemma44_set,
    make_bep,
    max_element_le,
    min_element,
    min_element_ge,
    minus,
    negate,
    nonprimes,
    normalize,
    prime_flags,
    runs_unbounded_toward,
    smallest_abs_elements,
    subgroup_set,
    translate,
    union,
)


def test_block_family_membership():
    w = lemma43_set()
    assert contains(w, 4)
    assert not contains(w, 6)
    assert contains(w, 12)
    # the ray below the first block
    assert contains(w, 3)
    assert contains(w, -100)


def test_nonprime_membership():
    """Primes are the positive primes; 0, 1, and negatives all belong."""
    w = nonprimes()
    assert not contains(w, 7)
    assert contains(w, -3)
    assert contains(w, 1)
    assert contains(w, 0)
    assert not contains(w, 2)
    assert contains(w, 9)


def test_enumerate_blocks():
    got = enumerate_window(lemma44_set(), Window(1, 30))
    assert got == [4, 5, 10, 11, 12, 21, 22, 23, 24]


def test_enumerate_even_subgroup():
    assert enumerate_window(subgroup_set(2), Window(-3, 3)) == [-2, 0, 2]


def _blocks10_oracle(t: int) -> bool:
    # complement family: positive integers outside every [10k^2, 10k(k+1)]
    if t < 1:
        return False
    k = 1
    while 10 * k * k <= t:
        if 10 * k * k <= t <= 10 * k * (k + 1):
            return False
        k += 1
    return True


def test_enumerate_blocks10_complement():
    """The first two excluded blocks are [10,20] and [40,60]."""
    want = [t for t in range(1, 46) if _blocks10_oracle(t)]
    assert want == list(range(1, 10)) + list(range(21, 40))
    assert enumerate_window(blocks10_family(True), Window(1, 45)) == want


def test_enumeration_matches_membership():
    rng = random.Random(11)
    sets = [
        lemma43_set(),
        lemma44_set(),
        nonprimes(),
        cofinite([0, 2]),
        union(subgroup_set(3), finite([1])),
        minus(below(10), finite([-4, 0])),
        blocks10_family(),
    ]
    for s in sets:
        lo = rng.randrange(-60, 0)
        win = Window(lo, lo + rng.randrange(20, 80))
        assert enumerate_window(s, win) == [t for t in win if contains(s, t)]


def test_normalize_translate_cofinite():
    assert normalize(translate(cofinite([0, 2]), 5)) == cofinite([5, 7])


def test_normalize_absorbs_point_into_pattern():
    s = normalize(union(finite([0]), subgroup_set(2)))
    assert isinstance(s, BEPSet)
    for t in range(-20, 20):
        assert contains(s, t) == (t % 2 == 0)


def test_normalize_ray_union_family():
    s = normalize(union(below(4), lemma44_set()))
    assert isinstance(s, FamilySet)
    for t in range(-30, 60):
        assert contains(s, t) == contains(lemma43_set(), t)


@given(st.lists(st.integers(-40, 40), min_size=1, max_size=6), st.integers(-50, 50))
def test_normalize_preserves_membership(points, probe):
    s = union(finite(points), ap(points[0] % 3, 3, "above", max(points)))
    assert contains(normalize(s), probe) == contains(s, probe)


@given(st.integers(-100, 100), st.integers(-30, 30))
def test_translate_negate_identities(t, g):
    s = union(finite([0, 7]), subgroup_set(4))
    assert contains(translate(s, g), t) == contains(s, t - g)
    assert contains(negate(s), t) == contains(s, -t)
    assert contains(negate(negate(s)), t) == contains(s, t)


def test_translate_finite():
    assert normalize(translate(finite([0, 1]), 3)) == finite([3, 4])


def test_negate_block_family():
    s = negate(lemma44_set())
    assert contains(s, -4)
    assert not contains(s, 4)
    assert classify(s).bounded_above


def test_negate_ray():
    # Z<=3 reflects to Z>=-3
    s = normalize(negate(below(4)))
    assert not contains(s, -4)
    assert contains(s, -3)
    assert contains(s, 10**6)


def test_gap_sequence_even():
    assert gap_sequence(subgroup_set(2), Window(0, 10)) == [2, 2, 2, 2, 2]


def test_gap_sequence_blocks():
    gaps = gap_sequence(lemma44_set(), Window(1, 50))
    # between-block jumps of 2^{k+1}+1 element difference
    assert {5, 9, 17} <= set(gaps)
    assert gaps.count(1) == len(gaps) - 3


def test_classify_two_sided_periodic():
    c = classify(union(subgroup_set(4), finite([1])))
    assert c.kind == "bep"
    assert not c.eventually_periodic
    assert c.period == 4


def test_classify_bounded_below_periodic():
    c = classify(union(ap(0, 4, "above", -1), finite([1])))
    assert c.eventually_periodic
    assert c.period == 4


def test_classify_family_and_cofinite():
    c = classify(lemma44_set())
    assert c.kind == "family"
    assert c.bounded_below
    assert not c.eventually_periodic
    assert classify(cofinite([0])).kind == "cofinite"


def test_rule_starts_and_lengths():
    rule = Lemma43Rule()
    assert [rule.start(k) for k in range(1, 5)] == [4, 10, 21, 41]
    assert [rule.length(k) for k in range(1, 5)] == [2, 3, 4, 5]


def test_rule_blocks_disjoint_and_increasing():
    for fam in (lemma44_set(), blocks10_family(), generic_family("k", "3*k", 7)):
        rule = fam.rule
        prev_end = None
        prev_len = 0
        for k in range(1, 12):
            start, length = rule.start(k), rule.length(k)
            assert length > prev_len
            if prev_end is not None:
                assert start > prev_end + 1
            prev_end = start + length - 1
            prev_len = length


def test_rule_cap_overflow():
    with pytest.raises(OverflowError):
        contains(lemma43_set(), 2**50)


def test_empty_finite_rejected():
    with pytest.raises(EmptySetError):
        finite([])


def test_make_bep_collapses_to_simpler_kinds():
    assert make_bep(TailSpec.full(0), [], 0, -1, TailSpec.full(-1)) == integers()
    got = make_bep(TailSpec.empty(0), [3, 5], 0, 6, TailSpec.empty(6))
    assert got == finite([3, 5])


def test_window_iteration():
    win = Window(-2, 2)
    assert list(win) == [-2, -1, 0, 1, 2]
    assert 2 in win and 3 not in win
    assert len(win) == 5


def test_smallest_abs_ordering():
    """Ties order the negative value first."""
    got = smallest_abs_elements(finite([-2, 2, 5, -7]), 4)
    assert got == [-2, 2, 5, -7]
    assert smallest_abs_elements(subgroup_set(3), 4) == [0, -3, 3, -6]
    # fewer elements than requested is not an error
    assert smallest_abs_elements(finite([1]), 5) == [1]


def test_minus_and_union_membership():
    rng = random.Random(5)
    for _ in range(25):
        pts = sorted(rng.sample(range(-30, 30), rng.randrange(1, 5)))
        s = minus(union(subgroup_set(2), finite(pts)), finite([pts[0]]))
        for t in range(-40, 40):
            want = (t % 2 == 0 or t in pts) and t != pts[0]
            # removing a point beats the sporadic add of the same point
            if pts[0] % 2 == 0:
                want = want and t != pts[0]
            assert contains(s, t) == want


def test_ap_sides_exclusive():
    s = ap(1, 2, "above", 0)
    assert enumerate_window(s, Window(-3, 7)) == [1, 3, 5, 7]
    s = ap(1, 2, "below", 0)
    assert enumerate_window(s, Window(-7, 3)) == [-7, -5, -3, -1]


def test_above_below_exclusive():
    assert enumerate_window(above(3), Window(0, 6)) == [4, 5, 6]
    assert enumerate_window(below(3), Window(0, 6)) == [0, 1, 2]


# ---------------------------------------------------------------------------
# the array enumeration kernels against their per-point definitions

# the least prime past the base-prime cap: its square is the least composite
# the sieve leaves to Miller-Rabin
_P = 2097169


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([0, 10**12, _SIEVE_ROOT_CAP**2, _P * _P, INT64_MAX, INT64_MIN]),
    st.integers(-400, 400),
    st.integers(1, 400),
)
def test_prime_flags_matches_is_prime(base, offset, width):
    lo = min(max(base + offset, INT64_MIN), INT64_MAX - width + 1)
    hi = lo + width - 1
    assert prime_flags(lo, hi).tolist() == [is_prime(n) for n in range(lo, hi + 1)]


def _outcome(fn):
    try:
        return fn()
    except (OverflowError, ToolkitError) as e:
        return type(e), str(e)


def _edited(data, base, shifts, centres):
    """base, maybe reflected, translated, with edits in and around a window."""
    s = negate(base) if data.draw(st.booleans()) else base
    shift = data.draw(shifts)
    s = translate(s, shift)
    width = data.draw(st.integers(1, 300))
    centre = data.draw(centres) + data.draw(st.sampled_from([0, shift, -shift]))
    lo = min(max(centre, INT64_MIN), INT64_MAX - width + 1)
    near = st.integers(max(lo - 5, INT64_MIN), min(lo + width + 5, INT64_MAX))
    adds = data.draw(st.sets(near, max_size=4))
    removes = data.draw(st.sets(near, max_size=4))
    s = replace(s, adds=tuple(sorted(adds)), removes=tuple(sorted(removes)))
    return s, Window(lo, lo + width - 1)


_ENDS = st.one_of(
    st.integers(-300, 300),
    st.integers(-(10**12), 10**12),
    st.integers(INT64_MIN, INT64_MIN + 400),
    st.integers(INT64_MAX - 400, INT64_MAX),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_enumerate_nonprimes_matches_member(data):
    """Errors included: past the 64-bit range of the inner coordinate, the
    first unedited point in window order is named."""
    s, win = _edited(data, nonprimes(), _ENDS, _ENDS)
    want = _outcome(lambda: [t for t in win if s.member(t)])
    assert _outcome(lambda: enumerate_window(s, win)) == want


def test_enumerate_family_edit_decides_past_the_cap():
    # inner coordinate far past the last lemma43 block, but 0 is removed
    s = replace(translate(lemma43_set(), -9223372036854775408), removes=(0,))
    assert not s.member(0)
    assert enumerate_window(s, Window(0, 0)) == []


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_enumerate_families_match_member(data):
    """Same elements as per-point membership, or the same exception type.
    Past the block index cap, points that an edit decides are still
    answered."""
    far = data.draw(st.booleans())
    if far:
        base = data.draw(st.sampled_from(
            [lemma43_set(), lemma44_set(), blocks10_family(), blocks10_family(True)]))
        s, win = _edited(data, base, _ENDS, _ENDS)
    else:
        base = data.draw(st.sampled_from(
            [generic_family("k", "k+1", 3), generic_family("2*k+1", "3*k", -7), lemma43_set()]))
        s, win = _edited(data, base, st.integers(-40, 40), st.integers(-300, 300))
    want = _outcome(lambda: [t for t in win if s.member(t)])
    got = _outcome(lambda: enumerate_window(s, win))
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and got[0] is want[0]
    else:
        assert got == want


# ---------------------------------------------------------------------------
# nearest elements and tail shape against per-point membership

_REACH = 150


def _closed(data, centre):
    """A closed-form set (finite, cofinite, a ray, a residue class cut to a
    side, or a union of two of these) with its structure near centre."""
    near = st.integers(max(centre - 30, INT64_MIN), min(centre + 30, INT64_MAX))
    kind = data.draw(st.sampled_from(["finite", "cofinite", "ap", "below", "above", "union"]))
    if kind == "finite":
        return finite(data.draw(st.sets(near, min_size=1, max_size=5)))
    if kind == "cofinite":
        return cofinite(data.draw(st.sets(near, max_size=5)))
    if kind == "ap":
        mod = data.draw(st.integers(1, 12))
        side = data.draw(st.sampled_from(["below", "above"]))
        return ap(data.draw(st.integers(0, mod - 1)), mod, side, data.draw(near))
    if kind in ("below", "above"):
        return (below if kind == "below" else above)(data.draw(near))
    return union(_closed(data, centre), _closed(data, centre))


def _any_set(data):
    """A set of any kind with a range of points to query it at: closed
    forms, translated, reflected and edited families and nonprimes, and
    unions, near 0 or near either end of int64."""
    kind = data.draw(st.sampled_from(["closed", "family", "generic", "nonprimes", "union"]))
    if kind == "closed":
        centre = data.draw(_ENDS)
        s = _closed(data, centre)
        return s, (max(centre - 40, INT64_MIN), min(centre + 40, INT64_MAX))
    if kind in ("generic", "union"):
        # generic blocks are evaluated one by one, and folding a union
        # enumerates the band between its parts, so both stay near 0
        base = data.draw(st.sampled_from([
            generic_family("k", "k+1", 3), generic_family("2*k+1", "3*k", -7),
            lemma43_set(), blocks10_family(True), nonprimes()]))
        s, win = _edited(data, base, st.integers(-40, 40), st.integers(-300, 300))
        if kind == "union":
            s = UnionSet((s, _closed(data, win.lo)))
    elif kind == "nonprimes":
        s, win = _edited(data, nonprimes(), _ENDS, _ENDS)
    else:
        base = data.draw(st.sampled_from(
            [lemma43_set(), lemma44_set(), blocks10_family(), blocks10_family(True)]))
        s, win = _edited(data, base, _ENDS, _ENDS)
    return s, (max(win.lo - 20, INT64_MIN), min(win.hi + 20, INT64_MAX))


def _membership(s):
    """Per-point membership of s, memoized; the exception type where
    membership raises.  Points past the int64 ends are asked too."""

    @functools.cache
    def at(t):
        try:
            return s.member(t)
        except (OverflowError, ToolkitError) as e:
            return type(e)

    return at


def _scan(at, t, d):
    """The first point from t in direction d, within _REACH steps, that is a
    member or whose membership raises; None when there is none."""
    return next((c for c in range(t, t + d * (_REACH + 1), d) if at(c) is not False), None)


def _base_undecided(s, t, c, d):
    """Whether an edited set's walk may raise before reaching c: its base
    is undecidable somewhere from t to c, or s is reflected and searched
    from INT64_MIN, whose reflection is not an int64."""
    if isinstance(s, UnionSet):
        return any(_base_undecided(p, t, c, d) for p in s.parts)
    if not isinstance(s, EditedSet):
        return False
    if s.negated and t == INT64_MIN:
        return True
    for x in range(t, c + d, d):
        try:
            s.base_member(s.inner(x))
        except (OverflowError, ToolkitError):
            return True
    return False


def _check_nearest(s, at, t, d):
    query = min_element_ge if d > 0 else max_element_le
    got = _outcome(lambda: query(s, t))
    c = _scan(at, t, d)
    if isinstance(s, UnionSet):
        # the nearer of the parts' answers, raising where one of them raises
        parts = [_outcome(lambda p=p: query(p, t)) for p in s.parts]
        if any(isinstance(v, tuple) for v in parts):
            assert isinstance(got, tuple)
            return
        values = [v for v in parts if v is not None]
        assert got == ((min if d > 0 else max)(values) if values else None)
    if c is None:
        # nothing within reach: none at all, or one farther out
        assert got is None or isinstance(got, tuple) or (
            d * (got - t) > _REACH and at(got) is True)
    elif at(c) is not True:
        assert isinstance(got, tuple) and got[0] is at(c), (t, d, c, got)
    elif not INT64_MIN <= c <= INT64_MAX:
        assert isinstance(got, tuple) and got[0] is OverflowError, (t, d, c, got)
    elif got != c:
        assert isinstance(got, tuple) and _base_undecided(s, t, c, d), (t, d, c, got)


def _far_window(s, d):
    """Points beyond every int64 edit, core and shifted tail threshold;
    None toward a family's blocks, which are not evaluable that far."""
    parts = s.parts if isinstance(s, UnionSet) else (s,)
    if any(isinstance(p, FamilySet) and (d < 0) == p.negated for p in parts):
        return None
    x = d * 2**64
    return range(x, x + 240) if d > 0 else range(x - 239, x + 1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_nearest_and_tail_shape_match_membership(data):
    s, (lo, hi) = _any_set(data)
    at = _membership(s)
    bounds = data.draw(st.lists(st.integers(lo, hi), min_size=1, max_size=4))
    for t in bounds:
        for d in (1, -1):
            _check_nearest(s, at, t, d)

    ns = _outcome(lambda: normalize(s))
    if isinstance(ns, tuple):
        # an edit where the base is undecidable: no shape to compare
        return
    cls = classify(ns)
    at_ns = _membership(ns)  # a fold may drop a part that is costly far out
    m = _outcome(lambda: min_element(s))
    assert (m is not None) == cls.bounded_below
    if isinstance(m, int):
        assert at(m) is True
        assert all(at(x) is False for x in range(m - _REACH, m))
        assert m == min_element_ge(s, INT64_MIN)

    closed = isinstance(ns, (FiniteSet, CofiniteSet, BEPSet))
    for d, bounded in ((1, cls.bounded_above), (-1, cls.bounded_below)):
        runs, gaps = runs_unbounded_toward(s, d), gaps_bounded_toward(s, d)
        far = _far_window(ns, d)
        flags = [at_ns(x) for x in far or ()]
        if far is None or not all(isinstance(f, bool) for f in flags):
            continue
        assert not (bounded and any(flags))
        assert not (gaps and not any(flags))
        if closed:
            assert (bounded, runs, gaps) == (not any(flags), all(flags), any(flags))
        elif not isinstance(ns, UnionSet):
            assert runs or not all(flags)

    # the count nearest 0 by absolute value, ties negative first
    near0 = range(-_REACH, _REACH + 1)
    if all(isinstance(at(x), bool) for x in near0):
        scanned = sorted((x for x in near0 if at(x)), key=lambda x: (abs(x), x > 0))
        got = _outcome(lambda: smallest_abs_elements(s, 6))
        if len(scanned) >= 6:
            assert got == scanned[:6]
        elif isinstance(got, list):
            assert got[: len(scanned)] == scanned and len(got) <= 6
            rest = got[len(scanned):]
            assert all(abs(x) > _REACH and at(x) is True for x in rest)
            assert rest == sorted(rest, key=lambda x: (abs(x), x > 0))


@pytest.mark.parametrize("query, s, t", [
    (min_element_ge, cofinite([INT64_MAX]), INT64_MAX),
    (min_element_ge, ap(0, 10, "above", 0), INT64_MAX),
    (max_element_le, ap(3, 10, "below", 0), INT64_MIN),
])
def test_nearest_element_outside_int64_raises(query, s, t):
    with pytest.raises(OverflowError):
        query(s, t)
