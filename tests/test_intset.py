"""Descriptor membership, enumeration, normalization, and classification."""
from __future__ import annotations

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
    FamilySet,
    FiniteSet,
    Lemma43Rule,
    TailSpec,
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
    generic_family,
    integers,
    is_prime,
    lemma43_set,
    lemma44_set,
    make_bep,
    minus,
    negate,
    nonprimes,
    normalize,
    prime_flags,
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
