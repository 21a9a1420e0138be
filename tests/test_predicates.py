"""Verdicts for complement, asymptotic complement, and minimality."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomp.errors import EmptySetError, RadiusTooSmallError, UndecidablePairError
from addcomp.intset import (
    INT64_MAX,
    FiniteSet,
    Window,
    above,
    ap,
    below,
    blocks10_family,
    cofinite,
    contains,
    enumerate_window,
    finite,
    integers,
    lemma43_set,
    lemma44_set,
    minus,
    negate,
    nonprimes,
    normalize,
    subgroup_set,
    translate,
    union,
)
from addcomp.predicates import (
    Verdict,
    asymptotic_exceptional_set,
    is_asymptotic_complement,
    is_complement,
    is_minimal_asymptotic_complement,
    is_minimal_complement,
    order_witnesses,
    redundant_elements,
    removal_growth,
)
from addcomp.search import greedy_asymptotic_complement
from addcomp.sumset import pointwise_hit, windowed_sumset


def test_complement_nonprimes_triple():
    v = is_complement(nonprimes(), finite([0, 1, -1]), Window(-10**4, 10**4))
    assert v.is_true
    assert v.exact  # the nonprime route proves the exceptional set empty
    assert v.witnesses == ()
    assert v.window is not None


def test_complement_nonprimes_pair_fails_at_three():
    v = is_complement(nonprimes(), finite([0, 1]))
    assert v.is_false
    assert v.witnesses[0] == 3


def test_complement_even_singleton():
    v = is_complement(subgroup_set(2), finite([0]))
    assert v.is_false
    # ties order the negative witness first
    assert v.witnesses[0] == -1


def test_exceptional_set_nonprimes():
    v = asymptotic_exceptional_set(nonprimes(), finite([0, 1]))
    assert v.is_true
    assert v.exact
    assert v.evidence == (3,)


def test_exceptional_set_residue_family():
    """W = 4Z plus the single point 1 misses the class 3 mod 4 except 3 itself."""
    v = asymptotic_exceptional_set(union(subgroup_set(4), finite([1])), finite([0, 1, 2]))
    assert v.is_false
    assert v.exact
    assert v.family is not None
    for t in v.witnesses:
        assert t % 4 == 3 and t != 3


def test_exceptional_set_empty():
    v = asymptotic_exceptional_set(subgroup_set(2), finite([0, 1]))
    assert v.is_true
    assert v.exact
    assert v.evidence == ()


def test_ac_ray_against_blocks():
    assert is_asymptotic_complement(lemma43_set(), below(1)).is_true


def test_ac_nonnegative_singleton():
    v = is_asymptotic_complement(above(-1), finite([0]))
    assert v.is_false


def test_ac_residue_cover():
    v = is_asymptotic_complement(subgroup_set(3), finite([0, 1, 2]))
    assert v.is_true
    assert v.exact


def test_minimal_complement_nonprimes():
    v = is_minimal_complement(nonprimes(), finite([-1, 0, 1]))
    assert v.is_true
    assert v.exact
    by_removed = {x: w for x, w in v.removals}
    assert by_removed[-1][0] == 3
    assert by_removed[0][0] == 4
    assert by_removed[1][0] == 2


def test_minimal_complement_cofinite_pair():
    v = is_minimal_complement(cofinite([0, 2]), finite([0, 1]))
    assert v.is_true
    assert v.exact


def test_minimal_complement_redundant_pair():
    v = is_minimal_complement(subgroup_set(2), finite([0, 1, 2]))
    assert v.is_false
    assert v.witnesses  # some removable element is named


def test_minimal_ac_nonprimes_pair():
    v = is_minimal_asymptotic_complement(nonprimes(), finite([0, 1]))
    assert v.is_true
    assert v.evidence == (3,)


def test_minimal_ac_subgroup_representatives():
    v = is_minimal_asymptotic_complement(subgroup_set(4), finite([0, 1, 2, 3]))
    assert v.is_true
    assert v.exact
    assert len(v.removals) == 4


def test_minimal_ac_never_holds_for_finite_w():
    """Any asymptotic complement to a finite set keeps slack everywhere."""
    assert is_minimal_asymptotic_complement(finite([0, 1]), integers()).is_false
    c, _ = greedy_asymptotic_complement(finite([0, 3]), Window(-80, 80))
    v = is_minimal_asymptotic_complement(finite([0, 3]), c, Window(-60, 60))
    assert not v.is_true


def test_minimal_ac_periodic_shrinkable():
    v = is_minimal_asymptotic_complement(above(-1), below(1))
    assert v.is_false


def test_redundant_every_point_against_z():
    out = redundant_elements(finite([0, 1]), integers(), Window(-50, 50))
    reported = {c for c, _ in out}
    assert reported == set(range(-50, 51))
    assert all(ev == () for _, ev in out)


def test_redundant_middle_elements_of_block_ac():
    w, cs = lemma44_set(), finite([0, 5, 9, 14])
    out = redundant_elements(w, cs, Window(-1000, 4200))
    assert [c for c, _ in out] == [5, 9]
    for c, ev in out:
        assert ev  # the finite loss is explicit
        for t in ev:  # covered, and only through c
            assert pointwise_hit(w, cs, t) is True
            assert pointwise_hit(w, minus(cs, {c}), t) is False


def test_redundant_none_for_representatives():
    out = redundant_elements(subgroup_set(3), finite([0, 1, 2]), Window(-60, 60))
    assert out == []


def test_removal_growth_enclosed():
    rng = random.Random(21)
    for _ in range(20):
        w = finite(sorted(rng.sample(range(-8, 9), rng.randrange(2, 5))))
        c, _ = greedy_asymptotic_complement(w, Window(-150, 150))
        x = rng.choice(c.elements)
        growth, enclosed, trusted = removal_growth(w, c, {x}, Window(-30, 200))
        assert trusted is not None
        assert enclosed
        for t in growth:
            assert pointwise_hit(w, minus(c, {x}), t) is False


def _redundant_by_definition(w, c, win, radius=None):
    """redundant_elements spelled out: one removal_growth per element."""
    nc = normalize(c)
    out = []
    for x in enumerate_window(nc, win):
        if isinstance(nc, FiniteSet) and len(nc.elements) == 1:
            break
        try:
            growth, enclosed, trusted = removal_growth(w, nc, {x}, win, radius)
        except (UndecidablePairError, RadiusTooSmallError, EmptySetError):
            continue
        if trusted is not None and enclosed:
            out.append((x, tuple(growth)))
    return out


_small_finite = st.lists(st.integers(-12, 12), min_size=1, max_size=5).map(finite)


@st.composite
def _finite_vs_other(draw):
    """A finite operand against one of each descriptor kind, either way
    round, on a window that may sit far out or be too narrow to enclose."""
    fin = draw(_small_finite)
    kind = draw(st.sampled_from(["finite", "cofinite", "ap", "nonprimes", "family"]))
    lo = draw(st.integers(-60, 60))
    if kind == "finite":
        other = finite(draw(st.lists(st.integers(-40, 40), min_size=2, max_size=30)))
    elif kind == "cofinite":
        other = cofinite(draw(st.lists(st.integers(-20, 20), max_size=4)))
    elif kind == "ap":
        mod = draw(st.integers(1, 5))
        side = draw(st.sampled_from(["above", "below"]))
        other = ap(draw(st.integers(0, mod - 1)), mod, side, draw(st.integers(-20, 20)))
    elif kind == "nonprimes":
        if draw(st.booleans()):
            other = minus(nonprimes(), {draw(st.sampled_from([4, 9, 15, 25]))})
        else:
            other = union(nonprimes(), finite([draw(st.sampled_from([2, 3, 7, 13]))]))
        lo += draw(st.sampled_from([0, 10**11]))
    else:
        other = draw(st.sampled_from([lemma44_set(), blocks10_family()]))
    narrow = draw(st.sampled_from([True, False, False, False]))
    width = draw(st.integers(0, 16) if narrow else st.integers(17, 90))
    win = Window(lo, lo + width)
    if draw(st.booleans()):
        return fin, other, win
    return other, fin, win


@st.composite
def _edited(draw, s):
    """s shifted, reflected or edited by a few points near 0, in any order."""
    for op in draw(st.lists(st.sampled_from(["shift", "neg", "minus", "add"]), max_size=3)):
        if op == "shift":
            s = translate(s, draw(st.integers(-30, 30)))
        elif op == "neg":
            s = negate(s)
        else:
            pts = draw(st.lists(st.integers(-20, 40), min_size=1, max_size=3))
            s = minus(s, pts) if op == "minus" else union(s, finite(pts))
    return s


@st.composite
def _w_against_finite(draw):
    kind = draw(st.sampled_from(["nonprimes", "family", "cofinite", "two_tailed"]))
    if kind == "nonprimes":
        return draw(_edited(nonprimes()))
    if kind == "family":
        fam = draw(st.sampled_from([blocks10_family(), blocks10_family(True), lemma43_set()]))
        if draw(st.booleans()):
            fam = union(fam, below(draw(st.integers(-20, 5))))
        return draw(_edited(fam))
    if kind == "cofinite":
        return cofinite(draw(st.lists(st.integers(-8, 8), max_size=4)))
    m1, m2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    left = ap(draw(st.integers(0, m1 - 1)), m1, "below", draw(st.integers(-10, 10)))
    right = ap(draw(st.integers(0, m2 - 1)), m2, "above", draw(st.integers(-10, 10)))
    return draw(_edited(union(left, right)))


@settings(max_examples=100, deadline=None)
@given(_w_against_finite(), st.lists(st.integers(-6, 6), min_size=1, max_size=4, unique=True))
def test_exact_complement_iff_exceptional_set_proved_empty(w, cs):
    """Both predicates read one exceptional set E: complement is exact true
    exactly when the asymptotic verdict proves E empty."""
    win = Window(-150, 150)
    comp = is_complement(w, finite(cs), win)
    aes = asymptotic_exceptional_set(w, finite(cs), win)
    assert (comp.is_true and comp.exact) == (aes.is_true and aes.exact and aes.evidence == ())


@settings(max_examples=200, deadline=None)
@given(_finite_vs_other())
def test_redundant_elements_matches_definition(case):
    w, c, win = case
    assert redundant_elements(w, c, win) == _redundant_by_definition(w, c, win)


@settings(max_examples=100, deadline=None)
@given(_finite_vs_other(), st.integers(0, 200), st.sampled_from([None, 15, 40]))
def test_removal_growth_matches_pointwise_decode(case, pick, radius):
    w, c, win = case
    if radius is not None:
        # neither operand finite: the radius route, with an edge margin
        w, c = lemma44_set(), (w if isinstance(normalize(c), FiniteSet) else c)
    cs = enumerate_window(normalize(c), Window(win.lo - 40, win.hi + 40))
    if len(cs) < 2:
        return
    x = cs[pick % len(cs)]
    try:
        base = windowed_sumset(w, c, win, radius)
        after = windowed_sumset(w, minus(c, {x}), win, radius)
    except (UndecidablePairError, RadiusTooSmallError):
        return
    growth, _, trusted = removal_growth(w, c, {x}, win, radius)
    if trusted is None:
        assert growth == []
    else:
        assert growth == [t for t in trusted if base.covered(t) and not after.covered(t)]


def test_redundant_without_finite_operand_pinned():
    """Neither operand finite: the radius route, one base sumset for all."""
    w, c = lemma44_set(), ap(0, 3, "above", -3)
    out = redundant_elements(w, c, Window(-10, 150), 30)
    assert out[:10] == [
        (0, (78, 79, 80)), (3, ()), (6, ()), (9, ()), (12, (55,)),
        (15, (58,)), (18, (61,)), (21, (64,)), (24, (67,)), (27, (70,)),
    ]
    assert out[10:] == [(t, ()) for t in range(33, 151, 3)]
    assert out == _redundant_by_definition(w, c, Window(-10, 150), 30)
    # without a radius the base sumset is undecidable, so nothing is reported
    assert redundant_elements(w, c, Window(-10, 150)) == []


def test_redundant_counting_far_apart_finite_operand():
    """A finite operand of huge diameter costs its size times the window."""
    w = finite([-10**12, 10**12])
    c = finite([-10**12 + 1, 0, 10**12 - 2, 10**12])
    win = Window(-40, 40)
    assert redundant_elements(w, c, win) == _redundant_by_definition(w, c, win)


def test_redundant_far_window_against_cofinite():
    """Far out, each window point's representations are counted directly."""
    w, c = finite([-3, 10]), cofinite([-8, 13])
    win = Window(10**11 + 209, 10**11 + 338)
    slack = max(8, len(win) // 20)
    reps = {t: [t - a for a in (-3, 10) if contains(c, t - a)] for t in win}
    expected = []
    for x in win:
        growth = tuple(t for t in win if reps[t] == [x])
        if all(win.lo + slack <= t <= win.hi - slack for t in growth):
            expected.append((x, growth))
    assert redundant_elements(w, c, win) == expected


def test_minimal_implies_complement():
    cases = [
        (nonprimes(), finite([-1, 0, 1])),
        (cofinite([0, 2]), finite([0, 1])),
        (subgroup_set(4), finite([0, 1, 2, 3])),
    ]
    for w, c in cases:
        if is_minimal_complement(w, c).is_true:
            assert is_complement(w, c).is_true


def test_false_witnesses_recheck():
    cases = [
        (nonprimes(), finite([0, 1])),
        (subgroup_set(2), finite([0])),
        (union(subgroup_set(4), finite([1])), finite([0, 1, 2])),
        (lemma44_set(), finite([0, 1])),
    ]
    for w, c in cases:
        v = asymptotic_exceptional_set(w, c)
        if v.is_false:
            for t in v.witnesses:
                assert pointwise_hit(w, c, t) is False


@pytest.mark.parametrize("w, want, predicates", [
    # every uncovered point lies past 10^6
    (below(2_000_000), tuple(range(2_000_000, 2_000_008)),
     (is_complement, is_asymptotic_complement)),
    (union(below(1_500_000), above(1_500_002)), (1_500_000, 1_500_001, 1_500_002),
     (is_complement,)),
    # the uncovered points end at the end of int64
    (below(INT64_MAX - 2), (INT64_MAX - 2, INT64_MAX - 1, INT64_MAX),
     (is_complement, is_asymptotic_complement)),
])
def test_false_verdict_names_the_nearest_uncovered_points(w, want, predicates):
    c = finite([0])
    for predicate in predicates:
        v = predicate(w, c)
        assert v.is_false and v.exact
        assert v.witnesses == want
        assert all(pointwise_hit(w, c, t) is False for t in v.witnesses)


def test_congruent_removal_keeps_cofiniteness():
    """Dropping one of two tail-congruent elements never uncovers a tail."""
    rng = random.Random(33)
    for _ in range(15):
        period = rng.randrange(1, 7)
        w = union(finite([0, 1]), ap(0, period, "above", rng.randrange(2, 9)))
        c = below(1)
        b = -rng.randrange(1, 30) * period
        v = asymptotic_exceptional_set(w, minus(c, {b}))
        assert v.is_true, f"period {period}, removed {b}"


def test_order_witnesses():
    assert order_witnesses([5, -5, 1, 0, -2, 2]) == (0, 1, -2, 2, -5, 5)
    assert len(order_witnesses(range(100))) == 8


def test_verdict_exit_codes():
    assert Verdict("true", True).exit_code() == 0
    assert Verdict("false", True, witnesses=(1,)).exit_code() == 1
    assert Verdict("unknown", False).exit_code() == 2


def test_verdict_unknown_for_family_pair():
    v = is_complement(lemma44_set(), lemma44_set())
    assert v.status == "unknown"
    assert v.exit_code() == 2


def test_empty_trusted_interior_is_unknown():
    """A radius margin that swallows the window leaves no evidence."""
    w = lemma44_set()
    for predicate in (is_complement, is_asymptotic_complement, asymptotic_exceptional_set):
        v = predicate(w, w, Window(0, 10), 100)
        assert v.status == "unknown" and not v.exact, predicate.__name__
        assert "no trusted interior" in v.detail


def test_verdict_json_round_trip():
    v = asymptotic_exceptional_set(nonprimes(), finite([0, 1]))
    blob = v.to_json()
    assert blob["status"] == "true"
    assert blob["evidence"] == [3]
    assert blob["exact"] is True


def test_translated_pair_keeps_verdict():
    v = asymptotic_exceptional_set(translate(nonprimes(), 11), finite([-11, -10]))
    assert v.is_true
    assert v.evidence == (3,)
