"""Sumset kernels: pointwise decisions, windowed masks, exact closed forms."""
from __future__ import annotations

import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from addcomp.errors import RadiusTooSmallError, ToolkitError
from addcomp.intset import (
    INT64_MAX,
    INT64_MIN,
    TailSpec,
    Window,
    above,
    ap,
    below,
    blocks10_family,
    cofinite,
    contains,
    enumerate_window,
    finite,
    generic_family,
    integers,
    lemma43_set,
    lemma44_set,
    make_bep,
    negate,
    nonprimes,
    normalize,
    subgroup_set,
    translate,
)
from addcomp.search import brute_force_cover, complete_radius
from addcomp.sumset import (
    CoverageMask,
    _pattern_bits,
    bep_sumset,
    pointwise_hit,
    window_bits,
    windowed_sumset,
)


def test_pointwise_hit_nonprimes():
    # 3 = 3+0 = 2+1 needs a nonprime in {3, 2}; both are prime
    assert pointwise_hit(nonprimes(), finite([0, 1]), 3) is False
    assert pointwise_hit(nonprimes(), finite([0, 1]), 4) is True


def test_pointwise_hit_subgroup():
    assert pointwise_hit(subgroup_set(2), subgroup_set(2), 1) is False
    assert pointwise_hit(subgroup_set(2), subgroup_set(2), 0) is True


def test_pointwise_hit_family():
    assert pointwise_hit(lemma43_set(), finite([0, 1]), 6) is True  # 5 + 1
    assert pointwise_hit(lemma44_set(), lemma44_set(), 0) is None


def test_windowed_nonprimes_pair():
    mask = windowed_sumset(nonprimes(), finite([0, 1]), Window(-20, 20))
    assert mask.uncovered_interior() == [3]
    assert mask.interior_margin == 0


def test_windowed_evens_full():
    mask = windowed_sumset(subgroup_set(2), finite([0, 1]), Window(0, 10))
    assert mask.covered_count() == 11


def test_windowed_block_absorption():
    """A middle translate of a long block sits inside the outer translates."""
    w = lemma43_set()
    rule = w.rule
    k = 5
    win = Window(rule.start(k), rule.start(k) + k)
    mask = windowed_sumset(w, finite([0, 2]), win)
    middle = windowed_sumset(w, finite([1]), win)
    for t in win:
        if middle.covered(t):
            assert mask.covered(t)


def test_bep_sum_evens_plus_pair():
    assert normalize(bep_sumset(subgroup_set(2), finite([0, 1]))) == integers()


def test_bep_sum_residues_close():
    assert bep_sumset(subgroup_set(5), finite(range(5))) == integers()


def test_bep_sum_opposed_rays():
    assert bep_sumset(below(4), above(-1)) == integers()


def test_bep_sum_same_direction_rays():
    # smallest sum of two elements above 0 is 1 + 1
    got = bep_sumset(above(0), above(0))
    assert normalize(got) == normalize(above(1))


def test_bep_sum_period_interaction():
    # 4Z + 6Z lands on gcd 2
    got = normalize(bep_sumset(subgroup_set(4), subgroup_set(6)))
    for t in range(-30, 30):
        assert contains(got, t) == (t % 2 == 0)


def _random_bep(rng: random.Random):
    def tail(threshold):
        roll = rng.random()
        if roll < 0.3:
            return TailSpec.empty(threshold)
        if roll < 0.5:
            return TailSpec.full(threshold)
        period = rng.randrange(1, 13)
        count = rng.randrange(1, period + 1)
        return TailSpec.periodic(threshold, period, rng.sample(range(period), count))

    reach = rng.randrange(5, 50)
    core = [t for t in range(-reach, reach + 1) if rng.random() < 0.3]
    s = make_bep(tail(-reach), core, -reach, reach, tail(reach))
    if not s.__class__.__name__ == "FiniteSet" or s.elements:
        return s
    return finite([0])


def test_bep_sumset_matches_oracle():
    """Exact descriptors agree with definitional enumeration bit for bit."""
    rng = random.Random(404)
    win = Window(-150, 150)
    checked = 0
    while checked < 60:
        a, b = _random_bep(rng), _random_bep(rng)
        radius = complete_radius(a, b, win)
        if radius is None or radius > 2500:
            continue
        got = window_bits(bep_sumset(a, b), win)
        oracle = brute_force_cover(a, b, win, radius)
        assert oracle.interior_margin == 0
        assert got == oracle.bits, f"disagreement for {a} + {b}"
        checked += 1


def test_windowed_commutes():
    rng = random.Random(77)
    for _ in range(20):
        a = _random_bep(rng)
        b = finite(rng.sample(range(-20, 20), rng.randrange(1, 5)))
        win = Window(-60, 60)
        ab = windowed_sumset(a, b, win)
        ba = windowed_sumset(b, a, win)
        assert ab.bits == ba.bits


def test_windowed_translate_equivariance():
    rng = random.Random(78)
    for _ in range(20):
        a = _random_bep(rng)
        b = finite(rng.sample(range(-10, 10), 3))
        g = rng.randrange(-15, 15)
        win = Window(-40, 40)
        base = windowed_sumset(a, b, win)
        shifted = windowed_sumset(translate(a, g), b, Window(win.lo + g, win.hi + g))
        for t in win:
            assert base.covered(t) == shifted.covered(t + g)


def test_finite_associativity():
    rng = random.Random(79)
    for _ in range(15):
        a = finite(rng.sample(range(-12, 12), 3))
        b = finite(rng.sample(range(-12, 12), 3))
        c = finite(rng.sample(range(-12, 12), 3))
        left = bep_sumset(bep_sumset(a, b), c)
        right = bep_sumset(a, bep_sumset(b, c))
        assert normalize(left) == normalize(right)


def test_result_period_divides_lcm():
    got = bep_sumset(subgroup_set(6), subgroup_set(10))
    nb = normalize(got)
    assert nb.right.period in (1, 2)  # gcd(6,10)
    for t in range(-40, 40):
        assert contains(nb, t) == (t % 2 == 0)


def test_mask_serialization():
    mask = windowed_sumset(nonprimes(), finite([0, 1]), Window(0, 8))
    blob = mask.to_json()
    assert blob["window"] == [0, 8]
    assert blob["interiorMargin"] == 0
    runs = blob["runs"]
    assert runs[0]["lo"] == 0 and runs[-1]["hi"] == 8
    for run in runs:
        for t in range(run["lo"], run["hi"] + 1):
            assert mask.covered(t) == bool(run["covered"])


def test_mask_interior_and_uncovered():
    mask = brute_force_cover(cofinite([5]), finite([0]), Window(0, 10), radius=3)
    inner = mask.interior()
    assert inner is not None
    assert mask.uncovered_interior() == [5]


# ---------------------------------------------------------------------------
# the mask codec against its definitions, one point at a time


@st.composite
def _masks(draw):
    width = draw(st.integers(1, 300))
    lo = draw(st.one_of(
        st.integers(-(10**12), 10**12),
        st.integers(INT64_MIN, INT64_MIN + 400),
        st.integers(INT64_MAX - 700, INT64_MAX),
    ))
    lo = min(lo, INT64_MAX - width + 1)
    # bits at or above the width are set too: every decode must ignore them
    bits = draw(st.one_of(
        st.just(0),
        st.just((1 << width) - 1),
        st.integers(0, (1 << (width + 16)) - 1),
    ))
    margin = draw(st.integers(0, width))  # margins past width // 2 leave no interior
    return CoverageMask(Window(lo, lo + width - 1), bits, margin)


def _runs_by_point(mask):
    out = []
    lo, hi = mask.window.lo, mask.window.hi
    cur, start = mask.covered(lo), lo
    for t in range(lo + 1, hi + 1):
        if mask.covered(t) != cur:
            out.append((cur, start, t - 1))
            cur, start = mask.covered(t), t
    out.append((cur, start, hi))
    return out


@settings(max_examples=300, deadline=None)
@given(_masks())
def test_mask_decodes_match_covered(mask):
    win = mask.window
    assert mask.flags().tolist() == [mask.covered(t) for t in win]
    assert mask.uncovered() == [t for t in win if not mask.covered(t)]
    inner = mask.interior()
    want = [] if inner is None else [t for t in inner if not mask.covered(t)]
    assert mask.uncovered_interior() == want
    assert mask.runs() == _runs_by_point(mask)


_WINDOW_SETS = [
    nonprimes(),
    lemma43_set(),
    lemma44_set(),
    blocks10_family(False),
    blocks10_family(True),
    finite([-7, 0, 3, 10**11 + 5, 10**11 + 90]),
    ap(2, 5, "above", -9),
    ap(1, 7, "below", 10**11 + 50),
]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(_WINDOW_SETS),
    st.sampled_from([0, -150, 10**11 - 100]),
    st.integers(-100, 100),
    st.integers(1, 300),
)
def test_window_bits_matches_enumeration(s, base, offset, width):
    win = Window(base + offset, base + offset + width - 1)
    want = 0
    for t in enumerate_window(s, win):
        want |= 1 << (t - win.lo)
    assert window_bits(s, win) == want


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 60), st.integers(-(10**4), 10**4), st.integers(-1, 500))
def test_pattern_bits_matches_per_point(data, period, lo, width):
    residues = frozenset(data.draw(st.sets(st.integers(0, period - 1), min_size=1)))
    hi = lo + width - 1
    want = 0
    for t in range(lo, hi + 1):
        if t % period in residues:
            want |= 1 << (t - lo)
    assert _pattern_bits(residues, period, lo, hi) == want


# ---------------------------------------------------------------------------
# windowed_sumset's shifted routes against one window_bits per shift


def _outcome(fn):
    try:
        return fn()
    except (OverflowError, ToolkitError) as e:
        return type(e), str(e)


def _per_shift(y, shifts, win):
    bits = 0
    for e in shifts:
        bits |= window_bits(y, Window(win.lo - e, win.hi - e))
    return bits


def _placed(data, base, shifts):
    s = negate(base) if data.draw(st.booleans()) else base
    s = translate(s, data.draw(shifts))
    removes = data.draw(st.sets(st.integers(-50, 50), max_size=3))
    return replace(s, removes=tuple(sorted(removes)))


_FAR = st.one_of(
    st.integers(-300, 300),
    st.integers(-(10**12), 10**12),
    st.integers(INT64_MIN, INT64_MIN + 400),
    st.integers(INT64_MAX - 400, INT64_MAX),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_windowed_finite_route_matches_per_shift(data):
    """Shifts close together (one run), far apart (disjoint runs) and past
    the 64-bit range; the error, if any, is the first the per-shift walk
    meets, message included."""
    base = data.draw(st.sampled_from([nonprimes(), lemma43_set(), blocks10_family(True)]))
    y = _placed(data, base, _FAR)
    spread = data.draw(st.sampled_from([12, 5000, 10**6, 2**62]))
    c = finite(data.draw(st.sets(st.integers(-spread, spread), min_size=1, max_size=5)))
    width = data.draw(st.integers(1, 200))
    lo = min(max(data.draw(_FAR), INT64_MIN), INT64_MAX - width + 1)
    win = Window(lo, lo + width - 1)
    want = _outcome(lambda: (_per_shift(normalize(y), c.elements, win), 0))
    for a, b in ((y, c), (c, y)):
        got = _outcome(lambda: windowed_sumset(a, b, win))
        if not isinstance(got, tuple):
            got = (got.bits, got.interior_margin)
        assert got == want


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_windowed_radius_route_matches_per_shift(data):
    """Two block families with no exact route: the second is enumerated
    within the radius, its elements often in several separate runs."""
    families = [lemma44_set(), blocks10_family(), blocks10_family(True),
                generic_family("k", "k+1", 3)]
    a = _placed(data, data.draw(st.sampled_from(families)), st.integers(-60, 60))
    b = _placed(data, data.draw(st.sampled_from(families)), st.integers(-60, 60))
    radius = data.draw(st.integers(0, 300))
    width = data.draw(st.integers(1, 120))
    lo = data.draw(st.integers(-400, 400))
    win = Window(lo, lo + width - 1)

    def per_shift():
        second = enumerate_window(normalize(b), Window(-radius, radius))
        if not second:
            raise RadiusTooSmallError(f"second operand has no elements in [-{radius}, {radius}]")
        bits = _per_shift(normalize(a), second, win)
        return bits, max(abs(e) for e in second)

    want = _outcome(per_shift)
    got = _outcome(lambda: windowed_sumset(a, b, win, radius))
    if not isinstance(got, tuple):
        got = (got.bits, got.interior_margin)
    assert got == want
