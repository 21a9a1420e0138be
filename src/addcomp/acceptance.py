"""Executable acceptance checks for the shipped claims.

Each check regenerates its own inputs from a seeded RNG, exercises the
public API, and returns (ok, detail).  run_all times every check, prints
one PASS/FAIL line each, and returns the rows; the CLI `verify-paper`
command is a thin wrapper around it.  Checks with a stated time budget
fail when they run over it.
"""
from __future__ import annotations

import random
from time import perf_counter

from .constructions import (
    builtin,
    ep_shrink,
    finite_index_minimals,
    interval_shrink,
    subgroup_masc,
    thmA1_shrink,
    thmA2_pair,
)
from .errors import MissingResidueClassError
from .intset import (
    TailSpec,
    Window,
    below,
    cofinite,
    enumerate_window,
    finite,
    generic_family,
    make_bep,
    subgroup_set,
    translate,
    union,
)
from .predicates import (
    asymptotic_exceptional_set,
    is_asymptotic_complement,
    is_minimal_asymptotic_complement,
    is_minimal_complement,
    removal_growth,
)
from .search import (
    brute_force_cover,
    complete_radius,
    cy_gap_classifier,
    greedy_asymptotic_complement,
    minimal_subset_search,
)
from .sumset import CoverageMask, bep_sumset, flag_points, window_bits, windowed_sumset


def _ray_with_adds(rng: random.Random, lo: int = -60, hi: int = -10):
    """A full left ray plus a few sporadic points above it."""
    k = rng.randint(lo, hi)
    adds = sorted(set(rng.sample(range(k + 1, 41), rng.randint(0, 4))))
    c = below(k)
    if adds:
        c = union(c, finite(adds))
    return c


def _left_tailed_ac(rng: random.Random, moduli: tuple[int, ...] = (1, 2, 3, 4, 5)):
    """An unbounded-below set with bounded gaps toward minus infinity."""
    if rng.random() < 0.5:
        return _ray_with_adds(rng)
    m = rng.choice(moduli)
    residues = rng.sample(range(m), rng.randint(1, m))
    core = sorted(set(rng.sample(range(-10, 31), rng.randint(0, 4))))
    return make_bep(TailSpec.periodic(0, m, residues), core, -10, 30, TailSpec.empty(0))


def check_family_blocks(rng: random.Random) -> tuple[bool, str]:
    """The quadratic-plus-power block family, enumerated on [1, 50]."""
    w = builtin("lemma44")
    got = enumerate_window(w, Window(1, 50))
    want = [4, 5, 10, 11, 12, 21, 22, 23, 24, 41, 42, 43, 44, 45]
    if got != want:
        return False, f"enumeration gave {got}"
    return True, "four blocks match exactly"


def check_nonprime_minimality(rng: random.Random) -> tuple[bool, str]:
    """{0,1} against the nonprimes: exceptional set {3}, minimal both ways."""
    w = builtin("nonprimes")
    big = Window(-10**4, 10**4)
    aes = asymptotic_exceptional_set(w, finite([0, 1]), window=big)
    if not (aes.is_true and aes.exact and aes.evidence == (3,)):
        return False, f"exceptional set verdict {aes.status} evidence {aes.evidence}"
    mask = windowed_sumset(w, finite([0, 1]), big)
    if mask.uncovered_interior() != [3]:
        return False, f"interior gaps {mask.uncovered_interior()[:6]}"
    mac = is_minimal_asymptotic_complement(w, finite([0, 1]))
    if not (mac.is_true and mac.removals and all(wit for _, wit in mac.removals)):
        return False, f"minimal-AC verdict {mac.status} removals {mac.removals}"
    mc = is_minimal_complement(w, finite([-1, 0, 1]))
    first = {x: wit[0] for x, wit in mc.removals if wit}
    if not (mc.is_true and mc.exact):
        return False, f"minimal-complement verdict {mc.status} exact {mc.exact}"
    if first != {-1: 3, 0: 4, 1: 2}:
        return False, f"removal witnesses {first}"
    return True, "exceptional set {3}; removal witnesses 3, 4, 2"


def check_finite_removals(rng: random.Random) -> tuple[bool, str]:
    """Removing a finite slice of a complement to a finite set costs only an
    enclosed finite patch of coverage, never an unbounded one."""
    win = Window(-40, 260)
    for case in range(50):
        w = finite(rng.sample(range(-10, 11), rng.randint(1, 5)))
        c, _skipped = greedy_asymptotic_complement(w, Window(-200, 200))
        take = rng.randint(1, min(3, len(c.elements) - 1))
        f = rng.sample(c.elements, take)
        shrunk, after = thmA1_shrink(w, c, f, window=win)
        growth, enclosed, trusted = removal_growth(w, c, f, window=win)
        if trusted is None or not enclosed:
            return False, f"case {case}: growth {growth[:6]} reached the window edge"
        if after.status != asymptotic_exceptional_set(w, c, window=win).status:
            return False, f"case {case}: removal flipped the verdict"
    return True, "50 random removals all enclosed"


def check_cofinite_pairs(rng: random.Random) -> tuple[bool, str]:
    """Two-element minimal complements to cofinite sets, singleton ACs."""
    for case in range(50):
        excluded = rng.sample(range(-30, 31), rng.randint(1, 6))
        w = cofinite(excluded)
        pair, verdict = thmA2_pair(w)
        if len(pair.elements) != 2:
            return False, f"case {case}: got {pair.elements}"
        if not (verdict.is_true and verdict.exact):
            return False, f"case {case}: verdict {verdict.status} exact {verdict.exact}"
        comp_min, ac_min = minimal_subset_search(w, pair)
        singles = [finite([t]) for t in pair.elements]
        if ac_min != singles:
            return False, f"case {case}: singleton ACs were {[s.elements for s in ac_min]}"
        if comp_min != [pair]:
            return False, f"case {case}: minimal complements {[s.elements for s in comp_min]}"
    return True, "50 cofinite sets: pair minimal, each singleton an exact AC"


def check_subgroup_representatives(rng: random.Random) -> tuple[bool, str]:
    """One representative per class mod n, minimal with whole-class losses."""
    for n in range(1, 13):
        evens = subgroup_set(2)
        cases = [("integers", cofinite([])), ("evens", evens), ("random", _ray_with_adds(rng))]
        for label, c in cases:
            if label == "evens" and n % 2 == 0:
                try:
                    subgroup_masc(n, c, bound=20_000, max_steps=30_000)
                except MissingResidueClassError as e:
                    if e.residue != 1 or e.modulus != n:
                        return False, f"n={n} {label}: missing class {e.residue}"
                    continue
                return False, f"n={n} evens: expected a missing odd class"
            cs, verdict = subgroup_masc(n, c)
            if len(cs.elements) != n or len({t % n for t in cs.elements}) != n:
                return False, f"n={n} {label}: representatives {cs.elements}"
            if not (verdict.is_true and verdict.exact):
                return False, f"n={n} {label}: verdict {verdict.status} exact {verdict.exact}"
            if len(verdict.removals) != n:
                return False, f"n={n} {label}: {len(verdict.removals)} removals checked"
            for x, wit in verdict.removals:
                if not wit or any(t % n != x % n for t in wit):
                    return False, f"n={n} {label}: removing {x} witnessed {wit}"
    return True, "n = 1..12 over three ambient sets, plus the even-n misses"


def check_finite_index_descent(rng: random.Random) -> tuple[bool, str]:
    """Descent inside {0..n-1} against nZ plus a disturbance point."""
    for n, want in ((4, (0, 1, 2, 3)), (2, (0, 1))):
        w = union(subgroup_set(n), finite([1]))
        got_c, got_a = finite_index_minimals(w)
        if got_c.elements != want or got_a.elements != want:
            return False, f"n={n}: descent gave {got_c.elements} / {got_a.elements}"
        comp_min, ac_min = minimal_subset_search(w, finite(range(n)))
        if comp_min != [got_c] or ac_min != [got_a]:
            return False, f"n={n}: exhaustive search disagrees"
    return True, "descent equals exhaustive enumeration for indexes 4 and 2"


def check_congruent_pair_shrinks(rng: random.Random) -> tuple[bool, str]:
    """Dropping one of two congruent elements of an AC to an eventually
    periodic set preserves the exact verdict."""
    for case in range(30):
        p = rng.randint(1, 8)
        residues = rng.sample(range(p), rng.randint(1, p))
        core = sorted(set(rng.sample(range(0, 26), rng.randint(0, 4))))
        w = make_bep(TailSpec.empty(0), core, 0, 26, TailSpec.periodic(26, p, residues))
        c = _ray_with_adds(rng)
        before = is_asymptotic_complement(w, c)
        if not (before.is_true and before.exact):
            return False, f"case {case}: sampled C was not an exact AC"
        shrunk, cert = ep_shrink(w, c)
        after = is_asymptotic_complement(w, shrunk)
        if not (after.is_true and after.exact):
            return False, f"case {case}: removing {cert.removed} flipped to {after.status}"
    return True, "30 shrinks, verdict exact true before and after"


def check_translated_block_containments(rng: random.Random) -> tuple[bool, str]:
    """b + block inside (a + block) union (c + block) once blocks outgrow
    c - a, and ray translates nest."""
    checked = 0
    for case in range(100):
        ai, bi = rng.randint(1, 3), rng.randint(1, 3)
        aj, bj = rng.randint(1, 3), rng.randint(1, 3)
        fam = generic_family(f"{ai}*k + {bi}", f"{aj}*k + {bj}", rng.randint(40, 80))
        rule = fam.rule
        a = rng.randint(-30, 30)
        d1 = rng.randint(1, 14)
        b = a + d1
        cc = b + rng.randint(1, 15 - d1)
        for k in range(cc - a + 1, 400):
            s, ln = rule.start(k), rule.length(k)
            if cc + s + ln > 10**4:
                break
            if a + s < 1:
                continue
            mid = set(range(b + s, b + s + ln))
            sides = set(range(a + s, a + s + ln)) | set(range(cc + s, cc + s + ln))
            if not mid <= sides:
                return False, f"case {case}: block {k} escapes at {sorted(mid - sides)[:4]}"
            checked += 1
        x = rng.randint(-20, 20)
        win = Window(x + b - 60, x + cc + 10)
        sb = set(enumerate_window(translate(below(x), b), win))
        sc = set(enumerate_window(translate(below(x), cc), win))
        if not sb <= sc:
            return False, f"case {case}: ray translate escapes"
    return True, f"100 triples, {checked} blocks contained"


def check_ray_family_shrinks(rng: random.Random) -> tuple[bool, str]:
    """Middle-of-three removals against every block-family-with-ray variant
    keep the AC verdict, with the loss inside the certificate bound."""
    big = Window(-10**4, 10**4)
    for variant in (1, 2, 3, 4):
        if variant == 3:
            params = {"F": sorted(rng.sample(range(-15, 4), rng.randint(1, 4)))}
        elif variant == 4:
            params = {"a": rng.randint(-10, 10), "n": rng.choice([1, 2, 3, 4, 5, 6, -2, -3])}
        else:
            params = {}
        w = builtin("thmC", variant=variant, **params)
        # a C tail modulus coprime to the ray modulus would force a congruent
        # triple wider than the rule evaluation cap
        moduli: tuple[int, ...] = (1, 2, 3, 4, 5)
        if variant == 4:
            n = abs(params["n"])
            moduli = tuple(d for d in range(1, n + 1) if n % d == 0)
        for case in range(20):
            c = _left_tailed_ac(rng, moduli)
            before = is_asymptotic_complement(w, c, window=big)
            if not (before.is_true and before.exact):
                return False, f"variant {variant} case {case}: C was not an exact AC"
            shrunk, cert = interval_shrink(w, c)
            after = is_asymptotic_complement(w, shrunk, window=big)
            if not (after.is_true and after.exact):
                return False, (
                    f"variant {variant} case {case}: removing {cert.removed} "
                    f"flipped to {after.status}"
                )
            loss, _, _ = removal_growth(w, c, {cert.removed}, big)
            stray = [t for t in loss if t not in cert.loss_bound]
            if stray:
                return False, f"variant {variant} case {case}: loss escaped at {stray[:4]}"
    w44 = builtin("lemma44")
    aes = asymptotic_exceptional_set(w44, finite([0, 1]))
    if not aes.is_false or not {7, 14, 26} <= set(aes.witnesses):
        return False, f"floor witnesses were {aes.witnesses}"
    mask = brute_force_cover(w44, finite([0, 1]), Window(1, 100))
    missing = set(mask.uncovered())
    if not {7, 14, 26} <= missing:
        return False, f"brute force disagrees on the floor witnesses: {sorted(missing)[:6]}"
    return True, "4 variants x 20 ACs verified; 7, 14, 26 uncovered as predicted"


def _random_tail(rng: random.Random) -> TailSpec:
    roll = rng.random()
    if roll < 0.3:
        return TailSpec.empty(0)
    if roll < 0.5:
        return TailSpec.full(0)
    p = rng.randint(1, 12)
    return TailSpec.periodic(0, p, rng.sample(range(p), rng.randint(1, p)))


def _random_bep(rng: random.Random):
    while True:
        reach = rng.randint(10, 50)
        left = _random_tail(rng)
        right = _random_tail(rng)
        core = sorted(set(rng.sample(range(-reach, reach + 1), rng.randint(0, 5))))
        if left.is_empty and right.is_empty and not core:
            continue
        return make_bep(left, core, -reach, reach, right)


def check_sumset_against_brute_force(rng: random.Random) -> tuple[bool, str]:
    """Closed-form sumsets agree with definitional enumeration bit for bit."""
    win = Window(-300, 300)
    pairs = 0
    while pairs < 500:
        w = _random_bep(rng)
        c = _random_bep(rng)
        radius = complete_radius(w, c, win)
        if radius is None or radius > 1600:
            # joint tail periods too far apart for a cheap complete radius
            continue
        mask = brute_force_cover(w, c, win)
        if mask.interior_margin != 0:
            return False, f"pair {pairs}: brute mask not exact"
        want = CoverageMask(win, window_bits(bep_sumset(w, c), win))
        if mask != want:
            diff = flag_points(mask.flags() != want.flags(), win.lo)[0]
            return False, f"pair {pairs}: first disagreement at {diff}"
        pairs += 1
    return True, "500 random pairs agree on [-300, 300]"


def check_gap_probe_discrepancy(rng: random.Random) -> tuple[bool, str]:
    """The width-10k complement keeps gaps of 1 forever, so the gap-floor
    flag stays unset even though the ray shrink itself goes through."""
    w = builtin("blocks10-complement")
    report = cy_gap_classifier(w, 10**4)
    if report["flags"]["thmD"]:
        return False, "gap-floor flag unexpectedly set"
    if not any("persist" in note for note in report["notes"]):
        return False, f"missing persistence note: {report['notes']}"
    for case in range(10):
        c = _left_tailed_ac(rng)
        before = is_asymptotic_complement(w, c)
        shrunk, cert = interval_shrink(w, c)
        after = is_asymptotic_complement(w, shrunk)
        if not (before.is_true and before.exact and after.is_true and after.exact):
            return False, f"case {case}: shrink around {cert.removed} not verified"
    return True, "flag unset (gaps of 1 persist) yet 10 shrinks verified"


CHECKS = (
    ("block family enumeration", 0.1, check_family_blocks),
    ("nonprime minimality", 2.0, check_nonprime_minimality),
    ("finite-set removal growth", None, check_finite_removals),
    ("cofinite two-element pairs", None, check_cofinite_pairs),
    ("subgroup representatives", None, check_subgroup_representatives),
    ("finite-index descent", None, check_finite_index_descent),
    ("congruent pair shrinks", None, check_congruent_pair_shrinks),
    ("translated block containments", None, check_translated_block_containments),
    ("ray family shrinks", None, check_ray_family_shrinks),
    ("sumset against brute force", 10.0, check_sumset_against_brute_force),
    ("gap probe discrepancy", None, check_gap_probe_discrepancy),
)


def run_all(seed: int = 0, out=print) -> list[dict]:
    """Run every check; one PASS/FAIL line each, rows returned."""
    rows: list[dict] = []
    for idx, (name, budget, fn) in enumerate(CHECKS, 1):
        rng = random.Random(seed * 1009 + idx)
        start = perf_counter()
        try:
            ok, detail = fn(rng)
        except Exception as e:
            ok, detail = False, f"raised {type(e).__name__}: {e}"
        elapsed = perf_counter() - start
        if ok and budget is not None and elapsed >= budget:
            ok = False
            detail += f"; over the {budget:g} s budget"
        rows.append(
            {
                "index": idx,
                "name": name,
                "ok": ok,
                "seconds": round(elapsed, 3),
                "detail": detail,
            }
        )
        if out is not None:
            out(f"{'PASS' if ok else 'FAIL'} {idx:2d} {name}: {detail} ({elapsed:.2f}s)")
    return rows
