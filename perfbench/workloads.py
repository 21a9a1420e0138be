"""Seeded query streams for the three workloads.

A workload is an endless sequence of rounds.  Every round has the same
fixed list of query slots (operation, route, size stratum); the seed only
chooses the concrete sets, windows and elements inside each slot.  So the
cost mix is the same for every seed and every prefix of whole rounds, while
no two rounds or seeds repeat an input.  Round r of a seed is generated
from its own RNG, so a round never depends on how many came before it.

Sets are specs, nested tuples that reference.py interprets on its own:
    ("finite", elems) ("cofinite", excluded) ("below", x) ("above", x)
    ("ap", res, mod, side, from) ("nonprimes",) ("lemma44",) ("blocks10",)
    ("blocks10c",) ("generic", ai, bi, aj, bj, origin)
    ("union", A, B) ("minus", A, elems) ("translate", A, g) ("neg", A)
The program sees only the set-expression text that dsl() renders.
"""
from __future__ import annotations

import random
from math import gcd

import reference as ref

WORKLOADS = ("closed_form", "windowed", "minimality")


# ---------------------------------------------------------------------------
# rendering


def _lin(a: int, b: int) -> str:
    if b == 0:
        return f"{a}*k"
    return f"{a}*k + {b}" if b > 0 else f"{a}*k - {-b}"


def dsl(spec) -> str:
    """Set-expression text for a spec, in the program's DSL."""
    kind = spec[0]
    if kind in ("finite", "cofinite"):
        return kind + "{" + ",".join(str(t) for t in spec[1]) + "}"
    if kind in ("below", "above"):
        return f"{kind}({spec[1]})"
    if kind == "ap":
        _, res, mod, side, frm = spec
        return f"ap(res={res}, mod={mod}, side={side}, from={frm})"
    if kind == "nonprimes":
        return "nonprimes"
    if kind == "lemma44":
        return "family(lemma43)"
    if kind == "blocks10":
        return "family(blocks10)"
    if kind == "blocks10c":
        return "family(blocks10-complement)"
    if kind == "generic":
        _, ai, bi, aj, bj, origin = spec
        return f"family(generic, lenI={_lin(ai, bi)}, lenJ={_lin(aj, bj)}, origin={origin})"
    if kind == "union":
        return f"union({dsl(spec[1])}, {dsl(spec[2])})"
    if kind == "minus":
        return f"minus({dsl(spec[1])}, {dsl(('finite', spec[2]))})"
    if kind == "translate":
        return f"translate({dsl(spec[1])}, {spec[2]})"
    if kind == "neg":
        return f"neg({dsl(spec[1])})"
    raise ValueError(kind)


def _union(*parts):
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = ("union", p, out)
    return out


# ---------------------------------------------------------------------------
# closed-form sets


def _primes(limit: int) -> list[int]:
    return [n for n in range(2, limit) if all(n % d for d in range(2, int(n**0.5) + 1))]


_PRIMES = _primes(400)


def _period_pair(rng, target: int) -> tuple[int, int]:
    """Two tail periods m*p and m*q (p, q distinct primes of similar size)
    whose lcm m*p*q is one of the four closest to target.  A shared factor
    m > 1 lets left-by-right tail sums miss residue classes, so every
    verdict occurs."""
    m = rng.choice((1, 2, 3)) if target < 1000 else rng.choice((1, 2))
    t = target / m
    root = t**0.5
    pairs = sorted(((p, q) for p in _PRIMES for q in _PRIMES
                    if p < q and root / 3 <= p and q <= 3 * root),
                   key=lambda pq: abs(pq[0] * pq[1] - t))
    p, q = rng.choice(pairs[:4])
    return (m * p, m * q) if rng.random() < 0.5 else (m * q, m * p)


def _bep(rng, left: int, right: int):
    """Two periodic tails (one residue each) around a two-point core."""
    lo, hi = rng.randint(-20, -5), rng.randint(5, 20)
    return _union(
        ("ap", rng.randrange(left), left, "below", lo),
        ("finite", tuple(sorted(rng.sample(range(lo, hi + 1), 2)))),
        ("ap", rng.randrange(right), right, "above", hi),
    )


def _small_finite(rng, lo: int, hi: int, n: int):
    return ("finite", tuple(sorted(rng.sample(range(lo, hi + 1), n))))


def _cofinite(rng, span: int, n: int):
    return ("cofinite", tuple(sorted(rng.sample(range(-span, span + 1), n))))


_LCM_TARGETS = {"lcm_s": 30, "lcm_m": 300, "lcm_l": 1500, "lcm_xl": 5000}


def _closed_pair(rng, slot: str):
    if slot == "lcm1":
        if rng.random() < 0.5:
            return _cofinite(rng, 12, 3), _small_finite(rng, -6, 6, 3)
        return _small_finite(rng, -10, 10, 4), _cofinite(rng, 8, 2)
    if slot == "ray":
        x = rng.randint(-15, 5)
        w = _union(("below", x), _small_finite(rng, x + 1, x + 20, 2))
        mod = rng.randint(2, 6)
        c = _union(_small_finite(rng, -8, 8, 2), ("ap", rng.randrange(mod), mod, "above", rng.randint(0, 10)))
        return w, c
    target = _LCM_TARGETS[slot]
    (wl, cl), (wr, cr) = _period_pair(rng, target), _period_pair(rng, target)
    return _bep(rng, wl, wr), _bep(rng, cl, cr)


def _closed_minimality_pair(rng):
    """A closed-form W (cofinite, or residue classes with a core) and a
    finite C of four elements, for the minimality verdicts."""
    if rng.random() < 0.5:
        w = _cofinite(rng, 10, 2)
    else:
        mod = rng.choice((3, 4, 5, 6))
        res = sorted(rng.sample(range(mod), mod - 1))
        lo, hi = rng.randint(-12, -3), rng.randint(3, 12)
        parts = [("ap", r, mod, "below", lo) for r in res]
        parts.append(_small_finite(rng, lo, hi, 4))
        parts += [("ap", r, mod, "above", hi) for r in res]
        w = _union(*parts)
    return w, _small_finite(rng, -8, 8, 4)


_PREDICATES = ("complement", "ac", "aes", "mc", "mac")


def _check_argv(pred: str, w, c, win=None, json_out=False) -> list[str]:
    argv = ["check", "--w", dsl(w), "--c", dsl(c), "--predicate", pred]
    if win is not None:
        argv.append(f"--window={win[0]}:{win[1]}")
    if json_out:
        argv.append("--json")
    return argv


def closed_form_round(rng: random.Random) -> list[dict]:
    """Seven pairs, each asked two predicates in a row (the lcm-300 pair
    three); later questions reuse the first one's sumset through the
    program's cache, as a user asking several questions of one pair would.
    Strata by tail-period lcm: 1 (finite and cofinite), small rays, and
    two-tailed sets near 30, 300, 1500 and 5000.  Minimality only on the
    finite-C pair.  Three queries go through `cli check`.  Fifteen queries
    in all, as in every workload: with 15 slots the median and the 90th
    percentile fall in the middle of one slot's cluster of latencies (the
    8th and 14th cheapest), not on the edge between two."""
    out: list[dict] = []
    for i, slot in enumerate(("lcm1", "ray", "lcm_s", "lcm_m", "lcm_l", "lcm_xl")):
        w, c = _closed_pair(rng, slot)
        first, second, third = rng.sample(_PREDICATES[:3], 3)
        out.append({"op": "verdict", "pred": first, "w": w, "c": c, "route": "closed"})
        if i % 2 == 0:
            out.append({"op": "cli_check", "pred": second, "w": w, "c": c, "route": "closed",
                        "argv": _check_argv(second, w, c, json_out=(i == 2))})
        else:
            out.append({"op": "verdict", "pred": second, "w": w, "c": c, "route": "closed"})
        if slot == "lcm_m":
            out.append({"op": "verdict", "pred": third, "w": w, "c": c, "route": "closed"})
    w, c = _closed_minimality_pair(rng)
    out.append({"op": "verdict", "pred": "mc", "w": w, "c": c, "route": "closed"})
    out.append({"op": "verdict", "pred": "mac", "w": w, "c": c, "route": "closed"})
    return out


# ---------------------------------------------------------------------------
# sets with no closed form


def _nonprime_set(rng, centre: int, reflect: bool):
    """The nonprimes with an edit, a shift or a reflection; centre is the
    region the query looks at, so edits land where they show."""
    s = ("nonprimes",)
    if rng.random() < 0.4:
        s = ("translate", s, rng.randint(-9, 9))
    if reflect:
        s = ("neg", s)
    if rng.random() < 0.5:
        near = {centre + rng.randint(-50, 50) for _ in range(2)}
        near.add(rng.randint(-20, 20))
        edit = tuple(sorted(near))
        s = ("minus", s, edit) if rng.random() < 0.5 else ("union", s, ("finite", edit))
    return s


def _nonprimes_at(rng, width: int, far: bool):
    """(nonprime W, window): near 0, or log-uniformly 1e11..1e12 out on the
    side where the (possibly reflected) set has its primes."""
    reflect = rng.random() < 0.25
    centre = int(10 ** rng.uniform(11, 12)) if far else rng.randint(-100, 100)
    if far and reflect:
        centre = -centre
    return _nonprime_set(rng, centre, reflect), _window(rng, centre, width)


_SPARSE_AND_DENSE = ("lemma44", "lemma44_ray", "blocks10", "blocks10c", "generic")


def _family_near(rng, width: int, kinds=_SPARSE_AND_DENSE):
    """A block family (possibly translated) and a window near 0.  The dense
    kinds keep a set member near the top of every wide window, which is
    what the mask decode's cost follows."""
    kind = rng.choice(kinds)
    if kind == "lemma44":
        s = ("lemma44",)
    elif kind == "lemma44_ray":
        s = ("union", ("below", 4), ("lemma44",))
    elif kind == "generic":
        s = _generic(rng)
    else:
        s = (kind,)
    if rng.random() < 0.3:
        s = ("translate", s, rng.randint(-30, 30))
    return s, _window(rng, rng.randint(0, 100), width)


def _generic(rng):
    return ("generic", rng.randint(1, 4), rng.randint(0, 3), rng.randint(1, 6),
            rng.randint(1, 4), rng.randint(-50, 50))


def _family_mid(rng, width: int):
    """A dense block family 1e4..1e6 out, where blocks and gaps are a few
    hundred to a few thousand long, so a window always holds both."""
    kind = rng.choice(("blocks10", "blocks10c", "generic"))
    s = _generic(rng) if kind == "generic" else (kind,)
    return s, _window(rng, int(10 ** rng.uniform(4, 6)), width)


def _window(rng, centre: int, width: int) -> list[int]:
    lo = centre - width // 2 + rng.randint(-20, 20)
    return [lo, lo + width - 1]


def _finite_c(rng):
    return _small_finite(rng, -12, 12, 3)


def _union_with_closed_part(rng):
    """A family plus an arithmetic ray it cannot absorb, against a C with
    only a right tail: the program sums the family part by radius-bounded
    enumeration and the ray part by the exact kernel.  The radius exceeds
    the family's largest gap on the window, so every covered interior point
    has a representation with c inside the radius."""
    mod = rng.randint(3, 7)
    w = ("union", ("blocks10",), ("ap", rng.randrange(mod), mod, "above", rng.randint(40, 120)))
    cm = rng.randint(2, 5)
    c = ("ap", rng.randrange(cm), cm, "above", rng.randint(-3, 3))
    lo = rng.randint(-100, 100)
    win = [lo, lo + 2999]
    gap = 10 * (int(((abs(lo) + 3000) / 10) ** 0.5) + 2) + 10
    return w, c, win, gap + 4 * cm


def windowed_round(rng: random.Random) -> list[dict]:
    """Fifteen queries, each slot with a fixed set kind and size: wide
    sumsets on both sides of the Miller-Rabin cost (nonprimes 1e11..1e12
    out at 1e4 points, families near 0 at 3e4 and 1e5 points), window-grade
    verdicts, the gap classifier, CLI sumset/eval/gaps/check, and one union
    whose closed-form part reaches the exact kernel."""
    out: list[dict] = []
    w, win = _nonprimes_at(rng, 10_000, far=True)
    out.append({"op": "ws_uncovered", "w": w, "c": _finite_c(rng), "win": win})
    w, win = _family_near(rng, 30_000)
    out.append({"op": "ws_runs", "w": w, "c": _finite_c(rng), "win": win})
    w, win = _family_near(rng, 100_000, ("blocks10", "blocks10c"))
    out.append({"op": "ws_uncovered", "w": w, "c": _finite_c(rng), "win": win})
    w, win = _nonprimes_at(rng, 3000, far=False)
    out.append({"op": "verdict", "pred": "complement", "w": w, "c": _finite_c(rng), "win": win, "route": "window"})
    w, win = _nonprimes_at(rng, 2000, far=False)
    out.append({"op": "verdict", "pred": "aes", "w": w, "c": _finite_c(rng), "win": win, "route": "window"})
    w, win = _family_near(rng, 2000)
    out.append({"op": "verdict", "pred": "aes", "w": w, "c": _finite_c(rng), "win": win, "route": "window"})
    w, win = _family_near(rng, 3000)
    out.append({"op": "verdict", "pred": "complement", "w": w, "c": _finite_c(rng), "win": win, "route": "window"})
    w, win = _family_near(rng, 2000)
    out.append({"op": "verdict", "pred": "ac", "w": w, "c": _finite_c(rng), "win": win, "route": "window"})
    w, _ = _nonprimes_at(rng, 1, far=False)
    out.append({"op": "gaps", "w": w, "horizon": 5000})
    w, _ = _family_near(rng, 1)
    out.append({"op": "gaps", "w": w, "horizon": 5000})
    w, win = _nonprimes_at(rng, 2000, far=True)
    c = _finite_c(rng)
    out.append({"op": "cli_sumset", "w": w, "c": c, "win": win,
                "argv": ["sumset", "--w", dsl(w), "--c", dsl(c), f"--window={win[0]}:{win[1]}"]})
    w, win = _family_mid(rng, 5000)
    out.append({"op": "cli_eval", "w": w, "win": win,
                "argv": ["eval", "--set", dsl(w), f"--window={win[0]}:{win[1]}"]})
    w, _ = _family_near(rng, 1)
    out.append({"op": "cli_gaps", "w": w, "horizon": 5000,
                "argv": ["gaps", "--set", dsl(w), "--horizon=5000"]})
    w, win = _family_mid(rng, 2000)
    c = _finite_c(rng)
    out.append({"op": "cli_check", "pred": "complement", "w": w, "c": c, "win": win, "route": "window",
                "argv": _check_argv("complement", w, c, win, json_out=rng.random() < 0.5)})
    w, c, win, radius = _union_with_closed_part(rng)
    out.append({"op": "ws_uncovered", "w": w, "c": c, "win": win, "radius": radius})
    return out


# ---------------------------------------------------------------------------
# minimality


def _greedy_instance(rng, size: int):
    """A four-element W and the first `size` elements of a complement that
    the reference builds greedily (not the program), on a window reaching
    past their span by up to an eighth of it: removals at the ends of C
    cost coverage, and how far the window reaches decides whether that
    loss counts as enclosed."""
    w = _small_finite(rng, -12, 12, 4)
    width = 2 * size
    while True:
        lo = -width // 2
        c, _ = ref.greedy_cover(w, lo, lo + width - 1)
        if len(c) >= size:
            c = c[:size]
            pad = rng.randint(0, (c[-1] - c[0]) // 8)
            return w, ("finite", tuple(c)), [c[0] - pad, c[-1] + pad]
        width = int(width * 1.3) + 4


def _fim_set(rng):
    """A union of residue classes mod n that holds nZ and misses a class."""
    n = rng.randint(4, 6)
    res = sorted({0} | set(rng.sample(range(1, n), rng.randint(1, n - 2))))
    s = rng.randint(-5, 5)
    parts = []
    for r in res:
        parts += [("ap", r, n, "below", s), ("ap", r, n, "above", s - 1)]
    return _union(*parts), n


def minimality_round(rng: random.Random) -> list[dict]:
    """Fifteen queries: redundant_elements on greedy C of exactly 40, 100,
    200 and 400 elements; minimality against the nonprimes and (through
    `cli check`) against closed-form W; subset search; the finite-index descent, subgroup
    representatives, cofinite pairs, interval and congruent-pair shrinks,
    finite removals and the greedy cover."""
    out: list[dict] = []
    for size in (40, 100, 200, 400):
        w, c, win = _greedy_instance(rng, size)
        out.append({"op": "redundant", "w": w, "c": c, "win": win})
    c = _small_finite(rng, -3, 3, 3)
    win = [-rng.randint(250, 350), rng.randint(250, 350)]
    out.append({"op": "verdict", "pred": "mc", "w": ("nonprimes",), "c": c, "win": win, "route": "window"})
    out.append({"op": "verdict", "pred": "mac", "w": ("nonprimes",), "c": c, "win": win, "route": "nonprime"})
    w, c = _closed_minimality_pair(rng)
    pred = rng.choice(("mc", "mac"))
    out.append({"op": "cli_check", "pred": pred, "w": w, "c": c, "route": "closed",
                "argv": _check_argv(pred, w, c)})
    w, c = _cofinite(rng, 6, 2), _small_finite(rng, -10, 10, 7)
    if rng.random() < 0.5:
        out.append({"op": "subsets", "w": w, "c": c})
    else:
        out.append({"op": "cli_search", "w": w, "c": c, "argv": ["search", "--w", dsl(w), "--c", dsl(c)]})
    w, n = _fim_set(rng)
    out.append({"op": "cli_fim", "w": w, "n": n, "argv": ["construct", "fim", "--w", dsl(w), f"--n={n}"]})
    n = rng.randint(3, 12)
    m = rng.choice([k for k in range(2, 14) if gcd(k, n) == 1])
    c = _union(_small_finite(rng, -20, 20, 3), ("ap", rng.randrange(m), m, "above", rng.randint(-20, 20)))
    out.append({"op": "cli_masc", "c": c, "n": n, "argv": ["construct", "masc", f"--n={n}", "--c", dsl(c)]})
    w = _cofinite(rng, 15, 4)
    out.append({"op": "cli_thmA2", "w": w, "argv": ["construct", "thmA2", "--w", dsl(w)]})
    fam = rng.choice((("lemma44",), ("union", ("below", 4), ("lemma44",)), ("blocks10",)))
    a = rng.randint(-20, 10)
    b = a + rng.randint(1, 4)
    cc = b + rng.randint(1, 5)
    c = ("finite", tuple(sorted({a, b, cc} | set(rng.sample(range(-30, 30), 2)))))
    out.append({"op": "cli_interval", "w": fam, "c": c, "triple": [a, b, cc],
                "argv": ["shrink", "--method", "interval", "--w", dsl(fam), "--c", dsl(c),
                         f"--triple={a},{b},{cc}"]})
    mod = rng.randint(2, 6)
    f0 = rng.randint(-5, 5)
    w = _union(_small_finite(rng, f0 - 10, f0, 2), ("ap", rng.randrange(mod), mod, "above", f0))
    a = rng.randint(-10, 10)
    b = a + mod * rng.randint(1, 3)
    c = ("finite", tuple(sorted({a, b} | set(rng.sample(range(-15, 15), 2)))))
    out.append({"op": "cli_ep", "w": w, "c": c, "pair": [a, b],
                "argv": ["shrink", "--method", "ep", "--w", dsl(w), "--c", dsl(c), f"--pair={a},{b}"]})
    w = _small_finite(rng, -8, 8, 3)
    k = rng.randint(-40, -10)
    c = _union(("below", k), _small_finite(rng, k + 1, 30, 3))
    out.append({"op": "thmA1", "w": w, "c": c, "f": sorted(rng.sample(range(k - 30, k), 2))})
    w = _small_finite(rng, -8, 8, 4)
    lo = rng.randint(-100, 0)
    out.append({"op": "cli_greedy", "w": w, "target": [lo, lo + 299],
                "argv": ["construct", "greedy", "--w", dsl(w), f"--target={lo}:{lo + 299}"]})
    return out


_ROUNDS = {
    "closed_form": closed_form_round,
    "windowed": windowed_round,
    "minimality": minimality_round,
}


def round_queries(workload: str, seed: int, index: int) -> list[dict]:
    """Round `index` of a workload's stream for a seed."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    queries = _ROUNDS[workload](rng)
    for q in queries:
        if "argv" not in q:
            for key in ("w", "c"):
                if key in q:
                    q[key + "_dsl"] = dsl(q[key])
    return queries
