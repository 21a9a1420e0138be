"""Answer checks: each query's answer against the independent reference.

check(query, answer) returns a list of problems, empty when the answer
agrees.  Answers arrive as plain data (see worker.py): verdicts as dicts
with status/exact/witnesses/evidence/removals, masks as (bits, margin, ...)
and CLI runs as (exit code, stdout).  Nothing here imports addcomp.
"""
from __future__ import annotations

import json
from functools import lru_cache

import numpy as np

import reference as ref

EXIT = {"true": 0, "false": 1, "unknown": 2}


def _key(spec) -> str:
    return json.dumps(spec)


@lru_cache(maxsize=256)
def _closed(w_key: str, c_key: str) -> ref.ClosedPair:
    return ref.ClosedPair(json.loads(w_key), json.loads(c_key))


def closed(w, c) -> ref.ClosedPair:
    return _closed(_key(w), _key(c))


def _minus(c, x):
    return ("finite", tuple(t for t in ref.finite_elements(c) if t != x))


# ---------------------------------------------------------------------------
# parsing program output


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t != ""] if text else []


def field_table(stdout: str) -> dict[str, str]:
    """The field/value TSV most subcommands print."""
    lines = stdout.rstrip("\n").split("\n")
    if not lines or lines[0] != "field\tvalue":
        raise ValueError(f"unexpected header {lines[:1]}")
    out = {}
    for line in lines[1:]:
        k, _, v = line.partition("\t")
        out.setdefault(k, v)
    return out


def verdict_from_cli(stdout: str) -> dict:
    """A check verdict from TSV or --json output."""
    if stdout.lstrip().startswith("{"):
        d = json.loads(stdout)
        return {
            "status": d["status"],
            "exact": d["exact"],
            "witnesses": list(d["witnesses"]),
            "evidence": None if d["evidence"] is None else list(d["evidence"]),
            "removals": [(x, list(w)) for x, w in d["removals"]],
        }
    t = field_table(stdout)
    removals = []
    if t["removals"]:
        for item in t["removals"].split(";"):
            x, _, w = item.partition(":")
            removals.append((int(x), _ints(w)))
    return {
        "status": t["status"],
        "exact": t["exact"] == "yes",
        "witnesses": _ints(t["witnesses"]),
        "evidence": _ints(t["evidence"]),
        "removals": removals,
    }


# ---------------------------------------------------------------------------
# verdicts


def _closed_verdict(pred: str, w, c, v: dict) -> list[str]:
    pair = closed(w, c)
    bad: list[str] = []
    wits = list(v["witnesses"])
    first8 = ref.order_by_abs(pair.gaps)[:8]
    if pred in ("complement", "ac", "aes"):
        holds = pair.complement if pred == "complement" else pair.asymptotic
        want = "true" if holds else "false"
        if v["status"] != want or not v["exact"]:
            return [f"{pred}: got {v['status']} exact={v['exact']}, reference {want}"]
        if want == "false" and wits != first8:
            bad.append(f"{pred}: witnesses {wits}, reference gaps {first8}")
        if pred == "aes" and want == "true" and sorted(v["evidence"] or []) != pair.gaps:
            bad.append(f"aes: evidence {v['evidence']}, reference gaps {pair.gaps[:12]}")
        return bad
    # minimality over a finite C: every removal decided exactly
    comp = pred == "mc"
    holds = pair.complement if comp else pair.asymptotic
    if not holds:
        if v["status"] != "false" or wits != first8:
            bad.append(f"{pred}: base fails, got {v['status']} witnesses {wits}")
        return bad
    removals = []
    for x in ref.finite_elements(c):
        sub = closed(w, _minus(c, x))
        if (sub.complement if comp else sub.asymptotic):
            if v["status"] != "false" or wits != [x]:
                bad.append(f"{pred}: removing {x} keeps it, got {v['status']} witnesses {wits}")
            return bad
        removals.append((x, ref.order_by_abs(sub.gaps)[:4]))
    if v["status"] != "true" or not v["exact"]:
        return [f"{pred}: reference minimal, got {v['status']} exact={v['exact']}"]
    got = [(x, list(ws)) for x, ws in v["removals"]]
    if got != removals:
        bad.append(f"{pred}: removals {got[:3]}, reference {removals[:3]}")
    if not comp and sorted(v["evidence"] or []) != pair.gaps:
        bad.append(f"mac: evidence {v['evidence']}, reference gaps {pair.gaps[:12]}")
    return bad


def _window_gaps(w, cs, win) -> list[int]:
    lo, hi = win
    cov = ref.cover_finite(w, cs, lo, hi)
    return (np.flatnonzero(~cov) + lo).tolist()


def _is_gap(w, cs, t: int) -> bool:
    return not bool(ref.cover_finite(w, cs, t, t)[0])


def _window_verdict(pred: str, w, c, win, v: dict) -> list[str]:
    """Window-grade checks for a W with no closed form and a finite C."""
    cs = ref.finite_elements(c)
    gaps = _window_gaps(w, cs, win)
    wits = list(v["witnesses"])
    st = v["status"]
    if pred == "complement":
        if st == "true":
            return [f"complement: true but reference gaps {gaps[:6]}"] if gaps else []
        if st == "false" and wits == ref.order_by_abs(gaps)[:8]:
            return []
        return [f"complement: got {st} witnesses {wits}, reference gaps {ref.order_by_abs(gaps)[:8]}"]
    if pred in ("aes", "ac"):
        if st == "true" and v["exact"]:
            if pred == "ac":
                return []  # finitely many gaps, none named: nothing to check
            ev = sorted(t for t in (v["evidence"] or []) if win[0] <= t <= win[1])
            return [] if ev == gaps else [f"aes: evidence {ev[:8]} on the window, reference gaps {gaps[:8]}"]
        if st == "true":
            return [f"{pred}: window-grade true but reference gaps {gaps[:6]}"] if gaps else []
        if not wits and st == "false":
            return [f"{pred}: false without witnesses"]
        stray = [t for t in wits if not _is_gap(w, cs, t)]
        return [f"{pred}: witnesses {stray} are covered"] if stray else []
    if pred == "mc":
        if gaps:
            ok = st == "false" and wits == ref.order_by_abs(gaps)[:8]
            return [] if ok else [f"mc: base has gaps {gaps[:4]}, got {st} {wits}"]
        removals = []
        for x in cs:
            sub = _window_gaps(w, [t for t in cs if t != x], win)
            if not sub:
                ok = st == "false" and wits == [x]
                return [] if ok else [f"mc: removing {x} keeps coverage, got {st} {wits}"]
            removals.append((x, ref.order_by_abs(sub)[:4]))
        got = [(x, list(ws)) for x, ws in v["removals"]]
        if st != "true" or got != removals:
            return [f"mc: got {st} removals {got[:3]}, reference {removals[:3]}"]
        return []
    raise ValueError(pred)


def _nonprime_mac(w, c, win, v: dict) -> list[str]:
    """mac for the nonprimes and a finite C: evidence against the window's
    gaps, each removal witness uncovered after its removal and covered
    before it unless it was already in the exceptional set."""
    cs = ref.finite_elements(c)
    st = v["status"]
    bad = []
    if st == "true":
        gaps = _window_gaps(w, cs, win)
        ev = sorted(v["evidence"] or [])
        if [t for t in ev if win[0] <= t <= win[1]] != gaps:
            bad.append(f"mac: evidence {ev[:8]}, reference gaps {gaps[:8]}")
        for x, ws in v["removals"]:
            rest = [t for t in cs if t != x]
            for t in ws:
                if not _is_gap(w, rest, t) or (_is_gap(w, cs, t) and t not in ev):
                    bad.append(f"mac: removal {x} witness {t} disagrees")
    elif st == "false" and len(v["witnesses"]) == 1 and v["witnesses"][0] in cs:
        pass
    elif st == "false":
        stray = [t for t in v["witnesses"] if not _is_gap(w, cs, t)]
        if stray or not v["witnesses"]:
            bad.append(f"mac: false with covered witnesses {stray}")
    return bad


def verdict(q: dict, v: dict) -> list[str]:
    pred, route = q["pred"], q["route"]
    if route == "closed":
        return _closed_verdict(pred, q["w"], q["c"], v)
    if route == "nonprime":
        return _nonprime_mac(q["w"], q["c"], q["win"], v)
    return _window_verdict(pred, q["w"], q["c"], q["win"], v)


# ---------------------------------------------------------------------------
# masks and reports


def _exact_cover(q: dict, lo: int, hi: int) -> np.ndarray:
    cs = ref.finite_elements(q["c"])
    if cs is None:
        # W and C are both bounded below (W >= 10), so only c <= hi - 10 can
        # reach the window: the cut is exact, not a truncation
        cs = (np.flatnonzero(ref.members(q["c"], -100, hi)) - 100).tolist()
    return ref.cover_finite(q["w"], cs, lo, hi)


def mask(q: dict, ans) -> list[str]:
    bits, margin, result = ans
    lo, hi = q["win"]
    width = hi - lo + 1
    want = _exact_cover(q, lo, hi)
    got = ref.bits_to_mask(bits, width)
    if "radius" not in q and margin != 0:
        return [f"finite C but margin {margin}"]
    a, b = margin, width - margin
    if a >= b:
        return ["empty trusted interior"]
    diff = np.flatnonzero(got[a:b] != want[a:b])
    if diff.size:
        return [f"mask differs at {(diff[:4] + lo + a).tolist()}"]
    if q["op"] == "ws_runs":
        if result != ref.runs(want, lo):
            return ["runs differ from the reference"]
        return []
    gaps = (np.flatnonzero(~want[a:b]) + lo + a).tolist()
    return [] if result == gaps else [f"uncovered_interior {result[:4]} vs {gaps[:4]}"]


def _gap_counts(w, horizon: int) -> dict:
    inside = ref.members(w, 1, horizon)
    mem = np.flatnonzero(inside) + 1
    miss = np.flatnonzero(~inside) + 1
    wg, mg = np.diff(mem), np.diff(miss)
    return {
        "memberCount": int(mem.size),
        "wMax": int(wg.max()) if wg.size else None,
        "wLast": int(wg[-1]) if wg.size else None,
        "wCount": int(wg.size),
        "mMax": int(mg.max()) if mg.size else None,
        "mCount": int(mg.size),
    }


def gaps_report(q: dict, report: dict) -> list[str]:
    want = _gap_counts(q["w"], q["horizon"])
    got = {
        "memberCount": report["memberCount"],
        "wMax": report["wGaps"]["max"],
        "wLast": report["wGaps"]["last"],
        "wCount": report["wGaps"]["count"],
        "mMax": report["complementGaps"]["max"],
        "mCount": report["complementGaps"]["count"],
    }
    return [] if got == want else [f"gap report {got} vs {want}"]


def redundant(q: dict, got) -> list[str]:
    w, (lo, hi) = q["w"], q["win"]
    cs = ref.finite_elements(q["c"])
    counts = ref.rep_counts(w, cs, lo, hi)
    slack = max(8, (hi - lo + 1) // 20)
    want = []
    inside = [x for x in cs if lo <= x <= hi]
    if len(cs) > 1:
        for x in inside:
            lost = (counts == 1) & ref.members(w, lo - x, hi - x)
            growth = (np.flatnonzero(lost) + lo).tolist()
            if all(lo + slack <= t <= hi - slack for t in growth):
                want.append((x, tuple(growth)))
    got = [(x, tuple(g)) for x, g in got]
    if got != want:
        return [f"redundant: {len(got)} elements, reference {len(want)}"]
    return []


def _holding_subsets(w, cs) -> tuple[list[tuple], list[tuple]]:
    """Inclusion-minimal subsets of cs that are complements / asymptotic
    complements of a closed-form W, by exhaustive enumeration."""
    span = ref.reach(w) + max(abs(t) for t in cs)
    left, right = ref.tail_periods(w)
    inner_lo, inner_hi = -(2 * span + 2 * left + 16), 2 * span + 2 * right + 16
    lo, hi = inner_lo - left - 1, inner_hi + right + 1
    shifted = [ref.members(w, lo - c, hi - c) for c in cs]
    t = np.arange(lo, hi + 1)
    outer = (t < inner_lo) | (t > inner_hi)
    n = len(cs)
    comp = [False] * (1 << n)
    asym = [False] * (1 << n)
    cov = [np.zeros(hi - lo + 1, dtype=bool)]
    for m in range(1, 1 << n):
        low = (m & -m).bit_length() - 1
        cov.append(cov[m & (m - 1)] | shifted[low])
        comp[m] = bool(cov[m].all())
        asym[m] = not bool((~cov[m] & outer).any())

    def minimal(holds):
        out = []
        for m in range(1, 1 << n):
            if holds[m] and not any(holds[m & ~(1 << i)] for i in range(n) if m >> i & 1):
                out.append(tuple(cs[i] for i in range(n) if m >> i & 1))
        return sorted(out)

    return minimal(comp), minimal(asym)


def subsets(q: dict, got) -> list[str]:
    want = _holding_subsets(q["w"], ref.finite_elements(q["c"]))
    got = (sorted(tuple(s) for s in got[0]), sorted(tuple(s) for s in got[1]))
    return [] if got == want else [f"minimal subsets {got} vs {want}"]


def _loss_inside(w, c, removed: int, lo: int, hi: int) -> list[str]:
    cs = ref.finite_elements(c)
    pad = max(256, 4 * (hi - lo))
    a, b = lo - pad, hi + pad
    lost = ref.cover_finite(w, cs, a, b) & ~ref.cover_finite(w, [t for t in cs if t != removed], a, b)
    pts = np.flatnonzero(lost) + a
    out = pts[(pts < lo) | (pts > hi)]
    return [f"loss {out[:4].tolist()} outside [{lo}, {hi}]"] if out.size else []


def thmA1(q: dict, v: dict) -> list[str]:
    pair = closed(q["w"], ("minus", q["c"], tuple(q["f"])))
    want = "true" if pair.asymptotic else "false"
    if v["status"] != want or not v["exact"]:
        return [f"thmA1: got {v['status']}, reference {want}"]
    if want == "false" and list(v["witnesses"]) != ref.order_by_abs(pair.gaps)[:8]:
        return [f"thmA1: witnesses {v['witnesses']}"]
    return []


# ---------------------------------------------------------------------------
# CLI runs


def _minimal_finite(w, elems, comp: bool) -> bool:
    if not elems:
        return False
    pair = closed(w, ("finite", tuple(elems)))
    if not (pair.complement if comp else pair.asymptotic):
        return False
    for x in elems:
        rest = tuple(t for t in elems if t != x)
        if rest:
            sub = closed(w, ("finite", rest))
            if sub.complement if comp else sub.asymptotic:
                return False
    return True


def _masc_reps(c, n: int) -> list[int]:
    bound = 256
    while True:
        inside = ref.members(c, -bound, bound)
        reps: dict[int, int] = {}
        for m in range(bound + 1):
            for t in ((m, -m) if m else (0,)):
                if inside[t + bound]:
                    reps.setdefault(t % n, t)
            if len(reps) == n:
                return sorted(reps.values())
        bound *= 4


def _thmA2_x(excluded) -> int:
    ex = set(excluded)
    diffs = {a - b for a in ex for b in ex}
    x = 1
    while x in ex or x in diffs:
        x += 1
    return x


def cli(q: dict, code: int, stdout: str) -> list[str]:
    op = q["op"]
    if op == "cli_check":
        v = verdict_from_cli(stdout)
        bad = verdict(q, v)
        if code != EXIT[v["status"]]:
            bad.append(f"exit code {code} for status {v['status']}")
        return bad
    if code != 0:
        return [f"exit code {code}"]
    if op == "cli_sumset":
        lo, hi = q["win"]
        rows = np.array([line.split("\t") for line in stdout.rstrip("\n").split("\n")[1:]], dtype=np.int64)
        if rows.shape != (hi - lo + 1, 3) or not (rows[:, 0] == np.arange(lo, hi + 1)).all():
            return ["sumset rows do not span the window"]
        want = ref.cover_finite(q["w"], ref.finite_elements(q["c"]), lo, hi)
        if not rows[:, 2].all() or not (rows[:, 1].astype(bool) == want).all():
            return ["sumset TSV differs from the reference"]
        return []
    if op == "cli_eval":
        lo, hi = q["win"]
        got = [int(t) for t in stdout.rstrip("\n").split("\n")[1:]]
        want = (np.flatnonzero(ref.members(q["w"], lo, hi)) + lo).tolist()
        return [] if got == want else [f"eval {got[:4]} vs {want[:4]}"]
    if op == "cli_search":
        comp, asym = [], []
        for line in stdout.rstrip("\n").split("\n")[1:]:
            _, kind, _, wit, _ = line.split("\t")
            (comp if kind == "complement" else asym).append(tuple(_ints(wit)))
        return subsets(q, (comp, asym))
    t = field_table(stdout)
    if op == "cli_gaps":
        want = _gap_counts(q["w"], q["horizon"])
        got = {
            "memberCount": int(t["memberCount"]),
            "wMax": None if t["wGapMax"] == "None" else int(t["wGapMax"]),
            "mMax": None if t["complementGapMax"] == "None" else int(t["complementGapMax"]),
        }
        ok = got == {k: want[k] for k in got}
        return [] if ok else [f"gaps {got} vs {want}"]
    if op == "cli_fim":
        bad = []
        for name, comp in (("complement", True), ("asymptotic", False)):
            elems = _ints(t[name])
            if any(not 0 <= e < q["n"] for e in elems) or not _minimal_finite(q["w"], elems, comp):
                bad.append(f"fim {name} {elems} is not minimal")
        return bad
    if op == "cli_masc":
        want = _masc_reps(q["c"], q["n"])
        got = _ints(t["elements"])
        if got != want or t["status"] != "true":
            return [f"masc {got} {t['status']} vs {want}"]
        return []
    if op == "cli_thmA2":
        x = _thmA2_x(q["w"][1])
        got = _ints(t["elements"])
        if got != [0, x] or t["status"] != "true" or not _minimal_finite(q["w"], got, True):
            return [f"thmA2 {got} {t['status']} vs [0, {x}]"]
        return []
    if op in ("cli_interval", "cli_ep"):
        removed = q["triple"][1] if op == "cli_interval" else q["pair"][1]
        if int(t["removed"]) != removed:
            return [f"removed {t['removed']}, expected {removed}"]
        rest = [e for e in ref.finite_elements(q["c"]) if e != removed]
        if t["shrunk"] != "finite{" + ",".join(map(str, rest)) + "}":
            return [f"shrunk {t['shrunk']}"]
        return _loss_inside(q["w"], q["c"], removed, int(t["lossLo"]), int(t["lossHi"]))
    if op == "cli_greedy":
        c, skipped = ref.greedy_cover(q["w"], *q["target"])
        got = (_ints(t["elements"]), _ints(t["skipped"]))
        return [] if got == (c, skipped) else [f"greedy {got[0][:6]} vs {c[:6]}"]
    raise ValueError(op)


def check(q: dict, answer) -> list[str]:
    op = q["op"]
    if op == "verdict":
        return verdict(q, answer)
    if op in ("ws_uncovered", "ws_runs"):
        return mask(q, answer)
    if op == "gaps":
        return gaps_report(q, answer)
    if op == "redundant":
        return redundant(q, answer)
    if op == "subsets":
        return subsets(q, answer)
    if op == "thmA1":
        return thmA1(q, answer)
    return cli(q, *answer)
