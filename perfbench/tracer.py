"""Tracing from outside the program, for the traced pass only.

install() wraps each layer's public functions and the CoverageMask decode
methods, and rebinds every wrapper in every addcomp module namespace (and
module-level dict, such as the CLI's predicate table) that held the
original, so nested calls are seen too.  No file under src/ changes.

Each wrapped call is a span (id, name, start, end, parent span, query id,
size) kept in memory; write() saves them when the run ends.  Self time is a
span's duration minus the time of its child spans.  CoverageMask.covered is
called once per window point, so it is timed as a leaf (count and time,
charged to the enclosing span as child time) rather than given spans.
"""
from __future__ import annotations

import gzip
import json
import math
import sys
from time import perf_counter

LAYERS = {
    "intset": (
        "normalize", "make_bep", "enumerate_window", "minus", "union", "translate",
        "negate", "classify", "smallest_abs_elements", "contains", "min_element_ge",
        "max_element_le",
    ),
    "sumset": ("bep_sumset", "windowed_sumset", "window_bits", "complement_set"),
    "predicates": (
        "is_complement", "is_asymptotic_complement", "asymptotic_exceptional_set",
        "is_minimal_complement", "is_minimal_asymptotic_complement", "removal_growth",
        "redundant_elements",
    ),
    "constructions": (
        "thmA2_pair", "thmA1_shrink", "subgroup_masc", "finite_index_minimals",
        "ep_shrink", "interval_shrink",
    ),
    "search": ("greedy_asymptotic_complement", "minimal_subset_search", "cy_gap_classifier"),
    "cli": ("main", "parse_set", "to_dsl", "descriptor_json"),
}
DECODE = ("uncovered", "uncovered_interior", "runs", "to_json")
VERDICTS = LAYERS["predicates"][:5]
CACHES = {
    "intset.is_prime": ("intset", "is_prime"),
    "sumset.bep_cache": ("sumset", "_bep_sum_cached"),
    "intset.cached_expr": ("intset", "_cached_expr"),
}


def _arg(args, kwargs, i: int, name: str, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.qid = -1
        self.next_id = 0
        self.leaf = [0, 0.0]
        self.verdicts = [0, 0]
        self.caches0: dict[str, tuple[int, int]] = {}

    # -- wrappers

    def _span(self, name: str, fn, size_of=None, post=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            size = size_of(args, kwargs) if size_of else 0
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                if ok and post is not None:
                    size = post(result, size)
                spans.append((sid, name, t0, t1, parent, self.qid, size, t1 - t0 - frame[1]))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, fn):
        stack, acc = self.stack, self.leaf

        def wrapper(*args):
            t0 = perf_counter()
            result = fn(*args)
            dt = perf_counter() - t0
            if stack:
                stack[-1][1] += dt
            acc[0] += 1
            acc[1] += dt
            return result

        return wrapper

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "addcomp" or n.startswith("addcomp."))]
        sumset = sys.modules["addcomp.sumset"]
        intset = sys.modules["addcomp.intset"]
        preds = sys.modules["addcomp.predicates"]
        bep_cache = sumset._bep_sum_cached

        def tail_lcm(args, kwargs):
            # the band the kernel convolves is as wide as the lcm of the two
            # operands' tail periods on one side
            widest = 1
            for side in ("left", "right"):
                lcm = 1
                for s in args[:2]:
                    tail = getattr(s, side, None)
                    if tail is not None and tail.kind == "periodic":
                        lcm = math.lcm(lcm, tail.period)
                widest = max(widest, lcm)
            return (widest, bep_cache.cache_info().misses)

        def bep_post(result, size):
            lcm, misses = size
            return (lcm, bep_cache.cache_info().misses > misses)

        def window_width(i, name):
            return lambda args, kwargs: len(_arg(args, kwargs, i, name))

        def enum_width(args, kwargs):
            s = _arg(args, kwargs, 0, "s")
            return 0 if isinstance(s, intset.FiniteSet) else len(_arg(args, kwargs, 1, "window"))

        def redundant_size(args, kwargs):
            c = _arg(args, kwargs, 1, "c")
            win = _arg(args, kwargs, 2, "window") or preds.DEFAULT_WINDOW
            n = len(c.elements) if isinstance(c, intset.FiniteSet) else 0
            return n * len(win)

        def verdict_post(result, size):
            self.verdicts[0] += 1
            self.verdicts[1] += bool(result.exact)
            return size

        special = {
            "sumset.bep_sumset": (tail_lcm, bep_post),
            "sumset.windowed_sumset": (window_width(2, "window"), None),
            "sumset.window_bits": (window_width(1, "window"), None),
            "intset.enumerate_window": (enum_width, None),
            "predicates.redundant_elements": (redundant_size, None),
        }
        for layer, names in LAYERS.items():
            home = sys.modules[f"addcomp.{layer}"]
            for fname in names:
                key = f"{layer}.{fname}"
                orig = getattr(home, fname)
                size_of, post = special.get(key, (None, None))
                if fname in VERDICTS:
                    post = verdict_post
                wrapped = self._span(key, orig, size_of, post)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
                        elif isinstance(val, dict) and not attr.startswith("__"):
                            for k, v in list(val.items()):
                                if v is orig:
                                    val[k] = wrapped
        mask = sumset.CoverageMask
        for meth in DECODE:
            setattr(mask, meth, self._span(
                f"sumset.CoverageMask.{meth}", getattr(mask, meth),
                lambda args, kwargs: len(args[0].window)))
        mask.covered = self._leaf(mask.covered)
        self.caches0 = self._caches()

    def _caches(self) -> dict[str, tuple[int, int]]:
        out = {}
        for key, (layer, attr) in CACHES.items():
            info = getattr(sys.modules[f"addcomp.{layer}"], attr).cache_info()
            out[key] = (info.hits, info.misses)
        return out

    # -- results

    def write(self, path) -> None:
        with gzip.open(path, "wt") as f:
            for sid, name, t0, t1, parent, qid, size, _ in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                    "parent": parent, "query": qid, "size": size}) + "\n")

    def metrics(self, queries: int) -> dict[str, float]:
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for _, name, _, _, _, _, _, st in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + st
        out: dict[str, float] = {}
        for layer, names in LAYERS.items():
            for fname in names:
                key = f"{layer}.{fname}"
                out[f"{key}.self_s"] = self_s.get(key, 0.0)
                out[f"{key}.calls"] = calls.get(key, 0)
        decode = [f"sumset.CoverageMask.{m}" for m in DECODE]
        out["sumset.CoverageMask.decode_self_s"] = sum(self_s.get(k, 0.0) for k in decode) + self.leaf[1]
        out["sumset.CoverageMask.decode_calls"] = sum(calls.get(k, 0) for k in decode) + self.leaf[0]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        out["sumset.self_s"] += self.leaf[1]

        by_name: dict[str, list] = {}
        names = {}
        for sp in self.spans:
            by_name.setdefault(sp[1], []).append(sp)
            names[sp[0]] = (sp[1], sp[4])
        beps = by_name.get("sumset.bep_sumset", [])
        out["sumset.bep_sumset.tail_lcm_max"] = max((sp[6][0] for sp in beps), default=0)
        windowed = by_name.get("sumset.windowed_sumset", [])
        out["sumset.windowed_sumset.window_points"] = sum(sp[6] for sp in windowed)
        out["intset.enumerate_window.points"] = sum(sp[6] for sp in by_name.get("intset.enumerate_window", []))

        def inside_windowed(sid: int) -> bool:
            while sid != -1:
                name, sid = names.get(sid, ("", -1))
                if name == "sumset.windowed_sumset":
                    return True
            return False

        sumsets = len(windowed) + sum(1 for sp in beps if not inside_windowed(sp[4]))
        out["predicates.sumsets_per_query"] = sumsets / max(1, queries)
        out["predicates.exact_share"] = self.verdicts[1] / self.verdicts[0] if self.verdicts[0] else 0.0

        now = self._caches()
        for key, (h1, m1) in now.items():
            h0, m0 = self.caches0[key]
            hits, misses = h1 - h0, m1 - m0
            out[f"{key}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
            if key == "intset.is_prime":
                out[f"{key}.calls"] = hits + misses
                out[f"{key}.misses"] = misses
        starts = sys.modules["addcomp.intset"]._GENERIC_STARTS
        out["intset.generic_starts.size"] = sum(len(v) for v in starts.values())

        def dur(sp):
            return sp[3] - sp[2]

        out["sumset.bep_sumset.exponent"] = slope(
            [(sp[6][0], dur(sp)) for sp in beps if sp[6][1] and sp[6][0] > 1])
        out["sumset.CoverageMask.decode_exponent"] = slope(
            [(sp[6], dur(sp)) for k in decode for sp in by_name.get(k, [])])
        out["intset.enumerate_window.exponent"] = slope(
            [(sp[6], dur(sp)) for sp in by_name.get("intset.enumerate_window", []) if sp[6] > 1])
        out["predicates.redundant_elements.exponent"] = slope(
            [(sp[6], dur(sp)) for sp in by_name.get("predicates.redundant_elements", [])])
        out["trace.spans"] = len(self.spans)
        return out


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("output_bytes"):
        return "bytes"
    if name.endswith("exponent"):
        return "slope"
    if name.endswith("per_query"):
        return "count/query"
    if name.endswith(("hit_ratio", "_share")):
        return "ratio"
    return "count"


def slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size); 0.0 when the run
    drew fewer than three distinct sizes for this fit."""
    pts = [(math.log(s), math.log(t)) for s, t in points if s > 0 and t > 0]
    if len({x for x, _ in pts}) < 3:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
