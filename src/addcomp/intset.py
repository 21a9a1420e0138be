"""Symbolic descriptors for infinite (and finite) subsets of the integers.

Every set handled by this package is one of six descriptor kinds:

* ``FiniteSet``: explicit sorted elements.
* ``CofiniteSet``: all integers except an explicit finite exclusion list.
* ``BEPSet``: bounded-except-periodic.  A finite explicit core on a window
  ``[core_lo, core_hi]`` plus a left tail pattern governing all
  ``t < core_lo`` and a right tail pattern governing all ``t > core_hi``.
  Each tail is either empty or periodic (a residue set modulo a period).
  This kind subsumes arithmetic progressions, rays, finite unions of
  shifted subgroups, and any set that is eventually periodic in both
  directions.
* ``FamilySet``: a block family.  A rule gives, for each index ``k >= 1``,
  an interval block ``[start(k), start(k)+length(k)-1]`` with block lengths
  and gap lengths strictly increasing.  An optional periodic tail covers
  everything below the first block, and finite add/remove edits, an integer
  shift, and a reflection flag are applied on the outside.
* ``PointwiseSet``: membership by arithmetic predicate.  The only built-in
  predicate is "nonprime" (negatives, 0, 1, and composites), again with
  outside edits, shift, and reflection.
* ``UnionSet``: a union of descriptors that does not fold into one of the
  closed forms above.

All element values are validated against signed 64-bit range; arithmetic
that would leave that range raises the builtin ``OverflowError``.  The empty
set is rejected everywhere with ``EmptySetError``.

``normalize`` produces canonical forms: Finite/Cofinite/BEP descriptors are
unique per set (minimal core window, reduced tail periods, canonical split
point for pure periodic sets), family and pointwise edits are folded so that
adds are genuinely outside and removes genuinely inside the base set, and
unions are folded pairwise wherever a closed form exists.
"""
from __future__ import annotations

import ast
import heapq
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from .errors import (
    BadParamsError,
    EmptySetError,
    OutOfDecidableRangeError,
    TooFewElementsError,
)

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def check_i64(value: int, what: str = "value") -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise BadParamsError(f"{what} must be an int, got {type(value).__name__}")
    if value < INT64_MIN or value > INT64_MAX:
        raise OverflowError(f"{what} {value} outside signed 64-bit range")
    return value


def checked_add(a: int, b: int) -> int:
    r = a + b
    if r < INT64_MIN or r > INT64_MAX:
        raise OverflowError(f"sum {r} outside signed 64-bit range")
    return r


# ---------------------------------------------------------------------------
# windows


@dataclass(frozen=True)
class Window:
    """Closed integer interval [lo, hi], never empty."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        check_i64(self.lo, "window lo")
        check_i64(self.hi, "window hi")
        if self.lo > self.hi:
            raise BadParamsError(f"window [{self.lo}, {self.hi}] is empty")

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def __contains__(self, t: int) -> bool:
        return self.lo <= t <= self.hi

    def __iter__(self):
        return iter(range(self.lo, self.hi + 1))

    def shrink(self, margin: int) -> "Window | None":
        if self.lo + margin > self.hi - margin:
            return None
        return Window(self.lo + margin, self.hi - margin)

    def to_json(self) -> list[int]:
        return [self.lo, self.hi]


# ---------------------------------------------------------------------------
# tail patterns


@dataclass(frozen=True)
class TailSpec:
    """One-sided behaviour of a BEP set beyond its core window.

    ``kind`` is "empty" or "periodic".  A periodic tail holds the residues
    (mod ``period``) that belong to the set on that side.  ``threshold`` is
    the boundary: a left tail applies to ``t < threshold``, a right tail to
    ``t > threshold``.  The all-residues pattern ("full") is represented,
    after reduction, as period 1 with residue set {0}.
    """

    kind: str
    threshold: int
    period: int = 1
    residues: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        check_i64(self.threshold, "tail threshold")
        if self.kind not in ("empty", "periodic"):
            raise BadParamsError(f"unknown tail kind {self.kind!r}")
        if self.period < 1:
            raise BadParamsError("tail period must be >= 1")
        if self.kind == "periodic":
            if not self.residues:
                raise BadParamsError("periodic tail needs a nonempty residue set")
            if any(r < 0 or r >= self.period for r in self.residues):
                raise BadParamsError("tail residues must lie in [0, period)")
        else:
            if self.residues:
                raise BadParamsError("empty tail must carry no residues")

    # -- constructors

    @staticmethod
    def empty(threshold: int) -> "TailSpec":
        return TailSpec("empty", threshold, 1, frozenset())

    @staticmethod
    def full(threshold: int) -> "TailSpec":
        return TailSpec("periodic", threshold, 1, frozenset({0}))

    @staticmethod
    def periodic(threshold: int, period: int, residues: Iterable[int]) -> "TailSpec":
        if period < 1:
            raise BadParamsError("tail period must be >= 1")
        res = frozenset(r % period for r in residues)
        if not res:
            return TailSpec.empty(threshold)
        return TailSpec("periodic", threshold, period, res)

    # -- queries

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"

    @property
    def is_full(self) -> bool:
        return self.kind == "periodic" and len(self.residues) == self.period

    def pattern(self, t: int) -> bool:
        """Membership by pattern alone, ignoring the threshold."""
        return self.kind == "periodic" and (t % self.period) in self.residues

    # -- transforms

    def reduced(self) -> "TailSpec":
        """Least-period form with the same pattern."""
        if self.kind == "empty":
            return TailSpec.empty(self.threshold)
        for d in range(1, self.period + 1):
            if self.period % d:
                continue
            if all(((r + d) % self.period) in self.residues for r in self.residues):
                return TailSpec.periodic(self.threshold, d, {r % d for r in self.residues})
        return self

    def with_threshold(self, threshold: int) -> "TailSpec":
        return replace(self, threshold=check_i64(threshold, "tail threshold"))

    def shifted(self, g: int) -> "TailSpec":
        """Pattern of the translated set; threshold moves with it."""
        if self.kind == "empty":
            return TailSpec.empty(checked_add(self.threshold, g))
        res = frozenset((r + g) % self.period for r in self.residues)
        return TailSpec("periodic", checked_add(self.threshold, g), self.period, res)

    def mirrored(self, threshold: int) -> "TailSpec":
        """Pattern of the negated set (t -> -t); caller supplies threshold."""
        if self.kind == "empty":
            return TailSpec.empty(threshold)
        res = frozenset((-r) % self.period for r in self.residues)
        return TailSpec("periodic", threshold, self.period, res)

    def inverted(self) -> "TailSpec":
        """Complement pattern on the same side."""
        if self.kind == "empty":
            return TailSpec.full(self.threshold)
        res = frozenset(range(self.period)) - self.residues
        if not res:
            return TailSpec.empty(self.threshold)
        return TailSpec("periodic", self.threshold, self.period, res)

    def elements(self, lo: int, hi: int) -> list[int]:
        """Sorted pattern elements in [lo, hi], ignoring the threshold."""
        if self.kind == "empty" or lo > hi:
            return []
        out: list[int] = []
        for r in self.residues:
            first = lo + ((r - lo) % self.period)
            out.extend(range(first, hi + 1, self.period))
        out.sort()
        return out


# ---------------------------------------------------------------------------
# descriptor kinds


class IntSet:
    """Base for the six descriptor kinds; see the module docstring."""

    def member(self, t: int) -> bool:
        raise NotImplementedError

    def __contains__(self, t: int) -> bool:
        return self.member(check_i64(t, "element"))


@dataclass(frozen=True)
class FiniteSet(IntSet):
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise EmptySetError("finite set needs at least one element")
        for t in self.elements:
            check_i64(t, "element")
        if list(self.elements) != sorted(set(self.elements)):
            raise BadParamsError("finite elements must be sorted and distinct")

    def member(self, t: int) -> bool:
        i = bisect_left(self.elements, t)
        return i < len(self.elements) and self.elements[i] == t


@dataclass(frozen=True)
class CofiniteSet(IntSet):
    excluded: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for t in self.excluded:
            check_i64(t, "excluded element")
        if list(self.excluded) != sorted(set(self.excluded)):
            raise BadParamsError("excluded elements must be sorted and distinct")

    def member(self, t: int) -> bool:
        i = bisect_left(self.excluded, t)
        return not (i < len(self.excluded) and self.excluded[i] == t)


@dataclass(frozen=True)
class BEPSet(IntSet):
    left: TailSpec
    core: tuple[int, ...]
    core_lo: int
    core_hi: int
    right: TailSpec

    def __post_init__(self) -> None:
        check_i64(self.core_lo, "core_lo")
        check_i64(self.core_hi, "core_hi")
        if self.core_hi < self.core_lo - 1:
            raise BadParamsError("core window must be an interval or empty (hi = lo-1)")
        if self.left.threshold != self.core_lo or self.right.threshold != self.core_hi:
            raise BadParamsError("tail thresholds must match the core window bounds")
        if list(self.core) != sorted(set(self.core)):
            raise BadParamsError("core must be sorted and distinct")
        if self.core and (self.core[0] < self.core_lo or self.core[-1] > self.core_hi):
            raise BadParamsError("core elements must lie inside the core window")
        if self.left.is_empty and self.right.is_empty and not self.core:
            raise EmptySetError("BEP descriptor describes the empty set")

    def member(self, t: int) -> bool:
        if t < self.core_lo:
            return self.left.pattern(t)
        if t > self.core_hi:
            return self.right.pattern(t)
        i = bisect_left(self.core, t)
        return i < len(self.core) and self.core[i] == t


def make_bep(
    left: TailSpec,
    core: Iterable[int],
    core_lo: int,
    core_hi: int,
    right: TailSpec,
) -> IntSet:
    """Canonicalize a raw BEP description.

    Reduces tail periods, absorbs core boundary points that agree with the
    adjacent tail pattern, slides the split point of a coreless description
    to its least valid position, and collapses to FiniteSet or CofiniteSet
    when the tails allow it.  Raises EmptySetError for the empty set.
    """
    check_i64(core_lo, "core_lo")
    check_i64(core_hi, "core_hi")
    left = left.reduced()
    right = right.reduced()
    members = sorted(set(core))
    if members and (members[0] < core_lo or members[-1] > core_hi):
        raise BadParamsError("core elements outside the stated window")
    have = set(members)

    # shrink the window from both ends while the boundary agrees with the tail
    while core_lo <= core_hi:
        present = core_lo in have
        if present != left.pattern(core_lo):
            break
        if present:
            have.discard(core_lo)
        core_lo += 1
    while core_hi >= core_lo:
        present = core_hi in have
        if present != right.pattern(core_hi):
            break
        if present:
            have.discard(core_hi)
        core_hi -= 1

    if core_lo > core_hi:
        # coreless: slide the split point down to its least valid position
        if left.is_empty and right.is_empty:
            raise EmptySetError("descriptor describes the empty set")
        probe = math.lcm(left.period, right.period)
        split = core_lo
        moved = True
        for j in range(1, probe + 1):
            if left.pattern(split - j) != right.pattern(split - j):
                split = split - j + 1
                moved = False
                break
        if moved:
            # patterns agree on a full common period: the set is purely periodic
            if left.kind != right.kind or left.period != right.period or (
                left.residues != right.residues
            ):
                # identical patterns reduce identically; disagreement here
                # means one side is full and the other full at another period
                left = right = left if not left.is_empty else right
            if left.is_full:
                return CofiniteSet(())
            split = 0
        return BEPSet(
            left.with_threshold(split),
            (),
            split,
            split - 1,
            right.with_threshold(split - 1),
        )

    if left.is_empty and right.is_empty:
        return FiniteSet(tuple(sorted(have)))
    if left.is_full and right.is_full:
        missing = tuple(t for t in range(core_lo, core_hi + 1) if t not in have)
        return CofiniteSet(missing)
    return BEPSet(
        left.with_threshold(core_lo),
        tuple(sorted(have)),
        core_lo,
        core_hi,
        right.with_threshold(core_hi),
    )


# ---------------------------------------------------------------------------
# block family rules


def _compile_length_expr(src: str) -> Callable[[int], int]:
    """Compile a length expression in the single variable k.

    Allowed: integer literals, k, + - * // % **, unary minus, parentheses.
    """
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as e:
        raise BadParamsError(f"bad length expression {src!r}: {e.msg}") from None
    allowed_ops = (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod, ast.Pow)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name, ast.Load)):
            if isinstance(node, ast.Constant) and not isinstance(node.value, int):
                raise BadParamsError(f"non-integer literal in {src!r}")
            if isinstance(node, ast.Name) and node.id != "k":
                raise BadParamsError(f"only the variable k is allowed, saw {node.id!r}")
            continue
        if isinstance(node, allowed_ops) or isinstance(node, (ast.USub, ast.UAdd)):
            continue
        if isinstance(node, ast.Div):
            raise BadParamsError("use // for division in length expressions")
        raise BadParamsError(f"disallowed syntax in length expression {src!r}")
    code = compile(tree, "<length-expr>", "eval")

    def fn(k: int) -> int:
        v = eval(code, {"__builtins__": {}}, {"k": k})
        if not isinstance(v, int):
            raise BadParamsError(f"length expression {src!r} gave non-int at k={k}")
        return v

    return fn


@lru_cache(maxsize=256)
def _cached_expr(src: str) -> Callable[[int], int]:
    return _compile_length_expr(src)


@dataclass(frozen=True)
class Lemma43Rule:
    """Block starts (k-1)(k+2)/2 + 2^(k+1), block lengths k+1."""

    name: str = "lemma43"
    cap: int = 40

    def max_k(self) -> int:
        return self.cap

    def start(self, k: int) -> int:
        if k < 1:
            raise BadParamsError("block index must be >= 1")
        if k > self.cap:
            raise OverflowError(f"block index {k} beyond the evaluation cap {self.cap}")
        return (k - 1) * (k + 2) // 2 + 2 ** (k + 1)

    def length(self, k: int) -> int:
        if k < 1:
            raise BadParamsError("block index must be >= 1")
        if k > self.cap:
            raise OverflowError(f"block index {k} beyond the evaluation cap {self.cap}")
        return k + 1

    def params(self) -> dict:
        return {"rule": "lemma43"}


@dataclass(frozen=True)
class Blocks10Rule:
    """Blocks [10k^2, 10k(k+1)]; the complement flag swaps blocks and gaps."""

    complement: bool = False

    @property
    def name(self) -> str:
        return "blocks10-complement" if self.complement else "blocks10"

    def max_k(self) -> int:
        return 960_000_000

    def start(self, k: int) -> int:
        if k < 1:
            raise BadParamsError("block index must be >= 1")
        if k > self.max_k():
            raise OverflowError(f"block index {k} beyond 64-bit block range")
        if self.complement:
            return 10 * k * (k - 1) + 1
        return 10 * k * k

    def length(self, k: int) -> int:
        if k < 1:
            raise BadParamsError("block index must be >= 1")
        if self.complement:
            return 10 * k - 1
        return 10 * k + 1

    def params(self) -> dict:
        return {"rule": self.name}


@dataclass(frozen=True)
class GenericIJRule:
    """Adjacent blocks from length expressions.

    Block k has length len_i(k); the gap after it has length len_j(k); the
    first block starts at origin.  Both length sequences must be strictly
    increasing and positive, which is validated as blocks are evaluated.
    """

    len_i_src: str
    len_j_src: str
    origin: int = 0
    name: str = "generic"

    def __post_init__(self) -> None:
        check_i64(self.origin, "origin")
        _cached_expr(self.len_i_src)
        _cached_expr(self.len_j_src)
        for k in range(1, 9):
            self.length(k)
            self._gap_len(k)

    def max_k(self) -> int:
        return 1 << 40

    def length(self, k: int) -> int:
        if k < 1:
            raise BadParamsError("block index must be >= 1")
        fn = _cached_expr(self.len_i_src)
        v = fn(k)
        if v < 1 or (k > 1 and fn(k - 1) >= v):
            raise BadParamsError(
                f"block lengths must be positive and strictly increasing; "
                f"len_i({k}) = {v}"
            )
        return v

    def _gap_len(self, k: int) -> int:
        fn = _cached_expr(self.len_j_src)
        v = fn(k)
        if v < 1 or (k > 1 and fn(k - 1) >= v):
            raise BadParamsError(
                f"gap lengths must be positive and strictly increasing; "
                f"len_j({k}) = {v}"
            )
        return v

    def start(self, k: int) -> int:
        if k < 1:
            raise BadParamsError("block index must be >= 1")
        starts = _generic_starts(self)
        while len(starts) < k:
            j = len(starts)
            nxt = starts[-1] + self.length(j) + self._gap_len(j)
            check_i64(nxt, "block start")
            starts.append(nxt)
        return starts[k - 1]

    def params(self) -> dict:
        return {
            "rule": "generic",
            "lenI": self.len_i_src,
            "lenJ": self.len_j_src,
            "origin": self.origin,
        }


_GENERIC_STARTS: dict[GenericIJRule, list[int]] = {}


def _generic_starts(rule: GenericIJRule) -> list[int]:
    lst = _GENERIC_STARTS.get(rule)
    if lst is None:
        lst = [rule.origin]
        _GENERIC_STARTS[rule] = lst
    return lst


FamilyRule = Lemma43Rule | Blocks10Rule | GenericIJRule


def rule_end(rule: FamilyRule, k: int) -> int:
    return rule.start(k) + rule.length(k) - 1


def rule_gap(rule: FamilyRule, k: int) -> tuple[int, int]:
    """The gap interval between block k and block k+1 (inclusive ends)."""
    return rule_end(rule, k) + 1, rule.start(k + 1) - 1


def _rule_block_search(rule: FamilyRule, u: int) -> tuple[int, bool]:
    """Largest k with start(k) <= u, and whether u lies inside block k.

    Returns (0, False) when u is below the first block.  Raises
    OverflowError when u is beyond the last evaluable block.
    """
    if u < rule.start(1):
        return 0, False
    lo, hi = 1, 1
    while rule_end(rule, hi) < u:
        if hi >= rule.max_k():
            raise OverflowError(f"membership at {u} needs blocks beyond index cap")
        lo = hi
        hi = min(hi * 2, rule.max_k())
        if rule.start(hi) > u:
            break
    # invariant: start(lo) <= u (lo >= 1), and either start(hi) > u or end(hi) >= u
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if rule.start(mid) <= u:
            lo = mid
        else:
            hi = mid - 1
    return lo, u <= rule_end(rule, lo)


class EditedSet(IntSet):
    """A base pattern seen through a shift, a reflection and finite edits.

    The base lives in inner coordinates u, at t = shift + u (shift - u when
    negated); ``removes`` are taken out and ``adds`` put in on the outside.
    A kind supplies ``base_member(u)`` and ``base_flags(ilo, ihi)``: the
    base membership of the inner run ilo..ihi, and the part of that run it
    could not decide (None when it decided all of it).
    """

    adds: tuple[int, ...]
    removes: tuple[int, ...]
    shift: int
    negated: bool

    def __post_init__(self) -> None:
        check_i64(self.shift, "shift")
        for t in self.adds:
            check_i64(t, "added element")
        for t in self.removes:
            check_i64(t, "removed element")
        if list(self.adds) != sorted(set(self.adds)):
            raise BadParamsError("adds must be sorted and distinct")
        if list(self.removes) != sorted(set(self.removes)):
            raise BadParamsError("removes must be sorted and distinct")

    def inner(self, t: int) -> int:
        return self.shift - t if self.negated else t - self.shift

    def outer(self, u: int) -> int:
        return self.shift - u if self.negated else self.shift + u

    def member(self, t: int) -> bool:
        i = bisect_left(self.removes, t)
        if i < len(self.removes) and self.removes[i] == t:
            return False
        i = bisect_left(self.adds, t)
        if i < len(self.adds) and self.adds[i] == t:
            return True
        return self.base_member(self.inner(t))


@dataclass(frozen=True)
class FamilySet(EditedSet):
    rule: FamilyRule
    left: TailSpec
    adds: tuple[int, ...] = ()
    removes: tuple[int, ...] = ()
    shift: int = 0
    negated: bool = False

    def base_member(self, u: int) -> bool:
        if u < self.left.threshold and self.left.pattern(u):
            return True
        if u < self.rule.start(1):
            return False
        _, inside = _rule_block_search(self.rule, u)
        return inside

    def base_flags(self, ilo: int, ihi: int) -> tuple[np.ndarray, tuple[int, int] | None]:
        """The left tail, then one slice per block; past the last evaluable
        block nothing is decided."""
        flags = np.zeros(ihi - ilo + 1, bool)
        left, rule = self.left, self.rule
        thr = min(ihi, left.threshold - 1)
        if left.kind == "periodic" and thr >= ilo:
            for r in left.residues:
                flags[(r - ilo) % left.period : thr - ilo + 1 : left.period] = True
        u = max(ilo, rule.start(1))  # every coordinate below u is decided
        try:
            k = _rule_block_search(rule, u)[0] if u <= ihi else 0
            while u <= ihi:
                bhi = rule_end(rule, k)
                flags[max(rule.start(k) - ilo, 0) : max(bhi - ilo + 1, 0)] = True
                u = bhi + 1
                if k >= rule.max_k():
                    break
                k += 1
                u = rule.start(k)
        except OverflowError:
            pass
        return flags, ((max(u, ilo), ihi) if u <= ihi else None)


@dataclass(frozen=True)
class PointwiseSet(EditedSet):
    predicate: str = "nonprimes"
    adds: tuple[int, ...] = ()
    removes: tuple[int, ...] = ()
    shift: int = 0
    negated: bool = False

    def __post_init__(self) -> None:
        if self.predicate != "nonprimes":
            raise BadParamsError(f"unknown pointwise predicate {self.predicate!r}")
        super().__post_init__()

    def base_member(self, u: int) -> bool:
        if u < INT64_MIN or u > INT64_MAX:
            raise OutOfDecidableRangeError(f"pointwise query at {u} beyond 64-bit range")
        return not is_prime(u)

    def base_flags(self, ilo: int, ihi: int) -> tuple[np.ndarray, tuple[int, int] | None]:
        """A segmented sieve; coordinates outside int64 (at one end only)
        are not decided."""
        lo, hi = max(ilo, INT64_MIN), min(ihi, INT64_MAX)
        flags = np.zeros(ihi - ilo + 1, bool)
        if lo <= hi:
            flags[lo - ilo : hi - ilo + 1] = ~prime_flags(lo, hi)
        if ilo < lo:
            return flags, (ilo, min(lo - 1, ihi))
        if hi < ihi:
            return flags, (max(hi + 1, ilo), ihi)
        return flags, None


@dataclass(frozen=True)
class UnionSet(IntSet):
    parts: tuple[IntSet, ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise BadParamsError("a union descriptor needs at least two parts")

    def member(self, t: int) -> bool:
        return any(p.member(t) for p in self.parts)


# ---------------------------------------------------------------------------
# primality (for the nonprime pointwise predicate)

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=1 << 18)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n < 3.18e23 (all of int64)."""
    if n < 2:
        return False
    if n in _MR_WITNESSES:
        return True
    if any(n % p == 0 for p in _MR_WITNESSES):
        return False
    if n < 41 * 41:
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Segments are sieved with the base primes up to min(isqrt(hi), this cap);
# past the cap the survivors go to is_prime.  The base table grows on demand
# (doubling): built at the cap up front it would cost every process a few MB
# that queries near 0 never use.
_SIEVE_ROOT_CAP = 1 << 21
_base_primes = (np.zeros(0, np.int64), 1)  # (all primes <= limit, limit)


def _primes_upto(n: int) -> np.ndarray:
    """Ascending primes <= n, for n <= _SIEVE_ROOT_CAP."""
    global _base_primes
    table, limit = _base_primes
    if n > limit:
        limit = min(max(n, 2 * limit, 1 << 10), _SIEVE_ROOT_CAP)
        sieve = np.ones(limit + 1, bool)
        sieve[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        table = np.flatnonzero(sieve)
        _base_primes = (table, limit)
    return table[: np.searchsorted(table, n, "right")]


def prime_flags(lo: int, hi: int) -> np.ndarray:
    """Primality of each n in [lo, hi] (both int64), by a segmented sieve.

    Bit-for-bit equal to ``[is_prime(n) for n in range(lo, hi + 1)]``.
    """
    flags = np.zeros(hi - lo + 1, bool)
    start = max(lo, 2)
    if start > hi:
        return flags
    seg = flags[start - lo :]
    seg[:] = True
    n = len(seg)
    root = math.isqrt(hi)
    primes = _primes_upto(min(root, _SIEVE_ROOT_CAP))
    # each prime strikes from p*p (so a prime in the segment survives) or
    # from its first multiple >= start, whichever is later
    first = np.where(primes * primes >= start, primes * primes - start, (-start) % primes)
    # primes up to sqrt(n) have many multiples in the segment and take one
    # slice each; the rest advance together, one multiple per round, in
    # about sqrt(n) rounds
    sliced = int(np.searchsorted(primes, math.isqrt(n), "right"))
    for p, f in zip(primes[:sliced].tolist(), first[:sliced].tolist()):
        seg[f::p] = False
    step, at = primes[sliced:], first[sliced:]
    while at.size:
        live = at < n
        step, at = step[live], at[live]
        seg[at] = False
        at = at + step
    if root > _SIEVE_ROOT_CAP:
        for j in np.flatnonzero(seg).tolist():
            if not is_prime(start + j):
                seg[j] = False
    return flags


# ---------------------------------------------------------------------------
# public constructors


def finite(elements: Iterable[int]) -> FiniteSet:
    return FiniteSet(tuple(sorted({check_i64(t, "element") for t in elements})))


def cofinite(excluded: Iterable[int] = ()) -> CofiniteSet:
    return CofiniteSet(tuple(sorted({check_i64(t, "excluded element") for t in excluded})))


def integers() -> CofiniteSet:
    return CofiniteSet(())


def below(x: int) -> IntSet:
    """All t < x."""
    check_i64(x, "bound")
    return make_bep(TailSpec.full(x), (), x, x - 1, TailSpec.empty(x - 1))


def above(x: int) -> IntSet:
    """All t > x."""
    check_i64(x, "bound")
    return make_bep(TailSpec.empty(x + 1), (), x + 1, x, TailSpec.full(x))


def ap(res: int, mod: int, side: str, start: int) -> IntSet:
    """One residue class cut to a side: t = res (mod mod) with t < start
    (side "below") or t > start (side "above")."""
    if mod < 1:
        raise BadParamsError("mod must be >= 1")
    check_i64(start, "start")
    tail = TailSpec.periodic(0, mod, {res % mod})
    if side == "below":
        return make_bep(tail.with_threshold(start), (), start, start - 1, TailSpec.empty(start - 1))
    if side == "above":
        return make_bep(TailSpec.empty(start + 1), (), start + 1, start, tail.with_threshold(start))
    raise BadParamsError(f"side must be 'below' or 'above', got {side!r}")


def subgroup_set(n: int) -> IntSet:
    """The subgroup n*Z."""
    if n < 1:
        raise BadParamsError("subgroup index must be >= 1")
    tail = TailSpec.periodic(0, n, {0})
    return make_bep(tail, (), 0, -1, tail.with_threshold(-1))


def nonprimes() -> PointwiseSet:
    return PointwiseSet()


def lemma43_set() -> FamilySet:
    """The ray below 4 together with the lemma43 blocks."""
    rule = Lemma43Rule()
    return FamilySet(rule, TailSpec.full(rule.start(1)))


def lemma44_set() -> FamilySet:
    """The lemma43 blocks alone, no ray."""
    rule = Lemma43Rule()
    return FamilySet(rule, TailSpec.empty(rule.start(1)))


def generic_family(len_i: str, len_j: str, origin: int = 0) -> FamilySet:
    rule = GenericIJRule(len_i, len_j, origin)
    return FamilySet(rule, TailSpec.empty(rule.start(1)))


def blocks10_family(complement: bool = False) -> FamilySet:
    rule = Blocks10Rule(complement)
    return FamilySet(rule, TailSpec.empty(rule.start(1)))


# ---------------------------------------------------------------------------
# membership / enumeration


def contains(s: IntSet, t: int) -> bool:
    return check_i64(t, "element") in s


def enumerate_window(s: IntSet, window: Window) -> list[int]:
    """Sorted elements of s in the window."""
    if isinstance(s, FiniteSet):
        lo = bisect_left(s.elements, window.lo)
        hi = bisect_right(s.elements, window.hi)
        return list(s.elements[lo:hi])
    if isinstance(s, CofiniteSet):
        ex = set(s.excluded)
        return [t for t in window if t not in ex]
    if isinstance(s, BEPSet):
        out = s.left.elements(window.lo, min(window.hi, s.core_lo - 1))
        lo = bisect_left(s.core, window.lo)
        hi = bisect_right(s.core, window.hi)
        out.extend(s.core[lo:hi])
        out.extend(s.right.elements(max(window.lo, s.core_hi + 1), window.hi))
        return out
    if isinstance(s, EditedSet):
        # base membership over the window's inner coordinates, then back to
        # window order with the edits applied
        ilo, ihi = sorted((s.inner(window.lo), s.inner(window.hi)))
        flags, undecided = s.base_flags(ilo, ihi)
        if undecided is not None:
            # the first point there in window order that no edit decides
            # raises what per-point membership raises
            ta, tb = sorted(map(s.outer, undecided))
            edited = set(s.adds) | set(s.removes)
            t = next((t for t in range(ta, tb + 1) if t not in edited), None)
            if t is not None:
                s.base_member(s.inner(t))
        if s.negated:
            flags = flags[::-1]
        flags[[t - window.lo for t in s.adds if t in window]] = True
        flags[[t - window.lo for t in s.removes if t in window]] = False
        return (np.flatnonzero(flags) + window.lo).tolist()
    if isinstance(s, UnionSet):
        pts: set[int] = set()
        for p in s.parts:
            pts.update(enumerate_window(p, window))
        return sorted(pts)
    raise BadParamsError(f"unknown descriptor {type(s).__name__}")


# ---------------------------------------------------------------------------
# normalization and folding


def normalize(s: IntSet) -> IntSet:
    if isinstance(s, (FiniteSet, CofiniteSet)):
        return s
    if isinstance(s, BEPSet):
        return make_bep(s.left, s.core, s.core_lo, s.core_hi, s.right)
    if isinstance(s, EditedSet):
        base = {"left": s.left.reduced()} if isinstance(s, FamilySet) else {}
        return _edit(s, s.adds, s.removes, **base)
    if isinstance(s, UnionSet):
        parts: list[IntSet] = []
        stack = [normalize(p) for p in s.parts]
        while stack:
            p = stack.pop()
            if isinstance(p, UnionSet):
                stack.extend(p.parts)
            else:
                parts.append(p)
        folded = _fold_parts(parts)
        if len(folded) == 1:
            return folded[0]
        return UnionSet(tuple(sorted(folded, key=_sort_key)))
    raise BadParamsError(f"unknown descriptor {type(s).__name__}")


def _edit(s: EditedSet, adds: Iterable[int], removes: Iterable[int], **base) -> EditedSet:
    """s's base pattern (its fields replaced by ``base``) under the given
    edits, in normal form: a removal wins over an add, adds lie outside the
    base and removes inside it."""
    unedited = replace(s, adds=(), removes=(), **base)
    removes = set(removes)
    return replace(
        unedited,
        adds=tuple(sorted({t for t in adds if t not in removes and not unedited.member(t)})),
        removes=tuple(sorted(t for t in removes if unedited.member(t))),
    )


def _sort_key(s: IntSet) -> tuple:
    rank = {FiniteSet: 0, CofiniteSet: 1, BEPSet: 2, FamilySet: 3, PointwiseSet: 4, UnionSet: 5}
    return (rank[type(s)], repr(s))


def _fold_parts(parts: list[IntSet]) -> list[IntSet]:
    parts = list(parts)
    changed = True
    while changed and len(parts) > 1:
        changed = False
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                merged = _fold_pair(parts[i], parts[j])
                if merged is None:
                    merged = _fold_pair(parts[j], parts[i])
                if merged is not None:
                    rest = [p for k, p in enumerate(parts) if k not in (i, j)]
                    parts = rest + [merged]
                    changed = True
                    break
            if changed:
                break
    return parts


def _merge_patterns(a: TailSpec, b: TailSpec, threshold: int) -> TailSpec:
    """Union of two tail patterns as one TailSpec at the given threshold."""
    if a.is_empty and b.is_empty:
        return TailSpec.empty(threshold)
    period = math.lcm(a.period if not a.is_empty else 1, b.period if not b.is_empty else 1)
    res = {r for r in range(period) if a.pattern(r) or b.pattern(r)}
    return TailSpec.periodic(threshold, period, res).reduced()


def _fold_pair(a: IntSet, b: IntSet) -> IntSet | None:
    """Union of a and b as a single descriptor, or None if not foldable."""
    if isinstance(a, CofiniteSet):
        return cofinite(g for g in a.excluded if not b.member(g))
    if isinstance(a, FiniteSet) and isinstance(b, FiniteSet):
        return finite(a.elements + b.elements)
    if isinstance(a, FiniteSet) and isinstance(b, BEPSet):
        lo = min(b.core_lo, a.elements[0])
        hi = max(b.core_hi, a.elements[-1])
        members = set(a.elements)
        members.update(enumerate_window(b, Window(lo, hi)) if lo <= hi else [])
        return make_bep(b.left, members, lo, hi, b.right)
    if isinstance(a, FiniteSet) and isinstance(b, EditedSet):
        return _edit(b, b.adds + a.elements, set(b.removes) - set(a.elements))
    if isinstance(a, BEPSet) and isinstance(b, BEPSet):
        lo = min(a.core_lo, b.core_lo)
        hi = max(a.core_hi, b.core_hi)
        left = _merge_patterns(a.left, b.left, lo)
        right = _merge_patterns(a.right, b.right, hi)
        members: set[int] = set()
        if lo <= hi:
            members.update(enumerate_window(a, Window(lo, hi)))
            members.update(enumerate_window(b, Window(lo, hi)))
        return make_bep(left, members, lo, hi, right)
    if isinstance(a, BEPSet) and isinstance(b, FamilySet):
        if b.negated:
            merged = _fold_pair(negate(a), negate(b))
            return negate(merged) if merged is not None else None
        if not a.right.is_empty:
            return None
        inner_bep = translate(a, -b.shift)
        if not isinstance(inner_bep, BEPSet):
            return None
        theta = min(b.left.threshold, inner_bep.core_lo)
        merged_left = _merge_patterns(b.left, inner_bep.left, theta)
        band_hi = max(b.left.threshold - 1, inner_bep.core_hi)
        if band_hi - theta >= 1 << 16:
            return None  # too wide to carry as adds; the union stays unfolded
        adds = list(b.adds)
        if theta <= band_hi:
            band = b.left.elements(theta, min(band_hi, b.left.threshold - 1))
            band += enumerate_window(inner_bep, Window(theta, band_hi))
            adds.extend(b.outer(u) for u in band)
        removes = [t for t in b.removes if not a.member(t)]
        return _edit(b, adds, removes, left=merged_left)
    if isinstance(a, EditedSet) and type(b) is type(a):
        # one base under both (the pointwise predicate is always the nonprimes)
        if (a.shift, a.negated) != (b.shift, b.negated):
            return None
        adds = list(a.adds + b.adds)
        base = {}
        if isinstance(a, FamilySet):
            if a.rule != b.rule:
                return None
            # the merged left tail starts at the lower threshold; points of
            # either tail between the two thresholds become adds
            theta = min(a.left.threshold, b.left.threshold)
            band_hi = max(a.left.threshold, b.left.threshold) - 1
            for x in (a, b):
                band = x.left.elements(theta, min(band_hi, x.left.threshold - 1))
                adds.extend(a.outer(u) for u in band)
            base = {"left": _merge_patterns(a.left, b.left, theta)}
        removes = [t for t in a.removes + b.removes if not a.member(t) and not b.member(t)]
        return _edit(a, adds, removes, **base)
    return None


def union(a: IntSet, b: IntSet) -> IntSet:
    return normalize(UnionSet((normalize(a), normalize(b))))


def minus(s: IntSet, removed: Iterable[int] | FiniteSet) -> IntSet:
    """s with finitely many elements removed."""
    if isinstance(removed, FiniteSet):
        gone = set(removed.elements)
    else:
        gone = {check_i64(t, "removed element") for t in removed}
    if not gone:
        return s
    if isinstance(s, FiniteSet):
        return finite(t for t in s.elements if t not in gone)
    if isinstance(s, CofiniteSet):
        return cofinite(set(s.excluded) | gone)
    if isinstance(s, BEPSet):
        lo = min([s.core_lo] + [t for t in gone])
        hi = max([s.core_hi] + [t for t in gone])
        members = set(enumerate_window(s, Window(lo, hi))) - gone if lo <= hi else set()
        return make_bep(s.left, members, lo, hi, s.right)
    if isinstance(s, EditedSet):
        return _edit(s, s.adds, gone.union(s.removes))
    if isinstance(s, UnionSet):
        kept: list[IntSet] = []
        for p in s.parts:
            try:
                kept.append(minus(p, gone))
            except EmptySetError:
                continue
        if not kept:
            raise EmptySetError("every part vanished under removal")
        if len(kept) == 1:
            return kept[0]
        return normalize(UnionSet(tuple(kept)))
    raise BadParamsError(f"unknown descriptor {type(s).__name__}")


# ---------------------------------------------------------------------------
# translate / negate


def translate(s: IntSet, g: int) -> IntSet:
    check_i64(g, "translation")
    if g == 0:
        return s
    if isinstance(s, FiniteSet):
        return finite(checked_add(t, g) for t in s.elements)
    if isinstance(s, CofiniteSet):
        return cofinite(checked_add(t, g) for t in s.excluded)
    if isinstance(s, BEPSet):
        return make_bep(
            s.left.shifted(g),
            tuple(checked_add(t, g) for t in s.core),
            checked_add(s.core_lo, g),
            checked_add(s.core_hi, g),
            s.right.shifted(g),
        )
    if isinstance(s, EditedSet):
        return replace(
            s,
            shift=checked_add(s.shift, g),
            adds=tuple(checked_add(t, g) for t in s.adds),
            removes=tuple(checked_add(t, g) for t in s.removes),
        )
    if isinstance(s, UnionSet):
        return UnionSet(tuple(translate(p, g) for p in s.parts))
    raise BadParamsError(f"unknown descriptor {type(s).__name__}")


def negate(s: IntSet) -> IntSet:
    if isinstance(s, FiniteSet):
        return finite(-t for t in s.elements)
    if isinstance(s, CofiniteSet):
        return cofinite(-t for t in s.excluded)
    if isinstance(s, BEPSet):
        return make_bep(
            s.right.mirrored(-s.core_hi),
            tuple(-t for t in reversed(s.core)),
            -s.core_hi,
            -s.core_lo,
            s.left.mirrored(-s.core_lo),
        )
    if isinstance(s, EditedSet):
        return replace(
            s,
            shift=-s.shift,
            negated=not s.negated,
            adds=tuple(sorted(-t for t in s.adds)),
            removes=tuple(sorted(-t for t in s.removes)),
        )
    if isinstance(s, UnionSet):
        return UnionSet(tuple(negate(p) for p in s.parts))
    raise BadParamsError(f"unknown descriptor {type(s).__name__}")


# ---------------------------------------------------------------------------
# gaps and classification


def gap_sequence(s: IntSet, window: Window) -> list[int]:
    """Differences of consecutive elements inside the window."""
    elems = enumerate_window(s, window)
    if len(elems) < 2:
        raise TooFewElementsError(
            f"need at least two elements in [{window.lo}, {window.hi}], found {len(elems)}"
        )
    return [b - a for a, b in zip(elems, elems[1:])]


@dataclass(frozen=True)
class Classification:
    kind: str
    bounded_below: bool
    bounded_above: bool
    eventually_periodic: bool
    period: int | None
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "boundedBelow": self.bounded_below,
            "boundedAbove": self.bounded_above,
            "eventuallyPeriodic": self.eventually_periodic,
            "period": self.period,
            "detail": self.detail,
        }


def classify(s: IntSet) -> Classification:
    """Structural classification of the normalized descriptor.

    The eventually-periodic flag follows the bounded-below convention: it is
    set only for sets bounded below whose forward behaviour is periodic, so
    two-sided periodic sets report their period without the flag.
    """
    s = normalize(s)
    bounded = (_toward(s, -1)[0], _toward(s, 1)[0])
    if isinstance(s, FiniteSet):
        return Classification("finite", *bounded, False, None)
    if isinstance(s, CofiniteSet):
        return Classification("cofinite", *bounded, False, 1, "full pattern beyond exclusions")
    if isinstance(s, BEPSet):
        ep = bounded[0] and s.right.kind == "periodic"
        periods = [tail.period for tail in (s.left, s.right) if not tail.is_empty]
        period = math.lcm(*periods) if periods else None
        detail = "" if ep else ("two-sided pattern; period reported for information" if period else "")
        return Classification("bep", *bounded, ep, period, detail)
    if isinstance(s, FamilySet):
        return Classification(
            "family", *bounded, False, None, "block gaps grow without bound, no period"
        )
    if isinstance(s, PointwiseSet):
        return Classification("pointwise", *bounded, False, None)
    if isinstance(s, UnionSet):
        return Classification(
            "union",
            *bounded,
            False,
            None,
            "unfolded union; flags from parts, periodicity not decided",
        )
    raise BadParamsError(f"unknown descriptor {type(s).__name__}")


# ---------------------------------------------------------------------------
# structural queries used by the decision procedures


def _tail_shape(tail: TailSpec) -> tuple[bool, bool, bool]:
    return tail.is_empty, tail.is_full, not tail.is_empty


def _toward(s: IntSet, d: int) -> tuple[bool, bool, bool]:
    """The shape of s toward +infinity (d > 0) or -infinity (d < 0): whether
    it is bounded that way, provably has runs of unbounded length there, and
    provably has bounded gaps there.

    Family blocks grow in length and in gap; the nonprimes have factorial
    runs upward, gaps of at most 2 beyond 4 and a full ray downward; finite
    edits change none of the three.
    """
    if isinstance(s, FiniteSet):
        return True, False, False
    if isinstance(s, (CofiniteSet, PointwiseSet)):
        return False, True, True
    if isinstance(s, BEPSet):
        return _tail_shape(s.right if d > 0 else s.left)
    if isinstance(s, FamilySet):
        if (d < 0) if s.negated else (d > 0):
            return False, True, False
        return _tail_shape(s.left)
    if isinstance(s, UnionSet):
        bounded, runs, gaps = zip(*(_toward(p, d) for p in s.parts))
        return all(bounded), any(runs), any(gaps)
    raise BadParamsError(f"unknown descriptor {type(s).__name__}")


def is_infinite(s: IntSet) -> bool:
    s = normalize(s)
    return not (_toward(s, 1)[0] and _toward(s, -1)[0])


def runs_unbounded_toward(s: IntSet, direction: int) -> bool:
    """Whether s provably contains intervals of unbounded length toward
    +infinity (direction > 0) or -infinity (direction < 0)."""
    return _toward(normalize(s), direction)[1]


def gaps_bounded_toward(s: IntSet, direction: int) -> bool:
    """Whether s provably has bounded gaps toward the given direction
    (infinitely many elements with gap sizes bounded by a constant)."""
    return _toward(normalize(s), direction)[2]


def _sorted_next(seq: tuple[int, ...], t: int, d: int) -> int | None:
    """The nearest entry of the sorted seq to t in direction d, t included."""
    if d > 0:
        i = bisect_left(seq, t)
        return seq[i] if i < len(seq) else None
    i = bisect_right(seq, t)
    return seq[i - 1] if i else None


def _pattern_next(tail: TailSpec, t: int, d: int) -> int | None:
    """The nearest point of the tail's pattern to t in direction d, t
    included, ignoring the threshold."""
    if tail.is_empty:
        return None
    return t + d * min((d * (r - t)) % tail.period for r in tail.residues)


def _base_next(s: FamilySet, u: int, d: int) -> int | None:
    """The nearest base point of s to u in direction d, inner coordinates.
    The left tail lies below the blocks: it is searched first upward and
    last downward."""
    rule, thr = s.rule, s.left.threshold
    if d > 0:
        c = _pattern_next(s.left, u, 1) if u < thr else None
        if c is not None and c < thr:
            return c
        u = max(u, thr, rule.start(1))
    elif u < rule.start(1):
        return _pattern_next(s.left, min(u, thr - 1), -1)
    k, inside = _rule_block_search(rule, u)
    if inside:
        return u
    return rule.start(k + 1) if d > 0 else rule_end(rule, k)


def _nearer(d: int, values: Iterable[int | None]) -> int | None:
    return (min if d > 0 else max)((v for v in values if v is not None), default=None)


def _nearest(s: IntSet, t: int, d: int) -> int | None:
    """The least element of s that is >= t (d = 1) or the greatest that is
    <= t (d = -1), or None when there is none.  The element found may lie
    outside int64; the public queries raise OverflowError for it."""
    if isinstance(s, FiniteSet):
        return _sorted_next(s.elements, t, d)
    if isinstance(s, (CofiniteSet, PointwiseSet)):
        # finitely many points are missing past the removes: the nonprimes
        # never miss three in a row
        while not s.member(t):
            t += d
        return t
    if isinstance(s, BEPSet):
        # in walk order: the tail before the core, the core, the tail after it
        near, far = (s.left, s.right) if d > 0 else (s.right, s.left)
        first, last = (s.core_lo, s.core_hi) if d > 0 else (s.core_hi, s.core_lo)
        c = _pattern_next(near, t, d) if d * (t - first) < 0 else None
        if c is not None and d * (c - first) < 0:
            return c
        c = _sorted_next(s.core, t, d)
        if c is not None:
            return c
        return _pattern_next(far, t if d * (t - last) > 0 else last + d, d)
    if isinstance(s, FamilySet):
        # blocks past int64 are never evaluated, and a reflected family is
        # not searched from INT64_MIN, whose reflection is no int64
        u = s.inner(t)
        if u > INT64_MAX or (s.negated and t == INT64_MIN):
            raise OverflowError(f"search from {t} needs blocks beyond the 64-bit range")
        e = -d if s.negated else d
        found = None
        while found is None and (b := _base_next(s, u, e)) is not None:
            found = s.outer(b)
            if found in s.removes:
                found, u = None, b + e
        adds = s.adds if d > 0 else reversed(s.adds)
        add = next((a for a in adds if d * (a - t) >= 0 and a not in s.removes), None)
        return _nearer(d, (found, add))
    if isinstance(s, UnionSet):
        return _nearer(d, (_nearest(p, t, d) for p in s.parts))
    raise BadParamsError(f"unknown descriptor {type(s).__name__}")


def _nearest_int64(s: IntSet, t: int, d: int) -> int | None:
    """_nearest from an int64 bound; OverflowError for an element outside
    int64.  A finite set is bisected directly: the greedy cover asks this
    once per uncovered target."""
    check_i64(t, "bound")
    if isinstance(s, FiniteSet):
        return _sorted_next(s.elements, t, d)
    c = _nearest(s, t, d)
    return c if c is None else check_i64(c, "nearest element")


def min_element_ge(s: IntSet, t: int) -> int | None:
    """Smallest element of s that is >= t, or None if there is none."""
    return _nearest_int64(s, t, 1)


def max_element_le(s: IntSet, t: int) -> int | None:
    """Largest element of s that is <= t, or None if there is none."""
    return _nearest_int64(s, t, -1)


def min_element(s: IntSet) -> int | None:
    """Smallest element, or None when unbounded below."""
    s = normalize(s)
    return _nearest_int64(s, INT64_MIN, 1) if _toward(s, -1)[0] else None


def _walk(s: IntSet, t: int, d: int):
    """The elements of s from t on in direction d, up to the end of int64."""
    while INT64_MIN <= t <= INT64_MAX:
        c = _nearest(s, t, d)
        if c is None or not INT64_MIN <= c <= INT64_MAX:
            return
        yield c
        t = c + d


def smallest_abs_elements(s: IntSet, count: int) -> list[int]:
    """Up to ``count`` elements ordered by absolute value, ties negative
    first: a merge of a walk up from 0 and a walk down from -1, each ending
    at the end of int64."""
    both = heapq.merge(_walk(s, 0, 1), _walk(s, -1, -1), key=lambda t: (abs(t), t > 0))
    return list(itertools.islice(both, count))
