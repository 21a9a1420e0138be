"""Self-test of the answer checks: they must flag a mask with one bit
flipped and a verdict with a wrong witness, and pass the true answers.

    python3 perfbench/selftest.py

run.py runs it before every workload; it needs no addcomp.
"""
from __future__ import annotations

import sys

import numpy as np

import reference as ref
import verify


def _bits(mask: np.ndarray) -> int:
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def run() -> list[str]:
    errors: list[str] = []
    # nonprimes + {0, 1} on [-50, 50]: the only gap is 3
    q = {"op": "ws_uncovered", "w": ("nonprimes",), "c": ("finite", (0, 1)), "win": [-50, 50]}
    cov = ref.cover_finite(q["w"], (0, 1), -50, 50)
    if (np.flatnonzero(~cov) - 50).tolist() != [3]:
        errors.append("reference gaps of nonprimes + {0, 1} are not [3]")
    good = (_bits(cov), 0, [3])
    if verify.check(q, good):
        errors.append("a correct mask was flagged")
    flipped = cov.copy()
    flipped[70] = not flipped[70]
    if not verify.check(q, (_bits(flipped), 0, [3])):
        errors.append("a mask with one bit flipped passed")

    # cofinite{0} + {0, 5}: a complement; cofinite{0,5} + {0,5}: gap at 5
    q = {"op": "verdict", "pred": "complement", "w": ("cofinite", (0, 5)),
         "c": ("finite", (0, 5)), "route": "closed"}
    right = {"status": "false", "exact": True, "witnesses": [5], "evidence": None, "removals": []}
    if verify.check(q, right):
        errors.append("a correct verdict was flagged")
    wrong = dict(right, witnesses=[4])
    if not verify.check(q, wrong):
        errors.append("a verdict with a wrong witness passed")
    if not verify.check(q, dict(right, status="true", witnesses=[])):
        errors.append("a wrong status passed")
    return errors


if __name__ == "__main__":
    problems = run()
    for p in problems:
        print(p, file=sys.stderr)
    print("selftest", "failed" if problems else "ok")
    sys.exit(1 if problems else 0)
