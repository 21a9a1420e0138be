"""Golden CLI corpus: stdout and exit code of a fixed set of commands.

Each case replays ``cli.main(argv)`` in-process and compares its stdout and
exit code byte for byte against ``golden/cli_corpus.json``.  The corpus
holds refactors to identical output; a change that means to alter output
regenerates it with

    PYTHONPATH=src python tests/test_golden_cli.py

and the diff of the data file shows what changed.  The runtime column of
``search`` is masked, and ``verify-paper`` (timings in every row) is left out.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import re
import sys
from pathlib import Path

import pytest

from addcomp.cli import main

CORPUS = Path(__file__).parent / "golden" / "cli_corpus.json"

NP = "nonprimes"
F01 = "finite{0,1}"
UP3 = "ap(res=0, mod=3, side=above, from=0)"
ODD_BELOW = "ap(res=1, mod=2, side=below, from=0)"

_CASES = [
    ["eval", "--set", "union(finite{1,2}, above(8))", "--window", "0:12"],
    ["eval", "--set", NP, "--window", "90:130"],
    ["eval", "--set", "family(lemma43)", "--window", "-20:80"],
    ["eval", "--set", "ap(res=1, mod=3, side=below, from=5)", "--window", "-20:20"],
    ["eval", "--set", "minus(below(0), finite{-5})", "--window", "-10:2"],
    ["eval", "--set", "family(blocks10-complement)", "--window", "0:40"],
    ["eval", "--set", "neg(translate(cofinite{0,3}, 2))", "--window", "-8:8"],
    ["eval", "--set", "family(generic, lenI=k, lenJ=k+1, origin=3)", "--window", "0:60"],
    ["sumset", "--w", NP, "--c", F01, "--window", "0:60"],
    ["sumset", "--w", "family(lemma43)", "--c", "family(lemma43)",
     "--window", "-50:50", "--radius", "30"],
    ["sumset", "--w", NP, "--c", "family(blocks10)", "--window", "100:160", "--radius", "12"],
    ["sumset", "--w", UP3, "--c", F01, "--window", "-20:20", "--brute"],
    ["sumset", "--w", UP3, "--c", "below(2)", "--window", "-20:20", "--brute", "--radius", "15"],
    ["sumset", "--w", "cofinite{0,2}", "--c", F01, "--window", "-10:10"],
    ["sumset", "--w", ODD_BELOW, "--c", UP3, "--window", "-30:30"],
    ["sumset", "--w", "family(lemma43)", "--c", "finite{0,5,9,14}", "--window", "-40:120"],
    ["check", "--w", NP, "--c", F01, "--predicate", "complement"],
    ["check", "--w", NP, "--c", F01, "--predicate", "ac"],
    ["check", "--w", NP, "--c", F01, "--predicate", "aes"],
    ["check", "--w", NP, "--c", F01, "--predicate", "mc", "--window", "-300:300"],
    ["check", "--w", NP, "--c", F01, "--predicate", "mac", "--window", "-1000:1000"],
    ["check", "--w", "family(lemma43)", "--c", "family(lemma43)", "--predicate", "complement"],
    ["check", "--w", "family(lemma43)", "--c", "family(lemma43)",
     "--predicate", "ac", "--radius", "40", "--window", "-200:200"],
    ["check", "--w", "cofinite{0,2}", "--c", F01, "--predicate", "complement"],
    ["check", "--w", "cofinite{0,2}", "--c", F01, "--predicate", "mc"],
    ["check", "--w", ODD_BELOW, "--c", UP3, "--predicate", "aes"],
    ["check", "--w", "family(lemma43)", "--c", "finite{0,5,9,14}", "--predicate", "mac",
     "--window", "-1000:4200"],
    ["check", "--w", "family(blocks10-complement)", "--c", "finite{0,5,9}",
     "--predicate", "ac", "--window", "-500:500"],
    ["check", "--w", "family(generic, lenI=k, lenJ=k+1)", "--c", "finite{0,1,2}",
     "--predicate", "ac"],
    ["shrink", "--method", "ep", "--w", "above(-1)", "--c", "below(1)", "--pair", "-5,-3"],
    ["shrink", "--method", "interval", "--w", "family(lemma43)", "--c", "finite{0,7,13}",
     "--triple", "0,7,13"],
    ["shrink", "--method", "thmD", "--w", "family(blocks10-complement)",
     "--c", "finite{0,5,9}", "--triple", "0,5,9", "--horizon", "3000"],
    ["shrink", "--method", "thmD", "--w", "minus(above(0), finite{2,4,8,16,32,64,128,256,512})",
     "--c", "below(1)", "--triple", "-3,-2,0", "--horizon", "600"],
    ["construct", "thmA2", "--w", "cofinite{0,2}"],
    ["construct", "masc", "--n", "3", "--c", "ap(res=0, mod=2, side=above, from=-1)"],
    ["construct", "fim", "--w", "union(ap(res=0, mod=4, side=above, from=-1), "
     "union(ap(res=0, mod=4, side=below, from=1), finite{1}))"],
    ["construct", "greedy", "--w", "finite{0,3,4}", "--target", "-30:30"],
    ["construct", "builtin", "--name", "thmC", "--variant", "4", "--a", "0", "--n", "2"],
    ["construct", "builtin", "--name", "lemma44"],
    ["search", "--w", "cofinite{0}", "--c", F01],
    ["search", "--w", UP3, "--c", "finite{0,1,2,4}"],
    ["gaps", "--set", "family(blocks10-complement)", "--horizon", "2000"],
    ["gaps", "--set", NP, "--horizon", "3000"],
    ["gaps", "--set", "family(lemma43)", "--horizon", "5000"],
]

# usage and domain errors: stdout is empty, the exit code is the contract
_ERRORS = [
    ["check", "--w", "finite{0}"],
    ["eval", "--set", "finite{1,"],
    ["eval", "--set", "ap(res=1, mod=0, side=below, from=2)"],
    ["nonsense"],
    ["construct", "masc", "--n", "3"],
    ["shrink", "--method", "ep", "--w", "above(-1)", "--c", "below(1)", "--pair", "1,2,3"],
    ["sumset", "--w", "family(lemma43)", "--c", "family(lemma43)", "--window", "0:10"],
    ["shrink", "--method", "thmD", "--w", "minus(above(0), finite{4,9})",
     "--c", "below(1)", "--triple", "-9,-1,0", "--horizon", "500"],
    ["shrink", "--method", "interval", "--w", "family(lemma43)", "--c", "finite{0,7,13}",
     "--triple", "0,5,13"],
    ["construct", "fim", "--w", "cofinite{1}", "--n", "1"],
    ["eval", "--set", "finite{99999999999999999999}"],
]

# test ids are positions in CASES, so later cases go after the first ones
_FAR_AND_EDITED = [
    # nonprimes far out: sieve roots inside the base-prime table near 1e12,
    # beyond it (Miller-Rabin on the survivors) near 1e13
    ["eval", "--set", NP, "--window", "1000000000000:1000000000120"],
    ["sumset", "--w", NP, "--c", "finite{0,6}", "--window", "1000000004800:1000000004999"],
    ["eval", "--set", NP, "--window", "10000000000000:10000000000120"],
    ["sumset", "--w", NP, "--c", "finite{0,6}", "--window", "10000000000150:10000000000299"],
    ["eval", "--set", "translate(union(minus(nonprimes, finite{4,9,25}), finite{-3,17,23}), 5)",
     "--window", "-20:40"],
    ["eval", "--set", "neg(union(minus(translate(nonprimes, -2), finite{7,8}), finite{3,5}))",
     "--window", "-40:20"],
    ["eval", "--set", "neg(family(generic, lenI=k, lenJ=k+1, origin=3))", "--window", "-60:5"],
    ["eval", "--set", "translate(neg(union(minus(family(blocks10), finite{12,41}), finite{-7,0})), 30)",
     "--window", "-60:40"],
    # shifted windows far apart, and radius elements in several separate runs
    ["sumset", "--w", NP, "--c", "finite{0,5000}", "--window", "1000000000000:1000000000199"],
    ["sumset", "--w", "family(lemma43)", "--c", "translate(family(lemma43), -90)",
     "--window", "60:70", "--radius", "100"],
]

_RANGE_ERRORS = [
    ["eval", "--set", "translate(nonprimes, -9000000000000000000)",
     "--window=9000000000000000000:9000000000000000005"],
    ["eval", "--set", "family(lemma43)", "--window", "2199023256400:2199023256420"],
]


# a radius margin wider than half the window leaves no trusted interior
_EMPTY_INTERIOR = [
    ["check", "--w", "family(lemma43)", "--c", "family(lemma43)", "--predicate", "complement",
     "--window=0:10", "--radius", "100"],
]

# every uncovered point lies past 10^6
_FAR_WITNESSES = [
    ["check", "--w", "below(2000000)", "--c", "finite{0}", "--predicate", "complement"],
]


# a reflected block family: the block-gap route reads the gaps in outer
# coordinates
_REFLECTED_BLOCK_GAPS = [
    ["check", "--w", "neg(family(blocks10))", "--c", "finite{0,1,3}", "--predicate", "aes"],
]

# a union the fold cannot carry as edits stays a union
_WIDE_UNION = [
    ["eval", "--set", "union(family(blocks10), below(1000000000000))", "--window=0:5"],
]

# the nonprime route proves the exceptional set empty, so the window's true
# is exact
_ROUTE_PROVED = [
    ["check", "--w", NP, "--c", "finite{0,1,3}", "--predicate", "complement"],
    ["check", "--w", NP, "--c", "finite{0,1,3}", "--predicate", "mc"],
]


def _both_formats(cases: list[list[str]]) -> list[list[str]]:
    return [argv + fmt for argv in cases for fmt in ([], ["--json"])]


CASES = (
    _both_formats(_CASES) + _ERRORS + _both_formats(_FAR_AND_EDITED) + _RANGE_ERRORS
    + _EMPTY_INTERIOR + _FAR_WITNESSES + _both_formats(_REFLECTED_BLOCK_GAPS)
    + _both_formats(_WIDE_UNION) + _both_formats(_ROUTE_PROVED)
)


def _mask(argv: list[str], out: str) -> str:
    """Blank the one wall-clock field, the runtime of ``search``."""
    if argv[0] != "search":
        return out
    if "--json" in argv:
        return re.sub(r'"runtimeMs": \d+', '"runtimeMs": 0', out)
    return re.sub(r"\t\d+$", "\t0", out, flags=re.M)


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": _mask(argv, out.getvalue())}


@functools.cache
def _load() -> list[dict]:
    return json.loads(CORPUS.read_text())


@pytest.mark.parametrize("idx", range(len(CASES)), ids=lambda i: f"{i:02d}-{CASES[i][0]}")
def test_golden_cli(idx):
    want = _load()[idx]
    assert want["argv"] == CASES[idx], "corpus is out of step with CASES; regenerate it"
    got = run(CASES[idx])
    assert got["exit"] == want["exit"], CASES[idx]
    assert got["stdout"] == want["stdout"], CASES[idx]


def test_golden_corpus_exercises_every_exit_code():
    codes = {case["exit"] for case in _load()}
    assert {0, 1, 2, 64, 65} <= codes


def _false_verdict_witnesses(case: dict) -> list | None:
    """The witnesses of a ``check`` that printed a false verdict, else None."""
    if case["argv"][0] != "check" or not case["stdout"]:
        return None
    if "--json" in case["argv"]:
        verdict = json.loads(case["stdout"])
        return verdict["witnesses"] if verdict["status"] == "false" else None
    fields = dict(line.split("\t", 1) for line in case["stdout"].splitlines())
    return fields["witnesses"].split(",") if fields["status"] == "false" else None


def test_golden_false_verdicts_name_witnesses():
    """A false verdict promises at least one uncovered point, in both formats."""
    falses = [w for w in map(_false_verdict_witnesses, _load()) if w is not None]
    assert falses and all(w and w != [""] for w in falses)


if __name__ == "__main__":
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps([run(argv) for argv in CASES], indent=1) + "\n")
    print(f"wrote {len(CASES)} cases to {CORPUS}", file=sys.stderr)
