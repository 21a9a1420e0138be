"""Command-line surface: a small set DSL plus one subcommand per workflow.

Set expressions:
    finite{a,b,...}   cofinite{a,...}   below(x)   above(x)   nonprimes
    ap(res=r, mod=n, side=below|above, from=x)
    family(lemma43)   family(blocks10)   family(blocks10-complement)
    family(generic, lenI=<expr in k>, lenJ=<expr in k>, origin=x)
    union(S, S)   minus(S, finite{...})   translate(S, g)   neg(S)

The same constructors form the JSON mirror accepted by parse_set_json and
emitted by descriptor_json.  `check` exits with the verdict (0 true, 1
false, 2 unknown); usage and malformed expressions exit 64; domain errors
exit 65.  Output is TSV with a header row, or JSON under --json.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from time import perf_counter

from .acceptance import run_all
from .constructions import (
    builtin,
    ep_shrink,
    finite_index_minimals,
    interval_shrink,
    subgroup_masc,
    thmA2_pair,
    thmD_shrink,
)
from .errors import (
    DslSemanticError,
    DslSyntaxError,
    HypothesisNotObservedError,
    ToolkitError,
)
from .intset import (
    BEPSet,
    CofiniteSet,
    FamilySet,
    FiniteSet,
    IntSet,
    PointwiseSet,
    UnionSet,
    Window,
    above,
    ap,
    below,
    blocks10_family,
    cofinite,
    enumerate_window,
    finite,
    generic_family,
    lemma44_set,
    minus,
    negate,
    nonprimes,
    normalize,
    translate,
    union,
)
from .predicates import (
    DEFAULT_WINDOW,
    asymptotic_exceptional_set,
    is_asymptotic_complement,
    is_complement,
    is_minimal_asymptotic_complement,
    is_minimal_complement,
)
from .search import (
    brute_force_cover,
    cy_gap_classifier,
    greedy_asymptotic_complement,
    minimal_subset_search,
)
from .sumset import windowed_sumset

# ---------------------------------------------------------------------------
# set DSL


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*")
_INT_RE = re.compile(r"-?\d+")


class _DslParser:
    """Recursive descent over the expression grammar in the module docstring,
    into the JSON-mirror node that _from_json builds."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    # -- cursor helpers

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch: str) -> None:
        if self._peek() != ch:
            raise DslSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def _name(self, what: str = "a name") -> str:
        self._skip_ws()
        m = _NAME_RE.match(self.text, self.pos)
        if m is None:
            raise DslSyntaxError(f"expected {what}", self.pos)
        self.pos = m.end()
        return m.group()

    def _int(self) -> int:
        self._skip_ws()
        m = _INT_RE.match(self.text, self.pos)
        if m is None:
            raise DslSyntaxError("expected an integer", self.pos)
        self.pos = m.end()
        return int(m.group())

    def _raw_value(self) -> str:
        """Raw text until a top-level ',' or ')': length expressions."""
        self._skip_ws()
        start = self.pos
        depth = 0
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "(":
                depth += 1
            elif ch == ")":
                if depth == 0:
                    break
                depth -= 1
            elif ch == "," and depth == 0:
                break
            self.pos += 1
        value = self.text[start : self.pos].strip()
        if not value:
            raise DslSyntaxError("expected a value", start)
        return value

    # -- grammar

    def parse(self) -> object:
        node = self._set()
        self._skip_ws()
        if self.pos != len(self.text):
            raise DslSyntaxError("unexpected trailing input", self.pos)
        return node

    def _brace_ints(self) -> list[int]:
        self._expect("{")
        out: list[int] = []
        if self._peek() == "}":
            self.pos += 1
            return out
        while True:
            out.append(self._int())
            ch = self._peek()
            if ch == ",":
                self.pos += 1
                continue
            self._expect("}")
            return out

    def _keywords(self, out: dict[str, object]) -> dict[str, object]:
        """key=value pairs up to ')', added to out; values are ints, names,
        or raw text (the length expressions)."""
        while True:
            key = self._name("a keyword")
            if key in out:
                raise DslSemanticError(f"duplicate keyword {key}")
            self._expect("=")
            if key in ("lenI", "lenJ"):
                out[key] = self._raw_value()
            elif self._peek().isalpha():
                out[key] = self._name("a value")
            else:
                out[key] = self._int()
            ch = self._peek()
            if ch == ",":
                self.pos += 1
                continue
            self._expect(")")
            return out

    def _set(self) -> object:
        """One expression as its JSON-mirror node."""
        name = self._name("a set expression")
        if name == "nonprimes":
            return name
        if name in ("finite", "cofinite"):
            return {name: self._brace_ints()}
        if name not in _CONSTRUCTORS:
            raise DslSemanticError(f"unknown constructor {name!r}")
        self._expect("(")
        if name == "ap":
            return {name: self._keywords({})}
        if name == "family":
            kw = {"rule": self._name("a family rule")}
            if self._peek() != ",":
                self._expect(")")
                return {name: kw}
            self.pos += 1
            return {name: self._keywords(kw)}
        if name in ("below", "above"):
            node: object = {name: self._int()}
        elif name == "neg":
            node = {name: self._set()}
        else:
            a = self._set()
            self._expect(",")
            node = {name: [a, self._int() if name == "translate" else self._set()]}
        self._expect(")")
        return node


_CONSTRUCTORS = ("below", "above", "ap", "family", "union", "minus", "translate", "neg")


def parse_set(text: str) -> IntSet:
    """Parse a set expression; syntax errors carry the offset."""
    return parse_set_json(_DslParser(text).parse())


# ---------------------------------------------------------------------------
# canonical printing and the JSON mirror


def _fold_union(nodes: list) -> object:
    out = nodes[-1]
    for node in reversed(nodes[:-1]):
        out = {"union": [node, out]}
    return out


def _tail_nodes(tail, side: str, boundary: int) -> list:
    if tail.is_empty:
        return []
    if tail.is_full:
        return [{"below" if side == "left" else "above": boundary}]
    return [
        {"ap": {"res": r, "mod": tail.period, "side": "below" if side == "left" else "above", "from": boundary}}
        for r in sorted(tail.residues)
    ]


def _edit_chain(base: object, s) -> object:
    """neg / translate / adds / removes wrapping shared by the pattern kinds."""
    node = base
    if s.negated:
        node = {"neg": node}
    if s.shift:
        node = {"translate": [node, s.shift]}
    if s.adds:
        node = {"union": [node, {"finite": list(s.adds)}]}
    if s.removes:
        node = {"minus": [node, {"finite": list(s.removes)}]}
    return node


def descriptor_json(s: IntSet) -> object:
    """The JSON mirror of the canonical form of s."""
    s = normalize(s)
    if isinstance(s, FiniteSet):
        return {"finite": list(s.elements)}
    if isinstance(s, CofiniteSet):
        return {"cofinite": list(s.excluded)}
    if isinstance(s, BEPSet):
        nodes = _tail_nodes(s.left, "left", s.core_lo)
        if s.core:
            nodes.append({"finite": list(s.core)})
        nodes.extend(_tail_nodes(s.right, "right", s.core_hi))
        return _fold_union(nodes)
    if isinstance(s, FamilySet):
        base: object = {"family": s.rule.params()}
        tail = _tail_nodes(s.left, "left", s.left.threshold)
        if tail:
            base = _fold_union(tail + [base])
        return _edit_chain(base, s)
    if isinstance(s, PointwiseSet):
        return _edit_chain("nonprimes", s)
    if isinstance(s, UnionSet):
        return _fold_union([descriptor_json(p) for p in s.parts])
    raise ToolkitError(f"no canonical form for {type(s).__name__}")


def _render(node: object) -> str:
    if node == "nonprimes":
        return "nonprimes"
    if not isinstance(node, dict) or len(node) != 1:
        raise DslSemanticError(f"malformed descriptor node {node!r}")
    key, val = next(iter(node.items()))
    if key in ("finite", "cofinite"):
        return key + "{" + ",".join(str(t) for t in val) + "}"
    if key in ("below", "above"):
        return f"{key}({val})"
    if key == "ap":
        return (
            f"ap(res={val['res']}, mod={val['mod']}, "
            f"side={val['side']}, from={val['from']})"
        )
    if key == "family":
        if val["rule"] == "generic":
            return (
                f"family(generic, lenI={val['lenI']}, "
                f"lenJ={val['lenJ']}, origin={val['origin']})"
            )
        return f"family({val['rule']})"
    if key in ("union", "minus"):
        return f"{key}({_render(val[0])}, {_render(val[1])})"
    if key == "translate":
        return f"translate({_render(val[0])}, {val[1]})"
    if key == "neg":
        return f"neg({_render(val)})"
    raise DslSemanticError(f"unknown descriptor key {key!r}")


def to_dsl(s: IntSet) -> str:
    """Canonical set expression; parse_set(to_dsl(s)) matches s pointwise."""
    return _render(descriptor_json(s))


def parse_set_json(node: object) -> IntSet:
    """Build a set from the JSON mirror; every malformed node is a
    DslSemanticError."""
    try:
        return _from_json(node)
    except DslSemanticError:
        raise
    except (KeyError, TypeError, IndexError) as e:
        raise DslSemanticError(f"malformed descriptor: {e}") from None
    except (OverflowError, ToolkitError) as e:
        raise DslSemanticError(str(e)) from None


def _check_keywords(what: str, kw: dict, required: set[str], optional: tuple = ()) -> None:
    extra = set(kw) - required - set(optional)
    if extra:
        raise DslSemanticError(f"unknown {what} keywords {sorted(extra)}")
    missing = required - set(kw)
    if missing:
        raise DslSemanticError(f"{what} needs {sorted(missing)}")


def _from_json(node: object) -> IntSet:
    """The one builder: every set expression, DSL or JSON, is built here."""
    if node == "nonprimes" or node == {"nonprimes": {}}:
        return nonprimes()
    if not isinstance(node, dict) or len(node) != 1:
        raise DslSemanticError(f"malformed descriptor node {node!r}")
    key, val = next(iter(node.items()))
    if key == "finite":
        if not val:
            raise DslSemanticError("finite [] would be the empty set")
        return finite(val)
    if key == "cofinite":
        return cofinite(val)
    if key == "below":
        return below(val)
    if key == "above":
        return above(val)
    if key == "ap":
        _check_keywords("ap", val, {"res", "mod", "side", "from"})
        return ap(val["res"], val["mod"], val["side"], val["from"])
    if key == "family":
        rule = val["rule"]
        if rule == "generic":
            _check_keywords("family(generic)", val, {"rule", "lenI", "lenJ"}, ("origin",))
            return generic_family(val["lenI"], val["lenJ"], val.get("origin", 0))
        if rule not in ("lemma43", "blocks10", "blocks10-complement"):
            raise DslSemanticError(f"unknown family rule {rule!r}")
        _check_keywords(f"family({rule})", val, {"rule"})
        if rule == "lemma43":
            return lemma44_set()
        return blocks10_family(rule == "blocks10-complement")
    if key == "union":
        return union(_from_json(val[0]), _from_json(val[1]))
    if key == "minus":
        kept, removed = _from_json(val[0]), _from_json(val[1])
        if not isinstance(removed, FiniteSet):
            raise DslSemanticError("minus removes a finite set only")
        return minus(kept, removed)
    if key == "translate":
        return translate(_from_json(val[0]), val[1])
    if key == "neg":
        return negate(_from_json(val))
    raise DslSemanticError(f"unknown descriptor key {key!r}")


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 64 on usage problems
        self.exit(64, f"{self.prog}: error: {message}\n")


def _window_arg(text: str) -> Window:
    m = re.fullmatch(r"(-?\d+):(-?\d+)", text)
    if m is None:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise argparse.ArgumentTypeError(f"window {text!r} is empty")
    return Window(lo, hi)


def _ints_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


_VALUE_FLAGS = {"--window", "--target", "--pair", "--triple", "--F"}


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join flag and value when the value starts with '-' (e.g. -1000:1000)."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok in _VALUE_FLAGS
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
            and not argv[i + 1].startswith("--")
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="addcomp", allow_abbrev=False, description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON instead of TSV")
        return p

    p = add("eval", "enumerate a set expression on a window")
    p.add_argument("--set", required=True, help="set expression")
    p.add_argument("--window", type=_window_arg, default=None, help="lo:hi (default -200:200)")

    p = add("sumset", "coverage of a window by W + C")
    p.add_argument("--w", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--window", type=_window_arg, default=None)
    p.add_argument("--radius", type=int, default=None, help="enumeration radius for C")
    p.add_argument("--brute", action="store_true", help="definitional enumeration instead of the exact kernel")

    p = add("check", "decide a predicate; exit code is the verdict")
    p.add_argument("--w", required=True)
    p.add_argument("--c", required=True)
    p.add_argument(
        "--predicate",
        required=True,
        choices=("complement", "ac", "aes", "mc", "mac"),
        help="complement, asymptotic complement, exceptional set, or minimality",
    )
    p.add_argument("--window", type=_window_arg, default=None)
    p.add_argument("--radius", type=int, default=None)

    p = add("shrink", "drop an element of C with a loss certificate")
    p.add_argument("--method", required=True, choices=("ep", "interval", "thmD"))
    p.add_argument("--w", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--pair", type=_ints_arg, default=None, help="a,b for method ep")
    p.add_argument("--triple", type=_ints_arg, default=None, help="a,b,c for interval/thmD")
    p.add_argument("--horizon", type=int, default=10**6, help="gap scan horizon for thmD")
    p.add_argument("--window", type=_window_arg, default=None)

    p = add("construct", "build a complement or a named set")
    p.add_argument("what", choices=("thmA2", "masc", "fim", "greedy", "builtin"))
    p.add_argument("--w", default=None)
    p.add_argument("--c", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--target", type=_window_arg, default=None)
    p.add_argument("--name", default=None, help="builtin name")
    p.add_argument("--variant", type=int, default=None)
    p.add_argument("--F", type=_ints_arg, default=None)
    p.add_argument("--a", type=int, default=None)

    p = add("search", "enumerate minimal holding subsets of a finite C")
    p.add_argument("--w", required=True)
    p.add_argument("--c", required=True)

    p = add("gaps", "gap trends of W and its positive complement")
    p.add_argument("--set", required=True)
    p.add_argument("--horizon", type=int, default=10**4)

    p = add("verify-paper", "run the acceptance suite")
    p.add_argument("--seed", type=int, default=0)

    return parser


# ---------------------------------------------------------------------------
# output


def _emit(args, header: list[str], rows: list[list], payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
        return
    print("\n".join(["\t".join(header)] + ["\t".join(str(cell) for cell in row) for row in rows]))


def _ints(values) -> str:
    return ",".join(str(t) for t in values)


def _removals_str(removals) -> str:
    return ";".join(f"{x}:{_ints(w)}" for x, w in removals)


def _verdict_rows(predicate: str, v) -> list[list]:
    return [
        ["predicate", predicate],
        ["status", v.status],
        ["exact", "yes" if v.exact else "no"],
        ["witnesses", _ints(v.witnesses)],
        ["evidence", "" if v.evidence is None else _ints(v.evidence)],
        ["removals", _removals_str(v.removals)],
        ["detail", v.detail],
    ]


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# commands


def _cmd_eval(args) -> int:
    s = normalize(parse_set(args.set))
    win = args.window or DEFAULT_WINDOW
    elems = enumerate_window(s, win)
    _emit(
        args,
        ["element"],
        [[t] for t in elems],
        {
            "canonical": to_dsl(s),
            "descriptor": descriptor_json(s),
            "window": win.to_json(),
            "count": len(elems),
            "elements": elems,
        },
    )
    return 0


def _cmd_sumset(args) -> int:
    w = parse_set(args.w)
    c = parse_set(args.c)
    win = args.window or DEFAULT_WINDOW
    if args.brute:
        mask = brute_force_cover(w, c, win, args.radius)
    else:
        mask = windowed_sumset(w, c, win, args.radius)
    inner = mask.interior()
    rows = [
        [t, int(hit), int(inner is not None and t in inner)]
        for t, hit in zip(win, mask.flags().tolist())
    ]
    payload = mask.to_json()
    payload["uncoveredInterior"] = mask.uncovered_interior()
    payload["coveredCount"] = mask.covered_count()
    _emit(args, ["t", "covered", "trusted"], rows, payload)
    return 0


_PREDICATES = {
    "complement": is_complement,
    "ac": is_asymptotic_complement,
    "aes": asymptotic_exceptional_set,
    "mc": is_minimal_complement,
    "mac": is_minimal_asymptotic_complement,
}


def _cmd_check(args) -> int:
    w = parse_set(args.w)
    c = parse_set(args.c)
    v = _PREDICATES[args.predicate](w, c, args.window, args.radius)
    _emit(
        args,
        ["field", "value"],
        _verdict_rows(args.predicate, v),
        {"predicate": args.predicate, **v.to_json()},
    )
    return v.exit_code()


def _cmd_shrink(args) -> int:
    w = parse_set(args.w)
    c = parse_set(args.c)
    note = ""
    if args.method == "ep":
        pair = args.pair
        if pair is not None and len(pair) != 2:
            raise _UsageError("--pair needs exactly two integers")
        shrunk, cert = ep_shrink(w, c, pair, args.window)
    else:
        triple = args.triple
        if triple is not None and len(triple) != 3:
            raise _UsageError("--triple needs exactly three integers")
        if args.method == "interval":
            shrunk, cert = interval_shrink(w, c, triple, args.window)
        else:
            try:
                shrunk, cert = thmD_shrink(w, c, triple, args.horizon, args.window)
            except HypothesisNotObservedError as e:
                if not isinstance(normalize(w), FamilySet):
                    raise
                note = f"gap floor not observed ({e.report}); interval certificate used instead"
                shrunk, cert = interval_shrink(w, c, triple, args.window)
    rows = [
        ["method", args.method],
        ["removed", cert.removed],
        ["frame", _ints(cert.frame)],
        ["lossLo", cert.loss_bound.lo],
        ["lossHi", cert.loss_bound.hi],
        ["thresholds", "" if cert.thresholds is None else _ints(cert.thresholds)],
        ["shrunk", to_dsl(shrunk)],
        ["note", note],
    ]
    _emit(
        args,
        ["field", "value"],
        rows,
        {
            "method": args.method,
            "certificate": cert.to_json(),
            "shrunk": {"dsl": to_dsl(shrunk), "descriptor": descriptor_json(shrunk)},
            "note": note,
        },
    )
    return 0


def _require(args, flag: str, what: str):
    value = getattr(args, flag.lstrip("-"))
    if value is None:
        raise _UsageError(f"construct {what} requires {flag}")
    return value


def _cmd_construct(args) -> int:
    what = args.what
    if what in ("thmA2", "masc"):
        if what == "thmA2":
            cset, v = thmA2_pair(parse_set(_require(args, "--w", what)))
        else:
            n = _require(args, "--n", what)
            cset, v = subgroup_masc(n, parse_set(_require(args, "--c", what)))
        rows = [["set", to_dsl(cset)], ["elements", _ints(cset.elements)]]
        rows += _verdict_rows("mc" if what == "thmA2" else "mac", v)
        payload = {
            "set": to_dsl(cset),
            "elements": list(cset.elements),
            "verdict": v.to_json(),
        }
    elif what == "fim":
        w = parse_set(_require(args, "--w", what))
        comp, asym = finite_index_minimals(w, args.n)
        rows = [
            ["complement", _ints(comp.elements)],
            ["asymptotic", _ints(asym.elements)],
        ]
        payload = {
            "complement": list(comp.elements),
            "asymptotic": list(asym.elements),
        }
    elif what == "greedy":
        w = parse_set(_require(args, "--w", what))
        target = _require(args, "--target", what)
        cset, skipped = greedy_asymptotic_complement(w, target)
        rows = [
            ["set", to_dsl(cset)],
            ["elements", _ints(cset.elements)],
            ["skipped", _ints(skipped)],
        ]
        payload = {
            "set": to_dsl(cset),
            "elements": list(cset.elements),
            "skipped": skipped,
        }
    else:
        name = _require(args, "--name", what)
        params = {}
        if args.variant is not None:
            params["variant"] = args.variant
        if args.F is not None:
            params["F"] = list(args.F)
        if args.a is not None:
            params["a"] = args.a
        if args.n is not None:
            params["n"] = args.n
        s = builtin(name, **params)
        sample = enumerate_window(s, DEFAULT_WINDOW)
        shown = _ints(sample[:20]) + (",..." if len(sample) > 20 else "")
        rows = [["canonical", to_dsl(s)], ["sample", shown]]
        payload = {
            "canonical": to_dsl(s),
            "descriptor": descriptor_json(s),
            "sample": sample[:20],
        }
    _emit(args, ["field", "value"], rows, payload)
    return 0


def _cmd_search(args) -> int:
    w = parse_set(args.w)
    c = parse_set(args.c)
    start = perf_counter()
    comp_min, ac_min = minimal_subset_search(w, c)
    ms = round((perf_counter() - start) * 1000)
    rows = []
    idx = 0
    for kind, found in (("complement", comp_min), ("asymptotic", ac_min)):
        for sub in found:
            rows.append([idx, kind, "minimal", _ints(sub.elements), ms])
            idx += 1
    _emit(
        args,
        ["instance", "predicate", "status", "witness", "runtime-ms"],
        rows,
        {
            "complement": [list(s.elements) for s in comp_min],
            "asymptotic": [list(s.elements) for s in ac_min],
            "runtimeMs": ms,
        },
    )
    return 0


def _cmd_gaps(args) -> int:
    s = parse_set(args.set)
    report = cy_gap_classifier(s, args.horizon)
    ws, ms = report["wGaps"], report["complementGaps"]
    rows = [
        ["window", f"{report['window'][0]}:{report['window'][1]}"],
        ["memberCount", report["memberCount"]],
        ["wGapMax", ws["max"]],
        ["wGapQuarterMaxes", _ints(ws["quarterMaxes"])],
        ["complementGapMax", ms["max"]],
        ["complementGapQuarterMins", _ints(ms["quarterMins"])],
        ["cy2a", "yes" if report["flags"]["cy2a"] else "no"],
        ["cy2b", "yes" if report["flags"]["cy2b"] else "no"],
        ["thmD", "yes" if report["flags"]["thmD"] else "no"],
        ["notes", "; ".join(report["notes"])],
    ]
    _emit(args, ["field", "value"], rows, report)
    return 0


def _cmd_verify(args) -> int:
    rows = run_all(seed=args.seed, out=None)
    table = [
        [r["index"], r["name"], "PASS" if r["ok"] else "FAIL", r["seconds"], r["detail"]]
        for r in rows
    ]
    _emit(
        args,
        ["claim", "name", "status", "seconds", "detail"],
        table,
        {"seed": args.seed, "claims": rows},
    )
    return 0 if all(r["ok"] for r in rows) else 1


_COMMANDS = {
    "eval": _cmd_eval,
    "sumset": _cmd_sumset,
    "check": _cmd_check,
    "shrink": _cmd_shrink,
    "construct": _cmd_construct,
    "search": _cmd_search,
    "gaps": _cmd_gaps,
    "verify-paper": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(_merge_negative_values(argv))
    except SystemExit as e:
        return 0 if e.code in (0, None) else int(e.code)
    try:
        return _COMMANDS[args.command](args)
    except (_UsageError, OverflowError, ToolkitError) as e:
        print(f"addcomp: error: {e}", file=sys.stderr)
        if isinstance(e, HypothesisNotObservedError) and e.report:
            print(json.dumps(e.report, indent=2), file=sys.stderr)
        return 64 if isinstance(e, (_UsageError, DslSyntaxError, DslSemanticError)) else 65


if __name__ == "__main__":
    sys.exit(main())
