"""DSL parsing and printing, command outputs, and the exit-code contract."""
from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomp.cli import descriptor_json, main, parse_set, parse_set_json, to_dsl
from addcomp.errors import DslSemanticError, DslSyntaxError, ToolkitError
from addcomp.intset import (
    FamilySet,
    Window,
    contains,
    enumerate_window,
    finite,
    lemma43_set,
    normalize,
    subgroup_set,
    union,
)


def test_parse_ray_union_family():
    s = parse_set("union(below(4), family(lemma43))")
    assert isinstance(normalize(s), FamilySet)
    for t in range(-20, 60):
        assert contains(s, t) == contains(lemma43_set(), t)


def test_parse_positive_odds():
    s = parse_set("ap(res=1, mod=2, side=above, from=0)")
    assert enumerate_window(s, Window(-4, 8)) == [1, 3, 5, 7]


def test_parse_minus():
    s = parse_set("minus(below(0), finite{-5})")
    assert not contains(s, -5)
    assert contains(s, -6) and contains(s, -1)
    assert not contains(s, 0)


def test_parse_whitespace_tolerant():
    a = parse_set("union( finite{ 1 , 2 } , above( 8 ) )")
    b = parse_set("union(finite{1,2}, above(8))")
    assert normalize(a) == normalize(b)


def test_syntax_error_carries_position():
    with pytest.raises(DslSyntaxError) as err:
        parse_set("finite{1,")
    assert err.value.position == 9
    assert "offset 9" in str(err.value)


def test_syntax_error_on_trailing_input():
    with pytest.raises(DslSyntaxError):
        parse_set("finite{1} junk")


def test_semantic_error_zero_modulus():
    with pytest.raises(DslSemanticError):
        parse_set("ap(res=1, mod=0, side=below, from=2)")


def test_semantic_error_empty_finite():
    with pytest.raises(DslSemanticError):
        parse_set("finite{}")


def test_semantic_error_unknown_constructor():
    with pytest.raises(DslSemanticError):
        parse_set("bogus(3)")


def test_semantic_error_minus_needs_finite():
    with pytest.raises(DslSemanticError):
        parse_set("minus(nonprimes, below(0))")


def test_semantic_error_duplicate_keyword():
    with pytest.raises(DslSemanticError):
        parse_set("ap(res=1, res=2, mod=3, side=below, from=0)")


_CORPUS = [
    "finite{0,1,-5}",
    "cofinite{0,2}",
    "cofinite{}",
    "below(4)",
    "above(-3)",
    "ap(res=1, mod=3, side=below, from=10)",
    "ap(res=0, mod=2, side=above, from=-6)",
    "nonprimes",
    "union(nonprimes, finite{2,3})",
    "minus(nonprimes, finite{0,1})",
    "neg(nonprimes)",
    "translate(nonprimes, 7)",
    "family(lemma43)",
    "union(below(4), family(lemma43))",
    "family(blocks10)",
    "family(blocks10-complement)",
    "family(generic, lenI=k, lenJ=2*k + 1, origin=5)",
    "translate(neg(family(lemma43)), 9)",
    "minus(union(family(lemma43), finite{100,200}), finite{2,3})",
    "union(below(0), above(10))",
    "union(finite{5}, union(below(-20), above(40)))",
    "union(ap(res=1, mod=4, side=below, from=0), union(finite{0,1,2}, ap(res=3, mod=5, side=above, from=2)))",
    "minus(cofinite{}, finite{17})",
    "union(union(below(1), finite{3,5}), ap(res=0, mod=7, side=above, from=5))",
]


def test_print_parse_round_trip():
    """parse(print(S)) has the same members as S on [-500, 500]."""
    win = Window(-500, 500)
    for text in _CORPUS:
        s = parse_set(text)
        back = parse_set(to_dsl(s))
        assert enumerate_window(back, win) == enumerate_window(s, win), text


def test_json_mirror_round_trip():
    win = Window(-500, 500)
    for text in _CORPUS:
        s = parse_set(text)
        blob = json.loads(json.dumps(descriptor_json(s)))
        back = parse_set_json(blob)
        assert enumerate_window(back, win) == enumerate_window(s, win), text


def test_printed_form_is_stable():
    for text in _CORPUS:
        printed = to_dsl(parse_set(text))
        assert to_dsl(parse_set(printed)) == printed, text


def test_random_bep_round_trips():
    rng = random.Random(6)
    win = Window(-500, 500)
    for _ in range(30):
        parts = [finite(rng.sample(range(-40, 40), rng.randrange(1, 4)))]
        if rng.random() < 0.7:
            parts.append(subgroup_set(rng.randrange(1, 7)))
        s = parts[0]
        for p in parts[1:]:
            s = union(s, p)
        back = parse_set(to_dsl(s))
        assert enumerate_window(back, win) == enumerate_window(s, win)


def test_check_exit_codes(capsys):
    code = main(["check", "--w", "nonprimes", "--c", "finite{0,1}",
                 "--predicate", "mac", "--window", "-1000:1000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "evidence\t3" in out
    code = main(["check", "--w", "nonprimes", "--c", "finite{0,1}",
                 "--predicate", "complement"])
    assert code == 1
    code = main(["check", "--w", "family(lemma43)", "--c", "family(lemma43)",
                 "--predicate", "complement"])
    assert code == 2


def test_check_json_output(capsys):
    code = main(["check", "--w", "nonprimes", "--c", "finite{0,1}",
                 "--predicate", "aes", "--json"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["status"] == "true"
    assert blob["evidence"] == [3]


def test_usage_errors_exit_64(capsys):
    assert main(["check", "--w", "finite{0}"]) == 64
    assert main(["eval", "--set", "finite{1,"]) == 64
    assert main(["eval", "--set", "ap(res=1, mod=0, side=below, from=2)"]) == 64
    assert main(["nonsense"]) == 64
    assert main(["construct", "masc", "--n", "3"]) == 64
    capsys.readouterr()


def test_domain_errors_exit_65(capsys):
    # gap floor never observed for the persistent-gap family, W not a family
    code = main(["shrink", "--method", "thmD", "--w", "minus(above(0), finite{4,9})",
                 "--c", "below(1)", "--triple", "-9,-1,0", "--horizon", "500"])
    assert code == 65
    err = capsys.readouterr().err
    assert "addcomp: error:" in err


def test_construct_pair_output(capsys):
    code = main(["construct", "thmA2", "--w", "cofinite{0,2}"])
    out = capsys.readouterr().out
    assert code == 0
    assert "finite{0,1}" in out
    assert "status\ttrue" in out
    assert "exact\tyes" in out


def test_eval_tsv_shape(capsys):
    code = main(["eval", "--set", "union(finite{1,2}, above(8))", "--window", "0:12"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "element"
    assert out[1:] == ["1", "2", "9", "10", "11", "12"]


def test_sumset_tsv_shape(capsys):
    code = main(["sumset", "--w", "nonprimes", "--c", "finite{0,1}",
                 "--window", "0:6"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "t\tcovered\ttrusted"
    row3 = out[4].split("\t")
    assert row3 == ["3", "0", "1"]


def test_shrink_fallback_note(capsys):
    code = main(["shrink", "--method", "thmD",
                 "--w", "family(blocks10-complement)",
                 "--c", "finite{0,5,9}", "--triple", "0,5,9",
                 "--horizon", "3000", "--json"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert "interval certificate" in blob["note"]
    assert blob["certificate"]["removed"] == 5


def test_search_tsv_columns(capsys):
    code = main(["search", "--w", "cofinite{0}", "--c", "finite{0,1}"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "instance\tpredicate\tstatus\twitness\truntime-ms"
    kinds = [line.split("\t")[1] for line in out[1:]]
    assert kinds == ["complement", "asymptotic", "asymptotic"]


def test_gaps_command(capsys):
    code = main(["gaps", "--set", "family(blocks10-complement)", "--horizon", "2000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "thmD\tno" in out


def test_negative_window_value_accepted(capsys):
    code = main(["eval", "--set", "finite{-3}", "--window", "-5:5"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out == ["element", "-3"]


# ---------------------------------------------------------------------------
# the DSL and the JSON mirror build the same sets

_NO_JSON = object()  # a draft the JSON mirror cannot spell: a repeated key
_NAMES = st.sampled_from(["x", "k", "below"])
_BREAKS = ["none"] * 6 + ["unknown", "missing", "duplicate", "name", "mod0", "side"]


@st.composite
def _keywords(draw, pairs: list) -> tuple[str, object]:
    """Keyword text and dict, maybe broken: an unknown, missing or repeated
    keyword, a name where an int belongs, mod=0, or a bad side."""
    how = draw(st.sampled_from(_BREAKS))
    keys = [k for k, _ in pairs]
    if how == "unknown":
        pairs.append(("bogus", 1))
    elif how == "missing":
        del pairs[draw(st.integers(0, len(pairs) - 1))]
    elif how == "duplicate":
        pairs.append(draw(st.sampled_from(pairs)))
    elif how == "name":
        i = draw(st.integers(0, len(pairs) - 1))
        pairs[i] = (pairs[i][0], draw(_NAMES))
    elif how == "mod0" and "mod" in keys:
        pairs[keys.index("mod")] = ("mod", 0)
    elif how == "side" and "side" in keys:
        pairs[keys.index("side")] = ("side", draw(st.sampled_from(["left", 3])))
    text = ", ".join(f"{k}={v}" for k, v in pairs)
    node = dict(pairs) if len({k for k, _ in pairs}) == len(pairs) else _NO_JSON
    return text, node


def _ints(values: list[int]) -> str:
    return ",".join(map(str, values))


@st.composite
def _leaf(draw) -> tuple[str, object]:
    kind = draw(st.sampled_from(["nonprimes", "finite", "cofinite", "ray", "ap", "family"]))
    if kind == "nonprimes":
        return "nonprimes", "nonprimes"
    if kind in ("finite", "cofinite"):
        xs = draw(st.lists(st.integers(-30, 30), min_size=int(kind == "finite"), max_size=4))
        return f"{kind}{{{_ints(xs)}}}", {kind: xs}
    if kind == "ray":
        side, x = draw(st.sampled_from(["below", "above"])), draw(st.integers(-30, 30))
        return f"{side}({x})", {side: x}
    if kind == "ap":
        text, kw = draw(_keywords([
            ("res", draw(st.integers(-5, 5))),
            ("mod", draw(st.integers(1, 6))),
            ("side", draw(st.sampled_from(["below", "above"]))),
            ("from", draw(st.integers(-30, 30))),
        ]))
        return f"ap({text})", {"ap": kw}
    rule = draw(st.sampled_from(["lemma43", "blocks10", "blocks10-complement", "generic"]))
    if rule == "generic":
        len_i, len_j = draw(st.sampled_from([("k", "k+1"), ("2*k+1", "3*k")]))
        pairs = [("lenI", len_i), ("lenJ", len_j)]
        if draw(st.booleans()):
            pairs.append(("origin", draw(st.integers(-20, 20))))
    elif draw(st.booleans()):
        return f"family({rule})", {"family": {"rule": rule}}
    else:
        pairs = [("origin", 3)]  # no keyword belongs to the fixed rules
    text, kw = draw(_keywords(pairs))
    node = _NO_JSON if kw is _NO_JSON else {"family": {"rule": rule, **kw}}
    return f"family({rule}, {text})" if text else f"family({rule})", node


def _join(key: str, value: object, *children: object) -> object:
    return _NO_JSON if _NO_JSON in children else {key: value}


@st.composite
def _draft(draw, depth: int = 3) -> tuple[str, object]:
    """A set expression tree as DSL text and JSON-mirror node."""
    kind = draw(st.sampled_from(["leaf"] * 3 + (["union", "minus", "translate", "neg"] if depth else [])))
    if kind == "leaf":
        return draw(_leaf())
    a_text, a = draw(_draft(depth - 1))
    if kind == "neg":
        return f"neg({a_text})", _join("neg", a, a)
    if kind == "translate":
        g = draw(st.integers(-50, 50))
        return f"translate({a_text}, {g})", _join("translate", [a, g], a)
    if kind == "minus" and draw(st.integers(0, 3)):
        xs = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=4))
        b_text, b = f"finite{{{_ints(xs)}}}", {"finite": xs}
    else:  # union, or minus of any set
        b_text, b = draw(_draft(depth - 1))
    return f"{kind}({a_text}, {b_text})", _join(kind, [a, b], a, b)


def _members(build) -> object:
    try:
        return enumerate_window(build(), Window(-300, 300))
    except (OverflowError, ToolkitError) as e:
        return type(e)


@settings(max_examples=300, deadline=None)
@given(_draft())
def test_dsl_and_json_mirror_build_the_same_set(draft):
    text, node = draft
    got = _members(lambda: parse_set(text))
    if node is _NO_JSON:
        assert got is DslSemanticError, text
    else:
        assert got == _members(lambda: parse_set_json(node)), text
