import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import kxstit
from kxstit import formula as F
from kxstit.errors import (CommonKnowledgeDisabled, FormulaSyntaxError, UnknownMacro)


def test_parse_stit_next():
    assert F.parse("[luther] X d_L") == F.Stit("luther", F.Next(F.Atom("d_L")))


def test_double_negation_round_trip():
    f = F.parse("~~p")
    assert f == F.Not(F.Not(F.Atom("p")))
    assert F.to_text(f) == "~~p"


def test_sugar_parses_and_normalizes():
    f = F.parse("<>p -> []p")
    assert f == F.Implies(F.Diamond(F.Atom("p")), F.Box(F.Atom("p")))
    n = F.normalize(f)
    assert n == F.Not(F.And(F.Not(F.Box(F.Not(F.Atom("p")))), F.Not(F.Box(F.Atom("p")))))


def test_print_examples():
    assert F.to_text(F.Box(F.Atom("p"))) == "[](p)"
    assert F.to_text(F.Knows("luther", F.Stit("luther", F.Next(F.Atom("d_L"))))) == \
        "K{luther}([luther](X(d_L)))"
    assert F.to_text(F.parse("ExAnte(a,p)")) == "[](K{a}([](X(p))))"


def test_macro_expansions():
    assert F.parse("ExInterim(a, p)") == F.Knows("a", F.Stit("a", F.Next(F.Atom("p"))))
    assert F.parse("ExPost(a, p)") == \
        F.Next(F.Knows("a", F.Yesterday(F.StitAgs(F.Next(F.Atom("p"))))))
    assert F.parse("Kh(a, p)") == \
        F.Box(F.Knows("a", F.Diamond(F.Knows("a", F.Stit("a", F.Next(F.Atom("p")))))))


def test_expand_macros_idempotent():
    f = F.Macro("Kh", "a", F.Macro("ExPost", "b", F.Atom("p")))
    once = F.expand_macros(f)
    assert F.expand_macros(once) == once


def test_depth_profiles():
    assert F.depth_profile(F.Atom("p")) == F.DepthProfile(0, 0)
    assert F.depth_profile(F.parse("ExPost(a, p)")) == F.DepthProfile(1, 0)
    assert F.depth_profile(F.parse("Y Y X p")) == F.DepthProfile(0, 2)
    assert F.depth_profile(F.parse("ExAnte(a, p)")) == F.DepthProfile(1, 0)
    assert F.depth_profile(F.parse("Kh(a, p)")) == F.DepthProfile(1, 0)


def test_depth_profile_by_path_enumeration():
    # oracle: enumerate all root-to-leaf paths, track the running offset
    def paths(f, offset):
        offset += 1 if isinstance(f, F.Next) else (-1 if isinstance(f, F.Yesterday) else 0)
        kids = F.children_of(f)
        if not kids:
            yield [offset]
            return
        for c in kids:
            for tail in paths(c, offset):
                yield [offset] + tail

    for text in ["X Y X p & Y(p | X X q)", "[](X K{a} Y p)", "ExPost(a, X p)"]:
        f = F.parse(text)
        offs = [o for path in paths(f, 0) for o in ([0] + path)]
        assert F.depth_profile(f) == F.DepthProfile(max(max(offs), 0), max(-min(offs), 0))


def test_subformulas_postorder():
    p, q = F.Atom("p"), F.Atom("q")
    assert F.subformulas(F.And(p, q)) == [p, q, F.And(p, q)]
    assert F.subformulas(F.Not(p)) == [p, F.Not(p)]
    bb = F.Box(F.Box(p))
    assert F.subformulas(bb) == [p, F.Box(p), bb]
    # structural deduplication
    f = F.And(F.Box(p), F.Box(p))
    assert F.subformulas(f) == [p, F.Box(p), f]


def test_syntax_errors_carry_offsets():
    with pytest.raises(FormulaSyntaxError) as e:
        F.parse("p & ")
    assert e.value.offset == 4
    with pytest.raises(FormulaSyntaxError):
        F.parse("p q")
    with pytest.raises(UnknownMacro):
        F.parse("Frob(a, p)")
    with pytest.raises(CommonKnowledgeDisabled):
        F.parse("C p")
    assert F.parse("C p", allow_common_knowledge=True) == F.CommonKnows(F.Atom("p"))
    with pytest.raises(FormulaSyntaxError):
        F.parse("X")  # reserved word cannot stand alone


names = st.sampled_from(["p", "q", "d_L", "r2"])
agent_names = st.sampled_from(["a", "luther", "b1"])


def formulas(max_depth=5):
    atoms = names.map(F.Atom)

    def extend(children):
        return st.one_of(
            children.map(F.Not),
            children.map(F.Box),
            children.map(F.Diamond),
            children.map(F.Next),
            children.map(F.Yesterday),
            children.map(F.StitAgs),
            st.tuples(agent_names, children).map(lambda t: F.Stit(*t)),
            st.tuples(agent_names, children).map(lambda t: F.Knows(*t)),
            st.tuples(children, children).map(lambda t: F.And(*t)),
            st.tuples(children, children).map(lambda t: F.Or(*t)),
            st.tuples(children, children).map(lambda t: F.Implies(*t)),
        )

    return st.recursive(atoms, extend, max_leaves=12)


@given(formulas())
def test_round_trip(f):
    g = F.parse(F.to_text(f))
    assert g == f
    # built separately, equal formulas hash equal and are one dict key
    assert hash(g) == hash(f)
    assert {f: 1}[g] == 1


def test_unary_nodes_differ_by_type():
    p = F.Atom("p")
    nodes = [F.Not(p), F.Box(p), F.Next(p)]
    assert len(set(nodes)) == 3
    assert len({hash(g) for g in nodes}) == 3
    assert F.Not(p) != F.Box(p) != F.Next(p) != F.Not(p)


def test_deep_formulas_compare_without_recursion():
    def chain(leaf):
        f = F.Atom(leaf)
        for i in range(10_000):
            f = F.And(F.Atom("q"), f) if i % 3 == 0 else F.Stit("a", f) if i % 3 == 1 else F.Not(f)
        return f

    a, b, c = chain("p"), chain("p"), chain("r")
    assert a is not b and a == b
    assert a != c
    assert {a: 1}[b] == 1 and c not in {a: 1}


_PICKLE_SCRIPT = """
import pickle, sys
from kxstit import formula as F
text = "ExPost(a, X p & ~[]q) -> K{a}([b] Y p | <>r)"
if sys.argv[1] == "dump":
    sys.stdout.buffer.write(pickle.dumps(F.parse(text)))
else:
    loaded = pickle.loads(sys.stdin.buffer.read())
    print(loaded in {F.parse(text)}, hash(loaded) == hash(F.parse(text)))
"""


def test_pickled_formula_hashes_like_one_built_in_the_loading_process():
    src = os.path.dirname(os.path.dirname(os.path.abspath(kxstit.__file__)))

    def run(seed, *args, data=None):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-c", _PICKLE_SCRIPT, *args], env=env,
                              input=data, capture_output=True, check=True).stdout

    dumped = run("0", "dump")
    assert run("1", "load", data=dumped).split() == [b"True", b"True"]


@given(formulas())
def test_normalize_idempotent_and_primitive(f):
    n = F.normalize(f)
    assert F.normalize(n) == n
    for g in F.subformulas(n):
        assert not isinstance(g, (F.Or, F.Implies, F.Diamond, F.Macro))
