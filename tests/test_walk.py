"""The bitset walk (``checker._truth_mask``) on shapes that the random
suites rarely draw: sibling macros, shared deep DAGs and windows with
several undefined steps; that it hashes no formula node; and truth along
accepted bounded morphisms.

The module needs neither pytest nor hypothesis, so it also runs as a plain
script: ``PYTHONPATH=src python tests/test_walk.py``.
"""

import random
import time

from kxstit import formula as F
from kxstit.checker import extension, valid_on_model
from kxstit.gen import model_grid, random_formula
from kxstit.model import KripkeModel
from kxstit.scenario import bdt_to_kripke, figure1_scenario
from kxstit.transform import WindowModel, check_bounded_morphism, unravel, window_eval


def _one_world():
    return KripkeModel(["a"], ["w"], [["w"]], {"w": "w"}, {"a": [["w"]]},
                       {"a": [["w"]]}, valuation={"p": ["w"]})


def _raised(run, f):
    """(type name, message) of the error that ``run(f)`` raises."""
    try:
        run(f)
    except Exception as e:  # noqa: BLE001 - the type is the result
        return type(e).__name__, str(e)
    raise AssertionError(f"{F.to_text(f)} raised nothing")


def _six_macros(seed, props, agents):
    """Six macro nodes, each on its own small body, joined by random binary
    operators into one formula."""
    rng = random.Random(seed)
    nodes = [F.Macro(rng.choice(F.MACRO_NAMES), rng.choice(agents),
                     random_formula(rng.randrange(1 << 30), 1, props, agents, reach=(0, 0)))
             for _ in range(6)]
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        nodes[i:i + 2] = [rng.choice(F.BINARY)(nodes[i], nodes[i + 1])]
    return nodes[0]


def test_sibling_macros_with_different_bodies(fig1a):
    # each macro is unfolded into new nodes where the walk meets it; a walk
    # that let one definition be freed could read a sibling's mask for it
    props, agents = sorted(fig1a.valuation), list(fig1a.agents)
    for seed in range(200):
        f = _six_macros(seed, props, agents)
        assert extension(fig1a, f) == extension(fig1a, F.expand_macros(f)), F.to_text(f)


def test_walk_hashes_no_formula(fig1a, one_world):
    # the memo is keyed by node identity, so no Formula.__hash__ runs
    calls = []
    hashed = F.Formula.__hash__
    F.Formula.__hash__ = lambda g: calls.append(g) or hashed(g)
    try:
        props, agents = sorted(fig1a.valuation), list(fig1a.agents)
        formulas = [_six_macros(seed, props, agents) for seed in range(10)]
        assert hash(formulas[0]) == hashed(formulas[0]) and calls, "the wrapper is not called"
        calls.clear()
        for f in formulas:
            extension(fig1a, f)
            valid_on_model(fig1a, f)
        win, _ = unravel(one_world, "w", 2)
        window_eval(win, "w;1", F.Macro("ExPost", "a", F.parse("p & Y p")))
    finally:
        F.Formula.__hash__ = hashed
    assert calls == []


def test_shared_dag_is_walked_once_per_node(one_world):
    # 10^4 levels of f = f & ~f: 2 * 10^4 node objects, 2^10^4 paths
    f = F.Atom("p")
    start = time.perf_counter()
    for _ in range(10_000):
        f = F.And(f, F.Not(f))
    assert extension(one_world, f) == set()
    assert valid_on_model(one_world, F.Not(f)) == (True, None)
    win, _ = unravel(one_world, "w", 1)
    assert window_eval(win, "w;1", f) is False
    # linear: a quadratic walk would take minutes at this size
    assert time.perf_counter() - start < 5


def test_two_gapped_steps_raise_at_the_first_in_post_order(one_world):
    win, _ = unravel(one_world, "w", 2)
    # the window built anew without two of its steps
    win = WindowModel(win.agents, win.worlds, win.layer, win.interior, win.horizon, win.root,
                      {w: v for w, v in win.succ.items() if w != "w|w;0"},
                      {w: v for w, v in win.pred.items() if w != "w|w;1"}, win.rel, win.valuation)
    run = lambda f: window_eval(win, "w;1", f)  # noqa: E731
    step = F.parse("X p")
    for text, message in (("X p & [] Y p", "succ undefined at w|w;0"),
                          ("[] Y p & X p", "pred undefined at w|w;1"),
                          ("Y X p", "succ undefined at w|w;0"),
                          ("~(Y p | X X p)", "pred undefined at w|w;1")):
        assert _raised(run, F.parse(text)) == ("DepthExceedsWindow", message)
    assert _raised(run, F.And(step, step)) == ("DepthExceedsWindow", "succ undefined at w|w;0")
    assert _raised(run, F.And(F.CommonKnows(F.Atom("p")), step)) == (
        "DepthExceedsWindow", "succ undefined at w|w;0")


def test_errors_come_from_the_leftmost_failing_node():
    # u and v share a successor, so Y is undefined
    merged = KripkeModel(["a"], ["u", "v"], [["u", "v"]], {"u": "v", "v": "v"},
                         {"a": [["u", "v"]]}, {"a": [["u"], ["v"]]}, valuation={"p": ["u"]})
    p = F.Atom("p")
    ghost = F.Knows("ghost", p)
    for run in (lambda f: extension(merged, f), lambda f: valid_on_model(merged, f)):
        assert _raised(run, F.And(ghost, F.Yesterday(p))) == (
            "UnknownAgent", "unknown agent 'ghost'")
        assert _raised(run, F.Or(F.Yesterday(p), ghost)) == (
            "UnknownWorld", "temporal relation is not invertible; Y undefined")
        assert _raised(run, F.Implies(F.Stit("nobody", p), ghost)) == (
            "UnknownAgent", "unknown agent 'nobody'")


def _two_copies(m):
    """The disjoint union of two copies of ``m`` and the map of each copy
    world onto its original."""
    names = [{w: f"{w}#{k}" for w in m.worlds} for k in (0, 1)]

    def cells(partition):
        return [[c[w] for w in cell] for c in names for cell in partition]

    union = KripkeModel(
        m.agents, [c[w] for c in names for w in m.worlds], cells(m.r_box),
        {c[w]: c[v] for c in names for w, v in m.succ.items()},
        {a: cells(m.choice[a]) for a in m.agents},
        {a: cells(m.epistemic[a]) for a in m.agents},
        choice_ags=cells(m.choice_ags),
        valuation={p: [c[w] for c in names for w in ws] for p, ws in m.valuation.items()})
    return union, {c[w]: w for c in names for w in m.worlds}


def test_truth_is_preserved_along_accepted_morphisms():
    # the two-copy union maps onto the model by a bounded morphism, so each
    # formula's extension on the union is the preimage of its extension
    mismatches = 0
    for k, m in enumerate(model_grid(60, base_seed=3000)):
        union, mapping = _two_copies(m)
        assert check_bounded_morphism(mapping, union, m).ok, k
        rng = random.Random(k)
        for _ in range(10):
            f = random_formula(rng.randrange(1 << 30), 3, sorted(m.valuation), list(m.agents),
                               reach=(2, 2), include_sugar=True)
            ext = extension(m, f)
            mismatches += extension(union, f) != {w for w in union.worlds if mapping[w] in ext}
    assert mismatches == 0


if __name__ == "__main__":
    fixtures = {"one_world": _one_world, "fig1a": lambda: bdt_to_kripke(figure1_scenario("a"))}
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            args = [fixtures[a]() for a in test.__code__.co_varnames[:test.__code__.co_argcount]]
            test(*args)
            print("passed", name)
