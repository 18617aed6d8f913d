import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from kxstit import formula as F
from kxstit.checker import (check_refinement, eval_formula, extension,
                            knowledge_report, valid_on_model)
from kxstit.errors import UnknownAgent, UnknownWorld
from kxstit.gen import GenParams, random_formula, random_model
from kxstit.model import KripkeModel, validate_frame
from kxstit.transform import unravel, window_eval


def test_figure1_paper_judgments(fig1a):
    assert eval_formula(fig1a, "m1_h2", F.parse("X(~d_L & ~d_B)"))
    assert not eval_formula(fig1a, "m4_h11", F.parse("Y [Ags] X d"))
    assert eval_formula(fig1a, "m3_h7", F.parse("Y <> X [luther] X d_L"))


def test_extension_examples(fig1a, one_world):
    assert extension(one_world, F.parse("p | ~p")) == set(one_world.worlds)
    assert extension(one_world, F.parse("p & ~p")) == set()
    # defuse profiles: the three mid-game situations whose coalition cell
    # guarantees success, plus the three outcome worlds whose frozen stutter
    # extension keeps the bombs defused
    ext = extension(fig1a, F.parse("[Ags] X s"))
    assert ext == {"m2_h2", "m3_h7", "m4_h9", "m7_h2", "m12_h7", "m14_h9"}


def test_valid_on_model(one_world, fig1a):
    ok, witness = valid_on_model(one_world, F.parse("[]p -> p"))
    assert ok and witness is None
    ok, witness = valid_on_model(fig1a, F.parse("s"))
    assert not ok and witness == fig1a.worlds[0]


def test_t_schema_and_veridicality_on_valid_models():
    for seed in range(10):
        m = random_model(GenParams(seed=seed, agent_count=2, box_class_count=2))
        a = m.agents[0]
        p = F.Atom("p")
        assert valid_on_model(m, F.parse(f"[]p -> p"))[0]
        assert valid_on_model(m, F.Implies(F.Knows(a, F.Stit(a, F.Next(p))),
                                           F.Stit(a, F.Next(p))))[0]


def test_unknown_agent_world_errors(one_world):
    with pytest.raises(UnknownWorld):
        eval_formula(one_world, "nope", F.Atom("p"))
    with pytest.raises(UnknownWorld, match="'zz'"):
        window_eval(unravel(one_world, "w", 1)[0], "zz", F.Atom("p"))
    with pytest.raises(UnknownAgent):
        eval_formula(one_world, "w", F.Knows("ghost", F.Atom("p")))
    with pytest.raises(UnknownAgent):
        extension(one_world, F.Stit("ghost", F.Atom("p")))


def test_common_knowledge_closure():
    m = random_model(GenParams(seed=2, agent_count=2, box_class_count=2,
                               epistemic_coarseness=1.0))
    f = F.CommonKnows(F.Atom("p"))
    ext = extension(m, f)
    for w in m.worlds:
        assert (w in ext) == all(m.holds("p", v) for v in m.common_cell(w))


def test_knowledge_report_fig1(fig1a, fig1b):
    rep = knowledge_report(fig1a, "m4_h10", "luther", F.Atom("d_L"))
    assert rep.does and not rep.ex_interim and not rep.knowingly_does
    assert rep.frame_warnings  # compiled model fails the wrap-around conditions
    rep = knowledge_report(fig1b, "m4_h10", "luther", F.Atom("d_L"))
    assert rep.ex_interim and rep.know_how and rep.knowingly_does and rep.does
    rep = knowledge_report(fig1a, "m4_h10", "luther", F.parse("d_L | d_B"))
    assert rep.ex_post
    # veridicality holds regardless of frame validity
    assert (not rep.knowingly_does) or rep.does


def test_knowledge_report_shows_expanded_formulas(fig1a):
    rep = knowledge_report(fig1a, "m4_h10", "luther", F.Atom("d_L"))
    assert rep.expanded["ex_interim"] == "K{luther}([luther](X(d_L)))"
    assert rep.expanded["know_how"] == "[](K{luther}(<>(K{luther}([luther](X(d_L))))))"


def test_refinement_on_one_world(one_world):
    rep = check_refinement(one_world, samples=[F.Atom("p"), F.parse("p & ~p")])
    assert rep.ok


def test_refinement_on_generated_models():
    rng = random.Random(0)
    for seed in range(25):
        m = random_model(GenParams(seed=seed, agent_count=2, box_class_count=2))
        samples = [random_formula(rng.randrange(1 << 30), 2, sorted(m.valuation),
                                  list(m.agents), reach=(1, 1)) for _ in range(5)]
        rep = check_refinement(m, samples=samples)
        assert rep.ok, rep.counterexamples


def test_refinement_on_figure1_boolean_samples(fig1a, fig1b):
    rng = random.Random(7)
    props = sorted(fig1a.valuation)
    samples = [F.Atom(p) for p in props]
    samples += [random_formula(rng.randrange(1 << 30), 2, props, ["luther"], reach=(0, 0))
                for _ in range(14)]
    for m in (fig1a, fig1b):
        rep = check_refinement(m, agents=["luther", "benji", "ethan"], samples=samples)
        assert rep.ok, rep.counterexamples


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_eval_extension_oracle_agreement(mseed, fseed):
    m = random_model(GenParams(seed=mseed % 40, agent_count=1 + mseed % 3,
                               box_class_count=1 + mseed % 2))
    f = random_formula(fseed, 3, sorted(m.valuation), list(m.agents),
                       reach=(2, 2), include_sugar=True)
    ext = extension(m, f)
    for w in m.worlds:
        assert eval_formula(m, w, f) == (w in ext)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_normalization_preserves_meaning(seed):
    m = random_model(GenParams(seed=seed % 23, agent_count=2, box_class_count=2))
    f = random_formula(seed, 3, sorted(m.valuation), list(m.agents),
                       reach=(1, 1), include_sugar=True)
    n = F.normalize(f)
    for w in m.worlds:
        assert eval_formula(m, w, f) == eval_formula(m, w, n)


def test_footnote_equivalences_hold_under_uniformity():
    for seed in range(15):
        m = random_model(GenParams(seed=seed, agent_count=2, box_class_count=2,
                                   epistemic_coarseness=0.8))
        a = m.agents[0]
        p = F.Atom("p")
        ante = F.Box(F.Knows(a, F.Box(F.Next(p))))
        ante2 = F.Box(F.Knows(a, F.Next(p)))
        assert valid_on_model(m, F.And(F.Implies(ante, ante2), F.Implies(ante2, ante)))[0]
        kh = F.Box(F.Knows(a, F.Diamond(F.Knows(a, F.Stit(a, F.Next(p))))))
        kh2 = F.Diamond(F.Knows(a, F.Stit(a, F.Next(p))))
        assert valid_on_model(m, F.And(F.Implies(kh, kh2), F.Implies(kh2, kh)))[0]


def test_knowing_anothers_action_entails_settledness():
    for seed in range(15):
        m = random_model(GenParams(seed=seed, agent_count=2, box_class_count=2))
        a, b = m.agents[0], m.agents[1]
        p = F.Atom("p")
        f = F.Implies(F.Knows(a, F.Stit(a, F.Next(F.Yesterday(F.Stit(b, F.Next(p)))))),
                      F.Box(F.Next(p)))
        assert valid_on_model(m, f)[0]


@functools.lru_cache(maxsize=None)
def _formulas(props, agents):
    """Formulas over ``props`` and ``agents`` that keep unexpanded
    knowledge-stage macro nodes, sugar included.  Cached: hypothesis
    validates each new strategy object, which costs more than the draw."""
    agent = st.sampled_from(agents)

    def extend(sub):
        return st.one_of(
            st.tuples(st.sampled_from(F.MACRO_NAMES), agent, sub).map(lambda t: F.Macro(*t)),
            sub.map(F.Not), sub.map(F.Box), sub.map(F.Diamond), sub.map(F.Next),
            sub.map(F.Yesterday), sub.map(F.StitAgs),
            st.tuples(agent, sub).map(lambda t: F.Stit(*t)),
            st.tuples(agent, sub).map(lambda t: F.Knows(*t)),
            st.tuples(sub, sub).map(lambda t: F.And(*t)),
            st.tuples(sub, sub).map(lambda t: F.Or(*t)),
            st.tuples(sub, sub).map(lambda t: F.Implies(*t)))

    return st.recursive(st.sampled_from(props).map(F.Atom), extend, max_leaves=6)


def _generated(seed):
    return random_model(GenParams(seed=seed % 40, agent_count=1 + seed % 3,
                                  box_class_count=1 + seed % 2,
                                  epistemic_coarseness=(seed % 5) / 4))


def _top_down(m, f):
    return {w for w in m.worlds if eval_formula(m, w, f)}


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_extension_agrees_with_eval_on_unexpanded_macros(seed, data):
    m = _generated(seed)
    f = data.draw(_formulas(tuple(sorted(m.valuation)), m.agents))
    assert extension(m, f) == _top_down(m, f)
    assert extension(m, f) == extension(m, F.expand_macros(f))


def test_extension_agrees_with_eval_on_figure1_macros(fig1a, fig1b):
    # the scenario models separate knowing from doing, which generated
    # frame-valid models rarely do; Kh over ~p at the pre_/m1_ worlds
    # quantifies four deep over 16-world cells
    for m in (fig1a, fig1b):
        for name in F.MACRO_NAMES:
            for a in m.agents:
                for p in sorted(m.valuation):
                    for body in (F.Atom(p), F.Not(F.Atom(p))):
                        f = F.Macro(name, a, body)
                        assert extension(m, f) == _top_down(m, f), F.to_text(f)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_extension_repeated_and_on_revalued_copy(seed, data):
    m = _generated(seed)
    f = data.draw(_formulas(tuple(sorted(m.valuation)), m.agents))
    first = extension(m, f)
    assert extension(m, f) == first == _top_down(m, f)
    flipped = {p: set(m.worlds) - ws for p, ws in m.valuation.items()}
    copy = m.with_valuation(flipped)
    assert extension(copy, f) == _top_down(copy, f)
    assert extension(m, f) == first


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_valid_on_model_witness_is_least_failing_world(seed, data):
    m = _generated(seed)
    f = data.draw(_formulas(tuple(sorted(m.valuation)), m.agents))
    failing = [w for w in m.worlds if not eval_formula(m, w, f)]
    assert valid_on_model(m, f) == ((False, failing[0]) if failing else (True, None))


def test_evaluators_raise_the_same_errors(one_world):
    ghost = F.Knows("ghost", F.Atom("p"))
    for run in (lambda f: eval_formula(one_world, "w", f),
                lambda f: extension(one_world, f),
                lambda f: valid_on_model(one_world, f)):
        with pytest.raises(UnknownAgent):
            run(ghost)
        with pytest.raises(UnknownAgent):
            run(F.Macro("ExInterim", "ghost", F.Atom("p")))
    # u and v share a successor, so Y is undefined
    merged = KripkeModel(["a"], ["u", "v"], [["u", "v"]], {"u": "v", "v": "v"},
                         {"a": [["u", "v"]]}, {"a": [["u"], ["v"]]}, valuation={"p": ["u"]})
    assert merged.pred is None
    for run in (lambda f: eval_formula(merged, "u", f),
                lambda f: extension(merged, f),
                lambda f: valid_on_model(merged, f)):
        with pytest.raises(UnknownWorld):
            run(F.Yesterday(F.Atom("p")))
        with pytest.raises(UnknownWorld):
            run(F.Macro("ExPost", "a", F.Atom("p")))


def test_deep_chain_evaluates_without_recursion(one_world):
    f = F.Atom("p")
    for i in range(10_000):
        f = F.Next(f) if i % 2 else F.Not(f)
    # 5,000 negations cancel and succ is the identity on the one world
    assert extension(one_world, f) == {"w"}
    assert valid_on_model(one_world, f) == (True, None)
    assert valid_on_model(one_world, F.Not(f)) == (False, "w")


def test_knowledge_report_flags_match_extension(fig1a, fig1b):
    stages = {"ex_ante": "ExAnte", "ex_interim": "ExInterim", "ex_post": "ExPost",
              "know_how": "Kh"}
    for m in (fig1a, fig1b):
        for w in ("pre_h4", "m1_h8", "m2_h3", "m4_h10", "m9_h4", "post_h2"):
            for a in m.agents:
                for target in (F.Atom("d"), F.Not(F.Atom("d_L")), F.parse("s | r_L")):
                    rep = knowledge_report(m, w, a, target)
                    want = {name: w in extension(m, F.Macro(macro, a, target))
                            for name, macro in stages.items()}
                    want["does"] = w in extension(m, F.Stit(a, F.Next(target)))
                    assert {name: getattr(rep, name) for name in want} == want, (w, a, target)


def test_eval_formula_evaluates_each_atom_world_pair_once(fig1a):
    m = fig1a.with_valuation(fig1a.valuation)
    holds, calls = m.holds, []
    m.holds = lambda p, w: calls.append((p, w)) or holds(p, w)
    assert eval_formula(m, "pre_h4", F.Macro("Kh", "luther", F.Not(F.Atom("d"))))
    # one atom occurrence: at most one call per world, not one per path
    assert 0 < len(calls) <= len(m.worlds)
    assert len(set(calls)) == len(calls)


def test_eval_formula_handles_deep_box_and_negation_chains(one_world):
    boxes = negations = F.Atom("p")
    for _ in range(300):
        boxes = F.Box(boxes)
    for _ in range(450):
        negations = F.Not(negations)
    assert eval_formula(one_world, "w", boxes)
    assert eval_formula(one_world, "w", negations)   # an even number of ~
