import random

import pytest

from test_correspondence import detector_models, schemas_valid

from kxstit import formula as F
from kxstit.axioms import (SuitePolicy, _below, derived_theorem_suite, instantiate, saturating_atoms,
                           soundness_suite)
from kxstit.checker import valid_on_model
from kxstit.errors import ArityMismatch, DuplicateAgents, InvalidModelInSuite
from kxstit.gen import GenParams, model_grid, random_model
from kxstit.model import validate_frame


p, q = F.Atom("p"), F.Atom("q")


def test_instantiate_na():
    f = instantiate("NA", [p], ["luther"])
    assert F.to_text(f) == "[luther](X(p)) -> [luther](X([](p)))"


def test_instantiate_agspc_1_collapses_inner_conjunction():
    f = instantiate("AgsPC", [p], [], n=1)
    assert F.to_text(f) == "<>([Ags](p)) -> p"


def test_instantiate_ia_two_agents():
    f = instantiate("IA", [p, q], ["a", "b"])
    assert F.to_text(f) == "(<>([a](p)) & <>([b](q))) -> <>([a](p) & [b](q))"
    assert F.parse(F.to_text(f)) == f
    with pytest.raises(DuplicateAgents):
        instantiate("IA", [p, q], ["a", "a"])


def test_instantiate_arity_errors():
    with pytest.raises(ArityMismatch):
        instantiate("NA", [p, q], ["a"])
    with pytest.raises(ArityMismatch):
        instantiate("AgsPC", [p], [], n=2)
    with pytest.raises(ArityMismatch):
        instantiate("nonsense", [p])


def test_every_template_prints_to_primitive_base_after_normalize():
    for name in ("S5(box).K", "S5(knows).5", "In1", "DET.S.X", "SET", "NA",
                 "NAgs", "GA", "NoF", "Unif-H", "NX", "NY"):
        agents = ["a"]
        arity = 2 if name.endswith(".K") else 1
        f = instantiate(name, [p, q][:arity], agents)
        n = F.normalize(f)
        assert F.parse(F.to_text(n)) == n
        for g in F.subformulas(n):
            assert not isinstance(g, (F.Or, F.Implies, F.Diamond, F.Macro))


def test_one_world_suite(one_world):
    rep = soundness_suite([one_world], SuitePolicy(fills_per_schema=4, seed=1), n_bounds=[1])
    assert rep.ok and rep.instances_checked > 0
    rep = derived_theorem_suite([one_world], SuitePolicy(fills_per_schema=4, seed=1), n_bounds=[1])
    assert rep.ok


def test_saturating_atoms_name_each_choice_and_coalition_cell(fig1a, grid50):
    # one atom per coalition cell and per agent-choice cell, in order of
    # least world; none for an epistemic cell, and the old atoms unchanged
    for m in [fig1a, *grid50]:
        sat, names = saturating_atoms(m)
        agents = sorted(m.agents)
        assert sorted(names) == ["ags", "choice"] and sorted(names["choice"]) == agents
        assert names["ags"] == [f"_cAgs{i}" for i in range(len(m.choice_ags))]
        cells = {x: ws for x, ws in sat.valuation.items() if x not in m.valuation}
        assert list(cells) == [*names["ags"], *(x for a in m.agents for x in names["choice"][a])]
        assert [cells[x] for x in names["ags"]] == list(m.choice_ags)
        least = [min(cells[x]) for x in names["ags"]]
        assert least == sorted(least)
        for a in m.agents:
            assert names["choice"][a] == [f"_c{a}{i}" for i in range(len(m.choice[a]))]
            assert [cells[x] for x in names["choice"][a]] == list(m.choice[a])
        assert {x: sat.valuation[x] for x in m.valuation} == dict(m.valuation)
        assert sat.rel is m.rel


def test_invalid_model_rejected_up_front(fig1a):
    with pytest.raises(InvalidModelInSuite):
        soundness_suite([fig1a], SuitePolicy(fills_per_schema=1), n_bounds=[4])


def test_soundness_small_grid():
    models = model_grid(30, base_seed=77)
    rep = soundness_suite(models, SuitePolicy(seed=3, fills_per_schema=4), n_bounds=[2] * 30)
    assert rep.ok, rep.lines()


def _passes(m, cond, n):
    return {c.condition: c.passed for c in validate_frame(m, "actual", n).checks}[cond]


def test_mutated_model_breaks_nof_and_detectors_agree():
    # the seed-9 model, then a copy with one world split out of a merged
    # epistemic cell: the NOF check and the NoF schemas both reject the copy
    m, split = detector_models()[10:12]
    for model, ok in ((m, True), (split, False)):
        assert _passes(model, "NOF", 2) is ok
        assert schemas_valid(model, "NOF", 2) is ok


def test_apc_and_card_detectors_agree():
    # an agent with two choice cells in one class fails the cell-count check
    # and the saturated APC_1 and AgsPC_1 instances at n=1, and passes at n=2
    m = detector_models()[12]
    for n, ok in ((1, False), (2, True)):
        assert _passes(m, "CARD", n) is ok
        assert schemas_valid(m, "CARD", n) is ok


def test_detector_agreement_on_valid_models():
    for m in detector_models()[:11]:
        assert validate_frame(m, "actual", 2).ok
        assert schemas_valid(m, "CARD", 2) and schemas_valid(m, "NOF", 2)


def test_necessitation_and_modus_ponens_preserve_validity():
    for seed in range(6):
        m = random_model(GenParams(seed=seed, agent_count=2, box_class_count=2))
        a = m.agents[0]
        taut = F.parse("p -> (q -> p)")
        assert valid_on_model(m, taut)[0]
        for wrap in (F.Box, F.Next, F.Yesterday, F.StitAgs,
                     lambda x: F.Stit(a, x), lambda x: F.Knows(a, x)):
            assert valid_on_model(m, wrap(taut))[0]
        # modus ponens: both premises valid forces the conclusion valid
        impl = F.parse("p | ~p")
        assert valid_on_model(m, F.Implies(taut, impl))[0] and valid_on_model(m, impl)[0]


def test_suite_draws_match_randrange_and_choice():
    # the suites draw fill seeds and agent picks from getrandbits by
    # CPython's rule, which must give what randrange and choice give
    for seed in range(50):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in (1, 2, 3, 7, 1 << 30):
            assert _below(ours, n) == theirs.randrange(n)
            assert _below(ours, n) == theirs.choice(range(n))
