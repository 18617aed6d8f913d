import hashlib
import itertools
import random

import pytest

from kxstit import formula as F
from kxstit.errors import UnsatisfiableParams
from kxstit.gen import GenParams, model_grid, random_formula, random_model
from kxstit.model import validate_frame


def test_forced_one_world_model():
    m = random_model(GenParams(seed=4, agent_count=1, box_class_count=1, max_class_size=1))
    assert len(m.worlds) == 1 and m.succ[m.worlds[0]] == m.worlds[0]
    assert validate_frame(m, "actual", 1).ok


def test_same_seed_same_model():
    a = random_model(GenParams(seed=42, agent_count=2, box_class_count=3))
    b = random_model(GenParams(seed=42, agent_count=2, box_class_count=3))
    assert a.dumps() == b.dumps()
    c = random_model(GenParams(seed=43, agent_count=2, box_class_count=3))
    assert c.dumps() != a.dumps()


def test_grid_all_valid():
    models = model_grid(60, base_seed=900)
    assert all(validate_frame(m, "actual", 2).ok for m in models)


def test_generated_models_are_valid_by_construction():
    # the generator does not check its models: every condition holds in
    # both modes at n = 1, the tightest bound, over its parameter ranges
    for agents, classes, size, coarseness, seed in itertools.product(
            (1, 2, 3), (1, 2, 3, 4), (1, 2, 3), (0.0, 0.5, 1.0), (0, 1)):
        m = random_model(GenParams(seed=seed, agent_count=agents, box_class_count=classes,
                                   epistemic_coarseness=coarseness, max_class_size=size))
        for mode in ("actual", "super_additive"):
            assert validate_frame(m, mode, 1).ok, (agents, classes, size, coarseness, seed, mode)
    # and builds no dense frame for the models it returns
    assert all(m._frame is None for m in model_grid(30))


def test_grid_coverage_includes_multicycle_and_coarse_knowledge():
    models = model_grid(60, base_seed=900)
    multicycle = False
    coarse = False
    for m in models:
        classes = {min(m.box_cell(w)) for w in m.worlds}
        starts = set()
        for w in m.worlds:
            cur, seen = w, set()
            while cur not in seen:
                seen.add(cur)
                cur = m.succ[cur]
            starts.add(frozenset(seen))
        if len(starts) > 1:
            multicycle = True
        if any(any(len(c) > 1 for c in m.epistemic[a]) for a in m.agents):
            coarse = True
        del classes
    assert multicycle and coarse


def _documents_digest(models):
    h = hashlib.sha256()
    for m in models:
        h.update(m.dumps().encode())
    return h.hexdigest()


def test_generated_model_documents_are_pinned(grid200):
    # the sha256 of the serialized documents, in order: a change to the
    # generator's draws or to its merge test shows up here
    assert _documents_digest(grid200) == \
        "467fd800e31076206871ea0f936700b4569a105bae939259cf3699c067e6bf90"
    assert _documents_digest(model_grid(200, base_seed=5000)) == \
        "28f9657755a9673f52132d21d9acc17f2b71057b0c67c3ced88d7c2842f0b112"
    # every merge attempted, over five classes: the most merges tested
    coarse = [random_model(GenParams(seed=s, agent_count=1 + s % 3, box_class_count=5,
                                     epistemic_coarseness=1.0)) for s in range(300)]
    assert _documents_digest(coarse) == \
        "8d5c30a13b41caf3222aa1e389a9a6daf24934dff6c3e64a4d1a63083ae278ef"


def test_unsatisfiable_params():
    for bad in (GenParams(agent_count=0), GenParams(box_class_count=0),
                GenParams(epistemic_coarseness=2.0)):
        with pytest.raises(UnsatisfiableParams):
            bad.validate()


def test_random_formula_reach_zero_has_no_temporal_operators():
    for seed in range(80):
        f = random_formula(seed, 4, ["p", "q"], ["a"], reach=(0, 0))
        assert not any(isinstance(g, (F.Next, F.Yesterday)) for g in F.subformulas(f))


def test_random_formula_deterministic_and_reach_bounded():
    assert random_formula(5, 3, ["p"], ["a"]) == random_formula(5, 3, ["p"], ["a"])
    # one shared atom per proposition
    assert random_formula(1, 0, ["p"], ["a"]) is random_formula(2, 0, ["p"], ["a"])
    for seed in range(300):
        f = random_formula(seed, 4, ["p", "q"], ["a", "b"], reach=(2, 1))
        dp = F.depth_profile(f)
        assert dp.forward_reach <= 2 and dp.backward_reach <= 1


def reference_random_formula(seed, max_depth, props, agents, reach=(1, 1), include_sugar=False):
    """The generator as it was written on ``random.Random(seed).choice``,
    kept verbatim as the oracle for ``random_formula``."""
    rng = random.Random(seed)
    fwd, bwd = reach

    def build(depth, offset):
        ops = ["atom"]
        if depth > 0:
            ops += ["not", "and", "box", "stit", "knows", "stit_ags"]
            if include_sugar:
                ops += ["or", "implies", "diamond"]
            if offset + 1 <= fwd:
                ops.append("next")
            if offset - 1 >= -bwd:
                ops.append("yesterday")
        op = rng.choice(ops)
        if op == "atom":
            return F.Atom(rng.choice(props))
        if op == "not":
            return F.Not(build(depth - 1, offset))
        if op == "and":
            return F.And(build(depth - 1, offset), build(depth - 1, offset))
        if op == "or":
            return F.Or(build(depth - 1, offset), build(depth - 1, offset))
        if op == "implies":
            return F.Implies(build(depth - 1, offset), build(depth - 1, offset))
        if op == "box":
            return F.Box(build(depth - 1, offset))
        if op == "diamond":
            return F.Diamond(build(depth - 1, offset))
        if op == "next":
            return F.Next(build(depth - 1, offset + 1))
        if op == "yesterday":
            return F.Yesterday(build(depth - 1, offset - 1))
        if op == "stit":
            return F.Stit(rng.choice(agents), build(depth - 1, offset))
        if op == "stit_ags":
            return F.StitAgs(build(depth - 1, offset))
        if op == "knows":
            return F.Knows(rng.choice(agents), build(depth - 1, offset))
        raise AssertionError(op)

    return build(max_depth, 0)


ORACLE_PROPS = (["p"], ["p", "q"], ["p", "q", "r"])
ORACLE_AGENTS = (["a0"], ["a0", "a1"], ["a0", "a1", "a2"])
ORACLE_REACH = ((1, 1), (0, 0), (2, 1), (0, 2))


def oracle_cases(seeds_per_shape=56):
    """(seed, depth, props, agents, reach, sugar) over every shape: depths
    0-4, four reaches, sugar off and on, 1-3 props and agents; the seeds
    are spread over [0, 2**30) as the suites draw them."""
    rng = random.Random(2024)
    shapes = itertools.product(range(5), ORACLE_REACH, (False, True), ORACLE_PROPS, ORACLE_AGENTS)
    for depth, reach, sugar, props, agents in shapes:
        for _ in range(seeds_per_shape):
            yield rng.randrange(1 << 30), depth, props, agents, reach, sugar


def test_random_formula_draws_what_random_choice_draws():
    count = 0
    for seed, depth, props, agents, reach, sugar in oracle_cases():
        got = random_formula(seed, depth, props, agents, reach=reach, include_sugar=sugar)
        want = reference_random_formula(seed, depth, props, agents, reach=reach, include_sugar=sugar)
        assert got == want, (seed, depth, props, agents, reach, sugar)
        count += 1
    assert count >= 20_000
    # a seed that is not an int seeds random.Random as before
    for seed in ("fills", "x" * 40):
        assert (random_formula(seed, 3, ["p", "q"], ["a0", "a1"]) ==
                reference_random_formula(seed, 3, ["p", "q"], ["a0", "a1"]))


def test_random_formula_without_props_raises_index_error():
    # every formula ends in an atom, so every depth draws from the props
    for depth in (0, 3):
        with pytest.raises(IndexError):
            random_formula(7, depth, [], ["a"])
