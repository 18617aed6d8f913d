import json
import os
import re
import subprocess
import sys

import pytest

import kxstit
from kxstit import formula as F
from kxstit.checker import eval_formula
from kxstit.errors import (DepthExceedsWindow, HorizonTooSmall, InvalidModel,
                           PartialMap, SourceNotIrreflexive)
from kxstit.gen import GenParams, random_formula, random_model
from kxstit.model import KripkeModel, validate_frame
from kxstit.transform import (WindowModel, actualize, check_bounded_morphism,
                              choice_profiles, truth_preservation, unravel,
                              validate_window, window_eval)


def _mates(win, family):
    if family == "box":
        return win.box_cell
    if family == "ags":
        return win.ags_cell
    kind, agent = family.split(":")
    if kind == "choice":
        return lambda w: win.choice_cell(agent, w)
    return lambda w: win.epi_cell(agent, w)


def _shows_failure(win, check, n):
    """Whether ``check``'s witness violates its condition in actual mode,
    judged from the window relations alone.  Covers the failures the tests
    below provoke."""
    cond, witness, text = check.condition, check.witness, check.explanation
    inner = win.interior
    if not set(witness) <= inner:
        return False
    if cond == "EQ" and text == "succ not injective":
        u, v = witness
        return u != v and win.succ_of(u) == win.succ_of(v)
    if cond == "EQ" and text.endswith(" not transitive"):
        mates = _mates(win, text[:-len(" not transitive")])
        u, v, w = witness
        return v in mates(u) and w in mates(v) and w not in mates(u)
    if cond in ("NX", "NA", "NAGS"):
        u, v = witness
        pu, pv = win.pred_of(u), win.pred_of(v)
        if v not in win.box_cell(u) or pu is None or pv is None:
            return False
        if cond == "NX":
            return pv not in win.box_cell(pu)
        if cond == "NAGS":
            return pv not in win.ags_cell(pu)
        return any(pv not in win.choice_cell(a, pu) for a in win.agents)
    if cond == "SET":
        (u,) = witness
        box = win.box_cell(u)
        return not win.ags_cell(u) <= box or any(not win.choice_cell(a, u) <= box
                                                 for a in win.agents)
    if cond == "ADDITIVITY":
        (u,) = witness
        inter = win.box_cell(u)
        for a in win.agents:
            inter = inter & win.choice_cell(a, u)
        return win.ags_cell(u) != inter
    if cond == "CARD":
        (key,) = witness
        members = win.box_cell(key) & inner
        counts = [len({win.ags_cell(w) for w in members})]
        counts += [len({win.choice_cell(a, w) for w in members}) for a in win.agents]
        return max(counts) > n
    if cond == "UNIF_H":
        (v,) = witness
        agent, k2 = re.fullmatch(r"no epistemic mate for (\S+) in class of (\S+)", text).groups()
        k1 = min(win.box_cell(v))
        linked = any(min(win.box_cell(x)) == k2
                     for u in inner if min(win.box_cell(u)) == k1
                     for x in win.epi_cell(agent, u) & inner)
        return linked and all(min(win.box_cell(x)) != k2 for x in win.epi_cell(agent, v))
    raise AssertionError(f"no judge for {cond}: {text}")


def test_one_world_loop_depth_two(one_world):
    win, proj = unravel(one_world, "w", 2)
    assert set(win.worlds) == {"w;1", "w|w;1", "w|w;0", "w|w|w;1", "w|w|w;0"}
    assert win.interior == {"w;1", "w|w;1", "w|w;0"}
    for w in win.interior:
        assert win.succ_of(w) is not None and win.succ_of(w) != w
    assert validate_window(win, "actual", 1).ok
    assert check_bounded_morphism(proj, win, one_world).ok
    assert proj["w|w|w;0"] == "w"


def test_unravel_errors(one_world, fig1a):
    with pytest.raises(HorizonTooSmall):
        unravel(one_world, "w", 0)
    with pytest.raises(InvalidModel):
        unravel(one_world, "missing", 2)
    with pytest.raises(InvalidModel):
        unravel(fig1a, "m1_h1", 2)  # wrap-around failures block strict unraveling
    win, _ = unravel(fig1a, "m1_h1", 1, require_valid=False)
    assert win.worlds


def test_unraveled_layers_and_succ_shape():
    m = random_model(GenParams(seed=8, agent_count=2, box_class_count=2))
    win, proj = unravel(m, m.worlds[0], 3)
    for w in win.worlds:
        assert abs(win.layer[w]) <= 3
        s = win.succ_of(w)
        if s is not None:
            assert win.layer[s] == win.layer[w] + 1
            assert proj[s] == m.succ[proj[w]]
        else:
            assert win.layer[w] == 3


def test_window_validation_and_morphism_on_generated_models(grid50):
    for m in grid50[:12]:
        win, proj = unravel(m, m.worlds[0], 2)
        assert validate_window(win, "actual", 2).ok
        assert check_bounded_morphism(proj, win, m).ok


def test_morphism_detects_valuation_collapse(one_world):
    m2 = KripkeModel(["a"], ["u", "v"], [["u"], ["v"]], {"u": "u", "v": "v"},
                     {"a": [["u"], ["v"]]}, {"a": [["u"], ["v"]]},
                     valuation={"p": ["u"]})
    mapping = {"u": "w", "v": "w"}
    report = check_bounded_morphism(mapping, m2, one_world)
    assert not report.atom_harmony and not report.ok


def test_morphism_partial_map_raises(one_world):
    win, proj = unravel(one_world, "w", 2)
    broken = dict(proj)
    broken.pop("w;1")
    with pytest.raises(PartialMap):
        check_bounded_morphism(broken, win, one_world)


def test_truth_preservation_on_generated_models(grid50):
    for i, m in enumerate(grid50[:10]):
        win, proj = unravel(m, m.worlds[0], 2)
        formulas = [random_formula(3000 + 10 * i + j, 3, sorted(m.valuation),
                                   list(m.agents), reach=(1, 1)) for j in range(6)]
        rep = truth_preservation(win, m, proj, formulas)
        assert rep.ok and rep.compared > 0


def test_truth_preservation_skips_overdeep_formulas(one_world):
    win, proj = unravel(one_world, "w", 1)
    # forward reach 2 still fits at the back of the window ...
    rep = truth_preservation(win, one_world, proj, [F.parse("X X p")])
    assert rep.ok and rep.compared > 0 and not rep.skipped
    # ... but reach (2,2) fits nowhere in a depth-1 window
    rep = truth_preservation(win, one_world, proj, [F.parse("Y Y p & X X p")])
    assert rep.skipped == ["Y(Y(p)) & X(X(p))"] and rep.compared == 0
    with pytest.raises(DepthExceedsWindow):
        window_eval(win, "w|w;1", F.parse("X p"))


def test_window_eval_epistemic_jump_stays_sound():
    # knowledge quantifies across layers; mates whose layer cannot absorb the
    # remaining temporal reach are redundant and skipped
    m = random_model(GenParams(seed=21, agent_count=2, box_class_count=2,
                               epistemic_coarseness=1.0))
    win, proj = unravel(m, m.worlds[0], 2)
    a = m.agents[0]
    f = F.Knows(a, F.Next(F.Atom("p")))
    for w in win.worlds:
        if abs(win.layer[w]) <= 1:
            assert window_eval(win, w, f) == eval_formula(m, proj[w], f)


def test_choice_profiles_single_agent_two_cells():
    m = KripkeModel(["a"], ["x", "y"], [["x", "y"]], {"x": "x", "y": "y"},
                    {"a": [["x"], ["y"]]}, {"a": [["x"], ["y"]]})
    table = choice_profiles(m, "x")
    assert len(table.profiles) == 2
    for i in range(2):
        assert table.cells_by_profile[i] == [table.profiles[i][0]]


def test_choice_profiles_figure1_mid_game(fig1a):
    table = choice_profiles(fig1a, "m2_h1", n=4)
    assert len(table.profiles) == 4
    assert all(len(cells) == 1 for cells in table.cells_by_profile.values())
    assert all(len(table.enumeration[i]) == 4 for i in table.enumeration)


def test_choice_profiles_super_additive(super_additive_fixture):
    table = choice_profiles(super_additive_fixture, "a", n=2)
    assert len(table.profiles) == 1
    assert len(table.cells_by_profile[0]) == 2
    assert table.enumeration[0] == table.cells_by_profile[0]


def test_profile_padding_repeats_last(one_world):
    table = choice_profiles(one_world, "w", n=3)
    assert table.enumeration[0] == [frozenset({"w"})] * 3


def test_actualize_requires_irreflexive_interior(one_world):
    win, _ = unravel(one_world, "w", 2)
    # sabotage: a self-looping interior successor
    win.succ["w;1"] = "w;1"
    with pytest.raises(SourceNotIrreflexive):
        actualize(win)


def test_actualize_already_actual_source():
    m = random_model(GenParams(seed=3, agent_count=2, n_bound=1,
                               box_class_count=1, max_class_size=2))
    win, proj = unravel(m, m.worlds[0], 2)
    mat, mproj = actualize(win)
    assert validate_window(mat, "actual", 1).ok
    assert check_bounded_morphism(mproj, mat, win).ok
    comp = {w: proj[mproj[w]] for w in mat.worlds}
    formulas = [random_formula(500 + j, 2, sorted(m.valuation), list(m.agents),
                               reach=(1, 1)) for j in range(8)]
    rep = truth_preservation(mat, m, comp, formulas, margin=1)
    assert rep.ok


def test_actualize_super_additive_fixture(super_additive_fixture):
    fx = super_additive_fixture
    frame = validate_frame(fx, "super_additive", 2)
    assert {c.condition for c in frame.failed()} == {"NAGS"}
    win, proj = unravel(fx, "a", 2, require_valid=False)
    mat, mproj = actualize(win, n=2)

    # the coalition relation is exactly the intersection of the agent
    # relations on the interior (actual additivity); the source's NAGS
    # failure shows up in the matrix, and every witness is a real violation
    report = validate_window(mat, "actual", 2)
    assert len(mat.worlds) == 1280
    assert {c.condition for c in report.failed()} == {"CARD", "EQ", "NA", "NAGS", "UNIF_H"}
    for check in report.failed():
        assert _shows_failure(mat, check, 2), (check.condition, check.witness, check.explanation)
    # and the agent cells genuinely split to realize it
    assert any(len(mat.choice_cell("a0", w)) < len(mat.box_cell(w))
               for w in mat.interior)

    assert check_bounded_morphism(mproj, mat, win).ok

    comp = {w: proj[mproj[w]] for w in mat.worlds}
    formulas = [F.parse(t) for t in ["p", "~p", "X p", "Y p", "p & X ~p", "p -> Y p"]]
    rep = truth_preservation(mat, fx, comp, formulas, margin=1)
    assert rep.ok and rep.compared > 0


def test_matrix_index_arithmetic(super_additive_fixture):
    win, _ = unravel(super_additive_fixture, "a", 2, require_valid=False)
    mat, _ = actualize(win, n=2)
    for wid, mw in mat.matrix_worlds.items():
        for v, vec in mw.index_fn:
            table = mat.tables[min(win.box_cell(v))]
            cells = table.enumeration[table.profile_of_world[v]]
            assert cells[sum(vec) % 2] == win.ags_cell(v)


def test_past_chain_correspondence_on_valid_windows():
    # settledness-related interior worlds have coalition-matched past chains
    m = random_model(GenParams(seed=12, agent_count=2, box_class_count=2))
    win, _ = unravel(m, m.worlds[0], 2)
    for u in sorted(win.interior):
        for v in win.box_cell(u):
            pu, pv = win.pred_of(u), win.pred_of(v)
            while pu is not None and pv is not None:
                assert pv in win.ags_cell(pu)
                pu, pv = win.pred_of(pu), win.pred_of(pv)
    # and the composition of unravel after actualize preserves shallow truth
    mat, mproj = actualize(win)
    assert all(mat.layer[w] == win.layer[mproj[w]] for w in mat.worlds)


# Builds the 729-world matrix of the three-world super-additive fixture and
# prints the witnesses of its failed conditions.
_WITNESS_SCRIPT = """
import json
from kxstit.model import KripkeModel
from kxstit.transform import actualize, unravel, validate_window
fx = KripkeModel(
    ["a0", "a1"], ["a", "b", "c"], [["a", "b", "c"]], {"a": "b", "b": "c", "c": "a"},
    {"a0": [["a", "b", "c"]], "a1": [["a", "b", "c"]]},
    {"a0": [["a"], ["b"], ["c"]], "a1": [["a", "b", "c"]]},
    choice_ags=[["a"], ["b"], ["c"]], valuation={"p": ["a"]})
win, _ = unravel(fx, "a", 1, require_valid=False)
mat, _ = actualize(win, n=3)
report = validate_window(mat, "actual", 3)
print(json.dumps([len(mat.worlds)] + [[c.condition, c.witness] for c in report.failed()]))
"""


def test_window_witnesses_do_not_depend_on_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(kxstit.__file__)))
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", _WITNESS_SCRIPT], env=env,
                             capture_output=True, text=True, check=True).stdout
        runs.append(json.loads(out))
    assert runs[0][0] == 729
    assert runs[0] == runs[1]


def _rebuilt(win, **changes):
    """A copy of ``win`` built through the constructor, with some parts
    replaced."""
    parts = dict(agents=win.agents, worlds=win.worlds, layer=win.layer,
                 interior=win.interior, horizon=win.horizon, root=win.root,
                 succ=win.succ, pred=win.pred, r_box=win.r_box, choice=win.choice,
                 choice_ags=win.choice_ags, epistemic=win.epistemic,
                 valuation=win.valuation)
    parts.update(changes)
    return WindowModel(**parts)


def _failure(report, condition):
    return next(c for c in report.checks if c.condition == condition and not c.passed)


def test_noninjective_interior_successor_fails_eq(grid50):
    for m in grid50[:8]:
        win, _ = unravel(m, m.worlds[0], 2)
        u1 = min(win.interior)
        u2 = min(win.interior - {u1, win.succ[u1]})
        bad = _rebuilt(win, succ={**win.succ, u2: win.succ[u1]})
        check = _failure(validate_window(bad, "actual", 2), "EQ")
        assert check.explanation == "succ not injective"
        assert _shows_failure(bad, check, 2)


def test_choice_cell_across_classes_fails_set(grid50):
    tried = 0
    for m in grid50[:12]:
        win, _ = unravel(m, m.worlds[0], 2)
        a = win.agents[0]
        u = min(win.interior)
        other = next((c for c in win.choice[a] if not c <= win.box_cell(u)), None)
        if other is None:
            continue
        mine = win.choice_cell(a, u)
        cells = [c for c in win.choice[a] if c not in (mine, other)] + [mine | other]
        bad = _rebuilt(win, choice={**win.choice, a: cells})
        assert _shows_failure(bad, _failure(validate_window(bad, "actual", 2), "SET"), 2)
        tried += 1
    assert tried >= 5


def test_coarsened_coalition_cell_fails_additivity(grid50):
    # choices in frame-valid finite models are trivial, so each class of a
    # grid window holds one coalition cell: coarsen it with another class's
    tried = 0
    for m in grid50[:12]:
        win, _ = unravel(m, m.worlds[0], 2)
        mine = win.ags_cell(min(win.interior))
        other = next((c for c in win.choice_ags if c != mine), None)
        if other is None:
            continue
        cells = [c for c in win.choice_ags if c not in (mine, other)] + [mine | other]
        bad = _rebuilt(win, choice_ags=cells)
        report = validate_window(bad, "actual", 2)
        assert _shows_failure(bad, _failure(report, "ADDITIVITY"), 2)
        tried += 1
    assert tried >= 5
