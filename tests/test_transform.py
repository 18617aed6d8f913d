import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest

from conftest import mutants

import kxstit
from kxstit import formula as F
from kxstit.checker import (check_refinement, eval_formula, extension, knowledge_report,
                            valid_on_model)
from kxstit.errors import (DepthExceedsWindow, HorizonTooSmall, InvalidModel, KxstitError,
                           MatrixTooLarge, PartialMap, SourceNotIrreflexive, UnknownAgent,
                           WindowTooLarge)
from kxstit.gen import GenParams, model_grid, random_formula, random_model
from kxstit.model import DenseFrame, KripkeModel, _bits, check_frame, family_names, validate_frame
from kxstit.transform import (MAX_MATRIX_WORLDS, MorphismReport, WindowModel, _window_masks, actualize,
                              check_bounded_morphism, choice_profiles, truth_preservation,
                              unravel, validate_window, window_eval)


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
    # the evaluation walk does not recurse, so 10^4 nested negations evaluate
    chain = F.Atom("p")
    for _ in range(10_000):
        chain = F.Not(chain)
    assert window_eval(win, "w;1", chain) and not window_eval(win, "w;1", F.Not(chain))


def test_unravel_errors(one_world, fig1a):
    with pytest.raises(HorizonTooSmall):
        unravel(one_world, "w", 0)
    with pytest.raises(InvalidModel):
        unravel(one_world, "missing", 2)
    with pytest.raises(InvalidModel):
        unravel(fig1a, "m1_h1", 2)  # wrap-around failures block strict unraveling
    win, _ = unravel(fig1a, "m1_h1", 1, require_valid=False)
    assert win.worlds


def _most_cells_one_class_meets(m):
    """The most coalition or choice cells that one settledness class of
    ``m`` meets: the bound at which ``unravel`` once validated."""
    boxes, *families = (set(m.rel[name].values()) for name in family_names(m.agents)
                        if not name.startswith("epi:"))
    return max(sum(not box.isdisjoint(cell) for cell in cells) for box in boxes
               for cells in families)


def test_unravel_validates_where_card_is_vacuous(fig1a):
    # at the world count and at the most cells one class meets, every
    # condition reads the same, and CARD never fails
    rows = lambda report: [(c.condition, c.passed, c.witness, c.explanation) for c in report.checks]
    outcomes = Counter()  # None for a window built, else the refusal
    for m in [*mutants(model_grid(200, base_seed=5000), seed=11), fig1a]:
        report = validate_frame(m, "super_additive", len(m.worlds))
        assert rows(report) == rows(validate_frame(m, "super_additive", _most_cells_one_class_meets(m)))
        assert report.checks[1].passed  # CARD
        try:
            unravel(m, m.worlds[0], 1)
            outcomes[None] += 1
        except InvalidModel as e:
            assert "CARD" not in str(e)
            outcomes[str(e)] += 1
    assert len(outcomes) > 5 and outcomes[None] > 100, outcomes


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
    # a boundary world sent outside the target is named before any check
    with pytest.raises(PartialMap, match="'w|w|w;1' to 'zz'"):
        check_bounded_morphism({**proj, "w|w|w;1": "zz"}, win, one_world)


def test_morphism_onto_a_target_without_a_source_agent_raises():
    two = KripkeModel(["a0", "a1"], ["w"], [["w"]], {"w": "w"}, {"a0": [["w"]], "a1": [["w"]]},
                      {"a0": [["w"]], "a1": [["w"]]}, valuation={"p": ["w"]})
    one = KripkeModel(["a0"], ["w"], [["w"]], {"w": "w"}, {"a0": [["w"]]},
                      {"a0": [["w"]]}, valuation={"p": ["w"]})
    with pytest.raises(UnknownAgent, match="'a1'"):
        check_bounded_morphism({"w": "w"}, two, one)
    assert check_bounded_morphism({"w": "w"}, one, two).ok


def _report(failed, counterexamples):
    """The morphism report over agents a0 and a1 whose failed flags are
    ``failed``: "surjective", "atom_harmony", or "forth"/"back" and a
    family."""
    names = [*family_names(["a0", "a1"]), "succ", "pred"]
    return MorphismReport("surjective" not in failed, "atom_harmony" not in failed,
                          {n: ("forth", n) not in failed for n in names},
                          {n: ("back", n) not in failed for n in names}, counterexamples)


def test_morphism_failures_are_pinned(super_additive_fixture):
    fx = super_additive_fixture
    win, proj = unravel(fx, "a", 2, require_valid=False)
    # a seeded swap of two images breaks forth on a0's knowledge, among others
    u, v = random.Random(0).sample(win.worlds, 2)
    swapped = {**proj, u: proj[v], v: proj[u]}
    assert check_bounded_morphism(swapped, win, fx) == _report(
        {"atom_harmony", ("back", "box"), ("back", "choice:a0"), ("back", "choice:a1"),
         ("forth", "epi:a0"), ("forth", "succ"), ("back", "succ"), ("forth", "pred"),
         ("back", "pred")},
        [("atom", "b|a;0", "p"), ("back", "box", "a|b;0", ["a"]),
         ("back", "choice:a0", "a|b;0", ["a"]), ("back", "choice:a1", "a|b;0", ["a"]),
         ("forth", "epi:a0", "a;1", "b|a;0"), ("forth", "succ", "b|a;0"),
         ("back", "succ", "b|a;0"), ("forth", "pred", "b;1"), ("back", "pred", "b;1")])
    # a source that knows more than the target fails back on one family only
    finer = KripkeModel(fx.agents, fx.worlds, fx.r_box, fx.succ, fx.choice,
                        {"a0": [["a"], ["b"]], "a1": [["a"], ["b"]]}, fx.choice_ags, fx.valuation)
    assert check_bounded_morphism({"a": "a", "b": "b"}, finer, fx) == _report(
        {("back", "epi:a1")}, [("back", "epi:a1", "a", ["b"])])
    # on the window of a frame-valid cycle, a dropped successor fails back
    # only, and a wrong predecessor fails both ways
    split = {a: [["a"], ["b"]] for a in fx.agents}
    cycle = KripkeModel(fx.agents, fx.worlds, [["a"], ["b"]], fx.succ, split, fx.epistemic,
                        valuation=fx.valuation)
    win, proj = unravel(cycle, "a", 2)
    assert check_bounded_morphism(proj, win, cycle).ok
    win = _rebuilt(win, succ={w: v for w, v in win.succ.items() if w != "b|a;0"},
                   pred={**win.pred, "a|b;1": "a|b;0"})
    assert check_bounded_morphism(proj, win, cycle) == _report(
        {("back", "succ"), ("forth", "pred"), ("back", "pred")},
        [("back", "succ", "b|a;0"), ("forth", "pred", "a|b;1"), ("back", "pred", "a|b;1")])
    # one world onto a two-world class misses its mate
    one = KripkeModel(fx.agents, ["x"], [["x"]], {"x": "x"}, {a: [["x"]] for a in fx.agents},
                      {a: [["x"]] for a in fx.agents}, valuation={"p": ["x"]})
    assert check_bounded_morphism({"x": "a"}, one, fx) == _report(
        {"surjective", ("back", "box"), ("back", "choice:a0"), ("back", "choice:a1"),
         ("back", "epi:a1"), ("forth", "succ"), ("back", "succ"), ("forth", "pred"),
         ("back", "pred")},
        [("surjectivity", ["b"]), ("back", "box", "x", ["b"]), ("back", "choice:a0", "x", ["b"]),
         ("back", "choice:a1", "x", ["b"]), ("back", "epi:a1", "x", ["b"]),
         ("forth", "succ", "x"), ("back", "succ", "x"), ("forth", "pred", "x"),
         ("back", "pred", "x")])



def _three_world_fixture():
    """Three worlds on a 3-cycle in one settledness class, one choice profile
    with three coalition cells: its depth-1 window actualizes at n = 3 to a
    729-world matrix that is not partitioned."""
    return KripkeModel(
        ["a0", "a1"], ["a", "b", "c"], [["a", "b", "c"]], {"a": "b", "b": "c", "c": "a"},
        {"a0": [["a", "b", "c"]], "a1": [["a", "b", "c"]]},
        {"a0": [["a"], ["b"], ["c"]], "a1": [["a", "b", "c"]]},
        choice_ags=[["a"], ["b"], ["c"]], valuation={"p": ["a"]})


def _brute_morphism(mapping, source, target):
    """The morphism report of ``mapping`` from the window ``source`` by its
    definition, over world names and the cell accessors: each failed
    condition's counterexample is its first violation in world order."""
    inner = sorted(source.interior)
    images = {mapping[w] for w in source.worlds if w in mapping}
    steps = [("succ", source.succ.get, target.succ.get),
             ("pred", source.pred.get, (target.pred or {}).get)]
    start = mapping[source.root if source.root in mapping else inner[0]]
    reached, todo = {start}, [start]
    while todo:
        x = todo.pop()
        nxt = {y for fam in family_names(target.agents) for y in _mates(target, fam)(x)}
        nxt |= {step(x) for _, _, step in steps} - {None}
        todo.extend(nxt - reached)
        reached |= nxt
    unreached = sorted(reached - images)
    counterexamples = [("surjectivity", unreached[:4])] if unreached else []
    atoms = sorted(source.valuation.keys() | target.valuation.keys())
    bad_atom = min(((w, p) for p in atoms for w in inner
                    if source.holds(p, w) != target.holds(p, mapping[w])), default=None)
    counterexamples += [("atom", *bad_atom)] if bad_atom else []
    forth, back = {}, {}
    for name in family_names(source.agents):
        mates, tmates = _mates(source, name), _mates(target, name)
        forths = ((w, v) for w in inner for v in sorted(mates(w))
                  if v in mapping and mapping[v] not in tmates(mapping[w]))
        backs = ((w, sorted(tmates(mapping[w]) - {mapping[v] for v in mates(w) if v in mapping}))
                 for w in inner)
        bad_forth = next(forths, None)
        bad_back = next(((w, missed[:2]) for w, missed in backs if missed), None)
        forth[name], back[name] = bad_forth is None, bad_back is None
        counterexamples += [("forth", name, *bad_forth)] if bad_forth else []
        counterexamples += [("back", name, *bad_back)] if bad_back else []
    for name, sstep, tstep in steps:
        bad = [(w, sstep(w)) for w in inner if tstep(mapping[w]) is not None
               and mapping.get(sstep(w)) != tstep(mapping[w])]
        bad_forth = next((w for w, sw in bad if sw is not None), None)
        forth[name], back[name] = bad_forth is None, not bad
        counterexamples += [("forth", name, bad_forth)] if bad_forth else []
        counterexamples += [("back", name, bad[0][0])] if bad else []
    return MorphismReport(not unreached, bad_atom is None, forth, back, counterexamples)


def _tampered(mapping, source, target, rng):
    """Three projections that ``mapping`` becomes by one change at interior
    worlds of ``source``: the images of two worlds in different settledness
    cells swapped, a world sent to a box mate of its image, and a world sent
    to a world outside its image's class."""
    inner = sorted(source.interior)
    u = rng.choice(inner)
    apart = [v for v in inner if v not in source.box_cell(u) and mapping[v] != mapping[u]]
    mates = sorted(target.box_cell(mapping[u]) - {mapping[u]})
    others = sorted(set(target.worlds) - target.box_cell(mapping[u]))
    v = rng.choice(apart) if apart else None
    return [{**mapping, u: mapping[v], v: mapping[u]} if apart else None,
            {**mapping, u: rng.choice(mates)} if mates else None,
            {**mapping, u: rng.choice(others)} if others else None]


def test_bulk_morphism_decisions_agree_with_the_definition(grid50):
    # the grid windows are partitioned, so each family is decided in bulk
    # and only failing ones are walked; the fixture matrix is not, so every
    # family is walked
    fx_win, _ = unravel(_three_world_fixture(), "a", 1, require_valid=False)
    cases = [(*unravel(m, m.worlds[0], 2), m) for m in grid50]
    cases.append((*actualize(fx_win, n=3), fx_win))
    assert [win._dense().partitioned for win, _, _ in cases[-2:]] == [True, False]
    rng = random.Random(21)
    failed = {}  # kind of projection -> failed flags seen
    for win, proj, target in cases:
        assert check_bounded_morphism(proj, win, target).ok
        for kind, mapping in enumerate(_tampered(proj, win, target, rng)):
            if mapping is None:
                continue
            report = check_bounded_morphism(mapping, win, target)
            assert report == _brute_morphism(mapping, win, target)
            flags = {(way, fam) for way in ("forth", "back")
                     for fam, ok in getattr(report, way).items() if not ok}
            failed.setdefault(kind, set()).update(flags)
    # each kind of change fails forth and back somewhere
    assert all({way for way, _ in flags} == {"forth", "back"} for flags in failed.values())
    assert len(failed) == 3


def test_truth_preservation_on_generated_models(grid50):
    for i, m in enumerate(grid50[:10]):
        win, proj = unravel(m, m.worlds[0], 2)
        formulas = [random_formula(3000 + 10 * i + j, 3, sorted(m.valuation),
                                   list(m.agents), reach=(1, 1)) for j in range(6)]
        # each formula as it is, and under common knowledge
        for given in (formulas, list(map(F.CommonKnows, formulas))):
            rep = truth_preservation(win, m, proj, given)
            assert rep.ok and rep.compared > 0


def _sweep(structures):
    """Every entry point over each (structure, target, mapping) case, with
    the target and mapping of a window's truth preservation (None for a
    model): the calls that raised an error other than a KxstitError."""
    texts = ("C p", "C X p", "X p", "Y p", "K{ghost} p", "[] Y X p")
    faults = []

    def run(call, *args):
        try:
            return call(*args)
        except KxstitError:
            return None
        except Exception as e:  # noqa: BLE001 - each is a fault to report
            faults.append(f"{call.__name__} on {len(args[0].worlds)} worlds: {type(e).__name__}: {e}")

    for s, target, mapping in structures:
        formulas = [*(F.parse(t, allow_common_knowledge=True) for t in texts),
                    F.Macro("ExPost", s.agents[0], F.Atom("p"))]
        w = s.worlds[0] if target is None else s.root
        for mode in ("actual", "super_additive"):
            report = run(validate_frame, s, mode, 2)
            if report is not None and target is not None:
                assert report == validate_window(s, mode, 2)
        for f in formulas:
            truth, ext = run(eval_formula, s, w, f), run(extension, s, f)
            if truth is not None and ext is not None:
                assert truth == (w in ext)
            run(valid_on_model, s, f)
            run(knowledge_report, s, w, s.agents[0], f)
            run(check_refinement, s, None, [f])
            run(window_eval, s, w, f)
            run(truth_preservation, s, target or s, mapping or {}, [f])
        for require_valid in (True, False):
            run(unravel, s, w, 1, require_valid)
    return faults


def test_entry_points_take_models_and_windows(fig1a, grid50):
    # each entry point gives a result or a KxstitError on models and
    # windows alike; the window-only calls refuse a model, and unravel a
    # window, with InvalidModel
    m = grid50[0]
    win, proj = unravel(m, m.worlds[0], 2)
    forced, fproj = unravel(fig1a, fig1a.worlds[0], 1, require_valid=False)
    fx_win, _ = unravel(_three_world_fixture(), "a", 1, require_valid=False)
    mat, mproj = actualize(fx_win, n=3)
    cases = [(fig1a, None, None), (m, None, None), (win, m, proj), (forced, fig1a, fproj),
             (mat, fx_win, mproj)]
    assert _sweep(cases) == []
    # the matrix is not partitioned, but three of its families are partitions
    assert mat._dense().partitions == {"ags", "epi:a0", "epi:a1"}
    p = F.Atom("p")
    for s in (win, mat):
        for require_valid in (True, False):
            with pytest.raises(InvalidModel, match="successor map is partial"):
                unravel(s, s.root, 1, require_valid)
    for s in (fig1a, m):
        with pytest.raises(InvalidModel, match="no layers"):
            window_eval(s, s.worlds[0], p)
        with pytest.raises(InvalidModel, match="no layers"):
            truth_preservation(s, s, {w: w for w in s.worlds}, [p])
    # C evaluates on a window, and a missing step is a DepthExceedsWindow
    edge = next(w for w in win.worlds if win.layer[w] == win.horizon)
    c = F.CommonKnows(p)
    assert extension(win, c) == {w for w in win.worlds if eval_formula(win, w, c)}
    with pytest.raises(DepthExceedsWindow, match=f"succ undefined at {re.escape(edge)}"):
        extension(win, F.Next(p))


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


def test_truth_preservation_reports_are_pinned(fig1a):
    # fig1a fails NA, NAGS, NOF and NX, so its windows are not bounded
    # morphic preimages: the reports hold mismatches, each in its place.
    # The digest is the sha256 of the JSON dump of the report fields, per
    # root, depth and margin in that order
    props, agents = sorted(fig1a.valuation), list(fig1a.agents)
    formulas = [random_formula(7000 + j, 2, props, agents, reach=(1, 1), include_sugar=True)
                for j in range(40)]
    records = []
    for root in ("m4_h10", "m2_h3", "pre_h4"):
        for depth in (1, 2):
            win, proj = unravel(fig1a, root, depth, require_valid=False)
            for margin in (0, 1):
                rep = truth_preservation(win, fig1a, proj, formulas, margin)
                records.append([rep.compared, [list(m) for m in rep.mismatches], rep.skipped])
    compared, mismatches, skipped = zip(*records)
    assert (sum(compared), sum(map(len, mismatches)), sum(map(len, skipped))) == (106_560, 96, 27)
    assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == (
        "2a495e14ade6ecfe3c3e86ead92b61115e586234c7ebf3555d8e8b5621452e94")



def test_truth_preservation_reads_macros_as_their_expansions(fig1a):
    # each stage macro over each fig1a atom, and two formulas around macros
    # that mismatch on fig1a windows: the report of a macro formula is the
    # report of its expansion, with the formula printed as given
    atoms = [F.Atom(p) for p in sorted(fig1a.valuation)]
    formulas = [F.Macro(name, a, p) for name in F.MACRO_NAMES for a in fig1a.agents for p in atoms]
    formulas += [F.Or(F.Macro("ExAnte", "luther", F.Atom("d_L")), F.parse("[] Y r_L")),
                 F.Macro("Kh", "benji", F.parse("~[] Y r_L"))]
    expanded = list(map(F.expand_macros, formulas))
    texts = dict(zip(map(F.to_text, expanded), map(F.to_text, formulas)))
    mismatched = set()
    for depth, margin in ((1, 1), (2, 0)):
        win, proj = unravel(fig1a, "m4_h10", depth, require_valid=False)
        got = truth_preservation(win, fig1a, proj, formulas, margin)
        want = truth_preservation(win, fig1a, proj, expanded, margin)
        assert got.compared == want.compared
        assert got.mismatches == [(w, texts[t], a, b) for w, t, a, b in want.mismatches]
        assert got.skipped == [texts[t] for t in want.skipped]
        mismatched.update(t for _, t, _, _ in got.mismatches)
    assert mismatched == {"ExAnte(luther, d_L) | [](Y(r_L))", "Kh(benji, ~([](Y(r_L))))"}


def test_truth_preservation_names_the_first_unmapped_fitting_world(grid50):
    m = grid50[1]
    win, proj = unravel(m, m.worlds[0], 2)
    first = next(iter(proj))  # layer -2, listed after w0_0;1 in world order
    assert (first, win.layer[first]) == ("w0_0|w0_1|w0_2;0", -2)
    p, yp = F.parse("p"), F.parse("Y p")
    for dropped, named in (([first], first), ([first, "w0_0;1"], "w0_0;1")):
        partial = {w: b for w, b in proj.items() if w not in dropped}
        with pytest.raises(PartialMap, match=re.escape(f"mapping undefined on {named!r}")):
            truth_preservation(win, m, partial, [yp, p])
    # Y p fits from layer -1 up, so the world at layer -2 is never compared
    partial = {w: b for w, b in proj.items() if w != first}
    assert truth_preservation(win, m, partial, [yp]) == truth_preservation(win, m, proj, [yp])


def test_window_eval_epistemic_jump_stays_sound(grid50):
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
    cases = []
    # sugared formulas of reach (2, 2) on depth-3 unravelings
    texts = ["X X p -> Y Y q", "<> (Y Y p | X X ~q)", "[Ags] X X p | K{a0} Y Y q"]
    for i, base in enumerate(grid50[:8]):
        w3, p3 = unravel(base, base.worlds[0], 3)
        formulas = [random_formula(4000 + 10 * i + j, 4, sorted(base.valuation), list(base.agents),
                                   reach=(2, 2), include_sugar=True) for j in range(4)]
        cases.append((w3, p3, base, formulas + [F.parse(t) for t in texts]))
    # the actualized matrix of a frame-valid window, through the composed
    # projection onto the base
    base = random_model(GenParams(seed=3, agent_count=2, box_class_count=2, max_class_size=2))
    w2, p2 = unravel(base, base.worlds[0], 2)
    assert validate_window(w2, "actual", 1).ok
    mat, mproj = actualize(w2)
    formulas = [random_formula(600 + j, 3, sorted(base.valuation), list(base.agents),
                               reach=(1, 1), include_sugar=True) for j in range(8)]
    cases.append((mat, {w: p2[mproj[w]] for w in mat.worlds}, base, formulas))
    # truth_preservation reads the same walk as window_eval, at every world
    # where a formula fits, against eval_formula on the base
    compared = {}
    for window, to_base, base, formulas in cases:
        for margin in (0, 1):
            rep = truth_preservation(window, base, to_base, formulas, margin)
            assert rep.ok, (margin, rep.mismatches[:3])
            compared[window is mat, margin] = compared.get((window is mat, margin), 0) + rep.compared
    assert min(compared.values()) > 50, compared


def _window_truths(win, f):
    """window_eval of ``f`` at every world of ``win`` where it fits."""
    d = win._dense()
    mask, fitting, _ = _window_masks(win, d, f, 0)
    return {d.names[i]: bool(mask >> i & 1) for i in _bits(fitting)}


def test_window_eval_on_bases_that_fail_frame_validation(super_additive_fixture, fig1a):
    # Above layer 0 an unravelled window splits settledness and choice cells
    # by the coalition cells passed.  A base that fails NX, NA or NAGS is
    # then not a bounded morphic image of its window, so through the
    # projection window_eval equals the base only on formulas that read no
    # such cell: those without [], <>, [a] or [Ags].  Every formula reads the
    # window itself, and keeps its value at a world when the window deepens.
    historic = (F.Box, F.Diamond, F.Stit, F.StitAgs)
    for base, root in ((super_additive_fixture, "a"), (fig1a, "m4_h10")):
        failed = {c.condition for c in validate_frame(base, "super_additive", 4).failed()}
        assert "NAGS" in failed
        formulas = [random_formula(seed, 4, sorted(base.valuation), list(base.agents), reach=(1, 1),
                                   include_sugar=True) for seed in range(100)]
        free = [f for f in formulas
                if not any(isinstance(g, historic) for g in F.subformulas(F.expand_macros(f)))]
        (small, _), (win, proj), (deep, _) = (unravel(base, root, depth, require_valid=False)
                                              for depth in (1, 2, 3))
        assert check_bounded_morphism(proj, win, base).back["box"] is False
        rep = truth_preservation(win, base, proj, free)
        assert rep.ok and len(free) >= 10 and rep.compared >= 100, rep.mismatches[:3]
        for f in formulas:
            truths = [_window_truths(window, f) for window in (small, win, deep)]
            for fits, deeper in zip(truths, truths[1:]):
                assert fits and fits == {w: deeper[w] for w in fits}, F.to_text(f)
    # the fixture's window reads a split settledness cell at layer 1
    win, proj = unravel(super_additive_fixture, "a", 2, require_valid=False)
    f = F.parse("[] [a0] Y [Ags] p")
    assert window_eval(win, "a|b;1", f) is True
    assert eval_formula(super_additive_fixture, proj["a|b;1"], f) is False


def test_overlapping_cells_of_a_window_are_reported(grid50):
    # w0_0;1 gets a mate in another cell, which keeps its own cell, so the
    # relation is not symmetric
    win, _ = unravel(grid50[2], grid50[2].worlds[0], 2)
    assert win.box_cell("w0_0;1") == win.ags_cell("w0_0;1") == {"w0_0;1"}
    failed = {}
    for fam in ("box", "ags"):
        cell = win.rel[fam]["w0_0;1"] | {"w0_0|w0_0;0"}
        bad = _rebuilt(win, rel={**win.rel, fam: {**win.rel[fam], "w0_0;1": cell}})
        failed[fam] = [(c.condition, c.witness, c.explanation)
                       for c in validate_window(bad, "actual", 2).failed()]
    pair = ["w0_0;1", "w0_0|w0_0;0"]
    past = "predecessors w0_0|w0_0;0, w0_0|w0_0|w0_0;0 not"
    assert failed == {
        "box": [("EQ", pair, "box not symmetric"),
                ("IA", ["w0_0;1"], "empty selection through cells of "
                                   "['w0_0;1', 'w0_0;1', 'w0_0|w0_0;0']"),
                ("NA", pair, f"{past} choice-related for a0"),
                ("NAGS", pair, f"{past} coalition-choice-related"),
                ("NX", pair, f"{past} settledness-related")],
        "ags": [("ADDITIVITY", ["w0_0;1"],
                 "coalition cell differs from the intersection of agent cells"),
                ("EQ", pair, "ags not symmetric"),
                ("SET", ["w0_0;1"], "coalition cell leaves the settledness class")]}


def test_window_edited_after_use_is_read_as_it_stands(one_world):
    # a window is a value, so an edited window is one built anew
    win, _ = unravel(one_world, "w", 2)
    assert validate_window(win, "actual", 1).ok
    assert window_eval(win, "w;1", F.parse("X p")) is True
    win = _rebuilt(win, valuation={"p": {"w;1"}})
    assert window_eval(win, "w;1", F.parse("X p")) is False
    win = _rebuilt(win, succ={**win.succ, "w;1": "w;1"})
    eq = validate_window(win, "actual", 1).checks[2]
    assert (eq.condition, eq.passed, eq.witness, eq.explanation) == (
        "EQ", False, ["w;1"], "succ reflexive on the interior")
    assert window_eval(win, "w;1", F.parse("X p")) is True


@pytest.mark.parametrize("model, depth, names", [("one_world", 223, 50_399),
                                                  ("fig1a", 24, 51_920)])
def test_unravel_refuses_a_window_with_too_long_ids(request, model, depth, names):
    # the least refused depth: the ids of a base world's 2d + 1 worlds list
    # d^2 + 3d + 1 world names, and one depth less stays within the limit
    m = request.getfixturevalue(model)
    with pytest.raises(WindowTooLarge, match=f"would list {names} world names, over the limit "
                                             f"of {MAX_MATRIX_WORLDS}$"):
        unravel(m, m.worlds[0], depth, require_valid=False)
    win, _ = unravel(m, m.worlds[0], depth - 1, require_valid=False)
    listed = sum(w.count("|") + 1 for w in win.worlds)
    assert listed == len(m.worlds) * ((depth - 1) ** 2 + 3 * (depth - 1) + 1) <= MAX_MATRIX_WORLDS


def test_window_eval_needs_the_steps_of_fitting_worlds(one_world):
    win, _ = unravel(one_world, "w", 2)
    win = _rebuilt(win, succ={w: v for w, v in win.succ.items() if w != "w|w;0"})
    # X p fits at the layer -1 world, whose successor is gone
    with pytest.raises(DepthExceedsWindow, match=r"succ undefined at w\|w;0"):
        window_eval(win, "w;1", F.parse("X p"))
    assert window_eval(win, "w;1", F.parse("p")) is True
    win = _rebuilt(win, pred={w: v for w, v in win.pred.items() if w != "w|w;1"})
    with pytest.raises(DepthExceedsWindow, match=r"pred undefined at w\|w;1"):
        window_eval(win, "w;1", F.parse("[] Y p"))


def test_choice_profiles_single_agent_two_cells():
    m = KripkeModel(["a"], ["x", "y"], [["x", "y"]], {"x": "x", "y": "y"},
                    {"a": [["x"], ["y"]]}, {"a": [["x"], ["y"]]})
    table = choice_profiles(m, "x")
    assert len(table.profiles) == 2
    for i in range(2):
        assert table.cells_by_profile[i] == (table.profiles[i][0],)


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
    assert table.enumeration[0] == (frozenset({"w"}),) * 3


def test_actualize_requires_irreflexive_interior(one_world):
    win, _ = unravel(one_world, "w", 2)
    # sabotage: a self-looping interior successor
    win = _rebuilt(win, succ={**win.succ, "w;1": "w;1"})
    with pytest.raises(SourceNotIrreflexive):
        actualize(win)


@pytest.mark.parametrize("n", [0, -3])
def test_bound_below_one_is_a_value_error(one_world, n):
    win, _ = unravel(one_world, "w", 2)
    with pytest.raises(ValueError, match="n must be positive"):
        actualize(win, n=n)
    with pytest.raises(ValueError, match="n must be positive"):
        validate_window(win, "actual", n)
    with pytest.raises(ValueError, match="n must be positive"):
        validate_frame(one_world, "actual", n)


def test_actualize_already_actual_source():
    m = random_model(GenParams(seed=3, agent_count=2, box_class_count=1, max_class_size=2))
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


def test_actualized_cells_are_shared(super_additive_fixture):
    # one frozenset object per distinct cell value in every family
    for depth in (1, 2):
        win, _ = unravel(super_additive_fixture, "a", depth, require_valid=False)
        mat, _ = actualize(win, n=2)
        for fam, cells in mat.rel.items():
            assert len({id(c) for c in cells.values()}) == len(set(cells.values())), fam
    assert len(mat.worlds) == 1280


def test_actualize_memory_is_bounded(super_additive_fixture):
    # the traced peak of the 1280-world actualization is about 3.2 MB; one
    # frozenset per world and family, built pair by pair, peaked at 45 MB
    win, _ = unravel(super_additive_fixture, "a", 2, require_valid=False)
    tracemalloc.start()
    try:
        mat, _ = actualize(win, n=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(mat.worlds) == 1280 and peak < 7_000_000


def test_actualize_refuses_a_matrix_over_its_limit(super_additive_fixture):
    # the world count is known from the option lists before any world is built
    win, _ = unravel(super_additive_fixture, "a", 3, require_valid=False)
    with pytest.raises(MatrixTooLarge, match="14336 worlds, over the limit of 14335") as err:
        actualize(win, n=2, max_worlds=14_335)
    assert (err.value.worlds, err.value.limit) == (14_336, 14_335)
    win, _ = unravel(super_additive_fixture, "a", 2, require_valid=False)
    assert len(actualize(win, n=2, max_worlds=1280)[0].worlds) == 1280
    with pytest.raises(MatrixTooLarge):
        actualize(win, n=2, max_worlds=1279)


@pytest.mark.parametrize("agents, n, max_worlds", [(1, 10**7, MAX_MATRIX_WORLDS), (3, 140, 10)])
def test_actualize_refuses_before_it_builds_the_options(agents, n, max_worlds):
    # the padded enumerations and the n ** agents vectors would hold 10^7
    # and 2.7 * 10^6 entries: the refusal comes from counts alone
    m = random_model(GenParams(seed=3, agent_count=agents, box_class_count=1))
    win, _ = unravel(m, "w0_0", 1)
    tracemalloc.start()
    try:
        with pytest.raises(MatrixTooLarge):
            actualize(win, n=n, max_worlds=max_worlds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_actualize_takes_the_options_in_vector_order(n, super_additive_fixture):
    # three coalition cells in one profile: n = 1 and 2 cut cells off, n = 4
    # repeats the last; every matrix world is the next combination, in
    # product order, of the vectors whose sum mod n indexes the cell
    t, s = [["a", "b", "c"]], [["a"], ["b"], ["c"]]
    three = KripkeModel(["a0", "a1"], ["a", "b", "c"], t, {"a": "b", "b": "c", "c": "a"},
                        {"a0": t, "a1": t}, {"a0": s, "a1": t}, choice_ags=s)
    for model in (three, super_additive_fixture):
        win, _ = unravel(model, "a", 1, require_valid=False)
        options = {}
        for v in win.worlds:
            table = choice_profiles(win, v, n=n)
            cells = table.enumeration[table.profile_of_world[v]]
            options[v] = [vec for vec in itertools.product(range(n), repeat=2)
                          if cells[sum(vec) % n] == win.ags_cell(v)]
        expected = {}
        for w in win.worlds:
            chain = [w]
            while win.pred_of(chain[0]) is not None:
                chain.insert(0, win.pred_of(chain[0]))
            while win.succ_of(chain[-1]) is not None:
                chain.append(win.succ_of(chain[-1]))
            for count, combo in enumerate(itertools.product(*(options[v] for v in chain))):
                expected[f"{w}#{count}"] = tuple(sorted(zip(chain, combo)))
        # and the count that the refusal reads is the matrix's size
        mat, _ = actualize(win, n=n, max_worlds=len(expected))
        assert {wid: mw.index_fn for wid, mw in mat.matrix_worlds.items()} == expected
        with pytest.raises(MatrixTooLarge):
            actualize(win, n=n, max_worlds=len(expected) - 1)


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
# prints the witnesses of its failed conditions, then the counterexamples of
# a projection with two images swapped.
_WITNESS_SCRIPT = """
import json
import random
from kxstit.model import KripkeModel
from kxstit.transform import actualize, check_bounded_morphism, unravel, validate_window
fx = KripkeModel(
    ["a0", "a1"], ["a", "b", "c"], [["a", "b", "c"]], {"a": "b", "b": "c", "c": "a"},
    {"a0": [["a", "b", "c"]], "a1": [["a", "b", "c"]]},
    {"a0": [["a"], ["b"], ["c"]], "a1": [["a", "b", "c"]]},
    choice_ags=[["a"], ["b"], ["c"]], valuation={"p": ["a"]})
win, _ = unravel(fx, "a", 1, require_valid=False)
mat, mproj = actualize(win, n=3)
report = validate_window(mat, "actual", 3)
u, v = random.Random(1).sample(sorted(mat.interior), 2)
swapped = check_bounded_morphism({**mproj, u: mproj[v], v: mproj[u]}, mat, win)
print(json.dumps([len(mat.worlds)] + [[c.condition, c.witness] for c in report.failed()]
                 + [swapped.counterexamples]))
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
    assert runs[0][0] == 729 and len(runs[0][-1]) > 1
    assert runs[0] == runs[1]


def _rebuilt(win, **changes):
    """A copy of ``win`` built through the constructor, with some parts
    replaced."""
    parts = dict(agents=win.agents, worlds=win.worlds, layer=win.layer,
                 interior=win.interior, horizon=win.horizon, root=win.root,
                 succ=win.succ, pred=win.pred, rel=win.rel, valuation=win.valuation)
    parts.update(changes)
    return WindowModel(**parts)


def _cells(win, fam):
    """The distinct cells of family ``fam``, by least world."""
    return sorted(set(win.rel[fam].values()), key=min)


def _merged(win, fam, mine, other):
    """A copy of ``win`` whose ``fam`` cells ``mine`` and ``other`` are one
    cell."""
    cell = mine | other
    return _rebuilt(win, rel={**win.rel, fam: {w: cell if w in cell else c
                                               for w, c in win.rel[fam].items()}})


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
        other = next((c for c in _cells(win, f"choice:{a}") if not c <= win.box_cell(u)), None)
        if other is None:
            continue
        bad = _merged(win, f"choice:{a}", win.choice_cell(a, u), other)
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
        other = next((c for c in _cells(win, "ags") if c != mine), None)
        if other is None:
            continue
        bad = _merged(win, "ags", mine, other)
        report = validate_window(bad, "actual", 2)
        assert _shows_failure(bad, _failure(report, "ADDITIVITY"), 2)
        tried += 1
    assert tried >= 5


_EDITS = ["rel cell replaced", "succ deleted", "succ redirected", "pred changed",
          "valuation set mutated", "interior reassigned", "layer changed"]


def _edit(s, kind, u, v):
    """Edit the model or window ``s`` in place at interior world ``u``, whose
    successor ``v`` is in ``s``.  A model has no layers, so its layer edit
    gives it some."""
    if kind == "rel cell replaced":
        s.rel["box"][u] = frozenset(s.worlds)
    elif kind == "rel family replaced":
        s.rel["box"] = dict.fromkeys(s.worlds, frozenset(s.worlds))
    elif kind == "succ deleted":
        del s.succ[u]
    elif kind == "succ redirected":
        s.succ[u] = u
    elif kind == "pred changed":
        s.pred[v] = v
    elif kind == "valuation set mutated":
        s.valuation["p"].symmetric_difference_update({u})
    elif kind == "valuation replaced":
        s.valuation["p"] = frozenset()
    elif kind == "interior reassigned":
        s.interior = (s.interior or frozenset(s.worlds)) - {u}
    elif kind == "layer changed" and s.layer is None:
        s.layer = dict.fromkeys(s.worlds, 0)
    elif kind == "layer changed":
        s.layer[u] += 1
    elif kind == "matrix worlds cleared":
        s.matrix_worlds.clear()
    elif kind == "table field assigned":
        s.tables[min(s.tables)].n = 99
    elif kind == "table enumeration cleared":
        s.tables[min(s.tables)].enumeration[0].clear()
    elif kind == "table profiles appended":
        s.tables[min(s.tables)].profiles.append(None)
    elif kind == "table profile map cleared":
        s.tables[min(s.tables)].profile_of_world.clear()
    else:
        del s.valuation


def _edited(win, kind, u, v):
    """A copy of ``win`` built through the constructor with the edit
    ``kind`` of ``_EDITS`` at interior world ``u``, whose successor ``v`` is
    in the window.  The new cell is given as a set, which the constructor
    freezes."""
    if kind == "rel cell replaced":
        return _rebuilt(win, rel={**win.rel, "box": {**win.rel["box"], u: set(win.worlds)}})
    if kind == "succ deleted":
        return _rebuilt(win, succ={w: s for w, s in win.succ.items() if w != u})
    if kind == "succ redirected":
        return _rebuilt(win, succ={**win.succ, u: u})
    if kind == "pred changed":
        return _rebuilt(win, pred={**win.pred, v: v})
    if kind == "valuation set mutated":
        return _rebuilt(win, valuation={**win.valuation, "p": win.valuation["p"] ^ {u}})
    if kind == "interior reassigned":
        return _rebuilt(win, interior=win.interior - {u})
    return _rebuilt(win, layer={**win.layer, u: win.layer[u] + 1})


def _interior_step(s):
    """The least interior world of ``s`` whose successor has a predecessor,
    and that successor."""
    u = min(w for w in (s.interior or s.worlds) if s.succ.get(w) in s.pred)
    return u, s.succ[u]


def _fresh_frame(s):
    """A dense frame of ``s``, built from its fields as they stand."""
    return DenseFrame(s.worlds, s.agents, [s.rel[name] for name in family_names(s.agents)],
                      s.succ, s.pred or {}, s.valuation, s.interior, s.layer)


def _same_frame(d, e):
    return all(getattr(d, slot) == getattr(e, slot) for slot in DenseFrame.__slots__)


@pytest.fixture(scope="module")
def edit_sources(grid50):
    """(model, window, n) triples: the models of ``grid50`` with an atom
    ``p``, each with its depth-2 window, and the three-world fixture with its
    729-world matrix."""
    fx = _three_world_fixture()
    mat, _ = actualize(unravel(fx, "a", 1, require_valid=False)[0], n=3)
    wins = [(m, unravel(m, m.worlds[0], 2)[0], 2) for m in grid50 if "p" in m.valuation]
    return [*wins, (fx, mat, 3)]


def test_unchanged_window_keeps_its_frame(edit_sources):
    for m, win, _ in edit_sources:
        assert win._dense() is win._dense() and m._dense() is m._dense()


_MATRIX_EDITS = ["matrix worlds cleared", "table field assigned", "table enumeration cleared",
                 "table profiles appended", "table profile map cleared"]


@pytest.mark.parametrize("kind", ["model", "window"])
@pytest.mark.parametrize("edit", [*_EDITS, "rel family replaced", "valuation replaced",
                                  "field deleted", *_MATRIX_EDITS])
def test_edits_are_refused(edit_sources, kind, edit):
    # a model or window is a value: an edit raises, and the kept frame and
    # the frame report still match its fields.  Of the sources only the
    # fixture's matrix has matrix worlds and profile tables to edit
    validate = validate_window if kind == "window" else validate_frame
    for source in edit_sources:
        s, n = source[kind == "window"], source[2]
        first, report = s._dense(), validate(s, "actual", n)
        with pytest.raises((AttributeError, TypeError)):
            _edit(s, edit, *_interior_step(s))
        assert s._dense() is first and _same_frame(first, _fresh_frame(s))
        assert validate(s, "actual", n) == report == check_frame(_fresh_frame(s), "actual", n)
        if getattr(s, "tables", None):
            assert len(s.matrix_worlds) == len(s.worlds) and {t.n for t in s.tables.values()} == {n}


@pytest.mark.parametrize("edit", _EDITS)
def test_window_frame_follows_in_place_edits(edit_sources, edit):
    # the edited window is built anew, and builds a frame of its own
    for _, source, n in edit_sources:
        win = _edited(source, edit, *_interior_step(source))
        got = win._dense()
        assert _same_frame(got, _fresh_frame(win)) and not _same_frame(got, source._dense())
        assert validate_window(win, "actual", n) == check_frame(_fresh_frame(win), "actual", n)
