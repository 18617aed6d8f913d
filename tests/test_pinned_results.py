"""Digests of frame reports, window evaluations and suite fills, pinned so
that a change to the validators, evaluators or generators that moves any
verdict, witness, truth value or drawn formula shows up.  Each digest is
the sha256 of the JSON dump of the records listed in its test."""

import hashlib
import json

import pytest

from kxstit import axioms
from kxstit import formula as F
from kxstit.errors import DepthExceedsWindow
from kxstit.gen import random_formula
from kxstit.model import KripkeModel, validate_frame
from kxstit.transform import (_window_masks, actualize, truth_preservation, unravel,
                              validate_window, window_eval)

MODES = ("actual", "super_additive")
BOUNDS = (1, 2, 4)
MATRIX_TEXTS = ("p", "~p", "X p", "Y p", "p & X ~p", "p -> Y p", "[] p", "<> X p",
                "K{a0} Y p", "[a0] ~p | [Ags] X p", "K{a1} (p | X p)", "[Ags] Y ~p")


def _digest(records):
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def _fixture():
    """Three worlds on a 3-cycle in one settledness class, one choice profile
    with three coalition cells (the benchmark's actualization fixture)."""
    return KripkeModel(
        ["a0", "a1"], ["a", "b", "c"], [["a", "b", "c"]], {"a": "b", "b": "c", "c": "a"},
        {"a0": [["a", "b", "c"]], "a1": [["a", "b", "c"]]},
        {"a0": [["a"], ["b"], ["c"]], "a1": [["a", "b", "c"]]},
        choice_ags=[["a"], ["b"], ["c"]], valuation={"p": ["a"]})


def _matrix(depth, n):
    win, _ = unravel(_fixture(), "a", depth, require_valid=False)
    return actualize(win, n=n)[0]


@pytest.fixture(scope="module")
def windows(grid50):
    """(window, formulas): the depth-2 unravelings of the 50-model grid with
    seeded formulas, then the fixture's 729-world matrix."""
    out = []
    for i, m in enumerate(grid50):
        win, _ = unravel(m, m.worlds[0], 2)
        props, agents = sorted(m.valuation), list(m.agents)
        fs = [random_formula(70_000 + 7 * i + j, 3, props, agents, reach=(1, 1)) for j in range(3)]
        fs.append(random_formula(70_500 + i, 3, props, agents, reach=(2, 1), include_sugar=True))
        out.append((win, fs))
    out.append((_matrix(1, 3), [F.parse(t) for t in MATRIX_TEXTS]))
    return out


def test_validate_frame_results_are_pinned(grid200, fig1a, fig1b):
    records = [[c.condition, c.passed, c.witness]
               for m in [*grid200, fig1a, fig1b] for mode in MODES for n in BOUNDS
               for c in validate_frame(m, mode, n).checks]
    assert len(records) == 202 * 6 * 11
    assert _digest(records) == "dfd289630c1ee0671e59a1d871ab83cebca3b41a08b41738c40e1568e36c610b"


def test_validate_window_reports_are_pinned(windows):
    records = [[c.condition, c.passed, c.witness, c.explanation]
               for win, _ in windows for mode in MODES for n in BOUNDS
               for c in validate_window(win, mode, n).checks]
    assert _digest(records) == "bec043799cf32c672a9a5176cb8ed785e7ed340045dbcd53096c728af015c140"


def test_window_eval_values_are_pinned(windows):
    # one row per (window, formula, margin): window_eval's value at each
    # world, or "-" where it raises DepthExceedsWindow; the rows are read
    # from the one truth mask per formula that window_eval reads a bit of
    cases = [*windows, (_matrix(2, 2), [F.parse(t) for t in MATRIX_TEXTS])]
    records = []
    for win, formulas in cases:
        d = win._dense()
        for f in formulas:
            for margin in (0, 1):
                mask, fitting, _ = _window_masks(win, d, f, margin)
                row = "".join("-" if not fitting >> i & 1 else "1" if mask >> i & 1 else "0"
                              for i in range(len(win.worlds)))
                i = d.index[win.root]
                try:
                    assert row[i] == ("1" if window_eval(win, win.root, f, margin) else "0")
                except DepthExceedsWindow:
                    assert row[i] == "-"
                records.append(row)
    assert "1" in "".join(records) and "0" in "".join(records)
    assert _digest(records) == "2a851b1edb4fe429e68aaec0d63a330462fcc4579fa1196baca437111687e2b5"


def family(cells, worlds):
    """A family's sorted distinct cells and the index of each world's cell
    among them."""
    distinct = sorted(sorted(c) for c in set(cells.values()))
    index = {frozenset(c): i for i, c in enumerate(distinct)}
    return [distinct, [index[cells[w]] for w in worlds]]


def _window_record(win, proj):
    """Worlds, each family's cells, steps, layers, interior, valuation, root
    and projection of a window."""
    return [list(win.worlds), {fam: family(win.rel[fam], win.worlds) for fam in sorted(win.rel)},
            sorted(win.succ.items()), sorted(win.pred.items()), [win.layer[w] for w in win.worlds],
            sorted(win.interior), {p: sorted(ws) for p, ws in sorted(win.valuation.items())},
            win.root, sorted(proj.items())]


def test_unraveled_windows_are_pinned(grid50, fig1a):
    # the depth-2 unravelings of the windows fixture, then fig1a, which
    # fails frame validation, unraveled at m2_h3 to depths 1 and 2
    records = [_window_record(*unravel(m, m.worlds[0], 2)) for m in grid50]
    records += [_window_record(*unravel(fig1a, "m2_h3", depth, require_valid=False))
                for depth in (1, 2)]
    assert len(records) == 52
    assert _digest(records) == "2c0e3be9c3555e6313dccc01c01679bc1ad91c8db559fcbac9640f02b3d2cfbb"


def test_actualized_matrices_are_pinned(super_additive_fixture):
    # the 729-world matrix of the three-world fixture and the 1280-world
    # matrix of the two-world one
    digests = []
    for model, depth, n in ((_fixture(), 1, 3), (super_additive_fixture, 2, 2)):
        win, _ = unravel(model, "a", depth, require_valid=False)
        mat, proj = actualize(win, n=n)
        digests.append(_digest(_window_record(mat, proj)))
    assert digests == ["7d7042272f8ed14023915ccf828aa9932884d5a923aaa215b429abee7e998806",
                       "6b182cdb2af41d27e67b480b68e750a786ec5a4439d8e190778a5a78db5098e4"]


def test_truth_preservation_onto_a_window_is_pinned():
    # the matrix checked against the window it actualizes, through its own
    # projection: the window is the target that the top-down walk reads
    win, _ = unravel(_fixture(), "a", 1, require_valid=False)
    mat, mproj = actualize(win, n=3)
    rep = truth_preservation(mat, win, mproj, [F.parse(t) for t in MATRIX_TEXTS[:6]])
    assert (rep.compared, rep.mismatches, rep.skipped) == (3402, [], [])


def test_suite_fills_are_pinned(grid200, monkeypatch):
    # every instance that the soundness suite (policy seed 17) and the
    # derived-theorem suite (seed 23) of the acceptance tests draw on the
    # grid: model, schema, fills as text and agents, recorded in place of
    # the validity check
    drawn = []

    def record(report, m, model_id, name, fills, agents, n=None):
        drawn.append([model_id, name, [F.to_text(f) for f in fills], list(agents)])

    monkeypatch.setattr(axioms, "_check_instance", record)
    axioms.soundness_suite(grid200, axioms.SuitePolicy(seed=17, fills_per_schema=10,
                                                       ia_max_agents=3),
                           n_bounds=[2] * len(grid200))
    sound, drawn[:] = list(drawn), []
    axioms.derived_theorem_suite(grid200, axioms.SuitePolicy(seed=23, fills_per_schema=10),
                                 n_bounds=[2] * len(grid200))
    assert (len(sound), len(drawn)) == (55_995, 6_394)
    assert [_digest(sound), _digest(drawn)] == [
        "c7bc9539f5165bdb0b58dadcc686063b55d353f517e4fd796a888efd4a4d370d",
        "e9b7f0f1d36e02c14caed948843199bd8684155c0e50e5f20a348f28a9849d13"]
