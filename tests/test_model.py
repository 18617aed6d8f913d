import json

import pytest

from conftest import mutants

from kxstit.errors import PartitionError, SchemaError, SuccNotTotal
from kxstit.gen import GenParams, random_model
from kxstit.model import (DenseFrame, KripkeModel, _check_additivity, _check_set, check_frame,
                          load_model, make_partition, validate_frame)
from kxstit.transform import unravel


def test_smallest_legal_model_loads_and_validates(one_world):
    report = validate_frame(one_world, "actual", 1)
    assert report.ok
    text = one_world.dumps()
    again = load_model(text)
    assert again.dumps() == text


def test_loading_is_separate_from_validation():
    # a choice cell spanning two settledness classes loads fine, then fails SET
    m = KripkeModel(["a"], ["u", "v"], [["u"], ["v"]], {"u": "v", "v": "u"},
                    {"a": [["u", "v"]]}, {"a": [["u"], ["v"]]})
    report = validate_frame(m, "actual", 1)
    assert not report.ok
    failed = {c.condition for c in report.failed()}
    assert "SET" in failed


def test_noninjective_succ_fails_bijectivity_with_witness():
    m = KripkeModel(["a"], ["u", "v", "w"], [["u", "v"], ["w"]],
                    {"u": "w", "v": "w", "w": "u"},
                    {"a": [["u", "v"], ["w"]]}, {"a": [["u"], ["v"], ["w"]]})
    report = validate_frame(m, "actual", 1)
    byname = {c.condition: c for c in report.checks}
    assert (byname["EQ"].passed, byname["EQ"].witness, byname["EQ"].explanation) == (
        False, ["u", "v"], "succ not injective")
    assert (byname["INVERSE"].passed, byname["INVERSE"].witness,
            byname["INVERSE"].explanation) == (False, ["u"], "pred(succ) is not identity")
    # three worlds share a successor: the witness is the first two of them
    m = KripkeModel(["a"], ["u", "v", "w", "x"], [["u", "v", "w", "x"]],
                    {"u": "x", "v": "x", "w": "x", "x": "u"},
                    {"a": [["u", "v", "w", "x"]]}, {"a": [["u", "v", "w", "x"]]})
    eq = next(c for c in validate_frame(m, "actual", 1).checks if c.condition == "EQ")
    assert (eq.witness, eq.explanation) == (["u", "v"], "succ not injective")


def test_missing_product_cell_fails_ia():
    # three agents, two cells each, one empty selection
    worlds = [f"w{i}" for i in range(7)]  # 2**3 - 1 combinations realized
    combos = [(x, y, z) for x in "01" for y in "01" for z in "01"][:-1]
    cells = {a: {"0": [], "1": []} for a in "abc"}
    for w, (x, y, z) in zip(worlds, combos):
        cells["a"][x].append(w)
        cells["b"][y].append(w)
        cells["c"][z].append(w)
    succ = {w: w for w in worlds}
    m = KripkeModel(["a", "b", "c"], worlds, [worlds], succ,
                    {k: [cells[k]["0"], cells[k]["1"]] for k in "abc"},
                    {k: [[w] for w in worlds] for k in "abc"})
    report = validate_frame(m, "actual", 8)
    byname = {c.condition: c for c in report.checks}
    assert not byname["IA"].passed
    assert byname["IA"].witness


def test_schema_errors():
    with pytest.raises(SchemaError):
        load_model("not json")
    with pytest.raises(SchemaError):
        load_model(json.dumps({"format_version": 99}))
    base = {
        "format_version": 1, "agents": ["a"], "worlds": ["w"],
        "r_box": [["w"]], "succ": {"w": "w"},
        "choice": {"a": [["w"]]}, "epistemic": {"a": [["w"]]},
    }
    for missing in ("agents", "worlds", "r_box", "succ", "choice", "epistemic"):
        doc = dict(base)
        del doc[missing]
        with pytest.raises(SchemaError):
            load_model(json.dumps(doc))
    with pytest.raises(SuccNotTotal):
        KripkeModel(["a"], ["u", "v"], [["u", "v"]], {"u": "v"},
                    {"a": [["u", "v"]]}, {"a": [["u", "v"]]})
    with pytest.raises(PartitionError):
        KripkeModel(["a"], ["u", "v"], [["u"]], {"u": "v", "v": "u"},
                    {"a": [["u", "v"]]}, {"a": [["u", "v"]]})
    with pytest.raises(PartitionError):
        KripkeModel(["a"], ["u", "v"], [["u", "v"], ["v"]], {"u": "v", "v": "u"},
                    {"a": [["u", "v"]]}, {"a": [["u", "v"]]})


def test_canonical_serialization_is_stable():
    m = random_model(GenParams(seed=11, agent_count=2, box_class_count=2))
    text = m.dumps()
    assert load_model(text).dumps() == text
    # key order in the input does not matter
    doc = json.loads(text)
    shuffled = json.dumps(doc, sort_keys=False)
    assert load_model(shuffled).dumps() == text


def test_mode_monotone_actual_implies_super_additive():
    for seed in range(12):
        m = random_model(GenParams(seed=seed, agent_count=2, box_class_count=2))
        if validate_frame(m, "actual", 2).ok:
            assert validate_frame(m, "super_additive", 2).ok


def test_intersection_law_in_actual_mode():
    for seed in range(8):
        m = random_model(GenParams(seed=seed, agent_count=3, box_class_count=2))
        assert validate_frame(m, "actual", 2).ok
        for w in m.worlds:
            inter = m.box_cell(w)
            for a in m.agents:
                inter &= m.choice_cell(a, w)
            assert m.ags_cell(w) == inter


def test_succ_is_permutation_on_valid_models():
    m = random_model(GenParams(seed=5, agent_count=1, box_class_count=3))
    seen = set()
    for w in m.worlds:
        cur = w
        if w in seen:
            continue
        cycle = set()
        while cur not in cycle:
            cycle.add(cur)
            cur = m.succ[cur]
        assert cur == w  # every world lies on exactly one cycle
        seen |= cycle


def test_default_choice_ags_is_common_refinement():
    m = KripkeModel(["a", "b"], ["u", "v", "x", "y"], [["u", "v", "x", "y"]],
                    {"u": "v", "v": "u", "x": "y", "y": "x"},
                    {"a": [["u", "v"], ["x", "y"]], "b": [["u", "x"], ["v", "y"]]},
                    {"a": [["u", "v", "x", "y"]], "b": [["u", "v", "x", "y"]]})
    assert set(m.choice_ags) == {frozenset({"u"}), frozenset({"v"}), frozenset({"x"}), frozenset({"y"})}


WORLDS = frozenset("abcd")


@pytest.mark.parametrize("cells, error, message", [
    ([["a", "b"], [], ["c", "d"]], PartitionError, "p: empty cell"),
    ([["a", "b", "z"], ["c", "d"]], SchemaError, "p: unknown world(s) ['z']"),
    ([["a", "b"], ["b", "c", "d"]], PartitionError, "p: overlapping cells at ['b']"),
    ([["a", "b"], ["c"]], PartitionError, "p: worlds not covered: ['d']"),
    # two faults: the overlap in the second cell comes before the empty third
    ([["a"], ["a", "b"], [], ["c", "d"]], PartitionError, "p: overlapping cells at ['a']"),
])
def test_make_partition_names_the_first_faulty_cell(cells, error, message):
    with pytest.raises(SchemaError) as e:
        make_partition(cells, WORLDS, "p")
    assert type(e.value) is error and str(e.value) == message


def test_generated_models_survive_a_round_trip(grid200):
    for m in grid200:
        text = m.dumps()
        assert load_model(text).dumps() == text


def test_with_valuation_copies_match_fresh_models(grid200, fig1a):
    for m in [*grid200[:40], fig1a]:
        flipped = {p: set(m.worlds) - ws for p, ws in m.valuation.items()}
        flipped["fresh"] = {m.worlds[-1]}
        validate_frame(m, "actual", 2)
        source_reports = dict(m._frame_reports)
        copy = m.with_valuation(flipped)
        fresh = KripkeModel(m.agents, m.worlds, m.r_box, m.succ, m.choice, m.epistemic,
                            m.choice_ags, flipped)
        assert copy.to_doc() == fresh.to_doc()
        # the copy validates its own frame; the source keeps its reports
        assert copy._frame is None and copy._frame_reports == {}
        assert validate_frame(copy, "actual", 7).checks == validate_frame(fresh, "actual", 7).checks
        assert m._frame_reports == source_reports and ("actual", 7) not in source_reports
        assert (copy._dense().atoms["fresh"], "fresh" in m.valuation) == (
            1 << len(m.worlds) - 1, False)
    with pytest.raises(SchemaError, match="unknown worlds"):
        fig1a.with_valuation({"p": ["nowhere"]})


def test_bulk_frame_checks_agree_with_the_walks(grid200, fig1a, fig1b):
    # on a partitioned frame EQ, IA/CARD, NX/NA/NAGS/NOF and (on a plain
    # frame) UNIF_H first test the condition in bulk; read as a frame that
    # is not known to be partitioned, the same frame takes the walks alone,
    # and every verdict, witness and explanation must come out the same
    failed = set()
    for m in mutants([*grid200[::4], fig1a, fig1b], seed=12):
        walked = DenseFrame(m.worlds, m.agents, [m.r_box, m.choice_ags, *m.choice.values(),
                                                 *m.epistemic.values()], m.succ, m.pred or {},
                            m.valuation)
        walked.partitioned = False
        for mode, n in (("actual", 1), ("super_additive", 2)):
            report = check_frame(m._dense(), mode, n)
            assert report == check_frame(walked, mode, n), (m.dumps(), mode, n)
            failed.update(c.condition for c in report.failed())
    assert failed == {"ADDITIVITY", "CARD", "IA", "NA", "NAGS", "NOF", "NX", "SET", "UNIF_H"}


def _set_walk(d, mode, n):
    """SET as a walk over the interior worlds, each agent, then the coalition."""
    for u in d.inner:
        for a in d.agents:
            if d.choice[a][u] & ~d.box[u]:
                return [("SET", [u], f"choice cell of {a} leaves the settledness class")]
        if d.ags[u] & ~d.box[u]:
            return [("SET", [u], "coalition cell leaves the settledness class")]
    return []


def _additivity_walk(d, mode, n):
    """ADDITIVITY as a walk over the interior worlds."""
    for u in d.inner:
        inter = d.box[u]
        for a in d.agents:
            inter &= d.choice[a][u]
        if mode == "actual" and d.ags[u] != inter:
            return [("ADDITIVITY", [u],
                     "coalition cell differs from the intersection of agent cells")]
        if mode == "super_additive" and d.ags[u] & ~inter:
            return [("ADDITIVITY", [u],
                     "coalition cell not contained in the intersection of agent cells")]
    return []


def test_set_and_additivity_agree_with_per_world_walks(grid200, fig1a, fig1b):
    # SET and ADDITIVITY read every world's cells in bulk and then name the
    # first interior world that fails; a plain walk over the interior must
    # give the same fault, on models and on windows, whose boundary worlds
    # may fail without counting
    frames, boundary = [], 0
    for m in mutants([*grid200[::4], fig1a, fig1b], seed=13):
        frames.append(m._dense())
        if len(m.worlds) >= 20:
            continue
        win = unravel(m, m.worlds[0], 1, require_valid=False)[0]
        frames.append(win._dense())
        # the same window with a boundary world's cells widened past its class
        d = win._dense()
        u = next((u for u in range(len(d.names)) if not d.interior >> u & 1), None)
        outside = 0 if u is None else d.full & ~d.box[u]
        if outside:
            d.ags[u] |= outside & -outside
            d.choice[d.agents[0]][u] |= outside & -outside
            frames.append(d)
            boundary += 1
    assert boundary >= 10
    failed = {"SET": 0, "ADDITIVITY": 0}
    for d in frames:
        for mode, n in (("actual", 1), ("super_additive", 2)):
            for check, walk in ((_check_set, _set_walk), (_check_additivity, _additivity_walk)):
                got = list(check(d, mode, n))
                assert got == walk(d, mode, n), (d.names, mode)
                if got:
                    failed[got[0][0]] += 1
    assert min(failed.values()) >= 10, failed
