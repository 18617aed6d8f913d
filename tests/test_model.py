import json

import pytest

from kxstit.errors import PartitionError, SchemaError, SuccNotTotal
from kxstit.gen import GenParams, random_model
from kxstit.model import KripkeModel, load_model, make_partition, validate_frame


def doc_of(m):
    return json.loads(m.dumps())


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
