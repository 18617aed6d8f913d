import inspect
import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import mutants, window_mutants

from kxstit import scenario
from kxstit.errors import PartitionError, SchemaError, SuccNotTotal
from kxstit.gen import GenParams, model_grid, random_model
from kxstit.model import (DenseFrame, KripkeModel, _check_additivity, _check_set, check_frame,
                          family_names, load_model, make_partition, partition_map,
                          validate_frame)
from kxstit.scenario import bdt_to_kripke, figure1_scenario
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


def test_successor_images_fail_without_a_bijection():
    # u, v -> w -> u with classes {u, v} and {w} in every family: the
    # successor image of w's class is {u}, which misses v in u's class.  No
    # world precedes v, so a comparison of predecessors cannot see this
    cells = [["u", "v"], ["w"]]
    m = KripkeModel(["a"], ["u", "v", "w"], cells, {"u": "w", "v": "w", "w": "u"},
                    {"a": cells}, {"a": cells})
    failed = {c.condition: (c.witness, c.explanation) for c in validate_frame(m).failed()}
    assert failed == {"EQ": (["u", "v"], "succ not injective"),
                      "INVERSE": (["u"], "pred(succ) is not identity"),
                      **dict.fromkeys(["NA", "NAGS", "NOF", "NX"],
                                      (["u", "v"], "v has no predecessor"))}


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
        copy = m.with_valuation(flipped)
        fresh = KripkeModel(m.agents, m.worlds, m.r_box, m.succ, m.choice, m.epistemic,
                            m.choice_ags, flipped)
        assert copy.to_doc() == fresh.to_doc()
        # the copy validates its own frame
        assert copy._frame is None
        assert validate_frame(copy, "actual", 7).checks == validate_frame(fresh, "actual", 7).checks
        assert (copy._dense().atoms["fresh"], "fresh" in m.valuation) == (
            1 << len(m.worlds) - 1, False)
    with pytest.raises(SchemaError, match="unknown worlds"):
        fig1a.with_valuation({"p": ["nowhere"]})


def _walked(s):
    """A dense frame of ``s`` with no family known to be a partition, so
    that every check takes its walk alone."""
    d = DenseFrame(s.worlds, s.agents, [s.rel[name] for name in family_names(s.agents)],
                   s.succ, s.pred or {}, s.valuation, s.interior, s.layer)
    d.partitioned, d.partitions = False, frozenset()
    return d


def test_bulk_frame_checks_agree_with_the_walks(grid200, fig1a, fig1b, super_additive_fixture):
    # on a partitioned frame EQ, IA/CARD, NX/NA/NAGS/NOF and UNIF_H first
    # test the condition in bulk; read as a frame that is not known to be
    # partitioned, the same frame takes the walks alone, and every verdict,
    # witness and explanation must come out the same, on models and on
    # windows, whose boundary worlds are quantified over only as witnesses
    def failures(structures):
        failed = set()
        for s in structures:
            walked = _walked(s)
            for mode, n in (("actual", 1), ("super_additive", 2)):
                report = check_frame(s._dense(), mode, n)
                assert report == check_frame(walked, mode, n), (s.to_doc(), mode, n)
                failed.update(c.condition for c in report.failed())
        return failed

    assert failures(mutants([*grid200[::4], fig1a, fig1b], seed=12)) == {
        "ADDITIVITY", "CARD", "IA", "NA", "NAGS", "NOF", "NX", "SET", "UNIF_H"}
    windows = [unravel(m, m.worlds[0], depth, require_valid=False)[0]
               for m in [*grid200[::4], fig1a, super_additive_fixture] for depth in (1, 2)]
    assert failures(window_mutants(windows, seed=14)) >= {
        "CARD", "IA", "NA", "NAGS", "NOF", "NX", "UNIF_H"}


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
        # the same window with a boundary world's cells widened past its class,
        # on a frame of its own: the window keeps and shares the one above
        d = DenseFrame(win.worlds, win.agents, list(win.rel.values()), win.succ, win.pred,
                       win.valuation, win.interior, win.layer)
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


def _families(agents, r_box, choice, epistemic, choice_ags=None):
    """A model's cell lists by family name, in ``family_names`` order."""
    return {"box": r_box, "ags": choice_ags, **{f"choice:{a}": choice[a] for a in agents},
            **{f"epi:{a}": epistemic[a] for a in agents}}


def _independent(worlds, families):
    """Each family's map from world to cell and its cells sorted by least
    world, built from the cell lists ``families``.  Absent coalition cells
    are the classes of worlds alike in their settledness and choice cells."""
    rel = {name: {w: frozenset(c) for c in cells for w in c}
           for name, cells in families.items() if cells is not None}
    if families["ags"] is None:
        keys = [name for name in families if name == "box" or name.startswith("choice:")]
        rel["ags"] = {w: frozenset(v for v in worlds if all(rel[k][v] == rel[k][w] for k in keys))
                      for w in worlds}
    rel = {name: rel[name] for name in families}
    return rel, {name: tuple(sorted(set(cells.values()), key=min)) for name, cells in rel.items()}


def _assert_built_as(m, rel, order):
    names = list(family_names(m.agents))
    assert list(m.rel) == names and {name: dict(m.rel[name]) for name in names} == rel
    assert {name: m.sorted_cells(name) for name in names} == order
    assert (m.r_box, m.choice_ags) == (order["box"], order["ags"])
    assert m.choice == {a: order[f"choice:{a}"] for a in m.agents}
    assert m.epistemic == {a: order[f"epi:{a}"] for a in m.agents}
    for w in m.worlds:
        assert (m.box_cell(w), m.ags_cell(w)) == (rel["box"][w], rel["ags"][w])
        for a in m.agents:
            assert m.choice_cell(a, w) == rel[f"choice:{a}"][w]
            assert m.epi_cell(a, w) == rel[f"epi:{a}"][w]
        group, todo = {w}, [w]
        while todo:
            x = todo.pop()
            for a in m.agents:
                todo.extend(rel[f"epi:{a}"][x] - group)
                group |= rel[f"epi:{a}"][x]
        assert m.common_cell(w) == group
    cells = lambda name: [sorted(c) for c in order[name]]
    assert m.to_doc() == {
        "format_version": 1, "agents": sorted(m.agents), "worlds": list(m.worlds),
        "succ": dict(sorted(m.succ.items())), "r_box": cells("box"),
        "choice": {a: cells(f"choice:{a}") for a in sorted(m.agents)},
        "choice_ags": cells("ags"), "epistemic": {a: cells(f"epi:{a}") for a in sorted(m.agents)},
        "valuation": {p: sorted(ws) for p, ws in sorted(m.valuation.items())}}
    frame = DenseFrame(m.worlds, m.agents, [rel[name] for name in names], m.succ,
                       m.pred or {}, m.valuation)
    built = m._dense()
    assert all(getattr(built, s) == getattr(frame, s) for s in DenseFrame.__slots__)
    with pytest.raises(TypeError):
        m.rel["box"] = rel["box"]
    with pytest.raises(TypeError):
        m.rel["ags"][m.worlds[0]] = frozenset(m.worlds)


def _reversed_cells(doc):
    """``doc`` with the cells of every partition, and the ids of every cell,
    in reverse order."""
    flip = lambda cells: [c[::-1] for c in cells[::-1]]
    return {**doc, "r_box": flip(doc["r_box"]), "choice_ags": flip(doc["choice_ags"]),
            "choice": {a: flip(cells) for a, cells in doc["choice"].items()},
            "epistemic": {a: flip(cells) for a, cells in doc["epistemic"].items()}}


def test_maps_built_at_load_equal_an_independent_build(fig1a, fig1b, monkeypatch):
    # loads of model_grid(120) documents (their cells reversed) and of the
    # figure-1 documents, with and without their coalition cells, and
    # compilations of the figure-1 scenarios: the model and its
    # with_valuation copy share one read-only rel, whose family maps and
    # orders, common cells, document and dense frame equal a build from the
    # cells the constructor was given
    docs = [*(_reversed_cells(m.to_doc()) for m in model_grid(120)), fig1a.to_doc(), fig1b.to_doc()]
    docs += [{k: v for k, v in doc.items() if k != "choice_ags"} for doc in docs]
    cases = [(load_model(doc), doc["worlds"], _families(doc["agents"], doc["r_box"], doc["choice"],
                                                         doc["epistemic"], doc.get("choice_ags")))
             for doc in docs]
    calls = []  # the arguments a scenario's compilation gives the model constructor, by name

    def record(*args, **kwargs):
        bound = inspect.signature(KripkeModel).bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return KripkeModel(*args, **kwargs)

    monkeypatch.setattr(scenario, "KripkeModel", record)
    for case in "ab":
        m = bdt_to_kripke(figure1_scenario(case))
        a = calls[-1]
        cases.append((m, a["worlds"], _families(a["agents"], a["r_box"], a["choice"],
                                                a["epistemic"], a["choice_ags"])))
    for m, worlds, families in cases:
        rel, order = _independent(worlds, families)
        copy = m.with_valuation({p: set(m.worlds) - ws for p, ws in m.valuation.items()})
        assert copy.rel is m.rel
        _assert_built_as(copy, rel, order)
        _assert_built_as(m, rel, order)


def _union_test(cells, universe):
    """The union form of the bulk partition test, the reference for the map
    test: non-empty cells whose sizes sum to the universe's size and whose
    union is it."""
    return (all(cells) and sum(map(len, cells)) == len(universe)
            and frozenset().union(*cells) == universe)


@st.composite
def _cell_lists(draw):
    """(universe, cell lists, planted fault): a partition of a universe of
    one to six worlds with one planted fault or none, or any cells over it
    and an unknown id."""
    worlds = draw(st.permutations("abcdef"[:draw(st.integers(1, 6))]))
    labels = draw(st.lists(st.integers(0, 3), min_size=len(worlds), max_size=len(worlds)))
    by_label = {}
    for w, k in zip(worlds, labels):
        by_label.setdefault(k, []).append(w)
    cells = list(by_label.values())
    fault = draw(st.sampled_from(["none", "overlap", "overlap and gap", "unknown", "empty",
                                  "any"]))
    if fault.startswith("overlap"):
        # one world in two cells, and with a gap another in none: then the
        # sizes still sum to the universe's
        assume(len(cells) > 1)
        i, j = draw(st.permutations(range(len(cells))))[:2]
        w = draw(st.sampled_from(cells[j]))
        if fault == "overlap":
            cells[i].append(w)
        else:
            cells[i][draw(st.integers(0, len(cells[i]) - 1))] = w
    elif fault == "unknown":
        # in place of a world, so the sizes still sum to the universe's
        cell = draw(st.sampled_from(cells))
        cell[draw(st.integers(0, len(cell) - 1))] = "z"
    elif fault == "empty":
        cells.insert(draw(st.integers(0, len(cells))), [])
    elif fault == "any":
        cells = draw(st.lists(st.lists(st.sampled_from([*worlds, "z"]), max_size=4), max_size=5))
    return frozenset(worlds), cells, fault


@settings(max_examples=200, deadline=None)
@given(_cell_lists())
def test_map_test_accepts_what_the_union_test_accepts(case):
    universe, cells, fault = case
    norm = list(map(frozenset, cells))
    accepted = _union_test(norm, universe)
    assert accepted == (fault == "none") or fault == "any"
    mates = partition_map(norm, universe)
    assert (mates is not None) == accepted
    if accepted:
        assert mates == {w: c for c in norm for w in c}
        assert make_partition(cells, universe, "p") == mates
    else:
        with pytest.raises(SchemaError):
            make_partition(cells, universe, "p")


@pytest.mark.parametrize("family, fault", [
    ("r_box", "overlap"), ("choice_ags", "unknown"), ("choice", "empty"),
    ("epistemic", "missing"), ("epistemic", "overlap")])
def test_faulty_partition_raises_at_load(fig1a, family, fault):
    doc = fig1a.to_doc()
    cells = doc[family][sorted(doc[family])[-1]] if family in ("choice", "epistemic") \
        else doc[family]
    big = max(cells, key=len)
    if fault == "overlap":
        cells.append(big[:1])
    elif fault == "unknown":
        big.append("ghost")
    elif fault == "empty":
        cells.append([])
    else:
        big.pop()
    with pytest.raises(SchemaError) as e:
        load_model(doc)
    assert type(e.value) is (SchemaError if fault == "unknown" else PartitionError)
