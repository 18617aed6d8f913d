import hashlib
import json
from itertools import product

import pytest

from test_pinned_inputs import random_scenario_doc

from kxstit import formula as F
from kxstit.checker import eval_formula
from kxstit.errors import BDTInvariantViolation, KxstitError, SchemaError
from kxstit.model import validate_frame
from kxstit.scenario import BDTScenario, bdt_to_kripke, figure1_scenario, load_scenario


def test_single_history_two_moments_gives_a_four_cycle():
    s = BDTScenario(["a"], ["m0", "m1"], {"m1": "m0"}, {"a": {}}, {"a": None},
                    {"p": ["m1_h1"]})
    m = bdt_to_kripke(s)
    assert len(m.worlds) == 4
    # succ is a single 4-cycle through the two situations and two stutters
    cur, seen = "m0_h1", []
    for _ in range(4):
        seen.append(cur)
        cur = m.succ[cur]
    assert cur == "m0_h1" and len(set(seen)) == 4
    assert eval_formula(m, "m0_h1", F.parse("X p"))
    # stutters freeze the leaf valuation
    assert eval_formula(m, "m1_h1", F.parse("X p"))


def test_figure1_history_layout():
    s = figure1_scenario("a")
    assert s.histories == [f"h{i}" for i in range(1, 17)]
    assert s.history_moments["h4"] == ("m1", "m2", "m9")
    assert s.history_moments["h10"] == ("m1", "m4", "m15")
    assert s.history_moments["h16"] == ("m1", "m5", "m21")


def test_figure1_invariants_hold_both_cases():
    figure1_scenario("a").check_invariants()
    figure1_scenario("b").check_invariants()


def test_scenario_schema_round_trip():
    s = figure1_scenario("a")
    doc = s.dumps()
    again = load_scenario(doc)
    assert again.dumps() == doc
    assert bdt_to_kripke(again).dumps() == bdt_to_kripke(s).dumps()


def _coalition_cells_by_selection(s):
    """The coalition cells of the compiled ``s`` as selections give them: a
    moment's class where no agent splits it, else the meet of each selection
    of one cell per splitting agent; a stutter class is every agent's one
    cell."""
    cells = [frozenset(f"pre_{h}" for h in s.histories),
             *(frozenset([f"post_{h}"]) for h in s.histories)]
    for m in s.moments:
        parts = [s.choice_at[a][m] for a in s.agents if len(s.choice_at[a][m]) > 1]
        for sel in product(*parts):
            hs = frozenset.intersection(*sel) if sel else s.moment_histories[m]
            cells.append(frozenset(s.sit(m, h) for h in hs))
    return cells


def _root_choices(k):
    """k agents choosing at once at the root of 2**k one-step histories:
    agent i by bit i of the history's index."""
    agents, leaves = [f"a{i}" for i in range(k)], [f"m{j + 1}" for j in range(2 ** k)]
    choice_at = {a: {"m0": [[f"h{j + 1}" for j in range(2 ** k) if (j >> i & 1) == bit]
                            for bit in (0, 1)]} for i, a in enumerate(agents)}
    return BDTScenario(agents, ["m0", *leaves], dict.fromkeys(leaves, "m0"), choice_at,
                       dict.fromkeys(agents), {})


def test_compiled_coalition_cells_are_the_selections():
    # figure 1, root choices of two and three agents, and every document of
    # the scenario corpus that compiles: the refinement of the choice cells
    # gives the selections' cells, and the compiled model is additive
    scenarios = [*map(figure1_scenario, "ab"), *map(_root_choices, (2, 3))]
    compiled = [(s, bdt_to_kripke(s)) for s in scenarios]
    for seed in range(500):
        try:
            s = load_scenario(json.dumps(random_scenario_doc(seed)))
            compiled.append((s, bdt_to_kripke(s)))
        except KxstitError:
            pass
    shared = 0  # moments that two or more agents split
    for s, m in compiled:
        want = _coalition_cells_by_selection(s)
        assert len(set(want)) == len(want) and all(want)
        assert set(m.rel["ags"].values()) == set(want)
        assert validate_frame(m, "actual", len(m.worlds)).checks[0].passed  # ADDITIVITY
        shared += sum(sum(len(s.choice_at[a][x]) > 1 for a in s.agents) > 1 for x in s.moments)
    # the corpus splits no moment for two agents; figure 1 and the root
    # choices do
    assert len(compiled) > 250 and shared == 10, (len(compiled), shared)


def test_undivided_histories_violation_raises():
    # two histories share m1->m2 but are split at m1 for agent a
    s = BDTScenario(["a"], ["m1", "m2", "m3", "m4"], {"m2": "m1", "m3": "m2", "m4": "m2"},
                    {"a": {"m1": [["h1"], ["h2"]]}}, {"a": None}, {})
    with pytest.raises(BDTInvariantViolation) as e:
        s.check_invariants()
    assert e.value.condition == "no_choice_between_undivided_histories"


def test_independence_violation_raises():
    # two agents with crossing two-cell partitions over two histories
    s = BDTScenario(["a", "b"], ["m1", "m2", "m3"], {"m2": "m1", "m3": "m1"},
                    {"a": {"m1": [["h1"], ["h2"]]}, "b": {"m1": [["h1"], ["h2"]]}},
                    {"a": None, "b": None}, {})
    # selections (cell of h1 for a, cell of h2 for b) are disjoint
    with pytest.raises(BDTInvariantViolation) as e:
        s.check_invariants()
    assert e.value.condition == "independence_of_agency"


@pytest.mark.parametrize("choice_at, message", [
    ({"a": {"m1": [["h1", "h2"], ["h3", "h4"]]}, "b": {"m1": [["h1", "h2"], ["h3", "h4"]]}},
     "empty selection ['h1', 'h3'] at m1"),
    ({"a": {"m1": [["h1", "h2"], ["h3", "h4"]]}, "b": {"m1": [["h1", "h3"], ["h2", "h4"]]},
      "c": {"m1": [["h1", "h4"], ["h2", "h3"]]}},
     "empty selection ['h1', 'h1', 'h2'] at m1"),
], ids=["empties-at-second-agent", "empties-at-third-agent"])
def test_independence_witness_is_the_first_emptying_prefix(choice_at, message):
    # one root moment, four histories; the selections are taken in cell
    # order, agent by agent, and the witness names the least history of
    # each cell of the first prefix whose histories meet in nothing
    s = BDTScenario(["a", "b", "c"], ["m1", "m2", "m3", "m4", "m5"],
                    {m: "m1" for m in ("m2", "m3", "m4", "m5")}, choice_at,
                    {"a": None, "b": None, "c": None}, {})
    with pytest.raises(BDTInvariantViolation) as e:
        s.check_invariants()
    assert (e.value.condition, e.value.witnesses) == ("independence_of_agency", ["m1"])
    assert str(e.value) == f"scenario violates independence_of_agency: {message}"


def test_no_forget_violation_raises():
    # agent merges the two leaf situations but distinguishes their parents
    s = BDTScenario(
        ["a"], ["m1", "m2", "m3", "m4", "m5", "m6"],
        {"m2": "m1", "m3": "m1", "m4": "m2", "m5": "m2", "m6": "m3"},
        {"a": {"m1": [["h1", "h2"], ["h3"]]}},
        {"a": [["m1_h1", "m1_h2", "m1_h3"],
               ["m2_h1", "m2_h2"], ["m3_h3"],
               ["m4_h1", "m6_h3"], ["m5_h2"]]},
        {})
    with pytest.raises(BDTInvariantViolation) as e:
        s.check_invariants()
    assert e.value.condition == "no_forget"


def test_figure1_frame_failures_confined_to_stutter_wrap(fig1a):
    """The compiled model passes every frame condition except the four
    temporal-commutation ones, whose witnesses all sit on the synthetic
    stutter layer where the finite time cycle wraps around; a finite model
    with an invertible successor cannot satisfy them while keeping the
    branching tree and the mid-game knowledge refinement.
    """
    report = validate_frame(fig1a, "actual", 4)
    failed = {c.condition: c for c in report.failed()}
    assert set(failed) == {"NA", "NAGS", "NOF", "NX"}
    for c in failed.values():
        assert all(w.startswith("pre_") for w in c.witness), c
    # everything else passes at the stated bound
    passed = {c.condition for c in report.checks if c.passed}
    assert {"ADDITIVITY", "CARD", "EQ", "IA", "INVERSE", "SET", "UNIF_H"} <= passed
    # the bound is tight: four coalition cells at the first moment
    assert not validate_frame(fig1a, "actual", 3).checks[1].passed  # CARD


def test_figure1_stutters_do_not_leak_into_real_knowledge(fig1a):
    for a in fig1a.agents:
        for cell in fig1a.epistemic[a]:
            kinds = {("stutter" if w.startswith(("pre_", "post_")) else "real") for w in cell}
            assert len(kinds) == 1


def test_nonbranching_scenarios_compile_to_fully_valid_models():
    """Without branching the wrap-around worlds sit in singleton classes, so
    the compiled model passes every frame condition; branching trees
    necessarily fail the temporal-commutation conditions at the wrap (the
    settledness class of the root needs a single predecessor class, which a
    finite successor bijection cannot supply).
    """
    s = BDTScenario(["a", "b"], ["m0", "m1", "m2"], {"m1": "m0", "m2": "m1"},
                    {"a": {}, "b": {}}, {"a": None, "b": None},
                    {"p": ["m1_h1"]})
    m = bdt_to_kripke(s)
    assert validate_frame(m, "actual", 1).ok


def test_figure1_compiled_document_loads(fig1a):
    from kxstit.model import load_model
    text = fig1a.dumps()
    again = load_model(text)
    assert again.dumps() == text
    situations = [w for w in again.worlds if not w.startswith(("pre_", "post_"))]
    assert len(situations) == 48  # 16 + 16 + 16 across the three moment layers
    assert len(again.worlds) == 80


# sha256 of the compiled figure-1 documents, taken before the compiler was
# rewritten for linear time: the rewrite must leave them byte-identical
COMPILED_SHA256 = {
    "a": "cccf0096dd3725287d35cc2fdefa0090c7e8288af01b11f3ffdb64c4cbd63f55",
    "b": "d4fd838d3ecf6f0d8e946cb91d71a64097905339baca3793c318c7e53e4b4ac6",
}


@pytest.mark.parametrize("case", ["a", "b"])
def test_compiled_figure1_documents_are_pinned(case):
    text = bdt_to_kripke(figure1_scenario(case)).dumps()
    assert hashlib.sha256(text.encode()).hexdigest() == COMPILED_SHA256[case]


TWO_HISTORIES = dict(agents=["a", "b"], moments=["m1", "m2", "m3"],
                     parent={"m2": "m1", "m3": "m1"}, choice_at={"a": {}, "b": {}},
                     epistemic_sit={"a": None, "b": None}, valuation_sit={})


@pytest.mark.parametrize("change, message", [
    ({"choice_at": {"a": {}, "b": {}, "c": {"m1": [["h1"], ["h2"]]}}},
     "choice_at names unknown agent(s) ['c']"),
    ({"choice_at": {"a": {"m9": [["h1"]]}, "b": {}}},
     "choice_at[a] names unknown moment(s) ['m9']"),
    ({"agents": ["a", "a"], "choice_at": {"a": {"m1": [["h1"], ["h2"]]}}},
     "agents must be a non-empty list of distinct names"),
    ({"epistemic_sit": {"a": None, "b": None, "c": None}},
     "epistemic_sit names unknown agent(s) ['c']"),
    ({"history_names": ["h1", "h1"]}, "history_names must be distinct"),
    ({"choice_at": {"a": {"m1": [["h1", "h2"], []]}, "b": {}}},
     "choice_at[a][m1] is not a partition of the histories through m1"),
    ({"epistemic_sit": {"a": [["m1_h1", "m1_h2", "m2_h1", "m3_h2"], []], "b": None}},
     "epistemic_sit[a] is not a partition of the situations"),
], ids=["choice_at-unknown-agent", "choice_at-unknown-moment", "duplicate-agents",
        "epistemic_sit-unknown-agent", "duplicate-history-names", "empty-choice-cell",
        "empty-epistemic-cell"])
def test_scenario_schema_faults_are_schema_errors(change, message):
    with pytest.raises(SchemaError) as e:
        BDTScenario(**{**TWO_HISTORIES, **change})
    assert str(e.value) == message


def test_situation_names_that_collide_are_schema_errors():
    # a_b_c names the situation of moment a on history b_c and that of
    # moment a_b on history c
    with pytest.raises(SchemaError, match=r"'a_b_c' names both .*\('a', 'b_c'\).*\('a_b', 'c'\)"):
        BDTScenario(["x"], ["r", "a", "a_b"], {"a": "r", "a_b": "r"}, {}, {}, {},
                    history_names=["b_c", "c"])


def test_situation_named_like_a_stutter_world_is_schema_error():
    s = BDTScenario(["x"], ["pre", "a"], {"a": "pre"}, {}, {}, {})
    with pytest.raises(SchemaError, match="'pre_h1' has the id of a stutter world"):
        bdt_to_kripke(s)
