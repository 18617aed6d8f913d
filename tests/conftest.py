import random

import pytest

from kxstit.gen import model_grid
from kxstit.model import KripkeModel, load_model
from kxstit.scenario import bdt_to_kripke, figure1_scenario

ACCEPTANCE_LINES = []


def record_acceptance(number, ok, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def mutants(models, seed, count=3):
    """Each model, then ``count`` copies with two cells of a family merged, a
    cell split, or two successors swapped, drawn from ``seed``.  A swap keeps
    the successor map a bijection."""
    rng = random.Random(seed)
    for m in models:
        yield m
        for _ in range(count):
            doc = m.to_doc()
            fam = rng.choice(["r_box", "choice_ags", "choice", "epistemic"])
            cells = doc[fam][rng.choice(sorted(doc[fam]))] if fam in ("choice", "epistemic") \
                else doc[fam]
            kind = rng.randrange(3)
            if kind == 0 and len(cells) > 1:
                i, j = rng.sample(range(len(cells)), 2)
                cells[i] += cells[j]
                del cells[j]
            elif kind == 1 and max(map(len, cells)) > 1:
                cell = max(cells, key=len)
                cells.append([cell.pop()])
            else:
                u, v = rng.sample(doc["worlds"], 2) if len(doc["worlds"]) > 1 else doc["worlds"] * 2
                doc["succ"][u], doc["succ"][v] = doc["succ"][v], doc["succ"][u]
            yield load_model(doc)


@pytest.fixture(scope="session")
def fig1a():
    return bdt_to_kripke(figure1_scenario("a"))


@pytest.fixture(scope="session")
def fig1b():
    return bdt_to_kripke(figure1_scenario("b"))


@pytest.fixture(scope="session")
def grid200():
    return model_grid(200, base_seed=1000)


@pytest.fixture(scope="session")
def grid50():
    return model_grid(50, base_seed=5000)


@pytest.fixture
def one_world():
    return KripkeModel(["a"], ["w"], [["w"]], {"w": "w"}, {"a": [["w"]]},
                       {"a": [["w"]]}, valuation={"p": ["w"]})


@pytest.fixture
def super_additive_fixture():
    """Two agents, one settledness class on a 2-cycle; both agents hold the
    trivial cell while the coalition partition splits it: one profile with
    two coalition cells."""
    return KripkeModel(
        ["a0", "a1"], ["a", "b"], [["a", "b"]], {"a": "b", "b": "a"},
        {"a0": [["a", "b"]], "a1": [["a", "b"]]},
        {"a0": [["a"], ["b"]], "a1": [["a", "b"]]},
        choice_ags=[["a"], ["b"]], valuation={"p": ["a"]})
