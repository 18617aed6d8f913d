import random

import pytest

from kxstit.gen import model_grid
from kxstit.model import KripkeModel, family_names, load_model
from kxstit.scenario import bdt_to_kripke, figure1_scenario
from kxstit.transform import WindowModel

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


def window_mutants(windows, seed, count=3):
    """Each window, then ``count`` copies built through the ``WindowModel``
    constructor with two cells of a family merged, a world moved to another
    cell, a world split off into a cell of its own, or a successor
    redirected or dropped, drawn from ``seed``."""
    rng = random.Random(seed)
    for win in windows:
        yield win
        for _ in range(count):
            rel, succ = dict(win.rel), dict(win.succ)
            kind = rng.choice(["merge", "move", "split", "redirect", "drop"])
            if kind in ("redirect", "drop"):
                u = rng.choice(sorted(succ))
                if kind == "drop":
                    del succ[u]
                else:
                    succ[u] = rng.choice(win.worlds)
            else:
                fam = rng.choice(family_names(win.agents))
                cells = [set(c) for c in sorted(set(rel[fam].values()), key=min)]
                if kind == "merge" and len(cells) > 1:
                    i, j = sorted(rng.sample(range(len(cells)), 2))
                    cells[i] |= cells.pop(j)
                elif kind == "move" and len(cells) > 1:
                    i, j = rng.sample(range(len(cells)), 2)
                    w = rng.choice(sorted(cells[i]))
                    cells[i].discard(w)
                    cells[j].add(w)
                elif max(map(len, cells)) > 1:
                    cell = rng.choice([c for c in cells if len(c) > 1])
                    w = rng.choice(sorted(cell))
                    cell.discard(w)
                    cells.append({w})
                rel[fam] = {w: frozenset(c) for c in cells for w in c}
            yield WindowModel(win.agents, win.worlds, win.layer, win.interior, win.horizon,
                              win.root, succ, win.pred, rel, win.valuation)


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
