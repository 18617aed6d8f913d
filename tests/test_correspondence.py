"""Each frame condition against its axiom schemas (Sahlqvist correspondence:
Blackburn, de Rijke & Venema, *Modal Logic*, 2001, section 3.6).

Filled with one fresh atom per cell, the minimal valuation, a condition's
schemas are valid on a model exactly when ``validate_frame`` passes the
condition.  EQ, INVERSE and ``actual`` ADDITIVITY have no schema on models
(DECISIONS.md D4).
"""

import random
import re
from itertools import product

from hypothesis import given, settings, strategies as st

from conftest import mutants

from kxstit import formula as F
from kxstit.axioms import instantiate
from kxstit.checker import extension, valid_on_model
from kxstit.gen import GenParams, model_grid, random_formula, random_model
from kxstit.model import KripkeModel, family_names, load_model, validate_frame


def _box_ags(p):
    """``[]p -> [Ags]p``: the coalition half of SET, and of super-additive
    ADDITIVITY beside GA.  SET and GA together derive it."""
    return F.Implies(F.Box(p), F.StitAgs(p))


def _minimal_fill(m):
    """Copy of ``m`` with two fresh atoms per cell of each family: one true
    on the cell, one on its successor image.  Returns the copy and, per
    family name, the (cell, atom, image atom) of each cell."""
    valuation = dict(m.valuation)
    fills = {}
    partitions = (m.r_box, m.choice_ags, *m.choice.values(), *m.epistemic.values())
    for name, cells in zip(family_names(m.agents), partitions):
        fills[name] = []
        for i, cell in enumerate(cells):
            valuation[f"{name}#{i}"] = cell
            valuation[f"X{name}#{i}"] = {m.succ[w] for w in cell}
            fills[name].append((cell, F.Atom(f"{name}#{i}"), F.Atom(f"X{name}#{i}")))
    return m.with_valuation(valuation), fills


def _meeting(m, fills):
    """Per settledness class, the atoms of the cells in ``fills`` that meet it."""
    return [[p for cell, p, _ in fills if not box.isdisjoint(cell)] for box in m.r_box]


def _bounded(atoms, n):
    """The first ``n`` atoms, the last one repeated up to ``n``."""
    atoms = atoms[:n]
    return atoms + atoms[-1:] * (n - len(atoms))


def _card(m, fills, n):
    for atoms in _meeting(m, fills["ags"]):
        yield instantiate("AgsPC", _bounded(atoms, n), [], n)
    for a in m.agents:
        for atoms in _meeting(m, fills[f"choice:{a}"]):
            yield instantiate("APC", _bounded(atoms, n), [a], n)


def _ia(m, fills, n):
    # one selection of a choice cell per agent among the cells meeting a class
    per_class = zip(*(_meeting(m, fills[f"choice:{a}"]) for a in m.agents))
    for per_agent in per_class:
        for sel in product(*per_agent):
            yield instantiate("IA", sel, m.agents)


# condition -> the instances of its schemas on a model, from its fills and n
ROWS = {
    "SET": lambda m, fills, n: [
        *(instantiate("SET", [p], [a]) for a in m.agents for _, p, _ in fills["box"]),
        *(_box_ags(p) for _, p, _ in fills["box"])],
    "NX": lambda m, fills, n: [instantiate("NX", [x]) for _, _, x in fills["box"]],
    "NA": lambda m, fills, n: [instantiate("NA", [x], [a])
                               for a in m.agents for _, _, x in fills[f"choice:{a}"]],
    "NAGS": lambda m, fills, n: [instantiate("NAgs", [x]) for _, _, x in fills["ags"]],
    "NOF": lambda m, fills, n: [instantiate("NoF", [x], [a])
                                for a in m.agents for _, _, x in fills[f"epi:{a}"]],
    "UNIF_H": lambda m, fills, n: [instantiate("Unif-H", [p], [a])
                                   for a in m.agents for _, p, _ in fills[f"epi:{a}"]],
    # super-additive: the coalition cell lies in the class and in each agent's cell
    "ADDITIVITY": lambda m, fills, n: [
        *(instantiate("GA", [p], [a]) for a in m.agents for _, p, _ in fills[f"choice:{a}"]),
        *(_box_ags(p) for _, p, _ in fills["box"])],
    "CARD": _card,
    "IA": _ia,
}


def schemas_valid(m, cond, n):
    """Whether every instance of ``cond``'s schemas, filled minimally, is
    valid on ``m``."""
    sat, fills = _minimal_fill(m)
    return all(valid_on_model(sat, f)[0] for f in ROWS[cond](m, fills, n))


def detector_models():
    """The models of the detector tests in ``test_axioms.py``: ten valid
    models; the seed-9 one-agent model, then a copy with one world split out
    of a merged epistemic cell (NOF fails); and a two-world model whose agent
    has two choice cells in one class (CARD fails at n=1, passes at n=2)."""
    models = [random_model(GenParams(seed=seed, agent_count=2, box_class_count=2))
              for seed in range(10)]
    m = random_model(GenParams(seed=9, agent_count=1, box_class_count=2,
                               epistemic_coarseness=1.0, max_class_size=3))
    a = m.agents[0]
    cells = [set(c) for c in m.epistemic[a]]
    big = next(c for c in cells if len(c) > 1)
    w = min(big)
    big.remove(w)
    cells.append({w})
    split = KripkeModel(m.agents, m.worlds, m.r_box, m.succ, m.choice,
                        {a: [sorted(c) for c in cells]}, m.choice_ags, m.valuation)
    two_cells = KripkeModel(["a"], ["u", "v"], [["u", "v"]], {"u": "v", "v": "u"},
                            {"a": [["u"], ["v"]]}, {"a": [["u"], ["v"]]})
    return [*models, m, split, two_cells]


def test_each_condition_matches_its_schemas(fig1a, fig1b):
    models = [*mutants([*model_grid(120, base_seed=2000), fig1a, fig1b], seed=2000, count=5),
              *detector_models()]
    failed = dict.fromkeys([*ROWS, "CARD@2"], 0)
    for m in models:
        sat, fills = _minimal_fill(m)
        for n in (1, 2):
            passed = {c.condition: c.passed for c in validate_frame(m, "super_additive", n).checks}
            assert passed["EQ"] and passed["INVERSE"], m.dumps()
            for cond, row in ROWS.items():
                if n == 2 and cond != "CARD":
                    continue  # only CARD reads n
                valid = all(valid_on_model(sat, f)[0] for f in row(m, fills, n))
                assert valid == passed[cond], (cond, n, m.dumps())
                failed[cond if n == 1 else "CARD@2"] += not valid
    assert min(failed.values()) >= 10, failed


def redirected(models, seed, count=2):
    """``count`` copies of each model of several worlds, each with one
    world's successor moved to another world, drawn from ``seed``: the
    successor map of each copy is not a bijection."""
    rng = random.Random(seed)
    for m in models:
        for _ in range(count if len(m.worlds) > 1 else 0):
            doc = m.to_doc()
            u = rng.choice(doc["worlds"])
            doc["succ"][u] = rng.choice([w for w in doc["worlds"] if w != doc["succ"][u]])
            yield load_model(doc)


def test_image_conditions_match_their_schemas_without_a_bijection(fig1a, fig1b):
    # only the schemas of NX, NA, NAGS and NOF read X, so only their rows
    # can move with a redirected successor
    models = list(redirected([*model_grid(170, base_seed=2000), fig1a, fig1b], seed=2001))
    assert len(models) >= 300
    failed = dict.fromkeys(["NX", "NA", "NAGS", "NOF"], 0)
    for m in models:
        sat, fills = _minimal_fill(m)
        passed = {c.condition: c.passed for c in validate_frame(m, "super_additive", 1).checks}
        assert not passed["EQ"] and not passed["INVERSE"], m.dumps()
        for cond in failed:
            valid = all(valid_on_model(sat, f)[0] for f in ROWS[cond](m, fills, 1))
            assert valid == passed[cond], (cond, m.dumps())
            failed[cond] += not valid
    assert min(failed.values()) >= 10, failed


def _renamed(m, names):
    """``m`` with every world w renamed ``names[w]``."""
    doc = m.to_doc()
    ren = lambda ws: [names[w] for w in ws]
    return load_model({
        **doc, "worlds": ren(doc["worlds"]),
        "succ": {names[w]: names[v] for w, v in doc["succ"].items()},
        "r_box": list(map(ren, doc["r_box"])), "choice_ags": list(map(ren, doc["choice_ags"])),
        "choice": {a: list(map(ren, cells)) for a, cells in doc["choice"].items()},
        "epistemic": {a: list(map(ren, cells)) for a, cells in doc["epistemic"].items()},
        "valuation": {p: ren(ws) for p, ws in doc["valuation"].items()}})


_RENAMING_INPUTS = list(mutants(model_grid(20, base_seed=3000), seed=3000, count=4))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(_RENAMING_INPUTS) - 1), st.integers(0, 10_000), st.booleans())
def test_verdicts_survive_renaming_worlds(index, seed, keep_order):
    m = _RENAMING_INPUTS[index]
    rng = random.Random(seed)
    fresh = sorted(rng.sample(range(10_000), len(m.worlds)))
    if not keep_order:
        rng.shuffle(fresh)
    names = {w: f"v{k:04d}" for w, k in zip(m.worlds, fresh)}
    r = _renamed(m, names)
    for mode, n in (("actual", 1), ("super_additive", 2)):
        before, after = validate_frame(m, mode, n), validate_frame(r, mode, n)
        assert [c.passed for c in before.checks] == [c.passed for c in after.checks]
        if keep_order:  # the first violation in world order stays first
            assert [(c.condition, [names[w] for w in c.witness],
                     re.sub(r"\w+", lambda t: names.get(t[0], t[0]), c.explanation))
                    for c in before.checks] == [
                        (c.condition, c.witness, c.explanation) for c in after.checks]
    for k in range(5):
        f = random_formula(seed * 5 + k, 3, sorted(m.valuation), m.agents, reach=(1, 1))
        assert extension(r, f) == {names[w] for w in extension(m, f)}
