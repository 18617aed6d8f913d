"""Digests of what the parser, the scenario loader and compiler, and the
``report`` command give on seeded input corpora, faulty inputs included, so
that a rewrite of any of them that moves a tree, a compiled document, an
error's class, message, offset or expected set, or a report line shows up.
Each digest is the sha256 of the JSON dump of the records listed in its
test."""

import contextlib
import hashlib
import io
import json
import random
import re

from kxstit import cli
from kxstit import formula as F
from kxstit.errors import KxstitError
from kxstit.gen import random_formula
from kxstit.scenario import bdt_to_kripke, figure1_scenario, load_scenario


def _digest(records):
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


# ---------------------------------------------------------------------------
# parser corpus

PROPS = ["p", "q", "d_L", "r2"]
AGENTS = ["a", "luther", "b1"]
# tokens of random token strings: operators, punctuation, reserved words,
# macros known and unknown, atoms, names that are no agent names, and
# characters that are no tokens
VOCABULARY = ["~", "&", "|", "->", "<>", "(", ")", "[", "]", "{", "}", ",", "X", "Y", "C",
              "K", "Ags", "p", "q", "a", "luther", "Kh", "ExAnte", "ExInterim", "ExPost",
              "Frob", "2x", "$", "-", "<", ">", "[]", "K{a}", "[a]", "[Ags]"]
STRAY = ["$", "#", "@", "!", ".", "-", "<", ">", "?", ";", "'", "é", "²",
         " ", "\t", "\n", "=", "*"]


def _with_macros(rng, f):
    """``f`` with some subformulas wrapped in a knowledge-stage macro."""
    if isinstance(f, (F.And, F.Or, F.Implies)):
        f = type(f)(_with_macros(rng, f.left), _with_macros(rng, f.right))
    elif isinstance(f, (F.Stit, F.Knows)):
        f = type(f)(f.agent, _with_macros(rng, f.child))
    elif not isinstance(f, F.Atom):
        f = type(f)(_with_macros(rng, f.child))
    if rng.random() < 0.2:
        f = F.Macro(rng.choice(F.MACRO_NAMES), rng.choice(AGENTS), f)
    return f


def _tokens(text):
    return re.findall(r"->|<>|\w+|\S", text)


def parser_corpus():
    rng = random.Random(2024)
    valid = []
    for i in range(400):
        f = random_formula(10_000 + i, 1 + i % 4, PROPS, AGENTS, reach=(2, 2),
                           include_sugar=i % 2 == 0)
        valid.append(F.to_text(_with_macros(rng, f)))
    texts = list(valid)
    texts += [t.replace(" ", "") for t in valid[:100]]
    # binaries without parentheses, where precedence and associativity decide
    for _ in range(150):
        ops = [rng.choice(["&", "|", "->"]) for _ in range(rng.randint(1, 4))]
        parts = [rng.choice(["p", "~q", "X p", "[a] q", "K{a} p", "(p | q)", "<> r2"])
                 for _ in range(len(ops) + 1)]
        texts.append(" ".join(x for pair in zip(parts, ops + [""]) for x in pair).strip())
    for t in valid[:300]:
        texts.append(t[:rng.randrange(len(t) + 1)])  # truncations
    for t in valid[:300]:
        toks = _tokens(t)
        if len(toks) > 1:
            j = rng.randrange(len(toks) - 1)
            toks[j], toks[j + 1] = toks[j + 1], toks[j]
        texts.append(" ".join(toks))  # swapped tokens
    for t in valid[:300]:
        j = rng.randrange(len(t) + 1)
        texts.append(t[:j] + rng.choice(STRAY) + t[j:])  # stray characters
    for _ in range(400):
        texts.append(" ".join(rng.choice(VOCABULARY) for _ in range(rng.randint(1, 10))))
    for word in ("X", "Y", "C", "Ags", "K"):
        texts += [word, f"{word} & p", f"p -> {word}", f"({word})", f"[{word}] p",
                  f"K{{{word}}} p", f"Kh({word}, p)", f"{word}(p)", f"~{word}"]
    for name in ("Frob", "kh", "EXPOST", "Ags", "p", "K", "2x"):
        texts += [f"{name}(a, p)", f"~{name}(luther, q) & p"]
    texts += ["C p", "C(p & q)", "C X (d_L | d_B | s)", "K{a} C p", "~C~p", "C", "C C p",
              "ExPost(a, C p)", "p | C", "", "   ", "p q", "(p", "p)", "[a p", "[] ", "K{",
              "K{a", "K{a}", "Kh(a p)", "Kh(a,", "Kh(, p)", "X Y <> [] ~p",
              "p -> q -> r", "p | q & r", "p & q | r -> s & ~t", "((((p))))"]
    return texts


def _parse_record(text, allow_c):
    try:
        return ["ok", F.to_text(F.parse(text, allow_common_knowledge=allow_c))]
    except KxstitError as e:
        return [type(e).__name__, str(e), e.offset, sorted(e.expected)]


def test_parser_corpus_results_are_pinned():
    texts = parser_corpus()
    records = [[text, _parse_record(text, False), _parse_record(text, True)] for text in texts]
    assert len(texts) >= 2000
    kinds = {r[1][0] for r in records} | {r[2][0] for r in records}
    assert kinds == {"ok", "FormulaSyntaxError", "UnknownMacro", "CommonKnowledgeDisabled"}
    assert _digest(records) == "8e498e1bd9654b9b464fd54d08b86cdb53c0761538d7cd6c1ec9a614e63c9c15"


# ---------------------------------------------------------------------------
# scenario corpus


def _partition(rng, items, parts):
    """``items`` split into at most ``parts`` non-empty random cells."""
    cells = {}
    for x in items:
        cells.setdefault(rng.randrange(parts), []).append(x)
    return list(cells.values())


def random_scenario_doc(seed):
    """A scenario document drawn from ``seed``: a random tree, per-agent
    choice tables (merges of the moment's child blocks, or any partition),
    epistemic partitions (none, per tree layer, per layer and history block,
    or any partition) and a valuation; about one in four has a planted
    fault."""
    rng = random.Random(seed)
    agents = [f"ag{i}" for i in range(rng.randint(1, 3))]
    n = rng.randint(1, 9)
    moments = [f"m{i}" for i in range(n)]
    parent = {m: moments[rng.randrange(i)] for i, m in enumerate(moments) if i}
    order = moments[:1] + rng.sample(moments[1:], n - 1)
    children = {m: [c for c in order if parent.get(c) == m] for m in moments}
    leaves = [m for m in order if not children[m]]
    renamed = rng.random() < 0.3
    hist = [f"{'x' if renamed else 'h'}{i + 1}" for i in range(len(leaves))]
    through = {m: [] for m in moments}
    depth = {}
    sits = []
    for h, leaf in zip(hist, leaves):
        path = [leaf]
        while path[-1] in parent:
            path.append(parent[path[-1]])
        for d, m in enumerate(reversed(path)):
            through[m].append(h)
            depth[f"{m}_{h}"] = d
            sits.append(f"{m}_{h}")
    choice_at = {}
    for a in agents:
        table = {}
        for m in moments:
            if len(through[m]) < 2 or rng.random() < 0.3:
                continue
            if rng.random() < 0.8:
                blocks = [[h for h in through[m] if h in through[c]] for c in children[m]]
                table[m] = [sum(g, []) for g in _partition(rng, blocks, rng.randint(1, 3))]
            else:
                table[m] = _partition(rng, through[m], rng.randint(1, 3))
        choice_at[a] = table
    epistemic = {}
    blocks = {h: rng.randrange(2) for h in hist}
    for a in agents:
        kind = rng.randrange(4)
        if kind == 0:
            epistemic[a] = None
        elif kind == 1:
            epistemic[a] = [sorted(s for s in sits if depth[s] == d) for d in set(depth.values())]
        elif kind == 2:
            groups = {}
            for s in sits:
                groups.setdefault((depth[s], blocks[s.rsplit("_", 1)[1]]), []).append(s)
            epistemic[a] = list(groups.values())
        else:
            epistemic[a] = _partition(rng, sits, rng.randint(1, 4))
    valuation = {p: [s for s in sits if rng.random() < 0.4] for p in ("p", "q")}
    doc = {"format_version": 1, "agents": agents, "moments": order, "parent": parent,
           "choice_at": choice_at, "epistemic_sit": epistemic, "valuation_sit": valuation}
    if renamed:
        doc["history_names"] = hist
    if rng.random() < 0.25:
        _plant_fault(rng, doc)
    return doc


def _plant_fault(rng, doc):
    kind = rng.randrange(9)
    a = doc["agents"][0]
    sits = sorted({s for ss in doc["valuation_sit"].values() for s in ss})
    if kind == 0 and doc["choice_at"][a]:
        m = next(iter(doc["choice_at"][a]))
        doc["choice_at"][a][m] = doc["choice_at"][a][m][1:] or [[]]  # cells miss histories
    elif kind == 1 and doc["choice_at"][a]:
        m = next(iter(doc["choice_at"][a]))
        doc["choice_at"][a][m] = doc["choice_at"][a][m] + doc["choice_at"][a][m][:1]  # overlap
    elif kind == 2:
        doc["epistemic_sit"][a] = [sits[:2], sits[1:]] if len(sits) > 2 else [[]]
    elif kind == 3:
        doc["valuation_sit"]["p"] = doc["valuation_sit"]["p"] + ["nowhere"]
    elif kind == 4 and len(doc["moments"]) > 1:
        doc["parent"][doc["moments"][0]] = doc["moments"][-1]  # a cycle, or no root
    elif kind == 5:
        doc["choice_at"]["stranger"] = {}
    elif kind == 6:
        doc["moments"] = doc["moments"] + [doc["moments"][0]]
    elif kind == 7:
        doc["epistemic_sit"][a] = [[s] for s in sits] + [["ghost"]]
    else:
        doc["choice_at"][a]["m0"] = [[["nested"]]]


def _scenario_record(doc):
    try:
        text = bdt_to_kripke(load_scenario(json.dumps(doc))).dumps()
        return ["ok", hashlib.sha256(text.encode()).hexdigest()]
    except KxstitError as e:
        return [type(e).__name__, getattr(e, "condition", None),
                getattr(e, "witnesses", None), str(e)]


def test_scenario_corpus_results_are_pinned():
    records = [_scenario_record(random_scenario_doc(seed)) for seed in range(500)]
    records += [_scenario_record(json.loads(figure1_scenario(case).dumps())) for case in "ab"]
    kinds = {r[0] if r[0] != "BDTInvariantViolation" else r[1] for r in records}
    assert kinds == {"ok", "SchemaError", "independence_of_agency",
                     "no_choice_between_undivided_histories", "no_forget"}, kinds
    assert _digest(records) == "7fa14c39e452c89e1a03077ef6d05e11436fec702ddf578a070ece3ef6d2c6b5"


# ---------------------------------------------------------------------------
# the report grid of the query benchmark: report k asks on file k mod 3 (the
# compiled fig1a and fig1b models and the fig1a scenario, in name order) at
# world 37k mod 80, for agent k // 3 mod 3, about a target drawn from seed
# 90,000 + k at depth 1 + k mod 2


def test_report_grid_output_is_pinned(tmp_path):
    fig_a, fig_b = figure1_scenario("a"), figure1_scenario("b")
    models = {"fig1a.model": bdt_to_kripke(fig_a), "fig1a.scenario": bdt_to_kripke(fig_a),
              "fig1b.model": bdt_to_kripke(fig_b)}
    texts = {"fig1a.model": models["fig1a.model"].dumps(), "fig1a.scenario": fig_a.dumps(),
             "fig1b.model": models["fig1b.model"].dumps()}
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    names = sorted(texts)
    records = []
    for k in range(100):
        name = names[k % 3]
        m = models[name]
        props, agents = sorted(m.valuation), list(m.agents)
        target = random_formula(90_000 + k, 1 + k % 2, props, agents, include_sugar=True)
        argv = ["report", str(tmp_path / name), "--world", m.worlds[37 * k % 80],
                "--agent", agents[k // 3 % 3], "--formula", F.to_text(target)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        records.append([name, code, out.getvalue()])
    assert all(code == 0 for _, code, _ in records)
    assert _digest(records) == "e1cfee7b0b03eb7cdf5cb4390b12dbaa5037b02d7cdb76ccbc5a2ec8a899c549"
