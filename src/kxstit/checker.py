"""Semantic evaluation over Kripke structures and knowledge-stage analysis.

Two independent evaluation paths are kept on purpose: ``eval_formula`` walks
the formula top-down per the satisfaction clauses, while ``extension``
computes truth sets bottom-up, in one explicit-stack pass over bitmask
tables built once per model.  Each acts as the oracle for the other in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import formula as F
from .errors import UnknownAgent, UnknownWorld
from .model import validate_frame


def _check_world(m, w):
    if w not in m._box_of:
        raise UnknownWorld(f"unknown world {w!r}")


def _check_agent(m, a):
    if a not in m.choice:
        raise UnknownAgent(f"unknown agent {a!r}")


def _pred(m, w):
    if m.pred is None:
        raise UnknownWorld("temporal relation is not invertible; Y undefined")
    return m.pred[w]


def eval_formula(m, w, f):
    """Truth of ``f`` at world ``w`` (top-down recursion).

    Total on structurally well-formed models whether or not they pass frame
    validation; macros are expanded up front, sugar is evaluated by its own
    clause.
    """
    _check_world(m, w)
    return _eval(m, w, F.expand_macros(f))


def _eval(m, w, f):
    if isinstance(f, F.Atom):
        return m.holds(f.name, w)
    if isinstance(f, F.Not):
        return not _eval(m, w, f.child)
    if isinstance(f, F.And):
        return _eval(m, w, f.left) and _eval(m, w, f.right)
    if isinstance(f, F.Or):
        return _eval(m, w, f.left) or _eval(m, w, f.right)
    if isinstance(f, F.Implies):
        return (not _eval(m, w, f.left)) or _eval(m, w, f.right)
    if isinstance(f, F.Box):
        return all(_eval(m, v, f.child) for v in m.box_cell(w))
    if isinstance(f, F.Diamond):
        return any(_eval(m, v, f.child) for v in m.box_cell(w))
    if isinstance(f, F.Next):
        return _eval(m, m.succ[w], f.child)
    if isinstance(f, F.Yesterday):
        return _eval(m, _pred(m, w), f.child)
    if isinstance(f, F.Stit):
        _check_agent(m, f.agent)
        return all(_eval(m, v, f.child) for v in m.choice_cell(f.agent, w))
    if isinstance(f, F.StitAgs):
        return all(_eval(m, v, f.child) for v in m.ags_cell(w))
    if isinstance(f, F.Knows):
        _check_agent(m, f.agent)
        return all(_eval(m, v, f.child) for v in m.epi_cell(f.agent, w))
    if isinstance(f, F.CommonKnows):
        return all(_eval(m, v, f.child) for v in m.common_cell(w))
    raise TypeError(f"cannot evaluate {f!r}")


def extension(m, f):
    """Set of worlds satisfying ``f``, computed bottom-up over subformulas."""
    mask = _truth_mask(m, f)
    return {w for i, w in enumerate(m.worlds) if mask >> i & 1}


def valid_on_model(m, f):
    """(True, None) when ``f`` holds at every world, else (False, least
    world where it fails) in the canonical world order.
    """
    failing = m._dense().full & ~_truth_mask(m, f)
    if not failing:
        return True, None
    return False, m.worlds[(failing & -failing).bit_length() - 1]


_UNARY = {F.Not, F.Box, F.Diamond, F.Next, F.Yesterday, F.Stit, F.StitAgs, F.Knows,
          F.CommonKnows}


def _quantify(cells, child):
    out = 0
    for cm in cells:
        if cm & child == cm:
            out |= cm
    return out


def _truth_mask(m, f):
    """Mask of the worlds satisfying ``f``, bit i standing for ``m.worlds[i]``.

    One post-order walk on an explicit stack over the model's dense tables:
    a node is evaluated once its children are in the table, left child
    first, and a subformula already in the table is not walked again.  A
    macro node takes the mask of its definition, unfolded where it is met.
    """
    d = m._dense()
    full = d.full
    table = {}
    stack = [f]
    while stack:
        g = stack[-1]
        if g in table:
            stack.pop()
            continue
        t = type(g)
        if t is F.Atom:
            v = d.atoms.get(g.name, 0)
        elif t in _UNARY:
            child = table.get(g.child)
            if child is None:
                stack.append(g.child)
                continue
            if t is F.Not:
                v = full & ~child
            elif t is F.Box:
                v = _quantify(d.box, child)
            elif t is F.Next or t is F.Yesterday:
                steps = d.succ if t is F.Next else d.pred
                if steps is None:
                    raise UnknownWorld("temporal relation is not invertible; Y undefined")
                v = 0
                for i, s in enumerate(steps):
                    if child >> s & 1:
                        v |= 1 << i
            elif t is F.Stit or t is F.Knows:
                cells = (d.choice if t is F.Stit else d.epistemic).get(g.agent)
                if cells is None:
                    raise UnknownAgent(f"unknown agent {g.agent!r}")
                v = _quantify(cells, child)
            elif t is F.StitAgs:
                v = _quantify(d.ags, child)
            elif t is F.Diamond:
                v = full & ~_quantify(d.box, full & ~child)
            else:
                v = 0
                for i, w in enumerate(m.worlds):
                    if all(child >> d.index[u] & 1 for u in m.common_cell(w)):
                        v |= 1 << i
        elif t in F.BINARY:
            left = table.get(g.left)
            right = table.get(g.right)
            if left is None or right is None:
                if right is None:
                    stack.append(g.right)
                if left is None:
                    stack.append(g.left)
                continue
            if t is F.And:
                v = left & right
            elif t is F.Implies:
                v = (full & ~left) | right
            else:
                v = left | right
        elif t is F.Macro:
            unfolded = F._unfold(g.name, g.agent, g.child)
            v = table.get(unfolded)
            if v is None:
                stack.append(unfolded)
                continue
        else:
            raise TypeError(f"cannot evaluate {g!r}")
        table[g] = v
        stack.pop()
    return table[f]


# ---------------------------------------------------------------------------
# knowledge stages

@dataclass
class KnowledgeReport:
    agent: str
    world: str
    target: F.Formula
    ex_ante: bool
    ex_interim: bool
    ex_post: bool
    know_how: bool
    does: bool
    expanded: dict = field(default_factory=dict)
    frame_warnings: list = field(default_factory=list)

    @property
    def knowingly_does(self):
        return self.ex_interim

    def lines(self):
        out = [f"knowledge report: agent={self.agent} world={self.world} target={F.to_text(self.target)}"]
        for name in ("does", "ex_ante", "ex_interim", "ex_post", "know_how"):
            shown = self.expanded.get(name, "")
            out.append(f"  {name:<10} {str(getattr(self, name)).lower():<5}  {shown}")
        out.append(f"  knowingly_does {str(self.knowingly_does).lower()}")
        for w in self.frame_warnings:
            out.append(f"  warning: {w}")
        return out


def knowledge_report(m, w, agent, target, frame_mode="actual", frame_n=None):
    """Evaluate the four knowledge-stage notions (plus plain doing) for
    ``agent`` about ``target`` at ``w``.  Expanded formulas are included
    verbatim in the report; a warning is attached when the model fails frame
    validation.
    """
    _check_agent(m, agent)
    _check_world(m, w)
    stages = {
        "does": F.Stit(agent, F.Next(target)),
        "ex_ante": F.expand_macros(F.Macro("ExAnte", agent, target)),
        "ex_interim": F.expand_macros(F.Macro("ExInterim", agent, target)),
        "ex_post": F.expand_macros(F.Macro("ExPost", agent, target)),
        "know_how": F.expand_macros(F.Macro("Kh", agent, target)),
    }
    flags = {name: eval_formula(m, w, g) for name, g in stages.items()}
    warnings = []
    n = frame_n if frame_n is not None else max(len(m.choice_ags), 1)
    report = validate_frame(m, frame_mode, n)
    if not report.ok:
        bad = ", ".join(c.condition for c in report.failed())
        warnings.append(f"model fails frame conditions: {bad}; stage implications may not hold")
    return KnowledgeReport(
        agent=agent, world=w, target=target,
        ex_ante=flags["ex_ante"], ex_interim=flags["ex_interim"],
        ex_post=flags["ex_post"], know_how=flags["know_how"], does=flags["does"],
        expanded={k: F.to_text(v) for k, v in stages.items()},
        frame_warnings=warnings,
    )


@dataclass
class RefinementReport:
    checked: int
    counterexamples: list  # (agent, formula text, implication name, witness world)

    @property
    def ok(self):
        return not self.counterexamples


def expost_interim_gap_search(seed_count=200, max_worlds=6, fills_per_model=6):
    """Seeded search for a frame-valid model with a world where an agent
    knows after disclosure that it brought something about without having
    known it while acting: X K_a Y [Ags] X Y [a] X phi true but
    K_a [a] X phi false.

    Returns (model, world, formula) for the first hit, else None.

    No hit can exist on finite models passing every frame condition: with an
    invertible successor, iterating the no-forget condition around the
    successor cycles forces every epistemic relation to commute with the
    successor, so the knowledge and next-moment operators commute, the
    inverse axioms cancel the X/Y pairs, and the left-hand side quantifies
    over a superset (coalition cells are reflexive) of the right-hand side's
    worlds.  Acceptance criterion 6 asserts that the search returns None;
    DECISIONS.md gives the argument in full.
    """
    from .gen import GenParams, random_formula, random_model
    from .model import validate_frame
    import random as _random

    rng = _random.Random(99)
    for seed in range(seed_count):
        for agent_count in (1, 2):
            for classes in (1, 2, 3):
                params = GenParams(seed=seed, agent_count=agent_count,
                                   box_class_count=classes,
                                   epistemic_coarseness=rng.random(),
                                   max_class_size=2)
                m = random_model(params)
                if len(m.worlds) > max_worlds:
                    continue
                if not validate_frame(m, "actual", 2).ok:
                    continue
                for a in m.agents:
                    for k in range(fills_per_model):
                        phi = random_formula(rng.randrange(1 << 30), 2,
                                             sorted(m.valuation), list(m.agents),
                                             reach=(1, 1))
                        lhs = F.Next(F.Knows(a, F.Yesterday(
                            F.StitAgs(F.Next(F.Yesterday(F.Stit(a, F.Next(phi))))))))
                        rhs = F.Knows(a, F.Stit(a, F.Next(phi)))
                        gap = F.And(lhs, F.Not(rhs))
                        ext = extension(m, gap)
                        if ext:
                            return m, min(ext), phi
    return None


def check_refinement(m, agents=None, samples=None):
    """Validate the two knowledge-stage refinement implications
    (before-choice knowledge entails knowingly-doing entails
    after-disclosure knowledge) for each agent over sample formulas.
    """
    agents = list(agents) if agents is not None else list(m.agents)
    if samples is None:
        samples = [F.Atom(p) for p in sorted(m.valuation)] or [F.Atom("p")]
    counterexamples = []
    checked = 0
    for a in agents:
        _check_agent(m, a)
        for phi in samples:
            ante = F.expand_macros(F.Macro("ExAnte", a, phi))
            interim = F.expand_macros(F.Macro("ExInterim", a, phi))
            post = F.expand_macros(F.Macro("ExPost", a, phi))
            for name, impl in (("ex_ante->ex_interim", F.Implies(ante, interim)),
                               ("ex_interim->ex_post", F.Implies(interim, post))):
                checked += 1
                ok, witness = valid_on_model(m, impl)
                if not ok:
                    counterexamples.append((a, F.to_text(phi), name, witness))
    return RefinementReport(checked, counterexamples)
