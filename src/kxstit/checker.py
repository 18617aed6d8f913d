"""Semantic evaluation over Kripke structures and knowledge-stage analysis.

Two independent evaluation paths are kept on purpose: ``eval_formula`` walks
the formula top-down per the satisfaction clauses, while ``extension``
computes truth sets bottom-up, in one explicit-stack pass over the dense
frame a model builds once (``model.DenseFrame``); window evaluation is the
same pass.  Each acts as the oracle for the other in the test suite.  The
top-down walk reads only the model's cell accessors, never the frame; it
memoises (subformula, world) results per call, so its cost is bounded by
subformulas x worlds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import formula as F
from .errors import DepthExceedsWindow, UnknownAgent, UnknownWorld
from .model import _low, validate_frame


def _check_world(m, w):
    try:
        m.box_cell(w)
    except KeyError:
        raise UnknownWorld(f"unknown world {w!r}") from None


def _check_agent(m, a):
    if a not in m.agents:
        raise UnknownAgent(f"unknown agent {a!r}")


def _pred(m, w):
    if m.pred is None:
        raise UnknownWorld("temporal relation is not invertible; Y undefined")
    try:
        return m.pred[w]
    except KeyError:
        raise DepthExceedsWindow(f"pred undefined at {w}") from None


def eval_formula(m, w, f):
    """Truth of ``f`` at world ``w`` (top-down recursion).

    Total on structurally well-formed models whether or not they pass frame
    validation; a macro is evaluated as its definition, sugar by its own
    clause.  Each call keeps its own memo of (subformula, world) results.
    """
    _check_world(m, w)
    return _eval(m, w, f, {})


def _eval(m, w, f, memo):
    """Truth of ``f`` at ``w``.  ``memo`` maps (subformula, world) to the
    results completed so far, so each pair is evaluated at most once;
    quantifiers visit a cell in its own order and stop at the first world
    that decides them.
    """
    key = (f, w)
    v = memo.get(key)
    if v is not None:
        return v
    t = type(f)
    if t is F.Atom:
        v = m.holds(f.name, w)
    elif t is F.Not:
        v = not _eval(m, w, f.child, memo)
    elif t is F.And:
        v = _eval(m, w, f.left, memo) and _eval(m, w, f.right, memo)
    elif t is F.Or:
        v = _eval(m, w, f.left, memo) or _eval(m, w, f.right, memo)
    elif t is F.Implies:
        v = (not _eval(m, w, f.left, memo)) or _eval(m, w, f.right, memo)
    elif t is F.Next:
        try:
            u = m.succ[w]
        except KeyError:
            raise DepthExceedsWindow(f"succ undefined at {w}") from None
        v = _eval(m, u, f.child, memo)
    elif t is F.Yesterday:
        v = _eval(m, _pred(m, w), f.child, memo)
    elif t is F.Macro:
        v = _eval(m, w, F._unfold(f.name, f.agent, f.child), memo)
    else:
        if t is F.Box or t is F.Diamond:
            cell = m.box_cell(w)
        elif t is F.Stit:
            _check_agent(m, f.agent)
            cell = m.choice_cell(f.agent, w)
        elif t is F.StitAgs:
            cell = m.ags_cell(w)
        elif t is F.Knows:
            _check_agent(m, f.agent)
            cell = m.epi_cell(f.agent, w)
        elif t is F.CommonKnows:
            cell = m.common_cell(w)
        else:
            raise TypeError(f"cannot evaluate {f!r}")
        # all() over the cell, any() for the diamond; a loop rather than a
        # generator keeps one frame per nesting level
        v = t is not F.Diamond
        for u in cell:
            if _eval(m, u, f.child, memo) != v:
                v = not v
                break
    memo[key] = v
    return v


def extension(m, f):
    """Set of worlds satisfying ``f``, computed bottom-up over subformulas."""
    mask, _ = _truth_mask(m, f)
    return {w for i, w in enumerate(m.worlds) if mask >> i & 1}


def valid_on_model(m, f):
    """(True, None) when ``f`` holds at every world, else (False, least
    world where it fails) in the canonical world order.
    """
    d = m._dense()
    failing = d.full & ~_truth_mask(m, f, d=d)[0]
    if not failing:
        return True, None
    return False, m.worlds[(failing & -failing).bit_length() - 1]


_UNARY = frozenset(F.UNARY)  # a set: the walk tests membership per node
_CLOSE = object()  # on the walk's stack above a node; popped once its children are done


def _quantify(pairs, bad):
    """Holders of the cells that miss ``bad``."""
    out = 0
    for cell, hold in pairs:
        if not cell & bad:
            out |= hold
    return out


def _truth_mask(m, f, bound=None, d=None):
    """(mask, reach) of ``f`` on the dense frame ``d`` of the model or
    window ``m`` (by default ``m._dense()``): bit i of the mask stands for
    world ``m.worlds[i]``.

    One post-order walk on an explicit stack, left child first, with the
    children's masks on a second stack.  Each node object is evaluated once,
    by identity: the memo is keyed by ``id``, so equal subtrees built apart
    are evaluated once each.  A macro node takes the mask of its definition,
    unfolded where it is met and kept until the walk ends, so that no id is
    reused.

    With a ``bound`` the frame is a window of layers [-bound, bound]: each
    node also gets its temporal reach (forward, backward), the one
    ``formula.depth_profile`` gives, and a quantifier reads only the mates
    from which its child's reach stays inside the bound.  Bits at worlds
    where a node does not fit are left unspecified.  Without a bound the
    reach is None and every node fits everywhere.  A temporal step that a
    world where its node fits cannot take raises ``_missing_step``'s error.
    """
    if d is None:
        d = m._dense()
    full = d.full
    windowed = bound is not None
    memo = {}   # id(node) -> mask
    reach = {}  # id(node) -> (forward, backward), windowed only
    fits = {}
    defs = {}   # id(macro) -> its definition, alive until the walk ends
    masks, stack = [], [f]
    while stack:
        g = stack.pop()
        closing = g is _CLOSE
        if closing:
            g = stack.pop()
        elif id(g) in memo:
            masks.append(memo[id(g)])
            continue
        t = type(g)
        if t is F.Atom:
            v = d.atoms.get(g.name, 0)
        elif not closing:
            if t in _UNARY:
                stack += g, _CLOSE, g.child
            elif t in F.BINARY:
                stack += g, _CLOSE, g.right, g.left
            elif t is F.Macro:
                stack += g, _CLOSE, defs.setdefault(id(g), F._unfold(g.name, g.agent, g.child))
            else:
                raise TypeError(f"cannot evaluate {g!r}")
            continue
        elif t in _UNARY:
            child = masks.pop()
            if t is F.Not:
                v = full & ~child
            elif t is F.Next or t is F.Yesterday:
                steps = d.succ if t is F.Next else d.pred
                v = gaps = 0
                for i, s in enumerate(steps):
                    if s is None:
                        gaps |= 1 << i
                    elif child >> s & 1:
                        v |= 1 << i
                if gaps and not windowed:  # without a bound the node fits everywhere
                    raise _missing_step(d, t, gaps)
            else:
                if t is F.Box or t is F.Diamond:
                    pairs = d.pairs["box"]
                elif t is F.Stit or t is F.Knows:
                    pairs = (d.choice_pairs if t is F.Stit else d.epi_pairs).get(g.agent)
                    if pairs is None:
                        raise UnknownAgent(f"unknown agent {g.agent!r}")
                elif t is F.StitAgs:
                    pairs = d.pairs["ags"]
                else:
                    pairs = [(c, c) for c in map(d.mask, set(map(m.common_cell, m.worlds)))]
                fit = fits.get(reach[id(g.child)]) if windowed else full
                if fit is None:
                    r = reach[id(g.child)]
                    fit = fits[r] = d.fit(r, bound)
                if t is F.Diamond:
                    v = full & ~_quantify(pairs, fit & child)
                else:
                    v = _quantify(pairs, fit & ~child)
        elif t is F.Macro:
            v = masks.pop()
        else:
            right = masks.pop()
            left = masks.pop()
            if t is F.And:
                v = left & right
            elif t is F.Implies:
                v = (full & ~left) | right
            else:
                v = left | right
        memo[id(g)] = v
        masks.append(v)
        if windowed:
            # forward and backward reach, as formula.depth_profile counts them
            if t is F.Atom:
                reach[id(g)] = 0, 0
            elif t in F.BINARY:
                (lf, lb), (rf, rb) = reach[id(g.left)], reach[id(g.right)]
                reach[id(g)] = max(lf, rf), max(lb, rb)
            elif t is F.Macro:
                reach[id(g)] = reach[id(defs[id(g)])]
            else:
                fwd, bwd = reach[id(g.child)]
                r = reach[id(g)] = ((fwd + 1, max(bwd - 1, 0)) if t is F.Next else
                                    (max(fwd - 1, 0), bwd + 1) if t is F.Yesterday else (fwd, bwd))
                if (t is F.Next or t is F.Yesterday) and gaps:
                    gap = gaps & d.fit(r, bound)
                    if gap:
                        raise _missing_step(d, t, gap)
    return masks[0], reach[id(f)] if windowed else None


def _missing_step(d, t, gap):
    """The error for an X (Y) step ``t`` missing at the worlds of ``gap``:
    off a window's edge, or on a model Y without an inverse."""
    if not d.layers:
        return UnknownWorld("temporal relation is not invertible; Y undefined")
    return DepthExceedsWindow(f"{'succ' if t is F.Next else 'pred'} undefined at {d.names[_low(gap)]}")


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


def knowledge_report(m, w, agent, target):
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
    # the stages share [a] X target and K{a} [a] X target, so one memo
    memo = {}
    flags = {name: _eval(m, w, g, memo) for name, g in stages.items()}
    warnings = []
    report = validate_frame(m, "actual", len(set(m.rel["ags"].values())))
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


def expost_interim_gap_search(seed_count=200, max_worlds=6):
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
                    for _ in range(6):
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
