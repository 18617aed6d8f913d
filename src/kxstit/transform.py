"""Finite-window forms of the model transformations: unraveling to an
irreflexive temporal order, choice-profile analysis, the matrix
(actualization) construction, and bounded-morphism / truth-preservation
verifiers.

The full constructions are infinite (a serial irreflexive successor forces
infinite chains), so they are realized here on depth-bounded windows.  The
window of depth d holds every flagged world-sequence whose net temporal
offset from its start lies within [-d, d]; worlds at |offset| < d form the
interior, the rest the boundary, and the successor map is partial on the
boundary.  Frame conditions are checked with universal quantifiers ranging
over the interior and existential witnesses over the whole window; formula
evaluation skips quantifier mates at which the remaining formula's temporal
reach would cross the boundary (such mates are provably redundant: mates on
the evaluation world's own layer already project onto the full base cell).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import formula as F
from .checker import _check_world, _eval, _truth_mask
from .errors import (DepthExceedsWindow, HorizonTooSmall, InvalidModel, PartialMap,
                     SourceNotIrreflexive, WindowTooSmall)
from .model import (DenseFrame, KripkeModel, _bits, _cell_index, check_frame, family_names,
                    validate_frame)


@dataclass(frozen=True)
class UnraveledWorld:
    """Flagged world sequence: flag 1 ascends along the successor, flag 0
    descends along its inverse (and needs length > 1).
    """

    seq: tuple
    flag: int

    @property
    def layer(self):
        return (len(self.seq) - 1) * (1 if self.flag == 1 else -1)

    @property
    def last(self):
        return self.seq[-1]

    @property
    def wid(self):
        return "|".join(self.seq) + f";{self.flag}"


class WindowModel:
    """Kripke-shaped structure over a finite window: partitions for the four
    equivalence families, a partial successor, per-world layers, and an
    interior/boundary split.
    """

    def __init__(self, agents, worlds, layer, interior, horizon, root,
                 succ, pred, r_box, choice, choice_ags, epistemic, valuation):
        self.agents = tuple(agents)
        self.worlds = tuple(sorted(worlds))
        self.layer = dict(layer)
        self.interior = frozenset(interior)
        self.horizon = horizon
        self.root = root
        self.succ = dict(succ)
        self.pred = dict(pred)
        self.r_box = tuple(sorted((frozenset(c) for c in r_box), key=min))
        self.choice = {a: tuple(sorted((frozenset(c) for c in choice[a]), key=min)) for a in self.agents}
        self.choice_ags = tuple(sorted((frozenset(c) for c in choice_ags), key=min))
        self.epistemic = {a: tuple(sorted((frozenset(c) for c in epistemic[a]), key=min)) for a in self.agents}
        self.valuation = {p: frozenset(ws) for p, ws in valuation.items()}
        self._box_of = _cell_index(self.r_box)
        self._ags_of = _cell_index(self.choice_ags)
        self._choice_of = {a: _cell_index(p) for a, p in self.choice.items()}
        self._epi_of = {a: _cell_index(p) for a, p in self.epistemic.items()}

    def _dense(self):
        """A dense frame of the window as it stands, built on each call from
        the cell each world is indexed to."""
        mates = [_mates(self.r_box, self._box_of), _mates(self.choice_ags, self._ags_of),
                 *(_mates(self.choice[a], self._choice_of[a]) for a in self.agents),
                 *(_mates(self.epistemic[a], self._epi_of[a]) for a in self.agents)]
        return DenseFrame(self.worlds, self.agents, mates, self.succ, self.pred,
                          self.valuation, self.interior, self.layer)

    def box_cell(self, w):
        return self.r_box[self._box_of[w]]

    def choice_cell(self, agent, w):
        return self.choice[agent][self._choice_of[agent][w]]

    def ags_cell(self, w):
        return self.choice_ags[self._ags_of[w]]

    def epi_cell(self, agent, w):
        return self.epistemic[agent][self._epi_of[agent][w]]

    def succ_of(self, w):
        return self.succ.get(w)

    def pred_of(self, w):
        return self.pred.get(w)

    def holds(self, prop, w):
        return w in self.valuation.get(prop, frozenset())

    def to_doc(self):
        def cells(p):
            return sorted((sorted(c) for c in p), key=lambda c: c[0])

        return {
            "format_version": 1,
            "kind": "window",
            "agents": sorted(self.agents),
            "worlds": list(self.worlds),
            "layer": {w: self.layer[w] for w in self.worlds},
            "interior": sorted(self.interior),
            "horizon": self.horizon,
            "root": self.root,
            "succ": {w: self.succ[w] for w in sorted(self.succ)},
            "r_box": cells(self.r_box),
            "choice": {a: cells(self.choice[a]) for a in sorted(self.agents)},
            "choice_ags": cells(self.choice_ags),
            "epistemic": {a: cells(self.epistemic[a]) for a in sorted(self.agents)},
            "valuation": {p: sorted(ws) for p, ws in sorted(self.valuation.items())},
        }


def _mates(partition, index):
    """Map from each world of ``index`` to the cell of ``partition`` it is
    indexed to."""
    return {w: partition[i] for w, i in index.items()}


# ---------------------------------------------------------------------------
# unraveling

def unravel(m, root, horizon, require_valid=True, mode="super_additive"):
    """Unravel ``m`` from ``root`` into a window of depth ``horizon``.

    Returns (window, projection) where the projection maps every unraveled
    world to the last element of its sequence.
    """
    if horizon < 1:
        raise HorizonTooSmall("horizon must be >= 1")
    if root not in m._box_of:
        raise InvalidModel(f"unknown root world {root!r}")
    if m.pred is None:
        raise InvalidModel("successor map is not invertible")
    if require_valid:
        n = max(max(len({m._ags_of[w] for w in box}) for box in m.r_box),
                max(len({m._choice_of[a][w] for w in box}) for box in m.r_box for a in m.agents))
        report = validate_frame(m, mode, n)
        if not report.ok:
            raise InvalidModel(
                f"model fails frame validation: {[c.condition for c in report.failed()]}")

    ups = {}
    downs = {}
    for w0 in m.worlds:
        seq = [w0]
        for _ in range(horizon):
            seq.append(m.succ[seq[-1]])
        for ln in range(1, horizon + 2):
            u = UnraveledWorld(tuple(seq[:ln]), 1)
            ups[u.wid] = u
        seq = [w0]
        for _ in range(horizon):
            seq.append(m.pred[seq[-1]])
        for ln in range(2, horizon + 2):
            u = UnraveledWorld(tuple(seq[:ln]), 0)
            downs[u.wid] = u

    by_id = {**ups, **downs}
    worlds = sorted(by_id)
    layer = {wid: u.layer for wid, u in by_id.items()}
    interior = {wid for wid, lv in layer.items() if abs(lv) < horizon}

    succ = {}
    pred = {}
    for wid, u in by_id.items():
        if u.flag == 1:
            if len(u.seq) <= horizon:
                succ[wid] = UnraveledWorld(u.seq + (m.succ[u.last],), 1).wid
            if len(u.seq) > 1:
                pred[wid] = UnraveledWorld(u.seq[:-1], 1).wid
            else:
                pred[wid] = UnraveledWorld((u.seq[0], m.pred[u.seq[0]]), 0).wid
        else:
            if len(u.seq) == 2:
                succ[wid] = UnraveledWorld((u.seq[0],), 1).wid
            else:
                succ[wid] = UnraveledWorld(u.seq[:-1], 0).wid
            if len(u.seq) <= horizon:
                pred[wid] = UnraveledWorld(u.seq + (m.pred[u.last],), 0).wid

    def group(key):
        cells = {}
        for wid, u in by_id.items():
            cells.setdefault(key(u), []).append(wid)
        return list(cells.values())

    def prefix_ags(u):
        return tuple(m._ags_of[x] for x in u.seq[:-1])

    r_box = group(lambda u: (u.flag, len(u.seq), prefix_ags(u) if u.flag == 1 else (), m._box_of[u.last]))
    choice_ags = group(lambda u: (u.flag, len(u.seq), prefix_ags(u) if u.flag == 1 else (), m._ags_of[u.last]))
    choice = {a: group(lambda u, a=a: (u.flag, len(u.seq), prefix_ags(u) if u.flag == 1 else (),
                                       m._choice_of[a][u.last]))
              for a in m.agents}
    epistemic = {a: group(lambda u, a=a: m._epi_of[a][u.last]) for a in m.agents}

    valuation = {p: {wid for wid, u in by_id.items() if u.last in ws}
                 for p, ws in m.valuation.items()}

    win = WindowModel(m.agents, worlds, layer, interior, horizon,
                      UnraveledWorld((root,), 1).wid, succ, pred,
                      r_box, choice, choice_ags, epistemic, valuation)
    projection = {wid: u.last for wid, u in by_id.items()}
    return win, projection


# ---------------------------------------------------------------------------
# relativized frame validation

def validate_window(win, mode="actual", n=1):
    """Frame conditions relativized to the window interior: universal
    quantifiers range over interior worlds, existential witnesses over the
    whole window.  Each failed condition's witness is its first violation
    in world order.
    """
    return check_frame(win._dense(), mode, n)


# ---------------------------------------------------------------------------
# bounded morphisms

@dataclass
class MorphismReport:
    surjective: bool
    atom_harmony: bool
    forth: dict
    back: dict
    counterexamples: list = field(default_factory=list)

    @property
    def ok(self):
        return self.surjective and self.atom_harmony and all(self.forth.values()) and all(self.back.values())

    def lines(self):
        out = [f"surjective:   {self.surjective}", f"atom harmony: {self.atom_harmony}"]
        for fam in sorted(self.forth):
            out.append(f"  forth[{fam}]: {self.forth[fam]}   back[{fam}]: {self.back[fam]}")
        for c in self.counterexamples[:10]:
            out.append(f"  counterexample: {c}")
        return out


class _View:
    """Uniform relation accessors over KripkeModel, WindowModel, and
    MatrixWindow."""

    def __init__(self, obj):
        self.obj = obj
        self.is_model = isinstance(obj, KripkeModel)
        self.worlds = tuple(obj.worlds)
        self.agents = tuple(obj.agents)
        self.interior = frozenset(obj.worlds) if self.is_model else frozenset(obj.interior)

    def succ_of(self, w):
        return self.obj.succ[w] if self.is_model else self.obj.succ_of(w)

    def pred_of(self, w):
        if self.is_model:
            return self.obj.pred[w] if self.obj.pred else None
        return self.obj.pred_of(w)

    def families(self):
        return [(name, self.family(name)) for name in family_names(self.agents)]

    def family(self, name):
        if name == "box":
            return self.obj.box_cell
        if name == "ags":
            return self.obj.ags_cell
        kind, agent = name.split(":")
        if kind == "choice":
            return lambda w: self.obj.choice_cell(agent, w)
        return lambda w: self.obj.epi_cell(agent, w)

    def props(self):
        return set(self.obj.valuation)

    def holds(self, p, w):
        return self.obj.holds(p, w)


def _reachable(view, start):
    seen = {start}
    frontier = [start]
    while frontier:
        w = frontier.pop()
        nbrs = set()
        for _, mates in view.families():
            nbrs |= mates(w)
        s, p = view.succ_of(w), view.pred_of(w)
        nbrs |= {x for x in (s, p) if x is not None}
        for x in nbrs:
            if x not in seen:
                seen.add(x)
                frontier.append(x)
    return seen


def check_bounded_morphism(mapping, source, target, interior_only=True):
    """Verify that ``mapping`` is a surjective bounded morphism from
    ``source`` onto (the reachable part of) ``target``: atom harmony, and
    forth/back conditions for each relation family, with universal
    quantifiers relativized to the source interior when requested.
    """
    src = _View(source)
    tgt = _View(target)
    domain = src.interior if interior_only else frozenset(src.worlds)
    missing = [w for w in domain if w not in mapping]
    if missing:
        raise PartialMap(f"mapping undefined on {missing[:4]}")

    counterexamples = []
    root_img = mapping.get(getattr(source, "root", None)) or mapping[min(domain)]
    reachable = _reachable(tgt, root_img)
    image = {mapping[w] for w in mapping if w in src.worlds}
    surjective = reachable <= image
    if not surjective:
        counterexamples.append(("surjectivity", sorted(reachable - image)[:4]))

    atom_harmony = True
    props = src.props() | tgt.props()
    for w in sorted(domain):
        for p in props:
            if src.holds(p, w) != tgt.holds(p, mapping[w]):
                atom_harmony = False
                counterexamples.append(("atom", w, p))
                break
        if not atom_harmony:
            break

    forth = {}
    back = {}
    fam_names = [name for name, _ in src.families()] + ["succ", "pred"]
    for name in fam_names:
        forth[name] = True
        back[name] = True

    for name, _ in src.families():
        s_mates = src.family(name)
        t_mates = tgt.family(name)
        for w in sorted(domain):
            fw = mapping[w]
            tcell = t_mates(fw)
            for v in s_mates(w):
                if v in mapping and mapping[v] not in tcell:
                    forth[name] = False
                    counterexamples.append(("forth", name, w, v))
                    break
            covered = {mapping[v] for v in s_mates(w) if v in mapping}
            if not tcell <= covered:
                back[name] = False
                counterexamples.append(("back", name, w, sorted(tcell - covered)[:2]))
            if not forth[name] and not back[name]:
                break

    for w in sorted(domain):
        fw = mapping[w]
        sw, pw = src.succ_of(w), src.pred_of(w)
        ts, tp = tgt.succ_of(fw), tgt.pred_of(fw)
        if sw is not None and ts is not None and mapping.get(sw) != ts:
            forth["succ"] = False
            counterexamples.append(("forth", "succ", w))
        if ts is not None and (sw is None or mapping.get(sw) != ts):
            back["succ"] = False
            counterexamples.append(("back", "succ", w))
        if pw is not None and tp is not None and mapping.get(pw) != tp:
            forth["pred"] = False
            counterexamples.append(("forth", "pred", w))
        if tp is not None and (pw is None or mapping.get(pw) != tp):
            back["pred"] = False
            counterexamples.append(("back", "pred", w))

    return MorphismReport(surjective, atom_harmony, forth, back, counterexamples)


# ---------------------------------------------------------------------------
# window evaluation and truth preservation

def window_eval(win, w, f, margin=0):
    """Evaluate ``f`` at window world ``w``.  Quantifier mates whose layer
    cannot absorb the remaining formula's temporal reach are skipped (they
    are redundant for windows over frame-valid bases).  Raises
    DepthExceedsWindow when the formula does not fit at ``w`` itself.
    """
    d = win._dense()
    mask, fitting, reach = _window_masks(win, d, f, margin)
    i = d.index[w]
    if not fitting >> i & 1:
        raise DepthExceedsWindow(
            f"reach {F.DepthProfile(*reach)} does not fit at layer {win.layer[w]} "
            f"(horizon {win.horizon}, margin {margin})")
    return bool(mask >> i & 1)


def _window_masks(win, d, f, margin):
    """(truth, fit, reach) of ``f`` on the window ``win`` with dense frame
    ``d``: the truth mask is read only at the worlds of the fit mask, those
    from which ``f``'s temporal reach stays ``margin`` layers inside the
    window."""
    bound = win.horizon - margin
    mask, reach = _truth_mask(win, f, bound, d)
    return mask, d.fit(reach, bound), reach


@dataclass
class TruthPreservationReport:
    compared: int = 0
    mismatches: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.mismatches

    def lines(self):
        out = [f"comparisons: {self.compared}",
               f"mismatches:  {len(self.mismatches)}",
               f"skipped formulas: {len(self.skipped)}"]
        for w, text, a, b in self.mismatches[:10]:
            out.append(f"  mismatch at {w}: {text} window={a} base={b}")
        return out


def truth_preservation(source, target, mapping, formulas, margin=0):
    """Compare window evaluation against base evaluation through the
    projection, over every window world where each formula's temporal reach
    fits; formulas that fit nowhere are recorded as skipped.
    """
    d = source._dense()
    report = TruthPreservationReport()
    for f in formulas:
        mask, fitting, _ = _window_masks(source, d, f, margin)
        if not fitting:
            report.skipped.append(F.to_text(f))
            continue
        g = F.expand_macros(f)
        memo = {}
        for i in _bits(fitting):
            w = d.names[i]
            got = bool(mask >> i & 1)
            _check_world(target, mapping[w])
            want = _eval(target, mapping[w], g, memo)
            report.compared += 1
            if got != want:
                report.mismatches.append((w, F.to_text(f), got, want))
    return report


# ---------------------------------------------------------------------------
# choice profiles

@dataclass
class ChoiceProfileTable:
    """Per settledness class: the choice profiles with non-empty
    intersection and, for each, its coalition cells with a padded
    deterministic enumeration of length n.
    """

    class_key: str
    n: int
    profiles: list            # list of tuples of frozensets, one cell per agent
    cells_by_profile: dict    # profile index -> sorted list of coalition cells
    enumeration: dict         # profile index -> padded list (length n)
    profile_of_world: dict

    def lines(self):
        out = [f"class of {self.class_key}: {len(self.profiles)} profile(s), n={self.n}"]
        for i, prof in enumerate(self.profiles):
            cells = [sorted(c) for c in self.cells_by_profile[i]]
            out.append(f"  profile {i}: cells per agent {[sorted(c) for c in prof]} -> coalition cells {cells}")
        return out


def choice_profiles(m, world, n=None):
    """Choice-profile table for the settledness class of ``world``; the
    coalition-cell enumeration is sorted by least world id and padded by
    repeating the last cell.
    """
    obj = m
    box = obj.box_cell(world)
    profiles = []
    prof_index = {}
    profile_of_world = {}
    for w in sorted(box):
        prof = tuple(obj.choice_cell(a, w) for a in obj.agents)
        if prof not in prof_index:
            prof_index[prof] = len(profiles)
            profiles.append(prof)
        profile_of_world[w] = prof_index[prof]
    cells_by_profile = {i: [] for i in range(len(profiles))}
    seen = set()
    for w in sorted(box):
        cell = obj.ags_cell(w)
        if min(cell) in seen:
            continue
        seen.add(min(cell))
        cells_by_profile[profile_of_world[w]].append(cell)
    for i in cells_by_profile:
        cells_by_profile[i].sort(key=min)
    if n is None:
        n = max((len(v) for v in cells_by_profile.values()), default=1)
    enumeration = {}
    for i, cells in cells_by_profile.items():
        padded = list(cells)
        while len(padded) < n:
            padded.append(padded[-1])
        enumeration[i] = padded[:n]
    return ChoiceProfileTable(min(box), n, profiles, cells_by_profile, enumeration, profile_of_world)


# ---------------------------------------------------------------------------
# actualization (matrix construction)

@dataclass(frozen=True)
class MatrixWorld:
    """World of the actualization: a choice profile, an index function over
    the temporal chain of the base world, and the base world itself.
    """

    profile: int
    index_fn: tuple  # sorted tuple of (chain world, vector)
    base: str

    @property
    def fn(self):
        return dict(self.index_fn)


class MatrixWindow:
    """Window-shaped structure whose relations are stored as neighbor maps
    (the matrix relations of a degenerate source need not stay
    equivalences, so partitions cannot be assumed).
    """

    def __init__(self, agents, worlds, layer, interior, horizon, root,
                 succ, pred, rel, valuation, matrix_worlds, tables):
        self.agents = tuple(agents)
        self.worlds = tuple(sorted(worlds))
        self.layer = dict(layer)
        self.interior = frozenset(interior)
        self.horizon = horizon
        self.root = root
        self.succ = dict(succ)
        self.pred = dict(pred)
        self.rel = rel  # family name -> {world: frozenset}
        self.valuation = {p: frozenset(ws) for p, ws in valuation.items()}
        self.matrix_worlds = matrix_worlds  # world id -> MatrixWorld
        self.tables = tables  # least world of a source class -> ChoiceProfileTable

    def _dense(self):
        """A dense frame of the window as it stands, built on each call from
        its neighbour maps."""
        return DenseFrame(self.worlds, self.agents,
                          [self.rel[name] for name in family_names(self.agents)],
                          self.succ, self.pred, self.valuation, self.interior, self.layer)

    def box_cell(self, w):
        return self.rel["box"][w]

    def choice_cell(self, agent, w):
        return self.rel[f"choice:{agent}"][w]

    def ags_cell(self, w):
        return self.rel["ags"][w]

    def epi_cell(self, agent, w):
        return self.rel[f"epi:{agent}"][w]

    def succ_of(self, w):
        return self.succ.get(w)

    def pred_of(self, w):
        return self.pred.get(w)

    def holds(self, prop, w):
        return w in self.valuation.get(prop, frozenset())


def _chain(win, w):
    """The temporal line through ``w`` inside the window: predecessors,
    ``w`` itself, successors."""
    back = []
    cur = win.pred_of(w)
    while cur is not None:
        back.append(cur)
        cur = win.pred_of(cur)
    fwd = []
    cur = win.succ_of(w)
    while cur is not None:
        fwd.append(cur)
        cur = win.succ_of(cur)
    return list(reversed(back)) + [w] + fwd


def actualize(source, n=None):
    """Matrix construction over a window with an irreflexive successor:
    worlds are (profile, index function, base world) triples; the output is
    additively actual (the coalition relation is exactly the intersection of
    the agent relations) and projects back onto the source.

    Returns (matrix window, projection to source worlds).
    """
    if not source.interior:
        raise WindowTooSmall("window has no interior")
    for w in source.interior:
        if source.succ_of(w) == w:
            raise SourceNotIrreflexive(f"succ({w}) = {w}")

    # global profile/coalition-cell tables (profiles never span classes)
    tables = {}
    for w in source.worlds:
        key = min(source.box_cell(w))
        if key not in tables:
            tables[key] = choice_profiles(source, w, n=n)
    if n is None:
        n = max(t.n for t in tables.values())
        tables = {}
        for w in source.worlds:
            key = min(source.box_cell(w))
            if key not in tables:
                tables[key] = choice_profiles(source, w, n=n)

    table_of = {w: tables[min(source.box_cell(w))] for w in source.worlds}

    def indices_of(v):
        t = table_of[v]
        cell = source.ags_cell(v)
        return [k for k, c in enumerate(t.enumeration[t.profile_of_world[v]]) if c == cell]

    agents = list(source.agents)
    vec_space = list(itertools.product(range(n), repeat=len(agents)))
    chains = {w: _chain(source, w) for w in source.worlds}

    matrix = []
    ids = {}
    for w in sorted(source.worlds):
        chain = chains[w]
        options = []
        for v in chain:
            ks = set(indices_of(v))
            options.append([vec for vec in vec_space if sum(vec) % n in ks])
        t = table_of[w]
        for count, combo in enumerate(itertools.product(*options)):
            wid = f"{w}#{count}"
            ids[wid] = MatrixWorld(t.profile_of_world[w], tuple(sorted(zip(chain, combo))), w)
            matrix.append(wid)

    by_base = {}
    for wid, mw in ids.items():
        by_base.setdefault(mw.base, []).append(wid)

    fns = {wid: mw.fn for wid, mw in ids.items()}

    def agreeing(b1, b2):
        """Matrix worlds over b1 and b2 are settledness-related when they
        carry equal vectors at each past world of either base and its
        coalition mates on the other's chain.  Returns the chain worlds of
        b1 to read and the worlds over b2 keyed by their vectors there."""
        on1, on2 = set(chains[b1]), set(chains[b2])
        pairs = []
        for v in chains[b1][:chains[b1].index(b1)]:
            pairs.extend((v, v2) for v2 in source.ags_cell(v) if v2 in on2)
        for v in chains[b2][:chains[b2].index(b2)]:
            pairs.extend((v2, v) for v2 in source.ags_cell(v) if v2 in on1)
        by_key = {}
        for wid2 in by_base.get(b2, ()):
            f2 = fns[wid2]
            by_key.setdefault(tuple(f2[y] for _, y in pairs), []).append(wid2)
        return [x for x, _ in pairs], by_key

    rel = {"box": {wid: set() for wid in matrix}, "ags": {wid: set() for wid in matrix}}
    for a in agents:
        rel[f"choice:{a}"] = {wid: set() for wid in matrix}
        # every matrix world over the base world's epistemic cell
        over = {b: frozenset(wid for b2 in source.epi_cell(a, b) for wid in by_base.get(b2, ()))
                for b in source.worlds}
        rel[f"epi:{a}"] = {wid: over[ids[wid].base] for wid in matrix}

    profile = {wid: table_of[mw.base].profiles[mw.profile] for wid, mw in ids.items()}
    vector = {wid: fns[wid][mw.base] for wid, mw in ids.items()}
    box_rel, ags_rel = rel["box"], rel["ags"]
    choice_rels = list(enumerate(rel[f"choice:{a}"] for a in agents))
    agreements = {}
    for wid1 in matrix:
        b1 = ids[wid1].base
        f1, prof1, vec1 = fns[wid1], profile[wid1], vector[wid1]
        for b2 in source.box_cell(b1):
            if (b1, b2) not in agreements:
                agreements[(b1, b2)] = agreeing(b1, b2)
            xs, by_key = agreements[(b1, b2)]
            for wid2 in by_key.get(tuple(f1[x] for x in xs), ()):
                box_rel[wid1].add(wid2)
                prof2, vec2 = profile[wid2], vector[wid2]
                for i, choice_rel in choice_rels:
                    if prof1[i] == prof2[i] and vec1[i] == vec2[i]:
                        choice_rel[wid1].add(wid2)
                if prof1 == prof2 and vec1 == vec2:
                    ags_rel[wid1].add(wid2)

    for fam in rel:
        rel[fam] = {w: frozenset(v) for w, v in rel[fam].items()}

    succ = {}
    pred = {}
    fn_key = {wid: ids[wid].index_fn for wid in matrix}
    lookup = {(ids[wid].base, fn_key[wid]): wid for wid in matrix}
    for wid in matrix:
        mw = ids[wid]
        s = source.succ_of(mw.base)
        if s is not None:
            succ[wid] = lookup[(s, mw.index_fn)]
        p = source.pred_of(mw.base)
        if p is not None:
            pred[wid] = lookup[(p, mw.index_fn)]

    layer = {wid: source.layer[ids[wid].base] for wid in matrix}
    interior = {wid for wid in matrix if ids[wid].base in source.interior}
    valuation = {p: {wid for wid in matrix if ids[wid].base in ws}
                 for p, ws in source.valuation.items()}
    root = min(by_base.get(source.root, matrix))

    out = MatrixWindow(agents, matrix, layer, interior, source.horizon, root,
                       succ, pred, rel, valuation, ids, tables)
    projection = {wid: ids[wid].base for wid in matrix}
    return out, projection
