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
A window, like a model, is a value: it builds its dense frame once and the
checks share it; a changed window is built anew through its constructor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType

from . import formula as F
from .checker import _check_world, _eval, _truth_mask
from .errors import (DepthExceedsWindow, HorizonTooSmall, InvalidBound, InvalidModel, MatrixTooLarge,
                     PartialMap, SourceNotIrreflexive, UnknownAgent, WindowTooLarge, WindowTooSmall)
from .model import Structure, _bits, _low, check_frame, family_names, validate_frame

MAX_MATRIX_WORLDS = 50_000  # default limit on an actualization, and unravel's; README says why


class WindowModel(Structure):
    """Kripke-shaped structure over a finite window: a neighbour map per
    relation family, a partial successor, per-world layers, and an
    interior/boundary split.  The families are stored as maps rather than
    partitions because the matrix relations of a degenerate source need not
    stay equivalences; a cell is the frozenset of a world's mates.  The
    maps are copied into read-only views, with frozenset cells and
    extensions.  An actualized window also carries its matrix worlds and
    profile tables, as read-only maps of frozen values.
    """

    def __init__(self, agents, worlds, layer, interior, horizon, root,
                 succ, pred, rel, valuation, matrix_worlds=None, tables=None):
        self.agents = tuple(agents)
        self.worlds = tuple(sorted(worlds))
        # the window fields, which Structure refuses to assign
        self.__dict__.update(layer=MappingProxyType(dict(layer)), interior=frozenset(interior),
                             horizon=horizon, root=root)
        self.succ = MappingProxyType(dict(succ))
        self.pred = MappingProxyType(dict(pred))
        self.rel = MappingProxyType({
            name: MappingProxyType({w: frozenset(c) for w, c in rel[name].items()})
            for name in family_names(self.agents)})
        self.valuation = MappingProxyType({p: frozenset(ws) for p, ws in valuation.items()})
        # world id -> MatrixWorld, and least world of a source class -> ChoiceProfileTable
        self.matrix_worlds = None if matrix_worlds is None else MappingProxyType(dict(matrix_worlds))
        self.tables = None if tables is None else MappingProxyType(dict(tables))

    def succ_of(self, w):
        return self.succ.get(w)

    def pred_of(self, w):
        return self.pred.get(w)

    def to_doc(self):
        return {**super().to_doc(), "kind": "window", "interior": sorted(self.interior),
                "layer": {w: self.layer[w] for w in self.worlds},
                "horizon": self.horizon, "root": self.root}


# ---------------------------------------------------------------------------
# unraveling

def unravel(m, root, horizon, require_valid=True):
    """Unravel ``m`` from ``root`` into a window of depth ``horizon``.

    World (w0, l), for l in [-horizon, horizon], is base world w0 followed by
    l successors, or by -l predecessors when l < 0; its layer is l, and it
    is named by the worlds it passes and a flag, 1 for l >= 0 and 0 below.
    Settledness and choice relate worlds of one layer that passed the same
    coalition cells at layers 0..l-1 and end in one cell; knowledge relates
    worlds that end in one epistemic cell.

    Returns (window, projection) where the projection maps every unraveled
    world to its last world.  The ids of a base world's 2h + 1 worlds, for
    h = ``horizon``, list h^2 + 3h + 1 world names in all; WindowTooLarge is
    raised, before any world is built, when a window's ids would list more
    than ``MAX_MATRIX_WORLDS`` names, which also bounds its world count.
    """
    if horizon < 1:
        raise HorizonTooSmall("horizon must be >= 1")
    names = len(m.worlds) * (horizon * horizon + 3 * horizon + 1)
    if names > MAX_MATRIX_WORLDS:
        raise WindowTooLarge(f"the window's ids would list {names} world names, "
                             f"over the limit of {MAX_MATRIX_WORLDS}")
    if root not in m.rel["box"]:
        raise InvalidModel(f"unknown root world {root!r}")
    if m.pred is None:
        raise InvalidModel("successor map is not invertible")
    if len(m.succ) < len(m.worlds) or len(m.pred) < len(m.worlds):
        raise InvalidModel("successor map is partial, as on a window; unravel a model")
    if require_valid:
        # no class meets more cells than there are worlds, so CARD holds
        report = validate_frame(m, "super_additive", len(m.worlds))
        if not report.ok:
            raise InvalidModel(
                f"model fails frame validation: {[c.condition for c in report.failed()]}")

    ags = m.rel["ags"]
    layer, projection, path, succ, pred = {}, {}, {}, {}, {}
    for w0 in m.worlds:
        ups, downs = [w0], [w0]
        for _ in range(horizon):
            ups.append(m.succ[ups[-1]])
            downs.append(m.pred[downs[-1]])
        # layers -horizon .. horizon, with the worlds they end in
        row = [*("|".join(downs[:k + 1]) + ";0" for k in range(horizon, 0, -1)),
               *("|".join(ups[:k + 1]) + ";1" for k in range(horizon + 1))]
        for lv, wid, last in zip(range(-horizon, horizon + 1), row, downs[:0:-1] + ups):
            layer[wid], projection[wid] = lv, last
            path[wid] = lv, tuple(map(ags.__getitem__, ups[:max(lv, 0)]))
        succ.update(zip(row, row[1:]))
        pred.update(zip(row[1:], row))

    def group(cells, by_path=True):
        """Map from each world to the worlds with the same path and last
        cell, or the same last cell alone."""
        out = {}
        for wid, last in projection.items():
            out.setdefault((path[wid], cells[last]) if by_path else cells[last], []).append(wid)
        return {wid: cell for cell in map(frozenset, out.values()) for wid in cell}

    rel = {name: group(m.rel[name], by_path=not name.startswith("epi:"))
           for name in family_names(m.agents)}
    valuation = {p: {wid for wid, last in projection.items() if last in ws}
                 for p, ws in m.valuation.items()}
    interior = {wid for wid, lv in layer.items() if abs(lv) < horizon}
    win = WindowModel(m.agents, projection, layer, interior, horizon, f"{root};1",
                      succ, pred, rel, valuation)
    return win, projection


# ---------------------------------------------------------------------------
# relativized frame validation

def validate_window(win, mode="actual", n=1):
    """``validate_frame`` of a window: universals range over its interior,
    witnesses over the whole window (``model.check_frame``)."""
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


def _reach(d, start):
    """Mask of the worlds of the dense frame ``d`` reachable from world
    index ``start`` along any family's cells and the successor and
    predecessor steps."""
    families = list(d.cells.values())
    seen = frontier = 1 << start
    while frontier:
        nxt = 0
        for i in _bits(frontier):
            for cells in families:
                nxt |= cells[i]
            for step in (d.succ[i], d.pred[i]):
                if step is not None:
                    nxt |= 1 << step
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def check_bounded_morphism(mapping, source, target):
    """Verify that ``mapping`` is a surjective bounded morphism from
    ``source`` onto (the reachable part of) ``target``: atom harmony, and
    forth/back conditions for each relation family, with universal
    quantifiers relativized to the source interior.

    Both sides are read as dense frames; a family that is a partition on
    the source passes in bulk when each interior row's cell image is the
    target cell at its image.  Each failed condition gives one
    counterexample, its first violation in world order, found by a walk
    over the interior rows.
    """
    unknown = sorted(set(source.agents) - set(target.agents))
    if unknown:
        raise UnknownAgent(f"agents {unknown} of the source are not agents of the target")
    s, t = source._dense(), target._dense()
    domain, inner = s.interior, s.inner
    missing = [s.names[i] for i in inner if s.names[i] not in mapping]
    if missing:
        raise PartialMap(f"mapping undefined on {missing[:4]}")
    img = [None] * len(s.names)  # target index of each mapped source world
    for i, w in enumerate(s.names):
        if w in mapping:
            img[i] = t.index.get(mapping[w])
            if img[i] is None:
                raise PartialMap(f"mapping sends {w!r} to {mapping[w]!r}, not a world of the target")

    counterexamples = []
    root = s.index.get(source.root)
    if root is None or img[root] is None:
        if not domain:
            raise WindowTooSmall("window has no interior")
        root = _low(domain)
    # a sum of distinct bits is their union, so images are summed as a set
    bit = [0 if j is None else 1 << j for j in img]
    unreached = _reach(t, img[root]) & ~sum(set(bit))
    surjective = not unreached
    if not surjective:
        counterexamples.append(("surjectivity",
                                [t.names[j] for j in itertools.islice(_bits(unreached), 4)]))

    first_atom = None  # (source index, atom) of the first atom disagreement
    for p in sorted(s.atoms.keys() | t.atoms.keys()):
        at = t.atoms.get(p, 0)
        pulled = sum(1 << i for i in inner if at >> img[i] & 1)
        diff = (s.atoms.get(p, 0) ^ pulled) & domain
        if diff and (first_atom is None or _low(diff) < first_atom[0]):
            first_atom = _low(diff), p
    atom_harmony = first_atom is None
    if not atom_harmony:
        counterexamples.append(("atom", s.names[first_atom[0]], first_atom[1]))

    forth, back = {}, {}
    for name in family_names(s.agents):
        scells, tcells = s.cells[name], t.cells[name]
        images = {}  # source cell -> mask of its mapped members' images
        if name in s.partitions:  # in bulk: a cell's members are the worlds that hold it
            for cell, b in zip(scells, bit):
                images[cell] = images.get(cell, 0) | b
            if [images[scells[w]] for w in inner] == [tcells[img[w]] for w in inner]:
                forth[name] = back[name] = True
                continue
        bad_forth = bad_back = None
        for w in inner:
            cell, tcell = scells[w], tcells[img[w]]
            image = images.get(cell)
            if image is None:
                image = images[cell] = sum({bit[v] for v in _bits(cell)})
            if bad_forth is None and image & ~tcell:
                v = next(v for v in _bits(cell) if img[v] is not None and not tcell >> img[v] & 1)
                bad_forth = ("forth", name, s.names[w], s.names[v])
            if bad_back is None and tcell & ~image:
                missed = itertools.islice(_bits(tcell & ~image), 2)
                bad_back = ("back", name, s.names[w], [t.names[j] for j in missed])
            if bad_forth and bad_back:
                break
        forth[name], back[name] = bad_forth is None, bad_back is None
        counterexamples.extend(c for c in (bad_forth, bad_back) if c)

    for name, ssteps, tsteps in (("succ", s.succ, t.succ), ("pred", s.pred, t.pred)):
        bad_forth = bad_back = None
        for w in inner:
            sw, tw = ssteps[w], tsteps[img[w]]
            if tw is not None and (sw is None or img[sw] != tw):
                if bad_back is None:
                    bad_back = ("back", name, s.names[w])
                if sw is not None and bad_forth is None:
                    bad_forth = ("forth", name, s.names[w])
                if bad_forth and bad_back:
                    break
        forth[name], back[name] = bad_forth is None, bad_back is None
        counterexamples.extend(c for c in (bad_forth, bad_back) if c)

    return MorphismReport(surjective, atom_harmony, forth, back, counterexamples)


# ---------------------------------------------------------------------------
# window evaluation and truth preservation

def window_eval(win, w, f, margin=0):
    """Evaluate ``f`` at window world ``w``.  Quantifier mates whose layer
    cannot absorb the remaining formula's temporal reach are skipped (they
    are redundant for windows over frame-valid bases).  Raises
    DepthExceedsWindow when the formula does not fit at ``w`` itself, and
    UnknownWorld when ``w`` is not a world of the window.
    """
    _check_world(win, w)
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
    if win.layer is None:
        raise InvalidModel("window evaluation needs a window; this structure has no layers")
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


def truth_preservation(source, target, mapping, formulas, margin=0):
    """Compare window evaluation against base evaluation through the
    projection, over every window world where each formula's temporal reach
    fits; formulas that fit nowhere are recorded as skipped.

    Each formula is evaluated once at each base world onto which a fitting
    window world maps, and that truth is read back at all those window
    worlds; only the disagreeing worlds are walked.  PartialMap names the
    first fitting window world, in world order, that ``mapping`` misses.
    """
    d = source._dense()
    report = TruthPreservationReport()
    pulled, seen = {}, 0  # base world -> mask of the window worlds read that map to it
    for f in formulas:
        mask, fitting, _ = _window_masks(source, d, f, margin)
        if not fitting:
            report.skipped.append(F.to_text(f))
            continue
        for i in _bits(fitting & ~seen):
            w = d.names[i]
            if w not in mapping:
                raise PartialMap(f"mapping undefined on {w!r}")
            if mapping[w] not in pulled:
                _check_world(target, mapping[w])
                pulled[mapping[w]] = 0
            pulled[mapping[w]] |= 1 << i
        seen |= fitting
        memo, want = {}, 0
        for b, worlds in pulled.items():
            if worlds & fitting and _eval(target, b, f, memo):
                want |= worlds
        report.compared += fitting.bit_count()
        report.mismatches.extend((d.names[i], F.to_text(f), bool(mask >> i & 1), not mask >> i & 1)
                                 for i in _bits((mask ^ want) & fitting))
    return report


# ---------------------------------------------------------------------------
# choice profiles

@dataclass(frozen=True)
class ChoiceProfileTable:
    """Per settledness class: the choice profiles with non-empty
    intersection and, for each, its coalition cells with a padded
    deterministic enumeration of length n: a value of tuples and read-only maps.
    """

    n: int
    profiles: tuple           # tuples of frozensets, one cell per agent
    cells_by_profile: dict    # profile index -> sorted tuple of coalition cells
    enumeration: dict         # profile index -> padded tuple (length n)
    profile_of_world: dict


def choice_profiles(m, world, n=None):
    """Choice-profile table for the settledness class of ``world``; the
    coalition-cell enumeration is sorted by least world id and padded by
    repeating the last cell.
    """
    box = sorted(m.box_cell(world))
    prof_index = {}  # profile -> its index, in order of its least holder
    profile_of_world = {w: prof_index.setdefault(tuple(m.choice_cell(a, w) for a in m.agents),
                                                 len(prof_index)) for w in box}
    profiles = tuple(prof_index)
    found = {i: [] for i in range(len(profiles))}
    seen = set()
    for w in box:
        cell = m.ags_cell(w)
        if min(cell) not in seen:
            seen.add(min(cell))
            found[profile_of_world[w]].append(cell)
    cells_by_profile = {i: tuple(sorted(cells, key=min)) for i, cells in found.items()}
    if n is None:
        n = max((len(v) for v in cells_by_profile.values()), default=1)
    enumeration = {i: (cells + (cells[-1],) * n)[:n] for i, cells in cells_by_profile.items()}
    return ChoiceProfileTable(n, profiles, MappingProxyType(cells_by_profile),
                              MappingProxyType(enumeration), MappingProxyType(profile_of_world))


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


def _chain(win, w):
    """The temporal line through ``w`` inside the window: predecessors,
    ``w`` itself, successors."""
    back, fwd = [w], [w]
    for line, step in ((back, win.pred_of), (fwd, win.succ_of)):
        while (nxt := step(line[-1])) is not None:
            line.append(nxt)
    return back[:0:-1] + fwd


def actualize(source, n=None, max_worlds=MAX_MATRIX_WORLDS):
    """Matrix construction over a window with an irreflexive successor:
    worlds are (profile, index function, base world) triples; the output is
    additively actual (the coalition relation is exactly the intersection of
    the agent relations) and projects back onto the source.  Worlds with
    equal cells in a family share one frozenset.

    Returns (matrix window, projection to source worlds).  Raises
    MatrixTooLarge, before building any world, option vector or padded
    enumeration, when the matrix would have more than ``max_worlds`` worlds.
    """
    if n is not None and n < 1:
        raise InvalidBound("n must be positive")
    if not source.interior:
        raise WindowTooSmall("window has no interior")
    for w in source.interior:
        if source.succ_of(w) == w:
            raise SourceNotIrreflexive(f"succ({w}) = {w}")

    # global profile/coalition-cell tables (profiles never span classes)
    reps = {}  # least world of a class -> its first world
    for w in source.worlds:
        reps.setdefault(min(source.box_cell(w)), w)
    tables = {key: choice_profiles(source, w) for key, w in reps.items()}  # unpadded
    if n is None:
        n = max(t.n for t in tables.values())
    table_of = {w: tables[min(source.box_cell(w))] for w in source.worlds}
    agents = list(source.agents)
    # count before building any padded enumeration or vector: a world's
    # coalition cell has these indices in its enumeration padded to n (the
    # last cell repeats, cells from index n on are cut off), and
    # n ** (agents - 1) vectors sum to each residue mod n
    ks = {}
    for v in source.worlds:
        cells = table_of[v].cells_by_profile[table_of[v].profile_of_world[v]]
        i = cells.index(source.ags_cell(v))
        ks[v] = range(i, n if i == len(cells) - 1 else min(i + 1, n))
    chains = {w: _chain(source, w) for w in source.worlds}
    size = sum(math.prod(len(ks[v]) * n ** (len(agents) - 1) for v in chains[w]) for w in source.worlds)
    if size > max_worlds:
        raise MatrixTooLarge(size, max_worlds)
    vec_space = list(itertools.product(range(n), repeat=len(agents)))
    # world -> the vectors whose sum mod n indexes its coalition cell
    options = {v: [vec for vec in vec_space if sum(vec) % n in ks[v]] for v in source.worlds}

    ids = {}  # world id -> MatrixWorld
    by_base = {}
    for w in source.worlds:
        chain = chains[w]
        for count, combo in enumerate(itertools.product(*(options[v] for v in chain))):
            wid = f"{w}#{count}"
            ids[wid] = MatrixWorld(table_of[w].profile_of_world[w], tuple(sorted(zip(chain, combo))), w)
            by_base.setdefault(w, []).append(wid)

    fns = {wid: dict(mw.index_fn) for wid, mw in ids.items()}
    families = ["box", *(f"choice:{a}" for a in agents), "ags"]
    tags = {}  # world -> its tag per family: mates in a family carry equal tags
    for wid, mw in ids.items():
        prof, vec = table_of[mw.base].profiles[mw.profile], fns[wid][mw.base]
        tags[wid] = ((), *zip(prof, vec), (prof, vec))

    def agreeing(b1, b2):
        """Matrix worlds over b1 and b2 are settledness-related when they
        carry equal vectors at each past world of either base and its
        coalition mates on the other's chain.  Returns the chain worlds of
        b1 to read and the worlds over b2 bucketed by (family, their
        vectors there, tag)."""
        on1, on2 = set(chains[b1]), set(chains[b2])
        pairs = []
        for v in chains[b1][:chains[b1].index(b1)]:
            pairs.extend((v, v2) for v2 in source.ags_cell(v) if v2 in on2)
        for v in chains[b2][:chains[b2].index(b2)]:
            pairs.extend((v2, v) for v2 in source.ags_cell(v) if v2 in on1)
        buckets = {}
        for wid2 in by_base.get(b2, ()):
            key = tuple(fns[wid2][y] for _, y in pairs)
            for fam, tag in enumerate(tags[wid2]):
                buckets.setdefault((fam, key, tag), []).append(wid2)
        return [x for x, _ in pairs], buckets

    shared = {}  # cell value -> the one frozenset that holds it

    def intern(cell):
        return shared.setdefault(cell, cell)

    rel = {name: {} for name in families}
    for a in agents:
        # every matrix world over the base world's epistemic cell
        over = {b: intern(frozenset(wid for b2 in source.epi_cell(a, b) for wid in by_base.get(b2, ())))
                for b in source.worlds}
        rel[f"epi:{a}"] = {wid: over[mw.base] for wid, mw in ids.items()}

    # a world's cell in a family is the union of its buckets over the box
    # mates of its base, so it depends only on the base, the vectors read
    # and the tag
    agreements = {b1: [agreeing(b1, b2) for b2 in source.box_cell(b1)] for b1 in by_base}
    cells = {}
    for wid1, mw in ids.items():
        b1 = mw.base
        keys = tuple(tuple(fns[wid1][x] for x in xs) for xs, _ in agreements[b1])
        for fam, tag in enumerate(tags[wid1]):
            sig = (b1, keys, fam, tag)
            if sig not in cells:
                cells[sig] = intern(frozenset().union(
                    *(buckets.get((fam, key, tag), ()) for (_, buckets), key in zip(agreements[b1], keys))))
            rel[families[fam]][wid1] = cells[sig]

    lookup = {(mw.base, mw.index_fn): wid for wid, mw in ids.items()}

    def steps(step_of):
        """The matrix step along the base step ``step_of``: same index function."""
        return {wid: lookup[step_of(mw.base), mw.index_fn] for wid, mw in ids.items()
                if step_of(mw.base) is not None}

    projection = {wid: mw.base for wid, mw in ids.items()}
    layer = {wid: source.layer[b] for wid, b in projection.items()}
    interior = {wid for wid, b in projection.items() if b in source.interior}
    valuation = {p: {wid for wid, b in projection.items() if b in ws}
                 for p, ws in source.valuation.items()}
    root = min(by_base.get(source.root, ids))

    out = WindowModel(agents, ids, layer, interior, source.horizon, root,
                      steps(source.succ_of), steps(source.pred_of), rel, valuation, ids,
                      {key: choice_profiles(source, w, n=n) for key, w in reps.items()})
    return out, projection
