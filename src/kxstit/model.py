"""Finite Kripke structures for the epistemic Xstit language: data model,
file format, and frame-condition validation.

A model stores five relation families.  The settledness, choice, and
epistemic relations are equivalence relations and are stored as partitions of
the world set; the temporal relation is a total successor map whose inverse
(when it exists) serves as the last-moment relation.

Composition convention for the relational frame conditions: ``w (S.T) v``
holds iff there is ``u`` with ``w T u`` and ``u S v`` (the right relation is
applied first).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from operator import and_, eq, invert, itemgetter, ne, or_
from collections import Counter
from itertools import chain, product
from math import prod

from .errors import PartitionError, SchemaError, SuccNotTotal

FORMAT_VERSION = 1

CONDITIONS = (
    "ADDITIVITY",
    "CARD",
    "EQ",
    "IA",
    "INVERSE",
    "NA",
    "NAGS",
    "NOF",
    "NX",
    "SET",
    "UNIF_H",
)


def is_partition(cells, universe):
    """Whether the frozensets ``cells`` are non-empty, pairwise disjoint and
    cover ``universe`` exactly: sizes that sum to ``len(universe)`` and a
    union equal to it leave no room for an overlap."""
    return (all(cells) and sum(map(len, cells)) == len(universe)
            and frozenset().union(*cells) == universe)


def by_id(x):
    """Sort key ordering document ids of any JSON scalar type: by type
    name, then by value, so that ids of mixed types can be listed."""
    return type(x).__name__, x


def make_partition(cells, universe, what):
    """Normalize and check a partition: non-empty pairwise-disjoint cells
    covering ``universe`` exactly, sorted by least world.

    A partition is accepted in one bulk test; the cell-by-cell walk runs only
    to name the first faulty cell.
    """
    try:
        norm = [frozenset(c) for c in cells]
    except TypeError:
        raise SchemaError(f"{what}: cells must hold ids, not lists or objects") from None
    if is_partition(norm, universe):
        return tuple(sorted(norm, key=min))
    seen = set()
    for fs in norm:
        if not fs:
            raise PartitionError(f"{what}: empty cell")
        bad = fs - universe
        if bad:
            raise SchemaError(f"{what}: unknown world(s) {sorted(bad, key=by_id)}")
        if fs & seen:
            raise PartitionError(f"{what}: overlapping cells at {sorted(fs & seen)}")
        seen |= fs
    raise PartitionError(f"{what}: worlds not covered: {sorted(universe - seen)}")


class Structure:
    """Worlds and one relation store: ``rel`` maps each family name (as in
    ``family_names``) to {world: its cell}, the frozenset of its mates.
    Models and windows answer the cell lookups from it alike; per-agent maps
    of the choice and knowledge families let a lookup skip building the
    family name.
    """

    def _keep(self, relations):
        """Store ``relations``, one map per family in ``family_names`` order."""
        k = len(self.agents)
        self.rel = dict(zip(family_names(self.agents), relations))
        self._choice_rel = dict(zip(self.agents, relations[2:2 + k]))
        self._epi_rel = dict(zip(self.agents, relations[2 + k:]))

    def box_cell(self, w):
        return self.rel["box"][w]

    def choice_cell(self, agent, w):
        return self._choice_rel[agent][w]

    def ags_cell(self, w):
        return self.rel["ags"][w]

    def epi_cell(self, agent, w):
        return self._epi_rel[agent][w]

    def holds(self, prop, w):
        return w in self.valuation.get(prop, frozenset())

    def to_doc(self):
        def cells(name):
            return sorted((sorted(c) for c in set(self.rel[name].values())), key=lambda c: c[0])

        return {
            "format_version": FORMAT_VERSION,
            "agents": sorted(self.agents),
            "worlds": list(self.worlds),
            "succ": {w: self.succ[w] for w in sorted(self.succ)},
            "r_box": cells("box"),
            "choice": {a: cells(f"choice:{a}") for a in sorted(self.agents)},
            "choice_ags": cells("ags"),
            "epistemic": {a: cells(f"epi:{a}") for a in sorted(self.agents)},
            "valuation": {p: sorted(ws) for p, ws in sorted(self.valuation.items())},
        }


def _checked_valuation(valuation, universe):
    """The valuation with frozenset extensions; SchemaError for a world
    outside ``universe``."""
    out = {}
    for prop, ws in (valuation or {}).items():
        ws = frozenset(ws)
        bad = ws - universe
        if bad:
            raise SchemaError(f"valuation[{prop}]: unknown worlds {sorted(bad, key=by_id)}")
        out[prop] = ws
    return out


def _cells_of(partition):
    return {w: cell for cell in partition for w in cell}


class KripkeModel(Structure):
    """Finite Kripke-exstit structure.

    Structural well-formedness (partitions cover, successor total) is enforced
    at construction; frame validity is a separate concern checked by
    ``validate_frame``.
    """

    def __init__(self, agents, worlds, r_box, succ, choice, epistemic,
                 choice_ags=None, valuation=None):
        self.agents = tuple(agents)
        if len(set(self.agents)) != len(self.agents) or not self.agents:
            raise SchemaError("agents must be a non-empty list of distinct names")
        # ids must be strings: they are sorted here, and window validation
        # reads the least id of a set as the lowest bit of its mask
        worlds = tuple(worlds)
        odd = next((w for w in worlds if not isinstance(w, str)), None)
        if odd is not None:
            raise SchemaError(f"world ids must be strings, got {odd!r}")
        self.worlds = tuple(sorted(worlds))
        if len(set(self.worlds)) != len(self.worlds) or not self.worlds:
            raise SchemaError("worlds must be a non-empty list of distinct ids")
        universe = frozenset(self.worlds)

        self.r_box = make_partition(r_box, universe, "r_box")

        self.succ = dict(succ)
        missing = universe - set(self.succ)
        if missing:
            raise SuccNotTotal(f"succ missing for {sorted(missing)}")
        if len(self.succ) != len(universe) or not universe.issuperset(self.succ.values()):
            bad = {w: v for w, v in self.succ.items() if v not in universe or w not in universe}
            raise SchemaError(f"succ references unknown worlds: {bad}")
        # pred is defined only when succ is a bijection; validation reports
        # the failure, evaluation of Y requires invertibility
        self.pred = None
        if len(set(self.succ.values())) == len(self.worlds):
            self.pred = dict(zip(self.succ.values(), self.succ))

        self.choice = {}
        for a in self.agents:
            if a not in choice:
                raise SchemaError(f"choice partition missing for agent {a}")
            self.choice[a] = make_partition(choice[a], universe, f"choice[{a}]")

        self.epistemic = {}
        for a in self.agents:
            if a not in epistemic:
                raise SchemaError(f"epistemic partition missing for agent {a}")
            self.epistemic[a] = make_partition(epistemic[a], universe, f"epistemic[{a}]")

        box = _cells_of(self.r_box)
        choices = [_cells_of(self.choice[a]) for a in self.agents]
        if choice_ags is None:
            self.choice_ags = self._refine_choice_ags([box, *choices])
        else:
            self.choice_ags = make_partition(choice_ags, universe, "choice_ags")
        self._keep([box, _cells_of(self.choice_ags), *choices,
                    *(_cells_of(self.epistemic[a]) for a in self.agents)])

        self.valuation = _checked_valuation(valuation, universe)
        self._frame_reports = {}
        self._common_cells = None
        self._frame = None

    def _refine_choice_ags(self, families):
        """Common refinement of the per-agent partitions restricted to each
        settledness class (the default grand-coalition partition), from the
        box and choice cell maps ``families``.
        """
        keys = zip(*(map(cells.__getitem__, self.worlds) for cells in families))
        cells = {}
        for w, key in zip(self.worlds, keys):
            cells.setdefault(key, []).append(w)
        # worlds are sorted, so cells come in order of their least world
        return tuple(map(frozenset, cells.values()))

    def common_cell(self, w):
        """Cell of w under the reflexive-transitive closure of the union of
        all agents' epistemic relations (common-knowledge reachability).
        """
        if self._common_cells is None:
            self._common_cells = {}
            for start in self.worlds:
                if start in self._common_cells:
                    continue
                group, todo = {start}, [start]
                while todo:
                    x = todo.pop()
                    for cells in self._epi_rel.values():
                        todo.extend(cells[x] - group)
                        group |= cells[x]
                cell = frozenset(group)
                self._common_cells.update(dict.fromkeys(cell, cell))
        return self._common_cells[w]

    def _dense(self):
        """The model's dense frame, built on first use."""
        if self._frame is None:
            partitions = [self.r_box, self.choice_ags, *(self.choice[a] for a in self.agents),
                          *(self.epistemic[a] for a in self.agents)]
            self._frame = DenseFrame(self.worlds, self.agents, partitions, self.succ,
                                      self.pred or {}, self.valuation)
        return self._frame

    def with_valuation(self, valuation):
        """Copy of this model with a replaced valuation.  The copy shares
        this model's checked partitions, cell maps and successor maps, and
        checks only the new valuation; it builds its own dense frame and
        frame reports on first use."""
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__)
        copy.valuation = _checked_valuation(valuation, frozenset(self.worlds))
        copy._frame_reports = {}
        copy._frame = None
        return copy

    def dumps(self):
        return json.dumps(self.to_doc(), indent=2, sort_keys=True) + "\n"


def family_names(agents):
    """Names of the four relation families in check order: settledness,
    coalition choice, then choice and knowledge per agent."""
    return _family_names(tuple(agents))


@cache  # every model and dense frame names its families: build them once per agent tuple
def _family_names(agents):
    return "box", "ags", *(f"choice:{a}" for a in agents), *(f"epi:{a}" for a in agents)


class DenseFrame:
    """A frame over world indices: world i is ``names[i]``.  The names are
    sorted, so the least world of a set is the lowest bit of its mask.

    Per family, named as in ``family_names``, ``cells[name][i]`` is the mask
    of world i's mates and ``pairs[name]`` lists each distinct cell with the
    mask of the worlds that hold it (the same mask, for a partition);
    ``box``, ``ags``, ``choice[a]`` and ``epi[a]`` are the ``cells`` lists,
    and ``choice_pairs[a]`` and ``epi_pairs[a]`` the ``pairs`` lists.
    ``atoms`` maps a proposition to its mask; ``succ`` and ``pred`` list
    successor and predecessor indices, None where the map is partial or not
    invertible.  A window has a mask per layer in ``layers`` and an
    interior; a model has no layers, and its interior is every world.
    ``inner`` lists the interior indices in order.  ``partitioned`` says
    that every family is a partition; a ``plain`` frame is also all
    interior, as a model is.
    """

    __slots__ = ("names", "index", "agents", "full", "interior", "inner", "layers", "cells",
                 "pairs", "box", "ags", "choice", "epi", "choice_pairs", "epi_pairs", "atoms",
                 "succ", "pred", "partitioned")

    def __init__(self, names, agents, relations, succ, pred, valuation,
                 interior=None, layer=None):
        """``relations`` holds one relation per family in ``family_names``
        order: a model gives its partitions, a window maps each world to its
        mates.  ``succ`` and ``pred`` map world ids, ``layer`` maps a world
        to its layer."""
        self.names = names
        self.agents = agents
        index = self.index = dict(zip(names, range(len(names))))
        self.full = (1 << len(names)) - 1
        self.interior = self.full if interior is None else self.mask(interior)
        self.inner = range(len(names)) if interior is None else list(_bits(self.interior))
        self.layers = {}
        for w, lv in (layer or {}).items():
            self.layers[lv] = self.layers.get(lv, 0) | 1 << index[w]
        self.cells, self.pairs = {}, {}
        for name, rel in zip(family_names(agents), relations):
            self.cells[name], self.pairs[name] = (
                self._neighbours(rel) if isinstance(rel, dict) else self._partition(rel))
        # a window's family is a partition when each cell is held by its members
        self.partitioned = not isinstance(relations[0], dict) or all(
            c == h for pairs in self.pairs.values() for c, h in pairs)
        self.box, self.ags = self.cells["box"], self.cells["ags"]
        self.choice = {a: self.cells[f"choice:{a}"] for a in agents}
        self.epi = {a: self.cells[f"epi:{a}"] for a in agents}
        self.choice_pairs = {a: self.pairs[f"choice:{a}"] for a in agents}
        self.epi_pairs = {a: self.pairs[f"epi:{a}"] for a in agents}
        self.atoms = {p: self.mask(ws) for p, ws in valuation.items()}
        self.succ = [index.get(succ.get(w)) for w in names]
        self.pred = [index.get(pred.get(w)) for w in names]

    @property
    def plain(self):
        return self.partitioned and self.interior == self.full

    def mask(self, ws):
        index = self.index
        out = 0
        for w in ws:
            out |= 1 << index[w]
        return out

    def _partition(self, partition):
        index, cells, pairs = self.index, [0] * len(self.names), []
        for cell in partition:
            cm = 0
            for w in cell:
                cm |= 1 << index[w]
            for w in cell:
                cells[index[w]] = cm
            pairs.append((cm, cm))
        return cells, pairs

    def _neighbours(self, mates):
        masks, holders, cells = {}, {}, []
        for i, w in enumerate(self.names):
            cm = masks.get(mates[w])
            if cm is None:
                cm = masks[mates[w]] = self.mask(mates[w])
            cells.append(cm)
            holders[cm] = holders.get(cm, 0) | 1 << i
        return cells, list(holders.items())

    def fit(self, reach, bound):
        """Mask of the worlds from which a formula of temporal ``reach``
        (forward, backward) stays within the layers [-bound, bound]."""
        fwd, bwd = reach
        return sum(m for lv, m in self.layers.items() if bwd - bound <= lv <= bound - fwd)


def read_document(document):
    """A document given as JSON text, parsed; an already-parsed one as it is."""
    if not isinstance(document, str):
        return document
    try:
        return json.loads(document)
    except json.JSONDecodeError as e:
        raise SchemaError(f"not valid JSON: {e}") from None


# JSON shapes of document fields, checked per field and per cell.  An id
# inside a cell is checked where the cell becomes a frozenset, and one that
# is not a string is reported where it is used, as an unknown world say.
_SCALARS = frozenset({str, int, float, bool, type(None)})
_LIST = frozenset({list})


def id_list(x):
    return type(x) is list and _SCALARS.issuperset(map(type, x))


def id_map(x):
    return type(x) is dict and _SCALARS.issuperset(map(type, x.values()))


def cell_list(x):
    return type(x) is list and _LIST.issuperset(map(type, x))


def cell_map(x):
    """An object whose values are lists of cells."""
    return (type(x) is dict and _LIST.issuperset(map(type, x.values()))
            and _LIST.issuperset(map(type, chain.from_iterable(x.values()))))


def table_of(test):
    return lambda x: type(x) is dict and all(map(test, x.values()))


def optional(test):
    return lambda x: x is None or test(x)


def check_fields(doc, shapes):
    """Raise SchemaError for the first field of ``doc`` that ``shapes`` names
    and whose value does not have its shape; ``shapes`` maps a field to a
    (test, description) pair."""
    for key, (test, shape) in shapes.items():
        if key in doc and not test(doc[key]):
            raise SchemaError(f"{key} must be {shape}")


_MODEL_SHAPES = {
    "agents": (id_list, "a list of names"),
    "worlds": (lambda x: type(x) is list, "a list of world ids"),
    "r_box": (cell_list, "a list of lists of world ids"),
    "succ": (id_map, "an object mapping each world to a world id"),
    "choice": (cell_map, "an object mapping each agent to a list of lists of world ids"),
    "epistemic": (cell_map, "an object mapping each agent to a list of lists of world ids"),
    "choice_ags": (optional(cell_list), "a list of lists of world ids"),
    "valuation": (optional(table_of(id_list)), "an object mapping each atom to a list of world ids"),
}


def load_model(document):
    """Load a model from JSON text or an already-parsed document."""
    doc = read_document(document)
    if not isinstance(doc, dict):
        raise SchemaError("model document must be an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise SchemaError(f"unsupported format_version {version!r}")
    for key in ("agents", "worlds", "r_box", "succ", "choice", "epistemic"):
        if key not in doc:
            raise SchemaError(f"missing field {key!r}")
    check_fields(doc, _MODEL_SHAPES)
    return KripkeModel(
        doc["agents"], doc["worlds"], doc["r_box"], doc["succ"],
        doc["choice"], doc["epistemic"], doc.get("choice_ags"),
        doc.get("valuation", {}),
    )


# ---------------------------------------------------------------------------
# frame validation

@dataclass
class FrameCheck:
    condition: str
    passed: bool
    witness: list = field(default_factory=list)
    explanation: str = ""


@dataclass
class FrameReport:
    mode: str
    n_bound: int
    checks: list

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.passed]

    def lines(self):
        out = [f"frame validation: mode={self.mode} n={self.n_bound}"]
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            extra = "" if c.passed else f"  witness={c.witness} {c.explanation}"
            out.append(f"  {c.condition:<10} {mark}{extra}")
        return out


def validate_frame(m, mode="actual", n=1):
    """Check every frame condition and report one verdict per condition.

    Failures are report entries with concrete witness worlds, never errors.
    Results are cached on the model per (mode, n).
    """
    key = (mode, n)
    report = m._frame_reports.get(key)
    if report is None:
        report = m._frame_reports[key] = check_frame(m._dense(), mode, n)
    return report


def check_frame(d, mode, n):
    """The frame report of the dense frame ``d``: universal quantifiers range
    over its interior, existential witnesses over all its worlds.  Each
    failed condition's witness is its first violation in world order."""
    if mode not in ("actual", "super_additive"):
        raise ValueError(f"mode must be actual or super_additive, got {mode!r}")
    if n < 1:
        raise ValueError("n must be positive")
    checks = {c: FrameCheck(c, True) for c in CONDITIONS}
    for check in _CHECKS:
        for cond, witness, explanation in check(d, mode, n):
            checks[cond] = FrameCheck(cond, False, [d.names[i] for i in witness], explanation)
    return FrameReport(mode, n, [checks[c] for c in CONDITIONS])


def _bits(mask):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _low(mask):
    return (mask & -mask).bit_length() - 1


# Each check yields (condition, witness indices, explanation) for the first
# violation of each of its conditions in world order, then stops looking
# for that condition.

def _check_eq(d, mode, n):
    inner = d.interior
    for name, pairs in () if d.partitioned else d.pairs.items():
        cells = d.cells[name]
        # a family whose every distinct cell is held by exactly its own
        # members is a partition; the walk below only names the first fault
        if all(cell == hold for cell, hold in pairs):
            continue
        holders = dict(pairs)
        for u in d.inner:
            cell = cells[u]
            if not cell >> u & 1:
                yield "EQ", [u], f"{name} not reflexive"
                return
            # mates holding this same cell cannot break symmetry or transitivity
            for v in _bits(cell & inner & ~holders[cell]):
                if not cells[v] >> u & 1:
                    yield "EQ", [u, v], f"{name} not symmetric"
                    return
                extra = cells[v] & inner & ~cell
                if extra:
                    yield "EQ", [u, v, _low(extra)], f"{name} not transitive"
                    return
    targets = {}
    for u in d.inner:
        s = d.succ[u]
        if s is None:
            yield "EQ", [u], "succ undefined on an interior world"
            return
        # a window's successor leaves the layer; a model's may loop
        if s == u and d.layers:
            yield "EQ", [u], "succ reflexive on the interior"
            return
        if s in targets:
            yield "EQ", [targets[s], u], "succ not injective"
            return
        targets[s] = u


def _check_inverse(d, mode, n):
    for u in d.inner:
        s, p = d.succ[u], d.pred[u]
        if s is not None and d.pred[s] != u:
            yield "INVERSE", [u], "pred(succ) is not identity"
            return
        if p is not None and d.succ[p] != u:
            yield "INVERSE", [u], "succ(pred) is not identity"
            return


def _check_set(d, mode, n):
    # the union of each world's choice and coalition cells must lie in its
    # class; in bulk over every world, then walked over the interior
    families = (*d.choice.values(), d.ags)
    union = d.ags
    for cells in d.choice.values():
        union = list(map(or_, union, cells))
    bad = list(map(and_, union, map(invert, d.box)))
    u = next((u for u in d.inner if bad[u]), None) if any(bad) else None
    if u is not None:
        i = next(i for i, cells in enumerate(families) if cells[u] & ~d.box[u])
        yield "SET", [u], (f"choice cell of {d.agents[i]} leaves the settledness class"
                           if i < len(d.agents) else "coalition cell leaves the settledness class")


def _classes(d):
    """(least world, cell, interior members) of each settledness class met
    by the interior, in world order."""
    inner = d.interior
    met = sorted((_low(hold & inner), cell) for cell, hold in d.pairs["box"] if hold & inner)
    seen = set()
    for _, box in met:
        key = _low(box)
        if key not in seen:
            seen.add(key)
            yield key, box, list(_bits(box & inner))


def _met(cells, members):
    """The distinct cells that ``members`` hold, one per least world, in
    member order."""
    out = {}
    for cell in map(cells.__getitem__, members):
        out.setdefault(cell & -cell, cell)
    return list(out.values())


def _check_additivity(d, mode, n):
    inter = d.box
    for cells in d.choice.values():
        inter = list(map(and_, inter, cells))
    if mode == "actual":
        bad = list(map(ne, d.ags, inter))
        text = "coalition cell differs from the intersection of agent cells"
    else:
        bad = list(map(and_, d.ags, map(invert, inter)))
        text = "coalition cell not contained in the intersection of agent cells"
    # in bulk over every world, then walked over the interior
    u = next((u for u in d.inner if bad[u]), None) if any(bad) else None
    if u is not None:
        yield "ADDITIVITY", [u], text


def _check_classes(d, mode, n):
    # IA and CARD, over the cells that the interior members of a class hold.
    # A plain frame passes in bulk: on the few-world models that model_grid
    # generates and validates, the walk's fixed cost would dominate.
    if d.plain and _classes_pass(d, n):
        return
    pending = {"IA", "CARD"}
    for key, box, members in _classes(d):
        per_agent = [_met(d.choice[a], members) for a in d.agents]
        if "CARD" in pending:
            counts = [len(_met(d.ags, members)), *map(len, per_agent)]
            if max(counts) > n:
                i = next(i for i, k in enumerate(counts) if k > n)
                what = f"cells for {d.agents[i - 1]}" if i else "coalition cells"
                pending.discard("CARD")
                yield "CARD", [key], f"{counts[i]} {what} (bound {n})"
        if "IA" in pending:
            for sel in product(*per_agent):
                inter = box
                for c in sel:
                    inter &= c
                if not inter:
                    picked = [d.names[_low(c)] for c in sel]
                    pending.discard("IA")
                    yield "IA", [key], f"empty selection through cells of {picked}"
                    break
        if not pending:
            return


def _classes_pass(d, n):
    """IA and CARD in bulk on a plain frame: each class meets at most n
    cells of each family, and its worlds realize every selection of one
    choice cell per agent."""
    choices = list(d.choice.values())
    if len(set(zip(d.box, d.ags, *choices))) == len(d.pairs["box"]):
        return True  # one profile per class

    per_class = lambda cells: Counter(map(itemgetter(0), set(zip(d.box, cells))))
    # a class meets more than n cells of a family only if the family has more
    if any(len(d.pairs[name]) > n and max(per_class(d.cells[name]).values()) > n
           for name in family_names(d.agents)[1:len(choices) + 2]):
        return False
    realized = per_class(list(zip(*choices)))
    counts = [per_class(cells) for cells in choices]
    selections = map(prod, zip(*(map(count.__getitem__, realized) for count in counts)))
    return all(map(eq, selections, realized.values()))


def _check_past(d, mode, n):
    # NX / NA / NAGS: interior box-related pairs have related predecessors;
    # NOF: so do interior epistemically related pairs.  A plain frame passes
    # in bulk when pred takes each cell into one cell of its target family.
    pred = d.pred
    if d.plain and None not in pred and all(
            len(set(zip(cells, *(map(t.__getitem__, pred) for t in targets)))) == len(set(cells))
            for cells, targets in [(d.box, [d.box, d.ags, *d.choice.values()]),
                                   *((e, [e]) for e in d.epi.values())]):
        return
    back = [0] * len(d.names)  # world -> the worlds whose predecessor it is
    for v, p in enumerate(pred):
        if p is not None:
            back[p] |= 1 << v
    pre = {}  # mask -> the worlds whose predecessor lies in it, as needed
    has_pred = d.interior & sum(back)  # one predecessor per world: disjoint
    for cond, cells, targets, text in (
            ("NX", d.box, [d.box], "settledness-related"),
            ("NAGS", d.box, [d.ags], "coalition-choice-related"),
            ("NA", d.box, list(d.choice.values()), "choice-related for {}"),
            *(("NOF", d.epi[a], [d.epi[a]], a) for a in d.agents)):
        hit = _unrelated(d, back, pre, has_pred, cells, targets)
        if hit and cond == "NOF":
            yield cond, list(hit[:2]), f"predecessors not epistemically related for {text}"
            return
        if hit:
            u, v, i = hit
            yield cond, [u, v], (f"predecessors {d.names[pred[u]]}, {d.names[pred[v]]} "
                                 f"not {text.format(d.agents[i])}")


def _unrelated(d, back, pre, has_pred, cells, targets):
    """(u, v, i) for the first u of ``has_pred`` and the first later v of
    ``has_pred`` in its cell of ``cells`` such that the ``targets[i]`` cell
    of pred(u) misses pred(v); None when there is none.  With partitions,
    a cell whose least world in ``has_pred`` passes passes as a whole, so
    the walk visits only those worlds."""
    walk = has_pred
    if d.partitioned:
        walk = sum(c & has_pred & -(c & has_pred) for c in set(cells))
    for u in _bits(walk):
        pu = d.pred[u]
        later = (cells[u] & has_pred) >> (u + 1) << (u + 1)
        bad = 0
        for t in targets if later else ():
            if t[pu] not in pre:
                pre[t[pu]] = sum(back[x] for x in _bits(t[pu]))
            bad |= later & ~pre[t[pu]]
        if bad:
            v = _low(bad)
            return u, v, next(i for i, t in enumerate(targets) if not pre[t[pu]] >> v & 1)
    return None


def _check_unif_h(d, mode, n):
    # interior-witnessed links extend from interior worlds, with frame-wide
    # witnesses; read per distinct cell and the worlds that hold it.  A
    # plain frame passes in bulk first
    if d.plain and all(_same_classes_met(d.box, d.epi[a]) for a in d.agents):
        return
    inner = d.interior
    key = [_low(box) for box in d.box]  # least world of each world's class
    box_by_key = {}
    for cell, _ in d.pairs["box"]:
        box_by_key.setdefault(_low(cell), cell)
    met = {}  # mask -> the class keys its worlds have

    def keys(mask):
        if mask not in met:
            met[mask] = {key[v] for v in _bits(mask)}
        return met[mask]

    for a in d.agents:
        meets = {}  # class key -> worlds with an epistemic mate in that class
        links = set()
        for cell, hold in d.epi_pairs[a]:
            for k in keys(cell):
                meets[k] = meets.get(k, 0) | hold
            if hold & inner:
                links.update(product(keys(hold & inner), keys(cell & inner)))
        for k1, k2 in sorted(links):
            bad = box_by_key[k1] & inner & ~meets[k2]
            if bad:
                yield "UNIF_H", [_low(bad)], f"no epistemic mate for {a} in class of {d.names[k2]}"
                return


def _same_classes_met(box, epi):
    """Unif-H for one agent on a plain frame: the epistemic cells that meet
    a settledness class all meet the same classes."""
    if list(map(or_, epi, box)) == box:
        return True  # every epistemic cell lies in one class
    met = {}  # epistemic cell -> the union of the classes it meets
    for b, e in set(zip(box, epi)):
        met[e] = met.get(e, 0) | b
    return len(set(zip(box, map(met.__getitem__, epi)))) == len(set(box))


_CHECKS = (_check_eq, _check_inverse, _check_set, _check_additivity,
           _check_classes, _check_past, _check_unif_h)
