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
from functools import cache, reduce
from operator import and_, eq, invert, itemgetter, ne, or_
from collections import Counter
from itertools import chain, product, repeat, starmap
from math import prod
from types import MappingProxyType

from .errors import InvalidBound, PartitionError, SchemaError, SuccNotTotal

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


def partition_map(cells, universe):
    """{world: its cell} when the frozensets ``cells`` are non-empty,
    pairwise disjoint and cover ``universe`` exactly, else None: a map as
    long as the cell sizes' sum and as the universe, and within it, leaves
    no room for an overlap or a gap."""
    mates = {w: cell for cell in cells for w in cell}
    fits = all(cells) and len(mates) == sum(map(len, cells)) == len(universe)
    return mates if fits and universe.issuperset(mates) else None


def by_id(x):
    """Sort key ordering document ids of any JSON scalar type: by type
    name, then by value, so that ids of mixed types can be listed."""
    return type(x).__name__, x


def make_partition(cells, universe, what):
    """The read-only map from each world to its cell, a frozenset, with the
    cells checked to be non-empty, pairwise disjoint and to cover
    ``universe`` exactly.

    A partition is accepted in one bulk test on that map; the cell-by-cell
    walk runs only to name the first faulty cell.
    """
    try:
        norm = list(map(frozenset, cells))
    except TypeError:
        raise SchemaError(f"{what}: cells must hold ids, not lists or objects") from None
    mates = partition_map(norm, universe)
    if mates is not None:
        return MappingProxyType(mates)
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

    A structure is a value.  Its constructor sets each field once, its maps
    are read-only views (``types.MappingProxyType``), and a field once set
    cannot be assigned or deleted (AttributeError), and a model cannot take
    the window fields.  So the dense frame and common cells, built on first
    use and kept, match the fields; a changed structure is built anew.
    """

    _frame = None  # the dense frame, built on first use
    _common_cells = None  # world -> its common-knowledge cell, built on first use
    # a window's fields: a model has no layers, and its interior is every world
    layer = interior = horizon = root = None
    _WINDOW_FIELDS = frozenset({"layer", "interior", "horizon", "root"})

    def __setattr__(self, name, value):
        if name in self.__dict__ or name in self._WINDOW_FIELDS:
            raise AttributeError(f"cannot assign to field {name!r}")
        self.__dict__[name] = value

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _dense(self):
        """The structure's dense frame, built on first use and kept."""
        if self._frame is None:
            self._frame = DenseFrame(self.worlds, self.agents,
                                     [self.rel[name] for name in family_names(self.agents)],
                                     self.succ, self.pred or {}, self.valuation,
                                     self.interior, self.layer)
        return self._frame

    def box_cell(self, w):
        return self.rel["box"][w]

    def choice_cell(self, agent, w):
        return self.rel[f"choice:{agent}"][w]

    def ags_cell(self, w):
        return self.rel["ags"][w]

    def epi_cell(self, agent, w):
        return self.rel[f"epi:{agent}"][w]

    def common_cell(self, w):
        """Cell of w under the reflexive-transitive closure of the union of
        all agents' epistemic relations (common-knowledge reachability)."""
        if self._common_cells is None:
            common, epis = {}, [self.rel[f"epi:{a}"] for a in self.agents]
            for start in self.worlds:
                if start in common:
                    continue
                group, todo = {start}, [start]
                while todo:
                    x = todo.pop()
                    for cells in epis:
                        todo.extend(cells[x] - group)
                        group |= cells[x]
                cell = frozenset(group)
                common.update(dict.fromkeys(cell, cell))
            self._common_cells = common
        return self._common_cells[w]

    def holds(self, prop, w):
        return w in self.valuation.get(prop, frozenset())

    def sorted_cells(self, name):
        """The distinct cells of family ``name``, sorted by least world."""
        return tuple(sorted(set(self.rel[name].values()), key=min))

    def to_doc(self):
        cells = lambda name: [sorted(c) for c in self.sorted_cells(name)]
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
    """The valuation, read-only, with frozenset extensions; SchemaError for
    a world outside ``universe``."""
    out = {}
    for prop, ws in (valuation or {}).items():
        ws = frozenset(ws)
        bad = ws - universe
        if bad:
            raise SchemaError(f"valuation[{prop}]: unknown worlds {sorted(bad, key=by_id)}")
        out[prop] = ws
    return MappingProxyType(out)


class KripkeModel(Structure):
    """Finite Kripke-exstit structure.

    Structural well-formedness (partitions cover, successor total) is enforced
    at construction, by checks that build each family's cell map.  Frame
    validity is a separate concern checked by ``validate_frame``.
    """

    def __init__(self, agents, worlds, r_box, succ, choice, epistemic,
                 choice_ags=None, valuation=None):
        self.agents = tuple(agents)
        if len(set(self.agents)) != len(self.agents) or not self.agents:
            raise SchemaError("agents must be a non-empty list of distinct names")
        # ids must be strings: they are sorted here, and window validation
        # reads the least id of a set as the lowest bit of its mask
        worlds = tuple(worlds)
        if not all(map(isinstance, worlds, repeat(str))):
            odd = next(w for w in worlds if not isinstance(w, str))
            raise SchemaError(f"world ids must be strings, got {odd!r}")
        self.worlds = tuple(sorted(worlds))
        if len(set(self.worlds)) != len(self.worlds) or not self.worlds:
            raise SchemaError("worlds must be a non-empty list of distinct ids")
        universe = frozenset(self.worlds)
        # every family is checked here, and its map built, in family_names order
        rel = dict.fromkeys(family_names(self.agents))
        rel["box"] = make_partition(r_box, universe, "r_box")

        succ = dict(succ)
        missing = universe.difference(succ)
        if missing:
            raise SuccNotTotal(f"succ missing for {sorted(missing)}")
        if len(succ) != len(universe) or not universe.issuperset(succ.values()):
            bad = {w: v for w, v in succ.items() if v not in universe or w not in universe}
            raise SchemaError(f"succ references unknown worlds: {bad}")
        self.succ = MappingProxyType(succ)
        # pred is defined only when succ is a bijection; validation reports
        # the failure, evaluation of Y requires invertibility
        pred = dict(zip(succ.values(), succ))
        self.pred = MappingProxyType(pred) if len(pred) == len(universe) else None

        for what, table, family in (("choice", choice, "choice"), ("epistemic", epistemic, "epi")):
            for a in self.agents:
                if a not in table:
                    raise SchemaError(f"{what} partition missing for agent {a}")
                rel[f"{family}:{a}"] = make_partition(table[a], universe, f"{what}[{a}]")

        rel["ags"] = (self._refine_choice_ags(rel) if choice_ags is None else
                      make_partition(choice_ags, universe, "choice_ags"))
        self.rel = MappingProxyType(rel)
        self.valuation = _checked_valuation(valuation, universe)

    # the partitions, each sorted by least world
    r_box = property(lambda self: self.sorted_cells("box"))
    choice_ags = property(lambda self: self.sorted_cells("ags"))
    choice = property(lambda self: {a: self.sorted_cells(f"choice:{a}") for a in self.agents})
    epistemic = property(lambda self: {a: self.sorted_cells(f"epi:{a}") for a in self.agents})

    def _refine_choice_ags(self, rel):
        """The cell map of the common refinement of the per-agent partitions
        restricted to each settledness class (the default grand-coalition
        partition), from the box and choice cell maps in ``rel``.
        """
        families = [rel["box"], *(rel[f"choice:{a}"] for a in self.agents)]
        keys = zip(*(map(cells.__getitem__, self.worlds) for cells in families))
        cells = {}
        for w, key in zip(self.worlds, keys):
            cells.setdefault(key, []).append(w)
        return MappingProxyType({w: cell for cell in map(frozenset, cells.values()) for w in cell})

    def with_valuation(self, valuation):
        """Copy of this model with a replaced valuation.  The copy shares
        this model's checked partitions (its ``rel``) and successor maps, and
        checks only the new valuation; it builds its own dense frame on
        first use."""
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__,
                             valuation=_checked_valuation(valuation, frozenset(self.worlds)))
        copy.__dict__.pop("_frame", None)
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
    mask of the worlds that hold it, in order of the first holder (the same
    mask, and so in order of least world, for a partition);
    ``box``, ``ags``, ``choice[a]`` and ``epi[a]`` are the ``cells`` lists,
    and ``choice_pairs[a]`` and ``epi_pairs[a]`` the ``pairs`` lists.
    ``atoms`` maps a proposition to its mask; ``succ`` and ``pred`` list
    successor and predecessor indices, None where the map is partial or not
    invertible.  A window has a mask per layer in ``layers`` and an
    interior; a model has no layers, and its interior is every world.
    ``inner`` lists the interior indices in order, as a ``range`` when the
    interior is every world.  ``partitions`` names the families whose every
    cell is held by exactly its members, and ``partitioned`` says all are.
    """

    __slots__ = ("names", "index", "agents", "full", "interior", "inner", "layers", "cells",
                 "pairs", "box", "ags", "choice", "epi", "choice_pairs", "epi_pairs", "atoms",
                 "succ", "pred", "partitions", "partitioned")

    def __init__(self, names, agents, relations, succ, pred, valuation,
                 interior=None, layer=None):
        """``relations`` holds one map per family in ``family_names`` order,
        from each world to the frozenset of its mates.  ``succ`` and ``pred``
        map world ids, ``layer`` maps a world to its layer."""
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
        for name, mates in zip(family_names(agents), relations):
            self.cells[name], self.pairs[name] = self._neighbours(mates)
        self.partitions = frozenset(name for name, pairs in self.pairs.items()
                                    if all(starmap(eq, pairs)))
        self.partitioned = len(self.partitions) == len(self.pairs)
        self.box, self.ags = self.cells["box"], self.cells["ags"]
        self.choice = {a: self.cells[f"choice:{a}"] for a in agents}
        self.epi = {a: self.cells[f"epi:{a}"] for a in agents}
        self.choice_pairs = {a: self.pairs[f"choice:{a}"] for a in agents}
        self.epi_pairs = {a: self.pairs[f"epi:{a}"] for a in agents}
        self.atoms = {p: self.mask(ws) for p, ws in valuation.items()}
        self.succ = [index.get(succ.get(w)) for w in names]
        self.pred = [index.get(pred.get(w)) for w in names]

    def mask(self, ws):
        index = self.index
        out = 0
        for w in ws:
            out |= 1 << index[w]
        return out

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


def read_fields(document, kind, shapes, required):
    """A ``kind`` document (model or scenario) as JSON text or already
    parsed: checked to be an object of this format version that has every
    ``required`` field and each field in the shape ``shapes`` gives it."""
    doc = read_document(document)
    if not isinstance(doc, dict):
        raise SchemaError(f"{kind} document must be an object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise SchemaError(f"unsupported format_version {doc.get('format_version')!r}")
    for key in required:
        if key not in doc:
            raise SchemaError(f"missing field {key!r}")
    check_fields(doc, shapes)
    return doc


def load_model(document):
    """Load a model from JSON text or an already-parsed document."""
    doc = read_fields(document, "model", _MODEL_SHAPES,
                      ("agents", "worlds", "r_box", "succ", "choice", "epistemic"))
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
    """
    return check_frame(m._dense(), mode, n)


def check_frame(d, mode, n):
    """The frame report of the dense frame ``d``: universal quantifiers range
    over its interior, existential witnesses over all its worlds.  Each
    failed condition's witness is its first violation in world order."""
    if mode not in ("actual", "super_additive"):
        raise ValueError(f"mode must be actual or super_additive, got {mode!r}")
    if n < 1:
        raise InvalidBound("n must be positive")
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
    for name, pairs in d.pairs.items():
        # a partition passes; the walk below only names the first fault
        if name in d.partitions:
            continue
        cells, holders = d.cells[name], dict(pairs)
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


def _rows(lists, rows):
    """Each per-world list of ``lists`` read at the world indices ``rows``:
    the lists themselves when ``rows`` is a range, which holds every index."""
    return lists if type(rows) is range else [list(map(c.__getitem__, rows)) for c in lists]


# A partitioned frame first tests IA/CARD, the image conditions and UNIF_H
# in bulk over its interior rows.  A passing test accepts; a failing one
# hands over to the walk, which alone picks the witness and the text.  On a
# model, whose interior is every world, the rows are the per-world lists
# themselves.

def _check_classes(d, mode, n):
    # IA and CARD, over the cells that the interior members of a class hold
    if d.partitioned and _classes_pass(d, n):
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
    """IA and CARD in bulk on a partitioned frame: the interior members of
    each class hold at most n cells of each family, and realize every
    selection of one of their choice cells per agent."""
    box, ags, *choices = _rows([d.box, d.ags, *d.choice.values()], d.inner)
    classes = len(d.pairs["box"]) if box is d.box else len(set(box))
    if len(set(zip(box, ags, *choices))) == classes:
        return True  # one profile per class

    per_class = lambda cells: Counter(map(itemgetter(0), set(zip(box, cells))))
    # a class meets more than n cells of a family only if the family has more
    if any(len(d.pairs[name]) > n and max(per_class(cells).values()) > n
           for name, cells in zip(family_names(d.agents)[1:], [ags, *choices])):
        return False
    realized = per_class(list(zip(*choices)))
    counts = [per_class(cells) for cells in choices]
    selections = map(prod, zip(*(map(count.__getitem__, realized) for count in counts)))
    return all(map(eq, selections, realized.values()))


def _check_images(d, mode, n):
    # for each world w whose successor is interior, the interior of
    # box(succ w) lies in the successor image of w's settledness (NX),
    # coalition (NAGS) and choice (NA) cells, and the interior of
    # epi_a(succ w) in the image of epi_a(w) (NOF)
    succ, inner = d.succ, d.interior
    if d.partitioned and _images_pass(d):
        return
    sources = {}  # each world -> the worlds whose successor it is, in order
    for w, s in enumerate(succ):
        sources.setdefault(s, []).append(w)
    sources.pop(None, None)
    reached = inner & sum(map((1).__lshift__, sources))
    # with partitions and one source per reached world, a cell passes as a
    # whole when its least reached world does, and one with a single interior
    # world always does
    per_cell = d.partitioned and len(sources) == len(succ) - succ.count(None)
    bit, images = [0 if s is None else 1 << s for s in succ], {}  # mask -> its image
    for cond, cells, targets, text in (
            ("NX", d.box, [(None, d.box)], "predecessors {w}, {x} not settledness-related"),
            ("NAGS", d.box, [(None, d.ags)], "predecessors {w}, {x} not coalition-choice-related"),
            ("NA", d.box, list(d.choice.items()),
             "predecessors {w}, {x} not choice-related for {a}"),
            *(("NOF", e, [(a, e)], "predecessors not epistemically related for {a}")
              for a, e in d.epi.items())):
        walk = reached
        if per_cell:
            walk = sum(c & reached & -(c & reached) for c in set(cells)
                       if c & inner & (c & inner) - 1)
        bad = 0
        for u, w in ((u, w) for u in _bits(walk) for w in sources[u]):
            for _, t in targets:
                if t[w] not in images:
                    images[t[w]] = reduce(or_, map(bit.__getitem__, _bits(t[w])), 0)
                bad |= cells[u] & inner & ~images[t[w]]
            if bad:
                break
        if bad:
            v = _low(bad)
            a = next(a for a, t in targets if not images[t[w]] >> v & 1)
            x = succ.index(v) if v in succ else None
            yield cond, [u, v], (f"{d.names[v]} has no predecessor" if x is None else
                                 text.format(w=d.names[w], x=d.names[x], a=a))
            if cond == "NOF":  # one verdict for all agents: the first that fails
                return


def _images_pass(d):
    """NX, NA, NAGS and NOF in bulk on a partitioned frame: succ is
    injective, every interior world of a reached cell has a predecessor,
    and over the worlds x with an interior successor the cell of succ x
    gives the target cells of x."""
    succ, inner = d.succ, d.interior
    families = [(d.box, [d.box, d.ags, *d.choice.values()]), *((e, [e]) for e in d.epi.values())]
    if inner == d.full and None not in succ:
        heads = succ  # every world has an interior successor
    else:
        xs = [x for x, s in enumerate(succ) if s is not None and inner >> s & 1]
        heads = [succ[x] for x in xs]
        families = [(cells, _rows(targets, xs)) for cells, targets in families]
    if len(set(heads)) < len(heads):
        return False
    if len(heads) < len(succ):
        missing = inner & ~sum(map((1).__lshift__, heads))  # interior worlds without a predecessor
        if missing and any(cells[u] & missing for cells, _ in families for u in heads):
            return False
    # a permutation (heads is succ) meets every cell
    return all(len(set(zip(map(cells.__getitem__, heads), *targets)))
               == len(set(cells if heads is succ else map(cells.__getitem__, heads)))
               for cells, targets in families)


def _check_unif_h(d, mode, n):
    # interior-witnessed links extend from interior worlds, with frame-wide
    # witnesses; read per distinct cell and the worlds that hold it
    if d.partitioned and all(_same_classes_met(d, d.epi[a]) for a in d.agents):
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


def _same_classes_met(d, epi):
    """Unif-H for one agent on a partitioned frame: the epistemic cells of
    a class's interior members all meet the same classes."""
    box, inner_epi = _rows([d.box, epi], d.inner)
    if list(map(or_, inner_epi, box)) == box:
        return True  # every interior member's epistemic cell lies in its class
    met = {}  # epistemic cell -> the union of the classes it meets
    for b, e in set(zip(d.box, epi)):
        met[e] = met.get(e, 0) | b
    return len(set(zip(box, map(met.__getitem__, inner_epi)))) == len(set(box))


_CHECKS = (_check_eq, _check_inverse, _check_set, _check_additivity,
           _check_classes, _check_images, _check_unif_h)
