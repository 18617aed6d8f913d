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


def make_partition(cells, universe, what):
    """Normalize and check a partition: non-empty pairwise-disjoint cells
    covering ``universe`` exactly.
    """
    norm = []
    seen = set()
    for cell in cells:
        fs = frozenset(cell)
        if not fs:
            raise PartitionError(f"{what}: empty cell")
        bad = fs - universe
        if bad:
            raise SchemaError(f"{what}: unknown world(s) {sorted(bad)}")
        if fs & seen:
            raise PartitionError(f"{what}: overlapping cells at {sorted(fs & seen)}")
        seen |= fs
        norm.append(fs)
    if seen != universe:
        raise PartitionError(f"{what}: worlds not covered: {sorted(universe - seen)}")
    return tuple(sorted(norm, key=lambda c: min(c)))


def _cell_index(partition):
    out = {}
    for i, cell in enumerate(partition):
        for w in cell:
            out[w] = i
    return out


class KripkeModel:
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
        self._box_of = _cell_index(self.r_box)

        self.succ = dict(succ)
        missing = universe - set(self.succ)
        if missing:
            raise SuccNotTotal(f"succ missing for {sorted(missing)}")
        bad = {w: v for w, v in self.succ.items() if v not in universe or w not in universe}
        if bad:
            raise SchemaError(f"succ references unknown worlds: {bad}")
        # pred is defined only when succ is a bijection; validation reports
        # the failure, evaluation of Y requires invertibility
        self.pred = None
        targets = set(self.succ.values())
        if len(targets) == len(self.worlds):
            self.pred = {v: w for w, v in self.succ.items()}

        self.choice = {}
        for a in self.agents:
            if a not in choice:
                raise SchemaError(f"choice partition missing for agent {a}")
            self.choice[a] = make_partition(choice[a], universe, f"choice[{a}]")
        self._choice_of = {a: _cell_index(p) for a, p in self.choice.items()}

        self.epistemic = {}
        for a in self.agents:
            if a not in epistemic:
                raise SchemaError(f"epistemic partition missing for agent {a}")
            self.epistemic[a] = make_partition(epistemic[a], universe, f"epistemic[{a}]")
        self._epi_of = {a: _cell_index(p) for a, p in self.epistemic.items()}

        if choice_ags is None:
            self.choice_ags = self._refine_choice_ags()
        else:
            self.choice_ags = make_partition(choice_ags, universe, "choice_ags")
        self._ags_of = _cell_index(self.choice_ags)

        self.valuation = {}
        for prop, ws in (valuation or {}).items():
            ws = frozenset(ws)
            bad = ws - universe
            if bad:
                raise SchemaError(f"valuation[{prop}]: unknown worlds {sorted(bad)}")
            self.valuation[prop] = ws

        self._frame_reports = {}
        self._common_cells = None
        self._tables = None

    def _refine_choice_ags(self):
        """Common refinement of the per-agent partitions restricted to each
        settledness class (the default grand-coalition partition).
        """
        key = {}
        for w in self.worlds:
            k = (self._box_of[w],) + tuple(self._choice_of[a][w] for a in self.agents)
            key.setdefault(k, set()).add(w)
        return tuple(sorted((frozenset(v) for v in key.values()), key=min))

    # -- lookups ----------------------------------------------------------
    def box_cell(self, w):
        return self.r_box[self._box_of[w]]

    def choice_cell(self, agent, w):
        return self.choice[agent][self._choice_of[agent][w]]

    def ags_cell(self, w):
        return self.choice_ags[self._ags_of[w]]

    def epi_cell(self, agent, w):
        return self.epistemic[agent][self._epi_of[agent][w]]

    def holds(self, prop, w):
        return w in self.valuation.get(prop, frozenset())

    def common_cell(self, w):
        """Cell of w under the reflexive-transitive closure of the union of
        all agents' epistemic relations (common-knowledge reachability).
        """
        if self._common_cells is None:
            parent = {x: x for x in self.worlds}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for a in self.agents:
                for cell in self.epistemic[a]:
                    ws = sorted(cell)
                    for other in ws[1:]:
                        parent[find(other)] = find(ws[0])
            groups = {}
            for x in self.worlds:
                groups.setdefault(find(x), set()).add(x)
            self._common_cells = {w: frozenset(g) for g in groups.values() for w in g}
        return self._common_cells[w]

    def _dense(self):
        """The model's dense tables, built on first use."""
        if self._tables is None:
            self._tables = _DenseTables(self)
        return self._tables

    def with_valuation(self, valuation):
        """Copy of this model with a replaced valuation."""
        return KripkeModel(self.agents, self.worlds, self.r_box, self.succ,
                           self.choice, self.epistemic, self.choice_ags, valuation)

    # -- serialization ----------------------------------------------------
    def to_doc(self):
        def cells(p):
            return sorted((sorted(c) for c in p), key=lambda c: c[0])

        return {
            "format_version": FORMAT_VERSION,
            "agents": sorted(self.agents),
            "worlds": list(self.worlds),
            "r_box": cells(self.r_box),
            "succ": {w: self.succ[w] for w in self.worlds},
            "choice": {a: cells(self.choice[a]) for a in sorted(self.agents)},
            "choice_ags": cells(self.choice_ags),
            "epistemic": {a: cells(self.epistemic[a]) for a in sorted(self.agents)},
            "valuation": {p: sorted(ws) for p, ws in sorted(self.valuation.items())},
        }

    def dumps(self):
        return json.dumps(self.to_doc(), indent=2, sort_keys=True) + "\n"


class _DenseTables:
    """A model over world indices: world i is ``m.worlds[i]``, a set of
    worlds is an int bitmask, so the least world of a set is its lowest bit.

    ``box``, ``ags``, ``choice[a]`` and ``epistemic[a]`` list the cell masks
    of each partition, ``atoms`` maps a proposition to its mask, ``succ``
    lists successor indices and ``pred`` predecessor indices, or is None
    when ``succ`` is not invertible.
    """

    __slots__ = ("index", "full", "box", "ags", "choice", "epistemic", "atoms", "succ", "pred")

    def __init__(self, m):
        index = {w: i for i, w in enumerate(m.worlds)}

        def mask(ws):
            out = 0
            for w in ws:
                out |= 1 << index[w]
            return out

        self.index = index
        self.full = (1 << len(m.worlds)) - 1
        self.box = [mask(c) for c in m.r_box]
        self.ags = [mask(c) for c in m.choice_ags]
        self.choice = {a: [mask(c) for c in m.choice[a]] for a in m.agents}
        self.epistemic = {a: [mask(c) for c in m.epistemic[a]] for a in m.agents}
        self.atoms = {p: mask(ws) for p, ws in m.valuation.items()}
        self.succ = [index[m.succ[w]] for w in m.worlds]
        self.pred = None if m.pred is None else [index[m.pred[w]] for w in m.worlds]


def load_model(document):
    """Load a model from JSON text or an already-parsed document."""
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as e:
            raise SchemaError(f"not valid JSON: {e}") from None
    else:
        doc = document
    if not isinstance(doc, dict):
        raise SchemaError("model document must be an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise SchemaError(f"unsupported format_version {version!r}")
    for key in ("agents", "worlds", "r_box", "succ", "choice", "epistemic"):
        if key not in doc:
            raise SchemaError(f"missing field {key!r}")
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
    if mode not in ("actual", "super_additive"):
        raise ValueError(f"mode must be actual or super_additive, got {mode!r}")
    if n < 1:
        raise ValueError("n must be positive")
    key = (mode, n)
    if key in m._frame_reports:
        return m._frame_reports[key]

    checks = {c: FrameCheck(c, True) for c in CONDITIONS}

    def fail(cond, witness, explanation):
        c = checks[cond]
        if c.passed:
            c.passed = False
            c.witness = list(witness)
            c.explanation = explanation

    # EQ: four families are partitions by construction; succ must be a bijection
    if m.pred is None:
        targets = {}
        for w in sorted(m.succ):
            targets.setdefault(m.succ[w], []).append(w)
        dup = next((ws for ws in targets.values() if len(ws) > 1), None)
        fail("EQ", dup or [], "succ is not injective")
        fail("INVERSE", dup or [], "succ has no inverse")
    else:
        for w in m.worlds:
            if m.pred[m.succ[w]] != w or m.succ[m.pred[w]] != w:
                fail("INVERSE", [w], "succ and its inverse do not compose to identity")
                break

    # SET: each agent cell and each grand-coalition cell within one box class
    for a in m.agents:
        for cell in m.choice[a]:
            if len({m._box_of[w] for w in cell}) > 1:
                fail("SET", sorted(cell)[:4], f"choice[{a}] cell spans several settledness classes")
    for cell in m.choice_ags:
        if len({m._box_of[w] for w in cell}) > 1:
            fail("SET", sorted(cell)[:4], "choice_ags cell spans several settledness classes")

    # IA: every selection of one agent cell per agent intersects, per class
    for box in m.r_box:
        per_agent = [sorted({m._choice_of[a][w] for w in box}) for a in m.agents]
        chosen = [0] * len(m.agents)

        def selections(i):
            if i == len(m.agents):
                yield tuple(chosen)
                return
            for c in per_agent[i]:
                chosen[i] = c
                yield from selections(i + 1)

        for sel in selections(0):
            inter = box
            for a, ci in zip(m.agents, sel):
                inter = inter & m.choice[a][ci]
                if not inter:
                    break
            if not inter:
                picked = [min(m.choice[a][ci]) for a, ci in zip(m.agents, sel)]
                fail("IA", [min(box)], f"empty selection through cells of {picked} in class of {min(box)}")
                break

    # ADDITIVITY: grand-coalition cells vs intersections of agent cells
    for w in m.worlds:
        inter = m.box_cell(w)
        for a in m.agents:
            inter = inter & m.choice_cell(a, w)
        ags = m.ags_cell(w)
        if mode == "actual" and ags != inter:
            fail("ADDITIVITY", [w], "choice_ags cell differs from the intersection of agent cells")
        elif mode == "super_additive" and not ags <= inter:
            fail("ADDITIVITY", [w], "choice_ags cell not contained in the intersection of agent cells")

    # CARD: at most n agent cells and n grand-coalition cells per class
    for box in m.r_box:
        n_ags = len({m._ags_of[w] for w in box})
        if n_ags > n:
            fail("CARD", [min(box)], f"{n_ags} grand-coalition cells in class of {min(box)} (bound {n})")
        for a in m.agents:
            n_a = len({m._choice_of[a][w] for w in box})
            if n_a > n:
                fail("CARD", [min(box)], f"{n_a} choice cells for {a} in class of {min(box)} (bound {n})")

    if m.pred is not None:
        # NX: predecessors of box-related worlds are box-related
        # NA/NAGS: ... and choice-related for each agent / the coalition
        for box in m.r_box:
            ws = sorted(box)
            w0 = ws[0]
            p0 = m.pred[w0]
            for w in ws[1:]:
                p = m.pred[w]
                if m._box_of[p] != m._box_of[p0]:
                    fail("NX", [w0, w], f"predecessors {p0}, {p} are not settledness-related")
                if m._ags_of[p] != m._ags_of[p0]:
                    fail("NAGS", [w0, w], f"predecessors {p0}, {p} are not coalition-choice-related")
                for a in m.agents:
                    if m._choice_of[a][p] != m._choice_of[a][p0]:
                        fail("NA", [w0, w], f"predecessors {p0}, {p} are not choice-related for {a}")
                        break

        # NOF: epistemically related worlds have epistemically related predecessors
        for a in m.agents:
            for cell in m.epistemic[a]:
                ws = sorted(cell)
                w0 = ws[0]
                for w in ws[1:]:
                    if m._epi_of[a][m.pred[w]] != m._epi_of[a][m.pred[w0]]:
                        fail("NOF", [w0, w], f"predecessors not epistemically related for {a}")
                        break

    # UNIF_H: an epistemic link between two classes extends to every world
    # of the source class
    for a in m.agents:
        links = set()
        for cell in m.epistemic[a]:
            boxes = {m._box_of[w] for w in cell}
            for b1 in boxes:
                for b2 in boxes:
                    links.add((b1, b2))
        for b1, b2 in sorted(links):
            for v in m.r_box[b1]:
                cell = m.epi_cell(a, v)
                if not any(m._box_of[u] == b2 for u in cell):
                    fail("UNIF_H", [v], f"no epistemic mate for {a} in class of {min(m.r_box[b2])}")
                    break

    report = FrameReport(mode, n, [checks[c] for c in CONDITIONS])
    m._frame_reports[key] = report
    return report
