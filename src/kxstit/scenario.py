"""Branching discrete-time scenarios (finite moment trees) and their
compilation to Kripke structures.

A scenario is a finite tree of moments; histories are root-to-leaf paths and
evaluation points are situations (moment, history).  Compilation turns each
situation into a world and completes the temporal successor into a bijection
by closing every history into a cycle through two synthetic stutter worlds:

    pre_h -> <root,h> -> ... -> <leaf,h> -> post_h -> pre_h

Stutter worlds freeze the valuation of the situation they extend.  All
pre-root stutters form a single settledness class with trivial choices, each
post-leaf stutter is its own class, and stutter epistemic cells mirror the
pattern of the adjacent real layer without ever linking to real worlds.  This
confines the unavoidable wrap-around failures of the temporal frame
conditions to stutter-world pairs.
"""

from __future__ import annotations

from .errors import BDTInvariantViolation, SchemaError
from .model import (FORMAT_VERSION, KripkeModel, by_id, cell_list, cell_map, id_list, id_map,
                    optional, partition_map, read_fields, table_of)

import json
from math import prod


class BDTScenario:
    """Finite tree of moments with per-moment choice partitions over the
    histories through each moment, an epistemic partition on situations, and
    a situation valuation.

    Histories are derived: leaves are enumerated in the order induced by the
    ``moments`` list (depth-first), and history ``i`` is the root-to-leaf path
    of the ``i``-th leaf.  Situations are written ``"<moment>_<history>"``;
    ``history_sits`` lists them along each history.
    """

    def __init__(self, agents, moments, parent, choice_at, epistemic_sit,
                 valuation_sit, history_names=None):
        self.agents = tuple(agents)
        if len(set(self.agents)) != len(self.agents) or not self.agents:
            raise SchemaError("agents must be a non-empty list of distinct names")
        self.moments = tuple(moments)
        if len(set(self.moments)) != len(self.moments) or not self.moments:
            raise SchemaError("moments must be distinct and non-empty")
        self.parent = dict(parent)
        roots = [m for m in self.moments if m not in self.parent]
        if len(roots) != 1:
            raise SchemaError(f"scenario must have exactly one root, got {roots}")
        self.root = roots[0]
        for child, par in self.parent.items():
            if child not in self.moments or par not in self.moments:
                raise SchemaError(f"parent map references unknown moment {child} -> {par}")

        # children in the order of the moments list
        children = {m: [] for m in self.moments}
        for m in self.moments:
            if m != self.root:
                children[self.parent[m]].append(m)
        self.children = children

        # with one root, no cycle exactly when child links reach every moment
        reached = [self.root]
        for m in reached:
            reached.extend(children[m])
        for m in self.moments if len(reached) != len(self.moments) else ():
            seen, cur = set(), m
            while cur in self.parent:
                if cur in seen:
                    raise SchemaError(f"parent map has a cycle through {cur}")
                seen.add(cur)
                cur = self.parent[cur]

        leaves = [m for m in self.moments if not children[m]]
        names = history_names or [f"h{i + 1}" for i in range(len(leaves))]
        if len(names) != len(leaves):
            raise SchemaError("history_names length must match leaf count")
        if len(set(names)) != len(names):
            raise SchemaError("history_names must be distinct")
        # one walk over the history paths names every situation once
        self.histories = list(names)
        self.history_moments = {}
        self.history_sits = {}
        moment_histories = {m: [] for m in self.moments}
        named = {}  # situation -> the (moment, history) it names
        for name, leaf in zip(names, leaves):
            path = [leaf]
            while path[-1] in self.parent:
                path.append(self.parent[path[-1]])
            path.reverse()
            self.history_moments[name] = tuple(path)
            self.history_sits[name] = tuple([f"{m}_{name}" for m in path])
            for m, w in zip(path, self.history_sits[name]):
                moment_histories[m].append(name)
                if named.setdefault(w, (m, name)) != (m, name):
                    raise SchemaError(f"situation {w!r} names both (moment, history) "
                                      f"{named[w]} and {(m, name)}")
        self.moment_histories = {m: tuple(hs) for m, hs in moment_histories.items()}
        self.situations = frozenset(named)

        _no_unknown_keys(choice_at, self.agents, "choice_at", "agent")
        through = {m: frozenset(hs) for m, hs in moment_histories.items()}
        self.choice_at = {}
        for a in self.agents:
            table = choice_at.get(a, {})
            _no_unknown_keys(table, through, f"choice_at[{a}]", "moment")
            self.choice_at[a] = row = {m: (hs,) for m, hs in through.items()}
            for m in self.moments:
                if table.get(m) is not None:
                    row[m] = _partition(table[m], through[m], "choice_at", a, m)

        _no_unknown_keys(epistemic_sit, self.agents, "epistemic_sit", "agent")
        self.epistemic_sit = {}
        for a in self.agents:
            cells = epistemic_sit.get(a)
            self.epistemic_sit[a] = (
                tuple(map(frozenset, zip(sorted(self.situations)))) if cells is None else
                _partition(cells, self.situations, "epistemic_sit", a))

        self.valuation_sit = {p: frozenset(sits) for p, sits in valuation_sit.items()}
        for p, sits in self.valuation_sit.items():
            bad = sits - self.situations
            if bad:
                raise SchemaError(f"valuation_sit[{p}] references unknown situations "
                                  f"{sorted(bad, key=by_id)}")

    @staticmethod
    def sit(moment, history):
        return f"{moment}_{history}"

    # -- invariants ---------------------------------------------------------
    def check_invariants(self):
        """Raise BDTInvariantViolation on the first failed tree-frame
        condition: no choice between undivided histories, independence of
        agency, and the no-forget condition on the situation relation.  Each
        is tested in bulk, and walked only to name its first fault.
        """
        # one-cell tables split nothing and constrain no selection
        split = {m: [a for a in self.agents if len(self.choice_at[a][m]) > 1]
                 for m in self.moments}
        # undivided histories: h, h' sharing a moment strictly after m lie in
        # the same cell of every agent's partition at m
        for m in self.moments:
            for child in self.children[m] if split[m] else ():
                hs = self.moment_histories[child]
                for a in split[m]:
                    if not any(cell.issuperset(hs) for cell in self.choice_at[a][m]):
                        raise BDTInvariantViolation(
                            "no_choice_between_undivided_histories",
                            list(hs), f"histories through {child} split at {m} for {a}")

        # independence of agency: every selection of one cell per agent
        # meets, that is, the histories through m realize as many cell
        # profiles as there are selections
        for m in self.moments:
            if len(split[m]) < 2:
                continue
            tables = [self.choice_at[a][m] for a in split[m]]
            index = [{h: i for i, cell in enumerate(t) for h in cell} for t in tables]
            if len({tuple(ix[h] for ix in index)
                    for h in self.moment_histories[m]}) == prod(map(len, tables)):
                continue
            sel = [None] * len(self.agents)

            def walk(i, current):
                if not current:
                    raise BDTInvariantViolation(
                        "independence_of_agency",
                        [m], f"empty selection {[min(c) for c in sel[:i]]} at {m}")
                if i == len(self.agents):
                    return
                for cell in self.choice_at[self.agents[i]][m]:
                    sel[i] = cell
                    walk(i + 1, current & cell)

            walk(0, set(self.moment_histories[m]))

        # no forget: related successors force related predecessors, whenever
        # both predecessors exist in the finite tree; in bulk, each cell's
        # situations with a predecessor have their predecessors in one cell
        pred_sit = {}
        for path in self.history_sits.values():
            pred_sit.update(zip(path[1:], path))
        for a in self.agents:
            cell_of = {s: i for i, cell in enumerate(self.epistemic_sit[a]) for s in cell}
            moved = {(cell_of[s], cell_of[p]) for s, p in pred_sit.items()}
            if len(moved) == len({c for c, _ in moved}):
                continue
            for cell in self.epistemic_sit[a]:
                withpred = sorted(s for s in cell if s in pred_sit)
                for s in withpred[1:]:
                    if cell_of[pred_sit[s]] != cell_of[pred_sit[withpred[0]]]:
                        raise BDTInvariantViolation(
                            "no_forget", [withpred[0], s],
                            f"predecessors not epistemically related for {a}")

    # -- serialization ------------------------------------------------------
    def to_doc(self):
        return {
            "format_version": FORMAT_VERSION,
            "agents": sorted(self.agents),
            "moments": list(self.moments),
            "parent": {m: self.parent[m] for m in sorted(self.parent)},
            "history_names": list(self.histories),
            "choice_at": {a: {m: sorted((sorted(c) for c in self.choice_at[a][m]), key=lambda c: c[0])
                              for m in self.moments} for a in sorted(self.agents)},
            "epistemic_sit": {a: sorted((sorted(c) for c in self.epistemic_sit[a]), key=lambda c: c[0])
                              for a in sorted(self.agents)},
            "valuation_sit": {p: sorted(s) for p, s in sorted(self.valuation_sit.items())},
        }

    def dumps(self):
        return json.dumps(self.to_doc(), indent=2, sort_keys=True) + "\n"


def _partition(cells, universe, table, agent, moment=None):
    """The cells as frozensets sorted by least member, or ``universe`` alone
    for one cell equal to it; SchemaError names ``table[agent][moment]``
    (``table[agent]`` without a moment) when they do not partition it."""
    try:
        if len(cells) == 1 and frozenset(cells[0]) == universe:
            return (universe,)
        norm = [frozenset(c) for c in cells]
        if partition_map(norm, universe) is not None:
            return tuple(sorted(norm, key=min))
        fault = " is not a partition of " + (
            "the situations" if moment is None else f"the histories through {moment}")
    except TypeError:
        fault = ": cells must hold ids, not lists or objects"
    raise SchemaError(f"{table}[{agent}]" + ("" if moment is None else f"[{moment}]") + fault)


def _no_unknown_keys(table, known, what, kind):
    unknown = [k for k in table if k not in known]
    if unknown:
        raise SchemaError(f"{what} names unknown {kind}(s) {unknown}")


_SCENARIO_SHAPES = {
    "agents": (id_list, "a list of names"),
    "moments": (id_list, "a list of names"),
    "parent": (id_map, "an object mapping each moment to its parent moment"),
    "choice_at": (table_of(cell_map),
                  "an object mapping each agent to an object mapping moments to lists of lists of histories"),
    "epistemic_sit": (table_of(optional(cell_list)),
                      "an object mapping each agent to a list of lists of situations or null"),
    "valuation_sit": (table_of(id_list), "an object mapping each atom to a list of situations"),
    "history_names": (optional(id_list), "a list of names"),
}


def load_scenario(document):
    doc = read_fields(document, "scenario", _SCENARIO_SHAPES, ("agents", "moments", "parent",
                      "choice_at", "epistemic_sit", "valuation_sit"))
    return BDTScenario(doc["agents"], doc["moments"], doc["parent"], doc["choice_at"],
                       doc["epistemic_sit"], doc["valuation_sit"], doc.get("history_names"))


# ---------------------------------------------------------------------------
# compilation

def bdt_to_kripke(scenario):
    """Compile a scenario to a Kripke structure (situations as worlds plus
    per-history stutter completion).  Raises BDTInvariantViolation when the
    scenario breaks a tree-frame condition.
    """
    s = scenario
    s.check_invariants()

    pre = [f"pre_{h}" for h in s.histories]
    post = [f"post_{h}" for h in s.histories]
    clash = s.situations.intersection([*pre, *post])
    if clash:
        raise SchemaError(f"situation {min(clash)!r} has the id of a stutter world")
    paths = [s.history_sits[h] for h in s.histories]

    succ = {}
    at = {m: {} for m in s.moments}     # moment -> history -> situation
    stutters_at = {}                    # situation -> stutters that freeze it
    for h, path, p, q in zip(s.histories, paths, pre, post):
        for m, w in zip(s.history_moments[h], path):
            at[m][h] = w
        succ[p] = path[0]
        succ.update(zip(path, path[1:]))
        succ[path[-1]] = q
        succ[q] = p
        stutters_at.setdefault(path[0], []).append(p)
        stutters_at.setdefault(path[-1], []).append(q)
    # cells are built as frozensets, which the model takes as they are
    stutter_cells = [frozenset(pre), *(frozenset([q]) for q in post)]
    box = {m: frozenset(row.values()) for m, row in at.items()}
    r_box = [*box.values(), *stutter_cells]

    choice = {}
    for a in s.agents:
        cells = list(stutter_cells)
        for m, part in s.choice_at[a].items():
            if len(part) == 1:
                cells.append(box[m])
            else:
                cells.extend(frozenset(map(at[m].__getitem__, cell)) for cell in part)
        choice[a] = cells

    # stutter layers mirror the adjacent real layer, never linking to it
    epistemic = {}
    for a in s.agents:
        cells = s.epistemic_sit[a]
        cell_of = {w: i for i, cell in enumerate(cells) for w in cell}
        before, after = {}, {}
        for path, p, q in zip(paths, pre, post):
            before.setdefault(cell_of[path[0]], []).append(p)
            after.setdefault(cell_of[path[-1]], []).append(q)
        epistemic[a] = [*cells, *map(frozenset, before.values()), *map(frozenset, after.values())]

    valuation = {prop: sits.union(*(stutters_at.get(w, ()) for w in sits))
                 for prop, sits in s.valuation_sit.items()}

    # no coalition cells given: the model refines the agents' choice cells
    return KripkeModel(s.agents, [*s.situations, *pre, *post], r_box, succ, choice, epistemic,
                       None, valuation)


# ---------------------------------------------------------------------------
# the bomb-squad scenario

def figure1_scenario(case="a"):
    """Three agents defuse two linked bombs.

    ethan moves first (which fail-safe detonators he secures), then luther
    and benji simultaneously cut a red or green wire on their bombs.  Atoms:
    d_L / d_B (bomb L / B detonates), d (both), s (defused), r_L (red wire of
    L cut), f_B (fail-safe of B active).

    Case "a": luther knows only his own wire choice mid-game.  Case "b":
    luther additionally knows which detonators were secured, so his epistemic
    cells separate the mid-game moments (and, forced by no-forget, the
    outcome moments).
    """
    if case not in ("a", "b"):
        raise ValueError("case must be 'a' or 'b'")
    agents = ("benji", "ethan", "luther")
    moments = [f"m{i}" for i in range(1, 22)]
    parent = {}
    for i in range(2, 6):
        parent[f"m{i}"] = "m1"
    for i in range(6, 22):
        parent[f"m{i}"] = f"m{2 + (i - 6) // 4}"

    hs = [f"h{i}" for i in range(1, 17)]
    mid = {h: f"m{2 + i // 4}" for i, h in enumerate(hs)}
    leaf = {h: f"m{6 + i}" for i, h in enumerate(hs)}

    # wire choices per history within each mid-game moment block, matching
    # the outcome table: index 0: (G_L,R_B) 1: (R_L,R_B) 2: (R_L,G_B) 3: (G_L,G_B)
    red_l = {h for i, h in enumerate(hs) if i % 4 in (1, 2)}
    red_b = {h for i, h in enumerate(hs) if i % 4 in (0, 1)}

    choice_at = {a: {} for a in agents}
    choice_at["ethan"]["m1"] = [hs[0:4], hs[4:8], hs[8:12], hs[12:16]]
    for m in ("m2", "m3", "m4", "m5"):
        block = [h for h in hs if mid[h] == m]
        choice_at["luther"][m] = [[h for h in block if h in red_l],
                                  [h for h in block if h not in red_l]]
        choice_at["benji"][m] = [[h for h in block if h in red_b],
                                 [h for h in block if h not in red_b]]

    # outcomes: which bombs go off on each history
    outcome = {
        "h1": "d_L", "h2": "s", "h3": "d_B", "h4": "d",
        "h5": "d", "h6": "d_B", "h7": "s", "h8": "d_L",
        "h9": "s", "h10": "d_L", "h11": "d", "h12": "d_B",
        "h13": "d", "h14": "d", "h15": "d", "h16": "d",
    }

    sit = BDTScenario.sit
    val = {"d_L": set(), "d_B": set(), "d": set(), "s": set(), "r_L": set(), "f_B": set()}
    for h in hs:
        out = outcome[h]
        target = val[out] if out != "d" else None
        lw = sit(leaf[h], h)
        if out == "d":
            val["d_L"].add(lw)
            val["d_B"].add(lw)
            val["d"].add(lw)
        else:
            target.add(lw)
        if h in red_l:
            val["r_L"].add(lw)
    for h in hs[0:4] + hs[8:12]:  # fail-safe of B active after D_{L+B} or D_B
        val["f_B"].add(sit(mid[h], h))
        val["f_B"].add(sit(leaf[h], h))

    # epistemic structure
    epi = {}
    mid_sits = lambda pred: [sit(mid[h], h) for h in hs if pred(h)]
    root_sits = [sit("m1", h) for h in hs]

    # luther: at m1 nothing is known beyond the setting; mid-game he knows his
    # wire; at the outcome he knows both wire cuts and whether the bombs blew,
    # but not which bomb
    profile_groups = {}
    for h in hs:
        if outcome[h] == "s":
            profile_groups[("s", h)] = [h]
        else:
            key = (h in red_l, h in red_b)
            profile_groups.setdefault(key, []).append(h)
    luther_cells = [root_sits]
    if case == "a":
        luther_cells.append(mid_sits(lambda h: h in red_l))
        luther_cells.append(mid_sits(lambda h: h not in red_l))
        for group in profile_groups.values():
            luther_cells.append([sit(leaf[h], h) for h in group])
    else:
        for m in ("m2", "m3", "m4", "m5"):
            luther_cells.append([sit(m, h) for h in hs if mid[h] == m and h in red_l])
            luther_cells.append([sit(m, h) for h in hs if mid[h] == m and h not in red_l])
        # no-forget forces the outcome cells to separate by moment as well
        for group in profile_groups.values():
            for h in group:
                luther_cells.append([sit(leaf[h], h)])
    epi["luther"] = luther_cells

    benji_cells = [root_sits,
                   mid_sits(lambda h: h in red_b),
                   mid_sits(lambda h: h not in red_b)]
    for group in profile_groups.values():
        benji_cells.append([sit(leaf[h], h) for h in group])
    epi["benji"] = benji_cells

    epi["ethan"] = None  # finest partition: identity

    valuation = {p: sorted(ws) for p, ws in val.items() if ws}
    return BDTScenario(agents, moments, parent, choice_at, epi, valuation, history_names=hs)
