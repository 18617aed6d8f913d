"""Constructive, seed-deterministic generators of frame-valid models and of
random formulas.

Finite models with an invertible successor are rigid: settledness classes
form cycles of equal-sized classes, the successor maps each class bijectively
onto the next, and the temporal frame conditions force every choice partition
to be the trivial one on its class (any finer cell would break the
choice-next commutation conditions).  The generator therefore emits cycle
models with trivial choice structure, random valuations, and epistemic
partitions built as successor-invariant closures of random seed pairs,
coarsened only while the class-matching (uniformity) condition survives.
So every generated model passes every frame condition, in both modes and
at every bound n >= 1, and the generator does not check it again: the code
that consumes a model validates it.
"""

from __future__ import annotations

import _random
import random
from dataclasses import dataclass

from . import formula as F
from .errors import UnsatisfiableParams
from .model import KripkeModel


@dataclass(frozen=True)
class GenParams:
    seed: int = 0
    agent_count: int = 2
    box_class_count: int = 2
    epistemic_coarseness: float = 0.5
    max_class_size: int = 3

    def validate(self):
        if self.agent_count < 1:
            raise UnsatisfiableParams("agent_count must be >= 1")
        if self.box_class_count < 1:
            raise UnsatisfiableParams("box_class_count must be >= 1")
        if not 0.0 <= self.epistemic_coarseness <= 1.0:
            raise UnsatisfiableParams("epistemic_coarseness must be in [0, 1]")
        if self.max_class_size < 1:
            raise UnsatisfiableParams("max_class_size must be >= 1")


def random_model(params):
    """A model over GRID_PROPS that passes every frame condition by
    construction (both modes, every bound n >= 1), so nothing here checks it;
    identical seeds give identical serialized models."""
    params.validate()
    rng = random.Random(params.seed)

    indices = list(range(params.box_class_count))
    cycles = []
    while indices:
        take = rng.randint(1, len(indices))
        cycles.append(indices[:take])
        indices = indices[take:]

    # equal class size along each cycle (forced by the class-to-class
    # bijection), chosen per cycle
    size_of = {}
    for cyc in cycles:
        size = rng.randint(1, params.max_class_size)
        for ci in cyc:
            size_of[ci] = size

    class_worlds = {ci: [f"w{ci}_{k}" for k in range(size_of[ci])]
                    for ci in range(params.box_class_count)}
    worlds = [w for ws in class_worlds.values() for w in ws]

    succ = {}
    for cyc in cycles:
        for pos, ci in enumerate(cyc):
            nxt = cyc[(pos + 1) % len(cyc)]
            perm = list(range(size_of[ci]))
            rng.shuffle(perm)
            for k, t in enumerate(perm):
                succ[class_worlds[ci][k]] = class_worlds[nxt][t]

    agents = [f"a{i}" for i in range(params.agent_count)]
    r_box = list(class_worlds.values())
    choice = {a: [list(c) for c in r_box] for a in agents}

    epistemic = {a: _random_epistemic(rng, worlds, succ, r_box, params.epistemic_coarseness)
                 for a in agents}

    valuation = {p: {w for w in worlds if rng.random() < 0.5} for p in GRID_PROPS}
    return KripkeModel(agents, worlds, r_box, succ, choice, epistemic,
                       choice_ags=None, valuation=valuation)


def _random_epistemic(rng, worlds, succ, r_box, coarseness):
    """Successor-invariant equivalence from random seed pairs: each pair
    merges, in a copy of the world-to-cell map, the cells of every pair on
    its successor orbit, kept only if the cells that meet a settledness class
    all meet the same classes (uniformity); cells by their first world."""
    box_of = {w: i for i, cell in enumerate(r_box) for w in cell}
    cell_of = {w: frozenset([w]) for w in worlds}
    for _ in range(round(coarseness * len(worlds))):
        u, v = rng.choice(worlds), rng.choice(worlds)
        if cell_of[u] == cell_of[v]:
            continue
        cand, a, b = dict(cell_of), u, v
        while True:
            if cand[a] != cand[b]:
                merged = cand[a] | cand[b]
                cand.update(dict.fromkeys(merged, merged))
            a, b = succ[a], succ[b]
            if (a, b) == (u, v):
                break
        met = {}  # class -> the classes met by a cell that meets it
        for cell in set(cand.values()):
            boxes = {box_of[w] for w in cell}
            if any(met.setdefault(c, boxes) != boxes for c in boxes):
                break
        else:
            cell_of = cand
    return [sorted(c) for c in dict.fromkeys(cell_of[w] for w in worlds)]


# The operators random_formula draws from, as an (ops, len, bit length)
# entry at _OPS[sugar][X allowed][Y allowed].  Their order fixes which
# formula a seed gives.  The depth-0 entry holds only the atom, but still
# costs a draw.
_LEAF = ((F.Atom,), 1, 1)


def _entry(sugar, nxt, yest):
    ops = (F.Atom, F.Not, F.And, F.Box, F.Stit, F.Knows, F.StitAgs,
           *((F.Or, F.Implies, F.Diamond) if sugar else ()),
           *((F.Next,) if nxt else ()), *((F.Yesterday,) if yest else ()))
    return ops, len(ops), len(ops).bit_length()


_OPS = [[[_entry(s, x, y) for y in (False, True)] for x in (False, True)] for s in (False, True)]
_ATOMS = {}  # one shared Atom per proposition name
_RNG = _random.Random(0)  # reseeded on every int-seeded call; not thread-safe


def random_formula(seed, max_depth, props, agents, reach=(1, 1), include_sugar=False):
    """Seed-deterministic random formula in the primitive base (optionally
    with | -> <> sugar) whose temporal reach stays within ``reach``.

    The formula is the one that ``random.Random(seed).choice`` draws give,
    picking the operator at each node (only the atom at depth 0, still a
    draw), then its agent, then its children left to right, and at a leaf
    the proposition.  The draws follow CPython's rule for ``choice``: a
    pick among n takes ``getrandbits(n.bit_length())`` until it is below n.
    An int seed reseeds one module-level generator in place, which gives
    the same stream as a fresh ``random.Random(seed)``; so calls from two
    threads at once are not safe.  Any other seed goes through a fresh
    ``random.Random(seed)``.  Atoms are shared: every occurrence of a
    proposition is the same object.
    """
    if type(seed) is int:
        _RNG.seed(seed)
        bits = _RNG.getrandbits
    else:
        bits = random.Random(seed).getrandbits
    # a pick among none would draw forever: raise as random.choice does
    if not props:
        raise IndexError("Cannot choose from an empty sequence")
    atoms = [_ATOMS.get(p) or _ATOMS.setdefault(p, F.Atom(p)) for p in props]
    return _build(bits, max_depth, 0, reach[0], -reach[1], _OPS[bool(include_sugar)],
                  atoms, agents)


def _build(bits, depth, offset, fwd, back, table, atoms, agents):
    """One node drawn at ``depth`` and temporal ``offset``, its agent and
    children in draw order; ``back`` is the least offset allowed, and
    ``table`` the _OPS entries for the sugar setting.  Each pick is written
    out: a helper call per pick made a call 12.1 µs against 11.2 µs (2-core
    Xeon, Python 3.11)."""
    ops, n, k = table[offset + 1 <= fwd][offset - 1 >= back] if depth > 0 else _LEAF
    r = bits(k)
    while r >= n:
        r = bits(k)
    op = ops[r]
    if op is F.Atom:
        n = len(atoms)
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return atoms[r]
    depth -= 1
    if op in F.BINARY:
        return op(_build(bits, depth, offset, fwd, back, table, atoms, agents),
                  _build(bits, depth, offset, fwd, back, table, atoms, agents))
    if op is F.Stit or op is F.Knows:
        n = len(agents)
        if not n:
            raise IndexError("Cannot choose from an empty sequence")
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return op(agents[r], _build(bits, depth, offset, fwd, back, table, atoms, agents))
    if op is F.Next:
        offset += 1
    elif op is F.Yesterday:
        offset -= 1
    return op(_build(bits, depth, offset, fwd, back, table, atoms, agents))


GRID_AGENT_COUNTS = GRID_CLASS_COUNTS = (1, 2, 3)  # the grid that model_grid cycles over
GRID_PROPS = ("p", "q", "r")


def model_grid(count, base_seed=0):
    """Deterministic family of generated models cycling over a small
    parameter grid; used by the validity suites.
    """
    return [random_model(GenParams(
        seed=base_seed + i,
        agent_count=GRID_AGENT_COUNTS[i % len(GRID_AGENT_COUNTS)],
        box_class_count=GRID_CLASS_COUNTS[(i // len(GRID_AGENT_COUNTS)) % len(GRID_CLASS_COUNTS)],
        epistemic_coarseness=(i % 5) / 4.0)) for i in range(count)]
