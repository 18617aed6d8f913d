"""Axiom-schema instantiation and empirical validity suites.

Schemata are checked model-theoretically: each sampled instantiation must be
valid on every frame-valid model in the suite.  Saturating fills (fresh atoms
true on exactly one choice cell) are used for the action-cardinality schemata
so that cell-count violations cannot hide behind vacuous instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import formula as F
from .checker import valid_on_model
from .errors import ArityMismatch, DuplicateAgents, InvalidModelInSuite
from .gen import random_formula
from .model import validate_frame

@dataclass(frozen=True)
class Schema:
    """A named axiom template with formula slots and agent slots."""

    name: str
    arity: int
    agent_slots: int
    needs_n: bool = False
    derived: bool = False


def _iff(a, b):
    return F.And(F.Implies(a, b), F.Implies(b, a))


def _dual(op, phi):
    return F.Not(op(F.Not(phi)))


def _s5_builders(op_name, make):
    """K, T, 4, 5 for a universal modality ``make`` (agent-parametric ops
    close over the first agent slot).  A subformula that occurs twice is
    built once, so the evaluator's table finds it by identity.
    """
    def then_op(phi, agents):
        return F.Implies(phi, make(phi, agents))

    return {
        f"S5({op_name}).K": lambda fills, agents: F.Implies(
            make(F.Implies(fills[0], fills[1]), agents),
            F.Implies(make(fills[0], agents), make(fills[1], agents))),
        f"S5({op_name}).T": lambda fills, agents: F.Implies(make(fills[0], agents), fills[0]),
        f"S5({op_name}).4": lambda fills, agents: then_op(make(fills[0], agents), agents),
        f"S5({op_name}).5": lambda fills, agents: then_op(
            _dual(lambda x: make(x, agents), fills[0]), agents),
    }


_OPS = {
    "box": lambda phi, agents: F.Box(phi),
    "stit": lambda phi, agents: F.Stit(agents[0], phi),
    "stit_ags": lambda phi, agents: F.StitAgs(phi),
    "knows": lambda phi, agents: F.Knows(agents[0], phi),
}

_BUILDERS = {}
for _name, _make in _OPS.items():
    _BUILDERS.update(_s5_builders(_name, _make))

_BUILDERS.update({
    "In1": lambda fills, agents: _iff(F.Yesterday(F.Next(fills[0])), fills[0]),
    "In2": lambda fills, agents: _iff(F.Next(F.Yesterday(fills[0])), fills[0]),
    "DET.S.X": lambda fills, agents: _iff(F.Next(fills[0]), F.Not(F.Next(F.Not(fills[0])))),
    "DET.S.Y": lambda fills, agents: _iff(F.Yesterday(fills[0]),
                                          F.Not(F.Yesterday(F.Not(fills[0])))),
    "SET": lambda fills, agents: F.Implies(F.Box(fills[0]), F.Stit(agents[0], fills[0])),
    "NA": lambda fills, agents: F.Implies(F.Stit(agents[0], F.Next(fills[0])),
                                          F.Stit(agents[0], F.Next(F.Box(fills[0])))),
    "NAgs": lambda fills, agents: F.Implies(F.StitAgs(F.Next(fills[0])),
                                            F.StitAgs(F.Next(F.Box(fills[0])))),
    "GA": lambda fills, agents: F.Implies(F.Stit(agents[0], fills[0]), F.StitAgs(fills[0])),
    "NoF": lambda fills, agents: F.Implies(F.Knows(agents[0], F.Next(fills[0])),
                                           F.Next(F.Knows(agents[0], fills[0]))),
    "Unif-H": lambda fills, agents: F.Implies(F.Diamond(F.Knows(agents[0], fills[0])),
                                              F.Knows(agents[0], F.Diamond(fills[0]))),
    "NX": lambda fills, agents: F.Implies(F.Box(F.Next(fills[0])), F.Next(F.Box(fills[0]))),
    "NY": lambda fills, agents: F.Implies(F.Yesterday(F.Box(fills[0])),
                                          F.Box(F.Yesterday(fills[0]))),
})


def _conj(items):
    out = None
    for x in items:
        out = x if out is None else F.And(out, x)
    return out


def _disj(items):
    out = None
    for x in items:
        out = x if out is None else F.Or(out, x)
    return out


def _ia(fills, agents):
    if len(set(agents)) != len(agents):
        raise DuplicateAgents(f"independence-of-agency schema needs pairwise distinct agents, got {agents}")
    inner = [F.Stit(a, p) for a, p in zip(agents, fills)]
    return F.Implies(_conj([F.Diamond(s) for s in inner]), F.Diamond(_conj(inner)))


def _pc(fills, n, make_stit):
    conjuncts = []
    for k in range(1, n + 1):
        acted = make_stit(fills[k - 1])
        prior = [F.Not(fills[i]) for i in range(k - 1)]
        inner = _conj(prior + [acted]) if prior else acted
        conjuncts.append(F.Diamond(inner))
    return F.Implies(_conj(conjuncts), _disj(fills[:n]))


SCHEMAS = []
for _n in sorted(_BUILDERS):
    _agent_slots = 1 if ("stit)" in _n or "knows)" in _n or _n in
                         ("SET", "NA", "GA", "NoF", "Unif-H")) else 0
    _arity = 2 if _n.endswith(".K") else 1
    SCHEMAS.append(Schema(_n, _arity, _agent_slots,
                          derived=_n in ("NX", "NY")))
SCHEMAS.extend([
    Schema("IA", 0, 0),        # arity and agents set per m at instantiation
    Schema("AgsPC", 0, 0, needs_n=True),
    Schema("APC", 0, 0, needs_n=True, derived=True),
])
SCHEMA_BY_NAME = {s.name: s for s in SCHEMAS}


def instantiate(name, fills, agents=(), n=None):
    """Build the closed formula for schema ``name`` with the given slot
    fills; parametric schemata take ``n`` (cell bound) or a variable agent
    list (independence of agency).
    """
    fills = list(fills)
    agents = list(agents)
    if name == "IA":
        if not agents:
            raise ArityMismatch("IA needs at least one agent")
        if len(fills) != len(agents):
            raise ArityMismatch(f"IA with {len(agents)} agents needs {len(agents)} fills, got {len(fills)}")
        return _ia(fills, agents)
    if name in ("AgsPC", "APC"):
        if n is None or n < 1:
            raise ArityMismatch(f"{name} needs n >= 1")
        if len(fills) != n:
            raise ArityMismatch(f"{name}_{n} needs {n} fills, got {len(fills)}")
        if name == "AgsPC":
            return _pc(fills, n, F.StitAgs)
        if not agents:
            raise ArityMismatch("APC needs an agent")
        return _pc(fills, n, lambda phi: F.Stit(agents[0], phi))
    schema = SCHEMA_BY_NAME.get(name)
    if schema is None:
        raise ArityMismatch(f"unknown schema {name!r}")
    if len(fills) != schema.arity:
        raise ArityMismatch(f"{name} needs {schema.arity} fills, got {len(fills)}")
    if len(agents) < schema.agent_slots:
        raise ArityMismatch(f"{name} needs {schema.agent_slots} agent(s)")
    return _BUILDERS[name](fills, agents)


# ---------------------------------------------------------------------------
# suites

@dataclass
class SuitePolicy:
    max_fill_depth: int = 2
    fills_per_schema: int = 10
    seed: int = 0
    ia_max_agents: int = 3


@dataclass
class Violation:
    model_id: str
    schema: str
    fills: list
    agents: list
    witness: str


@dataclass
class SuiteReport:
    instances_checked: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def lines(self):
        out = [f"instances checked: {self.instances_checked}",
               f"violations: {len(self.violations)}"]
        for v in sorted(self.violations, key=lambda v: (v.model_id, v.schema)):
            out.append(f"  {v.model_id} {v.schema} fills={v.fills} agents={v.agents} witness={v.witness}")
        return out


def saturating_atoms(m):
    """Copy of ``m`` with fresh indicator atoms: one per grand-coalition
    cell, per agent-choice cell, and per epistemic cell.  Returns
    (model, names) where names maps family keys to lists of atoms.
    """
    valuation = {p: set(ws) for p, ws in m.valuation.items()}
    names = {"ags": [], "choice": {}, "epi": {}}
    for i, cell in enumerate(m.choice_ags):
        atom = f"_cAgs{i}"
        valuation[atom] = set(cell)
        names["ags"].append(atom)
    for a in m.agents:
        names["choice"][a] = []
        for i, cell in enumerate(m.sorted_cells(f"choice:{a}")):
            atom = f"_c{a}{i}"
            valuation[atom] = set(cell)
            names["choice"][a].append(atom)
        names["epi"][a] = []
        for i, cell in enumerate(m.sorted_cells(f"epi:{a}")):
            atom = f"_e{a}{i}"
            valuation[atom] = set(cell)
            names["epi"][a].append(atom)
    return m.with_valuation(valuation), names


def _below(rng, n):
    """``rng.randrange(n)``, and the index ``rng.choice`` picks among n, by
    CPython's rule: getrandbits of n's bit length until below n."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _sample_fills(rng, m, policy, count, arity):
    props = sorted(m.valuation) or ["p"]
    return [[random_formula(_below(rng, 1 << 30), policy.max_fill_depth, props, m.agents,
                            reach=(1, 1)) for _ in range(arity)] for _ in range(count)]


def _check_instance(report, m, model_id, name, fills, agents, n=None):
    inst = instantiate(name, fills, agents, n)
    report.instances_checked += 1
    ok, witness = valid_on_model(m, inst)
    if not ok:
        report.violations.append(Violation(model_id, name, [F.to_text(f) for f in fills],
                                           list(agents), witness))


def _checked_models(models, n_bounds):
    """(model id, model, n bound, saturating copy, its atom names) per
    model; a model failing frame validation at its bound is rejected."""
    for mi, m in enumerate(models):
        n = n_bounds[mi] if n_bounds else len(set(m.rel["ags"].values()))
        frame = validate_frame(m, "actual", n)
        if not frame.ok:
            bad = ", ".join(c.condition for c in frame.failed())
            raise InvalidModelInSuite(f"model {mi} fails frame validation: {bad}")
        yield (f"model{mi}", m, n, *saturating_atoms(m))


def soundness_suite(models, policy=None, n_bounds=None):
    """Check every axiom schema of the system over sampled instantiations on
    every model.  Models failing frame validation are rejected up front.
    """
    policy = policy or SuitePolicy()
    rng = random.Random(policy.seed)
    report = SuiteReport()
    for model_id, m, n, sat, names in _checked_models(models, n_bounds):
        for schema in SCHEMAS:
            if schema.derived or schema.name in ("IA", "AgsPC", "APC"):
                continue
            agent_pool = list(m.agents)
            for fills in _sample_fills(rng, m, policy, policy.fills_per_schema, schema.arity):
                agents = [agent_pool[_below(rng, len(agent_pool))]] * schema.agent_slots
                _check_instance(report, m, model_id, schema.name, fills, agents)

        # independence of agency for 1..ia_max_agents pairwise-distinct agents
        for size in range(1, min(policy.ia_max_agents, len(m.agents)) + 1):
            for fills in _sample_fills(rng, m, policy, max(2, policy.fills_per_schema // 2), size):
                agents = rng.sample(list(m.agents), size)
                _check_instance(report, m, model_id, "IA", fills, agents)

        # action cardinality with random and saturating fills
        for fills in _sample_fills(rng, m, policy, policy.fills_per_schema - 1, n):
            _check_instance(report, sat, model_id, "AgsPC", fills, [], n)
        sat_fills = [F.Atom(a) for a in names["ags"][:n]]
        while len(sat_fills) < n:
            sat_fills.append(sat_fills[-1])
        _check_instance(report, sat, model_id, "AgsPC", sat_fills, [], n)
    return report


def derived_theorem_suite(models, policy=None, n_bounds=None):
    """Validity of the derived theorems (settledness/next commutation both
    ways and per-agent action-cardinality) on every model.
    """
    policy = policy or SuitePolicy()
    rng = random.Random(policy.seed + 1)
    report = SuiteReport()
    for model_id, m, n, sat, names in _checked_models(models, n_bounds):
        for name in ("NX", "NY"):
            for fills in _sample_fills(rng, m, policy, policy.fills_per_schema, 1):
                _check_instance(report, m, model_id, name, fills, [])
        for a in m.agents:
            for fills in _sample_fills(rng, m, policy, max(2, policy.fills_per_schema // 2), n):
                _check_instance(report, sat, model_id, "APC", fills, [a], n)
            sat_fills = [F.Atom(x) for x in names["choice"][a][:n]]
            while len(sat_fills) < n:
                sat_fills.append(sat_fills[-1])
            _check_instance(report, sat, model_id, "APC", sat_fills, [a], n)
    return report

