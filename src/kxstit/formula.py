"""Abstract syntax, concrete grammar, printing, and structural metrics for the
epistemic Xstit language.

Primitive base: atoms, ~, &, [] (settledness), X (next), Y (last), [a] (agent
stit), [Ags] (grand-coalition stit), K{a} (knowledge).  | -> <> are sugar that
``normalize`` rewrites into the base; the four knowledge-stage macros
(ExAnte, ExInterim, ExPost, Kh) are expanded by the parser itself.

The common-knowledge operator C is an optional extension: ``parse`` rejects it
unless ``allow_common_knowledge=True``.
"""

import operator
import re
from dataclasses import dataclass

from .errors import ArityMismatch, CommonKnowledgeDisabled, FormulaSyntaxError, UnknownMacro

RESERVED = {"X", "Y", "C", "Ags"}
MACRO_NAMES = ("ExAnte", "ExInterim", "ExPost", "Kh")


class Formula:
    """Base class; all nodes are immutable and hashable.

    Constructors fill the instance dict directly, and ``__setattr__`` and
    ``__delattr__`` raise AttributeError.  Each shape class names its
    fields once, in constructor order: ``_data``, then ``_children``.

    Each node computes its hash once, in its constructor, from its type tag
    and its fields, reading a child's cached hash, so hashing costs the same
    at every depth.  The hash is never pickled: a node pickles as its
    post-order list of node types and data fields, and unpickling calls the
    constructors, so a loaded node hashes like one built in the loading
    process.  Equality stays structural, and walks a list of node pairs
    instead of recursing, so that deep formulas compare too.
    """

    def __init_subclass__(cls):
        cls._tag = cls.__name__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs = [(self, other)]  # grows while it is walked
        for a, b in pairs:
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            da, db = a.__dict__, b.__dict__
            for name in a._data:
                if da[name] != db[name]:
                    return False
            for name in a._children:
                if da[name] is not db[name]:
                    pairs.append((da[name], db[name]))
        return True

    def __reduce__(self):
        steps = []
        fold(self, lambda g, kids: steps.append((type(g), *map(g.__dict__.get, g._data))))
        return _from_steps, (steps,)

    def __str__(self):
        return to_text(self)

    def __repr__(self):
        return f"{type(self).__name__}({to_text(self)!r})"


def _from_steps(steps):
    """The formula of a post-order list of (node type, *data fields)."""
    values = []
    for cls, *data in steps:
        k = len(values) - len(cls._children)
        data += values[k:]
        del values[k:]
        values.append(cls(*data))
    return values[0]


class _Unary(Formula):
    _data = ()
    _children = ("child",)

    def __init__(self, child):
        d = self.__dict__
        d["child"] = child
        d["_hash"] = hash((self._tag, child._hash))

    def _kids(self):
        return (self.child,)


class _AgentUnary(_Unary):
    _data = ("agent",)

    def __init__(self, agent, child):
        d = self.__dict__
        d["agent"] = agent
        d["child"] = child
        d["_hash"] = hash((self._tag, agent, child._hash))


class _Binary(Formula):
    _data = ()
    _children = ("left", "right")

    def __init__(self, left, right):
        d = self.__dict__
        d["left"] = left
        d["right"] = right
        d["_hash"] = hash((self._tag, left._hash, right._hash))

    def _kids(self):
        return (self.left, self.right)


class Atom(Formula):
    _data = ("name",)
    _children = ()

    def __init__(self, name):
        d = self.__dict__
        d["name"] = name
        d["_hash"] = hash(("Atom", name))

    def _kids(self):
        return ()


class Not(_Unary):
    """``~child``"""


class And(_Binary):
    """``left & right``"""


class Or(_Binary):
    """``left | right``"""


class Implies(_Binary):
    """``left -> right``"""


class Box(_Unary):
    """``[] child``: settled true"""


class Diamond(_Unary):
    """``<> child``: possibly true"""


class Next(_Unary):
    """``X child``"""


class Yesterday(_Unary):
    """``Y child``"""


class Stit(_AgentUnary):
    """``[agent] child``: the agent sees to it"""


class StitAgs(_Unary):
    """``[Ags] child``: the grand coalition sees to it"""


class Knows(_AgentUnary):
    """``K{agent} child``"""


class CommonKnows(_Unary):
    """``C child``"""


class Macro(_Unary):
    """Unexpanded knowledge-stage macro; ``expand_macros`` removes these."""

    _data = ("name", "agent")

    def __init__(self, name, agent, child):
        d = self.__dict__
        d["name"] = name
        d["agent"] = agent
        d["child"] = child
        d["_hash"] = hash(("Macro", name, agent, child._hash))


# the operators of the language; Macro, unary in shape, is not one
UNARY = (Not, Box, Diamond, Next, Yesterday, Stit, StitAgs, Knows, CommonKnows)
BINARY = (And, Or, Implies)
_BIN_SYMBOL = {And: "&", Or: "|", Implies: "->"}


# ---------------------------------------------------------------------------
# the fold

children_of = operator.methodcaller("_kids")  # a node's children, left first


def fold(f, combine):
    """``combine(g, values)`` for each node ``g`` of ``f`` in post-order
    (children before parents, left before right), where ``values`` are the
    results for ``g``'s children; returns the result for ``f``.  The nodes
    are listed root, right, left on an explicit stack, then combined
    backwards over a stack of values, so depth is not bounded by Python's
    recursion limit.  A subtree is visited once per occurrence."""
    order = []
    stack = [f]
    try:
        while stack:
            g = stack.pop()
            order.append(g)
            stack.extend(g._kids())
    except AttributeError:
        raise TypeError(f"not a formula: {g!r}") from None
    values = []
    for g in reversed(order):
        k = len(values) - len(g._children)
        kids = values[k:]
        del values[k:]
        values.append(combine(g, kids))
    return values[0]


def _same_or_rebuilt(g, kids):
    """``g`` itself when ``kids`` are its children, else ``g`` on ``kids``."""
    if all(map(operator.is_, kids, g._kids())):
        return g
    return type(g)(*map(g.__dict__.get, g._data), *kids)


# ---------------------------------------------------------------------------
# printing

_OPEN = {Box: "[](", Diamond: "<>(", Next: "X(", Yesterday: "Y(", StitAgs: "[Ags](",
         CommonKnows: "C(", Not: "~("}


def to_text(f):
    """Canonical text: unary operators wrap their argument in parentheses
    (except ~ before an atom or another ~), binary operands are parenthesized
    when they are themselves binary.  parse(to_text(f)) == f.

    One walk over an explicit stack of nodes and pieces of text, in the
    order they are written, so the time is linear in the length of the
    text and the depth is not bounded by Python's recursion limit.
    """
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        t = type(g)
        if t is str:
            out.append(g)
        elif t is Atom:
            out.append(g.name)
        elif t in _BIN_SYMBOL:
            symbol = f" {_BIN_SYMBOL[t]} "
            if isinstance(g.right, BINARY):
                stack += ")", g.right, symbol + "("
            else:
                stack += g.right, symbol
            if isinstance(g.left, BINARY):
                stack += ")", g.left, "("
            else:
                stack.append(g.left)
        elif t is Not and isinstance(g.child, (Atom, Not)):
            out.append("~")
            stack.append(g.child)
        elif isinstance(g, Formula):
            out.append(_OPEN.get(t) or (f"[{g.agent}](" if t is Stit else
                                        f"K{{{g.agent}}}(" if t is Knows else
                                        f"{g.name}({g.agent}, "))
            stack += ")", g.child
        else:
            raise TypeError(f"not a formula: {g!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# parsing

# one token per match: punctuation, a name, or any other character, which is
# an error wherever the parser meets it
_TOKEN = re.compile(r"\s*(?:(->|<>|[~&|()\[\]{},])|(\w+)|(\S))")
_NAME, _BAD = 2, 3
# binary operators: (class, precedence, least precedence reduced before it);
# -> is right-associative
_BINARY_OPS = {"&": (And, 3, 3), "|": (Or, 2, 2), "->": (Implies, 1, 2)}
_PREFIX = 4  # the tag of a pending prefix operator; 0 tags an open group
_PREFIX_OPS = {"~": Not, "<>": Diamond, "X": Next, "Y": Yesterday, "C": CommonKnows}


def _read(token, value=None):
    """``token``, unless it is no token or other than a given ``value``."""
    kind, got, offset = token
    if kind == _BAD:
        raise FormulaSyntaxError(f"unexpected character {got!r}", offset)
    if value is not None and got != value:
        raise FormulaSyntaxError(f"unexpected {got!r}", offset, {value})
    return token


def _agent(token):
    """The agent name of ``token``, which follows ``K{`` or opens a macro."""
    kind, agent, offset = _read(token)
    if kind != _NAME or agent in RESERVED or agent[0].isdigit():
        raise FormulaSyntaxError(f"unexpected {agent!r}", offset, {"agent name"})
    return agent


def parse(text, allow_common_knowledge=False):
    """Parse formula text into a macro-free AST.

    Unary operators bind tighter than binary ones; precedence ~ > & > | > ->
    with -> right-associative.  ``K`` not followed by ``{`` is an atom.  One
    regular expression splits the tokens; precedence climbing over explicit
    operator and operand stacks parses them, at any nesting depth.  A text
    with macros is read with Macro nodes, then expanded once.
    """
    tokens = [(m.lastindex, m[m.lastindex], m.start(m.lastindex)) for m in _TOKEN.finditer(text)]
    tokens.append((0, "", len(text)))
    ops = []   # (_PREFIX, class, agent or None), (precedence, class), (0, macro or None)
    operands = []
    macros = False
    i = 0
    while True:
        # an operand: prefix operators up to an atom or an opening parenthesis
        kind, value, offset = tokens[i]
        i += 1
        if value in _PREFIX_OPS:
            if value == "C" and not allow_common_knowledge:
                raise CommonKnowledgeDisabled(offset)
            ops.append((_PREFIX, _PREFIX_OPS[value], None))
            continue
        if value == "(":
            ops.append((0, None))
            continue
        if value == "[":
            kind, value, offset = _read(tokens[i])
            if value == "]":
                ops.append((_PREFIX, Box, None))
                i += 1
                continue
            if kind != _NAME:
                raise FormulaSyntaxError(f"unexpected {value!r}", offset, {"]", "agent name", "Ags"})
            _read(tokens[i + 1], "]")
            if value != "Ags" and (value in RESERVED or value[0].isdigit()):
                raise FormulaSyntaxError(f"invalid agent name {value!r}", offset, {"agent name"})
            ops.append((_PREFIX, StitAgs, None) if value == "Ags" else (_PREFIX, Stit, value))
            i += 2
            continue
        if kind != _NAME:
            raise FormulaSyntaxError(f"unexpected {value!r}" if kind else "unexpected end of input",
                                     offset, {"formula"})
        if value == "K" and tokens[i][1] == "{":
            agent = _agent(tokens[i + 1])
            _read(tokens[i + 2], "}")
            ops.append((_PREFIX, Knows, agent))
            i += 3
            continue
        if value != "K" and tokens[i][1] == "(":
            if value not in MACRO_NAMES:
                raise UnknownMacro(value, offset)
            agent = _agent(tokens[i + 1])
            _read(tokens[i + 2], ",")
            ops.append((0, (value, agent)))
            macros = True
            i += 3
            continue
        if value in RESERVED:
            raise FormulaSyntaxError(f"reserved word {value!r} cannot be an atom", offset, {"atom"})
        f = Atom(value)
        # the operand is complete: apply the prefix operators before it, then
        # read a binary operator, or close groups while the text closes them
        while True:
            while ops and ops[-1][0] == _PREFIX:
                _, cls, agent = ops.pop()
                f = cls(f) if agent is None else cls(agent, f)
            kind, value, offset = tokens[i]
            op = _BINARY_OPS.get(value)
            if op is not None:
                cls, prec, least = op
                while ops and ops[-1][0] >= least:
                    f = ops.pop()[1](operands.pop(), f)
                ops.append((prec, cls))
                operands.append(f)
                i += 1
                break
            while ops and ops[-1][0]:
                f = ops.pop()[1](operands.pop(), f)
            if not ops:
                if kind:
                    raise FormulaSyntaxError(f"trailing input {value!r}", offset,
                                             {"end of input"})
                return expand_macros(f) if macros else f
            _read(tokens[i], ")")
            i += 1
            macro = ops.pop()[1]
            if macro is not None:
                f = Macro(*macro, f)


# ---------------------------------------------------------------------------
# structural operations

def expand_macros(f):
    """Replace every Macro node by its defining formula; idempotent.

    ExAnte(a, p)   -> [](K{a}([](X(p))))
    ExInterim(a,p) -> K{a}([a](X(p)))
    ExPost(a, p)   -> X(K{a}(Y([Ags](X(p)))))
    Kh(a, p)       -> [](K{a}(<>(K{a}([a](X(p))))))
    """
    return fold(f, _expanded)


def _expanded(g, kids):
    if type(g) is Macro:
        return _unfold(g.name, g.agent, kids[0])
    return _same_or_rebuilt(g, kids)


def _unfold(name, a, body):
    """The definition of macro ``name`` for agent ``a`` around ``body``,
    which is left as it is.
    """
    if name == "ExAnte":
        return Box(Knows(a, Box(Next(body))))
    if name == "ExInterim":
        return Knows(a, Stit(a, Next(body)))
    if name == "ExPost":
        return Next(Knows(a, Yesterday(StitAgs(Next(body)))))
    if name == "Kh":
        return Box(Knows(a, Diamond(Knows(a, Stit(a, Next(body))))))
    raise ArityMismatch(f"unknown macro {name}")


def normalize(f):
    """Rewrite | -> <> into the primitive base (~, &, [], X, Y, stit, K);
    idempotent and meaning-preserving under evaluation.  Macros are
    expanded first.
    """
    return fold(expand_macros(f), _normal)


def _normal(g, kids):
    t = type(g)
    if t is Or:
        return Not(And(Not(kids[0]), Not(kids[1])))
    if t is Implies:
        return Not(And(kids[0], Not(kids[1])))
    if t is Diamond:
        return Not(Box(Not(kids[0])))
    return _same_or_rebuilt(g, kids)


@dataclass(frozen=True)
class DepthProfile:
    """Net temporal displacement of a formula: how far forward and backward
    (in X/Y steps) its evaluation can wander from the evaluation world.
    """

    forward_reach: int
    backward_reach: int


def depth_profile(f):
    """Maximum and |minimum| of the running X-minus-Y offset over all
    root-to-leaf paths; non-temporal operators contribute zero.
    """
    return DepthProfile(*fold(f, _reach))


def _reach(g, kids):
    """(forward, backward) reach of ``g``: its greatest and -least offset."""
    step = 1 if type(g) is Next else -1 if type(g) is Yesterday else 0
    fwd = max(fwd for fwd, _ in kids) if kids else 0
    bwd = max(bwd for _, bwd in kids) if kids else 0
    return max(fwd + step, 0), max(bwd - step, 0)


def subformulas(f):
    """Post-order subformula list, children before parents, structurally
    deduplicated (first occurrence kept).
    """
    seen = {}
    fold(f, lambda g, kids: seen.setdefault(g, None))
    return list(seen)
