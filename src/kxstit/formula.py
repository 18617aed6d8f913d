"""Abstract syntax, concrete grammar, printing, and structural metrics for the
epistemic Xstit language.

Primitive base: atoms, ~, &, [] (settledness), X (next), Y (last), [a] (agent
stit), [Ags] (grand-coalition stit), K{a} (knowledge).  | -> <> are sugar that
``normalize`` rewrites into the base; the four knowledge-stage macros
(ExAnte, ExInterim, ExPost, Kh) are expanded by the parser itself.

The common-knowledge operator C is an optional extension: ``parse`` rejects it
unless ``allow_common_knowledge=True``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ArityMismatch, CommonKnowledgeDisabled, FormulaSyntaxError, UnknownMacro

RESERVED = {"X", "Y", "C", "Ags"}
MACRO_NAMES = ("ExAnte", "ExInterim", "ExPost", "Kh")


class Formula:
    """Base class; all nodes are immutable and hashable.

    Each node computes its hash once, in its constructor, from its type tag
    and its fields, reading a child's cached hash, so hashing costs the same
    at every depth.  The hash is never pickled: unpickling calls the
    constructor, so a loaded node hashes like one built in the loading
    process.  Equality stays structural.
    """

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def __str__(self):
        return to_text(self)

    def __repr__(self):
        return f"{type(self).__name__}({to_text(self)!r})"


def _node(cls):
    """Make ``cls`` a frozen dataclass node.  ``__hash__`` stays the cached
    one, which ``@dataclass`` would otherwise replace by a recursive field
    hash.  The constructor is the shape class's: it fills the instance dict
    directly, which costs under half of a generated frozen ``__init__`` plus
    a ``__post_init__`` computing the hash.
    """
    cls = dataclass(frozen=True, init=False, repr=False)(cls)
    cls.__hash__ = Formula.__hash__
    cls._tag = cls.__name__
    return cls


class _Unary(Formula):
    def __init__(self, child):
        d = self.__dict__
        d["child"] = child
        d["_hash"] = hash((self._tag, child._hash))


class _AgentUnary(Formula):
    def __init__(self, agent, child):
        d = self.__dict__
        d["agent"] = agent
        d["child"] = child
        d["_hash"] = hash((self._tag, agent, child._hash))


class _Binary(Formula):
    def __init__(self, left, right):
        d = self.__dict__
        d["left"] = left
        d["right"] = right
        d["_hash"] = hash((self._tag, left._hash, right._hash))


@_node
class Atom(Formula):
    name: str

    def __init__(self, name):
        d = self.__dict__
        d["name"] = name
        d["_hash"] = hash(("Atom", name))


@_node
class Not(_Unary):
    child: Formula


@_node
class And(_Binary):
    left: Formula
    right: Formula


@_node
class Or(_Binary):
    left: Formula
    right: Formula


@_node
class Implies(_Binary):
    left: Formula
    right: Formula


@_node
class Box(_Unary):
    child: Formula


@_node
class Diamond(_Unary):
    child: Formula


@_node
class Next(_Unary):
    child: Formula


@_node
class Yesterday(_Unary):
    child: Formula


@_node
class Stit(_AgentUnary):
    agent: str
    child: Formula


@_node
class StitAgs(_Unary):
    child: Formula


@_node
class Knows(_AgentUnary):
    agent: str
    child: Formula


@_node
class CommonKnows(_Unary):
    child: Formula


@_node
class Macro(Formula):
    """Unexpanded knowledge-stage macro; ``expand_macros`` removes these."""

    name: str
    agent: str
    child: Formula

    def __init__(self, name, agent, child):
        d = self.__dict__
        d["name"] = name
        d["agent"] = agent
        d["child"] = child
        d["_hash"] = hash(("Macro", name, agent, child._hash))


BINARY = (And, Or, Implies)
_BIN_SYMBOL = {And: "&", Or: "|", Implies: "->"}


def is_agent_name(token):
    return bool(token) and token not in RESERVED and all(c.isalnum() or c == "_" for c in token) and not token[0].isdigit()


# ---------------------------------------------------------------------------
# printing

def to_text(f):
    """Canonical text: unary operators wrap their argument in parentheses
    (except ~ before an atom or another ~), binary operands are parenthesized
    when they are themselves binary.  parse(to_text(f)) == f.
    """
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        if isinstance(f.child, (Atom, Not)):
            return "~" + to_text(f.child)
        return "~(" + to_text(f.child) + ")"
    if isinstance(f, BINARY):
        return f"{_operand(f.left)} {_BIN_SYMBOL[type(f)]} {_operand(f.right)}"
    if isinstance(f, Box):
        return "[](" + to_text(f.child) + ")"
    if isinstance(f, Diamond):
        return "<>(" + to_text(f.child) + ")"
    if isinstance(f, Next):
        return "X(" + to_text(f.child) + ")"
    if isinstance(f, Yesterday):
        return "Y(" + to_text(f.child) + ")"
    if isinstance(f, Stit):
        return f"[{f.agent}](" + to_text(f.child) + ")"
    if isinstance(f, StitAgs):
        return "[Ags](" + to_text(f.child) + ")"
    if isinstance(f, Knows):
        return f"K{{{f.agent}}}(" + to_text(f.child) + ")"
    if isinstance(f, CommonKnows):
        return "C(" + to_text(f.child) + ")"
    if isinstance(f, Macro):
        return f"{f.name}({f.agent}, {to_text(f.child)})"
    raise TypeError(f"not a formula: {f!r}")


def _operand(f):
    text = to_text(f)
    return f"({text})" if isinstance(f, BINARY) else text


# ---------------------------------------------------------------------------
# parsing

_PUNCT = ("->", "~", "&", "|", "(", ")", "[", "]", "{", "}", "<>", ",")


class _Lexer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        """Return (kind, value, offset) without consuming."""
        self.skip_ws()
        if self.pos >= len(self.text):
            return ("eof", "", self.pos)
        ch = self.text[self.pos]
        for p in _PUNCT:
            if self.text.startswith(p, self.pos):
                return ("punct", p, self.pos)
        if ch.isalnum() or ch == "_":
            j = self.pos
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            return ("name", self.text[self.pos:j], self.pos)
        return ("bad", ch, self.pos)

    def next(self):
        kind, value, offset = self.peek()
        if kind == "bad":
            raise FormulaSyntaxError(f"unexpected character {value!r}", offset)
        self.pos = offset + len(value) if kind != "eof" else offset
        return kind, value, offset

    def expect(self, value, expected_label=None):
        kind, got, offset = self.next()
        if got != value:
            raise FormulaSyntaxError(f"unexpected {got!r}", offset, {expected_label or value})
        return offset


def parse(text, allow_common_knowledge=False):
    """Parse formula text into a macro-free AST.

    Unary operators bind tighter than binary ones; precedence ~ > & > | > ->
    with -> right-associative.  Macros are expanded during parsing, so the
    returned tree is always macro-free.
    """
    lexer = _Lexer(text)
    node = _parse_implies(lexer, allow_common_knowledge)
    kind, value, offset = lexer.peek()
    if kind != "eof":
        raise FormulaSyntaxError(f"trailing input {value!r}", offset, {"end of input"})
    return expand_macros(node)


def _parse_implies(lexer, allow_c):
    left = _parse_or(lexer, allow_c)
    kind, value, _ = lexer.peek()
    if value == "->":
        lexer.next()
        return Implies(left, _parse_implies(lexer, allow_c))
    return left


def _parse_or(lexer, allow_c):
    node = _parse_and(lexer, allow_c)
    while lexer.peek()[1] == "|":
        lexer.next()
        node = Or(node, _parse_and(lexer, allow_c))
    return node


def _parse_and(lexer, allow_c):
    node = _parse_unary(lexer, allow_c)
    while lexer.peek()[1] == "&":
        lexer.next()
        node = And(node, _parse_unary(lexer, allow_c))
    return node


def _parse_unary(lexer, allow_c):
    kind, value, offset = lexer.peek()
    if kind == "eof":
        raise FormulaSyntaxError("unexpected end of input", offset, {"formula"})
    if value == "~":
        lexer.next()
        return Not(_parse_unary(lexer, allow_c))
    if value == "<>":
        lexer.next()
        return Diamond(_parse_unary(lexer, allow_c))
    if value == "[":
        lexer.next()
        kind2, value2, offset2 = lexer.next()
        if value2 == "]":
            return Box(_parse_unary(lexer, allow_c))
        if kind2 != "name":
            raise FormulaSyntaxError(f"unexpected {value2!r}", offset2, {"]", "agent name", "Ags"})
        lexer.expect("]")
        if value2 == "Ags":
            return StitAgs(_parse_unary(lexer, allow_c))
        if not is_agent_name(value2):
            raise FormulaSyntaxError(f"invalid agent name {value2!r}", offset2, {"agent name"})
        return Stit(value2, _parse_unary(lexer, allow_c))
    if value == "(":
        lexer.next()
        node = _parse_implies(lexer, allow_c)
        lexer.expect(")")
        return node
    if kind == "name":
        if value == "X":
            lexer.next()
            return Next(_parse_unary(lexer, allow_c))
        if value == "Y":
            lexer.next()
            return Yesterday(_parse_unary(lexer, allow_c))
        if value == "C":
            if not allow_c:
                raise CommonKnowledgeDisabled(offset)
            lexer.next()
            return CommonKnows(_parse_unary(lexer, allow_c))
        if value == "K":
            lexer.next()
            if lexer.peek()[1] == "{":
                lexer.next()
                kind2, agent, offset2 = lexer.next()
                if kind2 != "name" or not is_agent_name(agent):
                    raise FormulaSyntaxError(f"unexpected {agent!r}", offset2, {"agent name"})
                lexer.expect("}")
                return Knows(agent, _parse_unary(lexer, allow_c))
            return Atom("K")
        lexer.next()
        if lexer.peek()[1] == "(":
            if value not in MACRO_NAMES:
                raise UnknownMacro(value, offset)
            lexer.next()
            kind2, agent, offset2 = lexer.next()
            if kind2 != "name" or not is_agent_name(agent):
                raise FormulaSyntaxError(f"unexpected {agent!r}", offset2, {"agent name"})
            lexer.expect(",")
            body = _parse_implies(lexer, allow_c)
            lexer.expect(")")
            return Macro(value, agent, body)
        if value in RESERVED:
            raise FormulaSyntaxError(f"reserved word {value!r} cannot be an atom", offset, {"atom"})
        return Atom(value)
    raise FormulaSyntaxError(f"unexpected {value!r}", offset, {"formula"})


# ---------------------------------------------------------------------------
# structural operations

def _rebuild(f, *children):
    if isinstance(f, (Atom,)):
        return f
    if isinstance(f, Not):
        return Not(children[0])
    if isinstance(f, And):
        return And(*children)
    if isinstance(f, Or):
        return Or(*children)
    if isinstance(f, Implies):
        return Implies(*children)
    if isinstance(f, Box):
        return Box(children[0])
    if isinstance(f, Diamond):
        return Diamond(children[0])
    if isinstance(f, Next):
        return Next(children[0])
    if isinstance(f, Yesterday):
        return Yesterday(children[0])
    if isinstance(f, Stit):
        return Stit(f.agent, children[0])
    if isinstance(f, StitAgs):
        return StitAgs(children[0])
    if isinstance(f, Knows):
        return Knows(f.agent, children[0])
    if isinstance(f, CommonKnows):
        return CommonKnows(children[0])
    raise TypeError(f"cannot rebuild {f!r}")


def children_of(f):
    if isinstance(f, Atom):
        return ()
    if isinstance(f, BINARY):
        return (f.left, f.right)
    return (f.child,)


def expand_macros(f):
    """Replace every Macro node by its defining formula; idempotent.

    ExAnte(a, p)   -> [](K{a}([](X(p))))
    ExInterim(a,p) -> K{a}([a](X(p)))
    ExPost(a, p)   -> X(K{a}(Y([Ags](X(p)))))
    Kh(a, p)       -> [](K{a}(<>(K{a}([a](X(p))))))
    """
    if isinstance(f, Macro):
        return _unfold(f.name, f.agent, expand_macros(f.child))
    if isinstance(f, Atom):
        return f
    kids = tuple(expand_macros(c) for c in children_of(f))
    if kids == children_of(f):
        return f
    return _rebuild(f, *kids)


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
    idempotent and meaning-preserving under evaluation.
    """
    if isinstance(f, Macro):
        return normalize(expand_macros(f))
    if isinstance(f, Atom):
        return f
    if isinstance(f, Or):
        return Not(And(Not(normalize(f.left)), Not(normalize(f.right))))
    if isinstance(f, Implies):
        return Not(And(normalize(f.left), Not(normalize(f.right))))
    if isinstance(f, Diamond):
        return Not(Box(Not(normalize(f.child))))
    kids = tuple(normalize(c) for c in children_of(f))
    if kids == children_of(f):
        return f
    return _rebuild(f, *kids)


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
    hi, lo = _offsets(f, 0)
    return DepthProfile(max(hi, 0), max(-lo, 0))


def _offsets(f, at):
    hi = lo = at
    if isinstance(f, Next):
        at += 1
    elif isinstance(f, Yesterday):
        at -= 1
    hi = max(hi, at)
    lo = min(lo, at)
    for c in children_of(f):
        chi, clo = _offsets(c, at)
        hi = max(hi, chi)
        lo = min(lo, clo)
    return hi, lo


def subformulas(f):
    """Post-order subformula list, children before parents, structurally
    deduplicated (first occurrence kept).
    """
    seen = {}
    order = []

    def walk(g):
        if g in seen:
            return
        for c in children_of(g):
            walk(c)
        seen[g] = True
        order.append(g)

    walk(f)
    return order

