"""Ordinal arithmetic in Cantor normal form below w^w.

Ordinals are finite sums  w^e1*c1 + ... + w^ek*ck  with natural exponents
strictly decreasing and positive natural coefficients.  This class is closed
under addition, so overflow past w^w cannot arise from the operations here.
Also provides transfinite sequences indexed by such ordinals, their
(possibly infinite) concatenation, and a canonical bijection between an
infinite ordinal below w^w and the naturals.
"""

from __future__ import annotations

import functools
import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import isqrt
from typing import Any, Callable, Iterable, Iterator

from .errors import (
    EmptyComponent,
    MissingLimitLength,
    NoOmegaBijection,
    OrdinalOverflow,
    SsupOfEmpty,
)
from .records import Record

_new_ordinal = object.__new__
_set_field = object.__setattr__  # a value class's fields, past its refusing __setattr__


@functools.total_ordering
class Ordinal(Record):
    """An ordinal below w^w in Cantor normal form.

    ``terms`` is a tuple of (exponent, coefficient) pairs with exponents
    strictly decreasing and coefficients positive; the empty tuple is 0.
    Tuple comparison of ``terms`` is exactly the ordinal order.
    """

    __slots__ = ("terms",)
    terms: tuple[tuple[int, int], ...]

    def __init__(self, terms: tuple[tuple[int, int], ...] = ()):
        _set_field(self, "terms", terms)
        prev = None
        for e, c in terms:
            if not (type(e) is int and e >= 0):
                raise ValueError(f"bad exponent {e!r}")
            if not (type(c) is int and c >= 1):
                raise ValueError(f"bad coefficient {c!r}")
            if prev is not None and e >= prev:
                raise ValueError("exponents must be strictly decreasing")
            prev = e

    # -- constructors -------------------------------------------------

    @staticmethod
    def _of(terms: tuple) -> "Ordinal":
        """An Ordinal on ``terms`` without the checks of ``__init__``.

        Only for terms that are valid CNF by construction, such as the
        results of arithmetic on valid Ordinals; ``Ordinal(...)``,
        ``parse_cnf`` and ``from_int`` on anything but a natural check.
        """
        o = _new_ordinal(Ordinal)
        _set_field(o, "terms", terms)
        return o

    @staticmethod
    def zero() -> "Ordinal":
        return Ordinal(())

    @staticmethod
    def from_int(n: int) -> "Ordinal":
        if type(n) is int:
            if n < 0:
                raise ValueError("ordinals are non-negative")
            return Ordinal._of(((0, n),)) if n else ZERO
        return Ordinal(((0, n),))  # refused there: a coefficient is an int

    @staticmethod
    def omega(coeff: int = 1) -> "Ordinal":
        return Ordinal(((1, coeff),))

    @staticmethod
    def omega_power(exp: int, coeff: int = 1) -> "Ordinal":
        return Ordinal(((exp, coeff),) if coeff else ())

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_finite(self) -> bool:
        return not self.terms or self.terms[0][0] == 0

    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0] == 0

    def is_limit(self) -> bool:
        return bool(self.terms) and self.terms[-1][0] >= 1

    def to_int(self) -> int:
        terms = self.terms
        if not terms:
            return 0
        if terms[0][0]:
            raise ValueError(f"{self} is infinite")
        return terms[0][1]

    # -- order ----------------------------------------------------------

    def __lt__(self, other: "Ordinal") -> bool:
        return self.terms < other.terms

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Ordinal") -> "Ordinal":
        return ord_add(self, other)

    def succ(self) -> "Ordinal":
        return ord_add(self, ONE)

    def pred(self) -> "Ordinal":
        if not self.is_successor():
            raise ValueError(f"{self} is not a successor")
        e, c = self.terms[-1]
        head = self.terms[:-1]
        return Ordinal._of(head + ((0, c - 1),) if c > 1 else head)

    # -- text format -----------------------------------------------------

    def __str__(self) -> str:
        return format_cnf(self)

    def __repr__(self) -> str:
        return f"Ordinal({format_cnf(self)!r})"


ZERO = Ordinal.zero()
ONE = Ordinal.from_int(1)
OMEGA = Ordinal.omega()


def ord_of(x: "Ordinal | int") -> Ordinal:
    """Coerce a non-negative int to an Ordinal; pass Ordinals through."""
    if isinstance(x, Ordinal):
        return x
    return Ordinal.from_int(x)


def ord_add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Standard non-commutative ordinal addition on CNF."""
    if not b.terms:
        return a
    e = b.terms[0][0]
    kept = [t for t in a.terms if t[0] > e]
    merged = list(b.terms)
    for t in a.terms:
        if t[0] == e:
            merged[0] = (e, t[1] + b.terms[0][1])
            break
    return Ordinal._of(tuple(kept) + tuple(merged))


def ord_sub_left(a: Ordinal, b: Ordinal) -> Ordinal:
    """The unique o with a + o = b, for a <= b (order type of [a, b))."""
    at, bt = a.terms, b.terms
    if bt < at:
        raise ValueError(f"cannot left-subtract {a} from smaller {b}")
    k = 0
    while k < len(at) and k < len(bt) and at[k] == bt[k]:
        k += 1
    if k == len(at):
        return Ordinal._of(bt[k:])
    # first differing term: b must dominate there
    e_a, c_a = at[k]
    e_b, c_b = bt[k]
    if e_b > e_a:
        return Ordinal._of(bt[k:])
    # e_b == e_a with c_b > c_a (anything else contradicts a <= b)
    return Ordinal._of(((e_a, c_b - c_a),) + bt[k + 1:])


def format_cnf(a: Ordinal) -> str:
    """Render as e.g. ``"w^2*3 + w*1 + 4"``; zero is ``"0"``."""
    return " + ".join([f"w^{e}*{c}" if e > 1 else f"w*{c}" if e else str(c)
                       for e, c in a.terms]) or "0"


_CNF_TERM = re.compile(r"w(?:\^([0-9]+))?(?:\*([0-9]+))?|([0-9]+)")


def parse_cnf(text: str) -> Ordinal:
    """Parse the ``format_cnf`` notation back into an Ordinal: terms
    ``w^E*C``, ``w^E``, ``w*C``, ``w`` and ``N`` in ASCII digits, joined by
    ``+`` with optional spaces around each term; ``"0"`` is zero."""
    if text.strip(" ") == "0":
        return ZERO
    terms = []
    for part in text.split("+"):
        m = _CNF_TERM.fullmatch(part.strip(" "))
        if m is None:
            raise ValueError(f"cannot parse {text!r} as CNF terms joined by '+'")
        e, c, n = m.groups()
        terms.append((0, int(n)) if n else (int(e or 1), int(c or 1)))
    return Ordinal(tuple(terms))


# ---------------------------------------------------------------------------
# strong suprema
# ---------------------------------------------------------------------------

class OrdinalsBelow(Record):
    """The set {o : o < bound}, a lazily enumerable set of ordinals.

    Stands in for infinite inputs to ``ssup``: the set is presented by its
    bound rather than by an (impossible) exhaustive listing.
    """

    __slots__ = ("bound",)
    bound: Ordinal

    def __iter__(self) -> Iterator[Ordinal]:
        # finite bounds enumerate exactly; infinite ones yield 0, 1, 2, ...
        n = ZERO
        while n < self.bound:
            yield n
            n = n.succ()


def ssup(ys: "Iterable[Ordinal] | OrdinalsBelow") -> Ordinal:
    """Least ordinal strictly greater than every element of ys.

    A set with a maximum yields max + 1; a set without one yields its
    supremum.  Finite collections always have a maximum; the no-maximum case
    is reached through an ``OrdinalsBelow`` presentation with a limit bound.
    """
    if isinstance(ys, OrdinalsBelow):
        if ys.bound.is_zero():
            raise SsupOfEmpty("ssup of the empty set is undefined")
        return ys.bound
    items = [ord_of(y) for y in ys]
    if not items:
        raise SsupOfEmpty("ssup of the empty set is undefined")
    return max(items).succ()


# ---------------------------------------------------------------------------
# transfinite sequences
# ---------------------------------------------------------------------------

class TransfiniteSeq(Record):
    """A sequence indexed by ordinals below ``length``.

    ``evaluator`` must be pure and defined on every position below
    ``length``; positions are bounds-checked here.
    """

    __slots__ = ("length", "evaluator")
    length: Ordinal
    evaluator: Callable[[Ordinal], Any]

    def at(self, pos: "Ordinal | int") -> Any:
        p = pos if isinstance(pos, Ordinal) else Ordinal.from_int(pos)
        if not p.terms < self.length.terms:
            raise IndexError(f"position {p} not below length {self.length}")
        return self.evaluator(p)

    def restrict(self, length: "Ordinal | int") -> "TransfiniteSeq":
        l = ord_of(length)
        if self.length < l:
            raise IndexError(f"cannot restrict length {self.length} to {l}")
        return TransfiniteSeq(l, self.evaluator)

    @staticmethod
    def from_items(items: Iterable[Any]) -> "TransfiniteSeq":
        data = tuple(items)
        return TransfiniteSeq(Ordinal.from_int(len(data)),
                              lambda p: data[p.to_int()])


def _sigma_offsets(t: TransfiniteSeq, upto: int) -> list[Ordinal]:
    """First offsets of the concatenation: sigma_0 = 0, sigma_{i+1} = sigma_i + len(t_i)."""
    sigmas = [ZERO]
    for _ in range(upto):
        _append_offset(t, sigmas)
    return sigmas


def _append_offset(t: TransfiniteSeq, sigmas: list[Ordinal]) -> None:
    """Append the next offset: sigma_{i+1} = sigma_i + len(t_i), i = len(sigmas) - 1."""
    i = len(sigmas) - 1
    comp = t.at(i)
    if comp.length.is_zero():
        raise EmptyComponent(f"component {i} has length 0")
    sigmas.append(ord_add(sigmas[-1], comp.length))


_PROBE_BLOCKS = 8
_SCAN_CAP = 1_000_000


def concat(t: TransfiniteSeq, limit_length: "Ordinal | None" = None) -> TransfiniteSeq:
    """Concatenate a sequence of nonempty sequences into one sequence.

    Component i occupies positions [sigma_i, sigma_{i+1}) where sigma_0 = 0
    and sigma_{i+1} = sigma_i + length(t_i); the result has length equal to
    the supremum of the sigma sequence.  For a finite outer sequence that
    supremum is computed outright.  For an outer sequence of length w it is
    not finitely computable from the evaluator, so the caller must declare
    it via ``limit_length``; the declaration is checked for consistency
    against the first blocks.
    """
    tau = t.length
    if tau.is_finite():
        sigmas = _sigma_offsets(t, tau.to_int())
        if limit_length is not None and limit_length != sigmas[-1]:
            raise OrdinalOverflow(
                f"declared length {limit_length} but components sum to {sigmas[-1]}")
        limit_length = sigmas[-1]
    else:
        if tau != OMEGA:
            raise OrdinalOverflow(
                f"outer length {tau} unsupported (finite or w only)")
        if limit_length is None:
            raise MissingLimitLength(
                "infinite concatenation needs a declared total length")
        if not limit_length.is_limit():
            raise OrdinalOverflow(
                f"declared length {limit_length} of an infinite concatenation must be a limit")
        sigmas = _sigma_offsets(t, _PROBE_BLOCKS)
        for s in sigmas[1:]:
            if not s < limit_length:
                raise OrdinalOverflow(
                    f"block offset {s} reaches declared length {limit_length}")

    def evaluate(pos: Ordinal) -> Any:
        # a finite outer sequence has every offset already, so only an
        # infinite one grows the list
        while not pos < sigmas[-1]:
            if len(sigmas) > _SCAN_CAP + 1:
                raise OrdinalOverflow(
                    f"position {pos} not reached after {_SCAN_CAP} blocks")
            _append_offset(t, sigmas)
        i = bisect_right(sigmas, pos) - 1
        return t.at(i).at(ord_sub_left(sigmas[i], pos))

    return TransfiniteSeq(limit_length, evaluate)


# ---------------------------------------------------------------------------
# bijection with the naturals
# ---------------------------------------------------------------------------

def cantor_pair(x: int, y: int) -> int:
    s = x + y
    return s * (s + 1) // 2 + y


def cantor_unpair(z: int) -> tuple[int, int]:
    s = (isqrt(8 * z + 1) - 1) // 2
    y = z - s * (s + 1) // 2
    return s - y, y


@dataclass(frozen=True)
class OmegaBijection:
    """Mutually inverse maps between {o : o < bound} and the naturals."""

    bound: Ordinal
    forward: Callable[[Ordinal], int]
    backward: Callable[[int], Ordinal]


def omega_bijection(a: "Ordinal | int") -> OmegaBijection:
    """Canonical bijection between {o : o < a} and the naturals, for w <= a.

    Layout: ordinals in the finite tail of a map to the first naturals;
    the rest of {o : o < a} splits into blocks [b, b + w^e) along the
    CNF of a, one per unit of each infinite term w^e*c, and the blocks
    interleave round-robin.  Within a block, b + r (r < w^e) codes the
    coefficient vector (r_{e-1}, ..., r_0) of r by iterated diagonal
    pairing, r_0 innermost.  Every exponent of b is at least e, above
    every exponent of r, so the terms of b + r are b's followed by r's:
    both maps work on ``terms`` tuples and build no intermediate Ordinal,
    and find a block's term by one bisection over a's terms, not its blocks.

    ``a`` and the argument of ``forward`` are what ``ord_of`` takes;
    ``backward`` takes an ``int`` (not a ``bool``).
    """
    a = ord_of(a)
    if a < OMEGA:
        raise NoOmegaBijection(f"{a} is finite")

    top = a.terms
    m = len(top) - (top[-1][0] == 0)  # the infinite terms w^e*c; a finite one is last
    heads = [top[:t] for t in range(m)]  # per infinite term: the terms of a before it
    firsts = [0, *accumulate(c for _, c in top[:m])]  # its first block's index, then k
    k = firsts[-1]
    fin_count = top[-1][1] if m < len(top) else 0
    fin_start = top[:m]
    fin_base = Ordinal._of(fin_start)

    def forward(o: "Ordinal | int") -> int:
        if o.__class__ is not Ordinal:
            o = ord_of(o)
        t = o.terms
        if not t < top:
            raise ValueError(f"{o} is not below {a}")
        if fin_count and not t < fin_start:  # fin_base + m: its last term is (0, m)
            return t[-1][1] if len(t) > len(fin_start) else 0
        u = bisect_right(heads, t) - 1  # the term whose head t extends
        h, e, i = len(heads[u]), top[u][0], firsts[u]
        if len(t) > h and t[h][0] == e:  # in its block j > 0, which starts w^e*j past the head
            i += t[h][1]
            h += 1
        rest = t[h:]  # r's terms, exponents below e
        j = len(rest) - 1
        v = 0
        if j >= 0 and rest[j][0] == 0:
            v = rest[j][1]
            j -= 1
        for x in range(1, e):  # v = pair(r_x, v), r_x = 0 where r has no term
            s = v
            if j >= 0 and rest[j][0] == x:
                s += rest[j][1]
                j -= 1
            v += s * (s + 1) // 2
        return fin_count + v * k + i

    def backward(n: int) -> Ordinal:
        if n.__class__ is not int:
            raise ValueError(f"bad index {n!r}")
        if n < 0:
            raise ValueError("negative index")
        if n < fin_count:
            return Ordinal._of(fin_start + ((0, n),)) if n else fin_base
        v, i = divmod(n - fin_count, k)
        u = bisect_right(firsts, i) - 1  # the term of block i, its j-th block
        e, j = top[u][0], i - firsts[u]
        new = [(e, j)] if j else []
        for x in range(e - 1, 0, -1):  # (r_x, v) = unpair(v)
            s = (isqrt(8 * v + 1) - 1) // 2
            y = v - s * (s + 1) // 2
            if s > y:
                new.append((x, s - y))
            v = y
        if v:
            new.append((0, v))
        return Ordinal._of(heads[u] + tuple(new))

    return OmegaBijection(a, forward, backward)
