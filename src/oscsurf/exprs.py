"""Differentiable scalar expressions over the box, vectorized over points.

Composite quantities in the stationary-phase machinery (tangential fields,
their duals, iterated first-order operators) need exact derivatives of
nested products and quotients of field derivatives.  Expressions form a DAG:
nodes memoize their axis derivatives, so repeated differentiation shares
subtrees, and evaluation over a point batch caches per node.

Construction-time simplification (dropping zero terms, folding constants,
killing derivatives past a polynomial's degree) keeps the trees small.
"""

from __future__ import annotations

import numbers

import numpy as np


class Expr:
    __slots__ = ("dim", "_dcache")

    def __init__(self, dim):
        self.dim = dim
        self._dcache = {}

    def d(self, axis):
        """Partial derivative as a new expression (memoized)."""
        if axis not in self._dcache:
            self._dcache[axis] = self._diff(axis)
        return self._dcache[axis]

    def value(self, pts, cache=None):
        if cache is None:
            cache = {}
        key = id(self)
        if key not in cache:
            cache[key] = self._value(pts, cache)
        return cache[key]

    @property
    def is_zero(self):
        return False

    def size(self):
        """Number of distinct nodes reachable from this one."""
        seen = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(node._children())
        return len(seen)

    def _children(self):
        return ()


class Const(Expr):
    __slots__ = ("c",)

    def __init__(self, c, dim):
        super().__init__(dim)
        self.c = c

    @property
    def is_zero(self):
        return self.c == 0

    def _value(self, pts, cache):
        return self.c

    def _diff(self, axis):
        return Const(0.0, self.dim)


class FieldTerm(Expr):
    """A derivative d^alpha of a SmoothField."""

    __slots__ = ("field", "alpha")

    def __init__(self, field, alpha):
        super().__init__(field.dim)
        self.field = field
        self.alpha = tuple(alpha)

    def _value(self, pts, cache):
        return self.field.deriv(self.alpha, pts)

    def _diff(self, axis):
        van = self.field.vanishes_above
        if van is not None and sum(self.alpha) + 1 > van:
            return Const(0.0, self.dim)
        alpha = list(self.alpha)
        alpha[axis] += 1
        return FieldTerm(self.field, alpha)


class Sum(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms, dim):
        super().__init__(dim)
        self.terms = terms

    def _value(self, pts, cache):
        out = self.terms[0].value(pts, cache)
        for t in self.terms[1:]:
            out = out + t.value(pts, cache)
        return out

    def _diff(self, axis):
        return add(*[t.d(axis) for t in self.terms])

    def _children(self):
        return self.terms


class Prod(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        super().__init__(a.dim)
        self.a = a
        self.b = b

    def _value(self, pts, cache):
        return self.a.value(pts, cache) * self.b.value(pts, cache)

    def _diff(self, axis):
        return add(mul(self.a.d(axis), self.b), mul(self.a, self.b.d(axis)))

    def _children(self):
        return (self.a, self.b)


class Quot(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        super().__init__(a.dim)
        self.a = a
        self.b = b

    def _value(self, pts, cache):
        return self.a.value(pts, cache) / self.b.value(pts, cache)

    def _diff(self, axis):
        # (a/b)' = a'/b - (a/b) * b'/b, referencing self keeps the DAG small
        return add(div(self.a.d(axis), self.b),
                   scale(mul(self, div(self.b.d(axis), self.b)), -1.0))

    def _children(self):
        return (self.a, self.b)


class Sqrt(Expr):
    __slots__ = ("a",)

    def __init__(self, a):
        super().__init__(a.dim)
        self.a = a

    def _value(self, pts, cache):
        return np.sqrt(self.a.value(pts, cache))

    def _diff(self, axis):
        return div(self.a.d(axis), scale(self, 2.0))

    def _children(self):
        return (self.a,)


def as_expr(obj, dim=None):
    if isinstance(obj, Expr):
        return obj
    if isinstance(obj, numbers.Number):
        if dim is None:
            raise ValueError("dimension needed to lift a constant")
        return Const(obj, dim)
    # assume a SmoothField
    return FieldTerm(obj, (0,) * obj.dim)


def add(*terms):
    flat = []
    const = 0.0
    dim = terms[0].dim
    for t in terms:
        if t.is_zero:
            continue
        if isinstance(t, Const):
            const = const + t.c
        elif isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    if const != 0.0:
        flat.append(Const(const, dim))
    if not flat:
        return Const(0.0, dim)
    if len(flat) == 1:
        return flat[0]
    return Sum(flat, dim)


def mul(a, b):
    if a.is_zero or b.is_zero:
        return Const(0.0, a.dim)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.c * b.c, a.dim)
    if isinstance(a, Const) and a.c == 1:
        return b
    if isinstance(b, Const) and b.c == 1:
        return a
    return Prod(a, b)


def div(a, b):
    if a.is_zero:
        return Const(0.0, a.dim)
    if isinstance(b, Const):
        return mul(a, Const(1.0 / b.c, a.dim))
    return Quot(a, b)


def scale(a, c):
    return mul(Const(c, a.dim), a)


def evaluate_chunked(expr, pts, chunk=16384):
    """Evaluate over a point batch one block of chunk points at a time, to
    bound the per-node cache memory.  A constant expression gives one value
    per point, in the constant's own dtype, like any other expression."""
    pieces = []
    for start in range(0, max(len(pts), 1), chunk):  # one block if empty
        block = pts[start:start + chunk]
        val = expr.value(block, {})
        pieces.append(np.full(len(block), val) if np.isscalar(val) else val)
    return np.concatenate(pieces)
