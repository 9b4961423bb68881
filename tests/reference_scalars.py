"""Reference scalar kernel: the original one-``Fraction``-per-term algorithm.

A polynomial is a plain ``dict`` from exponent tuples to nonzero ``Fraction``
coefficients.  These functions are a frozen copy of the arithmetic and
printing that ``genform.scalars`` used before it moved to integer numerators
over a common denominator; the property tests require the library to agree
with them exactly.  Nothing here imports genform.
"""

from fractions import Fraction


def normalize(n, pairs):
    """Canonical terms of a raw term list: duplicates merged, zeros dropped."""
    acc = {}
    for exps, coeff in pairs:
        exps = tuple(exps)
        assert len(exps) == n
        acc[exps] = acc.get(exps, Fraction(0)) + Fraction(coeff)
    return {e: c for e, c in acc.items() if c}


def add(a, b):
    acc = dict(a)
    for exps, c in b.items():
        acc[exps] = acc.get(exps, Fraction(0)) + c
    return {e: c for e, c in acc.items() if c}


def neg(a):
    return {e: -c for e, c in a.items()}


def sub(a, b):
    return add(a, neg(b))


def mul(a, b):
    acc = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            acc[key] = acc.get(key, Fraction(0)) + ca * cb
    return {e: c for e, c in acc.items() if c}


def diff(a, coord):
    acc = {}
    for exps, c in a.items():
        e = exps[coord]
        if e:
            key = exps[:coord] + (e - 1,) + exps[coord + 1:]
            acc[key] = c * e
    return {e: c for e, c in acc.items() if c}


def eval_at(a, point):
    values = [Fraction(v) for v in point]
    total = Fraction(0)
    for exps, c in a.items():
        term = c
        for e, v in zip(exps, values):
            if e:
                term *= v ** e
        total += term
    return total


def _rational_str(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _mono_str(names, exps):
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def poly_str(names, a):
    if not a:
        return "0"
    pieces = []
    for i, exps in enumerate(sorted(a, key=lambda e: (sum(e), tuple(-x for x in e)))):
        coeff = a[exps]
        mono = _mono_str(names, exps)
        if i == 0:
            if not mono:
                pieces.append(_rational_str(coeff))
            elif coeff == 1:
                pieces.append(mono)
            else:
                pieces.append(f"{_rational_str(coeff)}*{mono}")
        else:
            mag = abs(coeff)
            if not mono:
                body = _rational_str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{_rational_str(mag)}*{mono}"
            pieces.append((" - " if coeff < 0 else " + ") + body)
    return "".join(pieces)
