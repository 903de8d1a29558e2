"""The tuple-key ring: the tests' reference for the packed-key kernels.

``symexpr`` keys a term by ``(packed monomial, trig word)``, where the
monomial is one ``int`` with a W-bit exponent field per coordinate.  The
kernels here are the ones it replaced, on term tables keyed by
``(((coordinate, exponent), ...), trig word)`` with the pairs in
increasing coordinate order: the monomial product merges exponent maps,
the derivative edits one pair, the printer sorts the tuple keys.  They
share only the trig-word product with the library, and keep their
tables canonical with their own merge.
"""

from fractions import Fraction

from couplingdirac.symexpr import COS, SIN, _WIDTH, _mul_trig


def pack(mono) -> int:
    """The packed monomial of ``((coordinate, exponent), ...)``."""
    return sum(e << (_WIDTH * i) for i, e in mono)


def unpack(m: int) -> tuple:
    """The ``((coordinate, exponent), ...)`` pairs of a packed monomial,
    read field by field."""
    out, i = [], 0
    while m:
        e = m % (1 << _WIDTH)
        if e:
            out.append((i, e))
        m >>= _WIDTH
        i += 1
    return tuple(out)


def key(mono=(), trig=()) -> tuple:
    """The packed term key of a tuple monomial and a trig word."""
    return (pack(mono), tuple(trig))


def table(e) -> dict:
    """The term table of an expression, keyed by tuple monomials."""
    return {(unpack(m), trig): c for (m, trig), c in e.terms.items()}


def packed(tab: dict) -> dict:
    """A tuple-keyed table keyed by packed monomials."""
    return {(pack(mono), trig): c for (mono, trig), c in tab.items()}


def _merge(pairs) -> dict:
    out = {}
    for k, c in pairs:
        out[k] = out.get(k, 0) + c
    return {k: (c.numerator if type(c) is Fraction and c.denominator == 1
                else c) for k, c in out.items() if c}


def mul_mono(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    exps = {}
    for i, e in m1:
        exps[i] = exps.get(i, 0) + e
    for i, e in m2:
        exps[i] = exps.get(i, 0) + e
    return tuple(sorted(exps.items()))


def add(a: dict, b: dict) -> dict:
    return _merge([*a.items(), *b.items()])


def mul(a: dict, b: dict) -> dict:
    pairs = []
    for (m1, t1), c1 in a.items():
        for (m2, t2), c2 in b.items():
            mono = mul_mono(m1, m2)
            pairs += [((mono, trig), c1 * c2 * w)
                      for trig, w in _mul_trig(t1, t2)]
    return _merge(pairs)


def power(a: dict, n: int) -> dict:
    out = {((), ()): 1}
    for _ in range(n):
        out = mul(out, a)
    return out


def differentiate(tab: dict, patch, i: int) -> dict:
    pairs = []
    for (mono, trig), c in tab.items():
        if not patch.coords[i].angle:
            for pos, (j, e) in enumerate(mono):
                if j == i:
                    rest = mono[:pos] + ((j, e - 1),) * (e > 1) + mono[pos + 1:]
                    pairs.append(((rest, trig), c * e))
        else:
            for pos, (j, kind, k) in enumerate(trig):
                if j == i:
                    newkind = COS if kind == SIN else SIN
                    factor = k if kind == SIN else -k
                    rest = trig[:pos] + ((j, newkind, k),) + trig[pos + 1:]
                    pairs.append(((mono, rest), c * factor))
    return _merge(pairs)


def substitute(tab: dict, patch, values: dict, target) -> dict:
    point = {patch.index(name): v for name, v in values.items()}
    where = {i: target.index(c.name) for i, c in enumerate(patch.coords)
             if i not in point and c.name in target}
    pairs = []
    for (mono, trig), c in tab.items():
        for i, e in mono:
            if i in point:
                c = c * point[i] ** e
        pairs.append(((tuple(sorted((where[i], e) for i, e in mono
                                    if i not in point)),
                       tuple(sorted((where[i], kind, k)
                                    for i, kind, k in trig))), c))
    return _merge(pairs)


def coordinates_used(tab: dict) -> frozenset:
    return frozenset(i for mono, trig in tab for i, *_ in mono + trig)


def to_str(tab: dict, patch) -> str:
    """The printed form: terms in tuple-key order, each coefficient shown
    unless it is +-1 before a factor."""
    if not tab:
        return "0"
    parts = []
    for n, ((mono, trig), c) in enumerate(sorted(tab.items())):
        factors = []
        for i, e in mono:
            name = patch.coords[i].name
            factors.append(name if e == 1 else f"{name}^{e}")
        for i, kind, k in trig:
            name = patch.coords[i].name
            fn = "sin" if kind == SIN else "cos"
            factors.append(f"{fn}({name if k == 1 else f'{k}*{name}'})")
        if n:
            parts.append(" - " if c < 0 else " + ")
            c = abs(c)
        if not factors or abs(c) != 1 or c < 0:
            factors.insert(0, str(c))
        parts.append("*".join(factors))
    return "".join(parts)
