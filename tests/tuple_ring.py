"""The tuple-key ring: the tests' reference for the packed-key kernels.

``symexpr`` keys a term by one ``int`` with a W-bit field per coordinate:
a non-angle coordinate's field holds its exponent, an angle's holds
``2k + kind`` for its factor ``cos(k*t)`` or ``sin(k*t)`` (0 for none).
The kernels here are the ones it replaced, on term tables keyed by
``(((coordinate, exponent), ...), ((angle, kind, frequency), ...))``
with both tuples in increasing coordinate order: the monomial product
merges exponent maps, the trig-word product rewrites each shared angle
by the product-to-sum identities, the derivative edits one pair or
triple, the printer sorts the tuple keys.  They share no kernel with the
library, and keep their tables canonical with their own merge.
"""

from fractions import Fraction

from couplingdirac.symexpr import COS, SIN, _WIDTH


def pack(mono) -> int:
    """The packed monomial of ``((coordinate, exponent), ...)``."""
    return sum(e << (_WIDTH * i) for i, e in mono)


def unpack(m: int) -> tuple:
    """The ``((coordinate, field), ...)`` pairs of a packed key's nonzero
    fields, read field by field."""
    out, i = [], 0
    while m:
        e = m % (1 << _WIDTH)
        if e:
            out.append((i, e))
        m >>= _WIDTH
        i += 1
    return tuple(out)


def key(mono=(), trig=()) -> int:
    """The packed term key of a tuple monomial and a trig word."""
    return pack(mono) + pack((i, 2 * k + kind) for i, kind, k in trig)


def split(k: int, patch) -> tuple:
    """The tuple monomial and trig word of the packed key ``k``."""
    fields = unpack(k)
    return (tuple((i, f) for i, f in fields if not patch.coords[i].angle),
            tuple((i, f % 2, f // 2) for i, f in fields
                  if patch.coords[i].angle))


def table(e) -> dict:
    """The term table of an expression, keyed by tuple monomials and trig
    words."""
    return {split(k, e.patch): c for k, c in e.terms.items()}


def packed(tab: dict) -> dict:
    """A tuple-keyed table keyed by packed keys."""
    return {key(mono, trig): c for (mono, trig), c in tab.items()}


def _combine_same_angle(kind1: int, k1: int, kind2: int, k2: int):
    """Product-to-sum rewrite of two factors on the same angle.

    Returns a list of (kind_or_None, frequency, weight); ``None`` means
    the factor collapsed to the constant 1 (frequency zero cosine).
    """
    lo, hi = abs(k1 - k2), k1 + k2
    half = Fraction(1, 2)
    if kind1 == COS and kind2 == COS:
        out = [(COS, lo, half), (COS, hi, half)]
    elif kind1 == SIN and kind2 == SIN:
        out = [(COS, lo, half), (COS, hi, -half)]
    else:
        # sin(a)cos(b) = (sin(a+b) + sin(a-b)) / 2, with sin on frequency ka
        ka = k1 if kind1 == SIN else k2
        kb = k2 if kind1 == SIN else k1
        d = ka - kb
        out = [(SIN, hi, half)]
        if d > 0:
            out.append((SIN, d, half))
        elif d < 0:
            out.append((SIN, -d, -half))
    result = []
    for kind, k, w in out:
        if k == 0:
            if kind == COS:
                result.append((None, 0, w))
            # sin(0) contributes nothing
        else:
            result.append((kind, k, w))
    return result


def mul_trig(t1, t2):
    """Multiply two trig words; yields (trig_word, weight) branches."""
    branches = [([], 1)]
    i = j = 0
    while i < len(t1) or j < len(t2):
        if j >= len(t2) or (i < len(t1) and t1[i][0] < t2[j][0]):
            fac, i = t1[i], i + 1
            for word, _ in branches:
                word.append(fac)
        elif i >= len(t1) or t2[j][0] < t1[i][0]:
            fac, j = t2[j], j + 1
            for word, _ in branches:
                word.append(fac)
        else:
            idx = t1[i][0]
            pieces = _combine_same_angle(t1[i][1], t1[i][2], t2[j][1], t2[j][2])
            i, j = i + 1, j + 1
            new_branches = []
            for word, w in branches:
                for kind, k, piece_w in pieces:
                    nw = list(word)
                    if kind is not None:
                        nw.append((idx, kind, k))
                    new_branches.append((nw, w * piece_w))
            branches = new_branches
    return [(tuple(word), w) for word, w in branches]


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
                      for trig, w in mul_trig(t1, t2)]
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
