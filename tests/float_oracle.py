"""Float evaluation of ring expressions: the tests' independent oracle."""

import math

from couplingdirac.symexpr import SIN
from tuple_ring import unpack


def evaluate(expr, values):
    """Numeric evaluation (floats) of ``expr`` at ``values``, a mapping
    from coordinate names to numbers."""
    total = 0.0
    for (mono, trig), c in expr.terms.items():
        v = float(c)
        for i, e in unpack(mono):
            v *= float(values[expr.patch.coords[i].name]) ** e
        for i, kind, k in trig:
            th = float(values[expr.patch.coords[i].name])
            v *= math.sin(k * th) if kind == SIN else math.cos(k * th)
        total += v
    return total
