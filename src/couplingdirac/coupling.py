"""Geometric data on a fibered patch and its coupling Dirac presentation.

A triple (vertical bivector, connection, horizontal 2-form) determines an
almost-Dirac subbundle of TE + T*E spanned by one generator per coordinate:

    e_a = (hor(d_a), i_{hor(d_a)} Fbar)      for each base coordinate,
    e_u = (-V#(eta^u), eta^u)                for each fiber coordinate,

where eta^u runs over the annihilator coframe of the horizontal
distribution.  ``check_integrability`` decides the four closure conditions
directly on the data; ``verify_closure`` decides them again on the span,
by pairing Courant brackets of generators against all generators.  The two
verdicts agree, and each nonzero pairing is classified by the condition
responsible for it, so a single broken condition is pinpointed from the
bracket table alone.

Sign conventions are fixed once here: with curvature
``hor([X,Y]) - [hor X, hor Y]`` and ``sharp`` contracting the first slot,
the vertical generators need the minus sign above, the graph compatibility
law reads ``sharp(Pi, form) + vf = 0`` per generator, and the nondegenerate
dictionary is ``W = -[F]^{-1}`` (bivector from data) and ``F = -[M]^{-1}``
(data from bivector, M the base-base block).
"""

from __future__ import annotations

from itertools import chain, combinations, product
from math import prod
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    DegenerateInputError,
    DegreeError,
    MalformedDataError,
    NonCasimirError,
    PatchError,
    PatchMismatchError,
)
from .fibered import (
    BaseForm,
    Connection,
    FiberedPatch,
    ann_hor_basis,
    coordinate_curvature,
    d_gamma,
)
from .fractionfield import RatExpr, divide_exact, rat_inverse
from .symexpr import ScalarExpr, _add_terms
from .tensorcalc import (
    CourantSection,
    Multivector,
    _pairing_row,
    _slot_index,
    contract,
    courant_bracket,
    d_scalar,
    lie_derivative,
    schouten,
    sharp,
)

JACOBI = "jacobi"
POISSON_CONNECTION = "poisson_connection"
CURVATURE_IDENTITY = "curvature_identity"
HORIZONTALLY_CLOSED = "horizontally_closed"
# a nonzero <[e_i, e_j], e_k> instantiates CONDITION_ORDER[number of horizontal e's]
CONDITION_ORDER = (JACOBI, POISSON_CONNECTION, CURVATURE_IDENTITY,
                   HORIZONTALLY_CLOSED)


class Witness:
    """A nonzero expression together with the index tuple producing it."""

    __slots__ = ("indices", "expression")

    def __init__(self, indices: Sequence[str], expression):
        self.indices = tuple(indices)
        self.expression = expression

    def as_document(self) -> dict:
        return {"indices": list(self.indices),
                "expression": str(self.expression)}

    def __eq__(self, other):
        return (isinstance(other, Witness) and self.indices == other.indices
                and str(self.expression) == str(other.expression))

    def __repr__(self):
        return f"Witness({','.join(self.indices)}: {self.expression})"


class ConditionReport:
    """Verdict for a single named condition, with failure witnesses."""

    __slots__ = ("name", "witnesses")

    def __init__(self, name: str, witnesses: Iterable[Witness] = ()):
        self.name = name
        self.witnesses = tuple(sorted(witnesses, key=lambda w: w.indices))

    @property
    def passed(self) -> bool:
        return not self.witnesses

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def as_document(self) -> dict:
        return {"name": self.name, "status": self.status,
                "witnesses": [w.as_document() for w in self.witnesses]}

    def __repr__(self):
        return f"ConditionReport({self.name}: {self.status})"


class CheckReport:
    """A bundle of condition verdicts; passes iff every condition does."""

    __slots__ = ("conditions",)

    def __init__(self, conditions: Iterable[ConditionReport]):
        self.conditions = tuple(conditions)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def condition(self, name: str) -> ConditionReport:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def failing(self) -> tuple:
        return tuple(c.name for c in self.conditions if not c.passed)

    def as_document(self) -> dict:
        # a check has no pivots; the key keeps every report's shape fixed
        return {"verdict": self.verdict,
                "conditions": [c.as_document() for c in self.conditions],
                "pivot_denominators": []}

    def __repr__(self):
        body = ", ".join(f"{c.name}={c.status}" for c in self.conditions)
        return f"CheckReport({self.verdict}: {body})"


class GeometricData:
    """Vertical bivector + connection + horizontal 2-form on a fibered patch."""

    __slots__ = ("patch", "vertical_bivector", "connection", "horizontal_form")

    def __init__(self, patch: FiberedPatch, vertical_bivector: Multivector,
                 connection: Connection | None = None,
                 horizontal_form: BaseForm | None = None):
        if not isinstance(patch, FiberedPatch):
            raise PatchError("geometric data needs a fibered patch")
        if connection is None:
            connection = Connection.flat(patch)
        if horizontal_form is None:
            horizontal_form = BaseForm.zero(patch, 2)
        V = vertical_bivector
        if not isinstance(V, Multivector):
            raise MalformedDataError("the vertical part must be a bivector")
        if not isinstance(connection, Connection):
            raise MalformedDataError("the connection must be a Connection")
        if not isinstance(horizontal_form, BaseForm) \
                or horizontal_form.degree != 2:
            raise MalformedDataError("the horizontal part must be a base 2-form")
        if V.patch != patch or connection.patch != patch \
                or horizontal_form.patch != patch:
            raise PatchMismatchError("data pieces live on different patches")
        if V.degree != 2:
            raise DegreeError("the vertical part must be a bivector")
        fiber = set(patch.fiber_indices)
        for key, c in V.items():
            if not set(key) <= fiber:
                bad = ",".join(patch.coords[i].name for i in key)
                raise MalformedDataError(
                    f"bivector component ({bad}) involves base directions")
            if not isinstance(c, ScalarExpr):
                raise MalformedDataError(
                    "bivector coefficients must be plain expressions")
        for c in horizontal_form.comps.values():
            if not isinstance(c, ScalarExpr):
                raise MalformedDataError(
                    "2-form coefficients must be plain expressions")
        self.patch = patch
        self.vertical_bivector = V
        self.connection = connection
        self.horizontal_form = horizontal_form

    def __eq__(self, other):
        return (isinstance(other, GeometricData)
                and self.patch == other.patch
                and self.vertical_bivector == other.vertical_bivector
                and self.connection == other.connection
                and self.horizontal_form == other.horizontal_form)

    def __repr__(self):
        return (f"GeometricData(V={self.vertical_bivector}, "
                f"conn={self.connection}, F={self.horizontal_form})")


class DiracPresentation:
    """Labelled Courant sections split into horizontal/vertical generators.

    Presentations are immutable: assigning an attribute raises
    ``AttributeError``.  ``pairings``, the generator pairings, is computed
    on first use and kept on the presentation, so ``verify_isotropy`` and
    the isotropy guard of ``verify_closure`` evaluate it once between them.
    """

    __slots__ = ("patch", "horizontal", "vertical", "_pairings")

    def __init__(self, patch, horizontal=(), vertical=()):
        horizontal = tuple((str(n), s) for n, s in horizontal)
        vertical = tuple((str(n), s) for n, s in vertical)
        seen = set()
        for name, section in horizontal + vertical:
            if not isinstance(section, CourantSection):
                raise TypeError("generators must be Courant sections")
            if section.patch != patch:
                raise PatchMismatchError(
                    f"generator {name} lives on a different patch")
            if name in seen:
                raise ValueError(f"duplicate generator label {name}")
            seen.add(name)
        object.__setattr__(self, "patch", patch)
        object.__setattr__(self, "horizontal", horizontal)
        object.__setattr__(self, "vertical", vertical)
        object.__setattr__(self, "_pairings", None)

    def __setattr__(self, name, value):
        raise AttributeError(
            f"DiracPresentation is immutable; cannot set {name!r}")

    def labeled(self) -> Iterator[tuple]:
        for name, section in self.horizontal:
            yield "H", name, section
        for name, section in self.vertical:
            yield "V", name, section

    @property
    def sections(self) -> tuple:
        return tuple(s for _, _, s in self.labeled())

    @property
    def pairings(self) -> tuple:
        """``(i, j, pairing_plus(e_i, e_j))`` for every i <= j, in
        ``labeled()`` order.

        Built from one pairing row per generator over the generators' slot
        index: row i holds pairing_plus(e_i, e_j) for the e_j, j >= i, that
        pair with it to nonzero, and every other entry is the patch's zero."""
        if self._pairings is None:
            gens = self.sections
            n = len(gens)
            index = _slot_index(gens)
            zero = self.patch.zero()
            table = []
            for i in range(n):
                row = _pairing_row(gens[i], index, i, n)
                table += [(i, j, row.get(j, zero)) for j in range(i, n)]
            object.__setattr__(self, "_pairings", tuple(table))
        return self._pairings

    def __len__(self):
        return len(self.horizontal) + len(self.vertical)

    def __repr__(self):
        names = ", ".join(n for _, n, _ in self.labeled())
        return f"DiracPresentation({names})"


def tensor_witnesses(T, prefix: tuple = ()) -> list:
    """One witness per nonzero component of ``T``, in index order, located
    by ``prefix`` followed by the component's coordinate names."""
    patch = T.patch
    return [Witness(prefix + tuple(patch.coords[i].name for i in key),
                    T.comps[key])
            for key in sorted(T.comps)]


def check_integrability(data: GeometricData) -> CheckReport:
    """Decide the four closure conditions directly on the data.

    jacobi: the vertical bivector self-commutes under the Schouten
    bracket.  poisson_connection: it is preserved along every horizontal
    coordinate lift.  curvature_identity: the connection's curvature on
    (d_a, d_b) equals the bivector's bundle map applied to d of the
    2-form component F_ab.  horizontally_closed: the twisted Koszul
    differential of the 2-form vanishes.
    """
    patch = data.patch
    V = data.vertical_bivector
    conn = data.connection
    F = data.horizontal_form

    jac = tensor_witnesses(schouten(V, V))

    pres = []
    for a in patch.base_indices:
        moved = lie_derivative(conn.hor(a), V)
        pres += tensor_witnesses(moved, prefix=(patch.coords[a].name,))

    curv = []
    for a, b in combinations(patch.base_indices, 2):
        f_ab = F.coefficient(a, b)
        delta = coordinate_curvature(conn, a, b) \
            - sharp(V, d_scalar(patch, f_ab))
        curv += tensor_witnesses(
            delta, prefix=(patch.coords[a].name, patch.coords[b].name))

    closed = tensor_witnesses(d_gamma(conn, F))

    return CheckReport([
        ConditionReport(JACOBI, jac),
        ConditionReport(POISSON_CONNECTION, pres),
        ConditionReport(CURVATURE_IDENTITY, curv),
        ConditionReport(HORIZONTALLY_CLOSED, closed),
    ])


def build_dirac(data: GeometricData) -> DiracPresentation:
    """Span the almost-Dirac subbundle attached to the data.

    One horizontal generator per base coordinate (its lift, paired with
    the lift's contraction into the horizontal 2-form) and one vertical
    generator per fiber coordinate (minus the bivector image of the
    annihilator coframe element, paired with that element).
    """
    patch = data.patch
    conn = data.connection
    # F's table, read on the total patch, vanishes on vertical vectors and
    # restricts to F on the lifts, so each lift contracts into F itself.
    F = data.horizontal_form
    horizontal = []
    for a in patch.base_indices:
        X = conn.hor(a)
        horizontal.append(
            (patch.coords[a].name, CourantSection(X, contract(X, F))))
    vertical = []
    for u, eta in zip(patch.fiber_indices, ann_hor_basis(conn)):
        vf = -sharp(data.vertical_bivector, eta)
        vertical.append((patch.coords[u].name, CourantSection(vf, eta)))
    return DiracPresentation(patch, horizontal, vertical)


def verify_isotropy(L: DiracPresentation) -> CheckReport:
    """Check all pairwise symmetric pairings vanish and the span is maximal.

    The pairings are read from ``L.pairings``, which is evaluated once per
    presentation.

    Maximality is certified structurally rather than by a rank
    computation: the labels must claim every patch coordinate exactly
    once (horizontal generators claim the vector slot of their label,
    vertical ones the form slot), and the claimed square block must be
    unit triangular: each generator's vector field on the claimed vector
    slots, and a vertical generator's form on the claimed form slots, is
    the Kronecker delta of slot and label, each difference a witness.
    """
    gens = list(L.labeled())
    iso = [Witness((gens[i][1], gens[j][1]), val)
           for i, j, val in L.pairings if val]

    maxi = []
    patch = L.patch
    one = patch.one()
    names = [c.name for c in patch.coords]
    h_claim = [n for k, n, _ in gens if k == "H"]
    v_claim = [n for k, n, _ in gens if k == "V"]
    claimed = h_claim + v_claim
    for name in names:
        if claimed.count(name) == 0:
            maxi.append(Witness(("unclaimed", name), one))
    for name in claimed:
        if claimed.count(name) > 1 or name not in names:
            maxi.append(Witness(("bad_claim", name), one))
    if not maxi:
        zero = patch.zero()
        h_slots = [((patch.index(n),), n) for n in h_claim]
        v_slots = [((patch.index(n),), n) for n in v_claim]
        for kind, name, section in gens:
            checks = [(section.vf.comps, h_slots)]
            if kind == "V":
                checks.append((section.form.comps, v_slots))
            for table, slots in checks:
                for key, slot in slots:
                    got = table.get(key, zero)
                    want = one if slot == name else zero
                    if got != want:
                        maxi.append(Witness((name, slot), got - want))

    return CheckReport([ConditionReport("isotropy", iso),
                        ConditionReport("maximality", maxi)])


def _signed_orbit(i: int, j: int, k: int, val) -> tuple:
    """The six orderings of a totally skew triple with their values."""
    neg = -val
    return (((i, j, k), val), ((j, k, i), val), ((k, i, j), val),
            ((j, i, k), neg), ((i, k, j), neg), ((k, j, i), neg))


def verify_closure(L: DiracPresentation) -> CheckReport:
    """Pair Courant brackets of generators against generators.

    The span is bracket-closed iff every pairing T(i,j,k) = <[e_i,e_j], e_k>
    vanishes (the span is maximal isotropic, so membership equals
    orthogonality).  Each nonzero pairing is filed under the integrability
    condition its generator-kind pattern instantiates, which localizes a
    single broken condition.

    ``courant_bracket`` is the non-skew (Dorfman) bracket, which obeys

        [a,b] + [b,a] = 2 d<a,b>,
        X_a <b,c> = <[a,b],c> + <b,[a,c]>.

    When every generator pairing <e_i,e_j> (i = j included) is the exact
    zero, the first identity makes T skew in its first two slots and the
    second makes it skew in its last two, so T is totally skew: it
    vanishes on repeated indices and one pairing per triple i<j<k
    determines the whole table, each nonzero value standing for the six
    witnesses of its triple (negated for odd orderings).  Expressions are
    canonical, so those witnesses print exactly as direct pairings would.

    A triple needs only one of its three pairs bracketed.  Splitting the
    generators into halves [0, m) and [m, N) with m = ceil(N/2), triple
    i<j<k reads <[e_i,e_j], e_k> when j < m, and otherwise <[e_j,e_k], e_i>,
    which is T(j,k,i) = T(i,j,k) since a cyclic permutation is even.  So
    only pairs inside one half are bracketed: C(m,2) + C(N-m,2) =
    floor((N-1)^2/4) brackets, the fewest pairs meeting every triple
    (Mantel), for C(N,3) pairings.

    Each bracket is paired with the generators in one pass: over an index
    of the generators' vector-field and form slots, one pairing row per
    bracket holds the nonzero <[e_a,e_b], e_c> for the thirds c it is read
    at, so a generator sharing no slot with the bracket costs nothing.
    Still one value is read per triple; ``ConditionReport`` sorts the
    witnesses, so either half lists the orbit from (a, b, c).

    A guard decides this isotropy itself (independently of
    ``check_integrability``) from the presentation's ``pairings`` table,
    which ``verify_isotropy`` shares, and falls back to all N^2 brackets
    and N^3 pairings when a generator pairing is nonzero, as on a
    hand-built presentation.
    """
    gens = list(L.labeled())
    n = len(gens)
    m = (n + 1) // 2
    sections = [s for _, _, s in gens]
    isotropic = not any(val for _, _, val in L.pairings)
    # each bracketed pair (a, b) with the thirds lo <= c < hi it is read at
    if isotropic:
        pairs = chain(((a, b, b + 1, n) for a, b in combinations(range(m), 2)),
                      ((a, b, 0, a) for a, b in combinations(range(m, n), 2)))
    else:
        pairs = ((a, b, 0, n) for a, b in product(range(n), repeat=2))
    index = _slot_index(sections)
    buckets = {name: [] for name in CONDITION_ORDER}
    for a, b, lo, hi in pairs:
        br = courant_bracket(sections[a], sections[b])
        for c, val in _pairing_row(br, index, lo, hi).items():
            orbit = (_signed_orbit(a, b, c, val) if isotropic
                     else (((a, b, c), val),))
            for triple, v in orbit:
                cls = CONDITION_ORDER[sum(gens[t][0] == "H" for t in triple)]
                buckets[cls].append(
                    Witness(tuple(gens[t][1] for t in triple), v))
    return CheckReport([ConditionReport(name, buckets[name])
                        for name in CONDITION_ORDER])


def _scalarize(value, what: str) -> ScalarExpr:
    if isinstance(value, ScalarExpr):
        return value
    try:
        return value.as_scalar()
    except DegenerateInputError as exc:
        raise DegenerateInputError(f"recovered {what} is not polynomial: "
                                   f"{exc}") from exc


def extract_poisson(data: GeometricData) -> Multivector:
    """The bivector whose graph is the span of ``build_dirac(data)``.

    Pi = V + sum_{a<b} W^{ab} hor(d_a) ^ hor(d_b) with [W] = -[F_ab]^{-1}
    = -C/Pf(F), C the Pfaffian adjugate.  An entry -C_ab that Pf(F)
    divides exactly becomes that quotient; every other one stays the
    fraction -C_ab/Pf(F), unreduced, so all fractional coefficients of Pi
    share the one denominator Pf(F) (they are exact wherever it does not
    vanish).  Graph compatibility: sharp(Pi, form) + vf = 0 for every
    generator.

    With hor(d_a) = d_a + sum_u H^u_a d_u, H^u_a = -Gamma^u_a, each pair
    (a, b) adds one term to each entry it reaches, with no wedge formed:
    W^{ab} to Pi^{ab}, W^{ab} H^v_b to Pi^{av} and W^{ba} H^v_a to Pi^{bv}
    (so Pi^{av} = P^{av} = sum_b W^{ab} H^v_b), and W^{ab} (H^u_a H^v_b -
    H^v_a H^u_b) to Pi^{uv} (so Pi^{uv} = V^{uv} + sum_a H^u_a P^{av}).
    The terms are merged into a copy of V's table in increasing (a, b),
    the pairwise sum's order: a running sum that cancels drops its key,
    which decides whether an entry ends a quotient or a fraction over
    Pf(F).
    """
    patch = data.patch
    base = patch.base_indices
    n = len(base)
    F = data.horizontal_form.comps
    zero = patch.zero()
    rows = [[zero] * n for _ in range(n)]
    for pa, pb in combinations(range(n), 2):
        c = F.get((base[pa], base[pb]))
        if c is not None:
            rows[pa][pb], rows[pb][pa] = c, -c
    try:
        (_, pf), adj = rat_inverse(rows, patch)
    except DegenerateInputError as exc:
        raise DegenerateInputError(
            f"degenerate horizontal 2-form: the {n}x{n} determinant "
            f"det[F_ab] vanishes identically") from exc
    H = [{u: h for (u,), h in data.connection.hor(a).comps.items() if u != a}
         for a in base]
    pairs = []
    for pa, pb in combinations(range(n), 2):
        if not adj[pa][pb][1]:
            continue
        w = -adj[pa][pb][1]
        q = divide_exact(w, pf)
        w = RatExpr(w, pf) if q is None else q
        a, b, Ha, Hb = base[pa], base[pb], H[pa], H[pb]
        pairs.append(((a, b), w))
        for v, h in Hb.items():
            pairs.append(((a, v), w * h) if a < v else ((v, a), -(w * h)))
        for u, h in Ha.items():
            pairs.append(((u, b), w * h) if u < b else ((b, u), -(w * h)))
        # one term per fiber entry, K^{uv}_ab = H^u_a H^v_b - H^v_a H^u_b
        for u, v in {(min(x, y), max(x, y)) for x in Ha for y in Hb if x != y}:
            K = Ha[u] * Hb[v] if u in Ha and v in Hb else zero
            if v in Ha and u in Hb:
                K = K - Ha[v] * Hb[u]
            if K:
                pairs.append(((u, v), w * K))
    return Multivector._trusted(patch, 2, _add_terms(
        dict(data.vertical_bivector.comps), pairs))


class DecompositionResult:
    """Recovered geometric data plus the pivot denominators used."""

    __slots__ = ("data", "pivot_denominators")

    def __init__(self, data: GeometricData, pivot_denominators: Sequence = ()):
        self.data = data
        self.pivot_denominators = tuple(pivot_denominators)

    def __repr__(self):
        pivots = ", ".join(str(p) for p in self.pivot_denominators)
        return f"DecompositionResult({self.data!r}, pivots=[{pivots}])"


def decompose_coupling(Pi: Multivector, patch: FiberedPatch) -> DecompositionResult:
    """Split a bivector into geometric data through its base-base block.

    Writing M for the base-base component matrix: the recovered 2-form is
    -[M]^{-1}, the connection solves hor(d_a) = the bivector image of the
    2-form-dual coframe (componentwise G^u_a = -sum_b (M^{-1})_{ab}
    Pi^{bu}), and the vertical bivector is read off the fiber block,
    V^{uv} = Pi^{uv} + sum_a G^u_a Pi^{av}.  Inverse of
    :func:`extract_poisson` on nondegenerate data.

    The base-base and base-fiber coefficients share one denominator D,
    the product of their distinct denominators (one, Pf(F), on the output
    of ``extract_poisson``): with N = D*M and C its Pfaffian adjugate,
    M^{-1} = D*C/Pf(N), and det(M) = (Pf(N)/D^(n/2))^2.  ``rat_inverse``
    hands each Pfaffian of N back as D^e*R, having divided D out of it
    once per subset size where that was exact.  On an extracted bivector
    Pf(N) = D^(n/2-1)*R with R constant and every entry of C is D^(n/2-2)
    times a polynomial, so a 2-form entry is -R_ab/R and a connection sum
    is divided by D*R: no product with D is formed.  In general a power
    of D goes to whichever side of a fraction keeps it whole.  The pivots
    name det(M)'s zero locus: Pf(N)^2 when D = 1; otherwise what remains
    of Pf(N) after dividing D out of it exactly at most n/2 times (the
    first e of them already done by the expansion), plus D itself when
    fewer than n/2 of those divisions succeed.  Constant pivots are
    dropped.
    """
    if not isinstance(patch, FiberedPatch):
        raise PatchError("decomposition needs a fibered patch")
    if Pi.patch != patch:
        raise PatchMismatchError("bivector lives on a different patch")
    if Pi.degree != 2:
        raise DegreeError("decomposition needs a bivector")
    base = patch.base_indices
    fiber = patch.fiber_indices
    n = len(base)
    zero = patch.zero()

    # the rows of the base-base and base-fiber blocks; absent entries are 0
    comps = Pi.comps
    solve = {}
    for a in base:
        for b in (*base, *fiber):
            c = comps.get((a, b) if a < b else (b, a))
            if c is not None:
                c = c if a < b else -c
                solve[(a, b)] = c if isinstance(c, RatExpr) else RatExpr(c)
    # the distinct denominators other than 1, told apart by term table
    one = patch.one()
    dens = []
    for c in solve.values():
        if c.den.terms != one.terms and all(
                c.den.terms != d.terms for d in dens):
            dens.append(c.den)
    D = prod(dens, start=one)
    N = {key: prod((d for d in dens if d.terms != c.den.terms), start=c.num)
         for key, c in solve.items()}
    try:
        (e, R), adj = rat_inverse(
            [[N.get((a, b), zero) for b in base] for a in base], patch,
            D if dens else None)
    except DegenerateInputError as exc:
        raise DegenerateInputError(
            "bivector is not transverse to the fibers: the base-base "
            "block is degenerate") from exc

    def over(num, k, den):
        """D^k*num/den, with the power of D on the side that keeps it whole."""
        if k:
            num, den = (num * D ** k, den) if k > 0 else (num, den * D ** -k)
        return RatExpr(num, den)

    table = {}
    for u in fiber:
        for pa, a in enumerate(base):
            row = [(adj[pa][pb], N[(b, u)]) for pb, b in enumerate(base)
                   if adj[pa][pb][1] and (b, u) in N]
            if not row:
                continue
            low = min(k for (k, _), _ in row)
            g = -sum(((c * D ** (k - low) if k > low else c) * nu
                      for (k, c), nu in row), zero)
            if not g.is_zero():
                table[(u, a)] = _scalarize(over(g, low - e, R),
                                           "connection coefficient")
    conn = Connection(patch, table)

    ftable = {}
    for pa, pb in combinations(range(n), 2):
        k, c = adj[pa][pb]
        if c:
            ftable[(base[pa], base[pb])] = _scalarize(over(-c, 1 + k - e, R),
                                                      "2-form entry")
    F = BaseForm(patch, 2, ftable)

    # V^{uv} = Pi^{uv} + sum_a G^u_a Pi^{av}, with Pi^{av} = N^{av}/D
    vtable = {}
    for u, v in combinations(fiber, 2):
        hor = sum((g * N[(a, v)] for a in base
                   if (g := table.get((u, a))) is not None and (a, v) in N),
                  zero)
        c = comps.get((u, v), zero)
        vtable[(u, v)] = _scalarize(c + RatExpr(hor, D) if hor else c,
                                    "vertical bivector entry")
    V = Multivector(patch, 2, vtable)

    if dens:
        left = n // 2 - e
        while left and (q := divide_exact(R, D)) is not None:
            R, left = q, left - 1
        pivots = [R, D] if left else [R]
    else:
        pivots = [R * R]
    pivots = [p for p in pivots if p.as_rational() is None]
    return DecompositionResult(GeometricData(patch, V, conn, F), pivots)


def equivalent_data(data: GeometricData, potential: BaseForm) -> GeometricData:
    """Shift the 2-form by the twisted differential of a Casimir-valued
    potential 1-form; integrability (and the span's closure verdict) is
    unchanged.
    """
    patch = data.patch
    if not isinstance(potential, BaseForm) or potential.degree != 1:
        raise DegreeError("the potential must be a base 1-form")
    if potential.patch != patch:
        raise PatchMismatchError("potential lives on a different patch")
    V = data.vertical_bivector
    for (a,), c in sorted(potential.items()):
        ham = sharp(V, d_scalar(patch, c))
        if ham:
            name = patch.coords[a].name
            raise NonCasimirError(
                f"potential coefficient on dx:{name} is not a Casimir; "
                f"its Hamiltonian field is {ham}", witness=ham)
    new_form = data.horizontal_form + d_gamma(data.connection, potential)
    return GeometricData(patch, V, data.connection, new_form)


def check_casimir_complex(data: GeometricData, casimirs) -> CheckReport:
    """Verify the twisted differential squares to zero on Casimir-valued
    forms (degree 0 and the coordinate 1-forms), given integrable data.
    """
    patch = data.patch
    conn = data.connection
    V = data.vertical_bivector
    deg0, deg1 = [], []
    for pos, C in enumerate(casimirs):
        if isinstance(C, str):
            C = patch.parse(C)
        ham = sharp(V, d_scalar(patch, C))
        if ham:
            raise NonCasimirError(
                f"listed function {C} is not a Casimir; its Hamiltonian "
                f"field is {ham}", witness=ham)
        label = f"C{pos + 1}"
        square = d_gamma(conn, d_gamma(conn, BaseForm.from_scalar(patch, C)))
        deg0 += tensor_witnesses(square, prefix=(label,))
        for a in patch.base_indices:
            alpha = BaseForm(patch, 1, {(a,): C})
            square = d_gamma(conn, d_gamma(conn, alpha))
            deg1 += tensor_witnesses(
                square, prefix=(label, patch.coords[a].name))
    return CheckReport([ConditionReport("casimir_complex_deg0", deg0),
                        ConditionReport("casimir_complex_deg1", deg1)])


def restrict_to_fiber(data: GeometricData, x0: Mapping) -> Multivector:
    """Evaluate the vertical bivector at a base point, on the fiber patch.

    ``x0`` maps base coordinate names to ``int`` or ``Fraction`` values.
    """
    patch = data.patch
    fiber = patch.fiber_patch()
    table = {}
    for (u, v), c in data.vertical_bivector.items():
        key = (fiber.index(patch.coords[u].name),
               fiber.index(patch.coords[v].name))
        table[key] = c.substitute(x0, fiber)
    return Multivector(fiber, 2, table)
