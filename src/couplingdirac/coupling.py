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

from itertools import chain, combinations
from math import prod
from types import MappingProxyType
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
    _d_gamma_table,
    ann_hor_basis,
    d_gamma,
)
from .fractionfield import RatExpr, divide_exact, rat_inverse
from .symexpr import ScalarExpr, _add_terms, _sum_products
from .tensorcalc import (
    CourantSection,
    Multivector,
    _first_partials,
    _merge_indices,
    _pairing_row,
    _products,
    _slot_index,
    contract,
    courant_bracket,
    d_scalar,
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
    ``AttributeError``.  ``pairings``, the nonzero generator pairings, is
    computed on first use and kept on the presentation, so
    ``verify_isotropy`` and the isotropy guard of ``verify_closure``
    evaluate it once between them.
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
    def pairings(self):
        """``{(i, j): pairing_plus(e_i, e_j)}``, read-only, over the pairs
        i <= j, in ``labeled()`` order, that pair to nonzero; empty on an
        isotropic presentation, as on every ``build_dirac`` span.

        Built from one pairing row per generator over the generators' slot
        index: row i holds the nonzero pairing_plus(e_i, e_j), j >= i."""
        if self._pairings is None:
            gens = self.sections
            n = len(gens)
            index = _slot_index(gens)
            table = {(i, j): val for i in range(n) for j, val
                     in _pairing_row(gens[i], index, i, n).items()}
            object.__setattr__(self, "_pairings", MappingProxyType(table))
        return self._pairings

    def __len__(self):
        return len(self.horizontal) + len(self.vertical)

    def __repr__(self):
        names = ", ".join(n for _, n, _ in self.labeled())
        return f"DiracPresentation({names})"


def tensor_witnesses(T, prefix: tuple = ()) -> list:
    """One witness per nonzero component of ``T``, in index order, located
    by ``prefix`` followed by the component's coordinate names."""
    return _witnesses(T.patch.names, T.comps, prefix)


def _witnesses(names: Sequence[str], table: dict, prefix: tuple = ()) -> list:
    return [Witness(prefix + tuple(names[i] for i in key), table[key])
            for key in sorted(table)]


def _bivector_slots(V: Multivector) -> dict:
    """``{l: [(i, v, s)]}``: each entry ``V^{il} = s*v`` of the bivector,
    ``v`` a stored coefficient and ``s`` its sign, filed by ``l``."""
    slots: dict = {}
    for (p, q), v in V.comps.items():
        slots.setdefault(q, []).append((p, v, 1))
        slots.setdefault(p, []).append((q, v, -1))
    return slots


def check_integrability(data: GeometricData) -> CheckReport:
    """Decide the four closure conditions directly on the data.

    The first partials of ``V``'s coefficients, of each lift
    ``hor(d_a)``'s and of each ``F_ab`` are taken once per call
    (``tensorcalc._first_partials``), along each coefficient's support;
    each condition is then one ``_sum_products`` table of the products
    read from them, its negative products subtracted:

    * jacobi: ``[V,V]^{ijk} = 2 sum_cyc V^{il} d_l V^{jk}``, which is
      ``schouten(V, V)``;
    * poisson_connection: ``(L_X V)^{ij} = X^k d_k V^{ij} - d_k X^i V^{kj}
      - d_k X^j V^{ik}`` along every lift ``X = hor(d_a)``, which is
      ``lie_derivative(X, V)``;
    * curvature_identity: ``Curv(d_a, d_b) - V#(dF_ab)`` for a < b, the
      curvature ``hor_b^j d_j hor_a^k - hor_a^j d_j hor_b^k``
      (``coordinate_curvature``) and ``V#`` reading only the partials of
      ``F_ab`` along ``V``'s slots;
    * horizontally_closed: the twisted Koszul differential ``d_gamma F``.

    Nothing is kept after the call, and no function of the span oracle
    is called.
    """
    patch = data.patch
    names = patch.names
    conn = data.connection
    lifts = {a: conn.hor(a).comps for a in patch.base_indices}
    lift_along = {a: _first_partials(conn.hor(a))[0] for a in lifts}
    V_along = _first_partials(data.vertical_bivector)[0]
    F_along, F_of = _first_partials(data.horizontal_form)
    slots = _bivector_slots(data.vertical_bivector)

    # V^{il} d_l V^{jk} lands on the sorted (i, j, k) with the sign of
    # putting i in front, which the cyclic sum makes the same for all three
    plus, minus = [], []
    for l, row in slots.items():
        for key, d in V_along.get((l,), ()):
            for i, v, s in row:
                hit = _merge_indices((i,), key)
                if hit is not None:
                    (plus if hit[0] == s else minus).append((hit[1], v, d))
    jac = _witnesses(names, {key: c * 2 for key, c in
                             _sum_products(patch, plus, minus).items()})

    # -d_k X^i V^{kj} = s*v d_k X^i on (i, j); the -d_k X^j V^{ik} terms
    # are its transposes, so each lands on the sorted key once, signed
    pres = []
    for a, X in lifts.items():
        plus, minus = list(_products(X, V_along)), []
        along = lift_along[a]
        for k, row in slots.items():
            for (i,), d in along.get((k,), ()):
                for j, v, s in row:
                    if i != j:
                        (plus if (i < j) == (s > 0) else minus).append(
                            ((i, j) if i < j else (j, i), v, d))
        pres += _witnesses(names, _sum_products(patch, plus, minus),
                           (names[a],))

    curv = []
    for a, b in combinations(lifts, 2):
        plus = list(_products(lifts[b], lift_along[a]))
        minus = list(_products(lifts[a], lift_along[b]))
        for (l,), d in F_of.get((a, b), ()):
            for i, v, s in slots.get(l, ()):  # -V#(dF_ab) at d_i
                (plus if s > 0 else minus).append(((i,), v, d))
        curv += _witnesses(names, _sum_products(patch, plus, minus),
                           (names[a], names[b]))

    closed = _witnesses(names, _d_gamma_table(conn, F_along))

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
    annihilator coframe element, paired with that element).  The
    bivector is negated once, and each vertical field is ``sharp(-V, eta)``.
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
    minus_V = -data.vertical_bivector
    for u, eta in zip(patch.fiber_indices, ann_hor_basis(conn)):
        vertical.append((patch.coords[u].name,
                         CourantSection(sharp(minus_V, eta), eta)))
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
    Only the diagonal entry is compared, against one.  Tables hold no
    zeros, so an off-diagonal entry that is present is its own witness
    and an absent one is zero.
    """
    gens = list(L.labeled())
    iso = [Witness((gens[i][1], gens[j][1]), val)
           for (i, j), val in L.pairings.items()]

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
                    if slot == name:
                        got = table.get(key, zero)
                        if got != one:
                            maxi.append(Witness((name, slot), got - one))
                    elif (got := table.get(key)) is not None:
                        maxi.append(Witness((name, slot), got))

    return CheckReport([ConditionReport("isotropy", iso),
                        ConditionReport("maximality", maxi)])


def _signed_orbit(i: int, j: int, k: int, val) -> tuple:
    """The six orderings of a totally skew triple with their values."""
    neg = -val
    return (((i, j, k), val), ((j, k, i), val), ((k, i, j), val),
            ((j, i, k), neg), ((i, k, j), neg), ((k, j, i), neg))


def verify_closure(L: DiracPresentation) -> CheckReport:
    """Pair Courant brackets of generators against generators.

    ``L`` must be isotropic: every generator pairing <e_i,e_j>, i = j
    included, is the exact zero, as on every ``build_dirac`` span.  The
    guard reads the presentation's ``pairings`` table, which
    ``verify_isotropy`` shares, and decides this itself, independently of
    ``check_integrability``.  A nonzero pairing raises
    ``DegenerateInputError`` naming the two generator labels and the
    pairing's value, before any bracket is formed: off an isotropic span,
    vanishing pairings do not mean closure.

    The span is bracket-closed iff every pairing T(i,j,k) = <[e_i,e_j], e_k>
    vanishes (the span is maximal isotropic, so membership equals
    orthogonality).  Each nonzero pairing is filed under the integrability
    condition its generator-kind pattern instantiates, which localizes a
    single broken condition.

    ``courant_bracket`` is the non-skew (Dorfman) bracket.  It reads the
    first partials each generator keeps (``CourantSection.partials``),
    taken on the generator's first bracket, so a generator coefficient is
    differentiated once whatever the number of brackets, and a second
    closure of the same presentation differentiates nothing.  It obeys

        [a,b] + [b,a] = 2 d<a,b>,
        X_a <b,c> = <[a,b],c> + <b,[a,c]>.

    As every generator pairing is zero, the first identity makes T skew
    in its first two slots and the second makes it skew in its last two,
    so T is totally skew: it vanishes on repeated indices and one pairing
    per triple i<j<k determines the whole table, each nonzero value
    standing for the six witnesses of its triple (negated for odd
    orderings).  Expressions are canonical, so those witnesses print
    exactly as direct pairings would.

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
    """
    gens = list(L.labeled())
    if L.pairings:
        (i, j), val = min(L.pairings.items())
        raise DegenerateInputError(
            f"generators {gens[i][1]} and {gens[j][1]} pair to {val}: "
            f"closure is decided on an isotropic span only")
    n = len(gens)
    m = (n + 1) // 2
    sections = [s for _, _, s in gens]
    # each bracketed pair (a, b) with the thirds lo <= c < hi it is read at
    pairs = chain(((a, b, b + 1, n) for a, b in combinations(range(m), 2)),
                  ((a, b, 0, a) for a, b in combinations(range(m, n), 2)))
    index = _slot_index(sections)
    buckets = {name: [] for name in CONDITION_ORDER}
    for a, b, lo, hi in pairs:
        br = courant_bracket(sections[a], sections[b])
        for c, val in _pairing_row(br, index, lo, hi).items():
            for triple, v in _signed_orbit(a, b, c, val):
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
        rows[pa][pb] = F.get((base[pa], base[pb]), zero)
    try:
        pf, C, _ = rat_inverse(rows, patch)
    except DegenerateInputError as exc:
        raise DegenerateInputError(
            f"degenerate horizontal 2-form: the {n}x{n} determinant "
            f"det[F_ab] vanishes identically") from exc
    H = [{u: h for (u,), h in data.connection.hor(a).comps.items() if u != a}
         for a in base]
    pairs = []
    for pa, pb in combinations(range(n), 2):
        if not C[pa][pb]:
            continue
        w = -C[pa][pb]
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
    the product of their distinct denominators (1 when there are none,
    Pf(F) on the output of ``extract_poisson``).  ``rat_inverse`` reads
    the upper triangle of N = D*M and hands back (R, C, s) with M^{-1} =
    D^s*C/R: its expansion divides every Pfaffian sum over four or more
    indices by D once (s = 0), or starts over without D when one of
    those divisions is inexact (s = 1).  A 2-form entry is -D^s*C_ab/R
    and a connection sum is divided once, by D^(1-s)*R.  On an extracted
    bivector with four or more base coordinates, Jacobi's
    complementary-minor identity makes every division exact and R
    constant, so s = 0, and D*R is the one product with D formed.

    The pivots name where the recovered data stop being nondegenerate,
    the zero locus of Pf(F).  Pf(F)*Pf(N) = D^(n/2), so Pf(F) is the one
    exact division D/R, or D^(n/2)/R when s = 1 (exact because F is
    polynomial); the pivots are [Pf(F)] when it is not constant, else [].
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
    zero, one = patch.zero(), patch.one()

    # the upper base-base and the base-fiber entries as (numerator,
    # denominator); absent entries are 0
    comps = Pi.comps
    parts = {}
    for pa, a in enumerate(base):
        for b in (*base[pa + 1:], *fiber):
            c = comps.get((a, b) if a < b else (b, a))
            if c is not None:
                c = c if a < b else -c
                parts[(a, b)] = (c.num, c.den) if isinstance(c, RatExpr) \
                    else (c, one)
    # the distinct denominators other than 1, told apart by term table
    dens = []
    for _, den in parts.values():
        if den.terms != one.terms and all(den.terms != d.terms for d in dens):
            dens.append(den)
    D = prod(dens, start=one)
    N = {key: prod((d for d in dens if d.terms != den.terms), start=num)
         for key, (num, den) in parts.items()}
    try:
        R, C, s = rat_inverse(
            [[N.get((a, b), zero) for b in base] for a in base], patch, D)
    except DegenerateInputError as exc:
        raise DegenerateInputError(
            "bivector is not transverse to the fibers: the base-base "
            "block is degenerate") from exc

    table = {}
    gden = R if s else R * D
    for u in fiber:
        for pa, a in enumerate(base):
            g = -sum((C[pa][pb] * N[(b, u)] for pb, b in enumerate(base)
                      if C[pa][pb] and (b, u) in N), zero)
            if not g.is_zero():
                table[(u, a)] = _scalarize(RatExpr(g, gden),
                                           "connection coefficient")
    conn = Connection(patch, table)

    ftable = {}
    for pa, pb in combinations(range(n), 2):
        if C[pa][pb]:
            c = -C[pa][pb]
            ftable[(base[pa], base[pb])] = _scalarize(
                RatExpr(c * D if s else c, R), "2-form entry")
    F = BaseForm._trusted(patch, 2, ftable)

    # V^{uv} = Pi^{uv} + sum_a G^u_a Pi^{av}, with Pi^{av} = N^{av}/D
    vtable = {}
    for u, v in combinations(fiber, 2):
        hor = sum((g * N[(a, v)] for a in base
                   if (g := table.get((u, a))) is not None and (a, v) in N),
                  zero)
        c = comps.get((u, v), zero)
        c = _scalarize(c + RatExpr(hor, D) if hor else c,
                       "vertical bivector entry")
        if c:
            vtable[(u, v)] = c
    V = Multivector._trusted(patch, 2, vtable)

    pf = divide_exact(D ** (n // 2) if s else D, R)
    pivots = [] if pf.as_rational() is not None else [pf]
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
