"""Seeded inputs, timed operations and answer checks for the three workloads.

Every library import happens inside ``build``, after the caller has
(re)imported the package, so that each set-up pays for its own import and
ops resolve library functions through module attributes at call time (the
tracer swaps those attributes in and out).

An op is a zero-argument callable plus a check.  ``Op.check(result)``
returns ``None`` for a correct answer and a message otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

DEFAULT_SEED = 271828
WORKLOADS = ("corpus", "scaled", "roundtrip")
EXPECTED_FILE = Path(__file__).with_name("expected.json")
SCALED_DIMS = (2, 4, 6, 8)


class Op:
    __slots__ = ("kind", "name", "call", "check")

    def __init__(self, kind, name, call, check):
        self.kind = kind
        self.name = name
        self.call = call
        self.check = check


class _Answers:
    """Reference failing-condition sets: the committed file where it
    applies, answers known by construction, else the first answer given
    for an input, which every later answer (the other oracle, later
    passes) must repeat."""

    def __init__(self, fixed):
        self.fixed = fixed
        self.seen = {}

    def check(self, name, failing):
        if name.startswith("broken") and "curvature_identity" not in failing:
            return f"{name}: the 2-form bump did not break curvature_identity"
        ref = self.fixed.get(name)
        if ref is None:
            ref = self.seen.setdefault(name, failing)
        if failing != ref:
            return f"{name}: failing {list(failing)}, expected {list(ref)}"
        return None


def _expected(workload, seed, use_file):
    if seed != DEFAULT_SEED or not use_file:
        return {}
    table = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))[workload]
    return {name: tuple(row["failing"]) for name, row in table.items()}


def _fixed_answer(name):
    """Answers known by construction, at every seed."""
    if name.startswith("mutation:"):
        return (name.split(":", 1)[1],)
    if name.startswith(("cartan", "ymh", "chb", "flat", "equivalent",
                        "integrable")):
        return ()
    return None


def _answers(workload, seed, names, use_file):
    fixed = _expected(workload, seed, use_file)
    for name in names:
        known = _fixed_answer(name)
        if known is not None:
            if name in fixed and fixed[name] != known:
                raise ValueError(f"{EXPECTED_FILE.name} contradicts the "
                                 f"construction of {name}")
            fixed[name] = known
    return _Answers(fixed)


# -- corpus --------------------------------------------------------------

def _corpus(workdir, use_file):
    """The acceptance corpus itself, at every seed (the seed only orders
    the ops), so its answers always come from the committed file."""
    import corpus_util
    from couplingdirac import cli

    items = corpus_util.corpus() + [
        (f"mutation:{k}", d) for k, d in corpus_util.mutation_fixtures().items()]
    answers = _answers("corpus", DEFAULT_SEED, [name for name, _ in items],
                       use_file)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for pos, (name, data) in enumerate(items):
        path = workdir / f"{pos:02d}.json"
        path.write_text(cli.dumps(cli.data_document(data)), encoding="utf-8")
        for cmd in ("check", "verify"):
            argv = [cmd, "--manifest", str(path), "--report", "json"]
            ops.append(Op(cmd, name, _cli_call(cli, argv),
                          _cli_check(answers, name)))
    return ops


def _cli_call(cli, argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        return code, out.getvalue()
    return call


def _cli_check(answers, name):
    def check(result):
        code, text = result
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return f"{name}: exit {code} with no JSON report"
        failing = tuple(c["name"] for c in doc["conditions"]
                        if c["status"] == "fail")
        if code != (1 if failing else 0) or doc["verdict"] != (
                "fail" if failing else "pass"):
            return f"{name}: exit {code} and verdict {doc['verdict']} " \
                   f"disagree with failing {list(failing)}"
        return answers.check(name, failing)
    return check


# -- scaled --------------------------------------------------------------

def _fiber_names(nf):
    return [n for i in range(1, nf // 2 + 1) for n in (f"q{i}", f"p{i}")]


def _patch(nb, nf, angle=False):
    from couplingdirac import FiberedPatch

    return FiberedPatch.build([f"x{i}" for i in range(1, nb + 1)],
                              _fiber_names(nf), angles=["q1"] if angle else [])


class _Draw(random.Random):
    """Structure (which coordinates, degrees and slots) from a stream that
    is the same for every seed; coefficients from the seed.  Each seed is
    a new instance of one shape, so a pass costs about the same at every
    seed."""

    def __init__(self, seed):
        super().__init__(DEFAULT_SEED)
        self._coef = random.Random(seed)

    def coef(self, choices=(-3, -2, -1, 1, 2, 3)):
        return self._coef.choice(choices)


def _atom(rng, patch, name):
    from couplingdirac import COS, SIN

    if patch.coordinate(name).angle:
        return patch.trig(rng.choice((COS, SIN)), rng.randint(1, 2), name)
    return patch.coord(name)


def _poly(rng, patch, names, terms, degree=2):
    """Sum of ``terms`` nonzero monomials of degree <= ``degree``."""
    out = patch.zero()
    for _ in range(terms):
        term = patch.rational(rng.coef())
        for name in rng.sample(names, rng.randint(0, min(degree, len(names)))):
            term = term * _atom(rng, patch, name)
        out = out + term
    return out


def _fiber_bivector(rng, patch):
    """(1 + q_i or 1 + p_i) on each canonical pair: Poisson, not constant."""
    from couplingdirac import Multivector

    f = patch.fiber_names
    return Multivector.build(patch, 2, {
        (f[i], f[i + 1]): patch.one() + patch.coord(
            f[i + 1] if patch.coordinate(f[i]).angle
            else rng.choice(f[i:i + 2]))
        for i in range(0, len(f), 2)})


def _momentum(rng, patch):
    """c p1 + c': never zero, and its flow preserves any Poisson bivector."""
    return patch.coord("p1") * rng.coef((1, 2, 3)) + rng.coef((1, 2, 3))


def _integrable(rng, patch, pos):
    from couplingdirac import (AbelianYMHSetup, BaseForm, CartanSetup,
                               constructions)

    V = _fiber_bivector(rng, patch)
    if pos % 2:
        rows = [_poly(rng, patch, patch.base_names, 2) for _ in patch.base_names]
        momentum = _momentum(rng, patch)
        return constructions.yang_mills_data(
            AbelianYMHSetup(patch, V, rows, momentum))
    potential = BaseForm.build(patch, 1, {
        (a,): _poly(rng, patch, patch.names, 2) for a in patch.base_names})
    return constructions.cartan_data(CartanSetup(patch, V, potential))


def _broken(rng, patch, pos, kind):
    """Integrable data whose 2-form gains a fiber-dependent term, which
    always breaks curvature_identity (the bivector is nondegenerate on
    every pair); kind 1 also bumps the connection, kind 2 the bivector."""
    from couplingdirac import BaseForm, Connection, GeometricData, Multivector

    data = _integrable(rng, patch, pos)
    V, conn, F = (data.vertical_bivector, data.connection,
                  data.horizontal_form)
    base, fiber = patch.base_names, patch.fiber_names

    def bump():
        return patch.rational(rng.coef((1, 2, -1))) * patch.coord(
            rng.choice(fiber))

    a, b = sorted(rng.sample(base, 2), key=patch.index)
    F = F + BaseForm.build(patch, 2, {(a, b): bump()})
    if kind == 1:
        key = (rng.choice(fiber), rng.choice(base))
        table = {(patch.coords[u].name, patch.coords[a].name): c
                 for (u, a), c in conn.table.items()}
        table[key] = table.get(key, patch.zero()) + bump() * bump()
        conn = Connection(patch, table)
    elif kind == 2:
        u, v = rng.sample(fiber, 2)
        V = V + Multivector.build(patch, 2, {(u, v): bump()})
    return GeometricData(patch, V, conn, F)


def _scaled(seed, use_file):
    from couplingdirac import coupling

    rng = _Draw(seed)
    items = []
    for nb in SCALED_DIMS:
        for nf in SCALED_DIMS:
            patch = _patch(nb, nf)
            for pos in range(2):
                items.append((f"integrable-{nb}x{nf}-{pos}",
                              _integrable(rng, patch, pos)))
                items.append((f"broken-{nb}x{nf}-{pos}",
                              _broken(rng, patch, pos, len(items) % 3)))
    answers = _answers("scaled", seed, [name for name, _ in items], use_file)
    ops = []
    for name, data in items:
        ops.append(Op("check", name, _check_call(coupling, data),
                      _report_check(answers, name)))
        ops.append(Op("verify", name, _verify_call(coupling, data),
                      _report_check(answers, name)))
    return ops


def _check_call(coupling, data):
    return lambda: coupling.check_integrability(data).failing()


def _verify_call(coupling, data):
    def call():
        span = coupling.build_dirac(data)
        return (coupling.verify_isotropy(span).failing()
                + coupling.verify_closure(span).failing())
    return call


def _report_check(answers, name):
    return lambda failing: answers.check(name, failing)


# -- roundtrip -----------------------------------------------------------

# (nb, nf, angle patch, where the 2-form is perturbed): "block" makes the
# Pfaffian non-constant, so the inverse carries a real denominator;
# "cross" leaves it constant
ROUNDTRIP_CASES = (
    (2, 2, False, "block"), (2, 2, True, "block"),
    (2, 4, False, "block"), (2, 4, True, "block"),
    (2, 8, False, "block"),
    (4, 2, False, "block"), (4, 2, True, "block"),
    (4, 2, False, "cross"), (4, 4, False, "cross"),
    (4, 4, True, "cross"), (6, 2, False, "cross"),
)
FAT_CASES = (2, 4)
ROUNDTRIP_REPEATS = 5  # seeded draws per case: 120 ops a pass


def _roundtrip_data(rng, nb, nf, angle, slot):
    from couplingdirac import BaseForm, Connection, GeometricData

    patch = _patch(nb, nf, angle)
    base, fiber = patch.base_names, patch.fiber_names
    conn = {(rng.choice(fiber), a): _poly(rng, patch, patch.names, 2)
            for a in base}
    table = {(base[i], base[i + 1]): patch.rational(rng.coef((1, 2, -1, -2)))
             for i in range(0, nb, 2)}
    if slot == "block":
        key = (base[0], base[1])
    else:
        key = (base[0], base[rng.randrange(2, nb)])
    bump = patch.rational(rng.coef((1, 2, -1, -2))) * _atom(
        rng, patch, "q1" if angle else rng.choice(fiber[1::2]))
    table[key] = table.get(key, patch.zero()) + bump
    return GeometricData(patch, _fiber_bivector(rng, patch),
                         Connection(patch, conn),
                         BaseForm.build(patch, 2, table))


def _pfaffian(rows):
    """Pfaffian by first-row expansion; the reference for fat_check."""
    n = len(rows)
    if n == 0:
        return 1
    total = 0
    for j in range(1, n):
        keep = [k for k in range(n) if k not in (0, j)]
        minor = [[rows[r][c] for c in keep] for r in keep]
        term = rows[0][j] * _pfaffian(minor)
        total = total + (term if j % 2 else -term)
    return total


def _gauge(rng, nb):
    from couplingdirac import AbelianYMHSetup, Multivector

    patch = _patch(nb, 2)
    V = Multivector.build(patch, 2, {("q1", "p1"): 1})
    rows = [_poly(rng, patch, patch.base_names, 3) for _ in patch.base_names]
    momentum = _momentum(rng, patch)
    setup = AbelianYMHSetup(patch, V, rows, momentum)
    names = patch.base_names
    curl = [[setup.momenta[0] * (rows[j].differentiate(names[i])
                                 - rows[i].differentiate(names[j]))
             for j in range(nb)] for i in range(nb)]
    pf = _pfaffian(curl)
    return setup, pf * pf


def _roundtrip(seed):
    from couplingdirac import constructions, coupling

    rng = _Draw(seed)
    ops = []
    for rep in range(ROUNDTRIP_REPEATS):
        for nb, nf, angle, slot in ROUNDTRIP_CASES:
            name = f"{nb}x{nf}{'-angle' if angle else ''}-{slot}-{rep}"
            data = _roundtrip_data(rng, nb, nf, angle, slot)
            ops += _roundtrip_pair(coupling, name, data)
        for nb in FAT_CASES:
            setup, det = _gauge(rng, nb)
            ops.append(Op("fat", f"gauge-{nb}-{rep}",
                          _fat_call(constructions, setup),
                          _fat_check(f"gauge-{nb}-{rep}", det)))
    return ops


def _roundtrip_pair(coupling, name, data):
    """extract then decompose; the decompose op consumes the extract op's
    output from the same pass, so the pair stays adjacent in every order."""
    box = {}

    def extract():
        box["pi"] = coupling.extract_poisson(data)
        return box["pi"]

    def decompose():
        return coupling.decompose_coupling(box.pop("pi"), data.patch)

    def check_decompose(result):
        if result.data != data:
            return f"{name}: decompose(extract(d)).data != d"
        return None

    return [Op("extract", name, extract, lambda _: None),
            Op("decompose", name, decompose, check_decompose)]


def _fat_call(constructions, setup):
    return lambda: constructions.fat_check(setup)


def _fat_check(name, det):
    def check(report):
        if report.fat != bool(det) or report.determinant != det:
            return f"{name}: fat_check determinant {report.determinant} " \
                   f"is not the squared Pfaffian {det}"
        return None
    return check


# -- entry ---------------------------------------------------------------

def build(workload, seed, workdir, use_file=True):
    """The op list of one pass, in its fixed seeded order.  At the default
    seed the answers come from the committed file unless ``use_file`` is
    false (when regenerating it)."""
    if workload == "corpus":
        ops = _corpus(workdir, use_file)
    elif workload == "scaled":
        ops = _scaled(seed, use_file)
    elif workload == "roundtrip":
        ops = _roundtrip(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # shuffle whole groups of ops on one input so that chained ops stay
    # in order
    groups = {}
    for op in ops:
        groups.setdefault(op.name, []).append(op)
    order = list(groups)
    random.Random(seed).shuffle(order)
    return [op for name in order for op in groups[name]]


def write_expected(workdir):
    """Regenerate the answer file from both oracles at the default seed."""
    doc = {}
    for workload in ("corpus", "scaled"):
        rows = {}
        for op in build(workload, DEFAULT_SEED, workdir, use_file=False):
            result = op.call()
            failing = list(result) if workload == "scaled" else [
                c["name"] for c in json.loads(result[1])["conditions"]
                if c["status"] == "fail"]
            row = rows.setdefault(op.name, {
                "verdict": "fail" if failing else "pass",
                "failing": failing})
            if row["failing"] != failing:
                raise SystemExit(f"{op.name}: the oracles disagree")
        doc[workload] = rows
    EXPECTED_FILE.write_text(json.dumps(doc, indent=1) + "\n",
                             encoding="utf-8")


if __name__ == "__main__":
    # python3 cdbench/workloads.py: rewrite expected.json from the oracles
    root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    write_expected(Path(__file__).resolve().parent / "out" / "expected")
