"""Deterministic randomized verification of the calculus identities.

Seventeen identities, P1-P17, cover the whole operator algebra:

  P1   unit and zero laws of the pair wedge product
  P2   graded commutativity:  a ^ b = (-1)^{pq} b ^ a
  P3   associativity of the pair wedge product
  P4   nilpotency of the deformed derivative:  d(d a) = 0
  P5   graded Leibniz rule:  d(a^b) = (da)^b + (-1)^p a^(db)
  P6   zero-form scaling composes:  a0 (b0 V) = (a0 ^ b0) V
  P7   contraction is a graded antiderivation of the wedge
  P8   contraction is linear over ordinary scalars:  I_{V + mu W} = I_V + mu I_W
  P9   the homotopy-formula derivative equals its expanded closed form
  P10  the uncorrected derivative's contraction defect is -(-1)^p (0, L_{v0 w1} a_p)
  P11  corrected derivative: homotopy form plus correction equals the closed form
  P12  corrected derivative satisfies the sign-free Leibniz rule on wedges
  P13  corrected derivative and contraction commute into a single contraction
  P14  commutator of corrected derivatives is the derivative along the bracket
  P15  the bracket is antisymmetric and bilinear over rational constants
  P16  the bracket satisfies the Jacobi identity
  P17  ordinary calculus embeds at zero scalar part and zero companion

Every check is an exact structural equality of canonical values; there is no
numeric tolerance anywhere.  All randomness is a pure function of the
configuration seed and the trial index, so identical configurations replay
identical trials and counterexample renderings are byte-stable.

Each trial schedules its form degrees by cycling through all legal (p, q)
pairs, so every pair occurs once per (n+2)^2 consecutive trials, including
p = -1 and p = n.  Degenerate inputs are forced on a fixed schedule rather
than left to chance: trials with index 3 mod 8 zero out the first form slot,
index 5 mod 8 zeroes the first vector slot, and when k is drawn per trial
index 6 mod 8 sets k = 0.  Failed trials are reported as re-parseable DSL
sessions together with both sides of the violated equation.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import DegreeError, UnknownIdentityError
from .forms import (
    Form,
    VectorField,
    _sign,
    _trusted_form,
    _trusted_vector,
    coordinate_vectors,
    one_forms,
)
from .generalized import (
    GeneralizedForm,
    GeneralizedVector,
    _trusted_gvector,
    _trusted_pair,
    cartan_residual,
)
from .scalars import Chart, ScalarField, _from_monomials, rational_str
from .session import parse_session, render_session

_COORD_NAMES = ("x", "y", "z", "w")
# A trial's p-forms have C(n, p) components, so the dimension sets the work of a check.
MAX_DIMENSION = 8


def _chart_names(n: int) -> tuple[str, ...]:
    if n <= len(_COORD_NAMES):
        return _COORD_NAMES[:n]
    return tuple(f"x{i + 1}" for i in range(n))


@dataclass(frozen=True)
class GenConfig:
    """Bounds and seeding for the random generators.

    Identical configurations generate identical objects; the seed plus a
    stream position fully determines every draw.  ``k`` is the chart
    constant of every trial, or None to draw one per trial.
    """

    seed: int = 0
    dimension: int = 2
    max_poly_degree: int = 3
    max_terms: int = 4
    coefficient_bound: int = 5
    k: Fraction | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if self.dimension > MAX_DIMENSION:
            raise ValueError(f"dimension must be at most {MAX_DIMENSION}")
        if self.max_poly_degree < 0 or self.max_terms < 1 or self.coefficient_bound < 1:
            raise ValueError("generator bounds out of range")
        if self.k is not None:
            object.__setattr__(self, "k", Fraction(self.k))

    def describe(self) -> str:
        k = "random" if self.k is None else rational_str(self.k)
        return (f"seed={self.seed} dim={self.dimension} max_deg={self.max_poly_degree} "
                f"max_terms={self.max_terms} bound={self.coefficient_bound} k={k}")


def _rng(cfg: GenConfig, *position) -> random.Random:
    key = ":".join([str(cfg.seed), *map(str, position)])
    digest = hashlib.sha256(key.encode("ascii")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# ---------------------------------------------------------------------------
# Generators.  One table, ``_SLOT_KINDS``, maps each slot kind to its draw
# and to the type whose zero fills the slot on a forced-zero trial.  A draw
# builds one value from one rng with the trusted constructors, since every
# draw is in range.  The public gen_* functions seed that rng from (seed,
# kind, degree, position); ``_trial`` builds a trial's chart and seeds it from
# (seed, "slot", trial, slot index), so one trial's slots draw independently.


def _below(bits: Callable[[int], int], m: int) -> int:
    """A uniform draw from range(m), m >= 1, from ``bits = rng.getrandbits``.

    This is CPython's ``Random._randbelow`` rule, ``m.bit_length()`` bits a
    try, the rule behind ``randint``, ``randrange`` and ``shuffle``, so the
    stream is the one those would draw.
    """
    k = m.bit_length()
    r = bits(k)
    while r >= m:
        r = bits(k)
    return r


def _gen_rational(rng: random.Random, bound: int) -> Fraction:
    """A random rational num/den with |num| <= bound and 1 <= den <= bound."""
    bits = rng.getrandbits
    return Fraction(_below(bits, 2 * bound + 1) - bound, 1 + _below(bits, bound))


def _k(cfg: GenConfig, *trial: int) -> Fraction:
    """The chart constant of a config, or of one of its trials.

    A fixed ``cfg.k`` is every trial's.  Otherwise it is drawn from the
    stream at ("k",) for the config and ("k", trial) for a trial, except that
    trials 6 mod 8 are scheduled zero-k trials.
    """
    if cfg.k is not None:
        return cfg.k
    if trial and trial[0] % 8 == 6:
        return Fraction(0)
    return _gen_rational(_rng(cfg, "k", *trial), cfg.coefficient_bound)


def default_chart(cfg: GenConfig) -> Chart:
    return Chart(_chart_names(cfg.dimension), _k(cfg))


def _scalar(rng: random.Random, cfg: GenConfig, chart: Chart) -> ScalarField:
    """A random polynomial, each uniform draw one ``_below`` call.

    In order: the term count, then per term the total degree, its split over
    the coordinates, the shuffle of the exponents (as ``rng.shuffle``), and a
    nonzero coefficient: the numerator's magnitude, its sign and the
    denominator.
    """
    bits = rng.getrandbits
    n, bound = chart.dim, cfg.coefficient_bound
    drawn = []
    for _ in range(1 + _below(bits, cfg.max_terms)):
        exps = [0] * n
        remaining = _below(bits, cfg.max_poly_degree + 1)
        for i in range(n - 1):
            exps[i] = e = _below(bits, remaining + 1)
            remaining -= e
        exps[n - 1] = remaining
        for i in range(n - 1, 0, -1):
            j = _below(bits, i + 1)
            exps[i], exps[j] = exps[j], exps[i]
        c = 1 + _below(bits, bound)
        drawn.append((c if _below(bits, 2) else -c, 1 + _below(bits, bound), tuple(exps)))
    return _from_monomials(chart, drawn)


def _form(rng: random.Random, cfg: GenConfig, chart: Chart, degree: int) -> Form:
    keys = itertools.combinations(range(chart.dim), degree) if 0 <= degree <= chart.dim else ()
    return _trusted_form(chart, degree, [(key, _scalar(rng, cfg, chart))
                                         for key in keys if rng.random() < 0.85])


def _vector(rng: random.Random, cfg: GenConfig, chart: Chart) -> VectorField:
    comps = tuple(_scalar(rng, cfg, chart) if rng.random() < 0.85 else chart.constant(0)
                  for _ in range(chart.dim))
    return _trusted_vector(chart, comps)


def _gform(rng: random.Random, cfg: GenConfig, chart: Chart, degree: int) -> GeneralizedForm:
    return _trusted_pair(_form(rng, cfg, chart, degree), _form(rng, cfg, chart, degree + 1))


# Trials whose index is _ZERO_FORM_TRIAL (_ZERO_VECTOR_TRIAL) mod 8 set their
# first form (vector) slot to zero, drawing nothing for it.
_ZERO_FORM_TRIAL, _ZERO_VECTOR_TRIAL = 3, 5

# slot kind -> (draw, zero type).  A draw is called as
# ``draw(rng, cfg, chart, *degree)``.  A forced slot holds
# ``zero_type.zero(chart, *degree)``, looked up when it is filled, so a
# patched ``zero`` is the one called; kinds whose zero type is None are never
# forced.  The _FORM_KINDS take a degree, from the trial's schedule or the
# gen_* call, and are forced at _ZERO_FORM_TRIAL; the other forced kinds take
# none and are forced at _ZERO_VECTOR_TRIAL.
_SLOT_KINDS = {
    "scalar": (_scalar, None),
    "const": (lambda rng, cfg, chart: chart.constant(_gen_rational(rng, cfg.coefficient_bound)),
              None),
    "form": (_form, Form),
    "gform": (_gform, GeneralizedForm),
    "gform0": (lambda rng, cfg, chart: _gform(rng, cfg, chart, 0), None),
    "vector": (_vector, VectorField),
    "gvector": (lambda rng, cfg, chart: _trusted_gvector(_vector(rng, cfg, chart),
                                                         _scalar(rng, cfg, chart)),
                GeneralizedVector),
}
_FORM_KINDS = ("form", "gform")


def _generate(kind: str, cfg: GenConfig, position, chart: Chart, *degree: int):
    position = position if isinstance(position, tuple) else (position,)
    return _SLOT_KINDS[kind][0](_rng(cfg, kind, *degree, *position), cfg, chart, *degree)


def gen_scalar(cfg: GenConfig, position, chart: Chart | None = None) -> ScalarField:
    """Random polynomial within the config bounds, deterministic per (seed, position)."""
    return _generate("scalar", cfg, position, chart or default_chart(cfg))


def gen_form(cfg: GenConfig, degree: int, position, chart: Chart | None = None) -> Form:
    return _generate("form", cfg, position, chart or default_chart(cfg), degree)


def gen_gform(cfg: GenConfig, degree: int, position, chart: Chart | None = None) -> GeneralizedForm:
    chart = chart or default_chart(cfg)
    if not -1 <= degree <= chart.dim:
        raise DegreeError(f"pair degree {degree} out of range [-1, {chart.dim}]")
    return _generate("gform", cfg, position, chart, degree)


def gen_vector(cfg: GenConfig, position, chart: Chart | None = None) -> VectorField:
    return _generate("vector", cfg, position, chart or default_chart(cfg))


def gen_gvector(cfg: GenConfig, position, chart: Chart | None = None) -> GeneralizedVector:
    return _generate("gvector", cfg, position, chart or default_chart(cfg))


# ---------------------------------------------------------------------------
# Identity definitions.


@dataclass(frozen=True)
class Identity:
    name: str
    slots: tuple[tuple[str, str], ...]  # (slot name, slot kind)
    check: Callable[..., list[tuple]]  # check(chart, **slots) -> [(lhs, rhs), ...]


def _homotopy_expansion(chart: Chart, V: GeneralizedVector,
                        a: GeneralizedForm) -> GeneralizedForm:
    """Term-by-term expansion of I_V d + d I_V, independent of the composition."""
    p, k = a.degree, chart.k
    v1, v0 = V.v1, V.v0
    dv0 = Form.from_scalar(v0).d()
    first = v1.lie(a.ordinary) - ((p * k) * v0) * a.ordinary
    second = (v1.lie(a.companion)
              - (((p + 1) * k) * v0) * a.companion
              + (p * _sign(p - 1)) * dv0.wedge(a.ordinary)
              + _sign(p) * (v0 * a.ordinary.d()))
    return GeneralizedForm(first, second)


def _lie_correction(chart: Chart, V: GeneralizedVector,
                    a: GeneralizedForm) -> GeneralizedForm:
    """The exact pair (-1)^p (0, -v0 da_p + p dv0 a_p) separating the two derivatives."""
    p = a.degree
    dv0 = Form.from_scalar(V.v0).d()
    inner = -(V.v0 * a.ordinary.d()) + p * dv0.wedge(a.ordinary)
    return GeneralizedForm(Form.zero(chart, p), _sign(p) * inner)


def _expected_residual(V: GeneralizedVector, W: GeneralizedVector,
                       a: GeneralizedForm) -> GeneralizedForm:
    p = a.degree
    transported = (V.v0 * W.v1).lie(a.ordinary)
    return GeneralizedForm(Form.zero(a.chart, p - 1), (-_sign(p)) * transported)


def residual_witness(chart: Chart) -> dict:
    """P10 inputs with a provably nonzero contraction defect (needs dim >= 2)."""
    x, y = chart.coordinate(0), chart.coordinate(1)
    ex, ey = coordinate_vectors(chart)[:2]
    dx = one_forms(chart)[0]
    return {
        "V": GeneralizedVector(ex, x),
        "W": GeneralizedVector.from_vector(ey),
        "a": GeneralizedForm.from_form(y * dx),
    }


IDENTITIES: dict[str, Identity] = {}


def _identity(name: str, **slots: str):
    """Register the decorated check as identity ``name``; ``slots`` maps slot names to kinds."""
    def register(check):
        IDENTITIES[name] = Identity(name, tuple(slots.items()), check)
        return check
    return register


@_identity("P1", a="gform")
def _check_p1(chart, a):
    unit = GeneralizedForm.from_form(Form.from_scalar(chart.constant(1)))
    zero = GeneralizedForm.zero(chart)
    return [(unit.wedge(a), a), (zero.wedge(a), zero)]


@_identity("P2", a="gform", b="gform")
def _check_p2(chart, a, b):
    return [(a.wedge(b), _sign(a.degree * b.degree) * b.wedge(a))]


@_identity("P3", a="gform", b="gform", c="gform")
def _check_p3(chart, a, b, c):
    return [(a.wedge(b).wedge(c), a.wedge(b.wedge(c)))]


@_identity("P4", a="gform")
def _check_p4(chart, a):
    return [(a.d().d(), GeneralizedForm.zero(chart))]


@_identity("P5", a="gform", b="gform")
def _check_p5(chart, a, b):
    return [(a.wedge(b).d(), a.d().wedge(b) + _sign(a.degree) * a.wedge(b.d()))]


@_identity("P6", a0="gform0", b0="gform0", V="gvector")
def _check_p6(chart, a0, b0, V):
    return [(V.scaled_by(b0).scaled_by(a0), V.scaled_by(a0.wedge(b0)))]


@_identity("P7", V="gvector", a="gform", b="gform")
def _check_p7(chart, V, a, b):
    return [(V.contract(a.wedge(b)),
             V.contract(a).wedge(b) + _sign(a.degree) * a.wedge(V.contract(b)))]


@_identity("P8", V="gvector", W="gvector", mu="scalar", a="gform")
def _check_p8(chart, V, W, mu, a):
    return [((V + mu * W).contract(a), V.contract(a) + mu * W.contract(a))]


@_identity("P9", V="gvector", a="gform")
def _check_p9(chart, V, a):
    return [(V.lie_cartan(a), _homotopy_expansion(chart, V, a))]


@_identity("P10", V="gvector", W="gvector", a="gform")
def _check_p10(chart, V, W, a):
    return [(cartan_residual(V, W, a), _expected_residual(V, W, a))]


@_identity("P11", V="gvector", a="gform")
def _check_p11(chart, V, a):
    return [(V.lie(a), V.lie_cartan(a) + _lie_correction(chart, V, a))]


@_identity("P12", V="gvector", a="gform", b="gform")
def _check_p12(chart, V, a, b):
    return [(V.lie(a.wedge(b)), V.lie(a).wedge(b) + a.wedge(V.lie(b)))]


@_identity("P13", V="gvector", W="gvector", a="gform")
def _check_p13(chart, V, W, a):
    return [(V.lie(W.contract(a)) - W.contract(V.lie(a)), V.lie(W).contract(a))]


@_identity("P14", V="gvector", W="gvector", a="gform")
def _check_p14(chart, V, W, a):
    return [(V.lie(W.lie(a)) - W.lie(V.lie(a)), V.commutator(W).lie(a))]


@_identity("P15", V="gvector", V2="gvector", W="gvector", c1="const", c2="const")
def _check_p15(chart, V, V2, W, c1, c2):
    combo = c1 * V + c2 * V2
    VW = V.commutator(W)
    WV = W.commutator(V)
    return [
        (VW, -WV),
        (combo.commutator(W), c1 * VW + c2 * V2.commutator(W)),
        (W.commutator(combo), c1 * WV + c2 * W.commutator(V2)),
    ]


@_identity("P16", U="gvector", V="gvector", W="gvector")
def _check_p16(chart, U, V, W):
    cyclic = (U.commutator(V.commutator(W))
              + V.commutator(W.commutator(U))
              + W.commutator(U.commutator(V)))
    return [(cyclic, GeneralizedVector.zero(chart))]


@_identity("P17", al="form", be="form", v="vector", w="vector")
def _check_p17(chart, al, be, v, w):
    A = GeneralizedForm.from_form(al)
    B = GeneralizedForm.from_form(be)
    Va = GeneralizedVector.from_vector(v)
    Wa = GeneralizedVector.from_vector(w)
    embedded_bracket = GeneralizedVector.from_vector(v.bracket(w))
    return [
        (A.wedge(B), GeneralizedForm.from_form(al.wedge(be))),
        (A.d(), GeneralizedForm.from_form(al.d())),
        (Va.contract(A), GeneralizedForm.from_form(v.contract(al))),
        (Va.lie(A), GeneralizedForm.from_form(v.lie(al))),
        (Va.lie(Wa), embedded_bracket),
        (Va.commutator(Wa), embedded_bracket),
    ]


# ---------------------------------------------------------------------------
# Trial scheduling and the runner.


def scheduled_degrees(dimension: int, trial: int, count: int,
                      rng: random.Random | None = None) -> tuple[int, ...]:
    """Degrees for a trial's form slots; all (p, q) pairs recur every (n+2)^2 trials.

    A third slot and later ones draw their degrees from ``rng``.
    """
    span = dimension + 2
    if count <= 0:
        return ()
    if count == 1:
        return ((trial % span) - 1,)
    return (((trial // span) % span) - 1, (trial % span) - 1,
            *[_below(rng.getrandbits, span) - 1 for _ in range(count - 2)])


def _trial(ident: Identity, cfg: GenConfig, trial: int) -> tuple[Chart, dict]:
    """The chart and the inputs, by slot name, of one trial of ``ident``."""
    chart = Chart(_chart_names(cfg.dimension), _k(cfg, trial))
    if ident.name == "P10" and trial == 1 and chart.dim >= 2:
        return chart, residual_witness(chart)
    form_count = sum(kind in _FORM_KINDS for _, kind in ident.slots)
    # only a third form slot draws its degree from the stream
    degrees = iter(scheduled_degrees(chart.dim, trial, form_count,
                                     _rng(cfg, "deg", trial) if form_count > 2 else None))
    zeroed = trial % 8  # the residue whose first slot is still to be forced to zero
    env = {}
    for index, (name, kind) in enumerate(ident.slots):
        draw, zero_type = _SLOT_KINDS[kind]
        form = kind in _FORM_KINDS
        degree = (next(degrees),) if form else ()
        if zero_type and zeroed == (_ZERO_FORM_TRIAL if form else _ZERO_VECTOR_TRIAL):
            env[name] = zero_type.zero(chart, *degree)
            zeroed = None
        else:
            env[name] = draw(_rng(cfg, "slot", trial, index), cfg, chart, *degree)
    return chart, env


@dataclass(frozen=True)
class Failure:
    """One violated equation: the inputs as a re-parseable session plus both sides."""

    trial: int
    config: str
    session: str
    lhs: str
    rhs: str


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    trials: int
    failures: tuple[Failure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def run_identity(name: str, cfg: GenConfig, trials: int) -> IdentityReport:
    """Check one identity on `trials` scheduled random instances, exactly."""
    ident = IDENTITIES.get(name)
    if ident is None:
        raise UnknownIdentityError(f"unknown identity {name!r}")
    if trials < 1:
        raise ValueError("trials must be positive")
    failures = []
    for trial in range(trials):
        chart, env = _trial(ident, cfg, trial)
        for lhs, rhs in ident.check(chart, **env):
            if lhs != rhs:
                failures.append(Failure(trial, cfg.describe(),
                                        render_session(chart, env),
                                        str(lhs), str(rhs)))
    return IdentityReport(name, trials, tuple(failures))


def replay_env(name: str, session_text: str) -> tuple[Chart, dict]:
    """Re-parse a rendered counterexample into inputs for the identity's check.

    Zero forms and zero vectors print as plain ``0`` and re-parse as scalars,
    so slot kinds coerce those back; any sign that depends on a lost zero
    degree tag only ever multiplies the zero itself.
    """
    ident = IDENTITIES.get(name)
    if ident is None:
        raise UnknownIdentityError(f"unknown identity {name!r}")
    parsed = parse_session(session_text)
    env = {}
    for slot, kind in ident.slots:
        value = parsed.definitions[slot]
        if kind == "form" and isinstance(value, ScalarField):
            value = Form.from_scalar(value)
        elif kind == "vector" and isinstance(value, ScalarField) and value.is_zero:
            value = VectorField.zero(parsed.chart)
        env[slot] = value
    return parsed.chart, env
