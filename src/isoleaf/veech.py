r"""Veech group descriptors of isoperiodic leaves.

A leaf whose period group spans the plane (positive or negative volume)
has Veech group a conjugate of SL(2, Z); the descriptor stores the
conjugating matrix.  A real leaf with rational period ratio has the
triangular group ``{±[[1, b], [0, a]] : a > 0}``.  A dense real period
group is similar to ``t Z + (l + m γ) Z`` in a real quadratic field, and
the unit group adds hyperbolic elements: multiplication by a power
``ε^k`` of the fundamental unit preserves the period group exactly when

* ``N(ε^k) = 1``,
* ``m`` divides the γ-coefficient β of ``ε^k``, and
* ``t`` divides ``(β / m) · N(l + m γ)``.

For a quadratic irrational θ some power of ε always preserves the module
``Z + θ Z``: its multiplier ring is an order of Q(sqrt D), whose norm-one
units form an infinite group.  The descriptor records the smallest such
``k``; its generator ``ε^k`` is expanded only when it is read.

The last two conditions say ``β ≡ 0 (mod M')`` with
``M' = |m t| / gcd(t, N(l + m γ))``, that is, ``ε^k`` is rational modulo
``M'``.  The exponents that meet it, and the norm condition, form a
subgroup ``kZ``, so ``k`` is a group order (Cohen, GTM 138, ch. 5).  For
each prime power ``p^e`` exactly dividing ``M'`` the order of ε in
``(O/p^e O)^× / (Z/p^e Z)^×`` divides ``p^(e-1) (p - (d_K|p))``, with
``d_K`` the field discriminant; the least common multiple of these,
doubled when ``N(ε) = -1`` and it is odd, is a multiple of ``k``.
`quadratic_group_search` factors ``M'`` (Pollard 1975), takes that bound
and strips each prime ``q`` while ``ε^(k/q)``, powered modulo ``M'``, still
qualifies.  Its certificate holds ``M'``, its factorization, the bound and
the failing residue of ``ε^(k/q)`` for each prime ``q`` dividing ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm

from isoleaf import stats
from isoleaf.period_algebra import (
    FieldElement,
    GroundField,
    IsoleafError,
    LeafKind,
    PeriodCharacter,
    _factor,
    _is_square_free,
    classify,
    mat2_det,
    mat2_mul,
    normalize,
)

__all__ = [
    "NotSquareFree",
    "BadTriple",
    "ConjSL2Z",
    "TriangularV",
    "QuadraticV",
    "fundamental_unit",
    "quadratic_group",
    "quadratic_group_search",
    "module_triple",
    "module_matrix",
    "unit_power",
    "unit_norm",
    "gamma_element",
    "veech_group",
    "group_contains",
]


class NotSquareFree(IsoleafError):
    """Raised when a discriminant is not a square-free integer >= 2."""


class BadTriple(IsoleafError):
    """Raised when a module triple (t, l, m) is degenerate or imprimitive."""


# ---------------------------------------------------------------------------
# descriptors


@dataclass(frozen=True)
class ConjSL2Z:
    """A conjugate M SL(2,Z) M^-1 of the integral symplectic group."""

    conjugator: tuple


@dataclass(frozen=True)
class TriangularV:
    """The triangular group {±[[1, b], [0, a]] : a > 0}."""


@dataclass(frozen=True)
class QuadraticV:
    """Triangular group extended by the hyperbolic generator ε^k.

    ``generator = (α, β)`` are the coordinates of ``ε^k = α + β γ`` in
    the ring basis, computed on first read (they have about
    ``k log10 ε`` digits); ``matrix`` is its action on the period module
    basis ``(t, l + m γ)``, an integral matrix of determinant one.
    """

    D: int
    tau: tuple
    exponent: int

    @cached_property
    def generator(self) -> tuple:
        return unit_power(self.D, fundamental_unit(self.D), self.exponent)

    @property
    def matrix(self) -> tuple:
        return module_matrix(self.D, self.tau, self.generator)


# ---------------------------------------------------------------------------
# ring arithmetic in Z[gamma]
#
# gamma = sqrt(D) when D % 4 != 1, else (1 + sqrt(D)) / 2, so that
# gamma^2 = D, respectively gamma^2 = gamma + (D - 1) / 4.


def _check_D(D: int) -> None:
    if not isinstance(D, int) or D < 2 or not _is_square_free(D):
        raise NotSquareFree(f"D = {D!r} is not a square-free integer >= 2")


def unit_norm(D: int, u: tuple) -> int:
    """The field norm of alpha + beta*gamma."""
    a, b = u
    if D % 4 == 1:
        return a * a + a * b - b * b * ((D - 1) // 4)
    return a * a - D * b * b


def _ring_mul(D: int, u: tuple, v: tuple, mod: int | None = None) -> tuple:
    a1, b1 = u
    a2, b2 = v
    if D % 4 == 1:
        c = (D - 1) // 4
        a = a1 * a2 + b1 * b2 * c
        b = a1 * b2 + a2 * b1 + b1 * b2
    else:
        a = a1 * a2 + D * b1 * b2
        b = a1 * b2 + a2 * b1
    if mod is not None:
        return (a % mod, b % mod)
    return (a, b)


def unit_power(D: int, u: tuple, k: int) -> tuple:
    """Exact k-th power of alpha + beta*gamma (k >= 0)."""
    return _power(D, u, k)


def _power(D: int, u: tuple, k: int, mod: int | None = None) -> tuple:
    """k-th power by binary powering, reduced modulo ``mod`` when given."""
    if mod is None:
        out, base = (1, 0), u
    else:
        out, base = (1 % mod, 0), (u[0] % mod, u[1] % mod)
    while k:
        if k & 1:
            out = _ring_mul(D, out, base, mod)
        k >>= 1
        if k:  # the square past the top bit would be the largest and unused
            base = _ring_mul(D, base, base, mod)
    return out


def gamma_element(F: GroundField) -> FieldElement:
    """The ring generator gamma as an element of the quadratic field."""
    if F.D % 4 == 1:
        return F.element(Fraction(1, 2), Fraction(1, 2))
    return F.symbol()


# ---------------------------------------------------------------------------
# fundamental units


def fundamental_unit(D: int) -> tuple:
    """The smallest unit > 1 of Z[gamma], as coordinates (alpha, beta).

    Found from the continued-fraction expansion of gamma.

    Raises
    ------
    NotSquareFree
        If D is not a square-free integer >= 2.
    """
    _check_D(D)
    return _cf_unit(D)


def _cf_unit(D: int) -> tuple:
    # continued fraction of gamma = (P0 + sqrt(D)) / Q0
    if D % 4 == 1:
        P, Q = 1, 2
    else:
        P, Q = 0, 1

    def step_floor(P: int, Q: int) -> int:
        v = (P + isqrt(D)) // Q
        while (v + 1) * Q - P <= 0 or ((v + 1) * Q - P) ** 2 <= D:
            v += 1
        while v * Q - P > 0 and (v * Q - P) ** 2 > D:
            v -= 1
        return v

    h_prev, k_prev = 1, 0
    a = step_floor(P, Q)
    h, k = a, 1
    for _ in range(10**6):
        if D % 4 == 1:
            cand = (h - k, k)
        else:
            cand = (h, k)
        if k >= 1 and abs(unit_norm(D, cand)) == 1:
            return cand
        P = a * Q - P
        Q = (D - P * P) // Q
        a = step_floor(P, Q)
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
    raise IsoleafError(f"continued fraction for D={D} did not produce a unit")


# ---------------------------------------------------------------------------
# the quadratic-module group


def _check_triple(t: int, l: int, m: int) -> None:
    if t == 0 or m == 0:
        raise BadTriple(f"(t, l, m) = {(t, l, m)} needs t != 0 and m != 0")
    if gcd(t, gcd(l, m)) != 1:
        raise BadTriple(f"(t, l, m) = {(t, l, m)} is not primitive")


@dataclass(frozen=True)
class QuadraticSearch:
    """The least stabilizing exponent with its certificate.

    The exponents k with ``ε^k`` rational modulo ``modulus`` (that is
    ``M' = |m t| / gcd(t, N(l + m γ))``) and of norm one form a subgroup
    ``exponent · Z``.  ``bound`` is a multiple of ``exponent`` from the
    group orders of the prime powers in ``factors``; ``witnesses`` holds,
    for each prime q dividing ``exponent``, the pair
    ``(q, ε^(exponent/q) mod M')`` whose residue is not rational or whose
    norm is -1.  That proves ``exponent`` least in polylog time.  The
    generator ``ε^exponent`` is computed on first read; ``cycle`` is
    empty because no residue cycle is walked.
    """

    D: int
    tau: tuple
    unit: tuple
    exponent: int
    modulus: int
    factors: tuple
    bound: int
    witnesses: tuple

    @cached_property
    def generator(self) -> tuple:
        return unit_power(self.D, self.unit, self.exponent)

    @property
    def cycle(self) -> tuple:
        return ()


def _kronecker(D: int, p: int) -> int:
    """(d_K | p) for the discriminant d_K of Q(sqrt D): D or 4D."""
    if p == 2:
        return 0 if D % 4 != 1 else (1 if D % 8 == 1 else -1)
    if D % p == 0:
        return 0
    return 1 if pow(D, (p - 1) // 2, p) == 1 else -1


def quadratic_group_search(D: int, t: int, l: int, m: int) -> QuadraticSearch:
    """The least k with ε^k preserving t Z + (l + m γ) Z, from group orders."""
    _check_D(D)
    _check_triple(t, l, m)
    eps = fundamental_unit(D)
    n_eps = unit_norm(D, eps)
    NL = unit_norm(D, (l, m))
    t1 = abs(t) // gcd(t, NL)
    M = abs(m) * t1
    factors = _factor(abs(m))
    for p, e in _factor(t1).items():
        factors[p] = factors.get(p, 0) + e
    bound = 1
    primes = set()  # the primes of the bound, from its parts
    for p, e in factors.items():
        order = p - _kronecker(D, p)
        bound = lcm(bound, p ** (e - 1) * order)
        primes.update(_factor(order))
        if e > 1:
            primes.add(p)
    if n_eps == -1 and bound % 2:
        bound *= 2
        primes.add(2)

    def qualifies(j: int) -> bool:
        return (n_eps == 1 or j % 2 == 0) and _power(D, eps, j, M)[1] == 0

    if not qualifies(bound):
        raise IsoleafError(f"the group-order bound {bound} fails for {(t, l, m)} over D = {D}")
    k = bound
    for q in sorted(primes):
        while k % q == 0 and qualifies(k // q):
            k //= q
    witnesses = tuple((q, _power(D, eps, k // q, M)) for q in sorted(primes) if k % q == 0)
    stats.record("veech", {"modulus": M, "bound": bound, "exponent": k})
    return QuadraticSearch(
        D=D,
        tau=(t, l, m),
        unit=eps,
        exponent=k,
        modulus=M,
        factors=tuple(sorted(factors.items())),
        bound=bound,
        witnesses=witnesses,
    )


def quadratic_group(D: int, t: int, l: int, m: int) -> int:
    """Smallest k >= 1 with ε^k preserving t Z + (l + m γ) Z.

    Raises
    ------
    BadTriple
        If t or m vanishes or gcd(t, l, m) != 1.
    """
    return quadratic_group_search(D, t, l, m).exponent


def module_triple(theta: FieldElement) -> tuple:
    """Canonical (t, l, m) with Z + theta Z similar to t Z + (l + m γ) Z.

    Canonical means gcd(t, l, m) = 1, m > 0 and 0 <= l < t.
    """
    if theta.field.tag != "quadratic" or theta.b == 0:
        raise BadTriple(f"theta = {theta} is not a quadratic irrational")
    D = theta.field.D
    a, b = theta.a, theta.b
    if D % 4 == 1:
        x, y = a - b, 2 * b
    else:
        x, y = a, b
    t = lcm(x.denominator, y.denominator)
    l = int(x * t)
    m = int(y * t)
    g = gcd(t, gcd(l, m))
    t, l, m = t // g, l // g, m // g
    if m < 0:
        l, m = -l, -m
    l %= t
    return (t, l, m)


def module_matrix(D: int, tau: tuple, eta: tuple) -> tuple:
    """Matrix of multiplication by α + β γ on the basis (t, l + m γ).

    Entries are exact rationals; they are integers exactly when the
    divisibility conditions hold, and the determinant equals N(η).
    """
    _check_D(D)
    t, l, m = tau
    alpha, beta = eta
    NL = unit_norm(D, (l, m))
    x11 = Fraction(alpha) - Fraction(beta * l, m)
    x21 = Fraction(t * beta, m)
    if D % 4 == 1:
        x22 = Fraction(alpha) + Fraction(beta * (l + m), m)
    else:
        x22 = Fraction(alpha) + Fraction(beta * l, m)
    x12 = Fraction(-beta * NL, m * t)
    return ((x11, x12), (x21, x22))


# ---------------------------------------------------------------------------
# the leaf-level descriptor


def veech_group(chi: PeriodCharacter):
    """The Veech group descriptor of the leaf of ``chi``.

    Positive or negative leaves give a conjugate of SL(2, Z) by the
    real matrix with columns the two periods.  Arithmetic real leaves give
    the triangular group; non-arithmetic real leaves give the triangular
    group extended by the hyperbolic unit that stabilizes the period module.
    """
    kind = classify(chi)
    if kind.kind in (LeafKind.POSITIVE, LeafKind.NEGATIVE):
        g1, g2 = chi.g1, chi.g2
        conj = (
            (g1.a, g2.a),
            (g1.b, g2.b),
        )
        return ConjSL2Z(conjugator=conj)
    if kind.kind == LeafKind.ARITH_REAL:
        return TriangularV()
    theta = normalize(chi).character.g2
    tau = module_triple(theta)
    D = theta.field.D
    return QuadraticV(D=D, tau=tau, exponent=quadratic_group_search(D, *tau).exponent)


def _mat_inv(A):
    d = mat2_det(A)
    if d == 0:
        raise IsoleafError("conjugator is singular")
    return (
        (A[1][1] / d, -A[0][1] / d),
        (-A[1][0] / d, A[0][0] / d),
    )


def _as_frac_matrix(A):
    return tuple(tuple(Fraction(x) for x in row) for row in A)


def group_contains(descriptor, matrix) -> bool:
    """Exact membership of a rational 2x2 matrix in the described group."""
    A = _as_frac_matrix(matrix)
    if isinstance(descriptor, ConjSL2Z):
        M = _as_frac_matrix(descriptor.conjugator)
        B = mat2_mul(mat2_mul(_mat_inv(M), A), M)
        return (
            all(x.denominator == 1 for row in B for x in row) and mat2_det(B) == 1
        )
    if isinstance(descriptor, TriangularV):
        s = A[0][0]
        return s in (1, -1) and A[1][0] == 0 and s * A[1][1] > 0
    if isinstance(descriptor, QuadraticV):
        # an A of det 1 that commutes with the hyperbolic G is x + y G with
        # x + y lam of norm 1 (lam an eigenvalue of G), so tr A fixes it up
        # to inversion: A is +-G^n or +-G^-n iff |tr A| = |V_n| for the Lucas
        # sequence V_0 = 2, V_1 = tr G, V_n+1 = tr G V_n - V_n-1, whose terms
        # grow strictly in absolute value because |tr G| > 2
        G = _as_frac_matrix(descriptor.matrix)
        if mat2_det(A) != 1 or mat2_mul(A, G) != mat2_mul(G, A):
            return False
        t, target = G[0][0] + G[1][1], abs(A[0][0] + A[1][1])
        if abs(t) <= 2:
            raise IsoleafError(f"generator of {descriptor!r} is not hyperbolic")
        v, v_next = 2, t
        while abs(v) < target:
            v, v_next = v_next, t * v_next - v
        return abs(v) == target
    raise IsoleafError(f"unknown descriptor {descriptor!r}")
