r"""Exact arithmetic on period characters of genus-one 1-forms.

A *period character* is a pair :math:`\chi = (g_1, g_2)` of complex numbers,
the images of a symplectic homology basis under integration of a meromorphic
1-form with two simple zeros and one double pole on an elliptic curve.  The
subgroup :math:`\Gamma = \mathbb{Z} g_1 + \mathbb{Z} g_2` of
:math:`(\mathbb{C}, +)` is the group of absolute periods.

All arithmetic here is exact.  Characters live in one of three computable
ground fields:

* ``gaussian``   -- :math:`\mathbb{Q}(i)`, elements ``a + b*i`` with
  rational ``a, b`` (the only field with non-real elements);
* ``quadratic``  -- the real field :math:`\mathbb{Q}(\sqrt{D})` for a
  square-free integer ``D >= 2``;
* ``rational``   -- :math:`\mathbb{Q}`.

The sign of a real element, hence every comparison, is decided exactly.

The key derived quantity is the volume
:math:`\mathrm{Vol}(\chi) = \mathrm{Im}(\overline{g_1}\, g_2)`, which
separates the four kinds of isoperiodic leaves:

* ``positive``      -- Vol > 0;
* ``negative``      -- Vol < 0;
* ``arith_real``    -- Vol = 0 and :math:`\Gamma` is cyclic, generated by
  one element ``a``;
* ``nonarith_real`` -- Vol = 0 and :math:`\Gamma \cong \mathbb{Z} +
  \theta\mathbb{Z}` is dense on a line, with irrational quadratic
  :math:`\theta`.

`normalize` reduces a character to the standard model of its kind
(``(1, i)``, ``(1, -i)``, ``(1, 0)``, or ``(1, theta)`` with
``theta in (0, 1)``) and records both the orientation-preserving real-linear
map and the integral basis change that achieve the reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

__all__ = [
    "IsoleafError",
    "InvalidInput",
    "TrivialCharacter",
    "ZeroElement",
    "WrongLeafKind",
    "FieldMismatch",
    "GroundField",
    "FieldElement",
    "PeriodCharacter",
    "LeafKind",
    "LatticeElement",
    "CharacteristicTriple",
    "NormalizedCharacter",
    "volume",
    "classify",
    "is_primitive",
    "enumerate_triples",
    "coordinate_triples",
    "normalize",
    "mat2_det",
    "mat2_mul",
    "symplectic_partner",
    "pm_representative",
]


# ---------------------------------------------------------------------------
# errors


class IsoleafError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(IsoleafError, ValueError):
    """Raised for an argument outside the domain of a function.

    It is a ``ValueError`` too, so callers that catch the built-in error
    keep working.
    """


class TrivialCharacter(IsoleafError):
    """Raised for the character (0, 0), whose leaf is not defined."""


class ZeroElement(IsoleafError):
    """Raised when the zero lattice element is used where a direction is needed."""


class WrongLeafKind(IsoleafError):
    """Raised when an operation is applied to a character of the wrong kind."""


class FieldMismatch(IsoleafError):
    """Raised when exact numbers from different ground fields are combined."""


# ---------------------------------------------------------------------------
# ground fields and their elements


def _primes_below(n: int) -> tuple:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n, i)))
    return tuple(i for i in range(n) if sieve[i])


_SMALL_PRIMES = _primes_below(1000)
# Miller-Rabin with the first 13 prime bases is deterministic below this
# bound (Sorenson and Webster, 2015)
_MR_BASES = _SMALL_PRIMES[:13]
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Miller-Rabin for an odd n > 1 free of the bases; proof below `_MR_LIMIT`.

    Raises
    ------
    InvalidInput
        If n passes every base but lies above `_MR_LIMIT`, where passing
        proves nothing.
    """
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise InvalidInput(f"cannot prove {n} prime: it is above 3.3e24")
    return True


# squarings that one `_factor` call may spend in Pollard-Brent rho, about a
# second of work: a prime factor p takes about sqrt(p) of them, so a factor
# below 10^9 takes at most a quarter of the budget
_RHO_STEPS = 1 << 20


def _rho(n: int, steps: int) -> tuple[int, int]:
    """A proper factor of an odd composite n (Pollard 1975, in Brent's form).

    Returns the factor and what is left of the ``steps`` squarings allowed.

    Raises
    ------
    InvalidInput
        If no factor turns up within ``steps`` squarings.
    """
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps -= 2 * r
            if steps < 0:
                raise InvalidInput(
                    f"cannot factor {n}: no factor found within {_RHO_STEPS} rho steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step back one value at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g, steps
        c += 1


def _factor(n: int) -> dict:
    """Prime factorization ``{p: e}`` of an integer n >= 1.

    Trial division by the primes below 1000, then Miller-Rabin and
    Pollard-Brent rho on what is left.  Every prime returned is proved
    prime.  The time grows with the second-largest prime factor, so a
    product of two large primes is as hard as factoring it; the rho steps
    are bounded by `_RHO_STEPS`.

    Raises
    ------
    InvalidInput
        If a factor above 3.3e24 passes Miller-Rabin and so cannot be
        proved prime, or if rho finds no factor within `_RHO_STEPS` steps.
    """
    out: dict = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    stack = [n] if n > 1 else []
    steps = _RHO_STEPS
    while stack:
        f = stack.pop()
        # no prime below 1000 divides f, so f < 1000^2 is prime
        if f < 10**6 or _is_prime(f):
            out[f] = out.get(f, 0) + 1
        else:
            d, steps = _rho(f, steps)
            stack += [d, f // d]
    return dict(sorted(out.items()))


def _is_square_free(n: int) -> bool:
    return all(e == 1 for e in _factor(n).values())


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """``(g, s, t)`` with ``s a + t b = g = gcd(a, b) >= 0``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


_FIELDS: dict = {}  # the shared GroundField instance of each (tag, D)


@dataclass(frozen=True)
class GroundField:
    """A computable ground field: Q, Q(i), or a real quadratic field.

    The constructors `rational`, `gaussian` and `quadratic` return one
    shared instance per field, so the field check of element arithmetic is
    usually an identity test.  Equality stays by value, for fields built
    directly with ``GroundField(...)``.

    Attributes
    ----------
    tag : str
        One of ``"rational"``, ``"gaussian"``, ``"quadratic"``.
    D : int or None
        The radicand for ``"quadratic"`` fields; ``None`` otherwise.
    """

    tag: str
    D: int | None = None

    def __post_init__(self) -> None:
        if self.tag not in ("rational", "gaussian", "quadratic"):
            raise InvalidInput(f"unknown ground field tag {self.tag!r}")
        if self.tag == "quadratic":
            if self.D is None or self.D < 2 or not _is_square_free(self.D):
                raise InvalidInput("quadratic fields need a square-free D >= 2")
        elif self.D is not None:
            raise InvalidInput(f"field {self.tag!r} takes no radicand")
        # the square of the adjoined symbol as a plain integer (0 for Q), as
        # element arithmetic reads it
        object.__setattr__(self, "_w2", {"rational": 0, "gaussian": -1}.get(self.tag, self.D))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational() -> "GroundField":
        return GroundField._interned("rational", None)

    @staticmethod
    def gaussian() -> "GroundField":
        return GroundField._interned("gaussian", None)

    @staticmethod
    def quadratic(D: int) -> "GroundField":
        return GroundField._interned("quadratic", D)

    @staticmethod
    def _interned(tag: str, D) -> "GroundField":
        F = _FIELDS.get((tag, D))
        if F is None:
            F = _FIELDS.setdefault((tag, D), GroundField(tag, D))
        return F

    # -- structure ---------------------------------------------------------

    @property
    def is_real(self) -> bool:
        """Whether the field embeds in the real numbers."""
        return self.tag != "gaussian"

    def element(self, a, b=0) -> "FieldElement":
        """Build the element ``a + b*symbol`` of this field."""
        return FieldElement(self, a, b)

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def symbol(self) -> "FieldElement":
        """The adjoined symbol i or sqrt(D); errors for Q."""
        if self.tag == "rational":
            raise ValueError("the rational field has no adjoined symbol")
        return self.element(0, 1)


class FieldElement:
    """An exact number ``a + b*w`` where ``w in {i, sqrt(D)}`` (or ``b = 0``).

    Stored as integers ``(p, q, d)`` for ``(p + q*w)/d``, with ``d > 0`` and
    ``gcd(p, q, d) = 1``.  That form is unique, so equality and hashing
    compare integers; the rational coordinates ``a = p/d`` and ``b = q/d``
    are derived on request.  Instances are immutable.

    Supports ring operations, exact division, complex and Galois
    conjugation, and -- in the real fields -- exact sign and total order.
    Integers and :class:`~fractions.Fraction` values coerce automatically.
    """

    __slots__ = ("_field", "_p", "_q", "_d")

    def __init__(self, field: GroundField, a, b=0) -> None:
        """The element ``a + b*w`` of ``field``, for any ``a, b`` `Fraction` accepts."""
        if type(a) is int and type(b) is int:
            p, q, d = a, b, 1
        else:
            a, b = Fraction(a), Fraction(b)
            da, db = a.denominator, b.denominator
            d = da // gcd(da, db) * db  # the lcm, so gcd(p, q, d) = 1
            p, q = a.numerator * (d // da), b.numerator * (d // db)
        if q and not field._w2:
            raise ValueError("the rational field has no adjoined symbol")
        self._field, self._p, self._q, self._d = field, p, q, d

    @staticmethod
    def _reduce(field: GroundField, p: int, q: int, d: int) -> "FieldElement":
        """The element ``(p + q*w)/d`` for any integers with ``d != 0``."""
        if d < 0:
            p, q, d = -p, -q, -d
        g = gcd(p, q, d)
        if g != 1:
            p, q, d = p // g, q // g, d // g
        x = object.__new__(FieldElement)
        x._field, x._p, x._q, x._d = field, p, q, d
        return x

    # -- read-only views ---------------------------------------------------

    @property
    def field(self) -> GroundField:
        return self._field

    @property
    def p(self) -> int:
        """Integer rational part over the common denominator ``d``."""
        return self._p

    @property
    def q(self) -> int:
        """Integer coefficient of the symbol over the common denominator ``d``."""
        return self._q

    @property
    def d(self) -> int:
        """The common denominator, positive."""
        return self._d

    @property
    def a(self) -> Fraction:
        """The rational part ``p/d``, reduced."""
        return Fraction(self._p, self._d)

    @property
    def b(self) -> Fraction:
        """The coefficient ``q/d`` of the symbol, reduced."""
        return Fraction(self._q, self._d)

    # -- helpers -----------------------------------------------------------

    def _parts(self, other) -> "tuple[int, int, int] | None":
        """The normal-form integers of ``other`` read in this field.

        None if ``other`` is not a number; elements of another field coerce
        only when rational.
        """
        if type(other) is int:
            return (other, 0, 1)
        if isinstance(other, FieldElement):
            if other._field is self._field or other._q == 0 or other._field == self._field:
                return (other._p, other._q, other._d)
            raise FieldMismatch(
                f"cannot mix {self._field.tag} and {other._field.tag} elements"
            )
        if isinstance(other, (int, Fraction)):
            return (other.numerator, 0, other.denominator)
        return None

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (
            self._p == other._p
            and self._q == other._q
            and self._d == other._d
            and (self._field is other._field or self._field == other._field)
        )

    def __hash__(self) -> int:
        return hash((self._p, self._q, self._d))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p1, q1, d1 = self._p, self._q, self._d
        p2, q2, d2 = o
        if d1 == d2:
            return FieldElement._reduce(self._field, p1 + p2, q1 + q2, d1)
        return FieldElement._reduce(
            self._field, p1 * d2 + p2 * d1, q1 * d2 + q2 * d1, d1 * d2
        )

    __radd__ = __add__

    def __neg__(self):
        return FieldElement._reduce(self._field, -self._p, -self._q, self._d)

    def __sub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p1, q1, d1 = self._p, self._q, self._d
        p2, q2, d2 = o
        if d1 == d2:
            return FieldElement._reduce(self._field, p1 - p2, q1 - q2, d1)
        return FieldElement._reduce(
            self._field, p1 * d2 - p2 * d1, q1 * d2 - q2 * d1, d1 * d2
        )

    def __rsub__(self, other):
        if self._parts(other) is None:
            return NotImplemented
        return -(self - other)

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p1, q1, d1 = self._p, self._q, self._d
        p2, q2, d2 = o
        if not (q1 or q2):
            return FieldElement._reduce(self._field, p1 * p2, 0, d1 * d2)
        return FieldElement._reduce(
            self._field,
            p1 * p2 + self._field._w2 * q1 * q2,
            p1 * q2 + q1 * p2,
            d1 * d2,
        )

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        p, q, d = self._p, self._q, self._d
        # d / (p + q*w) = d (p - q*w) / (p^2 - w^2 q^2), and w^2 is no square
        n = p * p - self._field._w2 * q * q
        if n == 0:
            raise ZeroDivisionError("division by zero field element")
        return FieldElement._reduce(self._field, d * p, -d * q, n)

    def __truediv__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p1, q1, d1 = self._p, self._q, self._d
        p2, q2, d2 = o
        if not (q1 or q2):
            if p2 == 0:
                raise ZeroDivisionError("division by zero field element")
            return FieldElement._reduce(self._field, p1 * d2, 0, d1 * p2)
        w2 = self._field._w2
        n2 = p2 * p2 - w2 * q2 * q2
        if n2 == 0:
            raise ZeroDivisionError("division by zero field element")
        # (p1 + q1 w)/d1 * d2 (p2 - q2 w)/n2
        return FieldElement._reduce(
            self._field,
            d2 * (p1 * p2 - w2 * q1 * q2),
            d2 * (q1 * p2 - p1 * q2),
            d1 * n2,
        )

    def __rtruediv__(self, other):
        if self._parts(other) is None:
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = self._field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- conjugation, norm, parts ------------------------------------------

    def conjugate(self) -> "FieldElement":
        """Complex conjugate (negates ``b`` only in the Gaussian field)."""
        if self._field._w2 == -1:
            return FieldElement._reduce(self._field, self._p, -self._q, self._d)
        return self

    def norm(self) -> Fraction:
        """Field norm ``(a + b*w)(a - b*w)`` as a rational number."""
        p, q, d = self._p, self._q, self._d
        return Fraction(p * p - self._field._w2 * q * q, d * d)

    def imag_fraction(self) -> Fraction:
        """Imaginary part of the complex embedding; exact, often 0."""
        if self._field._w2 == -1:
            return Fraction(self._q, self._d)
        return Fraction(0)

    # -- order and sign ----------------------------------------------------

    def is_zero(self) -> bool:
        return self._p == 0 and self._q == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def sign(self) -> int:
        """Exact sign of a real element; errors in the Gaussian field."""
        return self._real_sign(self._p, self._q)

    def _real_sign(self, p: int, q: int) -> int:
        """Exact sign of ``p + q*w`` in this field, which must be real."""
        w2 = self._field._w2
        if w2 < 0:
            raise ValueError("gaussian elements have no sign")
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0 or (p > 0) == (q > 0):
            return 1 if q > 0 else -1
        # mixed signs: compare p^2 with D q^2 (equality impossible, D square-free)
        if p * p > w2 * q * q:
            return 1 if p > 0 else -1
        return 1 if q > 0 else -1

    def _cmp(self, other) -> int:
        o = self._parts(other)
        if o is None:
            raise TypeError(f"cannot compare FieldElement with {type(other)!r}")
        p2, q2, d2 = o
        # the sign of self - other, scaled by the positive d1 * d2
        d1 = self._d
        return self._real_sign(self._p * d2 - p2 * d1, self._q * d2 - q2 * d1)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def floor(self) -> int:
        """Exact floor of a real element."""
        w2 = self._field._w2
        if w2 < 0:
            raise ValueError("gaussian elements have no floor")
        p, q = self._p, self._q
        if q:
            # q*sqrt(D) is irrational, strictly between r and r + 1 (or
            # -r - 1 and -r), and the floor of (p + q*sqrt(D))/d is the floor
            # of (p + that lower integer)/d
            r = isqrt(w2 * q * q)
            p += r if q > 0 else -r - 1
        return p // self._d

    # -- embeddings --------------------------------------------------------

    def __complex__(self) -> complex:
        w2 = self._field._w2
        a = self._p / self._d
        if w2 == 0:
            return complex(a)
        b = self._q / self._d
        if w2 == -1:
            return complex(a) + 1j * b
        return complex(a + b * (w2**0.5))

    def __float__(self) -> float:
        if not self._field.is_real:
            raise ValueError("gaussian elements are not real")
        return complex(self).real

    def __repr__(self) -> str:
        a, b = self.a, self.b
        if b == 0:
            return f"{a}"
        sym = "i" if self._field.tag == "gaussian" else f"sqrt({self._field.D})"
        if a == 0:
            return f"{b}*{sym}"
        op = "+" if b > 0 else "-"
        return f"{a} {op} {abs(b)}*{sym}"

    # -- serialization -----------------------------------------------------

    def fraction_parts(self) -> tuple[int, int, int, int]:
        """Numerators and denominators of the reduced ``a`` and ``b``."""
        p, q, d = self._p, self._q, self._d
        if q == 0:
            return (p, d, 0, 1)  # gcd(p, d) = 1 when q = 0
        ga, gb = gcd(p, d), gcd(q, d)
        return (p // ga, d // ga, q // gb, d // gb)

    def normal_form(self) -> tuple[int, int, int]:
        """The integers ``(p, q, d)``, a cheap dict key within one field."""
        return (self._p, self._q, self._d)

    def to_json(self) -> list[list[str]]:
        an, ad, bn, bd = self.fraction_parts()
        if self._field.tag == "rational":
            return [[str(an), str(ad)]]
        return [[str(an), str(ad)], [str(bn), str(bd)]]

    @staticmethod
    def from_json(field: GroundField, data) -> "FieldElement":
        """Parse ``to_json`` output; raises `IsoleafError` if malformed."""
        size = 1 if field.tag == "rational" else 2
        try:
            pairs = [(int(num), int(den)) for num, den in data]
        except (TypeError, ValueError) as exc:
            raise IsoleafError(f"malformed field element {data!r}: {exc}") from None
        if len(pairs) != size:
            raise IsoleafError(
                f"a {field.tag} element has {size} coordinate(s), got {data!r}"
            )
        if any(den == 0 for _, den in pairs):
            raise IsoleafError(f"zero denominator in field element {data!r}")
        (pa, da), (pb, db) = pairs if size == 2 else pairs + [(0, 1)]
        return FieldElement._reduce(field, pa * db, pb * da, da * db)


# ---------------------------------------------------------------------------
# 2x2 integer matrix helpers (rows-of-tuples convention)


Mat2 = tuple[tuple[int, int], tuple[int, int]]


def mat2_det(A: Mat2) -> int:
    return A[0][0] * A[1][1] - A[0][1] * A[1][0]


def mat2_mul(A: Mat2, B: Mat2):
    return (
        (
            A[0][0] * B[0][0] + A[0][1] * B[1][0],
            A[0][0] * B[0][1] + A[0][1] * B[1][1],
        ),
        (
            A[1][0] * B[0][0] + A[1][1] * B[1][0],
            A[1][0] * B[0][1] + A[1][1] * B[1][1],
        ),
    )


# ---------------------------------------------------------------------------
# lattice elements


@dataclass(frozen=True, order=True)
class LatticeElement:
    """Integer coordinates ``(m, n)`` of the period ``m*g1 + n*g2``."""

    m: int
    n: int

    def __neg__(self) -> "LatticeElement":
        return LatticeElement(-self.m, -self.n)

    def __add__(self, other: "LatticeElement") -> "LatticeElement":
        return LatticeElement(self.m + other.m, self.n + other.n)

    def __sub__(self, other: "LatticeElement") -> "LatticeElement":
        return LatticeElement(self.m - other.m, self.n - other.n)

    def scale(self, k: int) -> "LatticeElement":
        return LatticeElement(k * self.m, k * self.n)

    def det(self, other: "LatticeElement") -> int:
        """Determinant of the 2x2 matrix with rows self, other."""
        return self.m * other.n - self.n * other.m

    def is_zero(self) -> bool:
        return self.m == 0 and self.n == 0

    def max_norm(self) -> int:
        return max(abs(self.m), abs(self.n))


def is_primitive(u: LatticeElement) -> bool:
    """Whether ``u`` generates a maximal cyclic subgroup of the lattice.

    Raises
    ------
    ZeroElement
        If ``u`` is the zero element, which has no direction.
    """
    if u.is_zero():
        raise ZeroElement("the zero lattice element is neither primitive nor not")
    return gcd(u.m, u.n) == 1


def pm_representative(u: LatticeElement) -> LatticeElement:
    """Canonical representative of the pair ``{u, -u}``.

    The representative has positive first nonzero coordinate.
    """
    if u.m > 0 or (u.m == 0 and u.n > 0):
        return u
    return -u


def symplectic_partner(u: LatticeElement) -> LatticeElement:
    """A canonical ``v`` with ``det(u, v) = 1``, of minimal Euclidean norm.

    Every such ``v`` is ``v0 + k u`` for one solution ``v0``.  The norm is
    least at the projection ``t = -(v0 . u)/|u|^2``; its half-up rounding
    ``floor(t + 1/2)`` is the integer ``(|u|^2 - 2 v0 . u) // (2 |u|^2)``.
    The neighbours ``k - 1`` and ``k + 1`` are compared too, and ties of
    norm go to the lexicographically least ``v``.

    Raises
    ------
    ZeroElement
        If ``u`` is zero.
    ValueError
        If ``u`` is not primitive (no partner exists).
    """
    if u.is_zero():
        raise ZeroElement("the zero element has no symplectic partner")
    m, n = u.m, u.n
    g, x0, y0 = _ext_gcd(m, n)
    if g != 1:
        raise ValueError(f"{u!r} is imprimitive and has no symplectic partner")
    # x0*m + y0*n == 1, so v0 = (-y0, x0) gives det(u, v0) == 1
    vm, vn = -y0, x0
    uu = m * m + n * n
    k = (uu - 2 * (vm * m + vn * n)) // (2 * uu)
    _, bm, bn = min(
        ((vm + j * m) ** 2 + (vn + j * n) ** 2, vm + j * m, vn + j * n)
        for j in (k - 1, k, k + 1)
    )
    return LatticeElement(bm, bn)


# ---------------------------------------------------------------------------
# leaf kinds


@dataclass(frozen=True)
class LeafKind:
    """The kind of an isoperiodic leaf, with its normal-form data.

    Attributes
    ----------
    kind : str
        ``"positive"``, ``"negative"``, ``"arith_real"``, or
        ``"nonarith_real"``.
    generator : FieldElement, optional
        For ``arith_real``: the canonical primitive generator of the
        period group.
    theta : FieldElement, optional
        For ``nonarith_real``: the irrational slope of the normal form
        ``(1, theta)`` with ``theta in (0, 1)``.
    """

    kind: str
    generator: FieldElement | None = None
    theta: FieldElement | None = None

    POSITIVE = "positive"
    NEGATIVE = "negative"
    ARITH_REAL = "arith_real"
    NONARITH_REAL = "nonarith_real"

    @property
    def is_positive(self) -> bool:
        return self.kind == self.POSITIVE

    @property
    def is_negative(self) -> bool:
        return self.kind == self.NEGATIVE

    @property
    def is_arithmetic(self) -> bool:
        return self.kind == self.ARITH_REAL

    @property
    def is_nonarithmetic(self) -> bool:
        """Only tests read it; kept as one of the four ``is_*`` flags of the kinds."""
        return self.kind == self.NONARITH_REAL


# ---------------------------------------------------------------------------
# period characters


@dataclass(frozen=True)
class PeriodCharacter:
    """An exact period character ``(g1, g2)`` over a computable field.

    Raises
    ------
    TrivialCharacter
        If both periods vanish.
    FieldMismatch
        If the two periods live in different fields.
    """

    field: GroundField
    g1: FieldElement
    g2: FieldElement

    def __post_init__(self) -> None:
        if self.g1.field != self.field or self.g2.field != self.field:
            raise FieldMismatch("periods must belong to the declared field")
        if self.g1.is_zero() and self.g2.is_zero():
            raise TrivialCharacter("the character (0, 0) has no leaf")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def gaussian(g1, g2) -> "PeriodCharacter":
        """Build a Gaussian character from ``(re, im)`` rational pairs."""
        F = GroundField.gaussian()
        return PeriodCharacter(F, F.element(*_pair(g1)), F.element(*_pair(g2)))

    @staticmethod
    def rational(g1, g2) -> "PeriodCharacter":
        F = GroundField.rational()
        return PeriodCharacter(F, F.element(g1), F.element(g2))

    @staticmethod
    def quadratic(D: int, g1, g2) -> "PeriodCharacter":
        """Build a real quadratic character from ``(a, b)`` pairs."""
        F = GroundField.quadratic(D)
        return PeriodCharacter(F, F.element(*_pair(g1)), F.element(*_pair(g2)))

    # -- basic data --------------------------------------------------------

    def volume(self) -> Fraction:
        """The exact volume ``Im(conj(g1) * g2)``."""
        return (self.g1.conjugate() * self.g2).imag_fraction()

    def lattice_value(self, u: LatticeElement) -> FieldElement:
        """The period ``m*g1 + n*g2`` of a lattice element."""
        return u.m * self.g1 + u.n * self.g2

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        out: dict = {"field": self.field.tag}
        if self.field.tag == "quadratic":
            out["D"] = str(self.field.D)
        out["g1"] = self.g1.to_json()
        out["g2"] = self.g2.to_json()
        return out

    @staticmethod
    def from_json_dict(data: dict) -> "PeriodCharacter":
        tag = data["field"]
        if tag == "quadratic":
            field = GroundField.quadratic(int(data["D"]))
        elif tag == "gaussian":
            field = GroundField.gaussian()
        else:
            field = GroundField.rational()
        g1 = FieldElement.from_json(field, data["g1"])
        g2 = FieldElement.from_json(field, data["g2"])
        return PeriodCharacter(field, g1, g2)


def _pair(value) -> tuple:
    if isinstance(value, (tuple, list)):
        return tuple(value)
    return (value, 0)


# ---------------------------------------------------------------------------
# the classifier


def volume(chi: PeriodCharacter) -> Fraction:
    """Exact volume ``Im(conj(g1) * g2)`` of a character."""
    return chi.volume()


def _ratio_as_fraction(chi: PeriodCharacter) -> Fraction | None:
    """``g2/g1`` as a rational number, or ``None`` if irrational."""
    if chi.g1.is_zero():
        return None
    r = chi.g2 / chi.g1
    if r.b == 0:
        return r.a
    return None


def classify(chi: PeriodCharacter) -> LeafKind:
    """Classify the isoperiodic leaf of a character.

    Returns
    -------
    LeafKind
        ``positive``/``negative`` by the sign of the volume; among the
        volume-zero characters, ``arith_real`` when the period group is
        cyclic (carrying its canonical generator) and ``nonarith_real``
        when it is dense on a line (carrying the slope of the
        ``(1, theta)`` normal form).

    Raises
    ------
    TrivialCharacter
        If both periods vanish (already rejected at construction).
    """
    vol = chi.volume()
    if vol > 0:
        return LeafKind(LeafKind.POSITIVE)
    if vol < 0:
        return LeafKind(LeafKind.NEGATIVE)
    # volume zero: the periods are real-collinear
    if chi.g1.is_zero():
        return LeafKind(LeafKind.ARITH_REAL, generator=_canonical_generator(chi.g2))
    if chi.g2.is_zero():
        return LeafKind(LeafKind.ARITH_REAL, generator=_canonical_generator(chi.g1))
    ratio = _ratio_as_fraction(chi)
    if ratio is not None:
        # Z g1 + Z g2 = (g1 / q) Z for g2/g1 = p/q in lowest terms
        a = chi.g1 / ratio.denominator
        return LeafKind(LeafKind.ARITH_REAL, generator=_canonical_generator(a))
    theta = chi.g2 / chi.g1
    theta = theta - theta.floor()
    return LeafKind(LeafKind.NONARITH_REAL, theta=theta)


def _canonical_generator(a: FieldElement) -> FieldElement:
    """Fix the sign of a period-group generator deterministically."""
    if a.field.is_real:
        return a if a.sign() > 0 else -a
    if a.a > 0 or (a.a == 0 and a.b > 0):
        return a
    return -a


# ---------------------------------------------------------------------------
# basis changes and normalization


@dataclass(frozen=True)
class NormalizedCharacter:
    """A character in normal form, with the maps that got it there.

    Attributes
    ----------
    kind : LeafKind
        Kind of the original character.
    character : PeriodCharacter
        The normal form: ``(1, i)``, ``(1, -i)``, ``(1, 0)``, or
        ``(1, theta)``.
    matrix : tuple
        Rows of the orientation-preserving real-linear map of the plane
        (exact entries) that rescales periods to the normal form.
    basis_change : Mat2
        The determinant-one integral matrix applied to the basis after
        rescaling.
    original : PeriodCharacter
        The input character.
    """

    kind: LeafKind
    character: PeriodCharacter
    matrix: tuple
    basis_change: Mat2
    original: PeriodCharacter


def _complex_mult_matrix(c: FieldElement) -> tuple:
    """Real 2x2 matrix of multiplication by a Gaussian number."""
    F = c.field
    return ((F.element(c.a), F.element(-c.b)), (F.element(c.b), F.element(c.a)))


def _real_scale_matrix(c: FieldElement) -> tuple:
    return ((c, c.field.zero()), (c.field.zero(), c))


def normalize(chi: PeriodCharacter) -> NormalizedCharacter:
    """Rescale and re-basis a character to the standard model of its kind.

    Positive characters map to ``(1, i)``, negative to ``(1, -i)``,
    arithmetic to ``(1, 0)``, and non-arithmetic to ``(1, theta)`` with
    ``theta in (0, 1)`` irrational.  The recorded plane map has positive
    determinant and exact entries; composing it with the recorded basis
    change sends the original character to the normal form.
    """
    kind = classify(chi)
    F = chi.field
    if kind.is_positive or kind.is_negative:
        vol = chi.volume()
        # inverse of the matrix with columns g1, g2 (as vectors of the plane)
        r1, i1 = chi.g1.a, chi.g1.b
        r2, i2 = chi.g2.a, chi.g2.b
        det = vol  # r1*i2 - i1*r2
        inv = ((i2 / det, -r2 / det), (-i1 / det, r1 / det))
        if kind.is_negative:
            inv = (inv[0], (-inv[1][0], -inv[1][1]))
        Q = GroundField.rational()
        matrix = (
            (Q.element(inv[0][0]), Q.element(inv[0][1])),
            (Q.element(inv[1][0]), Q.element(inv[1][1])),
        )
        target_g2 = (0, 1) if kind.is_positive else (0, -1)
        norm_chi = PeriodCharacter.gaussian((1, 0), target_g2)
        return NormalizedCharacter(kind, norm_chi, matrix, ((1, 0), (0, 1)), chi)
    if kind.is_arithmetic:
        a = kind.generator
        scale = a.inverse()
        # after rescaling the periods are coprime integers (p, q)
        p_el = chi.g1 * scale
        q_el = chi.g2 * scale
        p, q = int(p_el.a), int(q_el.a)
        A = _basis_change_to_one_zero(p, q)
        if F.tag == "gaussian":
            matrix = _complex_mult_matrix(scale)
        else:
            matrix = _real_scale_matrix(scale)
        norm_chi = PeriodCharacter.rational(1, 0)
        return NormalizedCharacter(kind, norm_chi, matrix, A, chi)
    # non-arithmetic
    g1, g2 = chi.g1, chi.g2
    swap = ((0, -1), (1, 0))
    basis = ((1, 0), (0, 1))
    if g1.is_zero():
        g1, g2 = g2, -g1
        basis = swap
    scale = g1.inverse()
    if (g1 * scale).sign() < 0:  # keep the plane map orientation explicit
        scale = -scale
    theta0 = g2 * scale
    f = theta0.floor()
    shear = ((1, -f), (0, 1))
    basis = mat2_mul(basis, shear)
    theta = theta0 - f
    matrix = _real_scale_matrix(scale)
    norm_chi = PeriodCharacter(F, F.one(), theta)
    return NormalizedCharacter(kind, norm_chi, matrix, basis, chi)


def _basis_change_to_one_zero(p: int, q: int) -> Mat2:
    """A determinant-one matrix A with ``(p, q) A = (1, 0)``."""
    g, x, y = _ext_gcd(p, q)
    if g != 1:
        raise ValueError("expected coprime integer periods")
    # x p + y q = 1 is the determinant, and (p, q) . (-q, p) = 0
    return ((x, -q), (y, p))


# ---------------------------------------------------------------------------
# characteristic triples


@dataclass(frozen=True)
class CharacteristicTriple:
    """A cyclically ordered triple of periods summing to zero.

    Consecutive pairs form oriented lattice bases: with the coordinate
    convention here, ``det(u_i, u_{i+1}) = 1`` for all three cyclic pairs,
    which is equivalent to ``Im(conj(value(u_i)) value(u_{i+1})) = Vol``.
    Stored in the canonical rotation (lexicographically least).
    """

    u1: LatticeElement
    u2: LatticeElement
    u3: LatticeElement

    @staticmethod
    def make(a: LatticeElement, b: LatticeElement, c: LatticeElement) -> "CharacteristicTriple":
        """Canonicalize a triple by cyclic rotation; validates the laws."""
        if (a + b + c).is_zero() is False:
            raise ValueError("triple coordinates must sum to zero")
        if not (a.det(b) == 1 and b.det(c) == 1 and c.det(a) == 1):
            raise ValueError("consecutive pairs must be oriented bases")
        rots = [(a, b, c), (b, c, a), (c, a, b)]
        key = lambda t: ((t[0].m, t[0].n), (t[1].m, t[1].n), (t[2].m, t[2].n))
        best = min(rots, key=key)
        return CharacteristicTriple(*best)

    def elements(self) -> tuple[LatticeElement, LatticeElement, LatticeElement]:
        return (self.u1, self.u2, self.u3)

    def rotated(self, j: int) -> tuple[LatticeElement, LatticeElement, LatticeElement]:
        """The rotation starting at slot ``j`` (0-based)."""
        e = self.elements()
        return (e[j % 3], e[(j + 1) % 3], e[(j + 2) % 3])

    def __neg__(self) -> "CharacteristicTriple":
        return CharacteristicTriple.make(-self.u1, -self.u2, -self.u3)

    def max_norm(self) -> int:
        return max(e.max_norm() for e in self.elements())

    def sort_key(self):
        return (
            (self.u1.m, self.u1.n),
            (self.u2.m, self.u2.n),
            (self.u3.m, self.u3.n),
        )


def enumerate_triples(chi: PeriodCharacter, bound: int) -> list[CharacteristicTriple]:
    """All characteristic triples with coordinates of max-norm ``<= bound``.

    Only defined on negative characters (where the triples index the
    degenerate-surface chambers of the leaf).

    Raises
    ------
    WrongLeafKind
        If the character is not negative.
    """
    if not classify(chi).is_negative:
        raise WrongLeafKind("characteristic triples require a negative character")
    return coordinate_triples(bound)


def coordinate_triples(bound: int) -> list[CharacteristicTriple]:
    """Characteristic triples of max-norm ``<= bound``, by coordinates only.

    Every ``b`` with ``det(a, b) = 1`` is ``symplectic_partner(a) + m a``
    for an integer ``m``, and only primitive ``a`` have one.  So for each
    primitive ``a`` the triples ``(a, b, -a - b)`` within the bound are an
    integer interval of ``m``; each triple is kept from the rotation that
    starts at its least element, which is its canonical one.  The work is
    linear in the number of triples.
    """
    out = []
    rng = range(-bound, bound + 1)
    for i in rng:
        for j in rng:
            if gcd(i, j) != 1:
                continue
            a = LatticeElement(i, j)
            p = symplectic_partner(a)
            for m in _partner_steps(a, p, bound):
                b = p + a.scale(m)
                c = -a - b
                if (a.m, a.n) < (b.m, b.n) and (a.m, a.n) < (c.m, c.n):
                    out.append(CharacteristicTriple(a, b, c))
    return sorted(out, key=CharacteristicTriple.sort_key)


def _partner_steps(a: LatticeElement, p: LatticeElement, bound: int) -> range:
    """The integers m with ``p + m a`` and ``a + p + m a`` of max-norm ``<= bound``.

    Each coordinate ``x + m y`` of the two is one condition; those with
    ``y != 0`` bound m on both sides, and ``a != 0`` gives at least one.
    """
    lows, highs = [], []
    for x, y in ((p.m, a.m), (p.n, a.n), (a.m + p.m, a.m), (a.n + p.n, a.n)):
        if y == 0:
            if abs(x) > bound:
                return range(0)
            continue
        if y < 0:
            x, y = -x, -y
        # -bound <= x + m y <= bound, with y > 0
        lows.append(-((bound + x) // y))
        highs.append((bound - x) // y)
    return range(max(lows), min(highs) + 1)
