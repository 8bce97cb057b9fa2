"""Exact coefficient arithmetic and sparse polynomials.

The coefficient ring is Q[sqrtpi, 1/sqrtpi]: an :class:`ExactScalar` is a
finite sum  sum_g c_g * sqrtpi^g  with rational c_g and integer grade g.
sqrtpi is a formal symbol (never evaluated), so identities whose two sides
carry half-integer Gamma factors such as Gamma(k + 1/2) can be decided by
structural equality.  Grade 2 means the symbol pi; it is kept symbolic.

On top of the scalars sit sparse multivariate Laurent polynomials
(:class:`Polynomial`, graded-lex term order with the last variable least
significant) and their normal form modulo the cone's quadric.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Iterable, Mapping

from .cone import ConeSpec

__all__ = [
    "ExactScalar",
    "ExactnessError",
    "Polynomial",
    "gamma_exact",
    "reduce_mod_quadric",
]


class ExactnessError(ValueError):
    """An operation claimed exactness outside its exact domain."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to an exact rational")


class ExactScalar:
    """sum_g c_g * sqrtpi^g with rational c_g, integer grade g.

    Immutable; zero coefficients are never stored, so equality is
    structural.  Multiplication adds grades.  Division is supported by
    single-term (monomial) scalars only, which is all the Gamma-factor
    bookkeeping needs.
    """

    __slots__ = ("_terms",)

    def __init__(self, value=0, grade: int = 0):
        c = _as_fraction(value)
        object.__setattr__(self, "_terms", {grade: c} if c else {})

    @classmethod
    def from_terms(cls, terms: Mapping[int, Fraction]) -> "ExactScalar":
        out = cls.__new__(cls)
        object.__setattr__(
            out, "_terms", {g: _as_fraction(c) for g, c in terms.items() if c}
        )
        return out

    @classmethod
    def sqrtpi(cls, grade: int = 1) -> "ExactScalar":
        return cls(1, grade)

    # -- queries ---------------------------------------------------------

    def terms(self) -> tuple:
        """Sorted (grade, coefficient) pairs."""
        return tuple(sorted(self._terms.items()))

    @property
    def is_rational(self) -> bool:
        return all(g == 0 for g in self._terms)

    def as_fraction(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_rational:
            raise ExactnessError(f"{self} carries a nonzero sqrtpi grade")
        return self._terms[0]

    @property
    def is_monomial(self) -> bool:
        return len(self._terms) <= 1

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for g, c in other._terms.items():
            s = terms.get(g, Fraction(0)) + c
            if s:
                terms[g] = s
            else:
                terms.pop(g, None)
        return ExactScalar.from_terms(terms)

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar.from_terms({g: -c for g, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict = {}
        for g1, c1 in self._terms.items():
            for g2, c2 in other._terms.items():
                g = g1 + g2
                s = terms.get(g, Fraction(0)) + c1 * c2
                if s:
                    terms[g] = s
                else:
                    terms.pop(g, None)
        return ExactScalar.from_terms(terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._terms:
            raise ZeroDivisionError("division by exact zero")
        if not other.is_monomial:
            raise ExactnessError(
                "division only by single-term scalars is supported"
            )
        ((g0, c0),) = other._terms.items()
        return ExactScalar.from_terms(
            {g - g0: c / c0 for g, c in self._terms.items()}
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = ExactScalar(1)
        for _ in range(k):
            out = out * self
        return out

    @staticmethod
    def _coerce(other):
        if isinstance(other, ExactScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return ExactScalar(other)
        return NotImplemented

    # -- comparisons and conversions --------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # grade-0 values compare equal to their rational, so hash like it
        if self.is_rational:
            return hash(self.as_fraction())
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def __float__(self):
        return math.fsum(
            float(c) * math.pi ** (g / 2.0) for g, c in sorted(self._terms.items())
        )

    def __str__(self):
        if not self._terms:
            return "0/1"
        parts = []
        for g, c in sorted(self._terms.items()):
            s = f"{c.numerator}/{c.denominator}"
            if g != 0:
                s += f"·sqrtpi^{g}"
            parts.append(s)
        return " + ".join(parts)

    __repr__ = __str__

    @classmethod
    def from_string(cls, s: str) -> "ExactScalar":
        terms: dict = {}
        for part in s.split(" + "):
            if "·sqrtpi^" in part:
                frac, gs = part.split("·sqrtpi^")
                g = int(gs)
            else:
                frac, g = part, 0
            terms[g] = terms.get(g, Fraction(0)) + Fraction(frac)
        return cls.from_terms(terms)


def gamma_exact(a) -> ExactScalar:
    """Gamma(a) for positive integer or positive half-odd-integer a.

    Integer a gives (a-1)! at grade 0; a = k + 1/2 gives the exact value
    (2k)!/(4^k k!) * sqrtpi at grade 1.
    """
    a = _as_fraction(a)
    if a <= 0:
        raise ValueError(f"gamma_exact needs a > 0, got {a}")
    if a.denominator == 1:
        return ExactScalar(math.factorial(a.numerator - 1))
    if a.denominator == 2:
        k = (a.numerator - 1) // 2
        return ExactScalar(
            Fraction(math.factorial(2 * k), 4**k * math.factorial(k)), grade=1
        )
    raise ExactnessError(f"Gamma({a}) is not an exact rational-sqrtpi value")


def _coerce_scalar(c) -> ExactScalar:
    if isinstance(c, ExactScalar):
        return c
    return ExactScalar(_as_fraction(c))


class Polynomial:
    """Sparse Laurent polynomial over ExactScalar in a fixed variable tuple.

    Exponent vectors may contain negative entries; operations that need a
    true polynomial check nonnegativity explicitly.  The term order is
    graded lex: higher total degree first, ties broken by comparing
    exponents left to right, so the last variable is least significant.
    """

    __slots__ = ("variables", "_terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple, object]):
        variables = tuple(variables)
        clean: dict = {}
        nvar = len(variables)
        for exps, c in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvar:
                raise ValueError(
                    f"exponent vector {exps} does not match variables {variables}"
                )
            c = _coerce_scalar(c)
            if c:
                prev = clean.get(exps)
                c = c if prev is None else prev + c
                if c:
                    clean[exps] = c
                else:
                    clean.pop(exps, None)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "_terms", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c, variables=("x",)) -> "Polynomial":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def variable(cls, name: str, variables=("x",)) -> "Polynomial":
        variables = tuple(variables)
        i = variables.index(name)
        exps = tuple(1 if k == i else 0 for k in range(len(variables)))
        return cls(variables, {exps: 1})

    @classmethod
    def monomial(cls, exps, c=1, variables=("x",)) -> "Polynomial":
        return cls(tuple(variables), {tuple(exps): c})

    # -- queries -----------------------------------------------------------

    def terms(self) -> dict:
        return dict(self._terms)

    def coefficient(self, exps) -> ExactScalar:
        return self._terms.get(tuple(exps), ExactScalar(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_true_polynomial(self) -> bool:
        return all(all(e >= 0 for e in exps) for exps in self._terms)

    def total_degree(self) -> int:
        """Max total degree; raises on the zero polynomial."""
        if not self._terms:
            raise ValueError("the zero polynomial has no degree")
        return max(sum(e) for e in self._terms)

    def degree_in(self, name: str) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no degree")
        i = self.variables.index(name)
        return max(e[i] for e in self._terms)

    def min_degree_in(self, name: str) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no degree")
        i = self.variables.index(name)
        return min(e[i] for e in self._terms)

    def leading_term(self) -> tuple:
        """(exponents, coefficient) maximal in graded-lex order."""
        if not self._terms:
            raise ValueError("the zero polynomial has no leading term")
        exps = max(self._terms, key=lambda e: (sum(e), e))
        return exps, self._terms[exps]

    def sorted_terms(self) -> list:
        """Terms in descending graded-lex order, deterministic."""
        return sorted(
            self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True
        )

    # -- ring operations ----------------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.variables != other.variables:
            raise ValueError(
                f"incompatible variable sets {self.variables} vs {other.variables}"
            )

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self._terms)
        for exps, c in other._terms.items():
            s = terms.get(exps)
            s = c if s is None else s + c
            if s:
                terms[exps] = s
            else:
                terms.pop(exps, None)
        out = Polynomial.__new__(Polynomial)
        object.__setattr__(out, "variables", self.variables)
        object.__setattr__(out, "_terms", terms)
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Polynomial.__new__(Polynomial)
        object.__setattr__(out, "variables", self.variables)
        object.__setattr__(out, "_terms", {e: -c for e, c in self._terms.items()})
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            c0 = _coerce_scalar(other)
            if not c0:
                return Polynomial(self.variables, {})
            return Polynomial(
                self.variables, {e: c * c0 for e, c in self._terms.items()}
            )
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_compatible(other)
        terms: dict = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = terms.get(e)
                s = c if s is None else s + c
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        out = Polynomial.__new__(Polynomial)
        object.__setattr__(out, "variables", self.variables)
        object.__setattr__(out, "_terms", terms)
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = Polynomial.constant(1, self.variables)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction, ExactScalar)):
            return Polynomial.constant(other, self.variables)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.variables == other.variables and self._terms == other._terms

    __hash__ = None

    # -- calculus ------------------------------------------------------------

    def derivative(self, name: str) -> "Polynomial":
        i = self.variables.index(name)
        terms: dict = {}
        for exps, c in self._terms.items():
            e = exps[i]
            if e == 0:
                continue
            new = list(exps)
            new[i] = e - 1
            terms[tuple(new)] = c * e
        return Polynomial(self.variables, terms)

    def times_power(self, name: str, power: int = 1) -> "Polynomial":
        """Multiply by name**power (power may be negative)."""
        i = self.variables.index(name)
        terms = {}
        for exps, c in self._terms.items():
            new = list(exps)
            new[i] = exps[i] + power
            terms[tuple(new)] = c
        return Polynomial(self.variables, terms)

    def evaluate(self, values: Mapping[str, object]):
        """Evaluate at the given variable values.

        Exact (Fraction/int) values produce an ExactScalar; float or complex
        values produce a float/complex, summed in sorted term order.
        """
        missing = [v for v in self.variables if v not in values]
        if missing:
            raise ValueError(f"no values given for {missing}")
        exact = all(isinstance(values[v], (int, Fraction)) for v in self.variables)
        items = sorted(self._terms.items())
        if exact:
            acc = ExactScalar(0)
            for exps, c in items:
                factor = Fraction(1)
                for v, e in zip(self.variables, exps):
                    factor *= Fraction(values[v]) ** e
                acc = acc + c * factor
            return acc
        acc = 0.0
        for exps, c in items:
            factor = complex(1) if any(
                isinstance(values[v], complex) for v in self.variables
            ) else 1.0
            for v, e in zip(self.variables, exps):
                factor *= values[v] ** e
            acc = acc + float(c) * factor
        return acc

    # -- serialization ---------------------------------------------------------

    def to_json_obj(self) -> list:
        return [
            {"exponents": list(e), "coefficient": str(c)}
            for e, c in self.sorted_terms()
        ]

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj: list, variables) -> "Polynomial":
        return cls(
            variables,
            {
                tuple(item["exponents"]): ExactScalar.from_string(item["coefficient"])
                for item in obj
            },
        )

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{e}" if e != 1 else v
                for v, e in zip(self.variables, exps)
                if e != 0
            )
            parts.append(f"({c})*{mono}" if mono else f"({c})")
        return " + ".join(parts)

    __repr__ = __str__


def _accumulate(terms: dict, exps: tuple, c) -> None:
    """terms[exps] += c; zero sums stay, the Polynomial constructor drops them."""
    s = terms.get(exps)
    terms[exps] = c if s is None else s + c


def reduce_mod_quadric(f: Polynomial, spec: ConeSpec) -> Polynomial:
    """Canonical representative of f modulo the ideal (Q).

    Q(x) = sum_a eps_a x_a^2 is the defining form of the cone; the normal
    form substitutes x_n^2 -> x_1^2 + ... + x_p^2 - x_{p+1}^2 - ... -
    x_{n-1}^2 until the degree in the last variable is at most 1.  The
    substitution is idempotent and sends multiples of Q to zero.
    """
    if spec.n < 2:
        raise ValueError("quadric reduction needs p+q >= 2")
    if f.variables != spec.variables:
        raise ValueError(
            f"polynomial variables {f.variables} do not match cone variables"
        )
    if not f.is_true_polynomial:
        raise ExactnessError("quadric reduction is defined for true polynomials")
    last = spec.n - 1
    # x_n^2 == S mod Q where S carries the first n-1 signed squares; S has
    # no x_n, so x_n^{2k+r} -> x_n^r S^k is already in normal form.
    powers: dict = {}
    out: dict = {}
    for exps, c in f.terms().items():
        k, r = divmod(exps[last], 2)
        if k == 0:
            _accumulate(out, exps, c)
            continue
        if k not in powers:
            S = Polynomial(
                spec.variables,
                {
                    tuple(2 * (b == a) for b in range(spec.n)): spec.signature[a]
                    for a in range(last)
                },
            )
            powers[k] = (S**k).terms().items()
        rest = exps[:last] + (r,)
        for e, cs in powers[k]:
            _accumulate(out, tuple(x + y for x, y in zip(rest, e)), c * cs)
    return Polynomial(spec.variables, out)
