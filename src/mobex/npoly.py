"""Exact Laurent polynomials in the matrix-size symbol N.

Coefficients are rationals.  A second formal symbol ``r`` (standing for a
square root of the Dyson-type parameter alpha, so ``r**2 == alpha``) is
carried alongside N because the manifestly duality-invariant expansion
weights contain half-integer powers of alpha.  Series that never touch the
invariant normalization simply keep every r-exponent at zero.

Terms are stored as ``{(n_exp, r_exp): Fraction}`` with integer (possibly
negative) exponents and no zero coefficients.

Every sparse polynomial in mobex is such a ``{key: coefficient}`` dict, and
two functions here do all of their arithmetic:

* ``add_term(terms, key, coeff)`` adds ``coeff`` into ``terms[key]`` and
  drops the key when the sum cancels to 0, so no stored coefficient is 0;
* ``mul_terms(p, q, combine)`` multiplies two term dicts; ``combine(k1, k2)``
  is the key of the product of two monomials, or None to drop it.

Coefficients only need ``+``, ``*`` and truth testing (``Fraction``,
``int`` or ``NPoly``).  The key conventions of the callers:

* ``NPoly``: ``(n_exp, r_exp)``, combined by adding exponents;
* ``series.CouplingSeries``: the sorted tuple of coupling indices (a
  multiset), combined by a sorted merge, None past the truncation degree;
* ``penner.ZSeries``: the z-exponent;
* ``dualchar`` power-sum polynomials: the sorted tuple of power-sum indices,
  combined by a sorted merge;
* ``oracle.CPoly``, the complex polynomials of the exact unit matrices (the
  Wick moments and the ``dualchar`` dual side), with ``int`` coefficients: an
  exponent vector whose slot 0 is the power of i, combined by adding
  exponents slot by slot.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Hashable, Optional, Tuple

from .errors import UsageError

Key = Tuple[int, int]


def add_term(terms: dict, key: Hashable, coeff) -> None:
    """terms[key] += coeff, dropping the key when the sum cancels to 0."""
    acc = terms[key] + coeff if key in terms else coeff
    if acc:
        terms[key] = acc
    else:
        terms.pop(key, None)


def mul_terms(p: dict, q: dict,
              combine: Callable[[Hashable, Hashable], Optional[Hashable]]) -> dict:
    """The product of two term dicts; combine merges two keys or drops them (None)."""
    out: dict = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            key = combine(k1, k2)
            if key is not None:
                add_term(out, key, c1 * c2)
    return out


def _add_keys(k1: Key, k2: Key) -> Key:
    return (k1[0] + k2[0], k1[1] + k2[1])


class NPoly:
    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Key, Fraction] | None = None):
        self.terms: Dict[Key, Fraction] = {}
        if terms:
            for key, coeff in terms.items():
                if type(coeff) is not Fraction:
                    coeff = Fraction(coeff)
                if coeff:
                    self.terms[key] = coeff

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _of(terms: Dict[Key, Fraction]) -> "NPoly":
        """Wrap a term dict that already holds no zero coefficient."""
        result = NPoly()
        result.terms = terms
        return result

    @staticmethod
    def zero() -> "NPoly":
        return NPoly()

    @staticmethod
    def const(value) -> "NPoly":
        return NPoly({(0, 0): Fraction(value)})

    @staticmethod
    def N(exp: int = 1, coeff=1) -> "NPoly":
        return NPoly({(exp, 0): Fraction(coeff)})

    @staticmethod
    def root(exp: int = 1, coeff=1) -> "NPoly":
        """The formal square root symbol r (r**2 = alpha)."""
        return NPoly({(0, exp): Fraction(coeff)})

    @staticmethod
    def monomial(n_exp: int, r_exp: int, coeff) -> "NPoly":
        return NPoly({(n_exp, r_exp): Fraction(coeff)})

    # -- ring operations ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, NPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == NPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "NPoly":
        out = dict(self.terms)
        if isinstance(other, (int, Fraction)):
            add_term(out, (0, 0), Fraction(other))
        else:
            for key, coeff in other.terms.items():
                add_term(out, key, coeff)
        return NPoly._of(out)

    __radd__ = __add__

    def __neg__(self) -> "NPoly":
        return NPoly._of({key: -coeff for key, coeff in self.terms.items()})

    def __sub__(self, other) -> "NPoly":
        return self + (-other)

    def __rsub__(self, other) -> "NPoly":
        return (-self) + other

    def __mul__(self, other) -> "NPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return NPoly()
            return NPoly._of({key: coeff * other for key, coeff in self.terms.items()})
        if not isinstance(other, NPoly):
            return NotImplemented
        return NPoly._of(mul_terms(self.terms, other.terms, _add_keys))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "NPoly":
        if k < 0:
            if len(self.terms) == 1:
                ((n, r), c), = self.terms.items()
                return NPoly({(n * k, r * k): Fraction(1) / c ** (-k)})
            raise ValueError("negative power of a non-monomial")
        result = NPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- substitutions -------------------------------------------------------

    def eval_N(self, value) -> Fraction:
        """Evaluate at a rational N; requires every r-exponent to vanish."""
        value = Fraction(value)
        total = Fraction(0)
        for (n, r), coeff in self.terms.items():
            if r:
                raise ValueError("cannot evaluate: residual root symbol present")
            total += coeff * value ** n
        return total

    def scale_N(self, factor) -> "NPoly":
        """Substitute N -> factor*N for a rational factor."""
        factor = Fraction(factor)
        return NPoly({key: coeff * factor ** key[0] for key, coeff in self.terms.items()})

    def dual_transform(self) -> "NPoly":
        """Substitute r -> 1/r and N -> -r**2 N (the alpha-duality map)."""
        out: Dict[Key, Fraction] = {}
        for (n, r), coeff in self.terms.items():
            add_term(out, (n, 2 * n - r), coeff if n % 2 == 0 else -coeff)
        return NPoly._of(out)

    def reduce_root(self, alpha) -> "NPoly":
        """Substitute r**2 -> alpha, leaving r-exponents in {0, 1}."""
        alpha = Fraction(alpha)
        if not alpha:
            raise UsageError("alpha must be non-zero")
        out: Dict[Key, Fraction] = {}
        for (n, r), coeff in self.terms.items():
            q, rem = divmod(r, 2)
            add_term(out, (n, rem), coeff * alpha ** q)
        return NPoly._of(out)

    # -- inspection ----------------------------------------------------------

    def to_json(self) -> Dict[str, str]:
        """Keys are "n" for pure N-terms and "n;r" when a root power remains."""
        out = {}
        for (n, r) in sorted(self.terms):
            key = str(n) if r == 0 else "%d;%d" % (n, r)
            out[key] = str(self.terms[(n, r)])
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (n, r) in sorted(self.terms, reverse=True):
            coeff = self.terms[(n, r)]
            piece = str(coeff)
            if n:
                piece += "*N^%d" % n if n != 1 else "*N"
            if r:
                piece += "*r^%d" % r if r != 1 else "*r"
            parts.append(piece)
        return " + ".join(parts).replace("+ -", "- ")
