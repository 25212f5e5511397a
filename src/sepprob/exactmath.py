"""Exact arithmetic substrate: multivariate polynomials over the rationals,
residues of exp(L z) over pure poles in z, and symbolic constants of the form
q * pi**k * sqrt(m).

Rationals are plain ``fractions.Fraction`` (arbitrary precision; denominators
like 15! appear downstream and must stay exact).  Polynomials map exponent
tuples to nonzero Fraction coefficients, so equality is structural and
bit-exact.  Products, substitutions and definite integrals run on integer
numerators over one common denominator, keyed by packed monomials: exponent i
of a term sits in bits [i*w, (i+1)*w) of one int, so adding keys multiplies
monomials.  Each call picks w as the bit length of a total-degree bound of its
result, so no field can carry into the next.  Products have one kernel,
``product``: ``*`` and ``**`` call it, and it multiplies a whole chain of
factors before it builds any Fraction.  Substitution has one kernel,
``_horner``; ``iterated_integrate`` carries (numerators, denominator) through
every level and unpacks keys and builds Fractions once, on its result.  It
can also work modulo a power of one free variable, so a caller that reads
only the low coefficients never forms the others.
A residue Res_{z=0} exp(L z) / prod_k (b_k z) over a pure pole of order P is
one Taylor coefficient of exp(L z): L**(P-1) / ((P-1)! prod_k b_k).
Variables are positional indices; the modules that build concrete expressions
keep their own symbol tables.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm, pi, prod, sqrt
from typing import Mapping, Sequence

Exponent = tuple[int, ...]
IntTerms = dict[int, int]  # packed monomial key -> integer numerator over a denominator kept alongside
Cap = tuple[int, int, int]  # (shift, mask, top): keep terms whose field at shift is at most top


def rational_str(q: Fraction) -> str:
    """Serialize a rational as the stable "num/den" form."""
    return f"{q.numerator}/{q.denominator}"


def rational_from_str(s: str) -> Fraction:
    """Parse "num/den", a bare integer, or a decimal literal."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return Fraction(s)


def decimal_str(x: float) -> str:
    """Render a float with 17 significant digits (round-trip safe)."""
    return format(x, ".17g")


def _width(degree: int) -> int:
    """Bits per exponent field for terms of total degree at most ``degree``.

    No exponent of such a term reaches 2**width, so adding the packed keys of
    two factors whose product stays within the bound never carries.
    """
    return max(degree, 1).bit_length()


def _int_form(p: "MultiPoly", width: int) -> tuple[IntTerms, int]:
    """(numerators, den) of ``p`` on packed keys: den is the lcm of the
    denominators, terms = numerators / den, exponent i at bit i * width."""
    shifts = range(0, p.arity * width, width)
    den = lcm(*(c.denominator for c in p.terms.values()))
    return {
        sum(e << s for e, s in zip(exps, shifts)): c.numerator * (den // c.denominator)
        for exps, c in p.terms.items()
    }, den


def _fractions(num: IntTerms, den: int, arity: int, width: int) -> dict[Exponent, Fraction]:
    """Unpack the keys of ``num`` into exponent tuples, with terms num / den."""
    shifts, mask = range(0, arity * width, width), (1 << width) - 1
    return {tuple(k >> s & mask for s in shifts): Fraction(c, den) for k, c in num.items()}


def _int_mul_into(acc: IntTerms, left: IntTerms, right: IntTerms, cap: Cap | None = None) -> None:
    """acc += left * right, in place, on integer numerators with packed keys.

    With ``cap`` = (shift, mask, top), the product is taken modulo
    var**(top + 1), var the exponent field at ``shift``: fields add without
    carry, so a left term of field d meets only the right terms of field at
    most top - d, and no dropped term is ever formed.
    """
    get = acc.get
    if cap is None:
        pairs = list(right.items())
        for e1, c1 in left.items():
            for e2, c2 in pairs:
                e = e1 + e2
                acc[e] = get(e, 0) + c1 * c2
        return
    shift, mask, top = cap
    rows: list[list[tuple[int, int]]] = [[] for _ in range(top + 1)]
    for e2, c2 in right.items():
        for d in range(top + 1 - (e2 >> shift & mask)):
            rows[d].append((e2, c2))
    for e1, c1 in left.items():
        if (d := e1 >> shift & mask) <= top:
            for e2, c2 in rows[d]:
                e = e1 + e2
                acc[e] = get(e, 0) + c1 * c2


def _by_power(num: IntTerms, shift: int, mask: int) -> dict[int, IntTerms]:
    """Group numerators by the exponent field at ``shift``, zeroed in the keys."""
    groups: dict[int, IntTerms] = {}
    for e, c in num.items():
        k = e >> shift & mask
        groups.setdefault(k, {})[e - (k << shift)] = c
    return groups


def _horner(
    groups: dict[int, IntTerms], num: IntTerms, den: int, cap: Cap | None = None
) -> tuple[IntTerms, int]:
    """The one substitution kernel: (h, den**K) with h / den**K equal to
    sum_k groups[k] * (num / den)**k, K the top power, by homogenised Horner
    on integer numerators (h <- h * num + groups[k] * den**(K - k)).  Each
    product honours ``cap`` (see :func:`_int_mul_into`)."""
    top = max(groups)
    h = groups[top]
    scale = 1
    for k in range(top - 1, -1, -1):
        scale *= den
        acc: IntTerms = {}
        _int_mul_into(acc, h, num, cap)
        get = acc.get
        for e, c in groups.get(k, {}).items():
            acc[e] = get(e, 0) + c * scale
        h = acc
    return h, scale


def product(factors: Sequence["MultiPoly"], scale=1) -> "MultiPoly":
    """scale * factors[0] * ... * factors[-1]: the one polynomial-product kernel.

    The chain runs on integer numerators with packed keys, over the product
    of the factors' common denominators, and builds one reduced Fraction per
    term of the result.  No factors, or factors of mixed arity, raise
    ValueError.
    """
    if not factors:
        raise ValueError("product of no factors")
    arity = factors[0].arity
    if any(f.arity != arity for f in factors):
        raise ValueError(f"arity mismatch: {sorted({f.arity for f in factors})}")
    scale = Fraction(scale)
    width = _width(sum(f.degree() for f in factors))
    num, den = {0: scale.numerator}, scale.denominator
    for f in factors:
        fnum, fden = _int_form(f, width)
        acc: IntTerms = {}
        _int_mul_into(acc, num, fnum)
        num, den = acc, den * fden
    return MultiPoly._trusted(arity, _fractions(num, den, arity, width))


class MultiPoly:
    """Multivariate polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples of length ``arity`` to nonzero Fractions;
    the zero polynomial is the empty map.  Instances are treated as immutable.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Mapping[Exponent, Fraction] | None = None):
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        self.arity = arity
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != arity:
                    raise ValueError(f"exponent tuple {exps} does not match arity {arity}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                coeff = Fraction(coeff)
                if coeff != 0:
                    clean[tuple(exps)] = coeff
        self.terms = clean

    @classmethod
    def _trusted(cls, arity: int, terms: dict[Exponent, Fraction]) -> "MultiPoly":
        """Wrap a dict built by this class's own arithmetic.

        The keys must already be exponent tuples of length ``arity`` and the
        values Fractions; only zero coefficients are dropped.  Input from
        outside the class goes through the checking public constructor.
        """
        p = object.__new__(cls)
        p.arity = arity
        p.terms = {e: c for e, c in terms.items() if c}
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, arity: int, value) -> "MultiPoly":
        value = Fraction(value)
        if value == 0:
            return cls(arity)
        return cls(arity, {(0,) * arity: value})

    @classmethod
    def variable(cls, arity: int, index: int) -> "MultiPoly":
        if not 0 <= index < arity:
            raise ValueError(f"variable index {index} out of range for arity {arity}")
        exps = [0] * arity
        exps[index] = 1
        return cls(arity, {tuple(exps): Fraction(1)})

    @classmethod
    def linear(cls, arity: int, coeffs: Mapping[int, Fraction], const=0) -> "MultiPoly":
        """Affine form const + sum coeffs[i] * x_i, built straight from its coefficients."""
        terms = {(0,) * arity: Fraction(const)}
        for i, c in coeffs.items():
            if not 0 <= i < arity:
                raise ValueError(f"variable index {i} out of range for arity {arity}")
            terms[(0,) * i + (1,) + (0,) * (arity - i - 1)] = Fraction(c)
        return cls._trusted(arity, terms)

    # -- ring operations ---------------------------------------------------

    def _check_arity(self, other: "MultiPoly") -> None:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.arity, other)
        self._check_arity(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms[e] + c if e in terms else c
        return MultiPoly._trusted(self.arity, terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._trusted(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.arity, other)
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        """Product with a scalar, or with a polynomial through :func:`product`."""
        if not isinstance(other, MultiPoly):
            c = Fraction(other)
            return MultiPoly._trusted(self.arity, {e: k * c for e, k in self.terms.items()})
        return product((self, other))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "MultiPoly":
        c = Fraction(scalar)
        if c == 0:
            raise ZeroDivisionError("division of polynomial by zero")
        return self * (1 / c)

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        return product((self,) * n) if n else MultiPoly.constant(self.arity, 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            try:
                other = MultiPoly.constant(self.arity, other)
            except (TypeError, ValueError):
                return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; zero polynomial gives -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def min_degree_in(self, var: int) -> int:
        """Smallest exponent of ``var`` across terms; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return min(e[var] for e in self.terms)

    def involves(self, var: int) -> bool:
        return any(e[var] > 0 for e in self.terms)

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in graded-lexicographic order (canonical presentation)."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    def coefficient(self, exps: Exponent) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def evaluate(self, values: Sequence) -> Fraction:
        """Exact evaluation at a full point (Fractions in, Fraction out)."""
        if len(values) != self.arity:
            raise ValueError("evaluation point has wrong length")
        vals = [Fraction(v) for v in values]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(vals, exps):
                if e:
                    term *= v**e
            total += term
        return total

    def evaluate_float(self, values: Sequence[float]) -> float:
        if len(values) != self.arity:
            raise ValueError("evaluation point has wrong length")
        total = 0.0
        for exps, coeff in self.terms.items():
            term = float(coeff)
            for v, e in zip(values, exps):
                if e:
                    term *= v**e
            total += term
        return total

    # -- calculus ----------------------------------------------------------

    def substitute(self, var: int, value: "MultiPoly") -> "MultiPoly":
        """Exact composition: replace variable ``var`` by the polynomial ``value``.

        The terms are grouped by their power of ``var`` and evaluated at
        ``value`` by :func:`_horner` on integer numerators with packed keys;
        one reduced Fraction is built per output term.
        """
        if not 0 <= var < self.arity:
            raise ValueError(f"variable index {var} out of range")
        if not isinstance(value, MultiPoly):
            value = MultiPoly.constant(self.arity, value)
        self._check_arity(value)
        if not self.terms:
            return MultiPoly(self.arity)
        width = _width(self.degree() * max(value.degree(), 1))
        num, den = _int_form(self, width)
        acc, scale = _horner(_by_power(num, var * width, (1 << width) - 1), *_int_form(value, width))
        return MultiPoly._trusted(self.arity, _fractions(acc, den * scale, self.arity, width))

    def derivative(self, var: int) -> "MultiPoly":
        if not 0 <= var < self.arity:
            raise ValueError(f"variable index {var} out of range")
        terms: dict[Exponent, Fraction] = {}
        for exps, coeff in self.terms.items():
            k = exps[var]
            if k:
                terms[exps[:var] + (k - 1,) + exps[var + 1 :]] = coeff * k
        return MultiPoly._trusted(self.arity, terms)

    def antiderivative(self, var: int) -> "MultiPoly":
        if not 0 <= var < self.arity:
            raise ValueError(f"variable index {var} out of range")
        terms: dict[Exponent, Fraction] = {}
        for exps, coeff in self.terms.items():
            k = exps[var] + 1
            terms[exps[:var] + (k,) + exps[var + 1 :]] = coeff / k
        return MultiPoly._trusted(self.arity, terms)

    def shift_down(self, var: int, k: int) -> "MultiPoly":
        """Divide exactly by var**k (every term must carry at least var**k)."""
        terms: dict[Exponent, Fraction] = {}
        for exps, coeff in self.terms.items():
            if exps[var] < k:
                raise ArithmeticError(f"term {exps} not divisible by variable {var}**{k}")
            terms[exps[:var] + (exps[var] - k,) + exps[var + 1 :]] = coeff
        return MultiPoly._trusted(self.arity, terms)

    def to_json(self) -> list[dict]:
        return [
            {"exps": list(exps), "coeff": rational_str(coeff)}
            for exps, coeff in self.sorted_terms()
        ]

    def __repr__(self) -> str:
        if self.is_zero:
            return "MultiPoly(0)"
        parts = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(f"x{i}^{e}" for i, e in enumerate(exps) if e)
            parts.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return "MultiPoly(" + " + ".join(parts) + ")"


def compose(outer: MultiPoly, inner: Sequence[MultiPoly]) -> MultiPoly:
    """Simultaneous substitution: outer(x_0, ..., x_{k-1}) with x_i := inner[i].

    All inner polynomials must share one arity, which becomes the arity of
    the result.  The k substitutions run in a lifted arity in which the inner
    variables follow the outer ones, so the replacement is simultaneous and
    inner polynomials may reuse the same variable indices.
    """
    if len(inner) != outer.arity:
        raise ValueError("need one inner polynomial per outer variable")
    if not inner:
        return MultiPoly(0, dict(outer.terms))
    arity = inner[0].arity
    if any(q.arity != arity for q in inner):
        raise ValueError("inner polynomials must share one arity")
    k = outer.arity
    p = MultiPoly._trusted(k + arity, {e + (0,) * arity: c for e, c in outer.terms.items()})
    for i, q in enumerate(inner):
        lifted = MultiPoly._trusted(k + arity, {(0,) * k + e: c for e, c in q.terms.items()})
        p = p.substitute(i, lifted)
    return MultiPoly._trusted(arity, {e[k:]: c for e, c in p.terms.items()})


def extract_univariate(p: MultiPoly, var: int) -> MultiPoly:
    """Collapse a polynomial that only involves ``var`` down to arity 1."""
    terms: dict[Exponent, Fraction] = {}
    for exps, coeff in p.terms.items():
        if any(e and i != var for i, e in enumerate(exps)):
            raise ValueError(f"polynomial involves variables other than {var}")
        terms[(exps[var],)] = coeff
    return MultiPoly._trusted(1, terms)


def integrate_once(p: MultiPoly, var: int, lower, upper) -> MultiPoly:
    """Definite integral of ``p`` in ``var`` between polynomial bounds that
    do not involve ``var``: :func:`iterated_integrate` with one bound triple."""
    return iterated_integrate(p, [(var, lower, upper)])


def iterated_integrate(
    p: MultiPoly,
    bounds: Sequence[tuple[int, MultiPoly | int | Fraction, MultiPoly | int | Fraction]],
    truncate: tuple[int, int] | None = None,
) -> MultiPoly:
    """Nested definite integral, innermost bound triple first.

    A bound that involves its own variable or an integrated-out one raises
    ValueError, as does integrating a variable twice.  Per level, on integer
    numerators with packed keys: the antiderivative scales var**k by
    lcm(1..K)/(k+1), both bounds go through :func:`_horner`, and one gcd
    reduces the difference.  A zero bound skips Horner: the antiderivative
    has no constant term, so it vanishes there.  The key width is fixed
    once, from the total degree bound (D + 1) * max(1, bound degrees) of
    each level in turn.

    ``truncate`` = (var, degree) returns the integral modulo
    var**(degree + 1): the terms of higher degree in ``var`` are dropped from
    the integrand and never formed in a product.  Truncation commutes with
    products, antiderivatives in other variables and substitution of their
    bounds, so the kept terms equal those of the full integral.  Truncating
    an integrated variable raises ValueError.
    """
    done: set[int] = set()
    plan = []
    degree = max(p.degree(), 0)
    for var, lower, upper in bounds:
        if var in done:
            raise ValueError(f"variable {var} integrated twice")
        pair = []
        for b in (upper, lower):
            b = b if isinstance(b, MultiPoly) else MultiPoly.constant(p.arity, b)
            if b.involves(var):
                raise ValueError(f"integration bound depends on variable {var}")
            if bad := [v for v in done if b.involves(v)]:
                raise ValueError(f"bound for variable {var} depends on integrated-out {bad}")
            pair.append(b)
        done.add(var)
        degree = (degree + 1) * max(1, *(b.degree() for b in pair))
        plan.append((var, pair))
    width = _width(degree)
    mask = (1 << width) - 1
    num, den = _int_form(p, width)
    cap = None
    if truncate is not None:
        tvar, top = truncate
        if not 0 <= tvar < p.arity or top < 0:
            raise ValueError(f"truncation {truncate} out of range")
        if tvar in done:
            raise ValueError(f"cannot truncate integrated variable {tvar}")
        cap = (tvar * width, mask, top)
        num = {e: c for e, c in num.items() if e >> tvar * width & mask <= top}
    for var, pair in plan:
        if not num:
            break
        groups = _by_power(num, var * width, mask)
        forms = [_int_form(b, width) for b in pair]
        m = lcm(*range(1, max(groups) + 2))
        groups = {k + 1: {e: c * (m // (k + 1)) for e, c in g.items()} for k, g in groups.items()}
        (hu, su), (hl, sl) = (_horner(groups, *f, cap) if f[0] else ({}, 1) for f in forms)
        scale = lcm(su, sl)
        su, sl = scale // su, scale // sl
        num = {e: c * su for e, c in hu.items()}
        for e, c in hl.items():
            num[e] = num.get(e, 0) - c * sl
        den *= m * scale
        g = gcd(den, *num.values())
        num, den = {e: c // g for e, c in num.items() if c}, den // g
    return MultiPoly._trusted(p.arity, _fractions(num, den, p.arity, width))


def residue_of_exp_over_linear_factors(exponent: MultiPoly, slopes: Sequence[Fraction | int]) -> MultiPoly:
    """Res_{z=0} [ exp(L*z) / prod_k (b_k z) ] as an exact polynomial.

    ``exponent`` is L, a polynomial in the outer variables, and ``slopes`` are
    the b_k of P >= 1 linear factors with zero constant term.  The pole at
    z = 0 is then pure, of order P, so the residue is the z**(P-1) Taylor
    coefficient of exp(L z) over prod_k b_k:

        L**(P-1) / ((P-1)! * prod_k b_k).
    """
    scale = prod(Fraction(b) for b in slopes)
    if scale == 0:
        raise ZeroDivisionError("factor is identically zero")
    return exponent ** (len(slopes) - 1) / (scale * factorial(len(slopes) - 1))


def _square_free_split(n: int) -> tuple[int, int]:
    """Return (s, m) with n = s*s*m and m square-free."""
    if n <= 0:
        raise ValueError("radicand must be positive")
    s, m = 1, 1
    d = 2
    rest = n
    while d * d <= rest:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                m *= d
        d += 1 if d == 2 else 2
    m *= rest
    return s, m


class SymbolicReal:
    """Exact constant coeff * pi**pi_power * sqrt(radicand).

    The radicand is kept square-free; zero is canonically (0, 0, 1).  Only
    products and quotients are defined, which is all the volume formulas
    need.
    """

    __slots__ = ("coeff", "pi_power", "radicand")

    def __init__(self, coeff, pi_power: int = 0, radicand: int = 1):
        coeff = Fraction(coeff)
        if pi_power < 0:
            raise ValueError("pi_power must be nonnegative")
        if coeff == 0:
            self.coeff, self.pi_power, self.radicand = Fraction(0), 0, 1
            return
        s, m = _square_free_split(radicand)
        self.coeff = coeff * s
        self.pi_power = pi_power
        self.radicand = m

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    def __mul__(self, other) -> "SymbolicReal":
        if isinstance(other, SymbolicReal):
            return SymbolicReal(
                self.coeff * other.coeff,
                self.pi_power + other.pi_power,
                self.radicand * other.radicand,
            )
        return SymbolicReal(self.coeff * Fraction(other), self.pi_power, self.radicand)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "SymbolicReal":
        if isinstance(other, SymbolicReal):
            if other.is_zero:
                raise ZeroDivisionError
            if other.radicand != self.radicand:
                raise ValueError("quotient of unlike radicands is not representable")
            if other.pi_power > self.pi_power:
                raise ValueError("quotient would need a negative pi power")
            return SymbolicReal(self.coeff / other.coeff, self.pi_power - other.pi_power, 1)
        return SymbolicReal(self.coeff / Fraction(other), self.pi_power, self.radicand)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymbolicReal):
            other = SymbolicReal(other)
        return (
            self.coeff == other.coeff
            and self.pi_power == other.pi_power
            and self.radicand == other.radicand
        )

    def __hash__(self):
        return hash((self.coeff, self.pi_power, self.radicand))

    def to_float(self) -> float:
        return float(self.coeff) * pi**self.pi_power * sqrt(self.radicand)

    def to_json(self) -> dict:
        return {"coeff": rational_str(self.coeff), "pi_pow": self.pi_power, "sqrt": self.radicand}

    def __repr__(self) -> str:
        s = f"{self.coeff}"
        if self.pi_power:
            s += f"*pi^{self.pi_power}"
        if self.radicand != 1:
            s += f"*sqrt({self.radicand})"
        return f"SymbolicReal({s})"
