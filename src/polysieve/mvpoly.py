"""Exact sparse multivariate integer polynomials.

A polynomial in x1..xL is a map from exponent vectors (length-L tuples of
non-negative ints) to nonzero integer coefficients.  Point evaluation and
products (``*``) use Python ints; there is no sum or difference of
polynomials.  Box evaluation (``grid``) runs in numpy int64 only when the
sum of |coefficients| * max|x|^k < 2^63, which bounds every partial sum
and product; otherwise the same code runs on object arrays of Python ints,
so no value ever overflows.  Instances are immutable after construction.
"""

from __future__ import annotations

import re
from itertools import combinations

import numpy as np

from .arith import exact_dtype
from .errors import charge

Exponents = tuple[int, ...]

# Bits of grid's value bound, the sum of |coefficients| * max|x|^k (as normform.THETA_POWER_BITS).
GRID_VALUE_BITS = 2 ** 16


class MvPoly:
    """Sparse integer polynomial in a fixed number of variables.

    Terms are canonicalized on construction: zero coefficients are dropped
    and exponent vectors are validated against ``num_vars``.
    """

    __slots__ = ("num_vars", "terms", "_key")

    def __init__(self, num_vars: int, terms: dict[Exponents, int]):
        if num_vars < 1:
            raise ValueError(f"num_vars must be >= 1, got {num_vars}")
        clean: dict[Exponents, int] = {}
        for exps, coef in terms.items():
            exps = tuple(exps)
            if len(exps) != num_vars:
                raise ValueError(
                    f"exponent vector {exps} has {len(exps)} components, expected {num_vars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coef = int(coef)
            if coef != 0:
                clean[exps] = coef
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "terms", clean)
        # canonical graded-lex key, leading term first; also the hash basis
        key = tuple(sorted(clean.items(), key=lambda t: (-sum(t[0]), tuple(-e for e in t[0]))))
        object.__setattr__(self, "_key", key)

    def __setattr__(self, name, value):
        raise AttributeError("MvPoly is immutable")

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Maximum component-sum over stored terms; error on the zero polynomial."""
        if not self.terms:
            raise ValueError("total degree of the zero polynomial is undefined")
        return max(sum(e) for e in self.terms)

    def min_top_coeff(self) -> int:
        """Minimum of |coefficient| over terms of maximal total degree."""
        k = self.total_degree()
        return min(abs(c) for e, c in self.terms.items() if sum(e) == k)

    def used_variables(self) -> frozenset[int]:
        """1-based indices of variables appearing with positive exponent."""
        return frozenset(i + 1 for exps in self.terms for i, e in enumerate(exps) if e)

    def evaluate(self, x) -> int:
        """Exact value at an integer point; length must equal num_vars."""
        x = tuple(x)
        if len(x) != self.num_vars:
            raise ValueError(f"point has {len(x)} coordinates, expected {self.num_vars}")
        total = 0
        for exps, coef in self.terms.items():
            v = coef
            for xi, ei in zip(x, exps):
                if ei:
                    v *= xi ** ei
            total += v
        return total

    def grid(self, axes) -> np.ndarray:
        """Values over the product of the integer sequences in axes, flat, in
        lexicographic order with the last coordinate fastest.

        Each axis is broadcast along its own dimension.  The dtype is int64
        when the sum of |coefficients| * max|x|^k < 2^63 (checked in Python
        ints), else object, which runs the same code on exact Python ints.
        A bound of that product past GRID_VALUE_BITS bits is refused first.
        """
        axes = [list(a) for a in axes]
        if len(axes) != self.num_vars:
            raise ValueError(f"grid has {len(axes)} axes, expected {self.num_vars}")
        k = max(map(sum, self.terms), default=0)
        top = max((max(max(a), -min(a)) for a in axes if a), default=0)
        c, t = sum(map(abs, self.terms.values())), max(top, 1)
        bits = c.bit_length() + k * t.bit_length()   # 2^(bits-1-k) <= c t^k < 2^bits
        charge("grid value bits", bits, GRID_VALUE_BITS)
        # the exact power is formed only when bits - 1 - k < 63, where t^k < 2^126
        dtype = exact_dtype(c * t ** k if bits - 1 - k < 63 else 2 ** (bits - 1 - k))
        xs = [np.array(a, dtype=dtype).reshape([-1] + [1] * (len(axes) - 1 - i))
              for i, a in enumerate(axes)]
        out = np.zeros([len(a) for a in axes], dtype=dtype)
        for exps, coef in self.terms.items():
            term = np.array(coef, dtype=dtype)
            for x, e in zip(xs, exps):
                if e:
                    term = term * x ** e
            out += term
        return out.reshape(-1)

    def __eq__(self, other):
        return (isinstance(other, MvPoly) and self.num_vars == other.num_vars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.num_vars, self._key))

    # -- serialization -----------------------------------------------------

    def to_text(self, var_prefix: str = "x") -> str:
        """Render in the input grammar, graded-lex leading term first."""
        if not self.terms:
            return "0"
        parts = []
        for exps, coef in self._key:
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"{var_prefix}{i + 1}")
                elif e > 1:
                    factors.append(f"{var_prefix}{i + 1}^{e}")
            mag = abs(coef)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if coef > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coef > 0 else f"- {body}")
        return " ".join(parts)

    def to_json_dict(self) -> dict:
        """Canonical JSON form: coefficients as decimal strings, graded-lex order."""
        return {
            "num_vars": self.num_vars,
            "terms": [{"exps": list(e), "coef": str(c)} for e, c in self._key],
        }

    def __repr__(self):
        return f"MvPoly({self.num_vars}, {self.to_text()!r})"


_TERM_RE = re.compile(r"[+-]?[^+-]+")
_FACTOR_NUM_RE = re.compile(r"\d+")
_FACTOR_VAR_RE = re.compile(r"([A-Za-z]+)(\d*)(?:\^(\d+))?")


def parse_poly(text: str, num_vars: int | None = None) -> MvPoly:
    """Parse polynomial text like ``3*x1^2*x2 - x3^3 + 7``.

    Whitespace-insensitive; variables are x1..xL (1-based).  A bare variable
    letter (``t`` for univariate inputs) is accepted as index 1.  If
    ``num_vars`` is omitted it is inferred as the largest index seen.
    """
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ValueError("empty polynomial text")
    raw_terms: list[tuple[int, dict[int, int]]] = []
    pos = 0
    max_index = 1
    for m in _TERM_RE.finditer(s):
        if m.start() != pos:
            raise ValueError(f"cannot parse polynomial near {s[pos:]!r}")
        pos = m.end()
        chunk = m.group()
        sign = 1
        if chunk[0] in "+-":
            sign = -1 if chunk[0] == "-" else 1
            chunk = chunk[1:]
        if not chunk:
            raise ValueError(f"dangling sign in {text!r}")
        coef = sign
        powers: dict[int, int] = {}
        for factor in chunk.split("*"):
            if not factor:
                raise ValueError(f"empty factor in term {m.group()!r}")
            if _FACTOR_NUM_RE.fullmatch(factor):
                coef *= int(factor)
                continue
            fm = _FACTOR_VAR_RE.fullmatch(factor)
            if not fm:
                raise ValueError(f"cannot parse factor {factor!r}")
            name, digits, expo = fm.groups()
            if name != "x" and not (name.isalpha() and not digits):
                raise ValueError(f"unknown variable {factor!r} (expected x<i>)")
            index = int(digits) if digits else 1
            if index < 1:
                raise ValueError(f"variable index must be >= 1 in {factor!r}")
            powers[index] = powers.get(index, 0) + (int(expo) if expo else 1)
            max_index = max(max_index, index)
        raw_terms.append((coef, powers))
    if pos != len(s):
        raise ValueError(f"cannot parse polynomial near {s[pos:]!r}")
    if num_vars is None:
        num_vars = max_index
    elif max_index > num_vars:
        raise ValueError(f"variable index {max_index} exceeds num_vars={num_vars}")
    terms: dict[Exponents, int] = {}
    for coef, powers in raw_terms:
        exps = tuple(powers.get(i, 0) for i in range(1, num_vars + 1))
        terms[exps] = terms.get(exps, 0) + coef
    return MvPoly(num_vars, terms)


class FactoredPoly:
    """A polynomial given as a product of factors on disjoint variable sets.

    Only the factors are kept, as given (the product is never expanded);
    num_vars is the largest of theirs.  Disjointness and nonconstancy are
    enforced; irreducibility of the factors is a user assertion, not verified.
    """

    __slots__ = ("num_vars", "factors")

    def __init__(self, factors):
        factors = list(factors)
        if not factors:
            raise ValueError("need at least one factor")
        var_sets = []
        for i, f in enumerate(factors):
            if f.is_zero() or f.total_degree() < 1:
                raise ValueError(f"factor {i + 1} is constant")
            var_sets.append(f.used_variables())
        for (i, a), (j, b) in combinations(enumerate(var_sets, start=1), 2):
            if a & b:
                raise ValueError(f"factors {i} and {j} share variables {sorted(a & b)}")
        object.__setattr__(self, "num_vars", max(f.num_vars for f in factors))
        object.__setattr__(self, "factors", tuple(factors))

    def __setattr__(self, name, value):
        raise AttributeError("FactoredPoly is immutable")

    def __repr__(self):
        inner = ", ".join(f.to_text() for f in self.factors)
        return f"FactoredPoly([{inner}])"
