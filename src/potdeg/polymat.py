"""Exact multivariate polynomial and rational matrix arithmetic.

Polynomials live in Q[s1, s2, s3] with s_j standing for i*xi_j; coefficients
are Fractions, so determinant cancellations are exact.  Complex numbers only
appear when evaluating at test frequencies.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, float):
        return Fraction(x)     # exact binary value
    raise TypeError(f"cannot treat {type(x)} as an exact rational")


class Poly:
    """Polynomial in s1, s2, s3: map exponent tuple -> Fraction, zeros dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for e, c in terms.items():
                c = _frac(c)
                if c != 0:
                    self.terms[tuple(e)] = c

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(c) -> "Poly":
        return Poly({(0, 0, 0): _frac(c)})

    @staticmethod
    def var(j: int) -> "Poly":
        e = [0, 0, 0]
        e[j] = 1
        return Poly({tuple(e): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def __add__(self, other):
        other = other if isinstance(other, Poly) else Poly.const(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        p = Poly()
        p.terms = out
        return p

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        p = Poly()
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other):
        other = other if isinstance(other, Poly) else Poly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return Poly.const(other) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = _frac(other)
            if c == 0:
                return Poly()
            p = Poly()
            p.terms = {e: v * c for e, v in self.terms.items()}
            return p
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                s = out.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        p = Poly()
        p.terms = out
        return p

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        other = other if isinstance(other, Poly) else Poly.const(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def leading(self):
        """(exponent, coefficient) of the graded-lexicographic leading term."""
        if not self.terms:
            return (0, 0, 0), Fraction(0)
        key = max(self.terms, key=lambda e: (sum(e), e))
        return key, self.terms[key]

    def eval_s(self, s) -> complex:
        """Evaluate at complex s = (s1, s2, s3)."""
        out = 0.0 + 0.0j
        for (a, b, c), coef in self.terms.items():
            out += float(coef) * (s[0] ** a) * (s[1] ** b) * (s[2] ** c)
        return out

    def eval_xi(self, xi) -> complex:
        """Evaluate at s = i*xi."""
        xi = np.asarray(xi, dtype=float)
        return self.eval_s((1j * xi[0], 1j * xi[1], 1j * xi[2]))

    def eval_xi_many(self, Xi) -> np.ndarray:
        """Vectorized evaluation at s = i*xi for Xi of shape (p, 3)."""
        Xi = np.asarray(Xi, dtype=float).reshape(-1, 3)
        out = np.zeros(len(Xi), dtype=complex)
        s = 1j * Xi
        for (a, b, c), coef in self.terms.items():
            out += float(coef) * (s[:, 0] ** a) * (s[:, 1] ** b) * (s[:, 2] ** c)
        return out

    def eval_fraction(self, s) -> Fraction:
        """Evaluate at exact rational s."""
        out = Fraction(0)
        for (a, b, c), coef in self.terms.items():
            out += coef * (s[0] ** a) * (s[1] ** b) * (s[2] ** c)
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.terms[e]
            mono = "".join(f"*s{j+1}^{k}" if k > 1 else (f"*s{j+1}" if k == 1 else "")
                           for j, k in enumerate(e))
            bits.append(f"{c}{mono}")
        return " + ".join(bits)


class PolyMatrix:
    """Dense matrix of Poly entries."""

    def __init__(self, entries):
        self.entries = [[e if isinstance(e, Poly) else Poly.const(e) for e in row]
                        for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("ragged rows")

    @staticmethod
    def zeros(rows, cols) -> "PolyMatrix":
        return PolyMatrix([[Poly.zero() for _ in range(cols)] for _ in range(rows)])

    @staticmethod
    def identity(n) -> "PolyMatrix":
        m = PolyMatrix.zeros(n, n)
        for i in range(n):
            m.entries[i][i] = Poly.const(1)
        return m

    @staticmethod
    def from_fractions(mat) -> "PolyMatrix":
        return PolyMatrix([[Poly.const(x) for x in row] for row in mat])

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def degree(self) -> int:
        return max((e.degree() for row in self.entries for e in row), default=-1)

    def __add__(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return PolyMatrix([[self.entries[i][j] + other.entries[i][j]
                            for j in range(self.cols)] for i in range(self.rows)])

    def __sub__(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return PolyMatrix([[self.entries[i][j] - other.entries[i][j]
                            for j in range(self.cols)] for i in range(self.rows)])

    def __neg__(self):
        return PolyMatrix([[-e for e in row] for row in self.entries])

    def __matmul__(self, other):
        assert self.cols == other.rows
        out = PolyMatrix.zeros(self.rows, other.cols)
        for i in range(self.rows):
            for k in range(self.cols):
                a = self.entries[i][k]
                if a.is_zero():
                    continue
                for j in range(other.cols):
                    b = other.entries[k][j]
                    if b.is_zero():
                        continue
                    out.entries[i][j] = out.entries[i][j] + a * b
        return out

    def scale(self, p) -> "PolyMatrix":
        p = p if isinstance(p, Poly) else Poly.const(p)
        return PolyMatrix([[e * p for e in row] for row in self.entries])

    def submatrix(self, rows, cols) -> "PolyMatrix":
        return PolyMatrix([[self.entries[i][j] for j in cols] for i in rows])

    def eval_xi(self, xi) -> np.ndarray:
        out = np.empty((self.rows, self.cols), dtype=complex)
        for i in range(self.rows):
            for j in range(self.cols):
                out[i, j] = self.entries[i][j].eval_xi(xi)
        return out

    def max_abs_eval_xi_many(self, Xi) -> np.ndarray:
        """max_{ij} |entry(i,j)(i*xi)| for each row of Xi, vectorized."""
        Xi = np.asarray(Xi, dtype=float).reshape(-1, 3)
        out = np.zeros(len(Xi))
        for row in self.entries:
            for e in row:
                if not e.is_zero():
                    np.maximum(out, np.abs(e.eval_xi_many(Xi)), out=out)
        return out

    def eval_fraction(self, s):
        return [[self.entries[i][j].eval_fraction(s) for j in range(self.cols)]
                for i in range(self.rows)]

    def det(self) -> Poly:
        """Cofactor-expansion determinant; intended for small (block) matrices."""
        n = self.rows
        assert n == self.cols
        if n == 1:
            return self.entries[0][0]
        if n == 2:
            return (self.entries[0][0] * self.entries[1][1]
                    - self.entries[0][1] * self.entries[1][0])
        out = Poly.zero()
        cols = list(range(1, n))
        for i in range(n):
            a = self.entries[i][0]
            if a.is_zero():
                continue
            minor = self.submatrix([r for r in range(n) if r != i], cols)
            term = a * minor.det()
            out = out + (term if i % 2 == 0 else -term)
        return out

    def adjugate(self) -> "PolyMatrix":
        n = self.rows
        assert n == self.cols
        if n == 1:
            return PolyMatrix([[Poly.const(1)]])
        out = PolyMatrix.zeros(n, n)
        for i in range(n):
            for j in range(n):
                minor = self.submatrix([r for r in range(n) if r != i],
                                       [c for c in range(n) if c != j])
                cof = minor.det()
                out.entries[j][i] = cof if (i + j) % 2 == 0 else -cof
        return out

    def is_constant(self) -> bool:
        return self.degree() <= 0

    def to_fractions(self):
        if not self.is_constant():
            raise ValueError("matrix has non-constant entries")
        return [[e.terms.get((0, 0, 0), Fraction(0)) for e in row] for row in self.entries]


# ---------------------------------------------------------------------------
# exact Fraction linear algebra (lists of lists)
# ---------------------------------------------------------------------------

def frac_matrix(mat):
    return [[_frac(x) for x in row] for row in mat]


def fmat_identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def fmat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k
    return [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
            for i in range(n)]


def fmat_det_inv(mat):
    """(det, inverse) via exact Gauss-Jordan; inverse is None when singular."""
    n = len(mat)
    a = [row[:] for row in mat]
    inv = fmat_identity(n)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0), None
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            inv[col], inv[piv] = inv[piv], inv[col]
            det = -det
        det *= a[col][col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return det, inv


def fmat_inv(mat):
    det, inv = fmat_det_inv(mat)
    if inv is None:
        raise ZeroDivisionError("singular exact matrix")
    return inv


# ---------------------------------------------------------------------------
# exact interpolation of polynomials of bounded total degree
# ---------------------------------------------------------------------------

def monomials_upto(degree: int):
    """Exponent tuples of total degree <= degree, graded lexicographic."""
    out = []
    for d in range(degree + 1):
        block = []
        for a in range(d + 1):
            for b in range(d - a + 1):
                block.append((a, b, d - a - b))
        block.sort(reverse=True)
        out.extend(block)
    return out


def principal_lattice(degree: int, shift=(0, 0, 0)):
    """Unisolvent rational points for total-degree interpolation."""
    return [(Fraction(a) + shift[0], Fraction(b) + shift[1], Fraction(c) + shift[2])
            for (a, b, c) in monomials_upto(degree)]


class PolyInterpolator:
    """Exact interpolation on the shifted principal lattice of a given degree."""

    def __init__(self, degree: int, shift=(Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))):
        self.degree = degree
        self.monos = monomials_upto(degree)
        self.points = principal_lattice(degree, shift)
        V = [[(p[0] ** a) * (p[1] ** b) * (p[2] ** c) for (a, b, c) in self.monos]
             for p in self.points]
        self.V_inv = fmat_inv(V)

    def fit(self, values) -> Poly:
        """Poly of total degree <= self.degree matching the exact values at the lattice."""
        coef = fmat_mul(self.V_inv, [[_frac(v)] for v in values])
        return Poly({e: coef[i][0] for i, e in enumerate(self.monos)})
