"""Arithmetic behind the exact correlation estimates.

Three ingredients: the gcd identity gcd(a^m - 1, a^n - 1) = a^gcd(m,n) - 1,
the integer solution lattice of (B^m - I)k = (B^n - I)l, whose 1x1 case
B = (a) is k(a^m - 1) + l(a^n - 1) = 0 with l negated, and the
Bezout-polynomial identity u(x)(1 + ... + x^(m-1)) + v(x)(1 + ... + x^(n-1))
= 1 for coprime m, n that underlies the lattice proof.

Integer matrices are numpy ``object`` arrays of Python ints, as in
``dynamics``: ``@`` and ``np.linalg.matrix_power`` on them stay exact at
any size, and A x = b is solved in the integers by the cofactor
adjugate, det(A) x = adj(A) b. The lattice keeps its generators as
tuples. Brute-force enumerators double as completeness oracles in the
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, product, zip_longest
from typing import Sequence

import numpy as np

from .errors import RootOfUnityError

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


# ---------------------------------------------------------------------------
# gcd identity
# ---------------------------------------------------------------------------

def gcd_mersenne(a: int, m: int, n: int) -> int:
    """gcd(a^m - 1, a^n - 1), computed directly; it always equals
    a^gcd(m,n) - 1, the identity that ``recurlab nt gcd`` checks."""
    if a < 2:
        raise ValueError(f"base must be >= 2, got {a}")
    if m < 1 or n < 1:
        raise ValueError("exponents must be positive")
    return math.gcd(a ** m - 1, a ** n - 1)


# ---------------------------------------------------------------------------
# Bezout polynomials for geometric sums
# ---------------------------------------------------------------------------

Poly = tuple[int, ...]  # coefficient c_i of x^i


def poly_trim(c: Sequence[int]) -> Poly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(p: Poly, q: Poly) -> Poly:
    return poly_trim(a + b for a, b in zip_longest(p, q, fillvalue=0))


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    return poly_trim(np.convolve(np.array(p, object), np.array(q, object)))


def geometric_sum_poly(m: int) -> Poly:
    """1 + x + ... + x^(m-1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return (1,) * m


def bezout_polynomials(m: int, n: int) -> tuple[Poly, Poly]:
    """Integer polynomials (u, v) with u*S_m + v*S_n = 1 for coprime m, n,
    where S_m = 1 + x + ... + x^(m-1).

    Built by the Euclidean descent S_m = x^(m-n) * S_n + S_(m-n): a Bezout
    pair for (m - n, n) pulls back via v -> v - x^(m-n) * u.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if math.gcd(m, n) != 1:
        raise ValueError(f"m={m} and n={n} must be coprime")

    def descend(m: int, n: int) -> tuple[Poly, Poly]:
        if m == n:  # both 1
            return ((1,), ())
        if m < n:
            v, u = descend(n, m)
            return (u, v)
        u, v = descend(m - n, n)
        return (u, poly_add(v, (0,) * (m - n) + tuple(-c for c in u)))

    u, v = descend(m, n)
    check = poly_add(poly_mul(u, geometric_sum_poly(m)), poly_mul(v, geometric_sum_poly(n)))
    if check != (1,):
        raise AssertionError(f"Bezout identity failed for m={m}, n={n}: got {check}")
    return u, v


# ---------------------------------------------------------------------------
# Exact integer matrices
# ---------------------------------------------------------------------------

def mat_det(A: Matrix):
    """Exact determinant by cofactor expansion (matrices here are tiny)."""
    d = len(A)
    if d == 0:
        return 1
    total = 0
    for col in range(d):
        sub = tuple(tuple(r[c] for c in range(d) if c != col) for r in A[1:])
        term = A[0][col] * mat_det(sub)
        total += term if col % 2 == 0 else -term
    return total


def _adjugate(A) -> tuple[np.ndarray, int]:
    """adj(A) and det(A), with adj(A) @ A = det(A) I: when det(A) != 0,
    A x = b has an integer solution exactly when det(A) divides every
    entry of adj(A) b, and the quotient is that solution."""
    A = tuple(map(tuple, A))
    d = len(A)
    adj = [[(-1) ** (i + j) * mat_det([r[:i] + r[i + 1:] for r in A[:j] + A[j + 1:]])
            for j in range(d)] for i in range(d)]
    return np.array(adj, object), mat_det(A)


def check_no_root_of_unity(B: Matrix) -> None:
    """Raise if some eigenvalue of B is a root of unity.

    A degree-d integer matrix can only have primitive k-th roots of unity
    with Euler phi(k) <= d, hence k <= 2*d^2; testing det(B^q - I) != 0 for
    all q up to that bound is therefore a complete check.
    """
    d = len(B)
    B = np.array(B, object)
    I = Bq = np.identity(d, object)
    for q in range(1, 2 * d * d + 1):
        Bq = Bq @ B
        if mat_det(Bq - I) == 0:
            raise RootOfUnityError(q)


# ---------------------------------------------------------------------------
# Solution lattice, with the scalar form as its 1x1 case
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixLattice:
    """All integer-vector solutions of (B^m - I)k = (B^n - I)l.

    They are parametrized by a free integer vector j:
    k = (I + B^p + ... + B^(n-p)) j and l = (I + B^p + ... + B^(m-p)) j,
    with p = gcd(m, n) -- both generators are geometric sums in B^p.
    """

    B: Matrix
    m: int
    n: int
    p: int
    K_gen: Matrix
    L_gen: Matrix

    def pair(self, j: Sequence[int]) -> tuple[Vector, Vector]:
        return tuple(tuple((np.array(G, object) @ j).tolist()) for G in (self.K_gen, self.L_gen))

    def is_solution(self, k: Sequence[int], l: Sequence[int]) -> bool:
        Am, An = _powers_less_identity(np.array(self.B, object), self.m, self.n)
        return np.array_equal(Am @ k, An @ l)

    def solve_j(self, k: Sequence[int], l: Sequence[int] | None = None) -> Vector | None:
        """The integer j with k = K_gen j (and l = L_gen j, if l is given),
        or None if there is none."""
        adj, det = self._k_inverse
        det_j = (adj @ k).tolist()
        if any(v % det for v in det_j):
            return None
        j = tuple(v // det for v in det_j)
        return j if l is None or self.pair(j)[1] == tuple(l) else None

    def contains(self, k: Sequence, l: Sequence) -> bool:
        """Whether each (k[i], l[i]) is (K_gen j, L_gen j) for an integer j:
        one product of adj(K_gen) with all k, one of L_gen with all j."""
        k, l = (np.array(v, object).reshape(len(v), len(self.B)) for v in (k, l))
        (adj, det), L = self._k_inverse, np.array(self.L_gen, object)
        det_j = k @ adj.T
        return not (det_j % det).any() and np.array_equal(det_j // det @ L.T, l)

    @cached_property
    def _k_inverse(self) -> tuple[np.ndarray, int]:
        return _adjugate(self.K_gen)


def _powers_less_identity(B: np.ndarray, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """B^m - I and B^n - I."""
    I = np.identity(len(B), object)
    return np.linalg.matrix_power(B, m) - I, np.linalg.matrix_power(B, n) - I


def _geometric_sum_matrix(B: np.ndarray, p: int, top: int) -> np.ndarray:
    """I + B^p + B^(2p) + ... + B^top (top a multiple of p, possibly 0)."""
    Bp = np.linalg.matrix_power(B, p)
    return sum(np.linalg.matrix_power(Bp, i) for i in range(top // p + 1))


def matrix_lattice(B, m: int, n: int) -> MatrixLattice:
    B = tuple(tuple(int(v) for v in row) for row in B)
    if not B or any(len(row) != len(B) for row in B):
        raise ValueError("matrix must be square and non-empty")
    if m == n:
        raise ValueError("degenerate equation: m and n must differ")
    if m < 1 or n < 1:
        raise ValueError("exponents must be positive")
    check_no_root_of_unity(B)
    p = math.gcd(m, n)
    A = np.array(B, object)
    K = _geometric_sum_matrix(A, p, n - p)
    Lg = _geometric_sum_matrix(A, p, m - p)
    Am, An = _powers_less_identity(A, m, n)
    if not np.array_equal(Am @ K, An @ Lg):
        raise AssertionError(f"lattice generator identity failed for m={m}, n={n}")
    return MatrixLattice(B, m, n, p, tuple(map(tuple, K)), tuple(map(tuple, Lg)))


def matrix_lattice_bruteforce(B, m: int, n: int, box: int) -> list[tuple[Vector, Vector]]:
    """All (k, l) with entries in [-box, box] solving (B^m - I)k = (B^n - I)l.

    Enumerates k only: with A = B^n - I, l = adj(A)(B^m - I)k / det(A), so
    all k of the box take one product and one divisibility test by det(A),
    and the work is (2box+1)^d, not squared.
    """
    B = tuple(tuple(int(v) for v in row) for row in B)
    d = len(B)
    if (2 * box + 1) ** d > 10 ** 6:
        raise ValueError(f"box {box} too large for dimension {d}")
    Am, An = _powers_less_identity(np.array(B, object), m, n)
    adj, det = _adjugate(An)
    if det == 0:  # B^n fixes a vector: some eigenvalue is a root of unity
        check_no_root_of_unity(B)
    box_vectors, out = product(range(-box, box + 1), repeat=d), []
    while chunk := list(islice(box_vectors, 1 << 14)):  # 2^14 k at a time: small temporaries
        k = np.array(chunk, object)
        det_l = k @ (adj @ Am).T
        solved = ~(det_l % det).any(axis=1)
        k, l = k[solved], det_l[solved] // det
        inside = (abs(l) <= box).all(axis=1)
        out += zip(map(tuple, k[inside].tolist()), map(tuple, l[inside].tolist()))
    return out


@dataclass(frozen=True)
class ScalarLattice:
    """All integer solutions of k(a^m - 1) + l(a^n - 1) = 0, read off the
    1x1 ``MatrixLattice`` of B = (a) with l negated: {(k0*j, l0*j)} with
    k0 = (a^n - 1)/(a^p - 1), l0 = -(a^m - 1)/(a^p - 1) and p = gcd(m, n)."""

    lattice: MatrixLattice
    p: int
    k0: int
    l0: int

    def pair(self, j: int) -> tuple[int, int]:
        (k,), (l,) = self.lattice.pair((j,))
        return k, -l

    def is_solution(self, k: int, l: int) -> bool:
        return self.lattice.is_solution((k,), (-l,))

    def solve_j(self, k: int, l: int) -> int | None:
        """The j with (k, l) = (k0*j, l0*j), or None if off the lattice."""
        j = self.lattice.solve_j((k,), (-l,))
        return None if j is None else j[0]

    def contains(self, k: Sequence[int], l: Sequence[int]) -> bool:  # l negated, as in solve_j
        return self.lattice.contains(k, [-v for v in l])


def scalar_lattice(a: int, m: int, n: int) -> ScalarLattice:
    if a < 2:
        raise ValueError(f"base must be >= 2, got {a}")
    lat = matrix_lattice(((a,),), m, n)
    return ScalarLattice(lat, lat.p, lat.K_gen[0][0], -lat.L_gen[0][0])


def scalar_lattice_bruteforce(a: int, m: int, n: int, bound: int) -> list[tuple[int, int]]:
    """All (k, l) with |k|, |l| <= bound solving k(a^m-1) + l(a^n-1) = 0."""
    if 2 * bound + 1 > 10 ** 6:
        raise ValueError(f"brute-force bound {bound} too large")
    return [(k, -l) for (k,), (l,) in matrix_lattice_bruteforce(((a,),), m, n, bound)]
