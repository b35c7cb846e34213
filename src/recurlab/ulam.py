"""Ulam discretization of the transfer operator for expanding interval maps.

The operator L f(x) = sum over T y = x of f(y)/|T'(y)| is approximated on N
equal bins by the row-stochastic matrix P_ij = m(B_i ∩ T^{-1} B_j)/m(B_i).
Its leading left eigenvector approximates the invariant density.

The second eigenvalue modulus, which gives the spectral gap and the
exponential correlation decay rate, comes from the degree-1 Legendre
Galerkin discretisation on the same bins: basis {1, sqrt(3)(2u - 1)} per bin
(u the bin's local coordinate), entries
G[(i,p),(j,q)] = N * integral over B_i ∩ T^{-1}B_j of phi_{i,p}(y) phi_{j,q}(Ty) dy.
The Ulam matrix is its (0,0) block. A piecewise-constant basis cannot
resolve the subleading spectrum (for the doubling map on dyadic bins the
Ulam matrix is nilpotent off the constants, while the transfer operator has
eigenvalue 1/2 with eigenfunction x - 1/2), which a degree-1 basis can.
|lambda2| comes from an Arnoldi solve with thick restarts (Morgan 1996): a basis
of _BLOCK + 1 vectors that, when full, keeps the span of its _KEEP Ritz
vectors of largest modulus, so memory stays fixed and each dense eigen-solve
is at most _BLOCK x _BLOCK. Clustered spectra, which restarts cannot hold,
grow the basis instead (see `_second_eigenvalue`).

Both matrices are sparse (O(branches * N) entries) and stored in COO form;
`UlamOperator.matrix` densifies the Ulam matrix on demand. Their entries come
from closed-form piecewise-affine preimage geometry, computed for all target
bins of a branch at once. Integer circle maps and piecewise maps have
rational data, so every bin edge, branch end and preimage end is an integer
over one common scale S; each Ulam entry is an exact sum of integers rounded
once to its float (so dyadic Ulam matrices of the doubling map are exactly
uniform-invariant). Beta maps, whose breakpoints are irrational, run the same
geometry in floats. The Galerkin entries are floats from the same overlap
pieces, by 2-point Gauss quadrature (exact for the quadratic integrands).
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circle import RadiusSequence
from .errors import EigenvalueLocationError
from .systems import BetaMap, SystemSpec, uses_circle_metric

POWER_TOL = 1e-10
POWER_MAXIT = 100_000
KRYLOV_MAX = 400     # matrix-vector products after which the |lambda2| solve gives up
KRYLOV_TOL = 1e-11   # Ritz-pair residual that counts as converged
_BLOCK = 32          # Arnoldi steps between thick restarts
_KEEP = 12           # Ritz vectors that a thick restart keeps
SUPPORT_TOL = 1e-9   # density above which a bin counts as support
DECAY_STEPS = 9      # n = 1..DECAY_STEPS in the correlation table

# 2-point Gauss-Legendre nodes on [0, 1] (weights 1/2 each)
_GAUSS = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))
_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class SparseMatrix:
    """Square n x n matrix in COO form: M[rows[k], cols[k]] sums weights[k]."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray

    def apply_left(self, w: np.ndarray) -> np.ndarray:
        """The row vector w M (the transfer operator's action on densities)."""
        return np.bincount(self.cols, weights=self.weights * w[self.rows],
                           minlength=self.n)

    def dense(self) -> np.ndarray:
        M = np.zeros((self.n, self.n))
        np.add.at(M, (self.rows, self.cols), self.weights)
        return M


@dataclass
class UlamOperator:
    sys: SystemSpec
    N: int
    P: SparseMatrix             # the Ulam matrix, row-stochastic, N x N
    density: np.ndarray         # invariant density per bin, integral 1
    residual: float             # L1 residual of the fixed-point equation
    second_eig: float           # |lambda2| of the degree-1 Galerkin operator
    second_eig_converged: bool  # False when the Arnoldi solve hit KRYLOV_MAX
    power_iterations: int
    galerkin: SparseMatrix      # degree-1 operator, index p*N + i; its (0,0) block is P

    @property
    def matrix(self) -> np.ndarray:
        """The Ulam matrix as a dense (N, N) array, built on each access."""
        return self.P.dense()

    @property
    def gap(self) -> float:
        return 1.0 - self.second_eig

    @property
    def bin_prob(self) -> np.ndarray:
        """Invariant probability of each bin (density * bin width)."""
        return self.density / self.N


def _branches(sys: SystemSpec) -> list[tuple]:
    """(lo, hi, slope, intercept) per branch, with |slope| > 1: floats for
    beta maps, rational or not, and the Fractions of ``sys.as_piecewise()``
    for every other map (which refuses a map without affine branches)."""
    if isinstance(sys, BetaMap):  # k / beta < 1 for exactly these k
        beta = float(sys.beta)
        return [(k / beta, min((k + 1) / beta, 1.0), beta, float(-k))
                for k in range(math.ceil(beta))]
    return [(b.lo, b.hi, b.slope, b.intercept) for b in sys.as_piecewise().branches]


def _ratio(num: np.ndarray, den: int) -> np.ndarray:
    """num / den correctly rounded, for integers |num| <= den: numpy divides
    the exact floats below 2^53, Python's int division does the rest."""
    if den < 2**53:
        return num.astype(float) / den
    return (num.astype(object) / den).astype(float)


def _fill_matrix_from_branches(branches, N: int) -> tuple[SparseMatrix, SparseMatrix]:
    """The Ulam matrix and the degree-1 Galerkin operator, both built from the
    preimage overlaps of every branch with every pair of bins.

    For each branch (affine, monotone) and target bin B_j, the preimage of
    B_j under the branch is one interval; its overlap with a source bin B_i
    contributes m(B_i ∩ T^{-1}B_j)/m(B_i) = N * overlap. As |slope| > 1 the
    interval is shorter than a bin and meets at most two source bins, so a
    branch is a few array operations over its target bins. Overlap pieces
    come out in (branch, j, i) order, and entries that several pieces share
    are summed in that order.

    Rational branches run on integers over S = N*L, L the lcm of the branch
    ends' denominators and of den(intercept)*|num(slope)|: the edge j/N is
    j*L, and its preimage under y -> s*y + t is j*A + C with the integers
    A = L/s and C = -t*S/s. An entry is then (sum of overlaps)/L, summed
    exactly; the arrays hold int64 while every value fits, Python ints
    (the same code on object arrays) otherwise.
    """
    exact = isinstance(branches[0][2], Fraction)
    if exact:
        L = math.lcm(*(d for lo, hi, s, t in branches for d in (
            lo.denominator, hi.denominator, t.denominator * abs(s.numerator))))
        S = N * L
        affine = [(int(L / s), int(-t * S / s)) for _, _, s, t in branches]
        # a branch image inside [0, 1] has |t| <= 1 + |s|, so no value
        # below passes 3*S in magnitude
        dtype = np.int64 if S < 2**61 else object

        def edge(k):
            return k.astype(dtype) * L

        def floor_bin(x):
            return (x // L).astype(np.intp)

        def ceil_bin(x):
            return (-(-x // L)).astype(np.intp)
    else:
        binw = 1.0 / N

        def edge(k):
            return k * binw

        def floor_bin(x):
            return np.floor(x * N).astype(np.intp)

        def ceil_bin(x):
            return np.ceil(x * N).astype(np.intp)

    parts = []
    for k, (lo, hi, s, t) in enumerate(branches):
        v0, v1 = s * lo + t, s * hi + t
        vmin, vmax = (v0, v1) if v0 <= v1 else (v1, v0)
        j0 = max(0, int(math.floor(vmin * N)))
        j1 = min(N - 1, int(math.ceil(vmax * N)) - 1)
        j = np.arange(j0, j1 + 1)
        if exact:
            A, C = affine[k]
            ends = (j.astype(dtype) * A + C, (j + 1).astype(dtype) * A + C)
            lo, hi = int(lo * S), int(hi * S)
        else:
            ends = ((edge(j) - t) / s, (edge(j + 1) - t) / s)
        plo, phi = ends if s > 0 else ends[::-1]
        plo = np.maximum(plo, lo)
        phi = np.minimum(phi, hi)
        keep = plo < phi
        j, plo, phi = j[keep], plo[keep], phi[keep]
        if not len(j):
            continue
        i0 = floor_bin(plo)
        i1 = np.minimum(N - 1, ceil_bin(phi) - 1)
        i = i0[:, None] + np.arange(int((i1 - i0).max()) + 1)
        a = np.maximum(plo[:, None], edge(i))
        b = np.minimum(phi[:, None], edge(i + 1))
        ok = (i <= i1[:, None]) & (a < b)
        parts.append((i[ok], np.broadcast_to(j[:, None], i.shape)[ok], a[ok], b[ok],
                      np.full(ok.sum(), float(s)), np.full(ok.sum(), float(t))))
    i, j, a, b, s, t = (np.concatenate(col) for col in zip(*parts))

    keys = i * N + j
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    weights = np.add.reduceat(((b - a) if exact else (b - a) * N)[order], starts)
    keys = keys[starts]
    rows, cols = np.divmod(keys, N)
    row_starts = np.flatnonzero(np.diff(rows, prepend=-1))
    if len(row_starts) != N:
        raise AssertionError("a source bin has no image")
    rowsums = np.add.reduceat(weights, row_starts)
    if exact:
        bad = np.flatnonzero(rowsums != L)
        if len(bad):
            raise AssertionError(f"row {bad[0]} does not sum to 1 exactly")
        weights = _ratio(weights, L)
        a, b = _ratio(a, S), _ratio(b, S)
    else:
        if np.max(np.abs(rowsums - 1.0)) > 1e-12:
            raise AssertionError("Ulam rows deviate from stochasticity beyond 1e-12")
        weights = weights / rowsums[rows]
    return SparseMatrix(N, rows, cols, weights), _galerkin_from_pieces(i, j, a, b, s, t, N)


def _galerkin_from_pieces(i, j, a, b, s, t, N: int) -> SparseMatrix:
    """G entries N * ∫_a^b phi_{i,p}(y) phi_{j,q}(s y + t) dy per overlap piece
    (i, j, a, b, s, t); the integrand is quadratic, so 2-point Gauss is exact."""
    y = a[:, None] + (b - a)[:, None] * np.array(_GAUSS)
    u = _SQRT3 * (2 * (N * y - i[:, None]) - 1)              # phi_{i,1}(y)
    v = _SQRT3 * (2 * (N * (s[:, None] * y + t[:, None]) - j[:, None]) - 1)  # phi_{j,1}(Ty)
    half = N * (b - a) / 2
    rows = np.concatenate((i, i, i + N, i + N))
    cols = np.concatenate((j, j + N, j, j + N))
    weights = np.concatenate((2 * half, half * v.sum(axis=1), half * u.sum(axis=1),
                              half * (u * v).sum(axis=1)))
    return SparseMatrix(2 * N, rows, cols, weights)


def build_ulam(sys: SystemSpec, N: int) -> UlamOperator:
    """Row-stochastic Ulam matrix on N equal bins, with invariant density, and
    the second-eigenvalue modulus of the degree-1 Galerkin operator."""
    if N < 16:
        raise ValueError("need at least 16 bins")
    P, galerkin = _fill_matrix_from_branches(_branches(sys), N)

    # invariant probability vector: leading left eigenvector
    pi = np.full(N, 1.0 / N)
    iters = 0
    residual = math.inf
    while iters < POWER_MAXIT:
        new = P.apply_left(pi)
        new /= new.sum()
        residual = float(np.abs(new - pi).sum())
        pi = new
        iters += 1
        if residual < 1e-14:
            break

    second, converged = _second_eigenvalue(galerkin)
    density = pi * N
    return UlamOperator(sys, N, P, density, residual, second, converged, iters, galerkin)


def _second_eigenvalue(G: SparseMatrix) -> tuple[float, bool]:
    """Modulus of the subleading eigenvalue of G, and whether it converged.

    The constants (1 on every degree-0 entry) are a right eigenvector of G
    for eigenvalue 1, so the row vectors with zero degree-0 sum form an
    invariant subspace that holds the rest of the spectrum. Arnoldi runs on
    w -> wG there, with a full Gram-Schmidt pass repeated twice per step,
    and checks the largest-modulus Ritz value at k = 10, 20, 30, ... steps
    and, while it restarts, whenever the basis is full. It counts as
    converged once its residual beta_k |y_k| is below KRYLOV_TOL (or the
    Krylov space is invariant).

    The basis holds _BLOCK + 1 vectors. When it is full, a thick restart
    (Morgan 1996; Stewart's Krylov-Schur; `_restart`) keeps the span of the
    _KEEP Ritz vectors of largest modulus and continues from the last basis
    vector. That span is invariant under H, so A V_k = V_k H_k +
    beta_k v_{k+1} e_k^T holds again one step later and the residual test
    stays valid. A restart needs the cycle since the last full basis to
    have cut the top residual tenfold; otherwise the basis grows by another
    _BLOCK + 1 vectors, so that the next cycle is longer. Restarting stops
    for good when the first Ritz value it would drop has a modulus above
    0.95 of the top: a cluster of moduli wider than _KEEP (integer circle
    maps on bins that are not a power of a), which restarts scramble. The
    basis then only grows, from where it is: after a restart it still
    satisfies the Arnoldi relation, so nothing is rerun. KRYLOV_MAX
    matrix-vector products without convergence are reported as
    unconverged.
    """
    n = G.n
    N = n // 2
    # a fixed pseudo-random start; stdlib random keeps numpy.random (about
    # 2 MB resident) unloaded
    rnd = random.Random(12345)
    start = np.array([rnd.random() - 0.5 for _ in range(n)])
    start[:N] -= start[:N].mean()
    start /= np.linalg.norm(start)
    R = _BLOCK + 1
    blocks = [np.zeros((R, n))]   # the Krylov basis, R rows per array
    blocks[0][0] = start
    H = np.zeros((R, _BLOCK))
    k = 0                # Arnoldi steps taken: the basis holds k + 1 vectors
    check = 10
    restarting = True
    last = math.inf      # the top residual when the basis was last full
    theta = 0.0
    for used in range(1, KRYLOV_MAX + 1):
        w = G.apply_left(blocks[k // R][k % R])
        w[:N] -= w[:N].mean()
        scale = float(np.linalg.norm(w))
        for _ in range(2):
            for first in range(0, k + 1, R):
                Q = blocks[first // R][: k + 1 - first]
                c = Q @ w
                w -= c @ Q
                H[first : first + len(c), k] += c
        beta = H[k + 1, k] = float(np.linalg.norm(w))
        k += 1
        invariant = beta <= 1e-13 * scale or k == n - 1
        if not invariant:
            blocks[k // R][k % R] = w / beta
        full = k == H.shape[1]
        if invariant or k == check or used == KRYLOV_MAX or full and restarting:
            ritz, Y = np.linalg.eig(H[:k, :k])
            order = np.argsort(-np.abs(ritz), kind="stable")
            theta = float(abs(ritz[order[0]]))
            res = beta * abs(Y[-1, order[0]])
            if invariant or res <= KRYLOV_TOL:
                return theta, True
            if k == check:
                check = k + max(10, k // 4)
            if full and restarting and used < KRYLOV_MAX:
                Z = _ritz_basis(ritz, Y, order)
                p = Z.shape[1]
                if abs(ritz[order[p]]) > 0.95 * theta:   # a cluster
                    restarting = False
                elif res * 10 <= last and _restart(blocks, H, Z, beta):
                    k, last, check = p, res, p + 10
                    continue
                last = res
        if full and used < KRYLOV_MAX:
            blocks.append(np.zeros((R, n)))
            H = np.pad(H, ((0, R), (0, R)))
    return theta, False


def _restart(blocks: list[np.ndarray], H: np.ndarray, Z: np.ndarray, beta: float) -> bool:
    """Thick restart in place onto the span of Z's columns: V <- Z^T V and
    H <- [[Z^T H Z], [beta Z[-1]]], with the last basis vector kept next.
    Refused (False) when Z is not an invariant subspace of H to within
    1e-3 KRYLOV_TOL, since the new basis would then lose the Arnoldi
    relation that the residual test reads."""
    k, p = Z.shape
    R = len(blocks[0])
    Hp = Z.T @ H[:k, :k] @ Z
    if np.abs(H[:k, :k] @ Z - Z @ Hp).max() > 1e-3 * KRYLOV_TOL:
        return False
    kept = Z[:R].T @ blocks[0][:k]
    for first in range(R, k, R):
        kept += Z[first : first + R].T @ blocks[first // R][: k - first]
    blocks[0][p] = blocks[k // R][k % R]
    blocks[0][:p] = kept
    H[:] = 0
    H[:p, :p] = Hp
    H[p, :p] = beta * Z[-1]
    return True


def _ritz_basis(ritz: np.ndarray, Y: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the _KEEP or so Ritz vectors of largest
    modulus. A complex pair enters whole, as the real and imaginary parts of
    its first member (eig lists the positive imaginary part first)."""
    cols = []
    for j in order:
        if ritz[j].imag > 0:
            cols += [Y[:, j].real, Y[:, j].imag]
        elif ritz[j].imag == 0:
            cols.append(Y[:, j].real)
        if len(cols) >= _KEEP:
            break
    return np.linalg.qr(np.column_stack(cols))[0]


# ---------------------------------------------------------------------------
# Density bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityBounds:
    c_lower: float
    c_upper: float

    @property
    def c(self) -> float:
        """Single constant with c^-1 <= density <= c on the support."""
        return max(self.c_upper, 1.0 / self.c_lower)


def density_bounds(op: UlamOperator) -> DensityBounds:
    """Min/max of the discrete invariant density over its support bins."""
    if op.residual > POWER_TOL:
        raise EigenvalueLocationError(
            f"density not converged: power-iteration residual {op.residual:.3g}"
        )
    support = op.density > SUPPORT_TOL
    lo = float(op.density[support].min())
    hi = float(op.density[support].max())
    return DensityBounds(lo, hi)


# ---------------------------------------------------------------------------
# Correlation decay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    """The correlation table p(n), n = 1..DECAY_STEPS, and the exponential
    bound p(n) <= C e^{-tau n} on it. tau = -log|lambda2| is the rate of the
    certified Galerkin solve, and C the least constant for that rate."""

    table: tuple[tuple[int, float], ...]
    C: float
    tau: float
    flagged: bool  # no measurable decay (gap < 1e-6) or |lambda2| unconverged


def default_test_pairs(N: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Indicator pairs over bin-aligned intervals with odd numerators, so the
    correlations do not vanish identically at small n for dyadic maps."""
    pairs = []
    for frac_num in (N // 3, 2 * N // 3):
        num = frac_num | 1  # force an odd endpoint index
        f = np.zeros(N)
        f[:num] = 1.0
        pairs.append((f, f.copy()))
    return pairs


def _bv_norm(g: np.ndarray) -> float:
    return float(np.abs(np.diff(g)).sum() + np.abs(g).max())


def correlation_decay_fit(op: UlamOperator) -> DecayFit:
    """Correlations |∫ f(T^n x) g(x) dμ − ∫f dμ ∫g dμ| of the default test
    pairs via matrix powers, normalized by ||f||_L1(mu) * ||g||_BV; p(n) is
    their maximum over the pairs.

    The rate is tau = -log|lambda2|, from ``op``'s Galerkin solve, not a fit
    of the table: the correlations of BV observables decay like |lambda2|^n
    (Lasota-Yorke spectral gap). C = max_n p(n) e^{tau n} is the least
    constant with p(n) <= C e^{-tau n} for n = 1..DECAY_STEPS.
    """
    p = op.bin_prob
    per_pair = []
    for f, g in default_test_pairs(op.N):
        norm = float((p * np.abs(f)).sum()) * _bv_norm(g)
        mean_f = float((p * f).sum())
        mean_g = float((p * g).sum())
        v = p * g
        vals = []
        for _ in range(DECAY_STEPS):
            v = op.P.apply_left(v)
            vals.append(abs(float((v * f).sum()) - mean_f * mean_g) / norm)
        per_pair.append(vals)
    table = tuple((n, max(vals[n - 1] for vals in per_pair))
                  for n in range(1, DECAY_STEPS + 1))
    tau = -math.log(op.second_eig)
    C = max(v * math.exp(tau * n) for n, v in table)
    flagged = op.gap < 1e-6 or not op.second_eig_converged
    return DecayFit(table, C, tau, flagged)


# ---------------------------------------------------------------------------
# The summability series of the zero-measure criterion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesReport:
    terms: tuple[float, ...]
    partial_sums: tuple[float, ...]
    verdict: str   # "converging" | "diverging" | "inconclusive"


_VERDICTS = {True: "converging", False: "diverging", None: "inconclusive"}


def theoremB_series(
    op: UlamOperator, seq: RadiusSequence, n_terms: int
) -> SeriesReport:
    """Partial sums of sum over n of ∫ μ(B(x, r_n)) dμ(x), by density-weighted
    quadrature over bins.

    The verdict is the theorem's, read from the radius family
    (``seq.summable()``): the series converges exactly when sum r_n does,
    for every map accepted here, since each has an invariant density h <= c
    (Lasota-Yorke; Parry for beta-maps).
    - Above: μ(B(x, r)) <= c * 2r, so each term is at most 2c r_n.
    - Below, for any probability measure: cut the space into K = ceil(1/r)
      arcs I_k of length 1/K <= r. B(x, r) contains the arc of x, so the
      term is at least sum_k μ(I_k)^2 >= (sum_k μ(I_k))^2 / K = 1/K >=
      r/(1 + r) by Cauchy-Schwarz.
    No lower bound on h is used, so no map needs a certified c. A family
    whose parameters do not decide sum r_n reads "inconclusive".
    """
    N = op.N
    p = op.bin_prob
    cum = np.concatenate(([0.0], np.cumsum(p)))  # cum[k] = mu([0, k/N))
    circle = uses_circle_metric(op.sys)

    def mu_cdf(x: np.ndarray) -> np.ndarray:
        x = x - np.floor(x) if circle else np.minimum(np.maximum(x, 0.0), 1.0)
        k = np.minimum((x * N).astype(np.intp), N - 1)
        return cum[k] + (x * N - k) * p[k]

    centers = (np.arange(N) + 0.5) / N
    terms = []
    for n in range(1, n_terms + 1):
        r = seq.approx(n)
        if circle and 2 * r >= 1:
            ball = 1.0
        else:
            ball = mu_cdf(centers + r) - mu_cdf(centers - r)
            if circle:
                ball = np.where(ball < 0, ball + 1.0, ball)  # wrapped around
        # cumsum adds in bin order, as a running total would
        terms.append(float(np.cumsum(p * ball)[-1]))
    partial = np.cumsum(terms)
    return SeriesReport(tuple(terms), tuple(float(s) for s in partial),
                        _VERDICTS[seq.summable()])


# ---------------------------------------------------------------------------
# CSV dumps
# ---------------------------------------------------------------------------

def write_density_csv(fileobj, op: UlamOperator) -> int:
    writer = csv.writer(fileobj)
    writer.writerow(["bin", "left", "right", "density"])
    for i in range(op.N):
        writer.writerow([i, i / op.N, (i + 1) / op.N, f"{op.density[i]:.15g}"])
    return op.N
