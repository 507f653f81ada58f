"""Verification lab for skew-determinantal measures and their flip-repair walk.

A real skew-symmetric matrix A assigns each subset S the weight
w(S) = det(A[S,S]) = pf(A[S,S])^2, supported on even subsets.  The lab builds
the normalized measure, the exact two-step kernel of the flip-repair walk,
and the excitation-basis objects used to check its spectral gap, the flat
log-Sobolev bound, and the parity covering couplings, all at desk scale.

Subsets are encoded as bitmasks with coordinate i on bit i, and all exterior
signs come from the single convention ins(i, U) = (-1)^|{k in U : k < i}|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rng import SplitMix64

SKEW_TOL = 1e-12
SUPPORT_TOL = 1e-9


class TheoremViolationError(RuntimeError):
    """A numerically checked theorem failed; this should never fire."""


def require_skew(a: np.ndarray, tol: float = SKEW_TOL) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if a.size and np.max(np.abs(a + a.T)) > tol:
        raise ValueError("matrix is not skew-symmetric within tolerance")
    return a


def random_skew(n: int, rng: SplitMix64, scale: float = 1.0) -> np.ndarray:
    """Dense random skew matrix; (X - X^T)/2 is exactly skew in floats."""
    x = np.array([[rng.gauss() for _ in range(n)] for _ in range(n)])
    return (x - x.T) * (0.5 * scale)


# -- Pfaffians -----------------------------------------------------------------


def pfaffian(b: np.ndarray) -> float:
    """Pfaffian of a skew-symmetric matrix.

    pf of the empty matrix is 1 and odd dimensions give 0.  Small matrices
    (dim <= 8) use the exact perfect-matching expansion along the first row;
    larger ones use Parlett-Reid tridiagonalization with partial pivoting.
    """
    b = require_skew(b)
    n = b.shape[0]
    if n == 0:
        return 1.0
    if n % 2 == 1:
        return 0.0
    if n <= 8:
        return _pf_expand(b, tuple(range(n)))
    return _pf_parlett_reid(b.copy())


def _pf_expand(b: np.ndarray, idx: tuple[int, ...]) -> float:
    if not idx:
        return 1.0
    i0 = idx[0]
    rest = idx[1:]
    total = 0.0
    sign = 1.0
    for t, j in enumerate(rest):
        sub = rest[:t] + rest[t + 1 :]
        total += sign * b[i0, j] * _pf_expand(b, sub)
        sign = -sign
    return total


def _pf_parlett_reid(a: np.ndarray) -> float:
    n = a.shape[0]
    val = 1.0
    for k in range(0, n - 1, 2):
        col = np.abs(a[k + 1 :, k])
        kp = k + 1 + int(np.argmax(col))
        if a[kp, k] == 0.0:
            return 0.0
        if kp != k + 1:
            a[[k + 1, kp], :] = a[[kp, k + 1], :]
            a[:, [k + 1, kp]] = a[:, [kp, k + 1]]
            val = -val
        val *= a[k, k + 1]
        if k + 2 < n:
            tau = a[k, k + 2 :] / a[k, k + 1]
            w = a[k + 2 :, k + 1]
            a[k + 2 :, k + 2 :] += np.outer(tau, w) - np.outer(w, tau)
    return val


# -- subset machinery ----------------------------------------------------------


@lru_cache(maxsize=32)
def _mask_tables(n: int):
    size = 1 << n
    masks = np.arange(size, dtype=np.int64)
    pops = np.zeros(size, dtype=np.int64)
    for i in range(n):
        pops += (masks >> i) & 1
    # signs[i][V] = (-1)^{#bits of V below i}
    signs = np.empty((n, size), dtype=np.int8)
    for i in range(n):
        low = masks & ((1 << i) - 1)
        par = np.zeros(size, dtype=np.int64)
        for j in range(i):
            par += (low >> j) & 1
        signs[i] = np.where(par % 2 == 0, 1, -1)
    return masks, pops, signs


def apply_flip(n: int, i: int, x: np.ndarray) -> np.ndarray:
    """Signed coordinate flip c_i = insertion plus deletion."""
    masks, _, signs = _mask_tables(n)
    return signs[i] * x[masks ^ (1 << i)]


def apply_insert(n: int, i: int, x: np.ndarray) -> np.ndarray:
    """Signed insertion eps_i: nonzero only on targets containing i."""
    masks, _, signs = _mask_tables(n)
    out = signs[i] * x[masks ^ (1 << i)]
    out[(masks >> i) & 1 == 0] = 0.0
    return out


def apply_delete(n: int, i: int, x: np.ndarray) -> np.ndarray:
    """Signed deletion iota_i: nonzero only on targets not containing i."""
    masks, _, signs = _mask_tables(n)
    out = signs[i] * x[masks ^ (1 << i)]
    out[(masks >> i) & 1 == 1] = 0.0
    return out


def apply_insert_vector(n: int, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """eps_b = sum_i b_i eps_i (insertion only)."""
    out = np.zeros_like(x)
    for i in range(n):
        if b[i] != 0.0:
            out += b[i] * apply_insert(n, i, x)
    return out


def ins_sign(i: int, u_mask: int) -> int:
    """(-1)^{#elements of u below i}; the shared exterior sign convention."""
    return -1 if bin(u_mask & ((1 << i) - 1)).count("1") % 2 else 1


def toggle_sign(t_mask: int, u_mask: int) -> int:
    """Sign s with c_T e_U = s e_{U xor T}; factors applied largest index first."""
    s = 1
    cur = u_mask
    for i in reversed(range(t_mask.bit_length())):
        if (t_mask >> i) & 1:
            s *= ins_sign(i, cur)
            cur ^= 1 << i
    return s


# -- weights, measure, kernel ---------------------------------------------------


@dataclass(frozen=True)
class SubsetWeightTable:
    """Principal-minor weights w(S), normalizer Z, and the support."""

    n: int
    w: np.ndarray  # length 2^n, zero on odd masks
    z: float
    support: tuple[int, ...]  # even masks with positive weight

    def mu(self, mask: int) -> float:
        return float(self.w[mask]) / self.z

    def is_flat(self, tol: float = SUPPORT_TOL) -> bool:
        pos = self.w[self.w > SUPPORT_TOL]
        return bool(np.all(np.abs(pos - 1.0) <= tol))


def weight_table(a: np.ndarray, max_n: int = 20) -> SubsetWeightTable:
    a = require_skew(a)
    n = a.shape[0]
    if n > max_n:
        raise ValueError(f"dimension {n} above lab cap {max_n}")
    size = 1 << n
    _, pops, _ = _mask_tables(n)
    w = np.zeros(size)
    w[0] = 1.0
    for mask in range(1, size):
        if pops[mask] % 2:
            continue
        idx = [i for i in range(n) if (mask >> i) & 1]
        det = float(np.linalg.det(a[np.ix_(idx, idx)]))
        if det < -1e-6:
            raise AssertionError(f"negative even principal determinant {det}")
        w[mask] = max(det, 0.0)
    z = float(w.sum())
    support = tuple(int(s) for s in np.flatnonzero(w > SUPPORT_TOL))
    return SubsetWeightTable(n=n, w=w, z=z, support=support)


@dataclass(frozen=True)
class ExactKernel:
    """Dense flip-repair kernel P over the support, plus the odd layer."""

    n: int
    states: tuple[int, ...]
    p: np.ndarray
    mu: np.ndarray
    nu: dict[int, float]  # odd-mask marginal of the first flip
    z: float

    @property
    def size(self) -> int:
        return len(self.states)


def exact_kernel(table: SubsetWeightTable) -> ExactKernel:
    """P(S,T) = (1/n) sum_Y w(T) / sum_i w(Y xor {i}) over shared odd Y."""
    n = table.n
    states = table.support
    if not states:
        raise ValueError("empty support")
    index = {s: k for k, s in enumerate(states)}
    w = table.w
    size = len(states)
    p = np.zeros((size, size))
    nu: dict[int, float] = {}
    for s in states:
        si = index[s]
        for i in range(n):
            y = s ^ (1 << i)
            c_y = sum(float(w[y ^ (1 << j)]) for j in range(n))
            nu[y] = nu.get(y, 0.0) + table.mu(s) / n
            for j in range(n):
                t = y ^ (1 << j)
                if w[t] > SUPPORT_TOL:
                    p[si, index[t]] += float(w[t]) / (n * c_y)
    mu = np.array([table.mu(s) for s in states])
    return ExactKernel(n=n, states=states, p=p, mu=mu, nu=nu, z=table.z)


def spectral_gap(kernel: ExactKernel) -> float:
    """1 minus the second-largest eigenvalue of the mu-symmetrized kernel."""
    if kernel.size == 1:
        return 1.0
    d = np.sqrt(kernel.mu)
    sym = kernel.p * d[:, None] / d[None, :]
    sym = (sym + sym.T) / 2
    eig = np.linalg.eigvalsh(sym)
    return float(1.0 - eig[-2])


def kernel_psd_floor(kernel: ExactKernel) -> float:
    """Minimum eigenvalue of the symmetrized kernel (P = KK* predicts >= 0)."""
    d = np.sqrt(kernel.mu)
    sym = kernel.p * d[:, None] / d[None, :]
    sym = (sym + sym.T) / 2
    return float(np.linalg.eigvalsh(sym)[0])


def dirichlet_form(kernel: ExactKernel, f: np.ndarray) -> float:
    return float(np.dot(f * kernel.mu, f - kernel.p @ f))


def entropy(mu: np.ndarray, g: np.ndarray) -> float:
    """Ent_mu(g) for nonnegative g, with 0 log 0 = 0."""
    mean = float(np.dot(mu, g))
    if mean <= 0.0:
        return 0.0
    terms = np.where(g > 0.0, g * np.log(np.maximum(g, 1e-300)), 0.0)
    return float(np.dot(mu, terms)) - mean * math.log(mean)


# -- excitation basis -----------------------------------------------------------


@dataclass(frozen=True)
class ExcitationBasis:
    """Pfaffian vector and the signed-flip images of its normalization.

    ``xi[t]`` is the excitation vector indexed by mask t, as a row of length
    2^n in the subset basis.  xi[0] is the normalized Pfaffian vector.
    """

    n: int
    z: float
    psi: np.ndarray
    xi: np.ndarray

    def even_masks(self) -> np.ndarray:
        _, pops, _ = _mask_tables(self.n)
        return np.flatnonzero(pops % 2 == 0)


def pfaffian_vector(a: np.ndarray) -> np.ndarray:
    """Vector of principal Pfaffians over even masks (1 at the empty set)."""
    a = require_skew(a)
    n = a.shape[0]
    size = 1 << n
    _, pops, _ = _mask_tables(n)
    psi = np.zeros(size)
    psi[0] = 1.0
    for mask in range(1, size):
        if pops[mask] % 2:
            continue
        idx = [i for i in range(n) if (mask >> i) & 1]
        psi[mask] = pfaffian(a[np.ix_(idx, idx)]) if len(idx) > 8 else _pf_expand(
            a[np.ix_(idx, idx)], tuple(range(len(idx)))
        )
    return psi


def excitation_basis(a: np.ndarray, max_n: int = 12) -> ExcitationBasis:
    a = require_skew(a)
    n = a.shape[0]
    if n > max_n:
        raise ValueError(f"dimension {n} above excitation cap {max_n}")
    psi = pfaffian_vector(a)
    z = float(np.dot(psi, psi))
    size = 1 << n
    xi = np.zeros((size, size))
    xi[0] = psi / math.sqrt(z)
    for t in range(1, size):
        low = t & -t
        i = low.bit_length() - 1
        xi[t] = apply_flip(n, i, xi[t ^ low])
    return ExcitationBasis(n=n, z=z, psi=psi, xi=xi)


def star_neighbors(n: int, y_mask: int) -> list[int]:
    return [y_mask ^ (1 << i) for i in range(n)]


def repair_weight(table: SubsetWeightTable, y_mask: int) -> float:
    """C(Y): total weight of the even neighbors of an odd mask."""
    return float(sum(table.w[s] for s in star_neighbors(table.n, y_mask)))


def projection_operator(
    a: np.ndarray,
    table: SubsetWeightTable | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The averaged projection operator on the even subspace.

    Returns (P_A, even_masks): P_A = (1/n) sum over odd Y with C(Y) > 0 of the
    orthogonal projection onto Phi_Y, written in the even-mask subset basis.
    """
    a = require_skew(a)
    n = a.shape[0]
    if table is None:
        table = weight_table(a)
    psi = pfaffian_vector(a)
    _, pops, _ = _mask_tables(n)
    even = np.flatnonzero(pops % 2 == 0)
    pos = {int(s): k for k, s in enumerate(even)}
    dim = len(even)
    p_a = np.zeros((dim, dim))
    for y in np.flatnonzero(pops % 2 == 1):
        phi = np.zeros(dim)
        for s in star_neighbors(n, int(y)):
            phi[pos[s]] = psi[s]
        c_y = float(np.dot(phi, phi))
        if c_y <= SUPPORT_TOL:
            continue
        p_a += np.outer(phi, phi) / c_y
    return p_a / n, even


def check_number_domination(a: np.ndarray) -> float:
    """Minimum eigenvalue of I - N_A/n - P_A on the even subspace.

    The comparison P_A <= I - N_A/n predicts a nonnegative value.
    """
    a = require_skew(a)
    n = a.shape[0]
    lab = excitation_basis(a)
    p_a, even = projection_operator(a)
    _, pops, _ = _mask_tables(n)
    xi_even = lab.xi[np.ix_(even, even)]  # rows: excitation masks, cols: states
    degs = pops[even].astype(float)
    n_a = xi_even.T @ (degs[:, None] * xi_even)
    mat = np.eye(len(even)) - n_a / n - p_a
    mat = (mat + mat.T) / 2
    return float(np.linalg.eigvalsh(mat)[0])


def excitation_row(lab: ExcitationBasis, y_mask: int) -> np.ndarray:
    """R_Y: coordinates of the odd state row in the excitation basis.

    Entry at odd mask T is <e_Y, xi_T>; even entries are zero.
    """
    _, pops, _ = _mask_tables(lab.n)
    row = lab.xi[:, y_mask].copy()
    row[pops % 2 == 0] = 0.0
    return row


def degree_one_part(lab: ExcitationBasis, y_mask: int) -> np.ndarray:
    """beta_Y: the singleton coordinates of R_Y, as a vector in R^n."""
    return np.array([lab.xi[1 << i, y_mask] for i in range(lab.n)])


def check_row_isotropy(a: np.ndarray) -> dict[str, float]:
    """Row isotropy and the identities feeding it, maximized over odd Y.

    Returns the maxima of: ||eps_{beta_Y} R_Y||, the defect of
    C(Y) = Z ||beta_Y||^2, and the specialized overlapping-Pfaffian sums
    recomputed directly from principal Pfaffians and exterior signs.
    """
    a = require_skew(a)
    n = a.shape[0]
    lab = excitation_basis(a)
    table = weight_table(a)
    _, pops, _ = _mask_tables(n)
    worst_iso = 0.0
    worst_cy = 0.0
    for y in np.flatnonzero(pops % 2 == 1):
        y = int(y)
        beta = degree_one_part(lab, y)
        row = excitation_row(lab, y)
        img = apply_insert_vector(n, beta, row)
        worst_iso = max(worst_iso, float(np.linalg.norm(img)))
        c_y = repair_weight(table, y)
        worst_cy = max(worst_cy, abs(c_y - lab.z * float(np.dot(beta, beta))))
    worst_pf = overlapping_pfaffian_defect(a, lab)
    return {
        "row_isotropy": worst_iso,
        "repair_weight_identity": worst_cy,
        "overlapping_pfaffian": worst_pf,
    }


def overlapping_pfaffian_defect(
    a: np.ndarray, lab: ExcitationBasis | None = None, sample: int | None = None,
    rng: SplitMix64 | None = None,
) -> float:
    """Max |sum_{i in R} sign(Y,R,i) pf(A_{Y^{i}}) pf(A_{Y^(R-i)})| over pairs.

    Recomputed from the Pfaffian vector and explicit exterior signs, not from
    excitation coordinates.  With ``sample`` set, checks that many random
    (even R, odd Y) pairs instead of all of them.
    """
    a = require_skew(a)
    n = a.shape[0]
    psi = lab.psi if lab is not None else pfaffian_vector(a)
    _, pops, _ = _mask_tables(n)
    evens = [int(x) for x in np.flatnonzero(pops % 2 == 0) if x]
    odds = [int(x) for x in np.flatnonzero(pops % 2 == 1)]
    pairs = [(r, y) for r in evens for y in odds]
    if sample is not None and sample < len(pairs):
        rng = rng or SplitMix64(0)
        pairs = [pairs[rng.randrange(len(pairs))] for _ in range(sample)]
    worst = 0.0
    for r, y in pairs:
        total = 0.0
        for i in range(n):
            if not (r >> i) & 1:
                continue
            rest = r ^ (1 << i)
            sigma = (
                ins_sign(i, rest)
                * toggle_sign(1 << i, y ^ (1 << i))
                * toggle_sign(rest, y ^ rest)
            )
            total += sigma * psi[y ^ (1 << i)] * psi[y ^ rest]
        worst = max(worst, abs(total))
    return worst


def square_root_representation_defect(
    a: np.ndarray, trials: int, rng: SplitMix64
) -> float:
    """Max | <f,Pf>_mu - (1/Z) <h_f, P_A h_f> | over random f."""
    table = weight_table(a)
    kernel = exact_kernel(table)
    p_a, even = projection_operator(a, table)
    pos = {int(s): k for k, s in enumerate(even)}
    psi = pfaffian_vector(a)
    worst = 0.0
    for _ in range(trials):
        f = np.array([rng.gauss() for _ in kernel.states])
        lhs = float(np.dot(f * kernel.mu, kernel.p @ f))
        h = np.zeros(len(even))
        for val, s in zip(f, kernel.states):
            h[pos[s]] = val * psi[s]
        rhs = float(h @ p_a @ h) / table.z
        worst = max(worst, abs(lhs - rhs))
    return worst


def check_flat_lsi(
    a: np.ndarray, trials: int, rng: SplitMix64, tol: float = 1e-9
) -> bool:
    """Necessary-condition test of Ent(f^2) <= n (log n + 2) E_P(f, f).

    Requires a flat weight table (all weights 0 or 1) and n >= 2.  Checks the
    inequality on ``trials`` random functions; not a proof.
    """
    a = require_skew(a)
    n = a.shape[0]
    if n < 2:
        raise ValueError("flat LSI check needs n >= 2")
    table = weight_table(a)
    if not table.is_flat():
        raise ValueError("weights are not all 0/1; flat LSI does not apply")
    kernel = exact_kernel(table)
    const = n * (math.log(n) + 2.0)
    for _ in range(trials):
        f = np.array([rng.gauss() for _ in kernel.states])
        ent = entropy(kernel.mu, f * f)
        en = dirichlet_form(kernel, f)
        if ent > const * en + tol:
            return False
    return True


# -- parity covering ------------------------------------------------------------


def conditional_split(
    table: SubsetWeightTable, i: int
) -> tuple[dict[int, float], dict[int, float]]:
    """Normalized conditional laws given coordinate i absent/present."""
    out0: dict[int, float] = {}
    out1: dict[int, float] = {}
    for s in table.support:
        if (s >> i) & 1:
            out1[s] = float(table.w[s])
        else:
            out0[s] = float(table.w[s])
    t0 = sum(out0.values())
    t1 = sum(out1.values())
    if t0 <= 0.0 or t1 <= 0.0:
        raise ValueError(f"conditioning on coordinate {i} has zero mass")
    return (
        {s: v / t0 for s, v in out0.items()},
        {s: v / t1 for s, v in out1.items()},
    )


def _max_flow(
    sources: dict[int, float],
    sinks: dict[int, float],
    edges: list[tuple[int, int]],
    slack: float = 1e-12,
) -> tuple[float, dict[tuple[int, int], float]]:
    """Edmonds-Karp on doubles: source->left caps, right->sink caps, edges free."""
    nodes = {"s": 0, "t": 1}
    for a in sources:
        nodes[("L", a)] = len(nodes)
    for b in sinks:
        nodes[("R", b)] = len(nodes)
    size = len(nodes)
    cap: list[dict[int, float]] = [dict() for _ in range(size)]

    def add(u: int, v: int, c: float) -> None:
        cap[u][v] = cap[u].get(v, 0.0) + c
        cap[v].setdefault(u, 0.0)

    for a, pa in sources.items():
        add(0, nodes[("L", a)], pa)
    for b, qb in sinks.items():
        add(nodes[("R", b)], 1, qb)
    for a, b in edges:
        add(nodes[("L", a)], nodes[("R", b)], float("inf"))

    flow = 0.0
    while True:
        parent = [-1] * size
        parent[0] = 0
        queue = [0]
        while queue and parent[1] == -1:
            u = queue.pop(0)
            for v, c in cap[u].items():
                if c > slack and parent[v] == -1:
                    parent[v] = u
                    queue.append(v)
        if parent[1] == -1:
            break
        bottleneck = float("inf")
        v = 1
        while v != 0:
            u = parent[v]
            bottleneck = min(bottleneck, cap[u][v])
            v = u
        v = 1
        while v != 0:
            u = parent[v]
            cap[u][v] -= bottleneck
            cap[v][u] = cap[v].get(u, 0.0) + bottleneck
            v = u
        flow += bottleneck
    used: dict[tuple[int, int], float] = {}
    for a, b in edges:
        u, v = nodes[("L", a)], nodes[("R", b)]
        back = cap[v].get(u, 0.0)
        if back > slack:
            used[(a, b)] = back
    return flow, used


def covering_coupling(
    a: np.ndarray, i: int, max_n: int = 16
) -> list[tuple[int, int, float]]:
    """Coupling of the two conditionings of coordinate i at Hamming distance 2.

    Every support pair (S0, S1) has i absent from S0, present in S1, and
    |S0 xor S1| = 2.  Built by max-flow on the bipartite graph whose edges
    join masks differing in one coordinate of the complement of i; a flow
    shortfall beyond tolerance raises TheoremViolationError.
    """
    a = require_skew(a)
    n = a.shape[0]
    if n > max_n:
        raise ValueError(f"dimension {n} above covering cap {max_n}")
    table = weight_table(a)
    p0, p1 = conditional_split(table, i)
    edges = [
        (s0, s1)
        for s0 in p0
        for s1 in p1
        if bin((s0 ^ (s1 ^ (1 << i)))).count("1") == 1
    ]
    flow, used = _max_flow(p0, p1, edges)
    if flow < 1.0 - 1e-9:
        raise TheoremViolationError(
            f"covering max-flow reached {flow}, short of 1"
        )
    out = [(s0, s1, mass) for (s0, s1), mass in used.items()]
    # Rescale the kept masses to sum exactly one.
    total = sum(m for _, _, m in out)
    return [(s0, s1, m / total) for s0, s1, m in out]


def coupling_marginal_defect(
    coupling: list[tuple[int, int, float]],
    a: np.ndarray,
    i: int,
) -> float:
    """Max marginal error of a coupling against the two exact conditionals."""
    table = weight_table(require_skew(a))
    p0, p1 = conditional_split(table, i)
    m0: dict[int, float] = {}
    m1: dict[int, float] = {}
    for s0, s1, mass in coupling:
        m0[s0] = m0.get(s0, 0.0) + mass
        m1[s1] = m1.get(s1, 0.0) + mass
    worst = 0.0
    for s, v in p0.items():
        worst = max(worst, abs(v - m0.get(s, 0.0)))
    for s, v in p1.items():
        worst = max(worst, abs(v - m1.get(s, 0.0)))
    return worst


# -- conditioned Pfaffian vectors -------------------------------------------------


def check_conditioned_vector_identities(
    a: np.ndarray, i: int, rng: SplitMix64, trials: int = 10
) -> dict[str, float]:
    """Deletion identity and one-flip relation between conditioned vectors.

    Verifies iota_h Psi_B = eps_{-Bh} Psi_B for random h supported off i,
    and that the normalized conditioned vectors satisfy Psi_1 = +-c_b Psi_0
    for some unit b, recovered by least squares over {c_j Psi_0 : j != i}.
    Returns the worst defect of each check.
    """
    a = require_skew(a)
    n = a.shape[0]
    b_full = a.copy()
    b_full[i, :] = 0.0
    b_full[:, i] = 0.0
    psi_b = pfaffian_vector(b_full)
    # Restrict to masks without coordinate i (psi_b already vanishes there
    # except the empty-set coordinate, which has no i bit).
    masks = np.arange(1 << n)
    has_i = ((masks >> i) & 1).astype(bool)
    psi_b = np.where(has_i, 0.0, psi_b)

    worst_del = 0.0
    for _ in range(trials):
        h = np.array([rng.gauss() if j != i else 0.0 for j in range(n)])
        lhs = np.zeros(1 << n)
        for j in range(n):
            if h[j] != 0.0:
                lhs += h[j] * apply_delete(n, j, psi_b)
        coeff = -(b_full @ h)
        rhs = np.zeros(1 << n)
        for j in range(n):
            if coeff[j] != 0.0:
                rhs += coeff[j] * apply_insert(n, j, psi_b)
        worst_del = max(worst_del, float(np.linalg.norm(lhs - rhs)))

    psi_a = pfaffian_vector(a)
    iot = apply_delete(n, i, psi_a)
    n0 = float(np.linalg.norm(psi_b))
    n1 = float(np.linalg.norm(iot))
    if n0 <= SUPPORT_TOL or n1 <= SUPPORT_TOL:
        raise ValueError(f"conditioning on coordinate {i} has zero mass")
    psi0 = psi_b / n0
    psi1 = iot / n1
    cols = np.stack(
        [apply_flip(n, j, psi0) for j in range(n) if j != i], axis=1
    )
    sol, *_ = np.linalg.lstsq(cols, psi1, rcond=None)
    resid = float(np.linalg.norm(cols @ sol - psi1))
    return {"deletion_identity": worst_del, "one_flip_residual": resid}


# -- Hurwitz spot check -----------------------------------------------------------


def check_hurwitz_point(a: np.ndarray, z: np.ndarray) -> float:
    """|det(I + A diag(z))| at a point with positive real parts.

    The generating polynomial of a skew-determinantal measure never vanishes
    on the open right half polydisc; returns the modulus (must be > 0).
    """
    a = require_skew(a)
    z = np.asarray(z, dtype=complex)
    if np.any(z.real <= 0):
        raise ValueError("all coordinates must have positive real part")
    val = np.linalg.det(np.eye(a.shape[0]) + a @ np.diag(z))
    return float(abs(val))
