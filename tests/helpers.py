"""Independent oracles used by the test suite.

Everything here is written against first principles rather than the library
internals: raw Haar moments come from haar_probability_moment below, a sum
over permutations of operator traces (checked against explicit integrals in
test_operators), centered moments follow by inclusion-exclusion, and the
series terms are contracted directly from tensors, without the grouped
closed forms used by the package.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations

import numpy as np

from qttf import measurement_matrices


def random_density(dim: int, rng) -> np.ndarray:
    """A full-rank density matrix from a Ginibre draw."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho += 0.05 * np.eye(dim)  # keep eigenvalues away from 0
    return rho / np.trace(rho).real


def _cycle_decomposition(perm):
    n = len(perm)
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = []
        pos = start
        while not seen[pos]:
            seen[pos] = True
            cyc.append(pos)
            pos = perm[pos]
        cycles.append(cyc)
    return cycles


def haar_probability_moment(indices, pom) -> float:
    """Exact pure-state Haar average E[p_{j1} * ... * p_{jn}] for n <= 4.

    Averaging the n-fold tensor power of a Haar pure state projects onto the
    symmetric subspace, so the moment is a sum over permutations: each
    permutation contributes the product, over its cycles, of the trace of the
    cycle-ordered product of outcome operators, and the total is divided by
    dim * (dim+1) * ... * (dim+n-1).
    """
    idx = [int(j) for j in indices]
    n = len(idx)
    if not 1 <= n <= 4:
        raise ValueError(f"moment order must be between 1 and 4, got {n}")
    outcomes = pom.outcomes
    n_outcomes = outcomes.shape[0]
    for j in idx:
        if not 0 <= j < n_outcomes:
            raise IndexError(f"outcome index {j} out of range for {n_outcomes} outcomes")
    mats = [outcomes[j] for j in idx]
    total = 0.0 + 0.0j
    for perm in permutations(range(n)):
        contrib = 1.0 + 0.0j
        for cyc in _cycle_decomposition(perm):
            prod = mats[cyc[0]]
            for pos in cyc[1:]:
                prod = prod @ mats[pos]
            contrib *= np.trace(prod)
        total += contrib
    denom = 1.0
    for k in range(n):
        denom *= pom.dim + k
    value = total / denom
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise ArithmeticError(f"moment has non-negligible imaginary part {value.imag}")
    return float(value.real)


def _raw_moment_table(pom, n: int) -> np.ndarray:
    """E[p_{j1} ... p_{jn}] for every index tuple, by haar_probability_moment.

    A moment is a product of commuting probabilities, so it is evaluated once
    per multiset of indices and copied to every ordering of that multiset.
    """
    m = pom.n_outcomes
    table = np.zeros((m,) * n)
    for indices in combinations_with_replacement(range(m), n):
        value = haar_probability_moment(indices, pom)
        for ordering in set(permutations(indices)):
            table[ordering] = value
    return table


class MomentOracle:
    """Centered Haar moments E[prod (p_j - pbar_j)] up to fourth order.

    Raw moments are tabulated with haar_probability_moment; the centered
    tensors come from the inclusion-exclusion expansion.  Intended for small
    outcome counts (cost grows like M**4 / 24 moment evaluations).
    """

    def __init__(self, pom):
        self.pom = pom
        m = pom.n_outcomes
        self.p_bar = np.array([haar_probability_moment([j], pom) for j in range(m)])
        self.raw2 = _raw_moment_table(pom, 2)
        self.raw3 = _raw_moment_table(pom, 3)
        self.raw4 = _raw_moment_table(pom, 4)

    def centered2(self) -> np.ndarray:
        return _centered2(self.p_bar, self.raw2)

    def centered3(self) -> np.ndarray:
        return _centered3(self.p_bar, self.raw2, self.raw3)

    def centered4(self) -> np.ndarray:
        p = self.p_bar
        out = self.raw4.copy()
        out -= np.einsum("a,bcd->abcd", p, self.raw3)
        out -= np.einsum("b,acd->abcd", p, self.raw3)
        out -= np.einsum("c,abd->abcd", p, self.raw3)
        out -= np.einsum("d,abc->abcd", p, self.raw3)
        out += np.einsum("a,b,cd->abcd", p, p, self.raw2)
        out += np.einsum("a,c,bd->abcd", p, p, self.raw2)
        out += np.einsum("a,d,bc->abcd", p, p, self.raw2)
        out += np.einsum("b,c,ad->abcd", p, p, self.raw2)
        out += np.einsum("b,d,ac->abcd", p, p, self.raw2)
        out += np.einsum("c,d,ab->abcd", p, p, self.raw2)
        out -= 3 * np.einsum("a,b,c,d->abcd", p, p, p, p)
        return out


def _centered2(p, raw2) -> np.ndarray:
    return raw2 - np.einsum("a,b->ab", p, p)


def _centered3(p, raw2, raw3) -> np.ndarray:
    out = raw3.copy()
    out -= np.einsum("a,bc->abc", p, raw2)
    out -= np.einsum("b,ac->abc", p, raw2)
    out -= np.einsum("c,ab->abc", p, raw2)
    out += 2 * np.einsum("a,b,c->abc", p, p, p)
    return out


def centered_moments_23(pom) -> tuple[np.ndarray, np.ndarray]:
    """Centered Haar moments E[d_a d_b] and E[d_a d_b d_c], d = p - pbar, as whole tables.

    The n = 2 and n = 3 permutation sums of haar_probability_moment, written
    for all outcome indices at once.  With t_a = Tr Pi_a, g_ab = Tr(Pi_a Pi_b)
    and h_abc = Re Tr(Pi_a Pi_b Pi_c) (the two 3-cycles add up to 2 h_abc),

        E[p_a p_b] = (t_a t_b + g_ab) / (D(D+1)),
        E[p_a p_b p_c] = (t_a t_b t_c + t_a g_bc + t_b g_ac + t_c g_ab + 2 h_abc)
                         / (D(D+1)(D+2)),

    centered by the same inclusion-exclusion as MomentOracle.  Vectorised, so
    it serves outcome counts where MomentOracle's entrywise tables are too slow.
    """
    dim, ops = pom.dim, pom.outcomes
    t = np.einsum("aii->a", ops).real
    pairs = np.einsum("aij,bjk->abik", ops, ops)
    g = np.einsum("abii->ab", pairs).real
    h = np.einsum("abij,cji->abc", pairs, ops).real
    raw2 = (np.einsum("a,b->ab", t, t) + g) / (dim * (dim + 1))
    raw3 = (
        np.einsum("a,b,c->abc", t, t, t)
        + np.einsum("a,bc->abc", t, g)
        + np.einsum("b,ac->abc", t, g)
        + np.einsum("c,ab->abc", t, g)
        + 2 * h
    ) / (dim * (dim + 1) * (dim + 2))
    p = t / dim
    return _centered2(p, raw2), _centered3(p, raw2, raw3)


def oracle_series_terms(pom, basis) -> tuple[float, float, float]:
    """F2, F3, F4 contracted directly from centered-moment tensors.

    F_k = E[Tr(X d (Y d)^(k-1))] with d = diag(p - pbar); writing the trace
    out index by index gives plain tensor contractions against the centered
    moments, with no regrouping or Gram-tensor shortcuts.
    """
    oracle = MomentOracle(pom)
    aux = measurement_matrices(pom, basis)
    x, y = aux.x_matrix, aux.y_matrix
    f2 = float(np.einsum("ab,ba,ab->", x, y, oracle.centered2()))
    f3 = float(np.einsum("ab,bc,ca,abc->", x, y, y, oracle.centered3()))
    f4 = float(np.einsum("ab,bc,cd,da,abcd->", x, y, y, y, oracle.centered4()))
    return f2, f3, f4


def identity_rhs(pom, basis, probs: np.ndarray, alpha: float, max_order=None) -> float:
    """Right side of the scaled inverse-trace identity at one probability vector.

    (1/alpha) [Tr Fbar^{-1} + Tr(X Delta (1 - Y Delta)^{-1})] with
    Delta = alpha * diag(p) - diag(pbar).  With max_order=None the resolvent
    is evaluated exactly (the identity then reproduces Tr F(rho)^{-1} for any
    alpha); an integer truncates the expansion at that total power of Delta.
    """
    aux = measurement_matrices(pom, basis)
    x, y = aux.x_matrix, aux.y_matrix
    delta = alpha * probs - aux.p_bar
    xd = x * delta[None, :]  # X Delta
    yd = y * delta[None, :]  # Y Delta
    if max_order is None:
        resolvent = np.linalg.solve(np.eye(pom.n_outcomes) - yd, np.eye(pom.n_outcomes))
        correction = float(np.trace(xd @ resolvent))
    else:
        correction = 0.0
        term = xd
        for _ in range(max_order):
            correction += float(np.trace(term))
            term = term @ yd
    return (aux.tr_fbar_inv + correction) / alpha


def mc_truncated_identity(pom, basis, alpha, max_order, n_samples, rng):
    """Haar-average the truncated identity sample by sample.

    Returns (mean, stderr); the mean estimates the same quantity as
    qttf_series(pom, basis, alpha, max_order) but through the raw expansion
    rather than the analytic moment formulas.
    """
    dim = pom.dim
    values = np.empty(n_samples)
    for s in range(n_samples):
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vec /= np.linalg.norm(vec)
        probs = np.einsum("i,mij,j->m", vec.conj(), pom.outcomes, vec).real
        values[s] = identity_rhs(pom, basis, probs, alpha, max_order)
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(n_samples))


def rank_one_overlap_moment(dim: int, power: float) -> float:
    """E[x**power] for x = |<phi|psi>|**2, phi a unit vector and psi a Haar
    pure state in dimension dim, by Gauss-Legendre quadrature.

    x has the Beta(1, dim-1) density (dim-1) (1-x)**(dim-2) on [0, 1].  After
    x = u**2 the integrand 2 (dim-1) u**(2 power + 1) (1-u**2)**(dim-2) is a
    polynomial of degree 2 power + 2 dim - 3 whenever 2 power is an integer
    >= -1, so a rule with ceil(power) + dim nodes on [0, 1] is exact.
    """
    if 2 * power != int(2 * power) or power < -0.5:
        raise ValueError(f"2 * power must be an integer >= -1, got power {power}")
    nodes, weights = np.polynomial.legendre.leggauss(int(np.ceil(power)) + dim)
    u = (nodes + 1) / 2
    integrand = 2 * (dim - 1) * u ** int(2 * power + 1) * (1 - u * u) ** (dim - 2)
    return float(np.sum(weights * integrand) / 2)


def chain_fisher_trace_inverse(pom, basis, probs: np.ndarray) -> float:
    """Tr((C^T diag(p)^{-1} C)^{-1}) assembled without the library helpers."""
    c = measurement_matrices(pom, basis).c_matrix
    fisher = c.T @ np.diag(1.0 / probs) @ c
    return float(np.trace(np.linalg.inv(fisher)))


def mc_series_terms(pom, basis, n_samples: int, rng, chunk: int = 100_000):
    """Monte-Carlo means and stderrs of the order-2..4 series terms at alpha=1.

    Each Haar sample contributes Tr(X Delta (Y Delta)^{k-1}) with
    Delta = diag(p - pbar); the sample means estimate the analytic
    haar_moment_term values.  Each chunk of states forms the (s, M, M) stacks
    X Delta and Y Delta and multiplies them out in a batched matmul chain.
    """
    aux = measurement_matrices(pom, basis)
    x, y = aux.x_matrix, aux.y_matrix
    dim = pom.dim
    parts2, parts3, parts4 = [], [], []
    remaining = n_samples
    while remaining > 0:
        size = min(chunk, remaining)
        remaining -= size
        vecs = rng.normal(size=(size, dim)) + 1j * rng.normal(size=(size, dim))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        probs = np.einsum("si,mij,sj->sm", vecs.conj(), pom.outcomes, vecs).real
        d = (probs - aux.p_bar)[:, None, :]
        xd = x * d  # X Delta per state
        yd = y * d  # Y Delta per state
        chain = xd @ yd
        parts2.append(np.trace(chain, axis1=1, axis2=2))
        chain = chain @ yd
        parts3.append(np.trace(chain, axis1=1, axis2=2))
        parts4.append(np.einsum("sab,sba->s", chain, yd))
    out = []
    for parts in (parts2, parts3, parts4):
        values = np.concatenate(parts)
        out.append((float(values.mean()), float(values.std(ddof=1) / np.sqrt(n_samples))))
    return out
