"""Finite-dimensional boundary-triple laboratory.

A discrete 1-D second-difference chain on nodes 0..n+1 carries an exact Green
identity with two boundary maps, so every abstract statement about
m-dissipative extensions parametrized by 2x2 contractions can be checked to
rounding: dissipativity with the sharp resolvent bound, the Weyl function's
Nevanlinna properties, the Krein resolvent formula, and rank laws for
resolvent differences.

Extensions are realized on the interior coordinates (nodes 1..n): the
boundary condition is two equations in the two boundary values f_0, f_{n+1},
so they are slaved to the interior by a 2x2 solve.  The extension's matrix is
then the interior rows of A* acting on the slaved vectors, which makes the
numerical range exactly lower-half-plane and the Krein formula an algebraic
identity rather than an approximation.
"""
import functools
from dataclasses import dataclass

import numpy as np

CONTRACTION_TOL = 1e-12
UNITARY_TOL = 1e-10
RANK_REL_TOL = 1e-8
SLAVING_REL_TOL = 1e-12


class LabError(Exception):
    pass


class SpectralPointError(LabError):
    """z sits (numerically) in the spectrum of the reference extension."""


class ConstraintKernelError(LabError):
    """Constraint kernel dimension is not N - m: corrupted model."""


class DegenerateRepresentationError(LabError):
    """Boundary slaving is singular; the extension has no interior matrix."""


@dataclass
class TripleModel:
    """Discrete symmetric chain with exact boundary maps.

    astar acts on C^{n+2} (boundary rows zero), gamma0/gamma1 are the 2x(n+2)
    trace maps, metric is the Hermitian weight of the inner product (identity
    unless a test installs something else).
    """
    n: int
    h: float
    astar: np.ndarray
    gamma0: np.ndarray
    gamma1: np.ndarray
    metric: np.ndarray
    potential: np.ndarray

    @property
    def total_dim(self):
        return self.n + 2

    @property
    def boundary_dim(self):
        return 2

    def interior_projector(self):
        p = np.zeros((self.n, self.total_dim))
        p[:, 1:self.n + 1] = np.eye(self.n)
        return p


def build_discrete_triple(n, h=0.1, potential=None) -> TripleModel:
    """Second-difference chain on n+2 nodes with machine-exact Green identity.

    gamma0 f = (f_0, f_{n+1}); gamma1 f = ((f_1-f_0)/h^2, (f_n-f_{n+1})/h^2),
    the one-sided co-normal differences with signs making (M2) exact.
    """
    if n < 4:
        raise LabError(f"n={n} too small: Green identity construction degenerate")
    if not h > 0:
        raise LabError(f"grid spacing must be positive, got {h}")
    if potential is None:
        potential = np.zeros(n)
    potential = np.asarray(potential, dtype=float)
    if potential.shape != (n,):
        raise LabError(f"potential must have shape ({n},)")
    big_n = n + 2
    astar = np.zeros((big_n, big_n), dtype=complex)
    inv_h2 = 1.0 / (h * h)
    for j in range(1, n + 1):
        astar[j, j - 1] += -inv_h2
        astar[j, j] += 2.0 * inv_h2 + potential[j - 1]
        astar[j, j + 1] += -inv_h2
    g0 = np.zeros((2, big_n), dtype=complex)
    g1 = np.zeros((2, big_n), dtype=complex)
    g0[0, 0] = 1.0
    g0[1, big_n - 1] = 1.0
    g1[0, 0], g1[0, 1] = -inv_h2, inv_h2
    g1[1, big_n - 2], g1[1, big_n - 1] = inv_h2, -inv_h2
    return TripleModel(n=n, h=h, astar=astar, gamma0=g0, gamma1=g1,
                       metric=np.eye(big_n), potential=potential)


def green_form(model: TripleModel, f, g):
    """(A*f|g) - (f|A*g) and its boundary-side counterpart."""
    gm = model.metric
    lhs = np.vdot(gm @ g, model.astar @ f) - np.vdot(gm @ (model.astar @ g), f)
    rhs = (np.vdot(model.gamma0 @ g, model.gamma1 @ f)
           - np.vdot(model.gamma1 @ g, model.gamma0 @ f))
    return lhs, rhs


def green_residual(model: TripleModel, f, g) -> float:
    lhs, rhs = green_form(model, f, g)
    return abs(lhs - rhs)


def boundary_map_rank(model: TripleModel) -> int:
    stacked = np.vstack([model.gamma0, model.gamma1])
    s = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(s > RANK_REL_TOL * s[0]))


def _svd_rank(s, shape):
    """Rank from the singular values s of a matrix of the given shape:
    values up to eps * max(shape) * sigma_max count as zero."""
    return int(np.sum(s > np.finfo(float).eps * max(shape)
                      * (s[0] if s.size else 0.0)))


def null_space(mat):
    """Orthonormal basis of ker mat (columns), from a full SVD."""
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    return vh[_svd_rank(s, mat.shape):].conj().T


def symmetric_core_residual(model: TripleModel) -> float:
    """Max |(A*f|g)-(f|A*g)| over a basis of ker Gamma0 ∩ ker Gamma1."""
    stacked = np.vstack([model.gamma0, model.gamma1])
    core = null_space(stacked)
    worst = 0.0
    for i in range(core.shape[1]):
        for j in range(core.shape[1]):
            lhs, _ = green_form(model, core[:, i], core[:, j])
            worst = max(worst, abs(lhs))
    return worst


@dataclass
class ContractionOp:
    """Square complex matrix with operator norm <= 1."""
    k: np.ndarray

    def __post_init__(self):
        self.k = np.asarray(self.k, dtype=complex)
        if self.k.ndim != 2 or self.k.shape[0] != self.k.shape[1]:
            raise LabError("contraction parameter must be square")
        if self.norm > 1.0 + CONTRACTION_TOL:
            raise LabError(f"||K|| = {self.norm:.15g} exceeds 1")

    @property
    def m(self):
        return self.k.shape[0]

    @property
    def norm(self):
        return float(np.linalg.svd(self.k, compute_uv=False)[0])

    @property
    def is_unitary(self):
        defect = self.k.conj().T @ self.k - np.eye(self.m)
        return bool(np.linalg.norm(defect, 2) <= UNITARY_TOL)


@dataclass
class ExtensionOp:
    """m-dissipative extension determined by a contraction.

    basis spans {f : (K+I) W^-1 Gamma0 f + i (K-I) W* Gamma1 f = 0} in
    interior coordinates: column j has f_j = 1 at interior node j, zero at
    the other interior nodes, and the boundary values the condition slaves
    to it.  t is the matrix of the extension in that basis, acting on
    interior vectors.
    """
    model: TripleModel
    contraction: ContractionOp
    weight: np.ndarray
    basis: np.ndarray
    t: np.ndarray

    def eigenvalues(self):
        return np.linalg.eigvals(self.t)

    def resolvent(self, z):
        """(T - z)^-1 in interior coordinates; for an array of z, the stack
        of (T - z_i)^-1 along its last two axes."""
        return np.linalg.inv(
            self.t - np.multiply.outer(z, np.eye(self.model.n)))

    def boundary_condition_residual(self):
        c = _constraint_matrix(self.model, self.contraction, self.weight)
        return float(np.linalg.norm(c @ self.basis, 2))


def _constraint_matrix(model, contraction, weight):
    k = contraction.k
    eye = np.eye(contraction.m)
    w_inv = np.linalg.inv(weight)
    w_adj = weight.conj().T
    return (k + eye) @ w_inv @ model.gamma0 + 1j * (k - eye) @ w_adj @ model.gamma1


def extension_from_contraction(model: TripleModel, contraction: ContractionOp,
                               weight=None) -> ExtensionOp:
    """Restrict A* to the kernel of C = (K+I)W^-1 Gamma0 + i(K-I)W* Gamma1.

    C f = C_b f_boundary + C_i f_interior with C_b the 2x2 block of the
    boundary nodes 0 and n+1, so the domain is
    f_boundary = -C_b^-1 C_i f_interior.
    """
    if weight is None:
        weight = np.eye(contraction.m, dtype=complex)
    weight = np.asarray(weight, dtype=complex)
    c = _constraint_matrix(model, contraction, weight)
    n, big_n = model.n, model.total_dim
    s = np.linalg.svd(c, compute_uv=False)
    rank = _svd_rank(s, c.shape)
    if rank != model.boundary_dim:
        raise ConstraintKernelError(
            f"constraint kernel dimension {big_n - rank} != N-m = "
            f"{big_n - model.boundary_dim}")
    ends = [0, n + 1]
    c_b = c[:, ends]
    if np.linalg.svd(c_b, compute_uv=False)[-1] <= SLAVING_REL_TOL * s[0]:
        raise DegenerateRepresentationError(
            "boundary slaving singular: interior components of the domain "
            "do not determine it")
    basis = np.zeros((big_n, n), dtype=complex)
    basis[1:n + 1] = np.eye(n)
    basis[ends] = -np.linalg.solve(c_b, c[:, 1:n + 1])
    t = model.astar[1:n + 1] @ basis
    return ExtensionOp(model=model, contraction=contraction, weight=weight,
                       basis=basis, t=t)


def dirichlet_matrix(model: TripleModel):
    """Interior block of A*: the reference extension A*|ker Gamma0."""
    p = model.interior_projector()
    return p @ model.astar @ p.T


def defect_basis(model: TripleModel, z):
    """Basis of ker(A* - z): propagate the interior recurrence from (f0, f1)."""
    n, h = model.n, model.h
    big_n = model.total_dim
    pot = model.potential
    cols = []
    for init in ((1.0, 0.0), (0.0, 1.0)):
        f = np.zeros(big_n, dtype=complex)
        f[0], f[1] = init
        for j in range(1, n + 1):
            f[j + 1] = 2.0 * f[j] - f[j - 1] - h * h * (z - pot[j - 1]) * f[j]
        cols.append(f)
    return np.array(cols).T


def defect_basis_svd(model: TripleModel, z):
    """Independent defect-space computation: SVD nullspace of the interior rows."""
    p = model.interior_projector()
    shoot = p @ model.astar - z * p
    basis = null_space(shoot)
    if basis.shape[1] != model.boundary_dim:
        raise SpectralPointError(
            f"defect dimension {basis.shape[1]} != m = {model.boundary_dim}")
    return basis


@dataclass(frozen=True)
class WeylSample:
    """Weyl function value M_W(z) on the 2-dim boundary space."""
    z: complex
    m: np.ndarray

    def herglotz_defect(self) -> float:
        """Most negative eigenvalue of (Im z) Im M (>= -tol for Nevanlinna)."""
        im_m = (self.m - self.m.conj().T) / 2j
        return float(np.min(np.linalg.eigvalsh(np.imag(self.z) * im_m)))


def weyl_function(model: TripleModel, z, weight=None, _defect=None) -> WeylSample:
    """M_W(z) = (W* Gamma1 F) (W^-1 Gamma0 F)^-1 on a defect basis F."""
    z = complex(z)
    if weight is None:
        weight = np.eye(model.boundary_dim, dtype=complex)
    weight = np.asarray(weight, dtype=complex)
    basis = defect_basis(model, z) if _defect is None else _defect
    if basis.shape[1] != model.boundary_dim:
        raise SpectralPointError(
            f"defect dimension {basis.shape[1]} != m = {model.boundary_dim}")
    g0b = np.linalg.inv(weight) @ (model.gamma0 @ basis)
    g1b = weight.conj().T @ (model.gamma1 @ basis)
    cond = np.linalg.cond(g0b)
    if not np.isfinite(cond) or cond > 1e12:
        raise SpectralPointError(
            f"z={z} is numerically in the spectrum of the Gamma0-reference "
            "extension (Gamma0 restricted to the defect space is singular)")
    return WeylSample(z=z, m=g1b @ np.linalg.inv(g0b))


def _gamma1_interior(model, v):
    full = np.zeros(model.total_dim, dtype=complex)
    full[1:model.n + 1] = v
    return model.gamma1 @ full


@functools.lru_cache(maxsize=None)
def _probe_vectors(n, count, seed=1234):
    """count seeded complex n-vectors, drawn once per (n, count, seed);
    callers must not modify them."""
    rng = np.random.default_rng(seed)
    return tuple(rng.standard_normal(n) + 1j * rng.standard_normal(n)
                 for _ in range(count))


def krein_residual(model: TripleModel, contraction: ContractionOp, z,
                   n_probes=6) -> float:
    """Max relative defect of the Krein resolvent formula over a probe set.

    Left side: ((R0 - RK) psi | phi) with R0 the Gamma0-reference resolvent.
    Right side: ([E0 + E1 M(z)]^-1 E1 Gamma1 R0(z) psi | Gamma1 R0(conj z) phi)
    with E0 = K+I, E1 = i(K-I).
    """
    z = complex(z)
    if z.imag <= 0:
        raise LabError("krein_residual requires z in the upper half-plane")
    n = model.n
    t0 = dirichlet_matrix(model)
    r0 = np.linalg.inv(t0 - z * np.eye(n))
    r0c = np.linalg.inv(t0 - np.conj(z) * np.eye(n))
    ext = extension_from_contraction(model, contraction)
    rk = ext.resolvent(z)
    eye = np.eye(contraction.m)
    e0 = contraction.k + eye
    e1 = 1j * (contraction.k - eye)
    m_val = weyl_function(model, z).m
    gram = e0 + e1 @ m_val
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise SpectralPointError(
            f"E0 + E1 M(z) singular at z={z}: z is in the extension's spectrum")
    core = np.linalg.inv(gram) @ e1
    worst = 0.0
    for psi, phi in zip(_probe_vectors(n, n_probes, seed=2024),
                        _probe_vectors(n, n_probes, seed=4048)):
        lhs = np.vdot(phi, (r0 - rk) @ psi)
        rhs = np.vdot(_gamma1_interior(model, r0c @ phi),
                      core @ _gamma1_interior(model, r0 @ psi))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return worst


def resolvent_difference_rank(model: TripleModel, k1: ContractionOp,
                              k2: ContractionOp, z) -> int:
    """Numerical rank of R(K1) - R(K2); equals rank(K2 - K1) by the rank law."""
    r1 = extension_from_contraction(model, k1).resolvent(z)
    r2 = extension_from_contraction(model, k2).resolvent(z)
    return matrix_rank(r2 - r1)


def matrix_rank(mat, rel_tol=RANK_REL_TOL, abs_floor=1e-13) -> int:
    """Numerical rank: singular values above rel_tol * sigma_max.

    A matrix whose largest singular value sits at rounding scale (everything
    here has O(1) norm: contractions, resolvents bounded by 1/Im z) is zero;
    without the absolute floor its noise spectrum would count as full rank.
    """
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] <= abs_floor:
        return 0
    return int(np.sum(s > rel_tol * s[0]))


def domain_gap(model: TripleModel, k1: ContractionOp, k2: ContractionOp,
               weight=None) -> float:
    """Largest principal angle between the two constraint kernels (radians)."""
    if weight is None:
        weight = np.eye(k1.m, dtype=complex)
    q1 = null_space(_constraint_matrix(model, k1, weight))
    q2 = null_space(_constraint_matrix(model, k2, weight))
    sv = np.linalg.svd(q1.conj().T @ q2, compute_uv=False)
    return float(np.arccos(np.clip(sv.min(), -1.0, 1.0)))


def contraction_from_boundary_relation(theta_basis) -> ContractionOp:
    """Recover K with (K+I)h0 + i(K-I)h1 = 0 from a basis of the relation.

    theta_basis has rows (h0; h1) stacked (2m x m columns).  Used to transport
    a W-weighted parametrization back to the plain one: the extension itself
    depends only on the relation, not on W.
    """
    theta_basis = np.asarray(theta_basis, dtype=complex)
    m = theta_basis.shape[0] // 2
    h0 = theta_basis[:m, :]
    h1 = theta_basis[m:, :]
    plus = h0 + 1j * h1
    minus = h0 - 1j * h1
    if np.linalg.cond(plus) > 1e12:
        raise DegenerateRepresentationError("relation not parametrizable: "
                                            "h0 + i h1 singular")
    return ContractionOp(-minus @ np.linalg.inv(plus))


def boundary_relation_basis(model: TripleModel, ext: ExtensionOp):
    """Orthonormal basis of {(Gamma0 f, Gamma1 f) : f in dom} in C^{2m}."""
    stacked = np.vstack([model.gamma0 @ ext.basis, model.gamma1 @ ext.basis])
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return u[:, :rank]
