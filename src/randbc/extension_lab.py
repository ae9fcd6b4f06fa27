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
    """(A*f|g) - (f|A*g) and its boundary-side counterpart; stacks of f and
    g (vectors along the last axis, broadcast) give arrays."""
    gm = model.metric
    lhs = (_dot(_matvec(gm, g), _matvec(model.astar, f))
           - _dot(_matvec(gm, _matvec(model.astar, g)), f))
    rhs = (_dot(_matvec(model.gamma0, g), _matvec(model.gamma1, f))
           - _dot(_matvec(model.gamma1, g), _matvec(model.gamma0, f)))
    return _item(lhs), _item(rhs)


def green_residual(model: TripleModel, f, g) -> float:
    lhs, rhs = green_form(model, f, g)
    return _item(_abs(lhs - rhs))


def boundary_map_rank(model: TripleModel) -> int:
    stacked = np.vstack([model.gamma0, model.gamma1])
    s = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(s > RANK_REL_TOL * s[0]))


def _item(a):
    """A 0-d result as a Python scalar; a stacked result unchanged."""
    return a.item() if a.ndim == 0 else a


def _svd_rank(s, shape):
    """Rank from the singular values s (last axis) of a matrix of the given
    shape, or of a stack of them: values up to eps * max(shape) * sigma_max
    count as zero."""
    top = s[..., :1] if s.shape[-1] else 0.0
    return np.sum(s > np.finfo(float).eps * max(shape) * top, axis=-1)


def null_space(mat):
    """Orthonormal basis of ker mat (columns), from a full SVD; for a stack
    of matrices whose kernels have one dimension, the stack of bases."""
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    rank = np.ravel(_svd_rank(s, mat.shape[-2:]))
    if np.any(rank != rank[0]):
        raise LabError(f"kernel dimensions differ across the stack: "
                       f"{mat.shape[-1] - rank}")
    return _adjoint(vh[..., rank[0]:, :])


def symmetric_core_residual(model: TripleModel) -> float:
    """Max |(A*f|g)-(f|A*g)| over a basis of ker Gamma0 ∩ ker Gamma1."""
    stacked = np.vstack([model.gamma0, model.gamma1])
    core = null_space(stacked).T
    lhs, _ = green_form(model, core[:, None], core[None, :])
    return max([0.0, *_abs(lhs).ravel().tolist()])


@dataclass
class ContractionOp:
    """Square complex matrix with operator norm <= 1, or a stack of them
    along leading axes; the properties of a stack are arrays over it."""
    k: np.ndarray

    def __post_init__(self):
        self.k = np.asarray(self.k, dtype=complex)
        if self.k.ndim < 2 or self.k.shape[-1] != self.k.shape[-2]:
            raise LabError("contraction parameter must be square")
        norms = np.ravel(self.norm)
        bad = np.flatnonzero(norms > 1.0 + CONTRACTION_TOL)
        if bad.size:
            raise LabError(f"||K|| = {norms[bad[0]]:.15g} exceeds 1")

    @property
    def m(self):
        return self.k.shape[-1]

    @property
    def norm(self):
        return _item(np.linalg.svd(self.k, compute_uv=False)[..., 0])

    @property
    def unitary_defect(self):
        """||K* K - I||."""
        defect = _adjoint(self.k) @ self.k - np.eye(self.m)
        return _item(np.linalg.norm(defect, 2, axis=(-2, -1)))

    @property
    def is_unitary(self):
        return _item(np.asarray(self.unitary_defect) <= UNITARY_TOL)


def _adjoint(a):
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return np.swapaxes(a.conj(), -1, -2)


def _shifted(t, z):
    """t - z, broadcast over a stack of matrices t and an array of z."""
    z = np.asarray(z, dtype=complex)[..., None, None]
    return t - z * np.eye(t.shape[-1])


def _resolvent(t, z):
    """(t - z)^-1, broadcast over a stack of matrices t and an array of z."""
    return np.linalg.inv(_shifted(t, z))


@dataclass
class ExtensionOp:
    """m-dissipative extension determined by a contraction.

    basis spans {f : (K+I) W^-1 Gamma0 f + i (K-I) W* Gamma1 f = 0} in
    interior coordinates: column j has f_j = 1 at interior node j, zero at
    the other interior nodes, and the boundary values the condition slaves
    to it.  t is the matrix of the extension in that basis, acting on
    interior vectors.  A stack carries its leading axes on basis and t.
    """
    model: TripleModel
    contraction: ContractionOp
    weight: np.ndarray
    basis: np.ndarray
    t: np.ndarray

    def eigenvalues(self):
        return np.linalg.eigvals(self.t)

    def resolvent(self, z):
        """(T - z)^-1 in interior coordinates, broadcast over the stack of T
        and an array of z: one z for every T, or one z per T."""
        return _resolvent(self.t, z)

    def resolvent_norm(self, z):
        """||(T - z)^-1|| = 1 / sigma_min(T - z), broadcast as resolvent:
        one SVD of T - z and no inverse."""
        s = np.linalg.svd(_shifted(self.t, z), compute_uv=False)
        return _item(1.0 / s[..., -1])

    def boundary_condition_residual(self):
        c = _constraint_matrix(self.model, self.contraction.k, self.weight)
        return _item(np.linalg.norm(c @ self.basis, 2, axis=(-2, -1)))


def _constraint_matrix(model, k, weight):
    """C = (K+I)W^-1 Gamma0 + i(K-I)W* Gamma1 for K or a stack of K."""
    eye = np.eye(k.shape[-1])
    w_inv = np.linalg.inv(weight)
    w_adj = weight.conj().T
    return (k + eye) @ w_inv @ model.gamma0 + 1j * (k - eye) @ w_adj @ model.gamma1


def extension_from_contraction(model: TripleModel, contraction: ContractionOp,
                               weight=None) -> ExtensionOp:
    """Restrict A* to the kernel of C = (K+I)W^-1 Gamma0 + i(K-I)W* Gamma1.

    C f = C_b f_boundary + C_i f_interior with C_b the 2x2 block of the
    boundary nodes 0 and n+1, so the domain is
    f_boundary = -C_b^-1 C_i f_interior.

    A stack of contractions gives the stack of extensions, each from the
    same LAPACK and BLAS calls as its own single call; the first item that
    fails a check raises.
    """
    if weight is None:
        weight = np.eye(contraction.m, dtype=complex)
    weight = np.asarray(weight, dtype=complex)
    c = _constraint_matrix(model, contraction.k, weight)
    n, big_n = model.n, model.total_dim
    s = np.linalg.svd(c, compute_uv=False)
    rank = np.ravel(_svd_rank(s, c.shape[-2:]))
    bad = np.flatnonzero(rank != model.boundary_dim)
    if bad.size:
        raise ConstraintKernelError(
            f"constraint kernel dimension {big_n - rank[bad[0]]} != N-m = "
            f"{big_n - model.boundary_dim}")
    ends = [0, n + 1]
    c_b = c[..., ends]
    if np.any(np.linalg.svd(c_b, compute_uv=False)[..., -1]
              <= SLAVING_REL_TOL * s[..., 0]):
        raise DegenerateRepresentationError(
            "boundary slaving singular: interior components of the domain "
            "do not determine it")
    basis = np.zeros(c.shape[:-2] + (big_n, n), dtype=complex)
    basis[..., 1:n + 1, :] = np.eye(n)
    basis[..., ends, :] = -np.linalg.solve(c_b, c[..., 1:n + 1])
    t = model.astar[1:n + 1] @ basis
    return ExtensionOp(model=model, contraction=contraction, weight=weight,
                       basis=basis, t=t)


def dirichlet_matrix(model: TripleModel):
    """Interior block of A*: the reference extension A*|ker Gamma0."""
    p = model.interior_projector()
    return p @ model.astar @ p.T


def defect_basis(model: TripleModel, z):
    """Basis of ker(A* - z): propagate the interior recurrence
    f_{j+1} = 2 f_j - f_{j-1} - h^2 (z - V_j) f_j from (f_0, f_1) = (1, 0)
    and (0, 1).  An array of z gives the stack of bases.

    The recurrence runs on float64 real and imaginary parts by the rule of
    the _pykernels docstring: h^2 (z - V_j) scales each part by h^2, and the
    product with f_j is split.  Each item equals the complex scalar
    recurrence bit for bit; numpy's vectorized complex arithmetic need not.
    """
    z = np.asarray(z, dtype=complex)
    n, hh = model.n, model.h * model.h
    a_re = hh * (z.real[..., None] - model.potential)
    a_im = hh * z.imag[..., None]
    # parts of the two columns, column axis before the node axis
    re = np.zeros(z.shape + (2, n + 2))
    im = np.zeros(z.shape + (2, n + 2))
    re[..., 0, 0] = re[..., 1, 1] = 1.0
    for j in range(1, n + 1):
        f_re, f_im = re[..., j], im[..., j]
        ar = a_re[..., j - 1:j]
        re[..., j + 1] = (2.0 * f_re - re[..., j - 1]) - (ar * f_re
                                                          - a_im * f_im)
        im[..., j + 1] = (2.0 * f_im - im[..., j - 1]) - (ar * f_im
                                                          + a_im * f_re)
    basis = np.empty(re.shape, dtype=complex)
    basis.real, basis.imag = re, im
    return np.swapaxes(basis, -1, -2)


@dataclass(frozen=True)
class WeylSample:
    """Weyl function value M_W(z) on the 2-dim boundary space; an array of z
    carries the stack of values."""
    z: complex
    m: np.ndarray

    def herglotz_defect(self) -> float:
        """Most negative eigenvalue of (Im z) Im M (>= -tol for Nevanlinna)."""
        im_m = (self.m - _adjoint(self.m)) / 2j
        im_z = np.imag(np.asarray(self.z))[..., None, None]
        return _item(np.min(np.linalg.eigvalsh(im_z * im_m), axis=-1))


def weyl_function(model: TripleModel, z, weight=None) -> WeylSample:
    """M_W(z) = (W* Gamma1 F) (W^-1 Gamma0 F)^-1 on a defect basis F; an
    array of z gives the stack of values, each from the same LAPACK and
    BLAS calls as its own single call."""
    z = np.asarray(z, dtype=complex)
    if weight is None:
        weight = np.eye(model.boundary_dim, dtype=complex)
    weight = np.asarray(weight, dtype=complex)
    basis = defect_basis(model, z)
    if basis.shape[-1] != model.boundary_dim:
        raise SpectralPointError(
            f"defect dimension {basis.shape[-1]} != m = {model.boundary_dim}")
    g0b = np.linalg.inv(weight) @ (model.gamma0 @ basis)
    g1b = weight.conj().T @ (model.gamma1 @ basis)
    cond = np.ravel(np.linalg.cond(g0b))
    bad = np.flatnonzero(~np.isfinite(cond) | (cond > 1e12))
    if bad.size:
        raise SpectralPointError(
            f"z={z.flat[bad[0]]} is numerically in the spectrum of the "
            "Gamma0-reference extension (Gamma0 restricted to the defect "
            "space is singular)")
    return WeylSample(z=_item(z), m=g1b @ np.linalg.inv(g0b))


def _gamma1_interior(model, v):
    """Gamma1 of the interior vector v (last axis), zero at both ends."""
    full = np.zeros(v.shape[:-1] + (model.total_dim,), dtype=complex)
    full[..., 1:model.n + 1] = v
    return _matvec(model.gamma1, full)


def _matvec(a, v):
    """a @ v for a matrix or stack a and a vector or stack v (last axis)."""
    return (a @ v[..., None])[..., 0]


def _dot(a, b):
    """vdot(a, b) over the last axis, broadcast over stacks of vectors; the
    BLAS dot of conj(a) with b rounds as vdot does."""
    return (a.conj()[..., None, :] @ b[..., None])[..., 0, 0]


def _abs(x):
    """|x| elementwise by hypot, which rounds as abs of one complex scalar
    does; numpy's vectorized complex abs can differ from it in the last bit."""
    return np.hypot(x.real, x.imag)


@functools.lru_cache(maxsize=None)
def _probe_vectors(n, count, seed=1234):
    """count seeded complex n-vectors, drawn once per (n, count, seed);
    callers must not modify them."""
    rng = np.random.default_rng(seed)
    return tuple(rng.standard_normal(n) + 1j * rng.standard_normal(n)
                 for _ in range(count))


def krein_residual(model: TripleModel, contraction: ContractionOp, z) -> float:
    """Max relative defect of the Krein resolvent formula over a probe set.

    Left side: ((R0 - RK) psi | phi) with R0 the Gamma0-reference resolvent.
    Right side: ([E0 + E1 M(z)]^-1 E1 Gamma1 R0(z) psi | Gamma1 R0(conj z) phi)
    with E0 = K+I, E1 = i(K-I).

    A stack of contractions with one z, or with one z per contraction, gives
    the array of their residuals.
    """
    z = np.broadcast_to(np.asarray(z, dtype=complex), contraction.k.shape[:-2])
    if np.any(z.imag <= 0):
        raise LabError("krein_residual requires z in the upper half-plane")
    n = model.n
    t0 = dirichlet_matrix(model)
    r0 = _resolvent(t0, z)
    r0c = _resolvent(t0, z.conj())
    rk = extension_from_contraction(model, contraction).resolvent(z)
    eye = np.eye(contraction.m)
    e0 = contraction.k + eye
    e1 = 1j * (contraction.k - eye)
    gram = e0 + e1 @ weyl_function(model, z).m
    cond = np.ravel(np.linalg.cond(gram))
    bad = np.flatnonzero(~np.isfinite(cond) | (cond > 1e12))
    if bad.size:
        raise SpectralPointError(
            f"E0 + E1 M(z) singular at z={z.flat[bad[0]]}: z is in the "
            "extension's spectrum")
    core = np.linalg.inv(gram) @ e1
    worst = np.zeros(z.shape)
    n_probes = 6
    for psi, phi in zip(_probe_vectors(n, n_probes, seed=2024),
                        _probe_vectors(n, n_probes, seed=4048)):
        lhs = _dot(phi, (r0 - rk) @ psi)
        rhs = _dot(_gamma1_interior(model, r0c @ phi),
                   _matvec(core, _gamma1_interior(model, r0 @ psi)))
        worst = np.fmax(worst, _abs(lhs - rhs) / (1.0 + _abs(lhs)))
    return _item(worst)


def resolvent_difference_rank(model: TripleModel, k1: ContractionOp,
                              k2: ContractionOp, z) -> int:
    """Numerical rank of R(K1) - R(K2); equals rank(K2 - K1) by the rank law.

    Stacks of K1 and K2 with one z, or with one z per pair, give the array
    of ranks."""
    r1 = extension_from_contraction(model, k1).resolvent(z)
    r2 = extension_from_contraction(model, k2).resolvent(z)
    return matrix_rank(r2 - r1)


def matrix_rank(mat) -> int:
    """Numerical rank: singular values above RANK_REL_TOL * sigma_max.

    A matrix whose largest singular value sits at rounding scale (everything
    here has O(1) norm: contractions, resolvents bounded by 1/Im z) is zero;
    without the absolute floor its noise spectrum would count as full rank.
    A stack of matrices gives the array of their ranks.
    """
    s = np.linalg.svd(mat, compute_uv=False)
    if s.shape[-1] == 0:
        return _item(np.zeros(s.shape[:-1], dtype=int))
    top = s[..., :1]
    rank = np.where(top[..., 0] <= 1e-13, 0,
                    np.sum(s > RANK_REL_TOL * top, axis=-1))
    return _item(rank)


def domain_gap(model: TripleModel, k1: ContractionOp, k2: ContractionOp,
               weight=None) -> float:
    """Largest principal angle between the two constraint kernels (radians);
    stacks of K1 and K2 give the array of angles."""
    if weight is None:
        weight = np.eye(k1.m, dtype=complex)
    q1 = null_space(_constraint_matrix(model, k1.k, weight))
    q2 = null_space(_constraint_matrix(model, k2.k, weight))
    sv = np.linalg.svd(_adjoint(q1) @ q2, compute_uv=False)
    return _item(np.arccos(np.clip(sv.min(axis=-1), -1.0, 1.0)))


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
