"""Boundary-triple lab: Green identity, extensions, Weyl function, Krein formula."""
import json
import os

import mpmath
import numpy as np
import pytest

from randbc import extension_lab as lab
from randbc import impedance, labsuite, serialize
from tests.conftest import random_vector


def test_green_identity_exact(rng):
    model = lab.build_discrete_triple(8, h=0.1)
    worst = 0.0
    for _ in range(100):
        f = random_vector(rng, model.total_dim)
        f /= np.linalg.norm(f)
        g = random_vector(rng, model.total_dim)
        g /= np.linalg.norm(g)
        worst = max(worst, lab.green_residual(model, f, g))
    assert worst <= 1e-13


def test_green_form_diagonal_is_imaginary(chain8, rng):
    # f = g: left side is 2i Im(A*f|f)
    for _ in range(20):
        f = random_vector(rng, chain8.total_dim)
        lhs, _ = lab.green_form(chain8, f, f)
        assert abs(lhs.real) <= 1e-12 * max(1.0, abs(lhs))


def test_boundary_map_rank(chain12):
    assert lab.boundary_map_rank(chain12) == 4


def test_symmetric_core(chain12):
    assert lab.symmetric_core_residual(chain12) <= 1e-12


def test_rejects_small_n():
    with pytest.raises(lab.LabError):
        lab.build_discrete_triple(3)


def test_contraction_invariants():
    with pytest.raises(lab.LabError):
        lab.ContractionOp(np.array([[1.5, 0.0], [0.0, 0.2]]))
    k = lab.ContractionOp(np.eye(2) * 1j)
    assert k.is_unitary
    assert not lab.ContractionOp(0.5 * np.eye(2)).is_unitary


def test_extension_k_identity_is_gamma0_kernel(chain8):
    ext = lab.extension_from_contraction(
        chain8, lab.ContractionOp(np.eye(2, dtype=complex)))
    # domain = ker Gamma0: boundary components of every basis column vanish
    assert np.abs(ext.basis[[0, -1], :]).max() <= 1e-12
    t0 = lab.dirichlet_matrix(chain8)
    got = np.sort(ext.eigenvalues().real)
    want = np.sort(np.linalg.eigvalsh(np.real(t0)))
    assert np.allclose(got, want, atol=1e-10)
    assert ext.boundary_condition_residual() <= 1e-10


def test_extension_k_minus_identity_is_gamma1_kernel(chain8):
    ext = lab.extension_from_contraction(
        chain8, lab.ContractionOp(-np.eye(2, dtype=complex)))
    assert np.abs(chain8.gamma1 @ ext.basis).max() <= 1e-10
    # selfadjoint (K = -I is unitary)
    assert np.linalg.norm(ext.t - ext.t.conj().T, 2) <= 1e-10


def test_constraint_kernel_dimension_guard(chain8):
    broken = lab.TripleModel(
        n=chain8.n, h=chain8.h, astar=chain8.astar,
        gamma0=np.zeros_like(chain8.gamma0), gamma1=np.zeros_like(chain8.gamma1),
        metric=chain8.metric, potential=chain8.potential)
    with pytest.raises(lab.ConstraintKernelError):
        lab.extension_from_contraction(
            broken, lab.ContractionOp(np.zeros((2, 2))))


def _critical_scalar(h):
    # K = c I with c = -(1 + i beta)/(1 - i beta), beta = 1/h^2, makes both
    # boundary columns of the constraint matrix vanish: C_b = 0
    beta = 1.0 / (h * h)
    return -(1 + 1j * beta) / (1 - 1j * beta)


@pytest.mark.parametrize("potential", [None, np.linspace(-1.0, 2.0, 8)])
def test_degenerate_slaving_raises(potential):
    model = lab.build_discrete_triple(8, h=0.2, potential=potential)
    c = _critical_scalar(0.2)
    critical = lab.ContractionOp(c * np.eye(2))
    assert critical.is_unitary
    with pytest.raises(lab.DegenerateRepresentationError):
        lab.extension_from_contraction(model, critical)
    # 1e-6 away (scaled to stay a contraction) the slaving is regular again
    near = lab.ContractionOp((1 - 1e-6) * c * np.eye(2)
                             + 1e-6 * np.array([[0.3, 0.2j], [-0.1, 0.4]]))
    ext = lab.extension_from_contraction(model, near)
    assert ext.boundary_condition_residual() <= 1e-10 * np.abs(ext.basis).max()
    assert ext.eigenvalues().imag.max() <= 1e-10


@pytest.mark.parametrize("n", [8, 12, 16])
@pytest.mark.parametrize("potential", [False, True])
def test_stack_slices_equal_single_calls(n, potential):
    # each item of a stacked call is bit for bit the single-K call
    rng = np.random.default_rng(100 + n)
    model = lab.build_discrete_triple(
        n, h=0.2, potential=rng.standard_normal(n) if potential else None)
    # idx % 5 cycles strict (0-2), boundary-norm (3) and Haar unitary (4) K
    cons = [labsuite._sample_contraction(rng, 2, i) for i in range(10)]
    others = [labsuite._sample_contraction(rng, 2, i + 1) for i in range(10)]
    zs = rng.uniform(-2, 2, 10) + 1j * rng.uniform(0.5, 3.0, 10)
    k1, k2 = labsuite._stack(cons), labsuite._stack(others)
    ext = lab.extension_from_contraction(model, k1)
    stacked = {
        "t": ext.t, "basis": ext.basis, "eigenvalues": ext.eigenvalues(),
        "resolvent": ext.resolvent(zs[0]),
        "resolvent_per_z": ext.resolvent(zs),
        "krein": lab.krein_residual(model, k1, zs),
        "krein_one_z": lab.krein_residual(model, k1, zs[0]),
        "rank": lab.resolvent_difference_rank(model, k1, k2, zs),
        "matrix_rank": lab.matrix_rank(k2.k - k1.k),
        "gap": lab.domain_gap(model, k1, k2),
        "norm": k1.norm, "unitary_defect": k1.unitary_defect,
        "is_unitary": k1.is_unitary,
        "bc_residual": ext.boundary_condition_residual(),
        "weyl": lab.weyl_function(model, zs).m,
    }
    for j, (k, k_other, z) in enumerate(zip(cons, others, zs)):
        con, other = lab.ContractionOp(k), lab.ContractionOp(k_other)
        one = lab.extension_from_contraction(model, con)
        single = {
            "t": one.t, "basis": one.basis, "eigenvalues": one.eigenvalues(),
            "resolvent": one.resolvent(zs[0]),
            "resolvent_per_z": one.resolvent(z),
            "krein": lab.krein_residual(model, con, z),
            "krein_one_z": lab.krein_residual(model, con, zs[0]),
            "rank": lab.resolvent_difference_rank(model, con, other, z),
            "matrix_rank": lab.matrix_rank(other.k - con.k),
            "gap": lab.domain_gap(model, con, other),
            "norm": con.norm, "unitary_defect": con.unitary_defect,
            "is_unitary": con.is_unitary,
            "bc_residual": one.boundary_condition_residual(),
            "weyl": lab.weyl_function(model, z).m,
        }
        for name, value in single.items():
            assert np.array_equal(stacked[name][j], value), (name, j)
    assert stacked["is_unitary"].tolist() == [i % 5 == 4 for i in range(10)]
    f = rng.standard_normal((10, n + 2)) + 1j * rng.standard_normal((10, n + 2))
    g = rng.standard_normal((10, n + 2)) + 1j * rng.standard_normal((10, n + 2))
    green = lab.green_residual(model, f, g)
    assert [lab.green_residual(model, a, b) for a, b in zip(f, g)] == \
        green.tolist()


def test_stack_raises_for_a_bad_item():
    model = lab.build_discrete_triple(8, h=0.2)
    good = 0.5 * np.eye(2)
    critical = _critical_scalar(0.2) * np.eye(2)
    stack = lab.ContractionOp(np.array([good, critical, -np.eye(2)]))
    with pytest.raises(lab.DegenerateRepresentationError):
        lab.extension_from_contraction(model, stack)
    with pytest.raises(lab.DegenerateRepresentationError):
        lab.krein_residual(model, stack, 1j)
    with pytest.raises(lab.LabError, match="1.5 exceeds 1"):
        lab.ContractionOp(np.array([good, 1.5 * np.eye(2), 2.0 * np.eye(2)]))
    with pytest.raises(lab.LabError, match="upper half-plane"):
        lab.krein_residual(model, lab.ContractionOp(np.array([good, good])),
                           np.array([1j, -1j]))


@pytest.mark.parametrize("n", [8, 12, 16])
def test_dirichlet_matrix_bits(n):
    # the interior block of A*, from the interior projector as it always was
    model = lab.build_discrete_triple(n, h=0.2,
                                      potential=np.linspace(-1.0, 2.0, n))
    p = model.interior_projector()
    got = lab.dirichlet_matrix(model)
    assert got.tobytes() == (p @ model.astar @ p.T).tobytes()
    assert np.array_equal(got, model.astar[1:n + 1, 1:n + 1])


with open(os.path.join(os.path.dirname(__file__), "data",
                       "extension_golden.json")) as _fh:
    GOLDEN = json.load(_fh)


def _unhex(pairs):
    return np.array([complex(float.fromhex(re), float.fromhex(im))
                     for re, im in pairs])


@pytest.mark.parametrize("case", GOLDEN["cases"],
                         ids=lambda c: f"n{c['n']}-{c['kind']}"
                                       f"{'-pot' if c['potential'] else ''}")
def test_extension_golden_pins(case):
    # values from the earlier construction (orthonormal interior frame from a
    # pivoted QR of the constraint kernel), unitarily similar to this one
    n = case["n"]
    potential = 0.5 * np.cos(1.7 * np.arange(n)) if case["potential"] else None
    model = lab.build_discrete_triple(n, h=GOLDEN["h"], potential=potential)
    k = lab.ContractionOp(_unhex(case["k"]).reshape(2, 2))
    ext = lab.extension_from_contraction(model, k)
    assert np.array_equal(ext.basis[1:n + 1], np.eye(n))
    tol = 1e-12 * float.fromhex(case["t_norm"])
    want = _unhex(case["eigenvalues"])
    got = ext.eigenvalues()
    dist = np.abs(want[:, None] - got[None, :])
    match = dist.argmin(axis=1)
    assert sorted(match) == list(range(n))
    assert dist[np.arange(n), match].max() <= tol
    # ||R(z)|| <= 1/Im z = 1, so a perturbation E of T moves R(z) v by at
    # most ||E|| ||v||
    z = complex(*(float.fromhex(x) for x in GOLDEN["z"]))
    probe = np.exp(1j * np.arange(n))
    got_r = ext.resolvent(z) @ probe
    want_r = _unhex(case["resolvent_probe"])
    assert np.linalg.norm(got_r - want_r) <= tol * np.linalg.norm(probe)


def test_haar_unitary_gives_selfadjoint(chain12, contraction_sampler):
    for _ in range(20):
        con = contraction_sampler(unitary=True)
        ext = lab.extension_from_contraction(chain12, con)
        assert np.linalg.norm(ext.t - ext.t.conj().T, 2) <= 1e-10


def test_dissipativity_and_resolvent_bound(chain12, contraction_sampler):
    for i in range(50):
        con = contraction_sampler(boundary=(i % 3 == 0))
        ext = lab.extension_from_contraction(chain12, con)
        assert ext.eigenvalues().imag.max() <= 1e-10
        for z in (0.5 + 0.3j, 2j, -1.0 + 1.5j):
            nrm = np.linalg.norm(ext.resolvent(z), 2)
            assert nrm <= (1.0 + 1e-8) / z.imag


@pytest.mark.parametrize("n", [8, 12, 16])
def test_resolvent_norm_against_mpmath(n):
    # the lab's resolvent bound, 1 / sigma_min(T - z), on one window of
    # samples of a model (each sample at one point of the lab's z grid, in
    # turn), against a 40-digit SVD of the same T - z
    rng = np.random.default_rng(300 + n)
    model = lab.build_discrete_triple(n, h=0.2,
                                      potential=rng.standard_normal(n))
    ks = [labsuite._sample_contraction(rng, 2, i)
          for i in range(labsuite._LAB_BLOCK)]
    ext = lab.extension_from_contraction(model, labsuite._stack(ks))
    norms = np.array([ext.resolvent_norm(z) for z in labsuite.Z_GRID]).T
    worst = 0.0
    with mpmath.workdps(40):
        for i, t in enumerate(ext.t):
            j = i % len(labsuite.Z_GRID)
            shifted = t - labsuite.Z_GRID[j] * np.eye(n)
            s = mpmath.svd_c(mpmath.matrix(shifted.tolist()),
                             compute_uv=False)
            want = 1 / min(s)
            worst = max(worst, float(abs(norms[i, j] - want) / want))
    assert worst <= 1e-13


@pytest.mark.parametrize("n", [8, 12, 16])
def test_resolvent_bound_certificate_margin(n):
    # one window's stack at each z of the grid: certified below tau only
    # when its largest norm * Im z lies below tau by more than the
    # certificate's margin (about 5e-7 relative)
    rng = np.random.default_rng(400 + n)
    model = lab.build_discrete_triple(n, h=0.2,
                                      potential=rng.standard_normal(n))
    ks = [labsuite._sample_contraction(rng, 2, i)
          for i in range(labsuite._LAB_BLOCK)]
    ext = lab.extension_from_contraction(model, labsuite._stack(ks))
    for z in labsuite.Z_GRID:
        top = float(np.max(ext.resolvent_norm(z))) * z.imag
        assert not ext.resolvent_bound_certified(z, top)
        assert not ext.resolvent_bound_certified(z, top * (1 + 1e-7))
        assert ext.resolvent_bound_certified(z, top * (1 + 1e-4))
        assert not ext.resolvent_bound_certified(z, 0.0)


def test_resolvent_screen_keeps_a_late_violation(monkeypatch):
    # the contraction battery alone, with one item of window 9 (model 0,
    # item 5), where the running worst is near 1, made non-dissipative
    # (T + 0.5i): its resolvent_bound violations, and the whole report, are
    # those of the exact path, where every Cholesky raises
    build = lab.extension_from_contraction
    norm = lab.ExtensionOp.resolvent_norm
    calls, norms = [], []

    def perturbed(model, contraction, weight=None):
        ext = build(model, contraction, weight)
        calls.append(model.n)
        if len(calls) == 3 * 9 + 1:
            ext.t[5] += 0.5j * np.eye(model.n)
        return ext

    def counted(self, z):
        norms.append(z)
        return norm(self, z)

    def run():
        calls.clear()
        norms.clear()
        report = labsuite.run_invariant_suite(
            seed=12345, green_pairs=0, contractions=500, weyl_points=0,
            krein_triples=0, rank_pairs=0, injectivity_pairs=0)
        return report, len(norms)

    def no_cholesky(a):
        raise np.linalg.LinAlgError("screen off")

    monkeypatch.setattr(lab, "extension_from_contraction", perturbed)
    monkeypatch.setattr(lab.ExtensionOp, "resolvent_norm", counted)
    screened, screened_stacks = run()
    monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
    exact, exact_stacks = run()
    assert screened_stacks < 60 and exact_stacks == 330
    assert screened == exact
    bad = [v for v in screened["violations"]
           if v["invariant"] == "resolvent_bound"]
    assert bad and all(v["norm"] * v["z"][1] > 1 for v in bad)


def test_basis_columns_satisfy_boundary_condition(chain12, contraction_sampler):
    for _ in range(10):
        ext = lab.extension_from_contraction(chain12, contraction_sampler())
        assert ext.boundary_condition_residual() <= 1e-10


def test_weyl_nevanlinna_and_conjugate(chain12):
    for z in (2j, 0.5 + 1.5j, -1.2 + 0.3j, 1.0 - 2.0j):
        sample = lab.weyl_function(chain12, z)
        assert sample.herglotz_defect() >= -1e-12
        conj_m = lab.weyl_function(chain12, np.conj(z)).m
        assert np.linalg.norm(conj_m - sample.m.conj().T, 2) <= 1e-10


def defect_basis_svd(model, z):
    """defect_basis' oracle: an SVD nullspace of the interior rows of
    A* - z, independent of the recurrence."""
    p = model.interior_projector()
    basis = lab.null_space(p @ model.astar - z * p)
    assert basis.shape[1] == model.boundary_dim
    return basis


def test_weyl_against_svd_defect_basis(chain8, monkeypatch):
    z = 2j
    direct = lab.weyl_function(chain8, z).m
    svd_basis = defect_basis_svd(chain8, z)
    monkeypatch.setattr(lab, "defect_basis", lambda model, z: svd_basis)
    cross = lab.weyl_function(chain8, z).m
    assert np.linalg.norm(direct - cross, 2) <= 1e-9 * np.linalg.norm(direct, 2)


def test_weyl_spectral_point_reported(chain8):
    t0 = lab.dirichlet_matrix(chain8)
    ev = float(np.linalg.eigvalsh(np.real(t0))[0])
    with pytest.raises(lab.SpectralPointError):
        lab.weyl_function(chain8, ev)


def test_krein_residual_k_identity(chain8):
    res = lab.krein_residual(
        chain8, lab.ContractionOp(np.eye(2, dtype=complex)), 1 + 1j)
    assert res <= 1e-13


def test_krein_residual_random(chain12, contraction_sampler):
    model = lab.build_discrete_triple(12, h=0.2)
    for _ in range(20):
        res = lab.krein_residual(model, contraction_sampler(), 1 + 2j)
        assert res <= 1e-9


def test_krein_unitary_with_resolvent_norms(chain12, contraction_sampler):
    z = 3j
    for _ in range(10):
        con = contraction_sampler(unitary=True)
        assert lab.krein_residual(chain12, con, z) <= 1e-9
        ext = lab.extension_from_contraction(chain12, con)
        assert np.linalg.norm(ext.resolvent(z), 2) <= (1 + 1e-10) / z.imag
        t0 = lab.dirichlet_matrix(chain12)
        r0 = np.linalg.inv(t0 - z * np.eye(chain12.n))
        assert np.linalg.norm(r0, 2) <= (1 + 1e-10) / z.imag


def test_krein_requires_upper_half_plane(chain8):
    with pytest.raises(lab.LabError):
        lab.krein_residual(chain8, lab.ContractionOp(np.zeros((2, 2))), 1 - 1j)


def test_rank_law_examples(chain12, rng):
    k1 = lab.ContractionOp(impedance.random_contraction(2, rng))
    assert lab.resolvent_difference_rank(chain12, k1, k1, 1j) == 0
    # rank-one perturbation staying contractive
    u = random_vector(rng, 2)
    v = random_vector(rng, 2)
    pert = np.outer(u, v.conj())
    pert *= 0.4 * (1 - k1.norm) / np.linalg.norm(pert, 2)
    k2 = lab.ContractionOp(k1.k + pert)
    assert lab.resolvent_difference_rank(chain12, k1, k2, 1j) == 1
    k_id = lab.ContractionOp(np.eye(2, dtype=complex))
    k_neg = lab.ContractionOp(-np.eye(2, dtype=complex))
    assert lab.resolvent_difference_rank(chain12, k_id, k_neg, 1j) == 2


def test_injectivity_gap(chain12, contraction_sampler):
    for _ in range(20):
        k1 = contraction_sampler()
        k2 = contraction_sampler()
        if np.linalg.norm(k1.k - k2.k, 2) < 1e-3:
            continue
        assert lab.domain_gap(chain12, k1, k2) >= 1e-6


def test_weight_invariance_of_weyl_and_extension(chain12, rng):
    # nontrivial diagonal W: M(z) = (W*)^-1 M_W(z) W^-1 is W-independent,
    # and the W-parametrized extension equals the plain one for the
    # transported contraction
    w = np.diag([1.7, 0.4]).astype(complex)
    z = 0.7 + 1.3j
    m_plain = lab.weyl_function(chain12, z).m
    m_w = lab.weyl_function(chain12, z, weight=w).m
    recovered = np.linalg.inv(w.conj().T) @ m_w @ np.linalg.inv(w)
    assert np.linalg.norm(recovered - m_plain, 2) <= 1e-10 * np.linalg.norm(m_plain, 2)

    con = lab.ContractionOp(impedance.random_contraction(2, rng))
    ext_w = lab.extension_from_contraction(chain12, con, weight=w)
    theta = lab.boundary_relation_basis(chain12, ext_w)
    k_plain = lab.contraction_from_boundary_relation(theta)
    assert k_plain.norm <= 1.0 + 1e-10
    ext_plain = lab.extension_from_contraction(chain12, k_plain)
    sv = np.linalg.svd(
        np.linalg.qr(ext_w.basis)[0].conj().T @ np.linalg.qr(ext_plain.basis)[0],
        compute_uv=False)
    # arccos amplifies one-ulp defects near 1; 1e-6 rad is subspace equality
    assert np.arccos(np.clip(sv.min(), -1, 1)) <= 1e-6
    assert np.allclose(np.sort(ext_w.eigenvalues()),
                       np.sort(ext_plain.eigenvalues()), atol=1e-8)


def test_matrix_serialization_roundtrip(tmp_path, rng):
    mat = random_vector(rng, 12).reshape(3, 4)
    path = tmp_path / "mat.txt"
    serialize.save_matrix(path, mat)
    back = serialize.load_matrix(path)
    assert np.array_equal(back, mat)


def test_extension_eigenvalues_match_generalized_pencil(chain12, rng):
    # independent oracle: eigenvalues of the rectangular problem
    # (interior rows of A* - lam I) + the two boundary-condition rows,
    # solved as a generalized pencil
    from scipy.linalg import eig as geig

    n, big_n = chain12.n, chain12.total_dim
    p = chain12.interior_projector()
    for _ in range(10):
        con = lab.ContractionOp(impedance.random_contraction(2, rng))
        ext = lab.extension_from_contraction(chain12, con)
        a_full = np.zeros((big_n, big_n), dtype=complex)
        b_full = np.zeros((big_n, big_n), dtype=complex)
        a_full[1:n + 1, :] = p @ chain12.astar
        b_full[1:n + 1, 1:n + 1] = np.eye(n)
        bc = (con.k + np.eye(2)) @ chain12.gamma0 \
            + 1j * (con.k - np.eye(2)) @ chain12.gamma1
        a_full[0, :] = bc[0]
        a_full[big_n - 1, :] = bc[1]
        vals = geig(a_full, b_full, right=False)
        vals = np.sort_complex(vals[np.isfinite(vals)])
        got = np.sort_complex(ext.eigenvalues())
        assert vals.size == got.size == n
        assert np.max(np.abs(vals - got)) <= 1e-8
