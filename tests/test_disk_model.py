"""Disk/ball model: NtD samples, secular equation, eigenvalue solves, FD oracle."""
import math

import numpy as np
import pytest

from randbc import disk_model as dm
from randbc.disk_model import MaterialParams
from randbc.specfun import find_real_roots

J0_ZEROS = (2.4048255576957728, 5.5200781102863106)
J0P_ZEROS = (3.8317059702075123, 7.0155866698156188)
J0P_ZERO_BALL = 4.4934094579090642
NTD_MODE0_AT_I = 2.2401937238700897j  # high-precision I0(1)/I1(1) rotation

UNIT = MaterialParams()
BALL = MaterialParams(dim=3)


def test_params_validation():
    with pytest.raises(dm.DiskModelError):
        MaterialParams(a=-1.0)
    with pytest.raises(dm.DiskModelError):
        MaterialParams(dim=4)
    with pytest.raises(dm.DiskModelError):
        dm.ModeProblem(0, -0.5, UNIT)


def test_mode_mu():
    assert dm.mode_mu(UNIT, 3) == 9.0
    assert dm.mode_mu(BALL, 3) == 12.0


def test_ntd_frozen_value_and_herglotz():
    sample = dm.ntd_mode(0, 1j, UNIT)
    assert abs(sample.value - NTD_MODE0_AT_I) <= 1e-12
    assert (1j).imag * sample.value.imag >= 0.0


def test_ntd_conjugate_symmetry(rng):
    for _ in range(200):
        mode = int(rng.integers(0, 41))
        lam = complex(rng.uniform(-8, 8), rng.uniform(0.05, 4.0))
        up = dm.ntd_mode(mode, lam, UNIT).value
        dn = dm.ntd_mode(mode, np.conj(lam), UNIT).value
        assert abs(dn - np.conj(up)) <= 1e-10 * max(1.0, abs(up))


def test_ntd_sign_property_both_halves(rng):
    for _ in range(500):
        mode = int(rng.integers(0, 41))
        lam = complex(rng.uniform(-8, 8), rng.uniform(0.05, 4.0))
        if rng.random() < 0.5:
            lam = np.conj(lam)
        val = dm.ntd_mode(mode, lam, UNIT).value
        assert lam.imag * val.imag >= -1e-12


def test_ntd_dtn_reciprocal_identities(rng):
    # M_DtN(lam) = -(1/lam) m_DtN(lam^2) and M_NtD = -1/M_DtN
    for _ in range(50):
        mode = int(rng.integers(0, 10))
        lam = complex(rng.uniform(0.3, 6), rng.uniform(0.1, 2.0))
        m_dtn_quad = dm.dtn_mode(mode, lam, UNIT)
        big_dtn = -m_dtn_quad / lam
        ntd = dm.ntd_mode(mode, lam, UNIT).value
        assert abs(ntd * big_dtn + 1.0) <= 1e-10
        # m is a function of lam^2: even under lam -> -lam
        assert abs(dm.dtn_mode(mode, -lam, UNIT) - m_dtn_quad) \
            <= 1e-10 * max(1.0, abs(m_dtn_quad))


def test_ntd_pole_reporting():
    lam_dirichlet = J0_ZEROS[0]
    sample = dm.ntd_mode(0, lam_dirichlet, UNIT)
    assert sample.dtn_pole
    assert abs(sample.value) <= 1e-10


def test_ntd_matches_fd_oracle():
    lam = 0.7 + 0.3j
    params = MaterialParams(a=2.0, b=0.5)
    exact = dm.dtn_mode(2, lam, params) / lam  # m(lam^2)/lam = DtN ratio form
    fd = dm.fd_dtn_value(2, lam, params, grid=100_000) / lam
    assert abs(fd - exact) <= 1e-6 * abs(exact)
    ntd = dm.ntd_mode(2, lam, params).value
    assert abs((-1.0 / (-fd)) - ntd) <= 1e-5 * abs(ntd)


def test_secular_neumann_limit():
    res = dm.solve_mode_eigenvalues(0, 0.0, UNIT, (1.0, 10.0))
    assert len(res.eigenvalues) == 2
    for got, want in zip(res.eigenvalues, J0P_ZEROS):
        assert abs(got - want) <= 1e-8


def test_secular_dirichlet_limit():
    roots = dm.solve_mode_eigenvalues(0, 1e6, UNIT, (1.0, 10.0)).eigenvalues
    assert abs(roots[0].real - J0_ZEROS[0]) <= 1e-4
    assert abs(roots[0].imag) <= 1e-4


def test_secular_imaginary_zeta_real_spectrum():
    res = dm.solve_mode_eigenvalues(1, 2.5j, UNIT, (0.5, 12.0))
    assert res.eigenvalues
    for ev in res.eigenvalues:
        assert abs(ev.imag) <= 1e-10


def test_solver_dissipative_strictly_lower(rng):
    res = dm.solve_mode_eigenvalues(0, 1.0, UNIT, (1.0, 10.0))
    assert len(res.eigenvalues) == 2
    for ev in res.eigenvalues:
        assert ev.imag < 0.0


def test_solver_continuity_near_zero_zeta():
    base = dm.solve_mode_eigenvalues(0, 0.0, UNIT, (1.0, 10.0)).eigenvalues
    close = dm.solve_mode_eigenvalues(0, 1e-9, UNIT, (1.0, 10.0)).eigenvalues
    for b, c in zip(base, close):
        assert abs(b - c) <= 1e-6


def test_solver_ball_neumann():
    res = dm.solve_mode_eigenvalues(0, 0.0, BALL, (1.0, 6.0))
    assert any(abs(ev - J0P_ZERO_BALL) <= 1e-8 for ev in res.eigenvalues)


def test_robin_monotonicity_toward_next_dirichlet():
    # c = -i zeta >= 0 increasing: each real eigenvalue leaves its Neumann
    # value and climbs monotonically toward the next Dirichlet value
    j03 = 8.6537279129110122
    prev = list(J0P_ZEROS)
    for c in np.linspace(0.05, 20.0, 20):
        res = dm.solve_mode_eigenvalues(0, 1j * c, UNIT, (3.0, 8.64))
        roots = [ev.real for ev in res.eigenvalues
                 if ev.real > J0P_ZEROS[0] - 0.1]
        assert len(roots) >= 2
        for i, (ceiling, root) in enumerate(zip((J0_ZEROS[1], j03), roots[:2])):
            assert root > prev[i] - 1e-12
            assert root < ceiling
            prev[i] = root
    assert prev[0] > J0P_ZEROS[0] + 0.5  # moved well toward 5.5200
    assert prev[1] > J0P_ZEROS[1] + 0.5


def test_neumann_dirichlet_interlacing():
    neu = dm.neumann_eigenvalues(2, UNIT, (0.5, 20.0))
    diri = dm.dirichlet_eigenvalues(2, UNIT, (0.5, 20.0))
    merged = sorted([(x, "n") for x in neu] + [(x, "d") for x in diri])
    kinds = "".join(k for _, k in merged)
    assert "nn" not in kinds and "dd" not in kinds
    assert kinds.startswith("n")


def test_fd_oracle_neumann_and_dirichlet_limits():
    low = dm.fd_oracle(0, 0.0, UNIT, grid=1024, window=(1.0, 10.0), n_values=2)
    assert abs(low[0].real - J0P_ZEROS[0]) <= 1e-3
    hard = dm.fd_oracle(0, 1e6, UNIT, grid=1024, window=(1.0, 10.0), n_values=1)
    assert abs(hard[0].real - J0_ZEROS[0]) <= 1e-3


def test_fd_oracle_matches_secular_complex_zeta():
    params = MaterialParams(a=1.0, b=1.0)
    zeta = 0.5 + 0.2j
    window = (0.5, 19.0 / params.wave_factor)
    sec = dm.solve_mode_eigenvalues(3, zeta, params, window).eigenvalues[:3]
    fd = dm.fd_oracle(3, zeta, params, grid=2048, n_values=3)
    assert len(sec) >= 3
    for s, f in zip(sec, fd):
        assert abs(s - f) / abs(s) <= 1e-4


def test_fd_oracle_grid_guard():
    with pytest.raises(dm.DiskModelError):
        dm.fd_oracle(0, 0.0, UNIT, grid=512)


def test_cayley_endpoint_values():
    from randbc.impedance import cayley_zeta_to_xi

    mu = 9.0
    assert cayley_zeta_to_xi(math.sqrt(1 + mu), mu) == 0.0
    assert cayley_zeta_to_xi(0.0, mu) == -1.0


def test_route_equivalence_pointwise(rng):
    worst = 0.0
    for _ in range(200):
        mode = int(rng.integers(0, 41))
        zeta = complex(rng.uniform(0, 4), rng.uniform(-4, 4))
        lam = complex(rng.uniform(0.2, 15), rng.uniform(-2, 2))
        worst = max(worst,
                    dm.contraction_route_residual(mode, zeta, lam, UNIT))
    assert worst <= 1e-9


def test_route_equivalence_zero_sets():
    report = dm.route_equivalence_report(1, 2.0 + 1.0j, UNIT, (1.0, 10.0))
    assert report["secular_roots"]
    assert len(report["secular_roots"]) == len(report["contraction_roots"])
    assert report["cross_residual"] <= 1e-9


def test_lost_root_reported():
    # a tight window around a migrating root makes counts differ: reported
    res = dm.solve_mode_eigenvalues(0, 1j * 6.0, UNIT, (3.0, 5.4))
    counted = dm.solve_mode_eigenvalues(0, 0.0, UNIT, (3.0, 5.4))
    if len(res.eigenvalues) != len(counted.eigenvalues):
        assert res.warnings


def test_continuation_budget_reports_stalled_seed():
    # a derivative 20x too large makes every polish crawl and every Re-zeta
    # step halve without end; each seed must come back in failures after
    # the budget plus at most one polish (1 + 12 * 100 calls)
    params = MaterialParams(a=1.3, b=0.8)
    zeta = 2.0 + 1.0j
    seeds = dm._real_axis_roots(
        0, params, lambda lam, v, d: dm._secular(params, 1.0j, v, d),
        (0.5, 6.0)).roots
    assert len(seeds) == 2
    limit = dm.CONTINUATION_MAX_EVALS + 1 + 12 * 100

    def char_of_zeta(scale):
        def char(zz, lam):
            calls.append(lam)
            assert len(calls) <= limit
            f, d = dm._radial_fdf(
                0, complex(lam), params,
                lambda lam, v, d: dm._secular(params, zz, v, d))
            return f, scale * d
        return char

    for seed in seeds:
        calls = []
        roots, failures = dm._continue_in_re_zeta(char_of_zeta(20.0), zeta,
                                                  [seed])
        assert roots == [] and [s for s, _ in failures] == [seed]
        assert len(calls) >= dm.CONTINUATION_MAX_EVALS
        # the exact derivative continues the same seed well inside the budget
        calls = []
        roots, failures = dm._continue_in_re_zeta(char_of_zeta(1.0), zeta,
                                                  [seed])
        assert len(roots) == 1 and not failures
        assert len(calls) < 100


def test_interlacing_across_modes():
    # Dirichlet values (poles of the DtN quadratic form) and Neumann values
    # strictly interlace on each mode
    for mode in range(6):
        neu = dm.neumann_eigenvalues(mode, UNIT, (0.2, mode + 18.0))
        diri = dm.dirichlet_eigenvalues(mode, UNIT, (0.2, mode + 18.0))
        merged = sorted([(x, "n") for x in neu] + [(x, "d") for x in diri])
        kinds = "".join(k for _, k in merged)
        assert "nn" not in kinds and "dd" not in kinds, (mode, kinds)


def test_strict_dissipation_for_positive_re_zeta(rng):
    # Re zeta >= 0.1 pushes every eigenvalue strictly below the real axis
    for _ in range(15):
        mode = int(rng.integers(0, 6))
        zeta = complex(rng.uniform(0.1, 3.0), rng.uniform(-2.0, 2.0))
        res = dm.solve_mode_eigenvalues(mode, zeta, UNIT, (0.5, mode + 11.0))
        assert res.eigenvalues
        for ev in res.eigenvalues:
            assert ev.imag <= -1e-6, (mode, zeta, ev)


def test_fd_char_derivative():
    # the raw FD characteristic function's derivative, assembled from the
    # forward-mode edge derivatives, against a central difference
    for dim in (2, 3):
        params = MaterialParams(a=1.3, b=0.8, dim=dim)
        for mode in (0, 3):
            for zz, lam in ((0.5j, 4.7), (1.5 + 0.5j, 6.2 - 0.4j)):
                _, deriv = dm._fd_fdf(params, mode, 512, zz, lam)
                h = 1e-6 * abs(lam)
                num = (dm._fd_fdf(params, mode, 512, zz, lam + h)[0]
                       - dm._fd_fdf(params, mode, 512, zz, lam - h)[0]) / (2 * h)
                assert abs(num - deriv) <= 1e-6 * abs(deriv), (dim, mode, zz)


def test_fd_grid_scan_batched_equals_pointwise():
    # fd_oracle and the secular solves scan their uniform grids through the
    # batched kernels; the bracketing result must be the one the per-point
    # scan gives
    mode, zeta = 2, 1.5 + 0.5j
    window = (0.2 * math.pi, mode + 16.0)  # fd_oracle's default, a = b = 1
    scans = [(dm._fd_scan_functions(mode, complex(0.0, zeta.imag), UNIT,
                                    m_nodes), window, math.pi, 3)
             for m_nodes in (512, 1024)]
    # secular scans on the disk and the ball, a != b, over all J_k branches:
    # zeta = 0, imaginary zeta and the contraction form
    for dim in (2, 3):
        params = MaterialParams(a=1.3, b=0.8, dim=dim)
        for mode in (0, 3):
            chars = (
                lambda lam, v, d, p=params: dm._secular(p, 0.0, v, d),
                lambda lam, v, d, p=params: dm._secular(p, 2.5j, v, d),
                lambda lam, v, d, p=params, k=mode:
                    dm._contraction(p, k, 0.7j, lam, v, d) / lam)
            for char in chars:
                scans.append((dm._radial_scan_functions(mode, params, char),
                              (0.3, 60.0), math.pi / params.wave_factor, 10))
    for (f, fdf, f_grid), window, spacing, n_roots in scans:
        pointwise = find_real_roots(f, window, min_spacing=spacing, fdf=fdf)
        batched = find_real_roots(f, window, min_spacing=spacing,
                                  f_grid=f_grid, fdf=fdf)
        assert len(pointwise.roots) >= n_roots
        assert batched.roots == pointwise.roots
        assert batched.brackets == pointwise.brackets
        assert batched.suspected_double == pointwise.suspected_double
        assert batched.n_evals == pointwise.n_evals


# float.hex of (Re, Im) of each eigenvalue, from the commit before the exact
# derivatives and the Newton refiner, whose bisection-plus-polish roots these
# pin: solve_mode_eigenvalues on window (0.5, 12) with a = 1.3, b = 0.8, and
# fd_oracle on the unit disk and ball with its default grid and window.
SOLVE_PINS = (
    ('circle', 2.5j, 0, (
        ('0x1.04d8f31199263p+1', '0x0.0p+0'),
        ('0x1.46cb03a3b23f6p+2', '0x0.0p+0'),
        ('0x1.05d4997976e78p+3', '0x0.0p+0'),
        ('0x1.68565bdd81afap+3', '0x0.0p+0'),
    )),
    ('circle', 2.5j, 3, (
        ('0x1.7cb2d2a977f0bp+2', '0x0.0p+0'),
        ('0x1.2890daef52d5bp+3', '0x0.0p+0'),
    )),
    ('circle', (0.8+1.2j), 0, (
        ('0x1.e1d43271eef8fp+0', '-0x1.3e1d64306a1dbp-2'),
        ('0x1.3cfceb6de7c16p+2', '-0x1.1373b14dcee8fp-2'),
        ('0x1.00fc9558e71efp+3', '-0x1.0a99028f843e7p-2'),
        ('0x1.6385d64c1b726p+3', '-0x1.06cbb53c35d38p-2'),
    )),
    ('circle', (0.8+1.2j), 3, (
        ('0x1.7323aaa6e2ee5p+2', '-0x1.1cf058d82c084p-2'),
        ('0x1.23c370a6820d1p+3', '-0x1.0dfdae7b82828p-2'),
    )),
    ('sphere', 2.5j, 0, (
        ('0x1.5faea982c4e23p+1', '0x0.0p+0'),
        ('0x1.763e1552a4f05p+2', '0x0.0p+0'),
        ('0x1.1de069f9d299bp+3', '0x0.0p+0'),
    )),
    ('sphere', 2.5j, 3, (
        ('0x1.a267269c5e61bp+2', '0x0.0p+0'),
        ('0x1.3d02a640de842p+3', '0x0.0p+0'),
    )),
    ('sphere', (0.8+1.2j), 0, (
        ('0x1.4b89e8f09f8a3p+1', '-0x1.6719004c8c26bp-2'),
        ('0x1.6c317a0e8c0e7p+2', '-0x1.265b32910c5c8p-2'),
        ('0x1.18f0b3e0c683cp+3', '-0x1.16abd243d22ddp-2'),
        ('0x1.7ba6e3d71c343p+3', '-0x1.0fa77d321b3d2p-2'),
    )),
    ('sphere', (0.8+1.2j), 3, (
        ('0x1.98b38e7c7fb6dp+2', '-0x1.310154dbe0836p-2'),
        ('0x1.38226c5558dcep+3', '-0x1.1a3862f539221p-2'),
    )),
)
FD_PINS = (
    (2, 2, (1.5+0.5j), (
        ('0x1.3990c93b688c8p+2', '-0x1.56ad7fd96eb54p-1'),
        ('0x1.04e2963c36d81p+3', '-0x1.5412f2f34a99fp-1'),
        ('0x1.6b0a0753fc204p+3', '-0x1.51825f308aebdp-1'),
    )),
    (3, 1, (0.7+1.1j), (
        ('0x1.e381bc6e464d9p+1', '-0x1.a57529d8d1749p-2'),
        ('0x1.c2f48bcdc553cp+2', '-0x1.5bf4bf831880bp-2'),
        ('0x1.47af29964893ep+3', '-0x1.483fe16b9423bp-2'),
    )),
)


def _unhex(pins):
    return [complex(float.fromhex(re_), float.fromhex(im_)) for re_, im_ in pins]


def test_refiner_golden_pins():
    # Root refinement may move eigenvalue bits in the last places only.  The
    # secular roots hold 1e-12 relative.  The FD oracle's are held to 1e-11:
    # complex_root_polish stops at |f| <= 1e-10 |f'| |lam|, and the pinned
    # FD roots sit up to 1.5e-11 (relative) from the discrete roots they
    # approximate, so any change of the Newton iterates moves them by more
    # than the secular roots move (1.45e-12 measured for mode 2).
    for boundary, zeta, mode, pins in SOLVE_PINS:
        params = MaterialParams(a=1.3, b=0.8, dim=2 if boundary == "circle"
                                else 3)
        got = dm.solve_mode_eigenvalues(mode, zeta, params,
                                        (0.5, 12.0)).eigenvalues
        want = _unhex(pins)
        assert len(got) == len(want), (boundary, zeta, mode)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * abs(w), (boundary, zeta, mode)
    for dim, mode, zeta, pins in FD_PINS:
        got = dm.fd_oracle(mode, zeta, MaterialParams(dim=dim))
        want = _unhex(pins)
        assert len(got) == len(want), (dim, mode, zeta)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-11 * abs(w), (dim, mode, zeta)
