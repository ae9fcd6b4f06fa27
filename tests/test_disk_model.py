"""Disk/ball model: NtD samples, secular equation, eigenvalue solves, FD oracle."""
import itertools
import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from randbc import disk_model as dm
from randbc import specfun
from randbc.disk_model import MaterialParams
from randbc.specfun import PolishResult, ratio_root_count, scan_grid

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
        dm.solve_mode_eigenvalues(0, -0.5, UNIT, (1, 10))


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


def test_fd_oracle_skips_the_static_zero_at_lam_zero():
    # The raw FD function of mode 0 vanishes at lam = 0 (constant static
    # solution); divided by lam it does not, so this root's continuation
    # reaches the root the secular solver reports instead of lam ~ 0.
    zeta, window = 0.4836 + 0.0670j, (0.2, 12.5)
    fd = dm.fd_oracle(0, zeta, BALL, window=window)
    assert len(fd) == 3
    assert min(abs(f - (0.32830 - 1.68657j)) for f in fd) <= 1e-5
    sec = dm.solve_mode_eigenvalues(0, zeta, BALL, window).eigenvalues[:3]
    for s, f in zip(sec, fd):
        assert abs(s - f) / abs(s) <= 1e-4


def test_fd_oracle_short_root_list_is_an_error():
    # two Neumann roots of mode 0 lie in (1, 10)
    assert len(dm.fd_oracle(0, 0.0, UNIT, window=(1.0, 10.0),
                            n_values=2)) == 2
    with pytest.raises(dm.ConvergenceError, match="kept 2 roots"):
        dm.fd_oracle(0, 0.0, UNIT, window=(1.0, 10.0), n_values=3)


def _not_converged(fdf, seed):
    return PolishResult(seed, False, 1.0, 100)


def _moved_too_far(fdf, seed):
    return PolishResult(seed + 0.26 * math.pi, True, 0.0, 1)


def _unmoved(fdf, seed):
    return PolishResult(seed, True, 0.0, 1)


# a spurious root next to a genuine one, as many roots as the certified
# count of the window: both polish to the one Neumann root of the stage's
# grid
_TWO_BRACKETS = SimpleNamespace(roots=[J0P_ZEROS[0], J0P_ZEROS[0] + 0.05],
                                count=2)


def _tracking_spy(monkeypatch):
    # the node count of every tracking grid fd_oracle searches: one
    # real-axis scan per grid
    nodes = []
    scan = dm._fd_real_axis_roots

    def spy(mode, zz, params, m_nodes, *rest):
        nodes.append(m_nodes)
        return scan(mode, zz, params, m_nodes, *rest)

    monkeypatch.setattr(dm, "_fd_real_axis_roots", spy)
    return nodes


@pytest.mark.parametrize("stage,fake,brackets,message", [
    pytest.param(stage, fake, brackets, f"FD {stage}-grid {message}",
                 id=f"{prefix}{check}")
    for stage, source, prefix in (("coarse", "tracking", "coarse-"),
                                  ("fine", "coarse", ""))
    for check, fake, brackets, message in (
        ("not-converged", _not_converged, None,
         "polish from .* did not converge"),
        ("moved-too-far", _moved_too_far, None,
         f"root .* moved from its {source} root .* quarter spacing"),
        ("coincident", None, _TWO_BRACKETS, "roots coincide"))])
def test_fd_oracle_fine_root_checks(monkeypatch, stage, fake, brackets,
                                    message):
    # zeta = 0 has no continuation: complex_root_polish runs only in the
    # two _fd_polish stages, told apart by their stage argument.  fake
    # stands in for the stage under test, which polishes for real in the
    # coincident case.  A coarse-stage failure redoes the tracking search on
    # twice the nodes up to the cap, 1024 // 2, and is raised from there;
    # the fine stage runs once, after the tracking grid of the rule.
    real, real_stage = dm.complex_root_polish, dm._fd_polish

    def fd_polish(params, mode, zeta, m_nodes, seeds, spacing, tol, this,
                  source):
        if this == stage:
            polish = fake or real
        else:
            # the other stage; before the fine stage's coincident case it
            # leaves the two brackets apart
            polish = _unmoved if brackets else real
        monkeypatch.setattr(dm, "complex_root_polish", polish)
        return real_stage(params, mode, zeta, m_nodes, seeds, spacing, tol,
                          this, source)

    nodes = _tracking_spy(monkeypatch)
    monkeypatch.setattr(dm, "_fd_polish", fd_polish)
    if brackets is not None:
        monkeypatch.setattr(dm, "ratio_roots", lambda *args: brackets)
    with pytest.raises(dm.ConvergenceError, match=message):
        dm.fd_oracle(0, 0.0, UNIT, window=(1.0, 10.0), n_values=2)
    want = [dm._tracking_nodes(1024, UNIT, 10.0)]
    while stage == "coarse" and want[-1] < 512:
        want.append(min(512, 2 * want[-1]))
    assert nodes == want


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


def test_lost_root_reported(monkeypatch):
    # Re zeta > 0: of the 4 certified seeds at i Im zeta, one continues out
    # of the window; it is reported as drifted and accounted for, so no
    # root counts as lost.  Continued roots that merge are reported.
    ball = MaterialParams(dim=3)
    res = dm.solve_mode_eigenvalues(0, 1.5 + 1.5j, ball, (1.0, 12.0))
    assert res.expected_count == 4 and len(res.eigenvalues) == 3
    assert len(res.warnings) == 1 and "drifted" in res.warnings[0]
    monkeypatch.setattr(dm, "_dedupe", lambda values, tol: values[1:])
    res = dm.solve_mode_eigenvalues(0, 1.0 + 1.0j, ball, (1.0, 12.0))
    assert res.warnings == [
        "1 of the 4 certified seeds at i Im zeta continued onto another "
        "seed's root: possible lost root"]


def test_stalled_seed_raises(monkeypatch):
    # a seed whose Re-zeta continuation stalls loses its root: exit 3, not
    # a shorter list with a warning
    ball = MaterialParams(dim=3)
    window_roots = dm._window_roots

    def stall_first(*args):
        roots, search, stalled, drifted = window_roots(*args)
        return roots[1:], search, [(roots[0], 0.5)], drifted

    monkeypatch.setattr(dm, "_window_roots", stall_first)
    with pytest.raises(dm.ConvergenceError, match="stalled at Re zeta=0.5"):
        dm.solve_mode_eigenvalues(0, 1.5 + 1.5j, ball, (1.0, 12.0))


def test_continuation_budget_reports_stalled_seed():
    # a derivative 20x too large makes every polish crawl and every Re-zeta
    # step halve without end; each seed must come back stalled after the
    # budget plus at most one polish (1 + 12 * 100 calls)
    params = MaterialParams(a=1.3, b=0.8)
    zeta, window = 2.0 + 1.0j, (0.5, 6.0)
    seeds = dm._real_axis_roots(dm._RadialGrid(0, params, window),
                                dm._secular(params, 1.0j)).roots
    assert len(seeds) == 2
    spacing = math.pi / params.wave_factor
    limit = dm.CONTINUATION_MAX_EVALS + 1 + 12 * 100

    def char_of_zeta(scale):
        def char(zz, lam):
            calls.append(lam)
            assert len(calls) <= limit
            f, d = dm._radial_fdf(0, complex(lam), params,
                                  dm._secular(params, zz))
            return f, scale * d
        return char

    for seed in seeds:
        # a scan stub that hands back this one seed, at i Im zeta
        def scan(zz):
            assert zz == 1.0j
            return SimpleNamespace(roots=[seed])

        calls = []
        roots, search, stalled, drifted = dm._window_roots(
            scan, char_of_zeta(20.0), zeta, window, spacing)
        assert roots == [] and drifted == [] and search.roots == [seed]
        assert [s for s, _ in stalled] == [seed]
        assert len(calls) >= dm.CONTINUATION_MAX_EVALS
        # the exact derivative continues the same seed well inside the budget
        calls = []
        roots, _, stalled, drifted = dm._window_roots(
            scan, char_of_zeta(1.0), zeta, window, spacing)
        assert len(roots) == 1 and not stalled and not drifted
        assert len(calls) < 100


def test_fd_oracle_stalled_continuation_is_an_error(monkeypatch):
    # a polish that never converges stalls every seed of the tracking-grid
    # continuation; the error names them, not a shorter root list
    monkeypatch.setattr(dm, "complex_root_polish",
                        lambda fdf, seed: PolishResult(seed, False, 1.0, 100))
    with pytest.raises(dm.ConvergenceError,
                       match="FD continuation failed") as info:
        dm.fd_oracle(0, 1.0 + 1.0j, UNIT, window=(1.0, 10.0))
    # the seeds: the real roots at i Im zeta on the tracking grid's cap,
    # 1024 // 2 = 512 nodes, where the doubling ends and the error is
    # raised
    seeds = dm._fd_real_axis_roots(0, 1.0j, UNIT, 512,
                                   scan_grid((1.0, 10.0), math.pi),
                                   (1.0, 10.0)).roots
    assert len(seeds) == 3
    for seed in seeds:
        assert f"({seed!r}, " in str(info.value)


def test_underflow_is_a_convergence_error():
    # at a high order and a small argument C(w) and C'(w) both underflow to
    # 0.0; they have no common zero at w > 0, so such a grid point is a
    # failure, not a root of every characteristic function.  Mode 156 is the
    # last mode on (1, 12) without one, and it has no root there.
    with pytest.raises(dm.ConvergenceError, match="mode 157: .* lam = 1,"):
        dm.solve_mode_eigenvalues(157, 5j, UNIT, (1.0, 12.0))
    with pytest.raises(dm.ConvergenceError, match="mode 85: .* lam = 0.01,"):
        dm.solve_mode_eigenvalues(85, 5j, UNIT, (0.01, 12.0))
    with pytest.raises(dm.ConvergenceError, match="mode 156: "):
        dm.solve_mode_eigenvalues(156, 5j, BALL, (1.0, 12.0))
    res = dm.solve_mode_eigenvalues(156, 5j, UNIT, (1.0, 12.0))
    assert res.eigenvalues == [] and res.expected_count == 0
    assert res.warnings == []


def test_interlacing_across_modes():
    # Dirichlet values (poles of the DtN quadratic form) and Neumann values
    # strictly interlace on each mode
    for mode in range(6):
        neu = dm.neumann_eigenvalues(mode, UNIT, (0.2, mode + 18.0))
        diri = dm.dirichlet_eigenvalues(mode, UNIT, (0.2, mode + 18.0))
        merged = sorted([(x, "n") for x in neu] + [(x, "d") for x in diri])
        kinds = "".join(k for _, k in merged)
        assert "nn" not in kinds and "dd" not in kinds, (mode, kinds)


# floats at which the zeta = 0 scan function of mode 1 is exactly 0.0 on
# the unit disk and ball (C'(w) = (1/w) C(w) - C_2(w) rounds to 0 there)
EXACT_NEUMANN_ZEROS = {2: 1.8411837813406595, 3: 2.0815759778181007}


@pytest.mark.parametrize("dim", [2, 3])
def test_certified_count_is_the_root_count(monkeypatch, dim):
    # the certified count reads the grid's C and C' alone, with no
    # scalar-kernel or fdf call, and counts as many roots as the refining
    # scan (neumann_eigenvalues) returns.  The last window starts on an exact
    # zero, so its scan starts on a grid zero, which is a root.
    params = MaterialParams(dim=dim)
    zero = EXACT_NEUMANN_ZEROS[dim]
    windows = [(0.3, 12.0), (1.0, 60.0), (5.5, 31.0), (zero, zero + 20.0)]
    want = {(mode, window): len(dm.neumann_eigenvalues(mode, params, window))
            for mode in range(9) for window in windows}

    def forbidden(*args):
        raise AssertionError("the count made a pointwise call")

    for name in ("bessel_jk", "spherical_jl"):
        monkeypatch.setattr(specfun, name, forbidden)
    monkeypatch.setattr(dm, "_radial_fdf", forbidden)
    for (mode, window), n_roots in want.items():
        grid = dm._RadialGrid(mode, params, window)
        assert _grid_count(grid, dm._secular(params, 0.0)) == n_roots
    monkeypatch.undo()
    roots = dm.neumann_eigenvalues(1, params, windows[-1])
    assert roots[0] == zero and len(roots) >= 6


def _grid_count(grid, pq):
    """ratio_root_count on the scan function's F and C at grid's points."""
    _, fc = dm._radial_scan_functions(grid, pq)
    return ratio_root_count(*fc(grid.lams))


def _mp_zero_count(nu, w_lo, w_hi, derivative=0):
    """The zeros of J_nu (or J_nu') in [w_lo, w_hi), by mpmath."""
    count, n = 0, 1
    while True:
        w = float(mpmath.besseljzero(nu, n, derivative))
        if w >= w_hi:
            return count
        count += w >= w_lo
        n += 1


def _pareto_zeta(rng):
    # |zeta| Pareto (index 1, from 0.01) on both signs of Im zeta
    return complex(0.0, rng.choice([-1.0, 1.0]) * 0.01 / rng.uniform())


@pytest.mark.parametrize("dim", [2, 3])
def test_certified_count_battery(rng, dim):
    # the certified count equals the roots returned for the secular, Neumann
    # and Dirichlet pairs: a and b in [0.5, 2], modes 0-40, windows 0.05 to
    # 45 wide, and windows with an end on an exact zero of the scan.  On the
    # first 30 cases the Dirichlet count (and the disk's Neumann count)
    # also equals mpmath's number of Bessel zeros in the window.
    cases = []
    for _ in range(150):
        params = MaterialParams(a=rng.uniform(0.5, 2.0),
                                b=rng.uniform(0.5, 2.0), dim=dim)
        lo = rng.uniform(0.05, 20.0)
        window = (lo, lo + math.exp(rng.uniform(math.log(0.05),
                                                math.log(45.0))))
        cases.append((int(rng.integers(0, 41)), params, window,
                      _pareto_zeta(rng)))
    zero = EXACT_NEUMANN_ZEROS[dim]
    unit = MaterialParams(dim=dim)
    for window in ((zero, zero + 9.0), (0.5, zero), (zero, 2.0 * zero)):
        cases += [(1, unit, window, 0j), (1, unit, window, _pareto_zeta(rng))]
    counted = 0
    for i, (mode, params, window, zeta) in enumerate(cases):
        grid = dm._RadialGrid(mode, params, window)
        if i < 30:
            nu, w_lo, w_hi = (mode + 0.5 * (dim - 2),
                              *(params.wave_factor * x for x in window))
            assert len(dm.dirichlet_eigenvalues(mode, params, window)) == (
                _mp_zero_count(nu, w_lo, w_hi))
            if dim == 2:
                assert len(dm.neumann_eigenvalues(mode, params, window)) == (
                    _mp_zero_count(nu, w_lo, w_hi, 1))
        res = dm.solve_mode_eigenvalues(mode, zeta, params, window)
        want = _grid_count(grid, dm._secular(params, zeta))
        assert len(res.eigenvalues) == res.expected_count == want
        assert res.warnings == []
        for roots, pq in (
                (dm.neumann_eigenvalues(mode, params, window),
                 dm._secular(params, 0.0)),
                (dm.dirichlet_eigenvalues(mode, params, window),
                 dm._DIRICHLET)):
            assert len(roots) == _grid_count(grid, pq)
            counted += len(roots)
        counted += len(res.eigenvalues)
    assert counted >= 500, counted


def test_two_root_cell_is_split():
    # a cell holds two roots when a zero of C lies in it between them: on
    # a coarse grid, the Neumann roots of mode 0 at j'_{0,1} = j_{1,1} and
    # j'_{0,2} = j_{1,2} share the cell (3, 7.5) with the pole j_{0,2}.
    # Their signs at the cell's ends agree; the subdivision finds both.
    grid = dm._RadialGrid(0, UNIT, (3.0, 8.0))
    grid.lams = [3.0, 7.5, 8.0]
    pq = dm._secular(UNIT, 0.0)
    res = dm._real_axis_roots(grid, pq)
    assert _grid_count(grid, pq) == res.count == 2
    assert [br.lo <= 7.5 for br in res.brackets] == [True, True]
    for got, want in zip(res.roots, (3.8317059702075125, 7.015586669815619)):
        assert abs(got - want) <= 1e-13 * want


def test_certified_count_mismatch_is_a_convergence_error(monkeypatch):
    # at Re zeta = 0 a count that disagrees with the roots found is a
    # failure, never a warning; so is one at a continuation's seed scan,
    # and roots of the scan that merge into one
    count = specfun.ratio_root_count
    monkeypatch.setattr(specfun, "ratio_root_count",
                        lambda fs, cs: count(fs, cs) + 1)
    for zeta in (2.0j, 0.5 + 2.0j):
        with pytest.raises(dm.ConvergenceError, match="certified count"):
            dm.solve_mode_eigenvalues(0, zeta, UNIT, (1.0, 12.0))
    monkeypatch.undo()
    monkeypatch.setattr(dm, "_dedupe", lambda values, tol: values[1:])
    with pytest.raises(dm.ConvergenceError, match="merged into"):
        dm.solve_mode_eigenvalues(0, 2.0j, UNIT, (1.0, 12.0))


def _fd_scan_checked(scan, mode, zz, params, m_nodes, lams, window):
    """scan (_fd_real_axis_roots) checked against the premise of its count:
    from the grid's edge values, D / lam (D the discrete DtN value)
    decreases between consecutive sign changes of u_M, and ratio_root_count
    on F = D u_M + Im zz lam u_M and u_M counts the roots returned."""
    res = scan(mode, zz, params, m_nodes, lams, window)
    um1, u_m, up1 = (e.real for e in dm.fd_radial_edge_batch(
        params.dim, mode, lams, params.a * params.b, m_nodes))
    lam = np.asarray(lams)
    du = (up1 - um1) * (m_nodes / 2.0) / params.a
    ratio = du / (u_m * lam)
    same = np.sign(u_m[:-1]) * np.sign(u_m[1:]) > 0
    assert np.all(ratio[1:][same] < ratio[:-1][same]), (mode, zz, m_nodes)
    f = du + zz.imag * lam * u_m
    assert len(res.roots) == ratio_root_count(f, u_m), (mode, zz, m_nodes)
    return res


@pytest.mark.parametrize("dim", [2, 3])
def test_fd_certified_count_battery(monkeypatch, rng, dim):
    # the FD real-axis scans on fd_oracle's first tracking grid
    # (_tracking_nodes: the phase rule, capped at grid // 2) and default
    # window, with a and b in [0.5, 2] and modes up to 200, at imaginary
    # zeta (Re zeta = 0, the scan at zeta itself, Neumann at zeta = 0);
    # then every scan of fd_oracle at Re zeta > 0, whose seed scan is at
    # i Im zeta
    scans = 0
    for _ in range(30):
        params = MaterialParams(a=rng.uniform(0.5, 2.0),
                                b=rng.uniform(0.5, 2.0), dim=dim)
        mode = int(rng.integers(0, 201))
        grid = int(rng.choice([1000, 1024, 2048]))
        spacing = math.pi / params.wave_factor
        window = (0.2 * spacing, (mode + 16.0) / params.wave_factor)
        nodes = dm._tracking_nodes(grid, params, window[1])
        lams = scan_grid(window, spacing)
        for zeta in (0j, complex(0.0, rng.uniform(-4.0, 4.0))):
            assert _fd_scan_checked(dm._fd_real_axis_roots, mode, zeta,
                                    params, nodes, lams, window).roots
            scans += 1
    seen = []

    def spy(*args, scan=dm._fd_real_axis_roots):
        seen.append(args[1])
        return _fd_scan_checked(scan, *args)

    monkeypatch.setattr(dm, "_fd_real_axis_roots", spy)
    for mode, zeta in ((0, 0.5 + 2.0j), (7, 1.5 - 0.5j), (25, 2.0 + 0.3j)):
        params = MaterialParams(a=1.6, b=0.9, dim=dim)
        assert len(dm.fd_oracle(mode, zeta, params)) == 3
        assert seen[-1] == complex(0.0, zeta.imag)
    assert scans + len(seen) == 63


def test_fd_count_mismatch_is_a_convergence_error(monkeypatch):
    # a certified count that disagrees with the roots of the FD scan is a
    # failure, at Re zeta = 0 and at the continuation's seed scan
    count = specfun.ratio_root_count
    monkeypatch.setattr(specfun, "ratio_root_count",
                        lambda fs, cs: count(fs, cs) + 1)
    for zeta in (2.0j, 0.5 + 2.0j):
        with pytest.raises(dm.ConvergenceError, match="certified count"):
            dm.fd_oracle(0, zeta, UNIT, window=(1.0, 12.0))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("zeta", [0.8j, 0.5 + 1.0j])
def test_mode_solve_evaluates_its_grid_once(monkeypatch, dim, zeta):
    # the real-axis scan (of zeta, or of i Im zeta for the continuation
    # seeds) and its certified count read one batched evaluation of the
    # uniform grid (scan_grid's 16 points on this window) and nothing else
    # batched: no count scan, and no subdivision where no cell holds two
    # roots
    name = "bessel_j_grid" if dim == 2 else "spherical_j_grid"
    kernel = getattr(dm, name)
    sizes = []

    def counted(k, xs):
        sizes.append(len(xs))
        return kernel(k, xs)

    monkeypatch.setattr(dm, name, counted)
    params = MaterialParams(dim=dim)
    for mode in range(4):
        sizes.clear()
        res = dm.solve_mode_eigenvalues(mode, zeta, params, (1.0, 12.0))
        assert res.eigenvalues
        assert sizes == [len(scan_grid((1.0, 12.0), math.pi))], (mode, sizes)


def _scan_roots(route, mode, params, zeta, lams, window):
    # the certified real-axis search of either route on the grid lams: the
    # secular function's, or the FD oracle's on the first tracking grid
    # that fd_oracle's default grid of 1,024 nodes gives
    if route == "bessel":
        grid = dm._RadialGrid(mode, params, window)
        grid.lams = lams
        return dm._real_axis_roots(grid, dm._secular(params, zeta)).roots
    nodes = dm._tracking_nodes(1024, params, window[1])
    return dm._fd_real_axis_roots(mode, zeta, params, nodes, lams,
                                  window).roots


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("route, stride", [("bessel", 6), ("fd", 26)])
def test_certified_scan_coarse_against_fine(route, stride, dim):
    # scan_grid's 4 cells per root spacing find the roots a 1,024-cell grid
    # of the same window finds, within 1e-13 relative (wider brackets move
    # a root within the kernels' rounding): on a window from 0.25 mode + 1
    # (where C does not underflow) to mode + 30, and on windows of one
    # cell, one off the roots and one around the lowest root, for modes
    # 0-156
    params = MaterialParams(dim=dim)
    spacing = math.pi / params.wave_factor
    for mode, zeta in itertools.product(range(0, 157, stride),
                                        (0.0, 0.8j, 5.0j)):
        wide = (0.25 * mode + 1.0, mode + 30.0)
        lowest = _scan_roots(route, mode, params, zeta,
                             scan_grid(wide, spacing), wide)[:1]
        windows = [wide, (mode + 2.0, mode + 2.7)]
        windows += [(r - 0.35, r + 0.35) for r in lowest]
        assert [len(scan_grid(w, spacing)) for w in windows[1:]] == (
            [2] * len(windows[1:]))
        for window in windows:
            coarse = _scan_roots(route, mode, params, zeta,
                                 scan_grid(window, spacing), window)
            fine = _scan_roots(route, mode, params, zeta,
                               [window[0] + (window[1] - window[0]) * i / 1024
                                for i in range(1025)], window)
            assert len(coarse) == len(fine), (mode, zeta, window)
            for a, b in zip(coarse, fine):
                assert abs(a - b) <= 1e-13 * b, (mode, zeta, window)


@pytest.mark.parametrize("dim", [2, 3])
def test_real_axis_search_evaluates_in_floats(monkeypatch, dim):
    # at Re zeta = 0 the refinement's steps and the residual column pass the
    # scalar kernels a float: a complex argument would give the same bits
    # on the slower complex path, so only this count would see it
    args = []
    for name in ("bessel_jk", "spherical_jl"):
        def counted(k, x, kernel=getattr(specfun, name)):
            args.append(x)
            return kernel(k, x)

        monkeypatch.setattr(specfun, name, counted)
    for params in (MaterialParams(dim=dim), MaterialParams(1.6, 0.9, dim)):
        for mode, zeta in itertools.product(range(4), (0.0, 2.0j, -1.5j)):
            res = dm.solve_mode_eigenvalues(mode, zeta, params, (1.0, 12.0))
            rows = dm.eigenvalue_rows(res)
            assert rows and res.method == "bracketed", (mode, zeta)
    assert len(args) > 100
    assert not [x for x in args if isinstance(x, complex)]


def test_strict_dissipation_for_positive_re_zeta(rng):
    # Re zeta >= 0.1 pushes every eigenvalue strictly below the real axis
    for _ in range(15):
        mode = int(rng.integers(0, 6))
        zeta = complex(rng.uniform(0.1, 3.0), rng.uniform(-2.0, 2.0))
        res = dm.solve_mode_eigenvalues(mode, zeta, UNIT, (0.5, mode + 11.0))
        assert res.eigenvalues
        for ev in res.eigenvalues:
            assert ev.imag <= -1e-6, (mode, zeta, ev)


@pytest.mark.parametrize("dim", [2, 3])
def test_continuation_roots_at_rounding_level(rng, dim):
    # complex_root_polish ends with a Newton step from the derivative it
    # holds, so each continued secular root lies at rounding level, not
    # anywhere inside the polish tolerance (|F| <= 1e-10 |F'| max(1, |lam|),
    # which the roots reached without that step).  The bound is 1e-12
    # because where the J_k series branch (|w| <= 12) loses digits, roots
    # at rounding level read up to 2e-13, and a further Newton step moves
    # them by noise.
    worst, roots = 0.0, 0
    for _ in range(12):
        params = MaterialParams(a=rng.uniform(0.5, 2.0),
                                b=rng.uniform(0.5, 2.0), dim=dim)
        mode = int(rng.integers(0, 30))
        zeta = complex(rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0))
        window = (0.2 * math.pi / params.wave_factor,
                  (mode + 16.0) / params.wave_factor)
        res = dm.solve_mode_eigenvalues(mode, zeta, params, window)
        assert res.method == "continuation"
        for lam in res.eigenvalues:
            f, d = dm._radial_fdf(mode, lam, params, dm._secular(params, zeta))
            worst = max(worst, abs(f) / (abs(d) * max(1.0, abs(lam))))
            roots += 1
    assert roots >= 40, roots
    assert worst <= 1e-12, worst


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


def test_fd_grid_scan_batched_equals_pointwise(monkeypatch):
    # fd_oracle's real-axis scans evaluate every list through the
    # lam-batched shooting kernel; with the scalar kernel point by point in
    # its place they return the same roots, brackets and evaluation counts.
    # The coarse grids' first cell holds two roots (around j_{0,2} on the
    # disk, 2 pi on the ball), so one scan per dim also evaluates a
    # subdivision list.
    cases = []
    for dim, coarse in ((2, [3.0, 7.5, 8.0]), (3, [4.0, 8.0, 8.5])):
        params = MaterialParams(a=1.3, b=0.8, dim=dim)
        window = (0.2 * math.pi / params.wave_factor,
                  16.0 / params.wave_factor)
        lams = scan_grid(window, math.pi / params.wave_factor)
        cases += [(0, 0.0, params, 128, lams, window),
                  (3, 1.5j, params, 128, lams, window),
                  (0, 0.0, MaterialParams(dim=dim), 128, coarse,
                   (coarse[0], coarse[-1]))]

    def pointwise(dim, mode, lams, ab, n_grid):
        edges = [dm.fd_radial_edge(dim, mode, lam, ab, n_grid)[0]
                 for lam in lams]
        return tuple(np.array(part, dtype=complex) for part in zip(*edges))

    results = []
    for kernel in (dm.fd_radial_edge_batch, pointwise):
        monkeypatch.setattr(dm, "fd_radial_edge_batch", kernel)
        results.append([dm._fd_real_axis_roots(*case) for case in cases])
    for batched, scalar in zip(*results):
        assert batched.roots and batched.roots == scalar.roots
        assert batched.brackets == scalar.brackets
        assert batched.n_evals == scalar.n_evals
    for i in (2, 5):
        assert results[0][i].n_evals > 3 + 15


# float.hex of both parts of _radial_fdf, (dim, mode, lam, zeta) -> "re im"
# of F and of dF/dlam at a = 1.3, b = 0.8: the values of the secular
# expression sqrt(b/a) C' - (i zeta) C (zeta = 0: Neumann) and of C itself
# (None: Dirichlet), so the (p, q) form must keep their order of operations
CHAR_PINS = {
    (2, 0, 3.7, 0.0): (
        "-0x1.30a42ae11d803p-6 0x0.0p+0",
        "0x1.4e853e3c0b424p-2 0x0.0p+0"),
    (2, 0, 3.7, 2.5j): (
        "-0x1.061577c07ba6bp+0 0x0.0p+0",
        "0x1.10a3e58651443p-2 0x0.0p+0"),
    (2, 0, 3.7, (0.8+1.2j)): (
        "-0x1.008d096b296cap-1 0x1.495fe01ad600ep-2",
        "0x1.30d16592e52ebp-2 0x1.3cd3b1b6eb7b1p-6"),
    (2, 0, 3.7, None): (
        "-0x1.9bb7d8218b811p-2 0x0.0p+0",
        "-0x1.8c089e24a659dp-6 0x0.0p+0"),
    (2, 0, (3.7-0.4j), 0.0): (
        "-0x1.a5ba4dff1b6dap-7 -0x1.119b32f21c8eep-3",
        "0x1.65164d2598db0p-2 0x1.dd051bbfd7e05p-6"),
    (2, 0, (3.7-0.4j), 2.5j): (
        "-0x1.1a9aedbcab75cp+0 -0x1.ca4b049dfa874p-4",
        "0x1.3a416139b011ep-2 -0x1.9ecbe10d70ea3p-2"),
    (2, 0, (3.7-0.4j), (0.8+1.2j)): (
        "-0x1.0f2bb5c52f99dp-1 0x1.cec4e74970884p-3",
        "0x1.848159dd90b23p-3 -0x1.53c933bca6d2bp-3"),
    (2, 0, (3.7-0.4j), None): (
        "-0x1.bee58e9aaecb0p-2 0x1.1c8ad0e0c847ep-7",
        "-0x1.121f7f7f6b6dap-6 -0x1.63b028a125202p-3"),
    (2, 3, 3.7, 0.0): (
        "0x1.0def7fb01011ep-4 0x0.0p+0",
        "-0x1.1f1d66088b759p-3 -0x0.0p+0"),
    (2, 3, 3.7, 2.5j): (
        "0x1.1b02c04887163p+0 0x0.0p+0",
        "0x1.2f0f92eb1d4efp-4 0x0.0p+0"),
    (2, 3, 3.7, (0.8+1.2j)): (
        "0x1.213c72cfca686p-1 -0x1.54a8ae77b5dd9p-2",
        "-0x1.3242ad9676947p-5 -0x1.18bba383e7c0bp-4"),
    (2, 3, 3.7, None): (
        "0x1.a9d2da15a354fp-2 0x0.0p+0",
        "0x1.5eea8c64e1b0dp-4 0x0.0p+0"),
    (2, 3, (3.7-0.4j), 0.0): (
        "0x1.2df3ac4b41c86p-4 0x1.d4596caf4eda8p-5",
        "-0x1.300143cac0110p-3 0x1.452fef8837317p-5"),
    (2, 3, (3.7-0.4j), 2.5j): (
        "0x1.266f1014c2771p+0 -0x1.050e94acf8b80p-5",
        "0x1.7555685f15a93p-4 0x1.cdd4a4307dddep-3"),
    (2, 3, (3.7-0.4j), (0.8+1.2j)): (
        "0x1.1fb1fa9c18693p-1 -0x1.51f09bdb370cfp-2",
        "0x1.aa4e7bf67b687p-6 0x1.abc0991be1b25p-5"),
    (2, 3, (3.7-0.4j), None): (
        "0x1.b8e62219b090ep-2 -0x1.23c333be83076p-5",
        "0x1.8889932ea2514p-4 0x1.306d5371f3414p-4"),
    (3, 0, 3.7, 0.0): (
        "-0x1.14fc86b0f29a5p-3 0x0.0p+0",
        "0x1.96202b0deee30p-3 0x0.0p+0"),
    (3, 0, 3.7, 2.5j): (
        "-0x1.0d8fc8b319b1fp-1 0x0.0p+0",
        "-0x1.ee148ab125928p-3 0x0.0p+0"),
    (3, 0, 3.7, (0.8+1.2j)): (
        "-0x1.4acbb07dc8625p-2 0x1.00673c31bec6fp-3",
        "-0x1.9f921f1a00db8p-7 0x1.2010ddffb4a07p-3"),
    (3, 0, 3.7, None): (
        "-0x1.40810b3e2e78ap-3 0x0.0p+0",
        "-0x1.6815157fa1c89p-3 0x0.0p+0"),
    (3, 0, (3.7-0.4j), 0.0): (
        "-0x1.173347f5c0a77p-3 -0x1.4b46a3f954da9p-4",
        "0x1.ae21c0610881cp-3 -0x1.5d10fa0e9fb74p-8"),
    (3, 0, (3.7-0.4j), 2.5j): (
        "-0x1.28c5925e01fb5p-1 0x1.86d18f9db5867p-4",
        "-0x1.dd44e97da99e6p-3 -0x1.129da922cf706p-2"),
    (3, 0, (3.7-0.4j), (0.8+1.2j)): (
        "-0x1.2bb9b4b1e65cbp-2 0x1.2a303fff5a644p-3",
        "-0x1.635e47baddc12p-4 0x1.510950b5dfbbfp-7"),
    (3, 0, (3.7-0.4j), None): (
        "-0x1.6b279a341c825p-3 0x1.20d67b09375a0p-4",
        "-0x1.6af5dd8c47401p-3 -0x1.aea8a1f754b5bp-4"),
    (3, 3, 3.7, 0.0): (
        "0x1.9af58a54ee784p-5 0x0.0p+0",
        "-0x1.bd3d257de72cfp-5 -0x0.0p+0"),
    (3, 3, 3.7, 2.5j): (
        "0x1.2ef0fb51664c2p-1 0x0.0p+0",
        "0x1.bd306e0b0fecep-4 0x0.0p+0"),
    (3, 3, 3.7, (0.8+1.2j)): (
        "0x1.3d8938fa106d0p-2 -0x1.62e35f9498d2cp-3",
        "0x1.87b6fe3623ea2p-6 -0x1.ab65c310a616bp-5"),
    (3, 3, 3.7, None): (
        "0x1.bb9c3779bf076p-3 0x0.0p+0",
        "0x1.0b1f99ea67ce3p-4 0x0.0p+0"),
    (3, 3, (3.7-0.4j), 0.0): (
        "0x1.bc750b526329ap-5 0x1.69f4e3530a486p-6",
        "-0x1.d2f3dbae100a4p-5 0x1.536d9b2b9900cp-6"),
    (3, 3, (3.7-0.4j), 2.5j): (
        "0x1.38541a3abc4bap-1 -0x1.6fb521eca4001p-5",
        "0x1.e8c4448ed91e7p-4 0x1.7af25f7e5e9b0p-4"),
    (3, 3, (3.7-0.4j), (0.8+1.2j)): (
        "0x1.32c7154aef52cp-2 -0x1.80d25885d46aap-3",
        "0x1.9e9e3b8d00a3ep-5 -0x1.463fb0877226bp-10"),
    (3, 3, (3.7-0.4j), None): (
        "0x1.c747a8d5bcf4cp-3 -0x1.b6f2dc7820e9cp-6",
        "0x1.20e5adc25a0e4p-4 0x1.d68b27858d5e2p-6"),
}


def _hex_equal(z, pin):
    # every nonzero part by its float.hex; a zero part may change sign
    return all(x.hex() == h or x == 0.0 == float.fromhex(h)
               for x, h in zip((z.real, z.imag), pin.split()))


def test_characteristic_pairs_bits_pinned():
    for (dim, mode, lam, zeta), (f_pin, d_pin) in CHAR_PINS.items():
        params = MaterialParams(a=1.3, b=0.8, dim=dim)
        pq = dm._DIRICHLET if zeta is None else dm._secular(params, zeta)
        f, d = dm._radial_fdf(mode, complex(lam), params, pq)
        assert _hex_equal(f, f_pin), (dim, mode, lam, zeta)
        assert _hex_equal(d, d_pin), (dim, mode, lam, zeta)
        if zeta is not None:
            sv = dm.secular_value(mode, zeta, lam, params)
            assert _hex_equal(sv, f_pin), (dim, mode, lam, zeta)


def test_windows_reaching_lam_zero_are_model_errors():
    # every scan reads C and C' at w > 0 or divides by lam, so a window
    # with lo <= 0 is refused before any scan: no false underflow error at
    # w = 0 (mode 2), no ZeroDivisionError, and no scan of mode 1, where
    # C'(0) != 0 lets one run through lam = 0
    calls = [(dm.neumann_eigenvalues, 2), (dm.dirichlet_eigenvalues, 2),
             (dm.neumann_eigenvalues, 1)]
    for window in ((0.0, 10.0), (-5.0, 10.0)):
        for solve, mode in calls:
            with pytest.raises(dm.DiskModelError, match="0 < lo < hi"):
                solve(mode, UNIT, window)
        for mode in (0, 1):
            with pytest.raises(dm.DiskModelError, match="0 < lo < hi"):
                dm.fd_oracle(mode, 0.5j, UNIT, window=window)


# float.hex of (Re, Im) of each eigenvalue.  SOLVE_PINS: solve_mode_eigenvalues
# on window (0.5, 12) with a = 1.3, b = 0.8.  At zeta = 2.5i they come from
# the commit before the exact derivatives and the Newton refiner, whose
# bisection-plus-polish roots they pin; at zeta = 0.8 + 1.2i, from the
# continuation whose polish ends with a Newton step from the derivative it
# holds.  FD_PINS: fd_oracle on the unit disk and ball with its default grid
# and window, from the oracle that continues on the tracking grid and
# polishes each root once on the coarse and once on the fine grid, each
# polish followed by one Newton step.
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
        ('0x1.e1d43271ef7cbp+0', '-0x1.3e1d6430681acp-2'),
        ('0x1.3cfceb6de7c15p+2', '-0x1.1373b14dceeabp-2'),
        ('0x1.00fc9558e71e4p+3', '-0x1.0a99028f8446dp-2'),
        ('0x1.6385d64c1b808p+3', '-0x1.06cbb53c352ffp-2'),
    )),
    ('circle', (0.8+1.2j), 3, (
        ('0x1.7323aaa6e2ee5p+2', '-0x1.1cf058d82c0a8p-2'),
        ('0x1.23c370a6820a5p+3', '-0x1.0dfdae7b82c12p-2'),
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
        ('0x1.4b89e8f0a6723p+1', '-0x1.6719004bc814fp-2'),
        ('0x1.6c317a0e8c104p+2', '-0x1.265b32910c22fp-2'),
        ('0x1.18f0b3e0c683bp+3', '-0x1.16abd243d22bbp-2'),
        ('0x1.7ba6e3d71c343p+3', '-0x1.0fa77d321b3cap-2'),
    )),
    ('sphere', (0.8+1.2j), 3, (
        ('0x1.98b38e7c7fb86p+2', '-0x1.310154dbe06dcp-2'),
        ('0x1.38226c5558dcep+3', '-0x1.1a3862f539210p-2'),
    )),
)
FD_PINS = (
    (2, 2, (1.5+0.5j), (
        ('0x1.3990c93b68f0dp+2', '-0x1.56ad7fd96f2d7p-1'),
        ('0x1.04e2963c40ac5p+3', '-0x1.5412f2f259751p-1'),
        ('0x1.6b0a0753fbf20p+3', '-0x1.51825f308ac1bp-1'),
    )),
    (3, 1, (0.7+1.1j), (
        ('0x1.e381bc6e473c5p+1', '-0x1.a57529d8d2a45p-2'),
        ('0x1.c2f48bcdc5598p+2', '-0x1.5bf4bf83170d8p-2'),
        ('0x1.47af29964878dp+3', '-0x1.483fe16b9447bp-2'),
    )),
)


def _unhex(pins):
    return [complex(float.fromhex(re_), float.fromhex(im_)) for re_, im_ in pins]


def test_refiner_golden_pins():
    # Root refinement may move eigenvalue bits in the last places only.  The
    # secular roots hold 1e-12 relative.  The FD oracle's are held to 1e-11:
    # the pinned FD roots sit up to 6e-13 (relative) from the tightly
    # polished discrete Richardson roots they approximate, but at small lam,
    # where the shooting recurrence loses digits, the oracle and that
    # reference differ by up to 2.3e-11 (the worst case of
    # test_fd_oracle_tight_root_battery).
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


def _tight_fd_root(params, mode, zeta, m_nodes, z):
    """Newton steps on the FD characteristic function of m_nodes nodes from
    z until a step no longer shrinks: the discrete root to rounding level."""
    step = math.inf
    for _ in range(100):
        f, d = dm._fd_fdf(params, mode, m_nodes, zeta, z)
        delta = f / d
        if not abs(delta) < step:
            return z
        z, step = z - delta, abs(delta)
    raise AssertionError(f"Newton steps from {z} did not stall")


def _assert_tight_fd_roots(params, mode, zeta, grid, window):
    """fd_oracle's 3 roots lie within 1e-10 (relative) of the discrete
    Richardson roots: the roots of both grids polished until the Newton
    step stalls, then (4 fine - coarse) / 3."""
    got = dm.fd_oracle(mode, zeta, params, grid=grid, window=window)
    assert len(got) == 3, (mode, zeta, grid)
    for g in got:
        coarse, fine = (_tight_fd_root(params, mode, zeta, m_nodes, g)
                        for m_nodes in (grid // 2, grid))
        tight = (4.0 * fine - coarse) / 3.0
        assert abs(g - tight) <= 1e-10 * abs(tight), (mode, zeta, grid, g)


@pytest.mark.parametrize("a,b", ((1.0, 1.0), (1.3, 0.8), (0.5, 2.0)))
@pytest.mark.parametrize("dim", (2, 3))
def test_fd_oracle_tight_root_battery(dim, a, b):
    # grid = 1000 is the smallest allowed; the tracking grids of modes 0,
    # 10 and 30 have 32, 52 and 102 nodes.  At mode 200 the window reaches
    # w = 240, where 3 roots lie (the default ends at w = 216, after the
    # first), and the phase rule's 1,212 nodes are capped at grid // 2.
    params = MaterialParams(a=a, b=b, dim=dim)
    cases = itertools.product((0, 10, 30, 200), (1.5j, 1.5 + 0.5j),
                              (1000, 2048))
    for mode, zeta, grid in cases:
        window = None
        if mode == 200:
            window = (0.2 * math.pi / params.wave_factor,
                      240.0 / params.wave_factor)
        _assert_tight_fd_roots(params, mode, zeta, grid, window)


@pytest.mark.parametrize("zeta", (1.5j, 1.5 + 0.5j))
def test_fd_oracle_tracking_grid_resolves_wide_windows(zeta):
    # window ends at w = 160 and 260 on the 1000-node grid: the phase rule
    # asks for 660 and 1,366 nodes (at 125 the coarse roots of mode 100
    # moved more than a quarter spacing from the tracked ones), so both
    # tracking grids are at the cap, the 500-node coarse grid, where the
    # tracked roots are coarse roots already (polished again, the real-axis
    # ones did not converge)
    for mode, hi in ((100, 160.0), (200, 260.0)):
        _assert_tight_fd_roots(UNIT, mode, zeta, 1000, (0.2 * math.pi, hi))


def test_fd_oracle_phase_rule_resolves_high_wavenumbers(monkeypatch):
    # mode 0 with a = b = 100 on a window ending at w = 110.74: half a
    # radian per node step needs 222 nodes, but the FD phase error,
    # about w^3 h^2 / 24, then moves the coarse roots more than a quarter
    # spacing from the tracked ones.  The phase term gives 380 nodes, and
    # the first tracking grid resolves the window.
    nodes = _tracking_spy(monkeypatch)
    params, window = MaterialParams(a=100.0, b=100.0), (1.0, 1.1074)
    fd = dm.fd_oracle(0, 0j, params, grid=2048, window=window)
    assert nodes == [dm._tracking_nodes(2048, params, window[1])] == [380]
    sec = dm.solve_mode_eigenvalues(0, 0j, params, window).eigenvalues
    assert len(fd) == 3 and len(sec) >= 3
    for s, f in zip(sec, fd):
        assert abs(s - f) / abs(s) <= 1e-4


def test_fd_oracle_doubles_the_tracking_grid_for_lost_branches(monkeypatch):
    # The CLI's spot check of mode 4 at zeta = 1 on the circle (config
    # window (1, 10)): on 40 and 80 nodes a continued root reaches
    # Im lam < -13 and its coarse polish lands on another root, and on 160
    # the coarse polish of a root that has left the window (near
    # 0 - 17.3i) moves by more than a quarter spacing.  Each failure redoes
    # the search on twice the nodes; 320 resolves it.
    nodes = _tracking_spy(monkeypatch)
    zeta = 1.0 + 0j
    low = dm.solve_mode_eigenvalues(4, zeta, UNIT, (1.0, 10.0)).eigenvalues
    window = dm.oracle_window(4, UNIT, 1.0, low[-1].real)
    fd = dm.fd_oracle(4, zeta, UNIT, grid=2048, window=window,
                      n_values=len(low))
    first = dm._tracking_nodes(2048, UNIT, window[1])
    assert nodes == [first, 2 * first, 4 * first, 8 * first] == [
        40, 80, 160, 320]
    assert len(fd) == len(low) == 1
    for s, f in zip(low, fd):
        assert abs(s - f) / abs(s) <= 1e-4
