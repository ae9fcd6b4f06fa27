"""Samplers, Cayley transform, admissible directions, compactness proxies."""
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randbc import impedance as imp


def stream(seed=101, sid=0):
    return imp.SeededStream(seed, sid)


def test_point_mass_sequence():
    zs = imp.sample_sequence(imp.PointMass(1j * 0.7), 5, stream())
    assert np.all(zs == 1j * 0.7)


def test_sampler_reproducible_across_instances():
    dist = imp.ParetoImag(2.0, 1.0)
    a = imp.sample_sequence(dist, 1000, stream(7, 3))
    b = imp.sample_sequence(dist, 1000, stream(7, 3))
    c = imp.sample_sequence(dist, 1000, stream(7, 4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_child_streams_disjoint():
    s = stream(11, 0)
    a = imp.sample_sequence(imp.HalfNormalReal(1.0), 100, s.child(0))
    b = imp.sample_sequence(imp.HalfNormalReal(1.0), 100, s.child(1))
    assert not np.array_equal(a, b)
    a2 = imp.sample_sequence(imp.HalfNormalReal(1.0), 100, s.child(0))
    assert np.array_equal(a, a2)


@pytest.mark.parametrize("counter", [0, 1, 7, 312])
def test_rekey_sets_the_counter(counter):
    # one reused Philox, re-keyed with its counter set, continues each
    # stream's generator() after 4 uniforms per counter step; a key word of
    # 2**64 - 1 and a used buffer do not leak into the next stream
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    for s in (stream(3, 0).child(5), imp.SeededStream(2**64 - 1, -1)):
        rng.random(3)
        s.rekey(bitgen, counter)
        want = s.generator().random(4 * counter + 9)[4 * counter:]
        assert rng.random(9).tobytes() == want.tobytes()


def test_pareto_mean_monte_carlo_and_quadrature():
    # analytic mean a s_min / (a-1) = 2.0 for a=2, s_min=1
    dist = imp.ParetoImag(2.0, 1.0)
    zs = imp.sample_sequence(dist, 1_000_000, stream(5))
    assert abs(np.mean(np.abs(zs)) - 2.0) <= 0.01
    assert abs(dist.abs_moment(1.0) - 2.0) <= 1e-14
    # quadrature cross-check of the analytic moment: integrate s f(s) ds
    s_grid = np.geomspace(1.0, 1e8, 400_001)
    dens = 2.0 / s_grid ** 3
    quad = np.trapezoid(s_grid * dens, s_grid)
    assert abs(quad - 2.0) <= 1e-3


def test_pareto_moment_divergence():
    assert math.isinf(imp.ParetoImag(1.0, 1.0).abs_moment(1.0))
    assert abs(imp.ParetoImag(1.5, 1.0).abs_moment(1.0) - 3.0) <= 1e-14
    assert math.isinf(imp.ParetoImag(2.0, 1.0).abs_moment(2.0))


def test_uniform_disc_support_accretive():
    dist = imp.UniformDisc(1.0, 1.0)
    zs = imp.sample_sequence(dist, 10_000, stream(9))
    assert np.all(zs.real >= 0.0)
    assert np.all(np.abs(zs - 1.0) <= 1.0 + 1e-12)
    with pytest.raises(ValueError):
        imp.UniformDisc(1.0, 0.5)


def test_uniform_disc_abs_cdf_against_empirical():
    dist = imp.UniformDisc(1.0, 1.5)
    zs = np.abs(imp.sample_sequence(dist, 200_000, stream(13)))
    for s in (0.8, 1.3, 1.9, 2.4):
        emp = float(np.mean(zs <= s))
        # the law has no atoms: P{|zeta| <= s} = 1 - P{|zeta| >= s}
        assert abs(emp - (1.0 - dist.survival_abs(s))) <= 5e-3


def _disc_survival(r, c):
    # 1 - P{|zeta| <= s}, integrated over the circles |z| = rho: the disc
    # |z - c| <= r (|c| >= r) covers the angle 2 acos((rho^2 + c^2 - r^2)
    # / (2 rho c)) of each
    r, c = mpmath.mpf(r), mpmath.mpf(c)

    def survival(s):
        if s <= c - r:
            return mpmath.mpf(1)
        if s >= c + r:
            return mpmath.mpf(0)
        angle = lambda rho: 2 * rho * mpmath.acos(
            (rho * rho + c * c - r * r) / (2 * rho * c))
        return 1 - mpmath.quad(angle, [c - r, s]) / (mpmath.pi * r * r)
    return survival


def _segment_survival(lo, hi):
    # the length of [lo, hi] outside (-s, s), over hi - lo
    def survival(s):
        outside = max(0, hi - max(s, lo)) + max(0, min(-s, hi) - lo)
        return mpmath.mpf(outside) / (mpmath.mpf(hi) - lo)
    return survival


def _table_survival(s_table, f_table):
    # 1 up to the first point, 1 - F on the linear interpolant after it
    def survival(s):
        if s <= s_table[0]:
            return mpmath.mpf(1)
        if s >= s_table[-1]:
            return 1 - mpmath.mpf(f_table[-1])
        i = int(np.searchsorted(s_table, s)) - 1
        w = (mpmath.mpf(s) - s_table[i]) / (mpmath.mpf(s_table[i + 1])
                                            - s_table[i])
        return 1 - (f_table[i] + w * (mpmath.mpf(f_table[i + 1])
                                      - f_table[i]))
    return survival


# (law, {breakpoint: survival there}, mpmath reference of the survival,
# the end of the tested range); each law's atoms count at their breakpoint
SURVIVAL_LAWS = {
    "point_mass": (imp.PointMass(0.6 + 0.8j), {0.0: 1.0, 1.0: 1.0},
                   lambda s: mpmath.mpf(s <= 1.0), 3.0),
    "point_mass_zero": (imp.PointMass(0.0), {0.0: 1.0},
                        lambda s: mpmath.mpf(s <= 0.0), 1.0),
    "uniform_disc": (imp.UniformDisc(1.0, 1.5), {0.0: 1.0, 0.5: 1.0,
                                                 2.5: 0.0},
                     _disc_survival(1.0, 1.5), 3.0),
    "uniform_disc_at_0": (imp.UniformDisc(1.0, 1.0), {0.0: 1.0, 2.0: 0.0},
                          _disc_survival(1.0, 1.0), 2.5),
    "uniform_disc_off_axis": (imp.UniformDisc(2.0, 3.0 + 1.0j),
                              {0.0: 1.0, abs(3.0 + 1.0j) - 2.0: 1.0,
                               abs(3.0 + 1.0j) + 2.0: 0.0},
                              _disc_survival(2.0, abs(3.0 + 1.0j)), 6.0),
    "uniform_segment": (imp.UniformImagSegment(-1.0, 3.0),
                        {0.0: 1.0, 1.0: 0.5, 3.0: 0.0},
                        _segment_survival(-1.0, 3.0), 4.0),
    "pareto": (imp.ParetoImag(2.5, 1.5), {0.0: 1.0, 1.5: 1.0},
               lambda s: min(1, (mpmath.mpf(1.5) / s) ** 2.5) if s else 1,
               20.0),
    "half_normal": (imp.HalfNormalReal(0.7), {0.0: 1.0},
                    lambda s: mpmath.erfc(s / (0.7 * mpmath.sqrt(2))), 6.0),
    "bounded_custom": (imp.BoundedCustom([0.5, 2.0, 5.0], [0.1, 0.6, 1.0]),
                       {0.0: 1.0, 0.5: 1.0, 2.0: 0.4, 5.0: 0.0},
                       _table_survival([0.5, 2.0, 5.0], [0.1, 0.6, 1.0]), 6.0),
    "bounded_custom_open": (imp.BoundedCustom([0.0, 1.0, 3.0],
                                              [0.0, 0.4, 0.9]),
                            {0.0: 1.0, 1.0: 0.6, 3.0: 1.0 - 0.9},
                            _table_survival([0.0, 1.0, 3.0], [0.0, 0.4, 0.9]),
                            4.0),
}


@pytest.mark.parametrize("name", sorted(SURVIVAL_LAWS))
def test_survival_abs_on_floats_and_arrays(name):
    dist, atoms, reference, top = SURVIVAL_LAWS[name]
    breaks = np.array(sorted(atoms))
    # floats give floats, the atoms included at their breakpoints
    for s, want in atoms.items():
        got = dist.survival_abs(s)
        assert type(got) is float and got == want, s
    # one array call equals the float calls, in the array's shape
    grid = np.unique(np.concatenate([
        np.linspace(0.0, top, 20_001), breaks, np.nextafter(breaks, -1.0),
        np.nextafter(breaks, top)]))
    grid = grid[grid >= 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = dist.survival_abs(grid)
    assert isinstance(values, np.ndarray) and values.shape == grid.shape
    assert np.array_equal(dist.survival_abs(grid[:60].reshape(3, 20)),
                          values[:60].reshape(3, 20))
    assert [dist.survival_abs(s) for s in grid[::400].tolist()] == \
        values[::400].tolist()
    # a survival function: in [0, 1] and nonincreasing
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert np.all(np.diff(values) <= 0.0)
    # also in [0, 1] within 1e-13 relative of each breakpoint, where the
    # disc's 1 - F(s) rounds to multiples of 2^-53 and may step up by one
    near = np.unique(np.outer(1.0 + np.arange(-100, 101) * 1e-15,
                              breaks).ravel())
    values = dist.survival_abs(near)
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert np.all(np.diff(values) <= 2.0 ** -53)
    # against mpmath at 50 points, the breakpoints among them
    points = np.unique(np.concatenate([np.linspace(0.0, top, 46), breaks,
                                       np.nextafter(breaks, top)]))
    with mpmath.workdps(40):
        want = [float(reference(s)) for s in points.tolist()]
    assert np.max(np.abs(dist.survival_abs(points) - want)) <= 1e-15


def test_half_normal_moment():
    dist = imp.HalfNormalReal(1.3)
    # E|X| = sigma sqrt(2/pi)
    assert abs(dist.abs_moment(1.0) - 1.3 * math.sqrt(2 / math.pi)) <= 1e-14
    assert abs(dist.abs_moment(2.0) - 1.3 ** 2) <= 1e-14


def test_bounded_custom_table():
    dist = imp.BoundedCustom([0.0, 1.0, 2.0], [0.0, 0.5, 1.0])
    zs = imp.sample_sequence(dist, 50_000, stream(21))
    assert np.all((zs.real >= 0) & (zs.real <= 2.0))
    assert dist.abs_bound() == 2.0
    partial = imp.BoundedCustom([0.0, 1.0], [0.0, 0.8])
    assert partial.abs_bound() is None


@given(re=st.floats(0.0, 50.0), im=st.floats(-50.0, 50.0),
       mu=st.floats(0.0, 1e6))
@settings(max_examples=300, deadline=None)
def test_cayley_maps_into_closed_disc(re, im, mu):
    xi = imp.cayley_zeta_to_xi(complex(re, im), mu)
    assert abs(xi) <= 1.0 + 1e-12
    if re == 0.0:
        assert abs(abs(xi) - 1.0) <= 1e-12
    # 1 - |xi|^2 = 4 Re(zeta) sqrt(1+mu) / |zeta + sqrt(1+mu)|^2 > 0
    if re >= 1e-6 * max(1.0, abs(complex(re, im))):
        assert abs(xi) < 1.0


@given(r=st.floats(0.0, 0.999), phi=st.floats(0.0, 2 * math.pi),
       mu=st.floats(0.0, 1e4))
@settings(max_examples=300, deadline=None)
def test_cayley_roundtrip(r, phi, mu):
    xi = r * complex(math.cos(phi), math.sin(phi))
    # the inverse Cayley map
    s = math.sqrt(1.0 + mu)
    zeta = s * (1.0 + xi) / (1.0 - xi)
    back = imp.cayley_zeta_to_xi(zeta, mu)
    assert abs(back - xi) <= 1e-10 * max(1.0, abs(xi))


def test_cayley_special_values():
    assert imp.cayley_zeta_to_xi(0.0, 4.0) == -1.0
    assert imp.cayley_zeta_to_xi(math.sqrt(5.0), 4.0) == 0.0
    assert abs(abs(imp.cayley_zeta_to_xi(1j, 0.0)) - 1.0) <= 1e-15
    with pytest.raises(ValueError):
        imp.cayley_zeta_to_xi(-0.5, 1.0)


def test_admissible_projection():
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0
    proj = np.outer(v, v.conj())
    res = imp.admissible_direction_check(proj)
    assert res.admissible
    assert abs(res.c_max - 2.0) <= 1e-6


def test_admissible_offdiagonal_rejected():
    d = np.zeros((3, 3), dtype=complex)
    d[0, 1] = 1.0
    assert not imp.admissible_direction_check(d).admissible


def test_admissible_skew_rejected(rng):
    h = rng.standard_normal((3, 3))
    h = h + h.T
    assert not imp.admissible_direction_check(1j * h).admissible


def test_admissible_agrees_with_brute_bisection(rng):
    # 200 random accretive D: verdicts agree, c_max within 1e-6
    for trial in range(200):
        m = int(rng.integers(2, 5))
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        re_part = g @ g.conj().T / m
        if trial % 4 == 0:
            # rank-deficient real part with compatible imaginary part
            re_part[:, 0] = 0
            re_part[0, :] = 0
        im_part = rng.standard_normal((m, m))
        im_part = (im_part + im_part.T) / 2
        if trial % 3 == 0:
            im_part = np.zeros((m, m))
        if trial % 4 == 0:
            im_part[:, 0] = 0
            im_part[0, :] = 0
        d = re_part + 1j * im_part
        res = imp.admissible_direction_check(d)
        # brute: scan the norm over a fine c-grid
        cs = np.linspace(1e-6, 4.0 / max(np.linalg.norm(d, 2), 1e-9), 4000)
        ok = np.linalg.norm(-np.eye(m) + cs[:, None, None] * d, 2,
                            axis=(1, 2)) <= 1.0 + 1e-12
        brute_admissible = bool(ok[0])
        assert res.admissible == brute_admissible, (trial, d)
        if res.admissible and np.isfinite(res.c_max):
            idx = np.nonzero(~ok)[0]
            if idx.size:
                brute_cmax = cs[idx[0] - 1]
                grid_step = cs[1] - cs[0]
                assert abs(res.c_max - brute_cmax) <= max(1e-6, 2 * grid_step)


def test_admissible_cmax_is_the_contraction_edge(rng):
    # the closed-form c_max is the largest c with ||-I + c D|| <= 1: at
    # c_max the matrix is a contraction, 0.1% beyond it is not.  Re D >= 0.1
    # on its range keeps that excess measurable (about 1e-6 or more).
    for trial in range(200):
        m = int(rng.integers(2, 6))
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        re_part = g @ g.conj().T / m + 0.1 * np.eye(m)
        im_part = rng.standard_normal((m, m))
        im_part = (im_part + im_part.T) / 2
        if trial % 4 == 0:
            # rank-deficient real part, imaginary part vanishing on its kernel
            for part in (re_part, im_part):
                part[:, 0] = 0
                part[0, :] = 0
        d = re_part + 1j * im_part
        res = imp.admissible_direction_check(d)
        assert res.admissible and math.isfinite(res.c_max), (trial, d)
        eye = np.eye(m)
        assert np.linalg.norm(-eye + res.c_max * d, 2) <= 1.0 + 1e-12
        assert np.linalg.norm(-eye + 1.001 * res.c_max * d, 2) > 1.0 + 1e-9


def test_shifted_hs_sampler():
    k0 = 0.3 * np.eye(2, dtype=complex)
    k = imp.sample_shifted_hs(k0, np.full((2, 2), 0.2), stream(31))
    assert k.norm <= 1.0 + 1e-12
    exact = imp.sample_shifted_hs(k0, np.zeros((2, 2)), stream(32))
    assert np.array_equal(exact.k, k0)
    with pytest.raises(imp.BudgetError):
        imp.sample_shifted_hs(k0, np.full((2, 2), 0.5), stream(33))


def test_quasi_uniform_sampler():
    k = imp.sample_quasi_uniform(np.zeros((2, 2)), [1.0],
                                 [np.eye(2, dtype=complex)], stream(41))
    # K = xi I with |xi| <= 1
    assert np.allclose(k.k, k.k[0, 0] * np.eye(2))
    assert abs(k.k[0, 0]) <= 1.0
    with pytest.raises(imp.BudgetError):
        imp.sample_quasi_uniform(0.5 * np.eye(2), [0.7],
                                 [np.eye(2, dtype=complex)], stream(42))


def test_admissible_mix_sampler(rng):
    m = 8
    dirs = []
    for j in range(3):
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        v /= np.linalg.norm(v)
        dirs.append(np.outer(v, v.conj()))
    for t in range(1000):
        k = imp.sample_admissible_mix([0.4, 0.3, 0.3], dirs, stream(51, t))
        assert k.norm <= 1.0 + 1e-10
    with pytest.raises(imp.BudgetError):
        imp.sample_admissible_mix([0.8, 0.4], dirs[:2], stream(52))


def test_matrix_contraction_dispatcher():
    for kind in ("shifted_hs", "quasi_uniform", "admissible_mix"):
        k = imp.sample_matrix_contraction(kind, 4, stream(61))
        assert k.norm <= 1.0 + 1e-10
    with pytest.raises(ValueError):
        imp.sample_matrix_contraction("nope", 2, stream(62))


def test_haar_unitary_is_unitary(rng):
    u = imp.haar_unitary(5, rng)
    assert np.linalg.norm(u.conj().T @ u - np.eye(5), 2) <= 1e-12


def test_cayley_range_battery():
    # 1e5 random (zeta, mu): |xi| <= 1, with equality exactly on Re zeta = 0
    gen = stream(271).generator()
    re = gen.uniform(0.01, 40, 100_000) * (gen.random(100_000) > 0.3)
    zetas = re + 1j * gen.uniform(-40, 40, 100_000)
    mus = gen.uniform(0, 1e6, 100_000)
    s = np.sqrt(1.0 + mus)
    xi = (zetas - s) / (zetas + s)
    mags = np.abs(xi)
    assert mags.max() <= 1.0 + 1e-12
    on_circle = np.abs(mags - 1.0) <= 1e-12
    assert np.array_equal(on_circle, re == 0.0)


def test_admissible_cmax_against_independent_bisection(rng):
    # independent oracle: plain interval bisection on the norm condition,
    # written here from scratch; c_max must agree to 1e-6
    def oracle_cmax(d):
        m = d.shape[0]
        def ok(c):
            return np.linalg.norm(-np.eye(m) + c * d, 2) <= 1.0 + 1e-14
        if not ok(1e-9 / max(np.linalg.norm(d, 2), 1e-12)):
            return 0.0
        hi = 1.0
        while ok(hi):
            hi *= 2.0
            if hi > 1e12:
                return math.inf
        lo = 0.0
        while hi - lo > 1e-9 * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if ok(mid):
                lo = mid
            else:
                hi = mid
        return lo

    for trial in range(60):
        m = int(rng.integers(2, 5))
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        re_part = g @ g.conj().T / m
        im_part = rng.standard_normal((m, m))
        im_part = (im_part + im_part.T) / 2
        d = re_part + 1j * (0.0 if trial % 3 == 0 else 1.0) * im_part
        res = imp.admissible_direction_check(d)
        want = oracle_cmax(d)
        assert res.admissible == (want > 1e-10)
        if np.isfinite(res.c_max) and math.isfinite(want):
            assert abs(res.c_max - want) <= 1e-6 * max(1.0, want)
