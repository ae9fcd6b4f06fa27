"""Bessel evaluation and root finding.

The external oracle here is a high-order power series evaluated in 40-digit
mpmath arithmetic, written out term by term (independent of both the package
kernels and mpmath's own Bessel routines).
"""
import cmath
import math

import mpmath
import numpy as np
import pytest

from randbc import specfun

# frozen by the bracketing oracle + the high-precision series below
J0_ZEROS = (2.4048255576957728, 5.5200781102863106)
J0P_ZEROS = (3.8317059702075123, 7.0155866698156188)


def series_bessel_mp(k, x, terms=250):
    """Independent high-order series for J_k; working precision grows with
    |x| to absorb the alternating-series cancellation (~e^|x|)."""
    with mpmath.workdps(40 + int(abs(x))):
        xm = mpmath.mpc(x)
        half = xm / 2
        term = half ** k / mpmath.factorial(k)
        total = term
        for m in range(1, terms):
            term *= -(half * half) / (m * (m + k))
            total += term
        return complex(total)


def test_bessel_at_zero():
    ev = specfun.bessel_j(0, 0.0)
    assert ev.value == 1.0 and ev.derivative == 0.0
    ev1 = specfun.bessel_j(1, 0.0)
    assert ev1.value == 0.0
    assert ev1.derivative == 0.5


def test_first_j0_zero_located_by_own_bisection():
    res = specfun.find_real_roots(lambda x: specfun.bessel_j(0, x).value.real,
                                  (2.0, 3.0), 1.0)
    assert len(res.roots) == 1
    root = res.roots[0]
    assert abs(specfun.bessel_j(0, root).value) <= 1e-12
    # cross-check against the independent series evaluation
    assert abs(series_bessel_mp(0, root)) <= 1e-12
    assert abs(root - J0_ZEROS[0]) <= 1e-12


@pytest.mark.parametrize("k,x", [(0, 1.7), (1, 6.3), (4, 11.0), (7, 29.5),
                                 (12, 80.0), (2, 2.5 + 1.25j), (9, 40 + 3j)])
def test_values_match_independent_series(k, x):
    ev = specfun.bessel_j(k, x)
    ref = series_bessel_mp(k, x)
    assert abs(ev.value - ref) <= 1e-12 * max(1.0, abs(ref))


def test_recurrence_consistency_battery(rng):
    # J_{k-1} + J_{k+1} = (2k/x) J_k and 2 J_k' = J_{k-1} - J_{k+1}
    worst_rec, worst_der = 0.0, 0.0
    for _ in range(10_000):
        k = int(rng.integers(1, 51))
        r = math.exp(rng.uniform(math.log(0.1), math.log(100.0)))
        phi = rng.uniform(0, 2 * math.pi)
        x = r * cmath.exp(1j * phi)
        if abs(x.imag) > 80:
            x = complex(x.real, math.copysign(80.0, x.imag))
        jm = specfun.bessel_j(k - 1, x)
        jc = specfun.bessel_j(k, x)
        jp = specfun.bessel_j(k + 1, x)
        scale = max(abs(jm.value), abs(jc.value), abs(jp.value), 1e-280)
        worst_rec = max(worst_rec,
                        abs(jm.value + jp.value - (2.0 * k / x) * jc.value)
                        / scale)
        worst_der = max(worst_der,
                        abs(jc.derivative - 0.5 * (jm.value - jp.value))
                        / scale)
    assert worst_rec <= 1e-10
    assert worst_der <= 1e-10


def test_zero_interlacing():
    # between consecutive zeros of J_k there is exactly one zero of J_{k+1}
    for k in range(0, 11):
        zk = specfun.find_real_roots(
            lambda x, k=k: specfun.bessel_j(k, x).value.real,
            (max(k, 0.5), k + 45.0), min_spacing=1.0).roots[:10]
        zk1 = specfun.find_real_roots(
            lambda x, k=k: specfun.bessel_j(k + 1, x).value.real,
            (max(k, 0.5), k + 45.0), min_spacing=1.0).roots
        assert len(zk) == 10
        for lo, hi in zip(zk[:-1], zk[1:]):
            inside = [z for z in zk1 if lo < z < hi]
            assert len(inside) == 1, (k, lo, hi, inside)


def test_order_guard_and_range_guard():
    with pytest.raises(specfun.SpecFunError):
        specfun.bessel_j(201, 1.0)
    with pytest.raises(specfun.SpecFunError):
        specfun.bessel_j(0, 2.0e4)
    with pytest.raises(specfun.SpecFunError):
        specfun.bessel_j(-1, 1.0)
    # the batched grid scans share the guard: a certified scan of mode 201,
    # or one reaching sqrt(ab) lam > 1e4, fails with the error of a
    # pointwise scan of the same grid
    from randbc import disk_model as dm

    for dim in (2, 3):
        params = dm.MaterialParams(a=2.0, b=2.0, dim=dim)
        for mode, window in ((201, (1.0, 10.0)), (0, (4999.0, 5001.0))):
            grid = dm._RadialGrid(mode, params, window)
            with pytest.raises(specfun.SpecFunError) as pointwise:
                specfun.find_real_roots(
                    lambda lam: dm._radial_fdf(mode, lam, params,
                                               (0.0, 1.0))[0].real,
                    window, grid.min_spacing)
            with pytest.raises(specfun.SpecFunError) as batched:
                dm._real_axis_roots(grid, (0.0, 1.0))
            assert str(batched.value) == str(pointwise.value)
    # the grid's numpy range check still names the first invalid point, not
    # the largest one
    for grid, scalar in ((specfun.bessel_j_grid, specfun.bessel_j),
                         (specfun.spherical_j_grid, specfun.spherical_j)):
        with pytest.raises(specfun.SpecFunError) as first:
            scalar(3, 2.0e4)
        with pytest.raises(specfun.SpecFunError) as batched:
            grid(3, [1.0, 5.0, 2.0e4, 3.0e4, 2.0])
        assert str(batched.value) == str(first.value) == \
            "|x|=2e+04 outside validated range"


def test_grid_of_many_modes_fails_where_mode_solves_would():
    # radial_grids checks every (mode, w) pair of its one batched call in
    # mode order, each order before its points, so it raises the
    # SpecFunError that solving the modes one after another would: at the
    # first invalid order, or at mode 0's first point beyond 1e4.  (It
    # checks before it evaluates, so on a window where mode 199 underflows
    # it would still name mode 201, where the solves would stop at 199; the
    # CLI takes at most 200 modes.)
    from randbc import disk_model as dm

    for dim in (2, 3):
        params = dm.MaterialParams(a=2.0, b=2.0, dim=dim)
        for modes, window in (((199, 200, 201, 202), (5.0, 10.0)),
                              ((0, 1, 201), (4999.0, 5001.0)),
                              ((201, 0), (4999.0, 5001.0))):
            with pytest.raises(specfun.SpecFunError) as batched:
                dm.radial_grids(modes, params, window)
            with pytest.raises(specfun.SpecFunError) as per_mode:
                for mode in modes:
                    dm.solve_mode_eigenvalues(mode, 1.0j, params, window)
            assert str(batched.value) == str(per_mode.value), (dim, modes)
        grid = dm.radial_grids((0, 5, 9), params, (1.0, 10.0))
        assert [g.mode for g in grid] == [0, 5, 9]
        for g in grid:
            alone = dm._RadialGrid(g.mode, params, (1.0, 10.0)).values()
            assert [a.tobytes() for a in g.values()] == [
                a.tobytes() for a in alone]


def test_spherical_closed_forms():
    x = 1.37
    ev = specfun.spherical_j(0, x)
    assert abs(ev.value - math.sin(x) / x) <= 1e-15
    assert abs(ev.derivative - (math.cos(x) / x - math.sin(x) / x**2)) <= 1e-15
    ev1 = specfun.spherical_j(1, x)
    assert abs(ev1.value - (math.sin(x) / x**2 - math.cos(x) / x)) <= 1e-14


def test_spherical_recurrence_battery(rng):
    # j_{l-1} + j_{l+1} = (2l+1)/x j_l
    worst = 0.0
    for _ in range(2000):
        l = int(rng.integers(1, 31))
        x = complex(rng.uniform(0.1, 60.0), rng.uniform(-2.0, 2.0))
        jm = specfun.spherical_j(l - 1, x).value
        jc = specfun.spherical_j(l, x).value
        jp = specfun.spherical_j(l + 1, x).value
        scale = max(abs(jm), abs(jc), abs(jp), 1e-280)
        worst = max(worst, abs(jm + jp - (2 * l + 1) / x * jc) / scale)
    assert worst <= 1e-10


def test_find_real_roots_linear():
    res = specfun.find_real_roots(lambda x: x - 5.0, (0.0, 10.0), 1.0)
    assert len(res.roots) == 1
    assert abs(res.roots[0] - 5.0) <= 1e-12


def test_find_real_roots_j0prime():
    res = specfun.find_real_roots(
        lambda x: specfun.bessel_j(0, x).derivative.real, (1.0, 10.0), 1.0)
    assert len(res.roots) == 2
    for root, ref in zip(res.roots, J0P_ZEROS):
        assert abs(root - ref) <= 1e-10 * ref


def test_find_real_roots_j0():
    res = specfun.find_real_roots(
        lambda x: specfun.bessel_j(0, x).value.real, (2.0, 6.0), 1.0)
    assert len(res.roots) == 2
    for root, ref in zip(res.roots, J0_ZEROS):
        assert abs(root - ref) <= 1e-10 * ref


def test_roots_meet_residual_contract(rng):
    # |f(root)| <= 1e-9 * local derivative scale for every returned root
    for trial in range(20):
        k = int(rng.integers(0, 8))
        f = lambda x, k=k: specfun.bessel_j(k, x).value.real
        res = specfun.find_real_roots(f, (0.5 + k, 25.0 + k), min_spacing=1.0)
        assert res.roots
        for root in res.roots:
            h = 1e-6 * max(1.0, root)
            deriv = (f(root + h) - f(root - h)) / (2 * h)
            assert abs(f(root)) <= 1e-9 * max(abs(deriv) * max(1.0, root), 1e-12)


def test_bracket_type_rejects_same_sign():
    with pytest.raises(specfun.SpecFunError):
        specfun.RootBracket(0.0, 1.0, 2.0, 3.0)


def test_sign_changes_between_tiny_values_are_bracketed():
    # values of about 1e-170: their products underflow to 0, so a product
    # test finds no sign change; 0 stays of neither sign
    tiny = 1e-170
    specfun.RootBracket(0.0, 1.0, -tiny, tiny)
    for f_lo, f_hi in ((0.0, tiny), (-tiny, 0.0), (tiny, tiny)):
        with pytest.raises(specfun.SpecFunError):
            specfun.RootBracket(0.0, 1.0, f_lo, f_hi)
    res = specfun.ratio_roots(_over_one(lambda x: tiny * (0.3 - x)),
                              [i / 8 for i in range(9)],
                              lambda x: (tiny * (0.3 - x), -tiny))
    assert len(res.brackets) == 1 and abs(res.roots[0] - 0.3) <= 1e-12
    # two roots next to a pole in one cell, F and C of about 1e-170 (F C
    # would underflow): the cell is split until they separate
    fc, fdf = _ratio_pair(1e6, 0.4567)

    def tiny_fc(xs):
        f, c = fc(xs)
        return tiny * f, tiny * c

    res = specfun.ratio_roots(tiny_fc, [0.0, 1.0],
                              lambda x: tuple(tiny * v for v in fdf(x)))
    assert specfun.ratio_root_count(*tiny_fc([0.0, 1.0])) == 2
    assert len(res.brackets) == 2
    for root, want in zip(res.roots, (0.4557, 0.4577)):
        assert abs(root - want) <= 1e-12


def test_complex_polish_simple():
    res = specfun.complex_root_polish(lambda z: (z * z + 1.0, 2.0 * z), 0.9j)
    assert res.converged
    assert abs(res.root - 1j) <= 1e-12


def test_complex_polish_triple_root_relaxation():
    target = 1.0 - 0.5j
    res = specfun.complex_root_polish(
        lambda z: ((z - target) ** 3, 3.0 * (z - target) ** 2), 1.0 - 0.4j)
    # multiple root: either an honest failure flag or a root within 1e-4
    assert (not res.converged) or abs(res.root - target) <= 1e-4
    assert abs(res.root - target) <= 1e-3


def _counted(fdf):
    calls = []

    def wrapped(z):
        calls.append(z)
        return fdf(z)

    return wrapped, calls


@pytest.mark.parametrize("fdf, seed, want_iterations, want_calls", [
    # zero derivative at the seed: no step is tried
    (lambda z: (z * z + 1.0, 2.0 * z), 0.0, 0, 1),
    # wrong-sign derivative: every damping trial of step 1 goes uphill
    (lambda z: (z * z + 1.0, -2.0 * z), 0.9j, 1, 13),
], ids=["zero-derivative", "failed-line-search"])
def test_complex_polish_early_exit_iterations(fdf, seed, want_iterations,
                                              want_calls):
    # an early exit reports the Newton steps actually tried, not the 100
    # the iteration allows
    counted, calls = _counted(fdf)
    res = specfun.complex_root_polish(counted, seed)
    assert not res.converged
    assert res.iterations == want_iterations < 100
    assert len(calls) == want_calls


def test_complex_polish_accepts_a_converged_seed():
    # the seed already meets the tolerance, and the Newton step from it
    # rounds to nothing (1.0 - 1e-17 == 1.0), so no step lowers |f|: the
    # seed comes back converged, after 0 steps and its one evaluation
    counted, calls = _counted(lambda z: (1e-17 + (z - 1.0), 1.0))
    res = specfun.complex_root_polish(counted, 1.0)
    assert res.converged and res.iterations == 0
    assert res.root == 1.0 and res.residual == 1e-17
    assert calls == [1.0]


def test_complex_polish_robin_continuation():
    # F = J_0'(lam) - 0.1 i J_0(lam) on the unit disk, and
    # F' = J_0''(lam) - 0.1 i J_0'(lam) with J_0'' = -J_0'/lam - J_0
    def fdf(lam):
        ev = specfun.bessel_j(0, lam)
        second = -ev.derivative / lam - ev.value
        return (ev.derivative - 0.1j * ev.value,
                second - 0.1j * ev.derivative)

    res = specfun.complex_root_polish(fdf, J0P_ZEROS[0])
    assert res.converged
    assert res.root.imag <= 0.0


def test_fd_batch_kernel_equals_scalar():
    # The lam-batched FD kernel must reproduce the scalar pure-python
    # recurrence exactly, not to rounding: the FD oracle scans with one and
    # bisects/polishes with the other.
    from randbc import _pykernels

    rng = np.random.default_rng(11)
    real = [float(x) for x in rng.uniform(0.2, 25.0, 12)]
    cplx = [complex(x, y) for x, y in zip(rng.uniform(0.2, 25.0, 8),
                                          rng.uniform(-3.0, 3.0, 8))]
    # on the imaginary axis the radial solution grows like
    # exp(sqrt(ab) |Im lam| r), past 1e200 well before r = 1 at these lams,
    # so the recurrence rescales on the way
    grow = [520j, 3.0 + 530j]
    lams = real + cplx + grow
    for dim in (2, 3):
        for mode in (0, 4):
            for n_grid in (512, 1024):
                batch = _pykernels.fd_radial_edge_batch(dim, mode, lams, 1.3,
                                                        n_grid)
                for j, lam in enumerate(lams):
                    edge = _pykernels.fd_radial_edge(dim, mode, lam, 1.3,
                                                     n_grid)[0]
                    assert tuple(complex(b[j]) for b in batch) == edge, \
                        (dim, mode, n_grid, lam)
                    if lam in grow:
                        # unrescaled, u_{M+1} would be far above 1e200
                        assert max(abs(edge[2].real),
                                   abs(edge[2].imag)) <= 1e200
    # random draws over dim 2/3, modes 0-11 and complex lam with Im lam <= 0
    # on a 512-node grid, batched per (dim, mode)
    cases = {}
    for _ in range(60):
        dim = 2 if rng.random() < 0.5 else 3
        mode = int(rng.integers(0, 12))
        lam = complex(rng.uniform(0.5, 12), rng.uniform(-1, 0))
        cases.setdefault((dim, mode), []).append(lam)
    for (dim, mode), drawn in cases.items():
        batch = _pykernels.fd_radial_edge_batch(dim, mode, drawn, 1.0, 512)
        for j, lam in enumerate(drawn):
            edge = _pykernels.fd_radial_edge(dim, mode, lam, 1.0, 512)[0]
            assert tuple(complex(b[j]) for b in batch) == edge, (dim, mode, lam)


# u_M and u_{M+1} of the FD kernels at ab = 1.3 on 512 nodes as (real, imag)
# float.hex pairs, which also see the sign of a zero part: real, complex and
# rescaled (|Im lam| > 500) lam
FD_EDGE_PINS = (
    ((2, 0, 7.3), ('0x1.6fbb7cda0b71bp-4', '0x0.0p+0'),
     ('0x1.5de99283249e7p-4', '0x0.0p+0')),
    ((2, 4, 7.3), ('-0x1.337abb7683326p+29', '0x0.0p+0'),
     ('-0x1.38fbe6093f848p+29', '0x0.0p+0')),
    ((3, 0, 7.3), ('0x1.b6ef8b5427b8cp-4', '0x0.0p+0'),
     ('0x1.b26918427f3d2p-4', '0x0.0p+0')),
    ((3, 4, 7.3), ('-0x1.94dfc1d8923a5p+26', '0x0.0p+0'),
     ('-0x1.c280ba468a97cp+26', '0x0.0p+0')),
    ((2, 0, 5.1 - 0.4j), ('0x1.cb98ac5884e57p-4', '-0x1.29689f8296f43p-3'),
     ('0x1.db870c91621b5p-4', '-0x1.2859be79b960ep-3')),
    ((2, 4, 5.1 - 0.4j), ('0x1.4a83a539a5b01p+32', '0x1.24b87b5d9f6dbp+31'),
     ('0x1.496055931920ep+32', '0x1.26005f5f89e35p+31')),
    ((3, 0, 5.1 - 0.4j), ('-0x1.464f158395cf2p-4', '-0x1.42524888fac79p-4'),
     ('-0x1.3dc5086f35851p-4', '-0x1.436084a03c28cp-4')),
    ((3, 4, 5.1 - 0.4j), ('0x1.4d0853c4f0b4fp+32', '0x1.d7d2cf9691656p+30'),
     ('0x1.4ca3b796477bcp+32', '0x1.da523bcd36c5fp+30')),
    ((2, 0, 520j), ('0x1.3c40520e46e3ep+143', '0x0.0p+0'),
     ('0x1.db440b51bafe5p+144', '0x0.0p+0')),
    ((3, 4, 520j), ('0x1.644f10a294e15p+146', '0x0.0p+0'),
     ('0x1.0b7a9e4dc48a0p+148', '0x0.0p+0')),
    ((2, 4, 3.0 + 530j),
     ('-0x1.f2f91f80a4c04p+163', '-0x1.c48805271d4c7p+161'),
     ('-0x1.7eb61c8132650p+165', '-0x1.51d79ac97f0e7p+163')),
    ((3, 0, 3.0 + 530j),
     ('-0x1.14f9770c89195p+153', '-0x1.c41ecd63b3da2p+150'),
     ('-0x1.a8660ec4c237cp+154', '-0x1.5038e9ee04495p+152')),
)


def test_fd_edge_bits_pinned():
    # the scalar kernel's value part and the batch kernel, bit for bit
    # (signed zeros included), against values recorded before the batch
    # kernel dropped its emulation of CPython's complex-by-real products
    from randbc import _pykernels as pk

    def hexes(z):
        z = complex(z)
        return z.real.hex(), z.imag.hex()

    for (dim, mode, lam), u_m, u_next in FD_EDGE_PINS:
        edge = pk.fd_radial_edge(dim, mode, lam, 1.3, 512)[0]
        batch = pk.fd_radial_edge_batch(dim, mode, [lam, 1.0], 1.3, 512)
        assert (hexes(edge[1]), hexes(edge[2])) == (u_m, u_next), (dim, mode,
                                                                  lam)
        assert (hexes(batch[1][0]), hexes(batch[2][0])) == (u_m, u_next), \
            (dim, mode, lam)


def test_miller_start_batch_equals_scalar():
    # the batch reads ceil(7 x^(1/3)) off a table of cubes, the scalar
    # kernel from libm's pow: the start indices must be equal everywhere,
    # also where 7 x^(1/3) is an integer, or an ulp from one
    from randbc import _pykernels as pk

    rng = np.random.default_rng(11)
    cubes = (np.arange(1.0, 160.0) / 7.0) ** 3
    xs = np.concatenate([rng.uniform(0.0, 60.0, 20_000),
                         rng.uniform(60.0, 1e4, 20_000), cubes,
                         np.nextafter(cubes, 0.0), np.nextafter(cubes, 1e5)])
    for order in (0, 7, 200):
        got = pk._miller_start_batch(order, xs)
        want = [pk._miller_start(order, x) for x in xs.tolist()]
        assert got.tolist() == want, order


def test_bessel_batch_equals_scalar(monkeypatch):
    # The real-axis grid scans evaluate J_k / j_l through the batch kernels
    # and refine with the scalar ones at a float x, so the two must agree
    # exactly, as floats, through specfun too.  The scalar kernel at
    # complex(x, 0.0), the complex path, must give the same real parts and
    # zero imaginary parts.
    from randbc import _pykernels as pk

    def check(k, xs, kernels=(
            (pk.bessel_jk_batch, pk.bessel_jk, specfun.bessel_j),
            (pk.spherical_jl_batch, pk.spherical_jl, specfun.spherical_j))):
        for batch, scalar, evaluate in kernels:
            values, derivs = batch(k, xs)
            for x, v, d in zip(xs, values.tolist(), derivs.tolist()):
                got = scalar(k, x)
                assert got == (v, d), (scalar.__name__, k, x)
                assert all(type(g) is float for g in got), (k, x)
                if (k <= specfun.MAX_ORDER
                        and abs(x) <= specfun.MAX_ABS_ARGUMENT):
                    ev = evaluate(k, x)
                    assert (ev.value, ev.derivative) == got, (k, x)
                    assert all(type(g) is float for g in (
                        ev.argument, ev.value, ev.derivative)), (k, x)
                on_axis = scalar(k, complex(x))
                assert [z.real for z in on_axis] == [v, d], (k, x)
                assert all(z.imag == 0.0 for z in on_axis), (k, x)

    rng = np.random.default_rng(5)
    for k in list(range(12)) + [25, 50, 120, 199, 200]:
        # branch edges, each with both neighbours: J_k's series (|x| <= 12
        # or x^2 <= 2(k+1)) and asymptotic (|x| >= 50 and |x| >= 4k^2)
        # branches, j_l's series (|x| <= 0.5)
        xs = [0.0]
        for edge in (12.0, math.sqrt(2.0 * (k + 1)), 50.0, 4.0 * k * k, 0.5):
            if 0.0 < edge <= 1e4:
                xs += [math.nextafter(edge, 0.0), edge,
                       math.nextafter(edge, math.inf)]
        xs += np.linspace(0.05, 60.0, 97).tolist()
        if k in (0, 50, 200):
            # far arguments make long recurrences; a few orders suffice
            xs += [float(rng.uniform(60.0, 1e4)), 1e4]
        xs += [-x for x in xs[1:7]]  # negative x, by reflection
        check(k, xs)
    # J_k's asymptotic branch over k <= 11 (|x| >= 4k^2), from its edge at
    # |x| = 50 to 1e4, with negative x
    for k in range(12):
        lo = max(50.0, 4.0 * k * k)
        xs = (np.linspace(lo, lo + 30.0, 41).tolist()
              + rng.uniform(lo, 1e4, 40).tolist())
        check(k, xs + [-x for x in xs[::4]],
              ((pk.bessel_jk_batch, pk.bessel_jk, specfun.bessel_j),))

    # The Hankel series stops at the first term that grows, or after the
    # first one below 1e-17.  On the branch every point stops by the second
    # rule (each term ratio is below 1/8 + j / (2|x|) < 1 there), so the
    # first rule is checked on the batch helper below |x| = 50 directly.
    def hankel_stop(k, x):
        t, prev = 1.0, 1e300
        for j in range(1, 40):
            t *= abs((4.0 * k * k - (2 * j - 1) ** 2) / (8.0 * j * x))
            if t > prev:
                return "grows"
            prev = t
            if t < 1e-17:
                return "small"
        return "cap"

    # (at 51.455 for k = 0 and 53.45 for k = 2, one term more than the
    # scalar loop adds changes the last bit)
    for k in (0, 2, 3):
        xs = [3.0, 7.5, 12.0, 18.0, 19.0, 20.0, 33.3, 49.5, 50.0, 51.455,
              53.45, 61.0, 700.0, 1e4]
        assert {hankel_stop(k, x) for x in xs} == {"grows", "small"}
        assert {hankel_stop(k, x) for x in xs if x >= 50.0} == {"small"}
        values, derivs = pk._bessel_asym_batch(k, np.array(xs))
        for x, v, d in zip(xs, values.tolist(), derivs.tolist()):
            assert (v, d) == pk._bessel_asym_pair(k, complex(x)), (k, x)

    # only x = 0 goes through the scalar kernel
    scalar_args = []
    scalar = pk.bessel_jk

    def counted(k, x):
        scalar_args.append(x)
        return scalar(k, x)

    monkeypatch.setattr(pk, "bessel_jk", counted)
    for k in (0, 1, 3, 11, 200):
        pk.bessel_jk_batch(k, [0.0, 0.5, 11.0, 13.0, 49.0, 50.0, 60.0, 300.0,
                               600.0, 1e4, -75.0])
    assert scalar_args == [0.0] * 5
    monkeypatch.undo()
    # Cases that run the 1e250 rescale of the backward recurrence.  On the
    # real axis J_k reaches it only above the validated order 200 (the
    # kernels themselves take any order).
    rescaled = {260: [23.0], 300: [25.0], 100: [0.6], 200: [3.0, 10.0]}
    for k, xs in rescaled.items():
        check(k, xs)
    plain = {k: [pk.bessel_jk(k, x) if k > 200 else pk.spherical_jl(k, x)
                 for x in xs] for k, xs in rescaled.items()}
    monkeypatch.setattr(pk, "_RESCALE", math.inf)
    for k, xs in rescaled.items():
        for x, want in zip(xs, plain[k]):
            got = pk.bessel_jk(k, x) if k > 200 else pk.spherical_jl(k, x)
            assert got != want, (k, x)  # so the rescale did run


def test_bessel_batch_per_point_orders():
    # The batch kernels take one order per point, so one call serves the
    # scans of many modes.  Each (order, x) pair must equal the scalar
    # kernel's value and derivative bit for bit (float.hex: signed zeros
    # included), with the orders mixed in one call: random pairs of orders
    # 0-200 and x in [-80, 80], x = 0, and every branch edge of every order
    # with both neighbours and both signs: |x| = 0.5, 12, 50,
    # x^2 = 2(k+1) and |x| = 4k^2 (up to 1e4; every other order from 4 to
    # 50, where it lies above 50).
    from randbc import _pykernels as pk

    rng = np.random.default_rng(30)
    ks = rng.integers(0, 201, 3000).tolist()
    xs = rng.uniform(-80.0, 80.0, 3000).tolist()
    for k in range(201):
        edges = [0.5, 12.0, 50.0, math.sqrt(2.0 * (k + 1))]
        if 4 <= k <= 50 and k % 2 == 0:
            edges.append(4.0 * k * k)
        near = [0.0, -0.0] + [y for e in edges for y in (
            math.nextafter(e, 0.0), e, math.nextafter(e, math.inf))]
        near += [-y for y in near[2:]]
        ks += [k] * len(near)
        xs += near
    order = rng.permutation(len(xs))
    ks = [ks[i] for i in order]
    xs = [xs[i] for i in order]

    def hexes(*values):
        return tuple(float.hex(v) for v in values)

    for batch, scalar in ((pk.bessel_jk_batch, pk.bessel_jk),
                          (pk.spherical_jl_batch, pk.spherical_jl)):
        values, derivs = batch(np.array(ks), xs)
        for k, x, v, d in zip(ks, xs, values.tolist(), derivs.tolist()):
            assert hexes(v, d) == hexes(*scalar(k, x)), (
                scalar.__name__, k, x)
        # an int order gives the arrays of the equal order array
        for k in (0, 3, 57, 200):
            one = batch(k, xs)
            many = batch(np.full(len(xs), k), xs)
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(one, many)), (scalar.__name__, k)


# float.hex of Re/Im of the value and the derivative, pinned from the plain
# rescale test max(|Re jc|, |Im jc|) > 1e250.  Each argument rescales its
# backward recurrence, and each meets a step where |jc| > 1e250 while both
# parts stay below it, so only the exact test on the parts keeps that step
# from rescaling.  The orders lie above the validated 200 (the kernels take
# any order), where a large Im x drives the recurrence past 1e250.
MILLER_RESCALE_GOLDEN = (
    ("J", 300, (220+500j),
     ("0x1.9747b670d13a6p+607", "0x1.7bd760f9b61a2p+604",
      "0x1.753b37811a7cdp+605", "-0x1.bba8cd35f0b1cp+607")),
    ("J", 350, (20+140j),
     ("0x1.2694aa4e05aadp-289", "-0x1.decec8bd1952ep-293",
      "0x1.0836dabba8e41p-293", "-0x1.8a10d6da96a1bp-288")),
    ("J", 400, (280+180j),
     ("0x1.487a7f5b19526p+29", "-0x1.3c487cf71c30cp+31",
      "-0x1.e078c8168d092p+30", "-0x1.29f18e616671fp+31")),
    ("J", 450, (80+140j),
     ("-0x1.4cb84ab06475ep-463", "0x1.4e834dfb34995p-463",
      "0x1.ad57159e20c9ap-463", "0x1.434481fb26df3p-461")),
    ("J", 500, (40+420j),
     ("0x1.80201aa72c3a0p+209", "0x1.86ccd78b528cdp+209",
      "0x1.3e4075f9bec0fp+210", "-0x1.17d90c30c0549p+210")),
    ("J", 550, (180+420j),
     ("0x1.6eb7b1b7a215bp+178", "0x1.fed74274c28b9p+183",
      "0x1.769285da55097p+184", "0x1.4df4df1250115p+182")),
    ("j", 300, (260+500j),
     ("0x1.d68274b090cd8p+608", "0x1.1f5912215d921p+608",
      "0x1.693fd04845190p+608", "-0x1.de98b198111f2p+608")),
    ("j", 350, (60+220j),
     ("0x1.0b527d65e304fp-27", "-0x1.42b7e6e1c4184p-28",
      "-0x1.876ed031088e4p-28", "-0x1.080f65a81973fp-26")),
    ("j", 350, (300+380j),
     ("0x1.c18a27d629b86p+391", "0x1.e098b0fdedb73p+391",
      "0x1.38ea661f0c18ep+392", "-0x1.766bc13c57e11p+391")),
    ("j", 400, (220+100j),
     ("-0x1.2a03977f958cbp-158", "-0x1.86beff0346536p-161",
      "-0x1.9741f4d1f5e50p-158", "0x1.7c5974c468938p-159")),
    ("j", 400, (240+580j),
     ("-0x1.dd7ca0e55615ep+657", "-0x1.3c553abb2078fp+658",
      "-0x1.86c638666b0b0p+658", "0x1.d12d57e10a66bp+657")),
    ("j", 450, (60+460j),
     ("0x1.acc1744dd9778p+357", "0x1.2d9a6ff462495p+359",
      "0x1.aaac64814a7c3p+359", "-0x1.e81c732820bd5p+357")),
)


def _kernel_hex(name, k, x):
    from randbc import _pykernels as pk

    kernel = {"J": pk.bessel_jk, "j": pk.spherical_jl}[name]
    value, deriv = kernel(k, x)
    return tuple(float.hex(c) for c in (value.real, value.imag,
                                        deriv.real, deriv.imag))


def test_miller_rescale_bits_pinned():
    for name, k, x, want in MILLER_RESCALE_GOLDEN:
        assert _kernel_hex(name, k, x) == want, (name, k, x)


# float.hex of Re/Im of the value and the derivative of the scalar kernels
# at complex arguments, pinned before J_k and j_l shared their series,
# backward recurrence and reflection code: x = 0 at orders 0-2; J_k's
# series, Miller (both normalizations) and Hankel branches; j_l's series
# and its Miller branch scaled by j_0 and by j_1; all four quadrants, zero
# parts of either sign, and orders 157 and 200.
SCALAR_BESSEL_PINS = (
    ("J", 0, complex(0.0, 0.0),
     ("0x1.0000000000000p+0", "0x0.0p+0",
      "0x0.0p+0", "0x0.0p+0")),
    ("J", 1, complex(0.0, 0.0),
     ("0x0.0p+0", "0x0.0p+0",
      "0x1.0000000000000p-1", "0x0.0p+0")),
    ("J", 2, complex(-0.0, -0.0),
     ("0x0.0p+0", "0x0.0p+0",
      "0x0.0p+0", "0x0.0p+0")),
    ("J", 3, complex(2.5, 1.25),
     ("0x1.88b6de41f9a92p-3", "0x1.22b93425e9467p-2",
      "0x1.42b979cca7b3ap-2", "0x1.bcec0113b340cp-5")),
    ("J", 5, complex(-4.0, 7.0),
     ("0x1.2f95d8dc0f85dp+5", "-0x1.b86a69511141ap+2",
      "-0x1.919a236eb46b4p+3", "-0x1.386813efea72ap+5")),
    ("J", 2, complex(-3.5, -0.75),
     ("0x1.13db2693336f3p-1", "-0x1.929ef619d7a93p-4",
      "0x1.271bc1922a7cap-3", "0x1.c815287eb0934p-3")),
    ("J", 7, complex(6.0, -9.0),
     ("-0x1.689c7214db41cp+6", "0x1.b78dc9a03cdecp+6",
      "-0x1.0629816ed0ad4p+7", "-0x1.328a46fa76cedp+6")),
    ("J", 157, complex(10.0, 8.0),
     ("0x1.6f781e245f272p-505", "-0x1.889903a215081p-504",
      "-0x1.3be4a78989969p-502", "-0x1.425cb0350022cp-500")),
    ("J", 200, complex(-15.0, -5.0),
     ("0x1.b2362da01bd35p-652", "0x1.bcdd896f7d577p-650",
      "-0x1.81731f4f1fa4bp-647", "-0x1.31633d9a4d563p-646")),
    ("J", 4, complex(20.0, 0.0),
     ("0x1.0b9d33d13f56bp-3", "0x0.0p+0",
      "-0x1.0012a7a32d47bp-3", "0x0.0p+0")),
    ("J", 9, complex(-33.3, 0.0),
     ("-0x1.a75b2efb49b6fp-4", "0x0.0p+0",
      "-0x1.808fb9f3c4d14p-4", "0x0.0p+0")),
    ("J", 157, complex(100.0, 0.0),
     ("0x1.2836c0ab47423p-62", "0x0.0p+0",
      "0x1.67833c9af5104p-62", "0x0.0p+0")),
    ("J", 200, complex(3000.0, -0.0),
     ("-0x1.84ccde7b3580ap-7", "0x0.0p+0",
      "-0x1.152940303655ep-7", "0x0.0p+0")),
    ("J", 0, complex(20.0, 15.0),
     ("0x1.8c6e20d18c37ap+17", "-0x1.4259f6666ae62p+17",
      "-0x1.44ec7d81bce34p+17", "-0x1.827a60dc20c42p+17")),
    ("J", 6, complex(-25.0, 40.0),
     ("-0x1.1339f3002e7f9p+53", "0x1.d0c497fd90d3ap+50",
      "0x1.d214dc8c69306p+50", "0x1.119eb07ce4566p+53")),
    ("J", 12, complex(-30.0, -10.0),
     ("0x1.7ad8171ef1635p+9", "-0x1.d8f57f4325de0p+6",
      "0x1.60f3dae055978p+6", "0x1.63d285fb61d0ep+9")),
    ("J", 200, complex(40.0, -300.0),
     ("-0x1.15cb870b4305bp+335", "-0x1.16fdf52bb86afp+335",
      "0x1.3f44b94ad0b98p+335", "-0x1.5880bad4eddb3p+335")),
    ("J", 157, complex(500.0, 500.0),
     ("0x1.0187c7d6411d5p+695", "-0x1.54578d9ffc439p+697",
      "-0x1.52b612c8a9942p+697", "-0x1.225fc1d4e235ep+695")),
    ("J", 1, complex(-0.0, 13.0),
     ("0x0.0p+0", "0x1.731df9871e494p+15",
      "0x1.65bcd3c782e5ep+15", "0x0.0p+0")),
    ("J", 0, complex(60.0, 0.0),
     ("-0x1.76ab23711926bp-4", "-0x0.0p+0",
      "-0x1.7dbbe4c935819p-5", "-0x0.0p+0")),
    ("J", 1, complex(-75.0, 3.0),
     ("0x1.b2e8b9acc3898p-1", "0x1.7a7949759db45p-2",
      "0x1.81d7593b77b34p-2", "-0x1.af5185623309bp-1")),
    ("J", 3, complex(80.0, -20.0),
     ("0x1.e219e99bcc214p+23", "-0x1.a8750aa27f1cdp+23",
      "0x1.a4e5a884e382dp+23", "0x1.e37c9bbe6ec17p+23")),
    ("J", 5, complex(10000.0, 0.0),
     ("0x1.dcf65234ed18cp-9", "0x0.0p+0",
      "-0x1.d15d446c69a12p-8", "-0x0.0p+0")),
    ("J", 2, complex(-200.0, -150.0),
     ("-0x1.be41414b10e48p+206", "-0x1.0ff508d1cea70p+211",
      "0x1.0f9b4997220dep+211", "-0x1.cb6388931db3cp+206")),
    ("j", 0, complex(0.0, 0.0),
     ("0x1.0000000000000p+0", "0x0.0p+0",
      "0x0.0p+0", "0x0.0p+0")),
    ("j", 1, complex(0.0, 0.0),
     ("0x0.0p+0", "0x0.0p+0",
      "0x1.5555555555555p-2", "0x0.0p+0")),
    ("j", 2, complex(0.0, -0.0),
     ("0x0.0p+0", "0x0.0p+0",
      "0x0.0p+0", "0x0.0p+0")),
    ("j", 0, complex(0.3, 0.2),
     ("0x1.fbaec9ccd8772p-1", "-0x1.4609f6bde9340p-6",
      "-0x1.9accbb10775e8p-4", "-0x1.0acac9c708013p-4")),
    ("j", 3, complex(-0.4, 0.1),
     ("-0x1.02865e187acdcp-11", "0x1.cf2b2241e51ecp-12",
      "0x1.161479be3b021p-8", "-0x1.23532ca5dd18dp-9")),
    ("j", 1, complex(-0.2, -0.3),
     ("-0x1.175a6415da89fp-4", "-0x1.9857908666376p-4",
      "0x1.5a6167088d28dp-2", "-0x1.8b8d67ae52486p-7")),
    ("j", 157, complex(0.45, -0.1),
     ("0x0.0p+0", "-0x0.0p+0",
      "0x0.0p+0", "-0x0.0p+0")),
    ("j", 2, complex(5.0, 1.0),
     ("0x1.36566f84d7303p-3", "-0x1.92c95157a4badp-3",
      "-0x1.eb36d63a92882p-3", "-0x1.206c83a5675c7p-5")),
    ("j", 10, complex(-20.0, 3.0),
     ("0x1.1d909dd113c5fp-2", "-0x1.a67829c0f5428p-3",
      "-0x1.67394d97e92fdp-3", "-0x1.e71c175a8d216p-3")),
    ("j", 157, complex(-150.0, -50.0),
     ("0x1.338e7e0b502eep+15", "-0x1.16eaa274cb5b0p+17",
      "0x1.1f0022f7b8ca4p+16", "0x1.61a3aa689f386p+16")),
    ("j", 200, complex(300.0, -200.0),
     ("0x1.299fe562e0f7fp+232", "-0x1.4c7757ef733eep+231",
      "0x1.938579b16d866p+231", "0x1.01b9c0969d630p+232")),
    ("j", 3, complex(-0.0, 7.0),
     ("0x0.0p+0", "-0x1.fbe5ba4a53613p+4",
      "-0x1.f6ac1d1c55bd2p+4", "-0x0.0p+0")),
    ("j", 5, complex(8.0, -0.0),
     ("0x1.03299dbe44506p-3", "0x0.0p+0",
      "-0x1.2f37f504e472cp-4", "0x0.0p+0")),
    ("j", 1, complex(3.141592653589793, 0.0),
     ("0x1.45f306dc9c883p-2", "0x0.0p+0",
      "-0x1.9f02f6222c720p-3", "0x0.0p+0")),
    ("j", 4, complex(-9.42477796076938, 0.0),
     ("-0x1.969d8aed546d7p-4", "0x0.0p+0",
      "0x1.22fc4c48c2700p-5", "-0x0.0p+0")),
    ("j", 2, complex(6.283185307179586, 1e-09),
     ("-0x1.37423899a1558p-4", "-0x1.0e32c49ccc5b4p-33",
      "-0x1.f7489873c47d0p-4", "0x1.c76e55c19ef93p-34")),
)


def test_scalar_bessel_bits_pinned():
    for name, k, x, want in SCALAR_BESSEL_PINS:
        assert _kernel_hex(name, k, x) == want, (name, k, x)


def test_kernel_names_read_by_benchmark():
    # perfbench reads randbc.BACKEND and wraps these module attributes by
    # name to count kernel calls; a rename would silently zero its counters.
    import randbc
    from randbc import _pykernels, disk_model

    assert randbc.BACKEND == "python"
    assert specfun.bessel_jk is _pykernels.bessel_jk
    assert specfun.spherical_jl is _pykernels.spherical_jl
    assert disk_model.fd_radial_edge is _pykernels.fd_radial_edge


def _secular_mp(dim, k, lam, a, b, zeta):
    # F(lam) = sqrt(b/a) C'(w) - i zeta C(w), w = sqrt(ab) lam, from
    # mpmath's own Bessel functions (j_l through J_{l+1/2})
    w = mpmath.sqrt(a * b) * lam
    if dim == 2:
        c = mpmath.besselj(k, w)
        dc = mpmath.besselj(k, w, derivative=1)
    else:
        def sph(n):
            return mpmath.sqrt(mpmath.pi / (2 * w)) * mpmath.besselj(n + 0.5, w)
        c = sph(k)
        dc = (k / w) * c - sph(k + 1)
    return mpmath.sqrt(b / a) * dc - 1j * mpmath.mpc(zeta) * c


def test_secular_derivative_matches_mpmath():
    # the Bessel route's F'(lam) = sqrt(ab) (sqrt(b/a) C'' - i zeta C'),
    # C'' from the radial equation, against a 40-digit central difference
    # of F; real w at the kernel branch edges (j_l series 0.5, J_k series
    # 12, J_k asymptotics 50) and up to 1e4, complex w up to |Im w| = 600
    from randbc import disk_model as dm

    a, b, zeta = 1.3, 0.8, 0.7 + 1.3j
    sab = math.sqrt(a * b)
    ws = [0.5, 12.0, 50.0, 333.3, 1e4, 3.0 + 0.5j, 40.0 - 25.0j,
          30.0 + 600.0j, 700.0 - 599.0j]
    for dim in (2, 3):
        params = dm.MaterialParams(a=a, b=b, dim=dim)
        for k in (0, 1, 25, 200):
            # order 200 underflows to 0 at w = 0.5 (J_200(0.5) ~ 1e-495)
            # and below 1e-300 at w = 3 + 0.5i
            for w in (ws if k < 200 else ws[1:5] + ws[6:]):
                lam = w / sab
                _, got = dm._radial_fdf(k, complex(lam), params,
                                        dm._secular(params, zeta))
                with mpmath.workdps(40):
                    lm = mpmath.mpc(lam)
                    h = mpmath.mpf("1e-12") * max(1, abs(lm))
                    ref = complex((_secular_mp(dim, k, lm + h, a, b, zeta)
                                   - _secular_mp(dim, k, lm - h, a, b, zeta))
                                  / (2 * h))
                assert abs(got - ref) <= 1e-10 * abs(ref), (dim, k, w)


def test_fd_derivative_kernel():
    # fd_radial_edge's value part equals fd_radial_edge_batch (==), also
    # through the 1e200 rescale, and its derivative part matches a central
    # difference of the value part to 1e-6
    from randbc import _pykernels as pk

    rng = np.random.default_rng(12)
    lams = ([float(x) for x in rng.uniform(0.2, 25.0, 6)]
            + [complex(x, y) for x, y in zip(rng.uniform(0.2, 25.0, 4),
                                             rng.uniform(-3.0, 3.0, 4))]
            + [520j, 3.0 + 530j])
    for dim in (2, 3):
        for mode in (0, 4):
            for n_grid in (512, 1024):
                batch = pk.fd_radial_edge_batch(dim, mode, lams, 1.3, n_grid)
                for j, lam in enumerate(lams):
                    edge, d_edge = pk.fd_radial_edge(dim, mode, lam, 1.3,
                                                     n_grid)
                    assert edge == tuple(complex(e[j]) for e in batch)
                    h = 1e-6 * abs(lam)
                    up, _ = pk.fd_radial_edge(dim, mode, lam + h, 1.3, n_grid)
                    dn, _ = pk.fd_radial_edge(dim, mode, lam - h, 1.3, n_grid)
                    scale = max(abs(d) for d in d_edge)
                    for u_up, u_dn, d in zip(up, dn, d_edge):
                        assert abs((u_up - u_dn) / (2 * h) - d) \
                            <= 1e-6 * scale, (dim, mode, n_grid, lam)
                    if abs(lam.imag) > 500:
                        # unrescaled, u_{M+1} would be far above 1e200
                        assert max(abs(edge[2].real),
                                   abs(edge[2].imag)) <= 1e200


def _over_one(f):
    # fc of the pair F = f, C = 1 for ratio_roots: G = f, which must
    # decrease
    def fc(xs):
        return np.array([f(x) for x in xs]), np.ones(len(xs))
    return fc


def test_refiner_newton_step_leaving_bracket_bisects():
    # one cell (0, 20): the first iterate is the secant point 9.05 of the
    # end values of atan(3 - x), whose Newton step lands near -43.8,
    # outside the bracket (0, 9.05), so the next iterate is its bisection
    # point
    fdf, calls = _counted(lambda x: (math.atan(3.0 - x),
                                     -1.0 / (1.0 + (x - 3.0) ** 2)))
    res = specfun.ratio_roots(_over_one(lambda x: math.atan(3.0 - x)),
                              [0.0, 20.0], fdf)
    secant = 20.0 * math.atan(3.0) / (math.atan(3.0) - math.atan(-17.0))
    assert calls[0] == pytest.approx(secant, rel=1e-15)
    assert calls[1] == 0.5 * calls[0]
    assert len(res.roots) == 1 and abs(res.roots[0] - 3.0) <= 1e-12
    # a Newton step that points out of the bracket, well under half the
    # step before last: on (0, 5) the secant point is 4.93, where g > 0
    # makes the bracket (0, 4.93), and g' < 0 there sends Newton to 5.07,
    # next to another root of g outside it
    def g(x):
        return x - 8.0 + 4.0 * math.exp(-(x - 4.5) ** 2)

    fdf, calls = _counted(lambda x: (g(x), 1.0 - 8.0 * (x - 4.5)
                                     * math.exp(-(x - 4.5) ** 2)))
    root, _ = specfun._refine(fdf, specfun.RootBracket(0.0, 5.0, g(0.0),
                                                       g(5.0)))
    assert calls[0] == pytest.approx(5.0 * g(0.0) / (g(0.0) - g(5.0)),
                                     rel=1e-15)
    assert g(calls[0]) > 0.0 and calls[1] == 0.5 * calls[0]
    assert 0.0 < root < 5.0 and abs(g(root)) <= 1e-12


@pytest.mark.parametrize("f_lo, f_hi", [
    (1e308, -1e308),     # f_lo - f_hi overflows: the secant point is lo
    (1e-300, -1e300),    # f_lo / (f_lo - f_hi) underflows: lo
    (1e300, -1e-300),    # the ratio rounds to 1: hi
    (math.inf, -1.0),    # not finite
])
def test_refiner_secant_start_falls_back_to_the_midpoint(f_lo, f_hi):
    # a secant point that is not finite or not strictly inside the bracket
    # (0, 1) gives way to the midpoint, where this f changes sign
    fdf, calls = _counted(lambda x: (0.5 - x, -1.0))
    root, n = specfun._refine(fdf, specfun.RootBracket(0.0, 1.0, f_lo, f_hi))
    assert calls == [0.5] and (root, n) == (0.5, 1)


def test_refiner_slow_newton_bisects():
    # Newton on 1e-9 - x^9 shrinks its step by only 8/9 per iteration; a
    # step that does not halve the step before last is replaced by a
    # bisection step (23 evaluations without that rule)
    fdf, calls = _counted(lambda x: (1e-9 - x ** 9, -9.0 * x ** 8))
    res = specfun.ratio_roots(_over_one(lambda x: 1e-9 - x ** 9), [0.0, 1.5],
                              fdf)
    assert len(res.roots) == 1 and abs(res.roots[0] - 0.1) <= 1e-12
    assert res.n_evals == 2 + len(calls) and len(calls) <= 15


def test_refiner_zero_derivative_bisects():
    # f' = 0 on x <= 0.5, so at the first iterate of the cell (0, 1), its
    # secant point 0.008: the next iterate bisects (0.008, 1)
    def f(x):
        return 1e-3 - max(x - 0.5, 0.0) ** 3

    fdf, calls = _counted(lambda x: (f(x), -3.0 * max(x - 0.5, 0.0) ** 2))
    res = specfun.ratio_roots(_over_one(f), [0.0, 1.0], fdf)
    assert calls[0] == pytest.approx(0.008, rel=1e-15)
    assert calls[1] == 0.5 * (calls[0] + 1.0)
    assert len(res.roots) == 1 and abs(res.roots[0] - 0.6) <= 1e-12


def test_refiner_root_on_grid_point():
    # on 4 cells the root is a grid point and nothing is refined; on 2
    # cells it is the refiner's first iterate, an exact zero
    fdf, calls = _counted(lambda x: (7.5 - x, -1.0))
    fc = _over_one(lambda x: 7.5 - x)
    res = specfun.ratio_roots(fc, [0.0, 2.5, 5.0, 7.5, 10.0], fdf)
    assert res.roots == [7.5] and calls == []
    res = specfun.ratio_roots(fc, [0.0, 5.0, 10.0], fdf)
    assert res.roots == [7.5] and calls == [7.5]


def test_refiner_value_only_bisects():
    # ratio_roots refines by Newton steps on fdf, on scan_grid's 40 cells;
    # find_real_roots by bisection alone, on its own grid of 1,024 cells
    window = (0.1, 10.0)
    xs = specfun.scan_grid(window, 1.0)
    fdf, calls = _counted(lambda x: (math.atan(3.0 - x),
                                     -1.0 / (1.0 + (x - 3.0) ** 2)))
    newton = specfun.ratio_roots(_over_one(lambda x: math.atan(3.0 - x)),
                                 xs, fdf)
    plain = specfun.find_real_roots(lambda x: math.atan(3.0 - x), window, 1.0)
    for res in (newton, plain):
        assert len(res.roots) == 1 and abs(res.roots[0] - 3.0) <= 1e-12
    # without fdf the refinement bisects a cell of width 0.0097 of its
    # 1,024-cell grid down to 1e-13 relative, 30 halvings or more
    assert newton.n_evals == len(xs) + len(calls)
    assert plain.n_evals - (specfun.VALUE_SCAN_CELLS + 1) >= 30
    assert len(calls) <= 5


def _j0_fc(xs):
    # F = J_0 and C = J_1 = -J_0': G = -J_0 / J_0' decreases between the
    # zeros of J_1, as -1 / h does for h = J_0' / J_0 (DLMF 10.21)
    values, derivs = specfun.bessel_j_grid(0, xs)
    return values, -derivs


def _j0prime_fc(xs):
    # F = J_0' and C = J_0: G = J_0' / J_0 decreases between the zeros of J_0
    values, derivs = specfun.bessel_j_grid(0, xs)
    return derivs, values


@pytest.mark.parametrize("window, refs, fc, fdf", [
    ((2.0, 6.0), J0_ZEROS, _j0_fc,
     lambda x: (specfun.bessel_j(0, x).value.real,
                specfun.bessel_j(0, x).derivative.real)),
    ((1.0, 10.0), J0P_ZEROS, _j0prime_fc,
     # J_0'' = -J_0'/x - J_0
     lambda x: (specfun.bessel_j(0, x).derivative.real,
                (-specfun.bessel_j(0, x).derivative / x
                 - specfun.bessel_j(0, x).value).real)),
], ids=["j0", "j0prime"])
def test_refiner_newton_evaluations_per_bracket(window, refs, fc, fdf):
    # only the refinement calls fdf: fc evaluates the grid
    counted, calls = _counted(fdf)
    xs = specfun.scan_grid(window, 1.0)
    res = specfun.ratio_roots(fc, xs, counted)
    assert len(res.roots) == len(refs) == len(res.brackets)
    assert specfun.ratio_root_count(*fc(xs)) == len(refs)
    for root, ref in zip(res.roots, refs):
        assert abs(root - ref) <= 1e-12 * ref
    assert len(calls) <= 12 * len(res.brackets), calls


def test_pooled_subdivision_without_sign_change():
    # no cell to subdivide: fc sees the grid only, never an empty list.
    # G = 1 / x has a pole in the cell (-0.2, 0.05) and no root there
    fc, grid_calls = _counted(
        lambda xs: (np.ones(len(xs)), np.asarray(xs, dtype=float)))
    fdf, calls = _counted(lambda x: (1.0, 0.0))
    res = specfun.ratio_roots(fc, [-0.95 + 0.25 * i for i in range(9)], fdf)
    assert [len(xs) for xs in grid_calls] == [9]
    assert not res.roots and not res.brackets and calls == []
    assert res.n_evals == 9


@pytest.mark.parametrize("pooled", [False, True])
@pytest.mark.parametrize("roots, pole", [((0.25, 0.75), 0.5),
                                         ((0.25, 0.3125), 0.28125)],
                         ids=["simple", "touching"])
def test_exact_zero_at_a_subdivision_point(pooled, roots, pole):
    # two roots share the grid cell (0, 1) with a pole between them; they
    # are subdivision points k / 16, where F is exactly 0: roots as they
    # stand, with nothing to refine.  In the touching case they are the two
    # ends of the pole's subcell, which is not split again.  Pooled, the
    # cell (2, 3) holds the same pattern shifted by 2, a pole at 1.5 sits
    # alone in the cell (1, 2), and both split cells share one fc call.
    # F = -prod (x - r) and C = prod (x - p) interlace, so G decreases
    # between its poles
    shift = (0.0, 2.0) if pooled else (0.0,)
    zeros = [r + s for s in shift for r in roots]
    poles = [pole] + ([1.5, pole + 2.0] if pooled else [])

    def fc(xs):
        x = np.asarray(xs, dtype=float)
        return (-np.prod([x - r for r in zeros], axis=0),
                np.prod([x - p for p in poles], axis=0))

    def fdf(x):
        raise AssertionError("no bracket to refine")

    xs = [0.0, 1.0, 2.0, 3.0] if pooled else [0.0, 1.0]
    counted_fc, grid_calls = _counted(fc)
    counted_fdf, calls = _counted(fdf)
    res = specfun.ratio_roots(counted_fc, xs, counted_fdf)
    assert specfun.ratio_root_count(*fc(xs)) == len(zeros)
    assert res.roots == zeros and not res.brackets and calls == []
    assert [len(pts) for pts in grid_calls] == [len(xs), 15 * len(shift)]
    assert res.n_evals == len(xs) + 15 * len(shift)


@pytest.mark.parametrize("dim", [2, 3])
def test_bessel_scan_subdivision_is_batched(monkeypatch, dim):
    # two cells of a coarse Neumann scan of mode 0 hold two roots each,
    # around a zero of C (j_{0,2} and j_{0,4} on the disk, 2 pi and 4 pi on
    # the ball): their subdivisions go through one batched call after the
    # grid's, with 15 points per cell
    from randbc import disk_model as dm

    name = "bessel_j_grid" if dim == 2 else "spherical_j_grid"
    kernel = getattr(dm, name)
    sizes = []

    def counted(k, xs):
        sizes.append(len(xs))
        return kernel(k, xs)

    monkeypatch.setattr(dm, name, counted)
    params = dm.MaterialParams(dim=dim)
    lams = [3.0, 7.5, 9.5, 13.5] if dim == 2 else [4.0, 8.0, 10.5, 14.5]
    grid = dm._RadialGrid(0, params, (lams[0], lams[-1]))
    grid.lams = lams
    res = dm._real_axis_roots(grid, dm._secular(params, 0.0))
    assert sizes == [4, 2 * 15]
    assert len(res.roots) == len(res.brackets) == 4


def test_fd_scan_grid_crossover(monkeypatch):
    # the FD scan sends every list, however short, to the batched kernel in
    # one call: the grid, which its certified count reads too (17 points
    # here), and each level's pooled subdivision points (15 for the one
    # cell of the coarse grid that holds two roots, around j_{0,2})
    from randbc import disk_model as dm

    batch = dm.fd_radial_edge_batch
    sizes = []

    def counted_batch(dim, mode, lams, ab, n_grid):
        sizes.append(len(lams))
        return batch(dim, mode, lams, ab, n_grid)

    monkeypatch.setattr(dm, "fd_radial_edge_batch", counted_batch)
    params = dm.MaterialParams(a=1.3, b=0.8, dim=2)
    window = (0.5, 12.5)
    lams = specfun.scan_grid(window, math.pi / params.wave_factor)
    res = dm._fd_real_axis_roots(2, 0.5j, params, 256, lams, window)
    assert sizes == [len(lams)] and len(res.roots) >= 3
    sizes.clear()
    res = dm._fd_real_axis_roots(0, 0.0, dm.MaterialParams(), 256,
                                 [3.0, 7.5, 8.0], (3.0, 8.0))
    assert sizes == [3, 15] and len(res.roots) == 2


def _ratio_pair(a, c):
    # G = F / C = 1 / (x - c) - a (x - c) decreases between its poles; its
    # roots are c -+ 1 / sqrt(a)
    def fc(xs):
        x = np.asarray(xs, dtype=float)
        return 1.0 - a * (x - c) ** 2, x - c

    def fdf(x):
        return 1.0 - a * (x - c) ** 2, -2.0 * a * (x - c)
    return fc, fdf


def test_ratio_roots_split_until_the_roots_separate():
    # with a = 1e6 both roots lie in one grid cell and in one of its 16
    # subcells, next to the pole: the cell is split twice
    fc, fdf = _ratio_pair(1e6, 0.4567)
    res = specfun.ratio_roots(fc, [0.0, 1.0], fdf)
    assert specfun.ratio_root_count(*fc([0.0, 1.0])) == 2
    assert len(res.roots) == 2 and len(res.brackets) == 2
    for root, want in zip(res.roots, (0.4557, 0.4577)):
        assert abs(root - want) <= 1e-12
    assert res.n_evals - sum(1 for _ in res.roots) >= 2 + 2 * 15


@pytest.mark.parametrize("pair, xs, want", [
    # a = 4, c = 0.5: roots 0 and 1 (exact zeros of F), pole 0.5
    ("ratio", [0.0, 0.25, 0.5, 0.75, 1.0], [0.0]),       # pole on the grid
    ("ratio", [0.5, 0.75, 1.0, 1.25], [1.0]),            # pole at lo
    ("ratio", [-0.25, 0.0, 0.25, 0.5], [0.0]),           # pole at hi
    ("ratio", [-0.3, 0.45, 0.9], [0.0]),                 # root on no point
    ("ratio", [-0.3, 0.3, 1.0], [0.0]),                  # 2 roots, 1 at hi
    # one cell holds the pole, a root inside and one at an end: split
    ("ratio", [0.0, 1.2], [0.0, 1.0]),
    ("ratio", [-0.2, 1.0], [0.0]),
    # F = C (G = 1, the Dirichlet pair): the roots are the poles
    ("constant", [0.0, 0.5, 1.0], [0.5]),
    ("constant", [0.0, 0.25, 0.5], []),                  # pole at hi
    ("constant", [0.5, 0.75, 1.0], [0.5]),               # pole at lo
    ("constant", [0.1, 0.7, 1.0], [0.5]),
])
def test_ratio_root_count_at_the_ends(pair, xs, want):
    # roots in [lo, hi): a zero of C or of F at an end of the grid, or on a
    # point of it, counts as ratio_roots returns it
    if pair == "ratio":
        fc, fdf = _ratio_pair(4.0, 0.5)
    else:
        def fc(pts):
            x = np.asarray(pts, dtype=float) - 0.5
            return x, x

        def fdf(x):
            return x - 0.5, 1.0
    res = specfun.ratio_roots(fc, xs, fdf)
    assert specfun.ratio_root_count(*fc(xs)) == len(want)
    assert len(res.roots) == len(want)
    for root, w in zip(res.roots, want):
        assert abs(root - w) <= 1e-12
