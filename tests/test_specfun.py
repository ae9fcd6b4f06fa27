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
                                  (2.0, 3.0))
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
    # the batched grid scans share the guard: a scan of mode 201, or one
    # reaching sqrt(ab) lam > 1e4, fails with the pointwise scan's error
    from randbc import disk_model as dm

    for dim in (2, 3):
        params = dm.MaterialParams(a=2.0, b=2.0, dim=dim)
        for mode, window in ((201, (1.0, 10.0)), (0, (4000.0, 6000.0))):
            f, _, f_grid = dm._radial_scan_functions(mode, params,
                                                     lambda lam, v, d: d)
            with pytest.raises(specfun.SpecFunError) as pointwise:
                specfun.find_real_roots(f, window, n_grid=8)
            with pytest.raises(specfun.SpecFunError) as batched:
                specfun.find_real_roots(f, window, n_grid=8, f_grid=f_grid)
            assert str(batched.value) == str(pointwise.value)


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
    res = specfun.find_real_roots(lambda x: x - 5.0, (0.0, 10.0))
    assert len(res.roots) == 1
    assert abs(res.roots[0] - 5.0) <= 1e-12


def test_find_real_roots_j0prime():
    res = specfun.find_real_roots(
        lambda x: specfun.bessel_j(0, x).derivative.real, (1.0, 10.0))
    assert len(res.roots) == 2
    for root, ref in zip(res.roots, J0P_ZEROS):
        assert abs(root - ref) <= 1e-10 * ref


def test_find_real_roots_j0():
    res = specfun.find_real_roots(
        lambda x: specfun.bessel_j(0, x).value.real, (2.0, 6.0))
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


def test_suspected_double_root_reported():
    # window chosen so the double root is not a grid point
    res = specfun.find_real_roots(lambda x: (x - 3.0) ** 2, (1.0, 5.1))
    assert not res.roots
    assert any(abs(s - 3.0) < 1e-3 for s in res.suspected_double)


def test_bracket_type_rejects_same_sign():
    with pytest.raises(specfun.SpecFunError):
        specfun.RootBracket(0.0, 1.0, 2.0, 3.0)


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


@pytest.mark.parametrize("fdf, seed, tol, want_iterations, want_calls", [
    # zero derivative at the seed: no step is tried
    (lambda z: (z * z + 1.0, 2.0 * z), 0.0, 1e-10, 0, 1),
    # wrong-sign derivative: every damping trial of step 1 goes uphill
    (lambda z: (z * z + 1.0, -2.0 * z), 0.9j, 1e-10, 1, 13),
    # triple root with tol = 0: linear convergence until the step stalls
    (lambda z: ((z - 1.0) ** 3, 3.0 * (z - 1.0) ** 2), 1.5, 0.0, 77, 78),
], ids=["zero-derivative", "failed-line-search", "stalled-step"])
def test_complex_polish_early_exit_iterations(fdf, seed, tol,
                                              want_iterations, want_calls):
    # an early exit reports the Newton steps actually tried, not max_iter
    counted, calls = _counted(fdf)
    res = specfun.complex_root_polish(counted, seed, tol=tol)
    assert not res.converged
    assert res.iterations == want_iterations < 100
    assert len(calls) == want_calls


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
                                                     n_grid)
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
            edge = _pykernels.fd_radial_edge(dim, mode, lam, 1.0, 512)
            assert tuple(complex(b[j]) for b in batch) == edge, (dim, mode, lam)


def test_bessel_batch_equals_scalar(monkeypatch):
    # The real-axis grid scans evaluate J_k / j_l through the batch kernels
    # and bisect with the scalar ones, so the two must agree exactly.
    from randbc import _pykernels as pk

    def check(k, xs):
        for batch, scalar in ((pk.bessel_jk_batch, pk.bessel_jk),
                              (pk.spherical_jl_batch, pk.spherical_jl)):
            values, derivs = batch(k, xs)
            for x, v, d in zip(xs, values.tolist(), derivs.tolist()):
                assert (v, d) == scalar(k, x), (scalar.__name__, k, x)

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


def test_miller_rescale_bits_pinned():
    from randbc import _pykernels as pk

    kernels = {"J": pk.bessel_jk, "j": pk.spherical_jl}
    for name, k, x, want in MILLER_RESCALE_GOLDEN:
        value, deriv = kernels[name](k, x)
        got = tuple(float.hex(c) for c in (value.real, value.imag,
                                           deriv.real, deriv.imag))
        assert got == want, (name, k, x)


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
                _, got = dm._radial_fdf(
                    k, complex(lam), params,
                    lambda lam, v, d: dm._secular(params, zeta, v, d))
                with mpmath.workdps(40):
                    lm = mpmath.mpc(lam)
                    h = mpmath.mpf("1e-12") * max(1, abs(lm))
                    ref = complex((_secular_mp(dim, k, lm + h, a, b, zeta)
                                   - _secular_mp(dim, k, lm - h, a, b, zeta))
                                  / (2 * h))
                assert abs(got - ref) <= 1e-10 * abs(ref), (dim, k, w)


def test_fd_derivative_kernel():
    # fd_radial_edge_dlam: its value part equals fd_radial_edge (==), also
    # through the 1e200 rescale, and its derivative matches a central
    # difference of fd_radial_edge to 1e-6
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
                    edge, d_edge = pk.fd_radial_edge_dlam(dim, mode, lam, 1.3,
                                                          n_grid)
                    assert edge == pk.fd_radial_edge(dim, mode, lam, 1.3,
                                                     n_grid)
                    assert edge == tuple(complex(e[j]) for e in batch)
                    h = 1e-6 * abs(lam)
                    up = pk.fd_radial_edge(dim, mode, lam + h, 1.3, n_grid)
                    dn = pk.fd_radial_edge(dim, mode, lam - h, 1.3, n_grid)
                    scale = max(abs(d) for d in d_edge)
                    for u_up, u_dn, d in zip(up, dn, d_edge):
                        assert abs((u_up - u_dn) / (2 * h) - d) \
                            <= 1e-6 * scale, (dim, mode, n_grid, lam)
                    if abs(lam.imag) > 500:
                        # unrescaled, u_{M+1} would be far above 1e200
                        assert max(abs(edge[2].real),
                                   abs(edge[2].imag)) <= 1e200


def _counted(fdf):
    calls = []

    def wrapped(x):
        calls.append(x)
        return fdf(x)

    return wrapped, calls


def test_refiner_newton_step_leaving_bracket_bisects():
    # one cell (0, 10): from x = 5 the Newton step of atan(x - 3) lands at
    # 5 - 5 atan(2) < 0, outside the bracket (0, 5), so the next iterate is
    # the bisection point 2.5
    fdf, calls = _counted(lambda x: (math.atan(x - 3.0),
                                     1.0 / (1.0 + (x - 3.0) ** 2)))
    res = specfun.find_real_roots(lambda x: math.atan(x - 3.0), (0.0, 10.0),
                                  n_grid=1, fdf=fdf)
    assert calls[:2] == [5.0, 2.5]
    assert len(res.roots) == 1 and abs(res.roots[0] - 3.0) <= 1e-12
    # a Newton step that points out of the bracket, well under half the
    # step before last: f(5) > 0 makes the bracket (0, 5), and f' < 0 there
    # sends Newton to 5.054, next to another root of f outside it
    def g(x):
        return x - 8.0 + 4.0 * math.exp(-(x - 4.5) ** 2)

    fdf, calls = _counted(lambda x: (g(x), 1.0 - 8.0 * (x - 4.5)
                                     * math.exp(-(x - 4.5) ** 2)))
    root, _ = specfun._refine(g, fdf, 0.0, 10.0, g(0.0))
    assert calls[:2] == [5.0, 2.5]
    assert 0.0 < root < 5.0 and abs(g(root)) <= 1e-12


def test_refiner_slow_newton_bisects():
    # Newton on x^9 - 1e-9 shrinks its step by only 8/9 per iteration; a
    # step that does not halve the step before last is replaced by a
    # bisection step (23 evaluations without that rule)
    fdf, calls = _counted(lambda x: (x ** 9 - 1e-9, 9.0 * x ** 8))
    root, n = specfun._refine(None, fdf, 0.0, 1.5, -1e-9)
    assert abs(root - 0.1) <= 1e-12 and n == len(calls) <= 15


def test_refiner_zero_derivative_bisects():
    # f'(0.5) = 0 at the first iterate of the cell (0, 1)
    def f(x):
        return (x - 0.5) ** 3 - 1e-3

    fdf, calls = _counted(lambda x: (f(x), 3.0 * (x - 0.5) ** 2))
    res = specfun.find_real_roots(f, (0.0, 1.0), n_grid=1, fdf=fdf)
    assert calls[:2] == [0.5, 0.75]
    assert len(res.roots) == 1 and abs(res.roots[0] - 0.6) <= 1e-12


def test_refiner_root_on_grid_point():
    # on 4 cells both roots are grid points and nothing is refined; on 2
    # cells each root is the refiner's first iterate, an exact zero
    def f(x):
        return (x - 2.5) * (x - 7.5)

    fdf, calls = _counted(lambda x: (f(x), 2.0 * x - 10.0))
    res = specfun.find_real_roots(f, (0.0, 10.0), n_grid=4, fdf=fdf)
    assert res.roots == [2.5, 7.5] and calls == []
    res = specfun.find_real_roots(f, (0.0, 10.0), n_grid=2, fdf=fdf)
    assert res.roots == [2.5, 7.5] and calls == [2.5, 7.5]


def test_refiner_value_only_bisects():
    fdf, calls = _counted(lambda x: (math.atan(x - 3.0),
                                     1.0 / (1.0 + (x - 3.0) ** 2)))
    newton = specfun.find_real_roots(lambda x: math.atan(x - 3.0),
                                     (0.1, 10.0), fdf=fdf)
    plain = specfun.find_real_roots(lambda x: math.atan(x - 3.0),
                                    (0.1, 10.0))
    for res in (newton, plain):
        assert len(res.roots) == 1 and abs(res.roots[0] - 3.0) <= 1e-12
    # both scan and subdivide alike; without fdf the refinement bisects a
    # grid cell of width 0.0097 down to 1e-13 relative, 30 halvings or more
    scan_and_subdivision = newton.n_evals - len(calls)
    assert plain.n_evals - scan_and_subdivision >= 30
    assert len(calls) <= 5


@pytest.mark.parametrize("window, refs, fdf", [
    ((2.0, 6.0), J0_ZEROS,
     lambda x: (specfun.bessel_j(0, x).value.real,
                specfun.bessel_j(0, x).derivative.real)),
    ((1.0, 10.0), J0P_ZEROS,
     # J_0'' = -J_0'/x - J_0
     lambda x: (specfun.bessel_j(0, x).derivative.real,
                (-specfun.bessel_j(0, x).derivative / x
                 - specfun.bessel_j(0, x).value).real)),
], ids=["j0", "j0prime"])
def test_refiner_newton_evaluations_per_bracket(window, refs, fdf):
    # only the refinement calls fdf: the grid and the subdivision call f
    counted, calls = _counted(fdf)
    res = specfun.find_real_roots(lambda x: fdf(x)[0], window, fdf=counted)
    assert len(res.roots) == len(refs) == len(res.brackets)
    for root, ref in zip(res.roots, refs):
        assert abs(root - ref) <= 1e-12 * ref
    assert len(calls) <= 12 * len(res.brackets), calls
