"""Constant-coefficient acoustic model on the unit disk and unit ball.

Per boundary mode the time-harmonic problem -Div(alpha^-1 grad p) = lam^2
beta p with alpha = a I, beta = b separates; the radial solution regular at
the origin is a Bessel function of w = sqrt(ab) lam (J_k on the disk,
spherical j_l on the ball).  That gives closed forms for the per-mode
Dirichlet-to-Neumann value, the Neumann-to-Dirichlet diagonal entry, and the
secular function whose zeros are the eigenvalues under a diagonal impedance
boundary condition.  An independent finite-difference shooting oracle guards
every sign convention.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from randbc._pykernels import (fd_radial_edge, fd_radial_edge_batch,
                               fd_radial_edge_dlam)
from randbc.impedance import ACCRETIVE_TOL, cayley_zeta_to_xi
from randbc.specfun import (BesselEval, bessel_j, bessel_j_grid,
                            complex_root_polish, find_real_roots, spherical_j,
                            spherical_j_grid)


class DiskModelError(ValueError):
    pass


class ConvergenceError(RuntimeError):
    """A root refinement failed to converge; distinct from a wrong answer."""


@dataclass(frozen=True)
class MaterialParams:
    """Isotropic constant material constants alpha = a I, beta = b."""
    a: float = 1.0
    b: float = 1.0
    dim: int = 2

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise DiskModelError("material constants must be positive")
        if self.dim not in (2, 3):
            raise DiskModelError("dim must be 2 (disk) or 3 (ball)")

    @property
    def wave_factor(self):
        return math.sqrt(self.a * self.b)


def mode_mu(params: MaterialParams, mode: int) -> float:
    """Laplace-Beltrami eigenvalue of the boundary mode."""
    if mode < 0:
        raise DiskModelError("mode index must be >= 0")
    return float(mode * mode if params.dim == 2 else mode * (mode + 1))


@dataclass(frozen=True)
class ModeProblem:
    """One boundary mode of the impedance problem."""
    mode: int
    zeta: complex
    params: MaterialParams

    def __post_init__(self):
        if complex(self.zeta).real < -ACCRETIVE_TOL:
            raise DiskModelError(
                f"Re zeta = {complex(self.zeta).real:.3g} < 0: not accretive")

    @property
    def mu(self):
        return mode_mu(self.params, self.mode)


def _radial(mode, w, params) -> BesselEval:
    if params.dim == 2:
        return bessel_j(mode, w)
    return spherical_j(mode, w)


def _radial_grid(mode, ws, params):
    if params.dim == 2:
        return bessel_j_grid(mode, ws)
    return spherical_j_grid(mode, ws)


def _radial_fdf(mode, lam, params, char):
    """char(lam, C(w), C'(w)), w = sqrt(ab) lam, and its lam-derivative.

    char must be linear in (C, C') with lam-independent coefficients, as
    the secular, Dirichlet and contraction/lam forms are.  Then the
    derivative is sqrt(ab) char(lam, C'(w), C''(w)), with C'' from the
    radial equation w^2 C'' + (d-1) w C' + (w^2 - mu) C = 0: no extra
    kernel call.
    """
    w = params.wave_factor * lam
    ev = _radial(mode, w, params)
    v, d = ev.value, ev.derivative
    d2 = (-((params.dim - 1) / w) * d
          - (1.0 - mode_mu(params, mode) / (w * w)) * v)
    return char(lam, v, d), params.wave_factor * char(lam, d, d2)


def _radial_scan_functions(mode, params, char):
    """The real part of char(lam, C(w), C'(w)), w = sqrt(ab) lam, on the
    real lam axis: pointwise, with its lam-derivative (_radial_fdf), and
    over a grid (equal value by value: the grid goes through the batched
    Bessel kernels).  Returns (f, fdf, f_grid) for find_real_roots."""

    def fdf(lam):
        value, deriv = _radial_fdf(mode, lam, params, char)
        return value.real, deriv.real

    def f(lam):
        return fdf(lam)[0]

    def f_grid(lams):
        values, derivs = _radial_grid(
            mode, [params.wave_factor * lam for lam in lams], params)
        return [char(lam, v, d).real for lam, v, d
                in zip(lams, values.tolist(), derivs.tolist())]

    return f, fdf, f_grid


def _real_axis_roots(mode, params, char, window):
    """find_real_roots on the real part of char(lam, C(w), C'(w)), at the
    interlacing-scale resolution, with the grid scanned in one batch and
    each bracket refined by Newton steps on the exact derivative."""
    f, fdf, f_grid = _radial_scan_functions(mode, params, char)
    return find_real_roots(f, window, min_spacing=math.pi / params.wave_factor,
                           f_grid=f_grid, fdf=fdf)


@dataclass(frozen=True)
class NtDSample:
    """Diagonal entry of the Neumann-to-Dirichlet map on one mode."""
    mode: int
    lam: complex
    value: complex
    dtn_pole: bool


def dtn_mode(mode: int, lam, params: MaterialParams) -> complex:
    """m_DtN(lam^2) on the mode: boundary co-normal over boundary trace.

    With u(r) the regular radial solution, m = (1/a) u'(1) / u(1)
    = sqrt(b/a) lam C'(w) / C(w), w = sqrt(ab) lam.
    """
    lam = complex(lam)
    w = params.wave_factor * lam
    ev = _radial(mode, w, params)
    if ev.value == 0:
        raise DiskModelError(f"lam={lam} is a Dirichlet resonance of mode {mode}")
    return math.sqrt(params.b / params.a) * lam * ev.derivative / ev.value


def ntd_mode(mode: int, lam, params: MaterialParams) -> NtDSample:
    """NtD diagonal entry via M_DtN(lam) = -(1/lam) m_DtN(lam^2) and
    M_NtD = -M_DtN^{-1}; collapses to sqrt(a/b) C(w)/C'(w).

    At a Dirichlet resonance (C(w) = 0) the DtN value has a pole and the NtD
    value is a regular zero: the sample is returned with dtn_pole set.
    """
    lam = complex(lam)
    if lam == 0:
        raise DiskModelError("lam = 0 excluded (static mode)")
    w = params.wave_factor * lam
    ev = _radial(mode, w, params)
    if ev.derivative == 0:
        raise DiskModelError(
            f"lam={lam} is a Neumann resonance of mode {mode}: NtD pole")
    value = math.sqrt(params.a / params.b) * ev.value / ev.derivative
    scale = max(abs(ev.value), abs(ev.derivative))
    pole = abs(ev.value) <= 1e-12 * scale
    return NtDSample(mode=mode, lam=lam, value=value, dtn_pole=pole)


def fd_dtn_value(mode: int, lam, params: MaterialParams, grid=50_000) -> complex:
    """Finite-difference oracle for the DtN value, Richardson-extrapolated.

    Independent of the Bessel route: integrates the radial equation with the
    conservative second-order scheme on two grids.
    """
    if grid < 1000:
        raise DiskModelError("grid must be >= 1e3")
    lam = complex(lam)
    ab = params.a * params.b
    out = []
    for m_nodes in (grid // 2, grid):
        um1, u_m, up1 = fd_radial_edge(params.dim, mode, lam, ab, m_nodes)
        h = 1.0 / m_nodes
        du = (up1 - um1) / (2.0 * h)
        out.append((du / params.a) / u_m)
    return (4.0 * out[1] - out[0]) / 3.0


def secular_value(mode: int, zeta, lam, params: MaterialParams) -> complex:
    """Characteristic function F(lam) = sqrt(b/a) C'(w) - i zeta C(w).

    Zeros are the mode eigenvalues of the impedance operator: the boundary
    condition zeta gamma0(p) = -gamma_n(alpha^-1 grad u) with p = -i lam u
    divided by lam.  At zeta = 0 the zeros are Neumann eigenvalues; as
    |zeta| -> infinity they approach Dirichlet eigenvalues.
    """
    lam = complex(lam)
    w = params.wave_factor * lam
    ev = _radial(mode, w, params)
    return _secular(params, zeta, ev.value, ev.derivative)


def _secular(params, zeta, value, derivative):
    return (math.sqrt(params.b / params.a) * derivative
            - 1j * complex(zeta) * value)


def neumann_eigenvalues(mode: int, params: MaterialParams, window):
    """Real zeros of C'(sqrt(ab) lam) in the window."""
    return _real_axis_roots(mode, params,
                            lambda lam, v, d: _secular(params, 0.0, v, d),
                            window).roots


def dirichlet_eigenvalues(mode: int, params: MaterialParams, window):
    """Real zeros of C(sqrt(ab) lam) in the window."""
    return _real_axis_roots(mode, params, lambda lam, v, d: v, window).roots


@dataclass
class ModeEigenvalues:
    mode: int
    zeta: complex
    params: MaterialParams
    eigenvalues: list
    method: str
    expected_count: int
    warnings: list = field(default_factory=list)

    def max_imag(self):
        return max((ev.imag for ev in self.eigenvalues), default=-math.inf)


# char_of_zeta calls one seed's Re-zeta continuation may spend before it is
# reported as stalled.  Measured per seed: at most 1,716 in the tests (the
# dissipative disk-spectrum summary), 30 on the benchmark's FD-continuation
# inputs.  A wrong derivative can otherwise crawl through step halvings
# without end, at up to 1,201 calls per polish.
CONTINUATION_MAX_EVALS = 5000


def _re_zeta_schedule(re_part):
    """Geometric homotopy targets: roots move like log(Re zeta), so linear
    stepping would need millions of polishes for the Dirichlet limit."""
    if re_part <= 0.25:
        return list(np.linspace(0.0, re_part, 5)[1:])
    targets = list(np.linspace(0.0, 0.25, 5)[1:])
    while targets[-1] < re_part:
        targets.append(min(2.0 * targets[-1], re_part))
    return targets


def _continue_in_re_zeta(char_of_zeta, zeta, seeds, step_cap=1.5):
    """Homotopy in Re zeta from the imaginary-axis solution, Newton-polished.

    char_of_zeta(zz, lam) returns the characteristic function at impedance
    zz and its exact lam-derivative, as complex_root_polish takes them.

    A step is accepted only when the root moves less than step_cap (half a
    typical root spacing); otherwise the zeta-step is bisected, so the
    iteration tracks one branch instead of hopping to a neighbor.  A seed
    whose Re-zeta step falls below 1e-6, or that has spent
    CONTINUATION_MAX_EVALS char_of_zeta calls (at most one polish more), is
    reported in failures with the Re zeta it stalled at.
    """
    re_part, im_part = zeta.real, zeta.imag
    schedule = _re_zeta_schedule(re_part)
    roots, failures = [], []
    for seed in seeds:
        z = complex(seed)
        re_prev = 0.0
        targets = list(reversed(schedule))
        evals = 0
        while targets and evals < CONTINUATION_MAX_EVALS:
            re_now = targets[-1]
            zz = complex(re_now, im_part)

            def fdf(lam):
                nonlocal evals
                evals += 1
                return char_of_zeta(zz, lam)

            pol = complex_root_polish(fdf, z)
            if pol.converged and abs(pol.root - z) <= step_cap:
                z = pol.root
                re_prev = re_now
                targets.pop()
                continue
            if re_now - re_prev <= 1e-6 * max(re_now, 0.25):
                break
            targets.append(0.5 * (re_prev + re_now))
        if targets:
            failures.append((seed, float(targets[-1])))
        else:
            roots.append(z)
    return roots, failures


def solve_mode_eigenvalues(mode: int, zeta, params: MaterialParams, window,
                           budget=None) -> ModeEigenvalues:
    """Eigenvalues of the mode under impedance zeta with Re lambda in window.

    Re zeta = 0: the spectrum is real; bracketed search with
    Neumann/Dirichlet-interlacing-scale resolution.  Re zeta > 0: homotopy
    continuation in Re zeta from the imaginary-axis roots.  A mismatch with
    the zeta = 0 interlacing count is reported in warnings, never silently
    accepted.
    """
    zeta = complex(zeta)
    if zeta.real < -ACCRETIVE_TOL:
        raise DiskModelError("Re zeta < 0: not accretive")
    lo, hi = float(window[0]), float(window[1])
    if not 0.0 < lo < hi:
        raise DiskModelError("window must satisfy 0 < lo < hi")
    spacing = math.pi / params.wave_factor
    expected = len(neumann_eigenvalues(mode, params, (lo, hi)))

    def char_of_zeta(zz, lam):
        return _radial_fdf(mode, complex(lam), params,
                           lambda lam, v, d: _secular(params, zz, v, d))

    warnings = []
    if abs(zeta.real) <= ACCRETIVE_TOL:
        res = _real_axis_roots(
            mode, params, lambda lam, v, d: _secular(params, zeta, v, d),
            (lo, hi))
        eigs = [complex(r) for r in res.roots]
        if res.suspected_double:
            warnings.append(f"suspected double roots at {res.suspected_double}")
        method = "bracketed"
    else:
        # seeds: real roots of the imaginary-axis problem inside the window;
        # their continuations are the reported set (the window is a seed
        # window, not a completeness claim -- see module docs)
        seed_zeta = complex(0.0, zeta.imag)
        seed_res = _real_axis_roots(
            mode, params, lambda lam, v, d: _secular(params, seed_zeta, v, d),
            (lo, hi))
        roots, failures = _continue_in_re_zeta(char_of_zeta, zeta,
                                               seed_res.roots,
                                               step_cap=0.5 * spacing)
        for seed, s in failures:
            warnings.append(
                f"continuation from seed {seed:.6g} stalled at Re zeta={s:.3g}")
        drifted = [r for r in roots if not lo <= r.real <= hi]
        for r in drifted:
            warnings.append(f"root {r:.6g} drifted out of the window")
        eigs = [r for r in roots if lo <= r.real <= hi]
        eigs = _dedupe(eigs, 1e-8 * max(1.0, hi))
        method = "continuation"
    if budget is not None:
        eigs = sorted(eigs, key=lambda z: z.real)[:budget]
    eigs = sorted(eigs, key=lambda z: z.real)
    if len(eigs) != expected:
        warnings.append(
            f"count {len(eigs)} differs from zeta=0 interlacing count "
            f"{expected}: possible lost or migrated root")
    return ModeEigenvalues(mode=mode, zeta=zeta, params=params,
                           eigenvalues=eigs, method=method,
                           expected_count=expected, warnings=warnings)


def _dedupe(values, tol):
    out = []
    for v in sorted(values, key=lambda z: (z.real, z.imag)):
        if not out or abs(v - out[-1]) > tol:
            out.append(v)
    return out


def _fd_char(params, m_nodes, zz, lam, edge, normalize=False):
    """Discrete characteristic function of the FD pencil from the shooting
    edge values (u_{M-1}, u_M, u_{M+1}).

    Raw, it is entire in lam (the shooting recurrence is polynomial): safe
    for complex Newton polishing.  Normalized, it is divided by a positive
    scale for bracketing: same zeros and signs.
    """
    um1, u_m, up1 = edge
    h = 1.0 / m_nodes
    du = (up1 - um1) / (2.0 * h)
    value = (du / params.a) - 1j * complex(lam) * zz * u_m
    if not normalize:
        return value
    return value / (abs(u_m) + abs(du) / (1.0 + abs(params.wave_factor * lam)))


def _fd_fdf(params, mode, m_nodes, zz, lam):
    """The raw FD characteristic function and its exact lam-derivative, from
    one forward-mode shooting pass.  _fd_char is linear in the edge values
    apart from its -i lam zz u_M term, so the derivative is _fd_char of the
    edge derivatives minus i zz u_M."""
    edge, d_edge = fd_radial_edge_dlam(params.dim, mode, lam,
                                       params.a * params.b, m_nodes)
    return (_fd_char(params, m_nodes, zz, lam, edge),
            _fd_char(params, m_nodes, zz, lam, d_edge) - 1j * zz * edge[1])


def _fd_scan_functions(mode, zz, params, m_nodes):
    """The real part of the normalized FD characteristic function on the
    real lam axis, pointwise and over a grid (equal value by value: the
    grid goes through the lam-batched shooting kernel), and the real part
    of the raw one with its derivative (same sign).  Returns
    (f, fdf, f_grid) for find_real_roots."""
    ab = params.a * params.b

    def f(lam):
        edge = fd_radial_edge(params.dim, mode, lam, ab, m_nodes)
        return _fd_char(params, m_nodes, zz, lam, edge, True).real

    def fdf(lam):
        value, deriv = _fd_fdf(params, mode, m_nodes, zz, lam)
        return value.real, deriv.real

    def f_grid(lams):
        edges = zip(*(e.tolist() for e in fd_radial_edge_batch(
            params.dim, mode, lams, ab, m_nodes)))
        return [_fd_char(params, m_nodes, zz, lam, edge, True).real
                for lam, edge in zip(lams, edges)]

    return f, fdf, f_grid


def fd_oracle(mode: int, zeta, params: MaterialParams, grid=1024,
              window=None, n_values=3):
    """Lowest eigenvalues from the finite-difference pencil, independent of
    the Bessel route.

    The conservative radial scheme plus the ghost-node impedance row define a
    discrete characteristic function whose zeros are the eigenvalues of the
    banded FD pencil; they are located by the same bracket/continuation
    strategy and Richardson-extrapolated across grids (grid/2, grid).
    """
    if grid < 1000:
        raise DiskModelError("grid must be >= 1e3")
    zeta = complex(zeta)
    spacing = math.pi / params.wave_factor
    if window is None:
        window = (0.2 * spacing, (mode + 16.0) / params.wave_factor)
    lo, hi = window

    per_grid = []
    for m_nodes in (grid // 2, grid):
        f, fdf, f_grid = _fd_scan_functions(mode, complex(0.0, zeta.imag),
                                            params, m_nodes)
        seed_res = find_real_roots(f, (lo, hi), min_spacing=spacing,
                                   f_grid=f_grid, fdf=fdf)
        seeds = seed_res.roots
        if abs(zeta.real) <= ACCRETIVE_TOL:
            roots = [complex(r) for r in seeds]
        else:
            roots, failures = _continue_in_re_zeta(
                lambda zz, lam: _fd_fdf(params, mode, m_nodes, zz, lam),
                zeta, seeds, step_cap=0.5 * spacing)
            if failures:
                raise ConvergenceError(
                    f"FD continuation failed for mode {mode}, zeta {zeta}: "
                    f"{failures}")
        roots = [r for r in roots if lo <= r.real <= hi]
        roots = _dedupe(roots, 1e-8 * max(1.0, hi))
        roots = sorted(roots, key=lambda z: z.real)[:n_values]
        per_grid.append(roots)
    coarse, fine = per_grid
    if len(coarse) != len(fine):
        raise ConvergenceError(
            f"FD root counts differ across grids: {len(coarse)} vs {len(fine)}")
    return [(4.0 * f - c) / 3.0 for c, f in zip(coarse, fine)]


def contraction_route_residual(mode: int, zeta, lam,
                               params: MaterialParams) -> float:
    """Pointwise discrepancy between the impedance-form and contraction-form
    boundary conditions on one mode.

    The contraction form (K+I) V^-1 gamma0(p) - (K-I) V* gamma_n(a^-1 grad u)
    with the Cayley entry xi and V acting as (1+mu)^(-1/4) is algebraically
    proportional to the secular function; the residual is the normalized
    difference after removing the exact proportionality factor
    2 sqrt(s) lam / (zeta + s), s = sqrt(1 + mu).
    """
    zeta = complex(zeta)
    lam = complex(lam)
    if lam == 0:
        raise DiskModelError("lam = 0 excluded")
    s = math.sqrt(1.0 + mode_mu(params, mode))
    w = params.wave_factor * lam
    ev = _radial(mode, w, params)
    factor = 2.0 * math.sqrt(s) * lam / (zeta + s)
    normalized = _contraction(params, mode, zeta, lam, ev.value,
                              ev.derivative) / factor
    impedance_form = secular_value(mode, zeta, lam, params)
    return abs(normalized - impedance_form) / (1.0 + abs(impedance_form))


def _contraction(params, mode, zz, lam, value, derivative):
    """The raw contraction form (K+I) V^-1 gamma0(p) - (K-I) V* gamma_n of
    the boundary condition, from C(w) and C'(w) at w = sqrt(ab) lam."""
    mu = mode_mu(params, mode)
    s = math.sqrt(1.0 + mu)
    gamma0_p = -1j * lam * value
    gamma_n = math.sqrt(params.b / params.a) * lam * derivative
    xi_s = cayley_zeta_to_xi(zz, mu)
    return ((xi_s + 1.0) * s ** 0.5 * gamma0_p
            - (xi_s - 1.0) * s ** -0.5 * gamma_n)


def route_equivalence_report(mode: int, zeta, params: MaterialParams,
                             window) -> dict:
    """Cross-evaluate the two boundary-condition forms at each other's roots."""
    zeta = complex(zeta)
    mu = mode_mu(params, mode)
    s = math.sqrt(1.0 + mu)
    xi = cayley_zeta_to_xi(zeta, mu)

    def contraction_over_lam(zz):
        # written as the raw contraction form, solved independently
        return lambda lam, v, d: _contraction(params, mode, zz, lam, v, d) / lam

    def contraction_scan(zz):
        return _real_axis_roots(mode, params, contraction_over_lam(zz), window)

    sec = solve_mode_eigenvalues(mode, zeta, params, window)
    spacing = math.pi / params.wave_factor
    if abs(zeta.real) <= ACCRETIVE_TOL:
        con_res = contraction_scan(zeta)
        con_roots = [complex(r) for r in con_res.roots]
    else:
        seed_res = contraction_scan(complex(0, zeta.imag))
        con_roots, _ = _continue_in_re_zeta(
            lambda zz, lam: _radial_fdf(mode, complex(lam), params,
                                        contraction_over_lam(zz)),
            zeta, seed_res.roots, step_cap=0.5 * spacing)
        con_roots = [r for r in con_roots
                     if window[0] <= r.real <= window[1]]

    def sec_scale(lam):
        _, d = _radial_fdf(mode, complex(lam), params,
                           lambda lam, v, d: _secular(params, zeta, v, d))
        return max(abs(d) * max(1.0, abs(lam)), 1e-300)

    cross = 0.0
    for r in con_roots:
        cross = max(cross, abs(secular_value(mode, zeta, r, params))
                    / sec_scale(r))
    for r in sec.eigenvalues:
        factor = 2.0 * math.sqrt(s) * r / (zeta + s)
        ev = _radial(mode, params.wave_factor * r, params)
        val = _contraction(params, mode, zeta, r, ev.value,
                           ev.derivative) / factor
        cross = max(cross, abs(val) / sec_scale(r))
    return {
        "mode": mode,
        "zeta": zeta,
        "xi": xi,
        "secular_roots": sec.eigenvalues,
        "contraction_roots": con_roots,
        "cross_residual": cross,
    }


def eigenvalue_rows(result: ModeEigenvalues, residual_fn=None):
    """CSV rows: mode, mu, Re zeta, Im zeta, Re lambda, Im lambda, method, residual."""
    rows = []
    mu = mode_mu(result.params, result.mode)
    for ev in result.eigenvalues:
        res = (abs(secular_value(result.mode, result.zeta, ev, result.params))
               if residual_fn is None else residual_fn(ev))
        rows.append([result.mode, mu, result.zeta.real, result.zeta.imag,
                     ev.real, ev.imag, result.method, res])
    return rows
