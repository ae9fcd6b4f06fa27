"""Constant-coefficient acoustic model on the unit disk and unit ball.

Per boundary mode the time-harmonic problem -Div(alpha^-1 grad p) = lam^2
beta p with alpha = a I, beta = b separates; the radial solution regular at
the origin is a Bessel function of w = sqrt(ab) lam (J_k on the disk,
spherical j_l on the ball).  That gives closed forms for the per-mode
Dirichlet-to-Neumann value, the Neumann-to-Dirichlet diagonal entry, and the
secular function whose zeros are the eigenvalues under a diagonal impedance
boundary condition.  An independent finite-difference shooting oracle guards
every sign convention; it shoots with one scalar kernel (fd_radial_edge, the
edge values and their lam-derivatives) for Newton steps and its lam-batched
twin for every scanned list.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from randbc._pykernels import fd_radial_edge, fd_radial_edge_batch
from randbc.impedance import ACCRETIVE_TOL, cayley_zeta_to_xi
from randbc.specfun import (BesselEval, bessel_j, bessel_j_grid,
                            complex_root_polish, find_real_roots,
                            ratio_root_count, ratio_roots, scan_grid,
                            spherical_j, spherical_j_grid)


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


def _radial(mode, w, params) -> BesselEval:
    if params.dim == 2:
        return bessel_j(mode, w)
    return spherical_j(mode, w)


def _radial_grid(mode, lams, params):
    """C(w) and C'(w), w = sqrt(ab) lam, at the points of lams, as two
    float64 arrays.  C and C' have no common zero at w > 0, so a point where
    both are 0.0 has underflowed: ConvergenceError, not a root."""
    wave_factor = params.wave_factor
    ws = [wave_factor * lam for lam in lams]
    grid = bessel_j_grid if params.dim == 2 else spherical_j_grid
    values, derivs = grid(mode, ws)
    lost = np.flatnonzero((values == 0.0) & (derivs == 0.0))
    if lost.size:
        raise ConvergenceError(
            f"mode {mode}: C(w) and C'(w) underflow to 0 at "
            f"lam = {lams[lost[0]]:.6g}, w = {ws[lost[0]]:.6g}")
    return values, derivs


def _positive_window(window):
    """(lo, hi) as floats; DiskModelError unless 0 < lo < hi."""
    lo, hi = float(window[0]), float(window[1])
    if not 0.0 < lo < hi:
        raise DiskModelError("window must satisfy 0 < lo < hi")
    return lo, hi


def _radial_fdf(mode, lam, params, pq):
    """F = q C'(w) - p C(w), w = sqrt(ab) lam, and its lam-derivative.

    Each boundary condition is a linear relation between the two boundary
    values, so every route's characteristic function is a pair pq = (p, q)
    independent of lam.  The derivative is sqrt(ab) (q C'' - p C'), with
    C'' from w^2 C'' + (d-1) w C' + (w^2 - mu) C = 0: no extra kernel call.
    """
    p, q = pq
    w = params.wave_factor * lam
    ev = _radial(mode, w, params)
    v, d = ev.value, ev.derivative
    d2 = (-((params.dim - 1) / w) * d
          - (1.0 - mode_mu(params, mode) / (w * w)) * v)
    return q * d - p * v, params.wave_factor * (q * d2 - p * d)


class _RadialGrid:
    """The uniform lam grid that the real-axis scans of one mode scan on a
    window at the interlacing-scale resolution pi / sqrt(ab) (scan_grid),
    with C(w) and C'(w) there, evaluated in one batch on first use.  Every
    scan of the mode on the window reads the same values, whatever its
    (p, q) pair; an instance lives as long as the call that made it.  The
    window must satisfy 0 < lo < hi."""

    def __init__(self, mode, params, window):
        self.mode, self.params = mode, params
        self.window = _positive_window(window)
        self.min_spacing = math.pi / params.wave_factor
        self.lams = scan_grid(self.window, min_spacing=self.min_spacing)
        self._radial = None

    def radial(self, lams):
        """C and C' at the points of lams, as two arrays: the grid's own
        values when lams is the grid, else a batch of their own."""
        if lams != self.lams:
            return _radial_grid(self.mode, lams, self.params)
        if self._radial is None:
            self._radial = _radial_grid(self.mode, lams, self.params)
        return self._radial


def _radial_scan_functions(grid, pq):
    """The real part of F = q C' - p C on the real lam axis for grid's
    mode, a function of the real pair (p.real, q.real): pointwise, with its
    lam-derivative (_radial_fdf), and over a list as q.real C' - p.real C
    on grid.radial's arrays (equal up to the sign of a zero, by _pykernels'
    complex-by-real rule), next to C there.  Returns (fdf, fc) for
    specfun.ratio_roots.

    G = F / C = q h - p, h = C'/C, is strictly decreasing between the
    zeros of C for q > 0 (h is, by J_nu'/J_nu = nu/w - sum_n 2w /
    (j_{nu,n}^2 - w^2), DLMF 10.21, and j_l'/j_l = J_nu'/J_nu - 1/(2w)),
    and the positive constant -p for q = 0 > p (Dirichlet).  For the other
    real pairs fc returns -C in place of C, which makes -G of F / (-C) so.
    """
    mode, params = grid.mode, grid.params
    p, q = pq
    sign = 1.0 if q.real > 0.0 or (q.real == 0.0 and p.real < 0.0) else -1.0

    def fdf(lam):
        value, deriv = _radial_fdf(mode, lam, params, pq)
        return value.real, deriv.real

    def fc(lams):
        values, derivs = grid.radial(lams)
        return q.real * derivs - p.real * values, sign * values

    return fdf, fc


def _certified_count(grid, pq):
    """The number of real roots of the real part of q C' - p C in grid's
    window, lo included and hi not, from grid's C and C' alone
    (specfun.ratio_root_count).

    It is exact: the zeros of C (the Dirichlet zeros) are at least 3.115
    apart in w (j_{0,2} - j_{0,1}, the smallest gap of J_nu's zeros; at
    least pi for nu >= 1/2), and scan_grid's cells are at most pi/4 wide in
    w, so the sign changes of C on the grid count them.
    """
    _, fc = _radial_scan_functions(grid, pq)
    return ratio_root_count(*fc(grid.lams))


def _real_axis_roots(grid, pq):
    """The real roots of the real part of q C' - p C in grid's window, by
    specfun.ratio_roots on grid's C and C': each grid cell where F changes
    sign holds exactly one root and is a bracket as it stands, refined by
    Newton steps on the exact derivative; only a cell that holds two roots
    (C changes sign in it and G(x_i) > 0 > G(x_{i+1})), or one next to an
    exact zero of F at its end, is subdivided.  Every root is simple, so
    suspected_double stays empty.  ConvergenceError unless as many roots
    come back as _certified_count counts."""
    fdf, fc = _radial_scan_functions(grid, pq)
    result = ratio_roots(fc, grid.lams, fdf)
    count = _certified_count(grid, pq)
    if len(result.roots) != count:
        raise ConvergenceError(
            f"mode {grid.mode}: {len(result.roots)} roots found on "
            f"{grid.window} where the certified count is {count}")
    return result


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
        um1, u_m, up1 = fd_radial_edge(params.dim, mode, lam, ab, m_nodes)[0]
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
    ev = _radial(mode, params.wave_factor * complex(lam), params)
    p, q = _secular(params, zeta)
    return q * ev.derivative - p * ev.value


def _secular(params, zeta):
    """The secular function's (p, q) pair: F = q C' - p C."""
    return 1j * complex(zeta), math.sqrt(params.b / params.a)


_DIRICHLET = (-1.0, 0.0)  # F = C


def neumann_eigenvalues(mode: int, params: MaterialParams, window):
    """Real zeros of C'(sqrt(ab) lam) in the window."""
    return _real_axis_roots(_RadialGrid(mode, params, window),
                            _secular(params, 0.0)).roots


def dirichlet_eigenvalues(mode: int, params: MaterialParams, window):
    """Real zeros of C(sqrt(ab) lam) in the window."""
    return _real_axis_roots(_RadialGrid(mode, params, window),
                            _DIRICHLET).roots


@dataclass
class ModeEigenvalues:
    mode: int
    zeta: complex
    params: MaterialParams
    eigenvalues: list
    method: str
    expected_count: int
    warnings: list = field(default_factory=list)


# char_of_zeta calls one seed's Re-zeta continuation may spend before it is
# reported as stalled.  Measured per seed: at most 1,306 in the tests (the FD
# oracle's tracking grid in the dissipative disk-spectrum summary; 727 for
# the secular solver), 30 on the benchmark's FD-continuation inputs (seeds
# 1-20, both routes).  A wrong derivative can otherwise crawl through step
# halvings without end, at up to 1,201 calls per polish.
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


def _window_roots(scan, char_of_zeta, zeta, window, spacing):
    """The roots with Re lambda in window of one mode's characteristic
    function at impedance zeta: the one search of every route.

    scan(zz) is the real-axis root search (a RootSearchResult) at
    impedance zz; char_of_zeta(zz, lam) is the function and its exact
    lam-derivative, as complex_root_polish takes them.  Re zeta = 0: the
    spectrum is real and scan(zeta) gives the roots.  Re zeta > 0: the
    roots of scan(i Im zeta) seed a homotopy in Re zeta.  A polished step
    is accepted only when the root moves at most half the root spacing,
    else the Re-zeta step is bisected, so the iteration tracks one branch.
    A seed stalls when its Re-zeta step falls below 1e-6 or it has spent
    CONTINUATION_MAX_EVALS char_of_zeta calls (at most one polish more).

    Returns (roots, search, stalled, drifted): the roots in the window,
    sorted by real part, with roots closer than 1e-8 max(1, hi) merged; the
    scan's result; a (seed, Re zeta reached) pair per stalled seed; and the
    continued roots that left the window.
    """
    lo, hi = window
    stalled = []
    if abs(zeta.real) <= ACCRETIVE_TOL:
        search = scan(zeta)
        roots = [complex(r) for r in search.roots]
    else:
        # the window is a seed window, not a completeness claim
        search = scan(complex(0.0, zeta.imag))
        schedule = _re_zeta_schedule(zeta.real)
        roots = []
        for seed in search.roots:
            z = complex(seed)
            re_prev = 0.0
            targets = list(reversed(schedule))
            evals = 0
            while targets and evals < CONTINUATION_MAX_EVALS:
                re_now = targets[-1]
                zz = complex(re_now, zeta.imag)

                def fdf(lam):
                    nonlocal evals
                    evals += 1
                    return char_of_zeta(zz, lam)

                pol = complex_root_polish(fdf, z)
                if pol.converged and abs(pol.root - z) <= 0.5 * spacing:
                    z = pol.root
                    re_prev = re_now
                    targets.pop()
                    continue
                if re_now - re_prev <= 1e-6 * max(re_now, 0.25):
                    break
                targets.append(0.5 * (re_prev + re_now))
            if targets:
                stalled.append((seed, float(targets[-1])))
            else:
                roots.append(z)
    drifted = [r for r in roots if not lo <= r.real <= hi]
    kept = _dedupe([r for r in roots if lo <= r.real <= hi],
                   1e-8 * max(1.0, hi))
    return sorted(kept, key=lambda z: z.real), search, stalled, drifted


def solve_mode_eigenvalues(mode: int, zeta, params: MaterialParams,
                           window) -> ModeEigenvalues:
    """Eigenvalues of the mode under impedance zeta with Re lambda in window.

    One _window_roots search on the secular function over one _RadialGrid,
    so one batched Bessel evaluation of the uniform grid per call.  Its
    real-axis scan (at zeta when Re zeta = 0, else at i Im zeta for the
    continuation's seeds) is certified: _real_axis_roots returns as many
    roots as _certified_count reads from the grid's C and C', or raises
    ConvergenceError.  expected_count is that count.  Re zeta = 0: the
    eigenvalues are the scan's roots, and fewer (roots merged) raise
    ConvergenceError.  Re zeta > 0: stalled seeds, drifted roots and seeds
    whose continued roots merged are reported in warnings, never silently
    accepted.  A scan point where C and C' both underflow to 0.0 raises
    ConvergenceError.
    """
    zeta = complex(zeta)
    if zeta.real < -ACCRETIVE_TOL:
        raise DiskModelError("Re zeta < 0: not accretive")
    grid = _RadialGrid(mode, params, window)
    eigs, search, stalled, drifted = _window_roots(
        lambda zz: _real_axis_roots(grid, _secular(params, zz)),
        lambda zz, lam: _radial_fdf(mode, complex(lam), params,
                                    _secular(params, zz)),
        zeta, grid.window, grid.min_spacing)
    expected = len(search.roots)
    bracketed = abs(zeta.real) <= ACCRETIVE_TOL
    if bracketed and len(eigs) != expected:
        raise ConvergenceError(
            f"mode {mode}: {expected} certified roots on {grid.window} "
            f"merged into {len(eigs)}")
    warnings = []
    for seed, s in stalled:
        warnings.append(
            f"continuation from seed {seed:.6g} stalled at Re zeta={s:.3g}")
    for r in drifted:
        warnings.append(f"root {r:.6g} drifted out of the window")
    merged = expected - len(stalled) - len(drifted) - len(eigs)
    if merged:
        warnings.append(
            f"{merged} of the {expected} certified seeds at i Im zeta "
            f"continued onto another seed's root: possible lost root")
    return ModeEigenvalues(mode=mode, zeta=zeta, params=params,
                           eigenvalues=eigs,
                           method="bracketed" if bracketed else "continuation",
                           expected_count=expected, warnings=warnings)


def _dedupe(values, tol):
    out = []
    for v in sorted(values, key=lambda z: (z.real, z.imag)):
        if not out or abs(v - out[-1]) > tol:
            out.append(v)
    return out


def _fd_char(params, m_nodes, zz, lam, edge):
    """Discrete characteristic function of the FD pencil from the shooting
    edge values (u_{M-1}, u_M, u_{M+1}); entire in lam (the shooting
    recurrence is polynomial), so safe for complex Newton polishing."""
    um1, u_m, up1 = edge
    h = 1.0 / m_nodes
    du = (up1 - um1) / (2.0 * h)
    return (du / params.a) - 1j * complex(lam) * zz * u_m


def _fd_fdf(params, mode, m_nodes, zz, lam):
    """The raw FD characteristic function divided by lam, as secular_value
    is, and its exact lam-derivative, from one forward-mode shooting pass.

    _fd_char is linear in the edge values apart from its -i lam zz u_M
    term, so its derivative F' is _fd_char of the edge derivatives minus
    i zz u_M; the quotient's is (F' lam - F) / lam^2.  Dividing removes the
    zero of the raw function at lam = 0 (mode 0, where the static solution
    is constant), which a continuation could otherwise land on.
    """
    edge, d_edge = fd_radial_edge(params.dim, mode, lam, params.a * params.b,
                                  m_nodes)
    value = _fd_char(params, m_nodes, zz, lam, edge)
    deriv = _fd_char(params, m_nodes, zz, lam, d_edge) - 1j * zz * edge[1]
    return value / lam, (deriv * lam - value) / (lam * lam)


def _fd_scan_functions(mode, zz, params, m_nodes):
    """The real part of _fd_char on the real lam axis, pointwise and over
    a list (equal value by value: a list goes through the lam-batched
    shooting kernel, whatever its length), and that of _fd_fdf, of the same
    sign at lam > 0.  Returns (f, fdf, f_grid) for find_real_roots."""
    ab = params.a * params.b

    def f(lam):
        edge = fd_radial_edge(params.dim, mode, lam, ab, m_nodes)[0]
        return _fd_char(params, m_nodes, zz, lam, edge).real

    def fdf(lam):
        value, deriv = _fd_fdf(params, mode, m_nodes, zz, lam)
        return value.real, deriv.real

    def f_grid(lams):
        edges = zip(*(e.tolist() for e in fd_radial_edge_batch(
            params.dim, mode, lams, ab, m_nodes)))
        return [_fd_char(params, m_nodes, zz, lam, edge).real
                for lam, edge in zip(lams, edges)]

    return f, fdf, f_grid


def _fd_polish(params, mode, zeta, m_nodes, seeds, spacing, tol, stage,
               source):
    """Each seed polished once by complex Newton on the m_nodes grid at
    zeta, then moved by one more Newton step: complex_root_polish returns
    the first iterate within its tolerance, up to about 1e-10 (relative)
    from the discrete root, and the step brings it to rounding level.
    Raises ConvergenceError when a polish fails, a polished root lies more
    than a quarter of the root spacing from its seed (the two differ by
    O(h^2)), or two roots coincide.  stage and source name the grid and
    the seeds' grid in the messages."""

    def fdf(lam):
        return _fd_fdf(params, mode, m_nodes, zeta, lam)

    roots = []
    for c in seeds:
        pol = complex_root_polish(fdf, c)
        if not pol.converged:
            raise ConvergenceError(
                f"FD {stage}-grid polish from {c:.6g} did not converge for "
                f"mode {mode}, zeta {zeta}")
        if abs(pol.root - c) > 0.25 * spacing:
            raise ConvergenceError(
                f"FD {stage}-grid root {pol.root:.6g} moved from its {source} "
                f"root {c:.6g} by more than a quarter spacing")
        value, deriv = fdf(pol.root)
        roots.append(pol.root - value / deriv if deriv else pol.root)
    if len(_dedupe(roots, tol)) != len(roots):
        raise ConvergenceError(
            f"FD {stage}-grid roots coincide for mode {mode}, zeta {zeta}: "
            f"{roots}")
    return roots


def fd_oracle(mode: int, zeta, params: MaterialParams, grid=1024,
              window=None, n_values=3):
    """Lowest eigenvalues from the finite-difference pencil, independent of
    the Bessel route.

    The conservative radial scheme plus the ghost-node impedance row define a
    discrete characteristic function (divided by lam, as secular_value is)
    whose zeros are the eigenvalues of the banded FD pencil.  They come
    from the secular solver's search, _window_roots, on a tracking grid of
    grid // 8 nodes: bracketed on the real axis at i Im zeta and, for
    Re zeta > 0, continued in Re zeta.  The tracking grid only has to follow
    each branch, but it must resolve the window: it is raised to
    2 sqrt(ab) hi nodes, so that one node step spans at most half a radian
    of the highest wavenumber sqrt(ab) hi, and capped at grid // 2.  Every
    continued root, in the window or drifted out of it, is polished on the
    coarse grid (grid // 2 nodes) at zeta, unless the cap makes it a coarse
    root already, and the lowest n_values of these in the window are kept.
    Each is then polished on the fine grid (grid nodes) at zeta, and the
    pair is Richardson-extrapolated, (4 fine - coarse) / 3.  Both polish
    stages are _fd_polish.

    Raises ConvergenceError when the continuation stalls, fewer than
    n_values coarse roots lie in the window, or a polish stage fails: no
    convergence, a root more than a quarter of the root spacing
    pi / sqrt(ab) from its seed, or coincident roots.
    """
    if grid < 1000:
        raise DiskModelError("grid must be >= 1e3")
    zeta = complex(zeta)
    spacing = math.pi / params.wave_factor
    if window is None:
        window = (0.2 * spacing, (mode + 16.0) / params.wave_factor)
    lo, hi = _positive_window(window)
    tol = 1e-8 * max(1.0, hi)

    coarse_nodes = grid // 2
    track_nodes = min(coarse_nodes, max(
        grid // 8, math.ceil(2.0 * params.wave_factor * hi)))

    def scan(zz):
        f, fdf, f_grid = _fd_scan_functions(mode, zz, params, track_nodes)
        return find_real_roots(f, (lo, hi), min_spacing=spacing,
                               f_grid=f_grid, fdf=fdf)

    tracked, _, stalled, drifted = _window_roots(
        scan, lambda zz, lam: _fd_fdf(params, mode, track_nodes, zz, lam),
        zeta, (lo, hi), spacing)
    if stalled:
        raise ConvergenceError(
            f"FD continuation failed for mode {mode}, zeta {zeta}: {stalled}")
    # No two coarse roots coincide, so the window filter leaves nothing to
    # dedupe: _fd_polish checks it, and at the cap _window_roots did.  At
    # the cap the tracking grid is the coarse grid, and a real-axis root is
    # refined there to rounding level already: complex_root_polish, which
    # accepts no step that fails to lower |f|, would report it unconverged.
    coarse = tracked + drifted
    if track_nodes < coarse_nodes:
        coarse = _fd_polish(params, mode, zeta, coarse_nodes, coarse,
                            spacing, tol, "coarse", "tracking")
    coarse = sorted((c for c in coarse if lo <= c.real <= hi),
                    key=lambda z: z.real)[:n_values]
    if len(coarse) < n_values:
        raise ConvergenceError(
            f"FD oracle for mode {mode}, zeta {zeta} kept {len(coarse)} "
            f"roots in the window {window}, not {n_values}")
    fine = _fd_polish(params, mode, zeta, grid, coarse, spacing, tol,
                      "fine", "coarse")
    return [(4.0 * r - c) / 3.0 for c, r in zip(coarse, fine)]


def contraction_route_residual(mode: int, zeta, lam,
                               params: MaterialParams) -> float:
    """Pointwise discrepancy between the impedance-form and contraction-form
    boundary conditions on one mode.

    The contraction form (K+I) V^-1 gamma0(p) - (K-I) V* gamma_n(a^-1 grad u)
    is algebraically proportional to the secular function; the residual is
    their difference after removing the exact factor
    (_normalized_contraction), relative to 1 + |secular value|.
    """
    lam = complex(lam)
    if lam == 0:
        raise DiskModelError("lam = 0 excluded")
    normalized = _normalized_contraction(mode, complex(zeta), lam, params)
    impedance_form = secular_value(mode, zeta, lam, params)
    return abs(normalized - impedance_form) / (1.0 + abs(impedance_form))


def _contraction(params, mode, zeta):
    """The (p, q) pair of the contraction form (K+I) V^-1 gamma0(p)
    - (K-I) V* gamma_n over lam: gamma0(p) = -i lam C, gamma_n =
    sqrt(b/a) lam C', xi the Cayley entry, V acting as (1+mu)^(-1/4)."""
    mu = mode_mu(params, mode)
    s = math.sqrt(1.0 + mu)
    xi = cayley_zeta_to_xi(zeta, mu)
    return (1j * (xi + 1.0) * s ** 0.5,
            -(xi - 1.0) * s ** -0.5 * math.sqrt(params.b / params.a))


def _normalized_contraction(mode, zeta, lam, params):
    """The contraction form over lam at lam, divided by its exact factor to
    the secular function, 2 sqrt(s) / (zeta + s), s = sqrt(1 + mu)."""
    s = math.sqrt(1.0 + mode_mu(params, mode))
    ev = _radial(mode, params.wave_factor * lam, params)
    p, q = _contraction(params, mode, zeta)
    factor = 2.0 * math.sqrt(s) / (zeta + s)
    return (q * ev.derivative - p * ev.value) / factor


def route_equivalence_report(mode: int, zeta, params: MaterialParams,
                             window) -> dict:
    """Cross-evaluate the two boundary-condition forms at each other's roots.

    The contraction form's roots come from its own _window_roots search;
    raises ConvergenceError when a seed of its continuation stalls.
    """
    zeta = complex(zeta)
    xi = cayley_zeta_to_xi(zeta, mode_mu(params, mode))
    sec = solve_mode_eigenvalues(mode, zeta, params, window)
    grid = _RadialGrid(mode, params, window)
    con_roots, _, stalled, _ = _window_roots(
        lambda zz: _real_axis_roots(grid, _contraction(params, mode, zz)),
        lambda zz, lam: _radial_fdf(mode, complex(lam), params,
                                    _contraction(params, mode, zz)),
        zeta, grid.window, grid.min_spacing)
    if stalled:
        raise ConvergenceError(
            f"contraction-form continuation failed for mode {mode}, "
            f"zeta {zeta}: {stalled}")

    def sec_scale(lam):
        _, d = _radial_fdf(mode, complex(lam), params, _secular(params, zeta))
        return max(abs(d) * max(1.0, abs(lam)), 1e-300)

    cross = 0.0
    for r in con_roots:
        cross = max(cross, abs(secular_value(mode, zeta, r, params))
                    / sec_scale(r))
    for r in sec.eigenvalues:
        cross = max(cross, abs(_normalized_contraction(mode, zeta, r, params))
                    / sec_scale(r))
    return {
        "mode": mode,
        "zeta": zeta,
        "xi": xi,
        "secular_roots": sec.eigenvalues,
        "contraction_roots": con_roots,
        "cross_residual": cross,
    }


def eigenvalue_rows(result: ModeEigenvalues):
    """CSV rows: mode, mu, Re zeta, Im zeta, Re lambda, Im lambda, method,
    residual |F(lambda)| of the secular function."""
    rows = []
    mu = mode_mu(result.params, result.mode)
    for ev in result.eigenvalues:
        res = abs(secular_value(result.mode, result.zeta, ev, result.params))
        rows.append([result.mode, mu, result.zeta.real, result.zeta.imag,
                     ev.real, ev.imag, result.method, res])
    return rows
