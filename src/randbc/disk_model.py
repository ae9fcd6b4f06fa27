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
twin for every scanned list.  Both routes find their real-axis roots by one
search, specfun.ratio_roots, which reads their certified count from the same
grid values (checked by _certified_roots): the Bessel route's C and C', the
FD route's shooting-kernel F and discrete Dirichlet value u_M.  Both continue
them in Re zeta by one search, _window_roots, whose polishes end at rounding
level (specfun.complex_root_polish).  The contraction form of the boundary
condition is the secular function times a nonzero factor, checked pointwise
(contraction_route_residual).
"""
import math
from dataclasses import dataclass, field

import numpy as np

from randbc._pykernels import fd_radial_edge, fd_radial_edge_batch
from randbc.impedance import ACCRETIVE_TOL, cayley_zeta_to_xi
from randbc.specfun import (BesselEval, bessel_j, bessel_j_grid,
                            complex_root_polish, ratio_roots, scan_grid,
                            spherical_j, spherical_j_grid)
# perfbench's tracer counts the value-only search under this module's name
from randbc.specfun import find_real_roots  # noqa: F401


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


def _radial_grid(modes, lams, params):
    """C(w) and C'(w), w = sqrt(ab) lam, of each mode of modes at the
    points of lams, as two float64 arrays of shape (len(modes), len(lams)),
    from one batched kernel call over the (mode, w) pairs.  C and C' have
    no common zero at w > 0, so a point where both are 0.0 has underflowed:
    ConvergenceError for the first such mode, in the order of modes, not a
    root."""
    ws = params.wave_factor * np.asarray(lams, dtype=float)
    grid = bessel_j_grid if params.dim == 2 else spherical_j_grid
    shape = (len(modes), len(ws))
    values, derivs = (a.reshape(shape) for a in grid(
        np.repeat(np.asarray(modes, dtype=np.int64), len(ws)),
        np.tile(ws, len(modes))))
    for mode, v, d in zip(modes, values, derivs):
        lost = np.flatnonzero((v == 0.0) & (d == 0.0))
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
    and C and C' there (values).  The window must satisfy 0 < lo < hi."""

    def __init__(self, mode, params, window):
        self.mode, self.params = mode, params
        self.window = _positive_window(window)
        self.min_spacing = math.pi / params.wave_factor
        self.lams = scan_grid(self.window, self.min_spacing)
        self.radial = None

    def values(self):
        """C and C' at lams, as two float64 arrays: radial_grids' batched
        values, else evaluated by _radial_grid on first use."""
        if self.radial is None:
            self.radial = tuple(
                a[0] for a in _radial_grid((self.mode,), self.lams,
                                           self.params))
        return self.radial


def radial_grids(modes, params, window):
    """The _RadialGrid of each mode of modes on the window, their C and C'
    on the shared lam grid from one batched kernel call (_radial_grid).
    In the order of modes, as one mode solve after another would, it
    raises SpecFunError at the first invalid (mode, w) pair (all pairs are
    checked before any is evaluated), and then ConvergenceError at the
    first mode whose C and C' underflow together."""
    grids = [_RadialGrid(mode, params, window) for mode in modes]
    if grids:
        values, derivs = _radial_grid(modes, grids[0].lams, params)
        for grid, v, d in zip(grids, values, derivs):
            grid.radial = v, d
    return grids


def _radial_scan_functions(grid, pq):
    """The real part of F = q C' - p C on the real lam axis for grid's
    mode, a function of the real pair (p.real, q.real): pointwise, with its
    lam-derivative, as _radial_fdf of that pair at a float lam (the
    kernels' float arithmetic), and over a list as q.real C' - p.real C on
    grid's arrays (or _radial_grid's at other points, such as ratio_roots'
    subdivisions), next to C there.  Both equal the real part of
    the complex F up to the sign of a zero, by _pykernels' complex-by-real
    rule.  Returns (fdf, fc) for specfun.ratio_roots.

    G = F / C = q h - p, h = C'/C, is strictly decreasing between the
    zeros of C for q > 0 (h is, by J_nu'/J_nu = nu/w - sum_n 2w /
    (j_{nu,n}^2 - w^2), DLMF 10.21, and j_l'/j_l = J_nu'/J_nu - 1/(2w)),
    and the positive constant -p for q = 0 > p (Dirichlet).  For the other
    real pairs fc returns -C in place of C, which makes -G of F / (-C) so.
    """
    mode, params = grid.mode, grid.params
    p, q = pq[0].real, pq[1].real
    sign = 1.0 if q > 0.0 or (q == 0.0 and p < 0.0) else -1.0

    def fdf(lam):
        return _radial_fdf(mode, lam, params, (p, q))

    def fc(lams):
        if lams is grid.lams:
            values, derivs = grid.values()
        else:
            values, derivs = (a[0] for a in _radial_grid((mode,), lams,
                                                         params))
        return q * derivs - p * values, sign * values

    return fdf, fc


def _certified_roots(mode, window, fc, lams, fdf):
    """specfun.ratio_roots of fc on the grid lams, refined with fdf: the
    real-axis search of every route, Bessel and FD.  ConvergenceError
    unless as many roots come back as the search's certified count on the
    same grid (RootSearchResult.count, specfun.ratio_root_count)."""
    result = ratio_roots(fc, lams, fdf)
    if len(result.roots) != result.count:
        raise ConvergenceError(
            f"mode {mode}: {len(result.roots)} roots found on {window} "
            f"where the certified count is {result.count}")
    return result


def _real_axis_roots(grid, pq):
    """The real roots of the real part of q C' - p C in grid's window, lo
    included and hi not: _certified_roots on grid's C and C'.

    The count it checks is exact: the zeros of C (the Dirichlet zeros) are
    at least 3.115 apart in w (j_{0,2} - j_{0,1}, the smallest gap of
    J_nu's zeros; at least pi for nu >= 1/2), and scan_grid's cells are at
    most pi/4 wide in w, so the sign changes of C on the grid count them.
    """
    fdf, fc = _radial_scan_functions(grid, pq)
    return _certified_roots(grid.mode, grid.window, fc, grid.lams, fdf)


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
    |zeta| -> infinity they approach Dirichlet eigenvalues.  A real lam
    (Im lam = 0) is evaluated as a float, in the kernels' float arithmetic.
    """
    lam = complex(lam)
    ev = _radial(mode, params.wave_factor * (lam if lam.imag else lam.real),
                 params)
    p, q = _secular(params, zeta)
    return q * ev.derivative - p * ev.value


def _secular(params, zeta):
    """The secular function's (p, q) pair: F = q C' - p C."""
    return 1j * complex(zeta), math.sqrt(params.b / params.a)


_DIRICHLET = (-1.0, 0.0)  # F = C


def neumann_eigenvalues(mode: int, params: MaterialParams, window):
    """Real zeros of C'(sqrt(ab) lam) in the window."""
    return _real_axis_roots(radial_grids((mode,), params, window)[0],
                            _secular(params, 0.0)).roots


def dirichlet_eigenvalues(mode: int, params: MaterialParams, window):
    """Real zeros of C(sqrt(ab) lam) in the window."""
    return _real_axis_roots(radial_grids((mode,), params, window)[0],
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
# reported as stalled.  Measured per seed: at most 1,360 in the tests (the FD
# oracle's tracking grids of 40-320 nodes in the dissipative disk-spectrum
# summary; 1,492 for the secular solver, in the rounding-level continuation
# test), 31 on the benchmark's FD-continuation inputs (seeds 1-40, both
# routes).  A wrong derivative can otherwise crawl through step halvings
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


def _window_roots(scan, char_of_zeta, zeta, window, spacing):
    """The roots with Re lambda in window of one mode's characteristic
    function at impedance zeta: the one search of both routes, the secular
    solver and the FD oracle's tracking grid.

    scan(zz) is the route's certified real-axis search at impedance zz
    (_certified_roots: a RootSearchResult, or ConvergenceError);
    char_of_zeta(zz, lam) is the function and its exact lam-derivative, as
    complex_root_polish takes them.  Re zeta = 0: the spectrum is real and
    scan(zeta) gives the roots.  Re zeta > 0: the roots of scan(i Im zeta)
    seed a homotopy in Re zeta, each step a complex_root_polish, whose
    final Newton step leaves the root at rounding level.  A polished step
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
                           window, grid=None) -> ModeEigenvalues:
    """Eigenvalues of the mode under impedance zeta with Re lambda in window.

    One _window_roots search on the secular function over the mode's
    _RadialGrid on window: grid, as radial_grids builds it for many modes
    in one batched Bessel evaluation, or else radial_grids' grid of this
    mode alone.  Its real-axis scan (at zeta when Re zeta = 0, else at
    i Im zeta for the continuation's seeds) is certified: _real_axis_roots
    returns as many roots as the count ratio_roots reads from the grid's C
    and C', or raises ConvergenceError.  expected_count is that count.
    Re zeta = 0: the eigenvalues are the scan's roots, and fewer (roots
    merged) raise ConvergenceError.  Re zeta > 0: a stalled seed raises
    ConvergenceError; drifted roots and seeds whose continued roots merged
    are reported in warnings, never silently accepted.  A scan point where
    C and C' both underflow to 0.0 raises ConvergenceError.
    """
    zeta = complex(zeta)
    if zeta.real < -ACCRETIVE_TOL:
        raise DiskModelError("Re zeta < 0: not accretive")
    if grid is None:
        grid = radial_grids((mode,), params, window)[0]
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
    if stalled:
        raise ConvergenceError(
            f"mode {mode}, zeta {zeta}: continuation from seed "
            + ", ".join(f"{seed:.6g} stalled at Re zeta={s:.3g}"
                        for seed, s in stalled))
    warnings = [f"root {r:.6g} drifted out of the window" for r in drifted]
    merged = expected - len(drifted) - len(eigs)
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


def _fd_real_axis_roots(mode, zz, params, m_nodes, lams, window):
    """The real roots in window of the real part F of the FD characteristic
    function _fd_char of m_nodes nodes at an impedance zz with Re zz = 0 (up
    to ACCRETIVE_TOL): _certified_roots on the grid lams with C = u_M, the
    discrete Dirichlet value, and fdf the real part of _fd_fdf (F / lam, of
    F's sign at lam > 0).  Each list goes through fd_radial_edge_batch in
    one call, and F is _fd_char of its edge values point by point; the
    search's certified count is specfun.ratio_root_count on the grid's F
    and u_M.

    The count is exact.  With E = ab lam^2 h^2, the recurrence at node M
    gives the discrete DtN value D = (u_{M+1} - u_{M-1}) / (2 h a u_M) as
        D(E) = D(0) - beta E - gamma sum_k (w_k / E_k) E / (E_k - E),
    where beta, gamma and the w_k are positive, the E_k > 0 are the zeros
    of u_M (the eigenvalues of a Jacobi pencil), and D(0) >= 0, with
    D(0) = 0 for mode 0 (its static solution is constant).  So every term
    of D / lam decreases in lam > 0 between consecutive zeros of u_M, and
    so does G = F / (lam u_M) = D / lam + Im zz, the discrete counterpart
    of the Bessel route's DLMF 10.21 expansion; lam u_M has u_M's sign, and
    ratio_root_count reads C's signs only.  A grid cell holds at most one
    zero of u_M: the cells are at most a quarter of pi / sqrt(ab) wide
    (scan_grid), and below its cap fd_oracle's tracking grid spends at most
    half a radian of the highest wavenumber sqrt(ab) hi per node step, so
    the discrete Dirichlet zeros lie about as far apart as the Bessel zeros
    that _real_axis_roots' docstring bounds.  Where the cap binds, a step
    spans more, which limits the oracle's own resolution as much.
    """
    ab = params.a * params.b

    def fc(pts):
        edges = fd_radial_edge_batch(params.dim, mode, pts, ab, m_nodes)
        fs = [_fd_char(params, m_nodes, zz, lam, edge).real
              for lam, edge in zip(pts, zip(*(e.tolist() for e in edges)))]
        return np.array(fs), edges[1].real

    def fdf(lam):
        value, deriv = _fd_fdf(params, mode, m_nodes, zz, lam)
        return value.real, deriv.real

    return _certified_roots(mode, window, fc, lams, fdf)


def _fd_polish(params, mode, zeta, m_nodes, seeds, spacing, tol, stage,
               source):
    """Each seed polished once by complex Newton on the m_nodes grid at
    zeta (complex_root_polish, whose final Newton step brings the root to
    rounding level).  Raises ConvergenceError when a polish fails, a
    polished root lies more than a quarter of the root spacing from its
    seed (the two differ by O(h^2)), or two roots coincide.  stage and
    source name the grid and the seeds' grid in the messages."""

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
        roots.append(pol.root)
    if len(_dedupe(roots, tol)) != len(roots):
        raise ConvergenceError(
            f"FD {stage}-grid roots coincide for mode {mode}, zeta {zeta}: "
            f"{roots}")
    return roots


def oracle_window(mode: int, params: MaterialParams, lo=None, reach=None):
    """fd_oracle's default window on the lam axis: from a fifth of the root
    spacing pi / sqrt(ab) to (mode + 16) / sqrt(ab), so w = sqrt(ab) lam
    runs from 0.2 pi to mode + 16.

    For a window from lo that starts below that end and holds roots up to
    reach at or above it, the end is raised to reach plus one spacing, so
    that the oracle's lowest roots reach the window's.  A window starting
    at or above the default end keeps it: the mode's roots below lo come
    first in any window from 0.2 pi.
    """
    spacing = math.pi / params.wave_factor
    hi = (mode + 16.0) / params.wave_factor
    if reach is not None and lo < hi <= reach:
        hi = reach + spacing
    return 0.2 * spacing, hi


def _tracking_nodes(grid, params, hi):
    """fd_oracle's first tracking grid for a window ending at hi, capped at
    the coarse grid's grid // 2 nodes.  With W = sqrt(ab) hi it is the
    larger of 2 W nodes, so that a node step spans at most half a radian of
    the highest wavenumber (the resolution _fd_real_axis_roots' count
    assumes), and sqrt(W^3 / (3 pi)) nodes, so that the FD phase error at
    w = W, about W^3 h^2 / 24 with h = 1 / nodes, stays within pi / 8: an
    eighth of the root spacing, half the quarter spacing by which
    _fd_polish lets a coarse root move from its tracked one."""
    w = params.wave_factor * hi
    return min(grid // 2, max(math.ceil(2.0 * w),
                              math.ceil(math.sqrt(w ** 3 / (3.0 * math.pi)))))


def fd_oracle(mode: int, zeta, params: MaterialParams, grid=1024,
              window=None, n_values=3):
    """Lowest eigenvalues from the finite-difference pencil, independent of
    the Bessel route.

    The conservative radial scheme plus the ghost-node impedance row define a
    discrete characteristic function (divided by lam, as secular_value is)
    whose zeros are the eigenvalues of the banded FD pencil.  They come
    from the secular solver's search, _window_roots, on a tracking grid:
    found on the real axis at i Im zeta by the Bessel route's certified
    search, on the shooting kernel's F and u_M (_fd_real_axis_roots), and,
    for Re zeta > 0, continued in Re zeta.  The tracking grid only has to
    follow each branch, but it must resolve the window: it starts at
    _tracking_nodes, the larger of 2 W and sqrt(W^3 / (3 pi)) nodes with
    W = sqrt(ab) hi, capped at grid // 2.  Every continued root, in the
    window or drifted out of it, is polished on the coarse grid (grid // 2
    nodes) at zeta.  A root continued far below the real axis can outrun
    that grid; so when the search, the continuation or this coarse polish
    raises ConvergenceError, all three are redone on twice the tracking
    nodes, up to the cap, where the error is raised as it is.  The lowest
    n_values coarse roots in the window are kept.  Each is then polished on
    the fine grid (grid nodes) at zeta, and the pair is
    Richardson-extrapolated, (4 fine - coarse) / 3.  Both polish stages are
    _fd_polish.

    Raises ConvergenceError when, on the capped tracking grid, the
    real-axis count check fails, the continuation stalls or the coarse
    polish fails; when fewer than n_values coarse roots lie in the window;
    or when the fine polish fails.  A polish fails by no convergence, a
    root more than a quarter of the root spacing pi / sqrt(ab) from its
    seed, or coincident roots.
    """
    if grid < 1000:
        raise DiskModelError("grid must be >= 1e3")
    zeta = complex(zeta)
    spacing = math.pi / params.wave_factor
    if window is None:
        window = oracle_window(mode, params)
    lo, hi = _positive_window(window)
    tol = 1e-8 * max(1.0, hi)

    coarse_nodes = grid // 2
    track_nodes = _tracking_nodes(grid, params, hi)
    lams = scan_grid((lo, hi), spacing)
    while True:
        try:
            tracked, _, stalled, drifted = _window_roots(
                lambda zz: _fd_real_axis_roots(mode, zz, params, track_nodes,
                                               lams, (lo, hi)),
                lambda zz, lam: _fd_fdf(params, mode, track_nodes, zz, lam),
                zeta, (lo, hi), spacing)
            if stalled:
                raise ConvergenceError(
                    f"FD continuation failed for mode {mode}, zeta {zeta}: "
                    f"{stalled}")
            # No two coarse roots coincide, so the window filter leaves
            # nothing to dedupe: _fd_polish checks it
            coarse = _fd_polish(params, mode, zeta, coarse_nodes,
                                tracked + drifted, spacing, tol, "coarse",
                                "tracking")
            break
        except ConvergenceError:
            if track_nodes >= coarse_nodes:
                raise
            track_nodes = min(coarse_nodes, 2 * track_nodes)
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
