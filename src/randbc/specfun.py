"""Bessel functions of the first kind and robust scalar root finding.

Self-contained: evaluation goes through the kernels in randbc._pykernels
(power series, backward Miller recurrence, large-argument asymptotics), never
through an external special-function library.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from randbc._pykernels import (bessel_jk, bessel_jk_batch, spherical_jl,
                               spherical_jl_batch)

MAX_ORDER = 200
MAX_ABS_ARGUMENT = 1.0e4


class SpecFunError(ValueError):
    pass


@dataclass(frozen=True)
class BesselEval:
    """One evaluation J_k(x) (or spherical j_l(x)) with its derivative.

    The argument, value and derivative are floats for a real argument (the
    kernels run in float arithmetic) and complex for a complex one."""
    order: int
    argument: float | complex
    value: float | complex
    derivative: float | complex


def _check_order(order):
    if order < 0 or order != int(order):
        raise SpecFunError(
            f"order must be a nonnegative integer, got {order!r}")
    if order > MAX_ORDER:
        raise SpecFunError(
            f"order {order} exceeds the validated maximum {MAX_ORDER}")


def _check_x(x, name):
    if abs(x) > MAX_ABS_ARGUMENT:
        raise SpecFunError(f"|x|={abs(x):.3g} outside validated range")
    if abs(x.imag) > 600.0:
        raise SpecFunError(
            f"Im x too large: {name} would overflow double range")


def _check_arguments(order, xs, name):
    """Raise SpecFunError unless every (order, x) pair of a grid is valid:
    the order an integer in [0, MAX_ORDER] (_check_order) and x inside the
    validated range (_check_x).  order is one order for every x of xs,
    checked first, or an array of one order per x; the pairs are checked
    in the order of xs, each order before its x.

    The pointwise evaluations make the same two checks, so a grid scan
    fails where its first invalid point would, and a scan of many modes
    where the first of them, in their order, would.  An integer order
    array and a real array pass in one numpy pass each when their extremes
    are in range; only otherwise does the loop look for the first invalid
    pair.
    """
    orders = np.asarray(order)
    if orders.ndim == 0:
        _check_order(order)
    elif not (orders.dtype.kind in "iu" and (not orders.size or (
            orders.min() >= 0 and orders.max() <= MAX_ORDER))):
        # not an integer array in range: pair by pair, to the first bad one
        for k, x in zip(np.broadcast_to(orders, np.shape(xs)).tolist(), xs):
            _check_order(k)
            _check_x(x, name)
    if (isinstance(xs, np.ndarray) and xs.dtype.kind == "f" and xs.size
            and np.abs(xs).max() <= MAX_ABS_ARGUMENT):
        return
    for x in xs:
        _check_x(x, name)


def _scalar(x):
    """x as a Python complex if it is complex, else as a float: the type
    the kernels evaluate it in."""
    return complex(x) if isinstance(x, complex) else float(x)


def bessel_j(k: int, x) -> BesselEval:
    """Evaluate J_k(x) and J_k'(x) for integer order k >= 0.

    Validated for |x| <= 1e4; orders above 200 are rejected (unnormalized
    recurrence scales overflow well before that, this keeps the contract
    honest).
    """
    _check_order(k)
    _check_x(x, "J_k")
    x = _scalar(x)
    v, d = bessel_jk(int(k), x)
    return BesselEval(int(k), x, v, d)


def spherical_j(l: int, x) -> BesselEval:
    """Evaluate spherical j_l(x) and j_l'(x) for integer order l >= 0."""
    _check_order(l)
    _check_x(x, "j_l")
    x = _scalar(x)
    v, d = spherical_jl(int(l), x)
    return BesselEval(int(l), x, v, d)


def bessel_j_grid(k, xs):
    """J_k and J_k' at each real x of xs, as two float64 arrays, where k
    is one order for every x or an integer array of one order per x: the
    (order, x) pairs of many modes' scans go through one call.

    Equal (==) to bessel_j's value and derivative pair by pair, in one
    batched kernel call; raises the SpecFunError bessel_j raises at the
    first invalid pair, in the order of xs.
    """
    xs = np.asarray(xs)
    _check_arguments(k, xs, "J_k")
    return bessel_jk_batch(k, xs)


def spherical_j_grid(l, xs):
    """spherical_j's value and derivative at each real x of xs, to one
    order l or to one order per x, batched like bessel_j_grid."""
    xs = np.asarray(xs)
    _check_arguments(l, xs, "j_l")
    return spherical_jl_batch(l, xs)


def _opposite_signs(a, b):
    """a and b are of strictly opposite signs (0 is of neither sign),
    elementwise over arrays.  A product test a * b < 0 would read two
    values below about 1e-162 in magnitude as 0, their product having
    underflowed."""
    return ((a < 0.0) & (b > 0.0)) | ((a > 0.0) & (b < 0.0))


@dataclass(frozen=True)
class RootBracket:
    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not _opposite_signs(self.f_lo, self.f_hi):
            raise SpecFunError("bracket endpoints must have opposite signs")


@dataclass
class RootSearchResult:
    roots: list = field(default_factory=list)
    brackets: list = field(default_factory=list)
    n_evals: int = 0
    count: int | None = None


def _refine(fdf, bracket):
    """Root of a RootBracket from fdf(x) = (f(x), f'(x)): safeguarded Newton
    (rtsafe), with a bisection step wherever f' is 0.0 (find_real_roots
    passes 0.0 always).

    The first iterate is the secant point of the bracket's end values, the
    root of the line through (lo, f_lo) and (hi, f_hi), or the midpoint
    where that point is not finite or not strictly inside.  A Newton step
    is taken only when it lands strictly inside the bracket and is at most
    half the step before last; otherwise the bracket is bisected.  Every
    iterate shrinks the bracket by its sign.  Stops on an exact zero, on a
    Newton step of at most 1e-13 relative (returning its end point, so a
    step that rounds to nothing ends the search), or when the bracket is
    1e-13 relative wide.  Returns (root, evaluations).
    """
    lo, hi, f_lo = bracket.lo, bracket.hi, bracket.f_lo
    n = 0
    x = lo + (hi - lo) * (f_lo / (f_lo - bracket.f_hi))
    if not (math.isfinite(x) and lo < x < hi):
        x = 0.5 * (lo + hi)
    step = step_before = hi - lo
    for _ in range(200):
        fx, dfx = fdf(x)
        n += 1
        if fx == 0.0:
            return x, n
        if (fx < 0.0) == (f_lo < 0.0):
            lo, f_lo = x, fx
        else:
            hi = x
        if dfx != 0.0:
            newton = x - fx / dfx
            if abs(newton - x) <= 1e-13 * max(1.0, abs(x)):
                return newton, n
            if lo < newton < hi and (
                    abs(newton - x) <= 0.5 * abs(step_before)):
                step_before, step = step, newton - x
                x = newton
                continue
        step_before, step = step, 0.5 * (hi - lo)
        x = 0.5 * (lo + hi)
        if hi - lo <= 1e-13 * max(1.0, abs(x)) or not lo < x < hi:
            break
    return x, n


SUBDIVISIONS = 16


def _subdivision(lo, hi):
    """The SUBDIVISIONS + 1 equally spaced points of [lo, hi], ends
    included."""
    return [lo + (hi - lo) * i / SUBDIVISIONS for i in range(SUBDIVISIONS + 1)]


def _uniform_grid(window, n_cells):
    """The n_cells + 1 equally spaced points of the window, ends included."""
    a, b = float(window[0]), float(window[1])
    if not a < b:
        raise SpecFunError(f"empty window {window!r}")
    return [a + (b - a) * i / n_cells for i in range(n_cells + 1)]


def _cells(window, min_spacing):
    """4 cells per min_spacing on the window, rounded up."""
    return math.ceil(4.0 * (float(window[1]) - float(window[0])) / min_spacing)


def scan_grid(window, min_spacing):
    """The uniform grid that ratio_roots scans on the window, at the
    resolution its certificate needs: ceil(4 (hi - lo) / min_spacing)
    cells, each at most a quarter of min_spacing wide.  With min_spacing
    pi / sqrt(ab), a cell spans at most pi/4 in w and so holds at most one
    zero of C (DLMF 10.21 interlacing); a window of one cell or less is one
    cell."""
    return _uniform_grid(window, _cells(window, min_spacing))


# cells of find_real_roots' value-only grid, at least
VALUE_SCAN_CELLS = 1024


def find_real_roots(f, window, min_spacing) -> RootSearchResult:
    """The real roots of a scalar function on a window from its values
    alone: a value-only reference for the certified searches of ratio_roots.

    f is evaluated on a uniform grid of VALUE_SCAN_CELLS cells, or of
    scan_grid's cell count where that is more.  A point where f is exactly
    0.0 is a root as it stands (the window's upper end excepted), and each
    cell where f changes sign is a bracket, bisected to its root (_refine
    with f' = 0.0).  A cell is taken to hold one root: f must change sign
    at most once per cell, as it does when its roots lie more than a cell
    apart, so the grid is kept fine.  `n_evals` counts f's evaluations.
    """
    xs = _uniform_grid(window, max(VALUE_SCAN_CELLS,
                                   _cells(window, min_spacing)))
    fs = [float(f(x)) for x in xs]
    result = RootSearchResult(
        roots=[x for x, v in zip(xs[:-1], fs[:-1]) if v == 0.0],
        n_evals=len(xs))
    for i in range(len(xs) - 1):
        if _opposite_signs(fs[i], fs[i + 1]):
            br = RootBracket(xs[i], xs[i + 1], fs[i], fs[i + 1])
            root, n = _refine(lambda x: (f(x), 0.0), br)
            result.n_evals += n
            result.brackets.append(br)
            result.roots.append(root)
    result.roots.sort()
    return result


def ratio_root_count(fs, cs):
    """The number of roots of F in [xs[0], xs[-1]) from F and C on the
    points xs of a grid, as two arrays fs and cs, where G = F / C is
    strictly decreasing between consecutive zeros of C (the poles of G), or
    a positive constant, and a cell of the grid holds at most one zero of C.

    With m the sign changes of C on the grid (a point of xs[:-1] where C is
    exactly 0.0 counts once), the count is m - 1 + [G(lo) >= 0] +
    [G(hi) < 0] for m >= 1 and [G(lo) >= 0 > G(hi)] for m = 0: one root
    between consecutive poles, one before the first pole when G(lo) >= 0,
    one after the last when G(hi) < 0.  At an end where C is 0.0, G(lo)
    stands for its right limit (+inf, or the constant when F is 0.0 there
    too) and G(hi) for its left limit (-inf, or the constant).  Only signs
    are compared, so no product underflows.
    """
    m = (int(np.count_nonzero(_opposite_signs(cs[:-1], cs[1:])))
         + int(np.count_nonzero(cs[:-1] == 0.0)))
    f_lo, c_lo, f_hi, c_hi = (float(v) for v in (fs[0], cs[0], fs[-1], cs[-1]))
    at_lo = not _opposite_signs(f_lo, c_lo) if c_lo != 0.0 else f_lo == 0.0
    at_hi = _opposite_signs(f_hi, c_hi) if c_hi != 0.0 else f_hi != 0.0
    if m == 0:
        return int(at_lo and at_hi)
    return m - 1 + at_lo + at_hi


def _ratio_cells(fs, cs):
    """The cells of one level of ratio_roots that are brackets as they
    stand (F changes sign: one root, also with a pole inside) and those to
    subdivide (a pole inside, F of one sign or 0.0 at an end, and
    G(x_i) > 0 or G(x_{i+1}) < 0), as two boolean arrays."""
    bracket = _opposite_signs(fs[:-1], fs[1:])
    split = (_opposite_signs(cs[:-1], cs[1:]) & ~bracket
             & (_opposite_signs(fs[:-1], -cs[:-1])
                | _opposite_signs(fs[1:], cs[1:])))
    return bracket, split


# subdivision levels after which ratio_roots gives up on a cell: 16^-14 of
# a cell is below the rounding of its points
RATIO_LEVELS = 14


def ratio_roots(fc, xs, fdf) -> RootSearchResult:
    """The roots of F in [xs[0], xs[-1]) on the ascending grid xs, where
    ratio_root_count's conditions hold: the real-axis search of every
    disk_model route, Bessel and FD, on scan_grid's grid: its cells need
    only hold one zero of C each, so 4 cells per root spacing suffice.

    `fc(points)` returns F and C at the points of a list as two arrays
    (only C's signs are read); `fdf(x)` returns (g(x), g'(x)) for a g with
    F's sign at every x, such as F itself or F times a positive factor.  A
    cell holds one pole of G at most, so two roots at most, one on either
    side of it; as G decreases, a cell without a pole holds one root
    exactly when F changes sign in it, and a cell with one holds
    [G(x_i) > 0] + [G(x_{i+1}) < 0].  A cell holding one root with a
    strict sign change of F is a bracket as it stands, refined by
    safeguarded Newton steps on fdf from the secant point of its end
    values (_refine).  Any other cell holding a root (two roots, or one
    next to an exact zero of F at an end) is subdivided into 16, all such
    cells pooled into one fc call per level, and the same rule applies to
    the subcells.  A point of xs[:-1] or an interior subdivision point
    where F is exactly 0.0 is a root as it stands.  There are no double
    roots to look for.  A cell still split after RATIO_LEVELS levels is
    dropped.  `count` is ratio_root_count on the grid's F and C, from the
    same fc call: a caller that compares it with the roots returned sees a
    dropped cell.  `n_evals` counts fc's points and fdf's calls.
    """
    fs, cs = fc(xs)
    result = RootSearchResult(
        roots=[xs[i] for i in np.flatnonzero(fs[:-1] == 0.0).tolist()],
        n_evals=len(xs), count=ratio_root_count(fs, cs))
    segments = [(xs, fs, cs)]
    for level in range(RATIO_LEVELS + 1):
        cells = []
        for pts, f, c in segments:
            bracket, split = _ratio_cells(f, c)
            result.brackets += [RootBracket(pts[i], pts[i + 1], float(f[i]),
                                            float(f[i + 1]))
                                for i in np.flatnonzero(bracket).tolist()]
            cells += [(pts, f, c, i) for i in np.flatnonzero(split).tolist()]
        if not cells or level == RATIO_LEVELS:
            break
        subs = [_subdivision(pts[i], pts[i + 1]) for pts, _, _, i in cells]
        f_in, c_in = fc([x for sub in subs for x in sub[1:-1]])
        result.n_evals += len(f_in)
        m = SUBDIVISIONS - 1

        def spliced(ends, inner, i, k):
            # cell i's end values around its subdivision's inner values
            return np.concatenate(([ends[i]], inner[k * m:(k + 1) * m],
                                   [ends[i + 1]]))

        segments = [(sub, spliced(f, f_in, i, k), spliced(c, c_in, i, k))
                    for k, (sub, (_, f, c, i)) in enumerate(zip(subs, cells))]
        result.roots += [x for sub, f, _ in segments
                         for x, v in zip(sub[1:-1], f[1:-1]) if v == 0.0]
    for br in result.brackets:
        root, n = _refine(fdf, br)
        result.n_evals += n
        result.roots.append(root)
    result.brackets.sort(key=lambda br: br.lo)
    result.roots.sort()
    return result


@dataclass(frozen=True)
class PolishResult:
    root: complex
    converged: bool
    residual: float
    iterations: int


def _polished(f, deriv, z):
    """complex_root_polish's tolerance: |f| <= 1e-10 |f'| max(1, |z|)."""
    return abs(f) <= 1e-10 * max(abs(deriv) * max(1.0, abs(z)), 1e-300)


def _newton_step(z, fz, deriv):
    """z - f(z) / f'(z), or z where f'(z) is 0."""
    return z - fz / deriv if deriv else z


def complex_root_polish(fdf, seed) -> PolishResult:
    """Damped Newton iteration on fdf(z) = (f(z), f'(z)), exact derivative.

    Each trial point of the damping line search is one fdf call, and the
    accepted point's derivative gives the next step.  Convergence requires
    |f(z)| <= 1e-10 |f'| max(1, |z|) (_polished), f' the derivative of the
    step, within 100 steps.  The converged point z, up to about 1e-10
    (relative) from the root, is returned after one more Newton step,
    z - f(z) / f'(z), from the derivative fdf returned at z (z itself where
    that is 0): the step brings a simple root to rounding level at no
    further fdf call.  `residual` is |f(z)| before that step.  A seed that
    meets the tolerance with its own derivative is accepted after 0 steps
    and one fdf call, and comes back after that final step.  When the
    iteration stagnates without converging (multiple roots flatten f), the
    flag comes back False and the best point is returned, which may still
    be accurate to ~|f|^(1/multiplicity).
    `iterations` counts the Newton steps tried, so an early exit (zero
    derivative, failed line search) reports fewer than 100.
    """
    z = complex(seed)
    fz, deriv = fdf(z)
    if _polished(fz, deriv, z):
        return PolishResult(_newton_step(z, fz, deriv), True, abs(fz), 0)
    best_z, best_f = z, abs(fz)
    iterations = 0
    for it in range(1, 101):
        if deriv == 0:
            break
        iterations = it
        step = fz / deriv
        damp = 1.0
        for _ in range(12):
            z_new = z - damp * step
            f_new, d_new = fdf(z_new)
            if abs(f_new) < abs(fz) or abs(f_new) == 0.0:
                break
            damp *= 0.5
        else:
            break
        z, fz = z_new, f_new
        if abs(fz) < best_f:
            best_z, best_f = z, abs(fz)
        if _polished(fz, deriv, z):
            return PolishResult(_newton_step(z, fz, d_new), True, abs(fz),
                                it)
        deriv = d_new
    return PolishResult(best_z, False, best_f, iterations)
