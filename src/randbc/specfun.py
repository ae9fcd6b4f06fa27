"""Bessel functions of the first kind and robust scalar root finding.

Self-contained: evaluation goes through the kernels in randbc._pykernels
(power series, backward Miller recurrence, large-argument asymptotics), never
through an external special-function library.
"""
import math
from dataclasses import dataclass, field

from randbc._pykernels import (bessel_jk, bessel_jk_batch, spherical_jl,
                               spherical_jl_batch)

MAX_ORDER = 200
MAX_ABS_ARGUMENT = 1.0e4


class SpecFunError(ValueError):
    pass


@dataclass(frozen=True)
class BesselEval:
    """One evaluation J_k(x) (or spherical j_l(x)) with its derivative."""
    order: int
    argument: complex
    value: complex
    derivative: complex


def _check_arguments(order, xs, name):
    """Raise SpecFunError unless order is an integer in [0, MAX_ORDER] and
    each x of xs is inside the validated range, checked in the order of xs.

    The pointwise evaluations and the grid evaluations share this check, so
    a grid scan fails where its first invalid point would.
    """
    if order < 0 or order != int(order):
        raise SpecFunError(
            f"order must be a nonnegative integer, got {order!r}")
    if order > MAX_ORDER:
        raise SpecFunError(
            f"order {order} exceeds the validated maximum {MAX_ORDER}")
    for x in xs:
        x = complex(x)
        if abs(x) > MAX_ABS_ARGUMENT:
            raise SpecFunError(f"|x|={abs(x):.3g} outside validated range")
        if abs(x.imag) > 600.0:
            raise SpecFunError(
                f"Im x too large: {name} would overflow double range")


def bessel_j(k: int, x) -> BesselEval:
    """Evaluate J_k(x) and J_k'(x) for integer order k >= 0.

    Validated for |x| <= 1e4; orders above 200 are rejected (unnormalized
    recurrence scales overflow well before that, this keeps the contract
    honest).
    """
    _check_arguments(k, (x,), "J_k")
    x = complex(x)
    v, d = bessel_jk(int(k), x)
    return BesselEval(int(k), x, v, d)


def spherical_j(l: int, x) -> BesselEval:
    """Evaluate spherical j_l(x) and j_l'(x) for integer order l >= 0."""
    _check_arguments(l, (x,), "j_l")
    x = complex(x)
    v, d = spherical_jl(int(l), x)
    return BesselEval(int(l), x, v, d)


def bessel_j_grid(k: int, xs):
    """J_k and J_k' at each real x of xs, as two float64 arrays.

    Equal (==) to bessel_j's value and derivative point by point, in one
    batched kernel call; raises the SpecFunError bessel_j raises at the
    first invalid point.
    """
    _check_arguments(k, xs, "J_k")
    return bessel_jk_batch(int(k), xs)


def spherical_j_grid(l: int, xs):
    """spherical_j's value and derivative at each real x of xs, batched
    like bessel_j_grid."""
    _check_arguments(l, xs, "j_l")
    return spherical_jl_batch(int(l), xs)


@dataclass(frozen=True)
class RootBracket:
    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not self.f_lo * self.f_hi < 0:
            raise SpecFunError("bracket endpoints must have opposite signs")


@dataclass
class RootSearchResult:
    roots: list = field(default_factory=list)
    suspected_double: list = field(default_factory=list)
    brackets: list = field(default_factory=list)
    n_evals: int = 0


def _refine(f, fdf, lo, hi, f_lo):
    """Root of a bracket (lo, hi), f_lo = f(lo) != 0 of the other sign than
    f(hi): safeguarded Newton (rtsafe) with fdf, bisection without.

    A Newton step is taken only when it lands strictly inside the bracket
    and is at most half the step before last; otherwise the bracket is
    bisected.  Every iterate shrinks the bracket by its sign.  Stops on an
    exact zero, on a Newton step of at most 1e-13 relative (returning its
    end point, so a step that rounds to nothing ends the search), or when
    the bracket is 1e-13 relative wide.  Returns (root, evaluations).
    """
    n = 0
    x = 0.5 * (lo + hi)
    step = step_before = hi - lo
    for _ in range(200):
        if fdf is None:
            fx, dfx = f(x), 0.0
        else:
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


def find_real_roots(f, window, max_roots=None, n_grid=1024,
                    min_spacing=None, f_grid=None, fdf=None) -> RootSearchResult:
    """Bracket and refine the real roots of a scalar function on a window.

    Scan on a uniform grid (refined locally so no cell holds more than one
    sign change), then refine each bracket with one loop: safeguarded Newton
    steps when `fdf` is given, bisection steps otherwise (see _refine).
    Grid minima with |f| below 1e-8 of the local scale but no sign change
    are reported as suspected double roots instead of being dropped.

    `fdf(x)` returns (g(x), g'(x)) for a function g with f's sign at every
    x, such as f itself or f times a positive factor; only the refinement
    calls it.  The uniform grid is evaluated by `f` point by point, or, when
    `f_grid` is given, by one batched call `f_grid(xs)` on the list of grid
    points, which must return f's values at those points, in order.  Every
    real-axis scan in disk_model passes both (the FD oracle's and the
    secular and contraction-form scans), built on kernels that equal the
    scalar ones bit for bit.  Local subdivision and the double-root search
    call `f`.  `n_evals` counts every evaluation of f, f_grid's points and
    fdf.
    """
    a, b = float(window[0]), float(window[1])
    if not a < b:
        raise SpecFunError(f"empty window {window!r}")
    if min_spacing is not None and min_spacing > 0:
        n_grid = max(n_grid, int(math.ceil(4.0 * (b - a) / min_spacing)))
    result = RootSearchResult()
    xs = [a + (b - a) * i / n_grid for i in range(n_grid + 1)]
    if f_grid is None:
        fs = [float(f(x)) for x in xs]
    else:
        fs = [float(v) for v in f_grid(xs)]
        if len(fs) != len(xs):
            raise SpecFunError(
                f"f_grid returned {len(fs)} values for {len(xs)} points")
    result.n_evals += len(xs)
    scale = max(max(abs(v) for v in fs), 1e-300)

    def handle_interval(lo, hi, f_lo, f_hi, depth):
        # enforce at most one sign change per step by local subdivision
        if depth > 0:
            sub = 16
            pts = [lo + (hi - lo) * i / sub for i in range(sub + 1)]
            vals = [f_lo] + [float(f(p)) for p in pts[1:-1]] + [f_hi]
            result.n_evals += sub - 1
            changes = [i for i in range(sub)
                       if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0]
            if len(changes) > 1:
                for i in changes:
                    handle_interval(pts[i], pts[i + 1], vals[i], vals[i + 1],
                                    depth - 1)
                return
        result.brackets.append(RootBracket(lo, hi, f_lo, f_hi))
        root, n = _refine(f, fdf, lo, hi, f_lo)
        result.n_evals += n
        result.roots.append(root)

    for i in range(n_grid):
        if max_roots is not None and len(result.roots) >= max_roots:
            break
        if fs[i] == 0.0:
            result.roots.append(xs[i])
            continue
        if fs[i] * fs[i + 1] < 0:
            handle_interval(xs[i], xs[i + 1], fs[i], fs[i + 1], depth=2)

    # suspected double roots: interior |f| minima without a sign change are
    # refined by ternary search, then tested against 1e-8 * scale
    for i in range(1, n_grid):
        ai, bi, ci = abs(fs[i - 1]), abs(fs[i]), abs(fs[i + 1])
        if bi < ai and bi < ci and fs[i - 1] * fs[i] > 0 and fs[i] * fs[i + 1] > 0:
            if bi > 1e-3 * scale:
                continue
            lo, hi = xs[i - 1], xs[i + 1]
            for _ in range(60):
                m1 = lo + (hi - lo) / 3.0
                m2 = hi - (hi - lo) / 3.0
                if abs(f(m1)) < abs(f(m2)):
                    hi = m2
                else:
                    lo = m1
                result.n_evals += 2
            x_min = 0.5 * (lo + hi)
            if abs(f(x_min)) <= 1e-8 * scale:
                near_root = any(abs(x_min - r) < 4 * (b - a) / n_grid
                                for r in result.roots)
                if not near_root:
                    result.suspected_double.append(x_min)

    result.roots.sort()
    if max_roots is not None:
        result.roots = result.roots[:max_roots]
    return result


@dataclass(frozen=True)
class PolishResult:
    root: complex
    converged: bool
    residual: float
    iterations: int


def complex_root_polish(fdf, seed, tol=1e-10, max_iter=100) -> PolishResult:
    """Damped Newton iteration on fdf(z) = (f(z), f'(z)), exact derivative.

    Each trial point of the damping line search is one fdf call, and the
    accepted point's derivative gives the next step.  Convergence requires
    |f(z)| <= tol * scale with scale set by the derivative of the step;
    when the iteration stagnates without reaching that (multiple roots
    flatten f), the flag comes back False and the best point is returned,
    which may still be accurate to ~|f|^(1/multiplicity).  `iterations`
    counts the Newton steps tried, so an early exit (zero derivative, failed
    line search, stalled step) reports fewer than max_iter.
    """
    z = complex(seed)
    fz, deriv = fdf(z)
    best_z, best_f = z, abs(fz)
    iterations = 0
    for it in range(1, max_iter + 1):
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
        scale = max(abs(deriv) * max(1.0, abs(z)), 1e-300)
        if abs(fz) <= tol * scale:
            return PolishResult(z, True, abs(fz), it)
        if abs(damp * step) <= 1e-14 * max(1.0, abs(z)):
            break
        deriv = d_new
    return PolishResult(best_z, False, best_f, iterations)
