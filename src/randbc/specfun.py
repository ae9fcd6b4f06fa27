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
    """One evaluation J_k(x) (or spherical j_l(x)) with its derivative."""
    order: int
    argument: complex
    value: complex
    derivative: complex


def _check_arguments(order, xs, name):
    """Raise SpecFunError unless order is an integer in [0, MAX_ORDER] and
    each x of xs is inside the validated range, checked in the order of xs.

    The pointwise evaluations and the grid evaluations share this check, so
    a grid scan fails where its first invalid point would.  A real array
    passes in one numpy pass when its largest |x| is in range; only
    otherwise does the loop look for the first invalid point.
    """
    if order < 0 or order != int(order):
        raise SpecFunError(
            f"order must be a nonnegative integer, got {order!r}")
    if order > MAX_ORDER:
        raise SpecFunError(
            f"order {order} exceeds the validated maximum {MAX_ORDER}")
    if (isinstance(xs, np.ndarray) and xs.dtype.kind == "f" and xs.size
            and np.abs(xs).max() <= MAX_ABS_ARGUMENT):
        return
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
    xs = np.asarray(xs)
    _check_arguments(k, xs, "J_k")
    return bessel_jk_batch(int(k), xs)


def spherical_j_grid(l: int, xs):
    """spherical_j's value and derivative at each real x of xs, batched
    like bessel_j_grid."""
    xs = np.asarray(xs)
    _check_arguments(l, xs, "j_l")
    return spherical_jl_batch(int(l), xs)


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


SUBDIVISIONS = 16


def _subdivision(lo, hi):
    """The SUBDIVISIONS + 1 equally spaced points of [lo, hi], ends
    included."""
    return [lo + (hi - lo) * i / SUBDIVISIONS for i in range(SUBDIVISIONS + 1)]


def _batched(f_grid, xs):
    values = [float(v) for v in f_grid(xs)]
    if len(values) != len(xs):
        raise SpecFunError(
            f"f_grid returned {len(values)} values for {len(xs)} points")
    return values


def scan_grid(window, n_grid=1024, min_spacing=None):
    """The uniform grid that bracket_real_roots scans on the window: n_grid
    cells, or enough for 4 cells per min_spacing where that is more."""
    a, b = float(window[0]), float(window[1])
    if not a < b:
        raise SpecFunError(f"empty window {window!r}")
    if min_spacing is not None and min_spacing > 0:
        n_grid = max(n_grid, int(math.ceil(4.0 * (b - a) / min_spacing)))
    return [a + (b - a) * i / n_grid for i in range(n_grid + 1)]


@dataclass
class RootBrackets:
    """The bracketing stage of find_real_roots on one window: the scanned
    grid and f on it, the sign-change brackets, and the points of the grid
    or of a subdivision where f is exactly 0, in ascending order.
    `n_evals` counts f's evaluations."""
    window: tuple
    xs: list
    fs: list
    brackets: list = field(default_factory=list)
    zeros: list = field(default_factory=list)
    n_evals: int = 0


# subdivision levels below a grid cell with a sign change
SUBDIVISION_LEVELS = 2


def bracket_real_roots(f, window, n_grid=1024, min_spacing=None,
                       f_grid=None) -> RootBrackets:
    """Bracket the real sign changes of a scalar function on a window.

    Scan on the uniform grid of scan_grid and subdivide each cell with a
    sign change into 16.  A cell whose subdivision shows one root (one
    strict sign change, or one exact zero) is one bracket.  In a cell that
    shows more, each exact zero is a root as it stands and each subcell
    with a strict sign change is subdivided into 16 again, where the same
    rule makes brackets of the subcells or of their own subcells.  A grid
    point where f is exactly 0 is a root as it stands too (the window's
    upper end excepted).  `f_grid(xs)` must return f's values at the
    points of the list xs, in order; it defaults to `f` point by point.  It
    evaluates the grid, then at each subdivision level the 15 interior
    points of every cell split at that level, all cells pooled into one
    list.  With f_grid given, `f` is never called.  Nothing is refined.
    """
    xs = scan_grid(window, n_grid, min_spacing)
    if f_grid is None:
        def f_grid(pts):
            return [f(x) for x in pts]
    fs = _batched(f_grid, xs)
    out = RootBrackets((float(window[0]), float(window[1])), xs, fs,
                       n_evals=len(xs))
    out.zeros = [x for x, v in zip(xs[:-1], fs[:-1]) if v == 0.0]
    # (lo, hi, f_lo, f_hi) of the cells with a strict sign change to split
    cells = [(xs[i], xs[i + 1], fs[i], fs[i + 1]) for i in range(len(xs) - 1)
             if _opposite_signs(fs[i], fs[i + 1])]
    m = SUBDIVISIONS - 1
    for level in range(SUBDIVISION_LEVELS):
        if not cells:
            break
        subs = [_subdivision(lo, hi) for lo, hi, _, _ in cells]
        pts = [p for sub_x in subs for p in sub_x[1:-1]]
        vals = _batched(f_grid, pts)
        out.n_evals += len(pts)
        split = []
        for k, (cell, sub_x) in enumerate(zip(cells, subs)):
            sub_f = [cell[2], *vals[k * m:(k + 1) * m], cell[3]]
            zeros = [sub_x[i] for i in range(1, SUBDIVISIONS)
                     if sub_f[i] == 0.0]
            changes = [(sub_x[i], sub_x[i + 1], sub_f[i], sub_f[i + 1])
                       for i in range(SUBDIVISIONS)
                       if _opposite_signs(sub_f[i], sub_f[i + 1])]
            if len(changes) + len(zeros) == 1:
                out.brackets.append(RootBracket(*cell))
                continue
            out.zeros += zeros
            if level == SUBDIVISION_LEVELS - 1:
                out.brackets += [RootBracket(*c) for c in changes]
            else:
                split += changes
        cells = split
    # disjoint cells: ascending lo is the grid order
    out.brackets.sort(key=lambda br: br.lo)
    out.zeros.sort()
    return out


def find_real_roots(f, window, n_grid=1024, min_spacing=None, f_grid=None,
                    fdf=None) -> RootSearchResult:
    """Bracket and refine the real roots of a scalar function on a window.

    bracket_real_roots brackets them (f_grid as there), then one loop
    refines each bracket: safeguarded Newton steps when `fdf` is given,
    bisection steps otherwise (see _refine).  The exact zeros of the
    bracketing stage are roots as they stand.  Grid minima with |f| below
    1e-8 of the local scale but no sign change are reported as suspected
    double roots instead of being dropped.

    `fdf(x)` returns (g(x), g'(x)) for a function g with f's sign at every
    x, such as f itself or f times a positive factor; only the refinement
    calls it.  The double-root search always calls `f`.  The FD oracle's
    scans pass f_grid and fdf, built on kernels that equal the scalar ones
    bit for bit, so the roots do not depend on which of f and f_grid
    evaluated a point; the Bessel-route scans, whose roots are certified
    simple, go through ratio_roots instead.  `n_evals` counts every
    evaluation of f, f_grid's points and fdf.
    """
    scan = bracket_real_roots(f, window, n_grid, min_spacing, f_grid)
    a, b = scan.window
    xs, fs = scan.xs, scan.fs
    n_grid = len(xs) - 1
    result = RootSearchResult(roots=list(scan.zeros),
                              brackets=scan.brackets, n_evals=scan.n_evals)
    for br in scan.brackets:
        root, n = _refine(f, fdf, br.lo, br.hi, br.f_lo)
        result.n_evals += n
        result.roots.append(root)
    scale = max(max(abs(v) for v in fs), 1e-300)

    # suspected double roots: interior |f| minima without a sign change are
    # refined by ternary search, then tested against 1e-8 * scale; a and b
    # are of strictly the same sign where a and -b are of opposite signs
    for i in range(1, n_grid):
        ai, bi, ci = abs(fs[i - 1]), abs(fs[i]), abs(fs[i + 1])
        if (bi < ai and bi < ci and _opposite_signs(fs[i - 1], -fs[i])
                and _opposite_signs(fs[i], -fs[i + 1])):
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
    ratio_root_count's conditions hold, refined like find_real_roots'.

    `fc(points)` returns F and C at the points of a list as two arrays;
    `fdf(x)` returns (g(x), g'(x)) for a g with F's sign at every x (see
    find_real_roots).  A cell holds one pole of G at most, so two roots at
    most, one on either side of it; as G decreases, a cell without a pole
    holds one root exactly when F changes sign in it, and a cell with one
    holds [G(x_i) > 0] + [G(x_{i+1}) < 0].  A cell holding one root with a
    strict sign change of F is a bracket as it stands.  Any other cell
    holding a root (two roots, or one next to an exact zero of F at an
    end) is subdivided into 16, all such cells pooled into one fc call per
    level, and the same rule applies to the subcells.  A point of xs[:-1]
    or an interior subdivision point where F is exactly 0.0 is a root as
    it stands.  There are no double roots to look for.  A cell still split
    after RATIO_LEVELS levels is dropped, which the caller's
    ratio_root_count check sees.  `n_evals` counts fc's points and fdf's
    calls.
    """
    fs, cs = fc(xs)
    result = RootSearchResult(
        roots=[xs[i] for i in np.flatnonzero(fs[:-1] == 0.0).tolist()],
        n_evals=len(xs))
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
        root, n = _refine(None, fdf, br.lo, br.hi, br.f_lo)
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


def complex_root_polish(fdf, seed) -> PolishResult:
    """Damped Newton iteration on fdf(z) = (f(z), f'(z)), exact derivative.

    Each trial point of the damping line search is one fdf call, and the
    accepted point's derivative gives the next step.  Convergence requires
    |f(z)| <= 1e-10 |f'| max(1, |z|), f' the derivative of the step, within
    100 steps; when the iteration stagnates without reaching that (multiple
    roots flatten f), the flag comes back False and the best point is
    returned, which may still be accurate to ~|f|^(1/multiplicity).
    `iterations` counts the Newton steps tried, so an early exit (zero
    derivative, failed line search) reports fewer than 100.
    """
    z = complex(seed)
    fz, deriv = fdf(z)
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
        scale = max(abs(deriv) * max(1.0, abs(z)), 1e-300)
        if abs(fz) <= 1e-10 * scale:
            return PolishResult(z, True, abs(fz), it)
        deriv = d_new
    return PolishResult(best_z, False, best_f, iterations)
