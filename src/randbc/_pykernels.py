"""Pure-python numerical kernels, the only kernel implementation in randbc.

Hot paths: Bessel J_k / spherical j_l of real or complex argument, and the
radial finite-difference shooting recurrence.  specfun and disk_model import them by
name.

J_k and j_l share one code path per branch.  Their ascending series divide
term m by m (c m + d) (_series), and Miller's backward recurrence steps
c_{m-1} = ((c m + d) / x) c_m - c_{m+1} (_backward), with integer (c, d):
(1, k) and (2, 0) for J_k, (2, 2l + 1) and (2, 1) for j_l.  J_k adds a
Hankel expansion at large |x|.  Both kernels reduce x to the first quadrant
by symmetry, and x = 0 to its closed form, in one wrapper (_reflected).

Each kernel has a numpy twin that equals it bit for bit: bessel_jk_batch and
spherical_jl_batch over (order, x) pairs of real x, the order one int or an
integer array broadcast per point, so that one call serves many modes.
Their _series_batch and _backward_batch take the same (c, d) and read each
point's own order at every step (every branch batched; only x = 0 goes
through the scalar kernel).  fd_radial_edge_batch runs over lam for the edge
values of fd_radial_edge, which also returns their lam-derivatives for Newton
steps.  The FD recurrence runs off a cached table of its lam-independent
coefficients.

One rule carries CPython's complex arithmetic over to float64 arrays.  In
CPython 3.11 a float operand of a complex operation is taken as
complex(r, 0.0).  A sum or difference keeps that 0.0 as a term, which the
twins write out (0.0 - x).  A product or quotient only adds a signed-zero term
to each part, so the twins scale each part by the real and split only
complex-by-complex products.  That is exact unless a part is itself a zero
whose sign the added term flips: on the FD route, only the sign of a zero
imaginary part, at real lam with lam sqrt(ab) / n_grid above about sqrt(2),
a grid that resolves no oscillation.

The same rule lets the scalar Bessel kernels keep a real argument real.  A
float x runs the same code as a complex one, branch for branch, in float
arithmetic, with math's sin, cos and sqrt where a complex x takes cmath's
(and _sqrt's); a complex x, complex(x, 0.0) included, stays complex.  On
the real axis every complex operation of that code only adds signed-zero
terms to the float one, and cmath's functions have libm's real part there,
so the float results equal the complex path's real parts bit for bit, and
the batches equal both.
"""
import cmath
import functools
import math

import numpy as np

_RESCALE = 1e250
_TINY_SEED = 1e-30


def _lib(x):
    # cmath for a complex x, math for a float: on the real axis cmath's exp,
    # sin and cos have libm's value as their real part
    return cmath if isinstance(x, complex) else math


def _sqrt(z):
    # cmath.sqrt rounds differently; at a float z this is _sqrt(complex(z))'s
    # real part
    if not isinstance(z, complex):
        return math.sqrt(z)
    r = abs(z)
    if r == 0.0:
        return 0j
    th = 0.5 * math.atan2(z.imag, z.real)
    rt = math.sqrt(r)
    return complex(rt * math.cos(th), rt * math.sin(th))


def _series(head, x2, c, d):
    # head * sum_m prod_{i <= m} x2 / (i (c i + d)), up to the first term
    # below 1e-18 of the sum
    term = total = head
    for m in range(1, 500):
        term *= x2 / (m * (c * m + d))
        total += term
        if abs(term) <= 1e-18 * abs(total) + 1e-305:
            break
    return total


def _series_head(order, y, c):
    # prod_{i <= order} y / (c i + c - 1) and c order + c - 1
    d, head = c - 1, 1.0
    for _ in range(order):
        d += c
        head = head * (y / d)
    return head, d


def _series_pair(series, head, d, order, x, y, x2, c):
    """f_order and (order / x) f_order - f_{order+1}, where f_n = series(
    prod_{i <= n} y / (c i + c - 1), x2, c, c n + c - 1), from that
    product and c n + c - 1 at n = order (head and d, from _series_head or
    _series_head_batch).  c = 1, y = x / 2 and x2 = -y^2 give J_n; c = 2,
    y = x and x2 = -x^2 / 2 give j_n."""
    f = series(head, x2, c, d)
    d = d + c
    return f, (order / x) * f - series(head * (y / d), x2, c, d)


_IPOW = (1.0 + 0j, -1j, -1.0 + 0j, 1j)  # (-1j) ** n, exactly


def _miller_start(order, ax):
    # start index of the backward recurrence at |x| = ax
    return (order + int(math.ceil(ax)) + 20
            + int(math.ceil(7.0 * ax ** (1.0 / 3.0))))


def _norm_weights(x, n_start):
    """The weights of J_k's normalization sum by m % 4, n = m - 1 the index
    of c_n: 2 on even n on the real axis, else 2 (-i)^n, formed as the
    running phase _IPOW[n_start % 4] * 1j per step forms them (that
    sequence repeats with period 4, signed zeros included)."""
    if x.imag == 0.0:
        return (0.0, 2.0, 0.0, 2.0)
    phase = _IPOW[n_start % 4]
    weights = [0j] * 4
    for m in range(n_start, n_start - 4, -1):
        phase *= 1j
        weights[m % 4] = 2.0 * phase
    return tuple(weights)


def _backward(order, x, n_start, c, d, norm):
    """Miller's backward recurrence c_{m-1} = ((c m + d) / x) c_m - c_{m+1}
    from (c_{n_start+1}, c_{n_start}) = (0, _TINY_SEED), every carried value
    divided by _RESCALE when a part of c_{m-1} exceeds it, in x's own
    arithmetic (float or complex).  Returns c_1, c_0, c_order, c_{order+1}
    and, if norm, J_k's normalization sum (else 0): 2 sum_{m >= 1} c_{2m}
    on the real axis, 2 sum_{n >= 1} (-i)^n c_n off it (x in the first
    quadrant).

    The loop runs down to c_order and then on to c_0, so c_order and
    c_{order+1} are the carried pair between the two, and the sum reads one
    weight per step from a table of _norm_weights (0 at n = 0)."""
    jp, jc = 0.0, _TINY_SEED
    total = out_k = out_k1 = 0.0
    if norm:
        weights = list(_norm_weights(x, n_start)) * (n_start // 4 + 1)
        weights[1] = 0.0
    for top, stop in ((n_start, order), (order, 0)):
        for m in range(top, stop, -1):
            jp, jc = jc, ((c * m + d) / x) * jc - jp
            if norm:
                w = weights[m]
                if w:
                    total += w * jc
            # |jc| >= max(|Re jc|, |Im jc|), so the first test only screens
            # out the steps that cannot need a rescale (as in fd_radial_edge)
            if not abs(jc) <= _RESCALE and (
                    max(abs(jc.real), abs(jc.imag)) > _RESCALE):
                jp /= _RESCALE
                jc /= _RESCALE
                total /= _RESCALE
                out_k /= _RESCALE
                out_k1 /= _RESCALE
        if top == n_start:
            out_k, out_k1 = jc, jp
    return jp, jc, out_k, out_k1, total


def _reflected(branches, d1, order, x):
    """branches(order, x) with x reflected into Re x >= 0, Im x >= 0: J_n
    and j_n have the parity of n and are real on the real axis.  x = 0 by
    its closed form, whose derivative is d1 at order 1 and 0 above.  A
    complex x is evaluated in complex arithmetic, any other x as a float."""
    x = complex(x) if isinstance(x, complex) else float(x)
    if x.real < 0.0:
        v, d = _reflected(branches, d1, order, -x)
        s = -1.0 if order % 2 else 1.0
        return s * v, -s * d
    if x.imag < 0.0:
        v, d = _reflected(branches, d1, order, x.conjugate())
        return v.conjugate(), d.conjugate()
    if x == 0.0:
        kind = type(x)
        if order == 0:
            return kind(1.0), kind(0.0)
        return kind(0.0), kind(d1 if order == 1 else 0.0)
    return branches(order, x)


def _bessel_miller(k, x):
    # Real x: normalize with J0 + 2*sum J_{2m} = 1.  Off the real axis that sum
    # cancels catastrophically (terms ~ e^{Im x} adding up to 1), so use
    # J0 + 2*sum (-i)^n J_n = e^{-ix}, whose target matches the term scale.
    n_start = _miller_start(k, abs(x))
    n_start += n_start % 2
    _, jc, out_k, out_k1, norm = _backward(k, x, n_start, 2, 0, True)
    norm += jc
    if x.imag != 0.0:
        norm /= cmath.exp(-1j * x)
    jk = out_k / norm
    return jk, (k / x) * jk - out_k1 / norm


def _bessel_asym_one(k, x):
    # Hankel large-argument expansion; caller guarantees |x| >= max(50, 4k^2).
    mu = 4.0 * k * k
    chi = x - (0.5 * k + 0.25) * math.pi
    p = term = 1.0
    q = 0.0
    prev = 1e300
    for j in range(1, 40):
        term *= (mu - (2 * j - 1) ** 2) / (8.0 * j * x)
        t = abs(term)
        if t > prev:
            break
        prev = t
        if j % 2 == 1:
            q += term if j % 4 == 1 else -term
        else:
            p += term if j % 4 == 0 else -term
        if t < 1e-17:
            break
    lib = _lib(x)
    amp = _sqrt(2.0 / (math.pi * x))
    return amp * (p * lib.cos(chi) - q * lib.sin(chi))


def _bessel_asym_pair(k, x):
    jk = _bessel_asym_one(k, x)
    if k == 0:
        return jk, -_bessel_asym_one(1, x)
    jkm1 = _bessel_asym_one(k - 1, x)
    return jk, jkm1 - (k / x) * jk


def _bessel_branches(k, x):
    ax = abs(x)
    if ax <= 12.0 or ax * ax <= 2.0 * (k + 1):
        half = x / 2.0
        return _series_pair(_series, *_series_head(k, half, 1), k, x, half,
                            -(half * half), 1)
    if ax >= 50.0 and ax >= 4.0 * k * k:
        return _bessel_asym_pair(k, x)
    return _bessel_miller(k, x)


def bessel_jk(k, x):
    """J_k(x) and J_k'(x) for integer k >= 0, complex x."""
    return _reflected(_bessel_branches, 0.5, k, x)


def _spherical_miller(l, x):
    jp, jc, out_l, out_l1, _ = _backward(l, x, _miller_start(l, abs(x)),
                                         2, 1, False)
    lib = _lib(x)
    sin = lib.sin(x)
    j0e = sin / x
    j1e = sin / (x * x) - lib.cos(x) / x
    scale = j0e / jc if abs(j0e) >= abs(j1e) else j1e / jp
    jl = out_l * scale
    return jl, (l / x) * jl - out_l1 * scale


def _spherical_branches(l, x):
    if abs(x) <= 0.5:
        return _series_pair(_series, *_series_head(l, x, 2), l, x, x,
                            -(x * x / 2.0), 2)
    return _spherical_miller(l, x)


def spherical_jl(l, x):
    """Spherical j_l(x) and j_l'(x) for integer l >= 0, complex x.

    Tiny arguments by series; otherwise backward recurrence rescaled against
    the exact closed form j_0 = sin(x)/x (or j_1 when j_0 sits near a zero),
    which stays accurate on both sides of the turning point.
    """
    return _reflected(_spherical_branches, 1.0 / 3.0, l, x)


# Real-axis batches of bessel_jk / spherical_jl over (order, x) pairs.  On
# the real axis every complex operation of the scalar recurrences reduces
# exactly to its real part (a product or quotient with a zero imaginary part
# rounds like the real one), so float64 arrays reproduce them bit for bit.
# Every step reads each point's own order from an int64 array of orders
# (_orders), so one batch serves many modes.  Transcendentals stay on
# math.*: numpy's SIMD sin/cos/pow need not round like libm.

def _orders(order, x):
    # one order per point of x: an int, or an integer array, broadcast
    return np.broadcast_to(np.asarray(order, dtype=np.int64), x.shape)


def _series_head_batch(order, y, c):
    # _series_head at each point, to its own order; d as a float64 array
    # (its integer values are exact, and the scalar divisions convert them)
    d, head = np.full(y.shape, c - 1.0), np.ones(y.shape)
    for i in range(int(order.max(initial=0))):
        live = order > i
        d[live] += c
        head[live] *= y[live] / d[live]
    return head, d


def _series_batch(head, x2, c, d):
    # _series at each point, with its own d, each stopped where the scalar
    # loop stops
    out = head.copy()
    idx = np.arange(head.size)
    term = total = head
    for m in range(1, 500):
        term = term * (x2 / (m * (c * m + d)))
        total = total + term
        out[idx] = total
        keep = ~(np.abs(term) <= 1e-18 * np.abs(total) + 1e-305)
        if not keep.all():
            idx, term, total, x2, d = (idx[keep], term[keep], total[keep],
                                       x2[keep], d[keep])
            if not idx.size:
                break
    return out


def _bessel_series_batch(k, x):
    half = x / 2.0
    return _series_pair(_series_batch, *_series_head_batch(k, half, 1), k, x,
                        half, -(half * half), 1)


def _spherical_series_batch(l, x):
    return _series_pair(_series_batch, *_series_head_batch(l, x, 2), l, x, x,
                        -(x * x / 2.0), 2)


def _miller_start_batch(order, ax):
    """_miller_start at each point of the array ax, to its own order (an
    int or an array), with no pow per point: ceil(7 ax^(1/3)) is the least
    n with n^3 >= 343 ax.  Where 343 ax lies within 1e-12 (relative) of a
    cube, libm's pow may round 7 ax^(1/3) to the other side of the integer,
    so those points take the scalar _miller_start."""
    order = _orders(order, ax)
    top = np.arange(int(7.0 * float(ax.max()) ** (1.0 / 3.0)) + 3.0)
    cubes = top * top * top
    scaled = 343.0 * ax
    n = np.searchsorted(cubes, scaled)
    n_start = order + np.ceil(ax).astype(int) + 20 + n
    for i in np.flatnonzero(
            (np.abs(scaled - cubes[n]) <= 1e-12 * scaled)
            | (np.abs(scaled - cubes[n - 1]) <= 1e-12 * scaled)).tolist():
        n_start[i] = _miller_start(order[i].item(), ax[i].item())
    return n_start


def _backward_batch(order, x, n_start, c, d, norm):
    """_backward at each real x > 0, each point from its own n_start and to
    its own order, rescaled on its own.  The points are sorted by n_start,
    so step m updates only the prefix that has started; c_order and
    c_{order+1} are read at the steps m - 1 of some point's order or
    order + 1.  Returns c_1, c_0, c_order, c_{order+1} and, if norm,
    2 * sum_{m >= 1} c_{2m} (zeros otherwise)."""
    perm = np.argsort(-n_start, kind="stable")
    xs, orders = x[perm], order[perm]
    starts = n_start[perm].tolist()
    jp, jc = np.zeros(xs.shape), np.full(xs.shape, _TINY_SEED)
    total, out_k, out_k1 = (np.zeros(xs.shape) for _ in range(3))
    reads = {}  # step m -> the (output, order) pairs read at m
    for k in set(orders.tolist()):
        reads.setdefault(k + 1, []).append((out_k, k))
        reads.setdefault(k + 2, []).append((out_k1, k))
    active = 0
    for m in range(starts[0], 0, -1):
        while active < len(starts) and starts[active] >= m:
            active += 1
        jm = ((c * m + d) / xs[:active]) * jc[:active] - jp[:active]
        jp[:active] = jc[:active]
        jc[:active] = jm
        for dest, k in reads.get(m, ()):
            hit = orders[:active] == k
            dest[:active][hit] = jm[hit]
        if norm and m - 1 > 0 and (m - 1) % 2 == 0:
            total[:active] += 2.0 * jm
        big = np.abs(jm) > _RESCALE
        if big.any():
            for arr in (jp, jc, total, out_k, out_k1):
                arr[:active][big] /= _RESCALE
    out = []
    for arr in (jp, jc, out_k, out_k1, total):
        unsorted = np.empty(arr.shape)
        unsorted[perm] = arr
        out.append(unsorted)
    return out


def _bessel_miller_batch(k, x):
    n_start = _miller_start_batch(k, x)
    n_start += n_start % 2
    _, jc, out_k, out_k1, norm = _backward_batch(k, x, n_start, 2, 0, True)
    norm = norm + jc
    jk = out_k / norm
    return jk, (k / x) * jk - out_k1 / norm


def _spherical_miller_batch(l, x):
    xl = x.tolist()
    jp, jc, out_l, out_l1, _ = _backward_batch(
        l, x, _miller_start_batch(l, x), 2, 1, False)
    sin = np.array([math.sin(v) for v in xl])
    cos = np.array([math.cos(v) for v in xl])
    j0e = sin / x
    j1e = sin / (x * x) - cos / x
    with np.errstate(divide="ignore", invalid="ignore"):
        # np.where evaluates both candidates; the scalar kernel divides by
        # jc or by jp, never both
        scale = np.where(np.abs(j0e) >= np.abs(j1e), j0e / jc, j1e / jp)
    jl = out_l * scale
    return jl, (l / x) * jl - out_l1 * scale


def _hankel_batch(k, x):
    # _bessel_asym_one at real x > 0, each point to its own order k: with a
    # zero imaginary part every complex operation rounds like its real part,
    # and the amplitude is sqrt(2 / (pi x)).  Each point's series stops where
    # the scalar loop stops: before a term that grows, or after one below
    # 1e-17.
    mu = 4.0 * k * k
    p, q = np.ones(x.shape), np.zeros(x.shape)
    idx = np.arange(x.size)
    xs, term, prev = x, np.ones(x.shape), np.full(x.shape, 1e300)
    for j in range(1, 40):
        term = term * ((mu - (2 * j - 1) ** 2) / (8.0 * j * xs))
        t = np.abs(term)
        add = ~(t > prev)
        signed = term[add] if j % 4 in (0, 1) else -term[add]
        if j % 2 == 1:
            q[idx[add]] += signed
        else:
            p[idx[add]] += signed
        keep = add & ~(t < 1e-17)
        if not keep.all():
            idx, xs, term, t, mu = (idx[keep], xs[keep], term[keep],
                                    t[keep], mu[keep])
            if not idx.size:
                break
        prev = t
    chi = (x - (0.5 * k + 0.25) * math.pi).tolist()
    cos = np.array([math.cos(c) for c in chi])
    sin = np.array([math.sin(c) for c in chi])
    return np.sqrt(2.0 / (math.pi * x)) * (p * cos - q * sin)


def _bessel_asym_batch(k, x):
    # _bessel_asym_pair at each point: J_0' = -J_1, else J_{k-1} - (k/x) J_k
    k = _orders(k, x)
    jk = _hankel_batch(k, x)
    zero = k == 0
    below = _hankel_batch(np.where(zero, 1, k - 1), x)
    return jk, np.where(zero, -below, below - (k / x) * jk)


def _real_batch(scalar, order, x, ax, pointwise, branches):
    # Each (mask, kernel) branch evaluates its points at ax = |x| in one
    # batch, each to its own order, the pointwise ones go through the scalar
    # kernel; negative x by reflection, as in the scalar kernel.
    value, deriv = np.empty(x.shape), np.empty(x.shape)
    for mask, kernel in branches:
        if mask.any():
            value[mask], deriv[mask] = kernel(order[mask], ax[mask])
    for i in np.flatnonzero(pointwise).tolist():
        value[i], deriv[i] = scalar(order[i].item(), ax[i].item())
    s = np.where(order % 2 == 1, -1.0, 1.0)
    neg = x < 0.0
    return np.where(neg, s * value, value), np.where(neg, -s * deriv, deriv)


def bessel_jk_batch(k, xs):
    """bessel_jk over a sequence of real x, as two float64 arrays; k is one
    order for every x, or an integer array of one order per x (broadcast
    against xs).

    Value and derivative equal (==) the scalar kernel's at every (k, x)
    pair: the series, Miller and asymptotic branches run batched across
    orders, x = 0 calls the scalar kernel.
    """
    x = np.asarray(xs, dtype=float)
    k = _orders(k, x)
    ax = np.abs(x)
    series = (ax <= 12.0) | (ax * ax <= 2.0 * (k + 1))
    asym = ~series & (ax >= 50.0) & (ax >= 4.0 * k * k)
    zero = ax == 0.0
    return _real_batch(bessel_jk, k, x, ax, zero,
                       ((series & ~zero, _bessel_series_batch),
                        (~series & ~asym, _bessel_miller_batch),
                        (asym, _bessel_asym_batch)))


def spherical_jl_batch(l, xs):
    """spherical_jl over a sequence of real x, as two float64 arrays; l is
    one order or one per x, as in bessel_jk_batch.

    Value and derivative equal (==) the scalar kernel's at every (l, x)
    pair: the series and Miller branches run batched across orders, x = 0
    calls the scalar kernel.
    """
    x = np.asarray(xs, dtype=float)
    l = _orders(l, x)
    ax = np.abs(x)
    zero = ax == 0.0
    series = ax <= 0.5
    return _real_batch(spherical_jl, l, x, ax, zero,
                       ((series & ~zero, _spherical_series_batch),
                        (~series, _spherical_miller_batch)))


_FD_RESCALE = 1e200
# Coefficient tables are cached up to this many nodes (about 0.2 MB per 1024
# nodes); larger grids, such as fd_dtn_value's, recompute them per call.
_FD_TABLE_MAX_NODES = 4096


def _fd_shape(dim, mode):
    # (mu, pw, lim): angular eigenvalue, radial power r^{d-1}, and the
    # regular-start denominator d
    if dim == 2:
        return float(mode * mode), 1, 2.0
    return float(mode * (mode + 1)), 2, 3.0


def _fd_coefficients(dim, mode, n_grid):
    # lam-independent coefficients (rp + rm + cent, r**pw, rm, rp) of the
    # shooting step at nodes 1..n_grid
    mu, pw, _ = _fd_shape(dim, mode)
    h = 1.0 / n_grid
    for i in range(1, n_grid + 1):
        r = i * h
        if pw == 1:
            rp = r + h / 2.0
            rm = r - h / 2.0
            cent = (mu / r) * h * h
        else:
            rp = (r + h / 2.0) ** 2
            rm = (r - h / 2.0) ** 2
            cent = mu * h * h
        yield rp + rm + cent, r**pw, rm, rp


@functools.lru_cache(maxsize=8)
def _fd_table(dim, mode, n_grid):
    return tuple(_fd_coefficients(dim, mode, n_grid))


def _fd_steps(dim, mode, n_grid):
    if n_grid <= _FD_TABLE_MAX_NODES:
        return _fd_table(dim, mode, n_grid)
    return _fd_coefficients(dim, mode, n_grid)


def fd_radial_edge(dim, mode, lam, ab, n_grid):
    """Shoot the conservative radial FD scheme on (0, 1], with lam-derivatives.

    Second-difference discretization of
        -(1/(ab r^{d-1})) (r^{d-1} u')' + mu/(ab r^2) u = lam^2 u
    with mu the angular eigenvalue, regular start at r=0, plus a ghost node
    past r=1.  Returns the edge values (u_{M-1}, u_M, u_{M+1}) and their
    lam-derivatives, all up to one common positive factor (downscaled by
    1e200 on overflow; only ratios are meaningful).

    The derivatives run in forward mode through the recurrence: with
    c_i = a_i - lam2 r^pw and lam2 = ab lam^2 h^2,
        u'_{i+1} = (c_i u'_i - lam2' r^pw u_i - rm u'_{i-1}) / rp,
    lam2' = 2 ab lam h^2, and every rescale divides the derivatives with the
    values.  The values equal fd_radial_edge_batch's bit for bit.
    """
    h = 1.0 / n_grid
    lam = complex(lam)
    lam2 = ab * lam * lam * h * h
    dlam2 = 2.0 * ab * lam * h * h
    if mode == 0:
        um = 1.0 + 0j
        lim2 = 2.0 * _fd_shape(dim, mode)[2]
        uc = um * (1.0 - lam2 / lim2)
        dum = 0j
        duc = um * -(dlam2 / lim2)
    else:
        um = 0.0 + 0j
        uc = 1.0 + 0j
        dum = duc = 0j
    u_before = du_before = 0j
    for a, rpw, rm, rp in _fd_steps(dim, mode, n_grid):
        u_before, du_before = um, dum
        c = a - lam2 * rpw
        un = (c * uc - rm * um) / rp
        dun = (c * duc - dlam2 * rpw * uc - rm * dum) / rp
        um, dum = uc, duc
        uc, duc = un, dun
        # |uc| >= max(|Re uc|, |Im uc|), so the first test only screens out
        # the steps that cannot need a rescale
        if not abs(uc) <= _FD_RESCALE:
            if abs(uc.real) > _FD_RESCALE or abs(uc.imag) > _FD_RESCALE:
                um /= _FD_RESCALE
                uc /= _FD_RESCALE
                u_before /= _FD_RESCALE
                dum /= _FD_RESCALE
                duc /= _FD_RESCALE
                du_before /= _FD_RESCALE
    return (u_before, um, uc), (du_before, dum, duc)


def fd_radial_edge_batch(dim, mode, lams, ab, n_grid):
    """fd_radial_edge's edge values over a sequence of lam, as three
    complex128 arrays, equal to the scalar kernel's bit for bit by the
    module's complex-by-real rule.

    The recurrence runs on split float64 real and imaginary arrays (numpy's
    complex128 products need not round like CPython's); only lam * lam and
    c * u are complex-by-complex products.
    """
    lam = np.asarray(lams, dtype=complex)
    lr, li = lam.real, lam.imag
    h = 1.0 / n_grid
    # lam2 = ab * lam * lam * h * h, left to right
    ar, ai = ab * lr, ab * li
    l2r, l2i = (ar * lr - ai * li) * h * h, (ar * li + ai * lr) * h * h
    if mode == 0:
        # um * (1 - lam2 / lim2) with um = 1 + 0j: the product by 1 + 0j is
        # exact, 0.0 - x being never -0.0
        lim2 = 2.0 * _fd_shape(dim, mode)[2]
        mr, mi = np.ones(lam.shape), np.zeros(lam.shape)
        cr, ci = 1.0 - l2r / lim2, 0.0 - l2i / lim2
    else:
        mr, mi = np.zeros(lam.shape), np.zeros(lam.shape)
        cr, ci = np.ones(lam.shape), np.zeros(lam.shape)
    br, bi = mr, mi
    with np.errstate(over="ignore", invalid="ignore"):
        for a, rpw, rm, rp in _fd_steps(dim, mode, n_grid):
            br, bi = mr, mi
            # c = a - lam2 * rpw, a float minus a complex
            kr, ki = a - l2r * rpw, 0.0 - l2i * rpw
            nr = (kr * cr - ki * ci - rm * mr) / rp
            ni = (kr * ci + ki * cr - rm * mi) / rp
            mr, mi = cr, ci
            cr, ci = nr, ni
            big = (np.abs(cr) > _FD_RESCALE) | (np.abs(ci) > _FD_RESCALE)
            if big.any():
                mr, mi, cr, ci, br, bi = (np.where(big, part / _FD_RESCALE,
                                                   part)
                                          for part in (mr, mi, cr, ci, br, bi))
    out = []
    for re_part, im_part in ((br, bi), (mr, mi), (cr, ci)):
        z = np.empty(lam.shape, dtype=complex)
        z.real, z.imag = re_part, im_part
        out.append(z)
    return tuple(out)
