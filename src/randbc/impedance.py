"""Random impedance sequences, random contractions, and the Cayley transform.

All sampling is counter-based: a (seed, stream) pair keys a Philox generator,
so the draw at any index is a pure function of (seed, stream, index) and
parallel scheduling cannot perturb statistics.
"""
import math
from dataclasses import dataclass

import numpy as np

from randbc.extension_lab import ContractionOp

ACCRETIVE_TOL = 1e-12
_STREAM_STRIDE = 0x9E3779B97F4A7C15  # odd 64-bit mix constant


class BudgetError(ValueError):
    """Contraction budget inequality violated by the supplied parameters."""


@dataclass(frozen=True)
class SeededStream:
    """Counter-based RNG coordinates; children are independent by key."""
    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed % 2**64, self.stream % 2**64],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "SeededStream":
        mixed = (self.stream * _STREAM_STRIDE + index + 1) % 2**64
        return SeededStream(self.seed, mixed)


class ImpedanceDistribution:
    """Law of one i.i.d. impedance value, supported in {Re z >= 0}.

    survival_abs(s) = P{|zeta| >= s} is the primitive used by the compactness
    criteria (it is what the series sum_k mult 1-F(delta sqrt(mu_k)) needs,
    atoms included); cdf_abs is the ordinary right-continuous P{|zeta| <= s}.
    """
    kind = "abstract"

    def sample(self, n, rng):
        raise NotImplementedError

    # Laws whose |zeta| is a function of one uniform draw define
    # abs_quantile(u), the inverse cdf of |zeta| at the uniforms u, and sample
    # through it; weyl.monte_carlo_transition needs it.  It must be
    # nondecreasing in u (elementwise, in floating point): the Monte Carlo
    # maps only each window's running-max uniforms and is exact only then.
    abs_quantile = None

    def survival_abs(self, s) -> float:
        raise NotImplementedError

    def cdf_abs(self, s) -> float:
        raise NotImplementedError

    def abs_moment(self, p) -> float:
        raise NotImplementedError

    def abs_bound(self):
        """sup |zeta| for bounded support, else None."""
        return None

    def params(self) -> dict:
        return {}

    def label(self) -> str:
        items = ",".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in self.params().items())
        return f"{self.kind}({items})"


class PointMass(ImpedanceDistribution):
    kind = "point_mass"

    def __init__(self, z0):
        z0 = complex(z0)
        if z0.real < -ACCRETIVE_TOL:
            raise ValueError("point mass must sit in the closed right half-plane")
        self.z0 = z0

    def sample(self, n, rng):
        return np.full(n, self.z0, dtype=complex)

    def survival_abs(self, s):
        return 1.0 if s <= abs(self.z0) else 0.0

    def cdf_abs(self, s):
        return 1.0 if s >= abs(self.z0) else 0.0

    def abs_moment(self, p):
        return abs(self.z0) ** p

    def abs_bound(self):
        return abs(self.z0)

    def params(self):
        return {"z0": self.z0}


class UniformDisc(ImpedanceDistribution):
    """Uniform on a disc; the center must keep the support accretive."""
    kind = "uniform_disc"

    def __init__(self, radius, center):
        center = complex(center)
        if radius <= 0:
            raise ValueError("radius must be positive")
        if center.real < radius - ACCRETIVE_TOL:
            raise ValueError("need Re(center) >= radius for accretive support")
        self.radius = float(radius)
        self.center = center

    def sample(self, n, rng):
        rho = self.radius * np.sqrt(rng.random(n))
        th = 2.0 * math.pi * rng.random(n)
        return self.center + rho * np.exp(1j * th)

    def _abs_cdf_exact(self, s, strict=False):
        # P{|zeta| < s} (strict) or <= s; the boundary circle has measure 0
        c, r = abs(self.center), self.radius
        if s <= c - r:
            return 0.0
        if s >= c + r:
            return 1.0
        # area of {|z - c| <= r} ∩ {|z| <= s} over pi r^2 (lens area)
        d = c
        if d == 0.0:
            return min(1.0, (s / r) ** 2)
        a1 = s * s * math.acos((d * d + s * s - r * r) / (2 * d * s))
        a2 = r * r * math.acos((d * d + r * r - s * s) / (2 * d * r))
        a3 = 0.5 * math.sqrt(max(0.0, (-d + s + r) * (d + s - r)
                                 * (d - s + r) * (d + s + r)))
        return (a1 + a2 - a3) / (math.pi * r * r)

    def survival_abs(self, s):
        return 1.0 - self._abs_cdf_exact(s)

    def cdf_abs(self, s):
        return self._abs_cdf_exact(s)

    def abs_moment(self, p):
        if p == 2.0:
            return abs(self.center) ** 2 + self.radius ** 2 / 2.0
        # polar quadrature over the disc (finite for every p >= 0)
        nodes, weights = np.polynomial.legendre.leggauss(64)
        rho = 0.5 * self.radius * (nodes + 1.0)
        w_rho = 0.5 * self.radius * weights
        th = math.pi * (nodes + 1.0)
        w_th = math.pi * weights
        zz = self.center + rho[:, None] * np.exp(1j * th[None, :])
        vals = np.abs(zz) ** p * rho[:, None]
        integral = np.einsum("i,j,ij->", w_rho, w_th, vals)
        return float(integral / (math.pi * self.radius ** 2))

    def abs_bound(self):
        return abs(self.center) + self.radius

    def params(self):
        return {"radius": self.radius, "center": self.center}


class UniformImagSegment(ImpedanceDistribution):
    """zeta = i c with c uniform on [c_lo, c_hi]."""
    kind = "uniform_segment_imaginary"

    def __init__(self, c_lo, c_hi):
        if not c_lo < c_hi:
            raise ValueError("need c_lo < c_hi")
        self.c_lo = float(c_lo)
        self.c_hi = float(c_hi)

    def sample(self, n, rng):
        return 1j * rng.uniform(self.c_lo, self.c_hi, size=n)

    def _cdf(self, s):
        # P{|c| <= s}, c uniform on the segment
        if s < 0:
            return 0.0
        lo, hi = self.c_lo, self.c_hi
        length = hi - lo
        covered = max(0.0, min(hi, s) - max(lo, -s))
        return min(1.0, covered / length)

    def survival_abs(self, s):
        lo, hi = self.c_lo, self.c_hi
        covered = max(0.0, min(hi, s) - max(lo, -s))  # measure of {|c| < s}... boundary null
        return max(0.0, 1.0 - covered / (hi - lo))

    def cdf_abs(self, s):
        return self._cdf(s)

    def abs_moment(self, p):
        lo, hi = self.c_lo, self.c_hi
        def prim(x):
            return abs(x) ** (p + 1) / (p + 1) * (1 if x >= 0 else -1)
        return (prim(hi) - prim(lo)) / (hi - lo)

    def abs_bound(self):
        return max(abs(self.c_lo), abs(self.c_hi))

    def params(self):
        return {"c_lo": self.c_lo, "c_hi": self.c_hi}


class ParetoImag(ImpedanceDistribution):
    """zeta = i s with s Pareto(a, s_min): density a s_min^a / s^(a+1), s > s_min."""
    kind = "pareto_imaginary"

    def __init__(self, a, s_min=1.0):
        if a <= 0 or s_min <= 0:
            raise ValueError("Pareto parameters must be positive")
        self.a = float(a)
        self.s_min = float(s_min)

    def sample(self, n, rng):
        return 1j * self.abs_quantile(rng.random(n))

    def abs_quantile(self, u):
        return self.s_min * (1.0 - u) ** (-1.0 / self.a)

    def survival_abs(self, s):
        if s <= self.s_min:
            return 1.0
        return (self.s_min / s) ** self.a

    def cdf_abs(self, s):
        return 1.0 - self.survival_abs(s) if s >= self.s_min else 0.0

    def abs_moment(self, p):
        if p >= self.a:
            return math.inf
        return self.a * self.s_min ** p / (self.a - p)

    def params(self):
        return {"a": self.a, "s_min": self.s_min}


class HalfNormalReal(ImpedanceDistribution):
    """zeta = |N(0, sigma^2)|, a real nonnegative impedance."""
    kind = "half_normal_real"

    def __init__(self, sigma):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.sigma = float(sigma)

    def sample(self, n, rng):
        return np.abs(rng.normal(0.0, self.sigma, size=n)) + 0j

    def survival_abs(self, s):
        if s <= 0:
            return 1.0
        return math.erfc(s / (self.sigma * math.sqrt(2.0)))

    def cdf_abs(self, s):
        return 1.0 - self.survival_abs(s)

    def abs_moment(self, p):
        return (self.sigma ** p * 2.0 ** (p / 2.0)
                * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi))

    def params(self):
        return {"sigma": self.sigma}


class BoundedCustom(ImpedanceDistribution):
    """Nonnegative real zeta with |zeta| distributed by a tabulated cdf.

    The table is (s_i, F_i) with F right-continuous, nondecreasing, F_0 = 0;
    sampling inverts the linear interpolant.  If the table does not reach
    F = 1 the tail is uncertified and the criteria report inconclusive.
    """
    kind = "bounded_custom"

    def __init__(self, s_table, f_table):
        s = np.asarray(s_table, dtype=float)
        f = np.asarray(f_table, dtype=float)
        if s.ndim != 1 or s.shape != f.shape or s.size < 2:
            raise ValueError("need matching 1-d tables with >= 2 points")
        if np.any(np.diff(s) <= 0) or np.any(np.diff(f) < 0):
            raise ValueError("cdf table must be strictly increasing in s, "
                             "nondecreasing in F")
        if s[0] < 0 or f[0] < 0 or f[-1] > 1 + 1e-12:
            raise ValueError("cdf table out of range")
        self.s_table = s
        self.f_table = np.clip(f, 0.0, 1.0)

    def sample(self, n, rng):
        return self.abs_quantile(rng.random(n)) + 0j

    def abs_quantile(self, u):
        return np.interp(u * self.f_table[-1], self.f_table, self.s_table)

    def cdf_abs(self, s):
        if s < self.s_table[0]:
            return 0.0
        if s >= self.s_table[-1]:
            return float(self.f_table[-1])
        return float(np.interp(s, self.s_table, self.f_table))

    def survival_abs(self, s):
        return 1.0 - self.cdf_abs(s)

    def abs_moment(self, p):
        mids = 0.5 * (self.s_table[1:] + self.s_table[:-1])
        jumps = np.diff(self.f_table)
        return float(np.sum(mids ** p * jumps))

    def abs_bound(self):
        if self.f_table[-1] >= 1.0 - 1e-12:
            return float(self.s_table[-1])
        return None

    def tail_certified(self):
        return self.abs_bound() is not None

    def params(self):
        return {"points": len(self.s_table)}


_KINDS = {
    cls.kind: cls
    for cls in (PointMass, UniformDisc, UniformImagSegment, ParetoImag,
                HalfNormalReal)
}


def distribution_from_spec(kind, **params) -> ImpedanceDistribution:
    if kind == "bounded_custom":
        return BoundedCustom(params["s_table"], params["f_table"])
    if kind not in _KINDS:
        raise ValueError(f"unknown distribution kind {kind!r}; "
                         f"known: {sorted(_KINDS) + ['bounded_custom']}")
    return _KINDS[kind](**params)


def sample_sequence(dist: ImpedanceDistribution, m: int,
                    stream: SeededStream) -> np.ndarray:
    """m i.i.d. draws, reproducible from (seed, stream)."""
    if m < 1:
        raise ValueError("sequence length must be >= 1")
    return dist.sample(m, stream.generator())


def cayley_zeta_to_xi(zeta, mu):
    """xi = (zeta - sqrt(1+mu)) / (zeta + sqrt(1+mu)); |xi| <= 1 iff Re zeta >= 0."""
    zeta = complex(zeta)
    if zeta.real < -ACCRETIVE_TOL:
        raise ValueError(f"Re zeta = {zeta.real:.3g} < 0: not accretive")
    if mu < 0:
        raise ValueError("mu must be >= 0")
    s = math.sqrt(1.0 + mu)
    return (zeta - s) / (zeta + s)


def cayley_xi_to_zeta(xi, mu):
    """Inverse Cayley map, defined for xi != 1."""
    xi = complex(xi)
    if xi == 1.0:
        raise ValueError("xi = 1 has no finite impedance preimage")
    s = math.sqrt(1.0 + mu)
    return s * (1.0 + xi) / (1.0 - xi)


@dataclass
class DiagonalContraction:
    """Diagonal contraction entries xi_j (|xi_j| <= 1)."""
    xi: np.ndarray

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=complex)
        worst = float(np.abs(self.xi).max()) if self.xi.size else 0.0
        if worst > 1.0 + ACCRETIVE_TOL:
            raise ValueError(f"sup |xi_j| = {worst:.15g} exceeds 1")


def diagonal_contraction_from_impedance(dist, mus, stream) -> DiagonalContraction:
    """Sample zeta_j and push through the mode-level Cayley transform."""
    mus = np.asarray(mus, dtype=float)
    zetas = sample_sequence(dist, mus.size, stream)
    s = np.sqrt(1.0 + mus)
    return DiagonalContraction((zetas - s) / (zetas + s))


@dataclass(frozen=True)
class CompactnessProxy:
    """Tail statistics of |xi_j + 1| over the trailing window fraction.

    One sample only evidences the a.s. limit; Monte Carlo aggregation over
    trials and truncations happens in randbc.weyl.
    """
    n: int
    window: float
    tail_max: float
    tail_mean: float
    loglog_slope: float


def compactness_proxy(contraction: DiagonalContraction,
                      window=0.5) -> CompactnessProxy:
    xi = contraction.xi
    n = xi.size
    if n < 100:
        raise ValueError("need at least 100 entries for tail statistics")
    if not 0.0 < window <= 1.0:
        raise ValueError("window must be a fraction in (0, 1]")
    start = int(math.floor(n * (1.0 - window)))
    tail = np.abs(xi[start:] + 1.0)
    tail_max = float(tail.max())
    tail_mean = float(tail.mean())
    # dyadic block maxima of |xi+1| against the mode index, log-log slope
    slope = math.nan
    idx = np.arange(start, n) + 1
    n_blocks = 8
    edges = np.unique(np.geomspace(idx[0], idx[-1] + 1, n_blocks + 1).astype(int))
    xs, ys = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (idx >= lo) & (idx < hi)
        if not np.any(sel):
            continue
        block_max = tail[sel].max()
        if block_max > 0:
            xs.append(math.log(0.5 * (lo + hi)))
            ys.append(math.log(block_max))
    if len(xs) >= 3:
        slope = float(np.polyfit(xs, ys, 1)[0])
    return CompactnessProxy(n=n, window=window, tail_max=tail_max,
                            tail_mean=tail_mean, loglog_slope=slope)


@dataclass(frozen=True)
class AdmissibleResult:
    admissible: bool
    c_max: float
    c1_max: float


def admissible_direction_check(d_mat, tol=1e-10) -> AdmissibleResult:
    """Is D an admissible direction from -I, i.e. ||-I + c D|| <= 1 for some c > 0?

    Criterion: Re D >= 0 and c1 (Im D)^2 <= Re D for some c1 > 0, checked via
    the generalized eigenvalues of ((Im D)^2, Re D) on the range of Re D.
    c_max is the largest admissible c, found by bisection on the norm.
    """
    d_mat = np.asarray(d_mat, dtype=complex)
    m = d_mat.shape[0]
    scale = max(float(np.linalg.norm(d_mat, 2)), 1e-300)
    re_d = (d_mat + d_mat.conj().T) / 2.0
    im_d = (d_mat - d_mat.conj().T) / 2j
    evals, vecs = np.linalg.eigh(re_d)
    if evals.min() < -tol * scale:
        return AdmissibleResult(False, 0.0, 0.0)
    null_sel = evals <= tol * scale
    pos_sel = ~null_sel
    # kernel of Re D must sit inside kernel of Im D
    if np.any(null_sel):
        leak = np.linalg.norm(im_d @ vecs[:, null_sel], 2)
        if leak > tol * scale:
            return AdmissibleResult(False, 0.0, 0.0)
    if not np.any(pos_sel):
        # Re D = 0 and Im D = 0: D = 0, every c works
        return AdmissibleResult(True, math.inf, math.inf)
    v_pos = vecs[:, pos_sel]
    lam_pos = evals[pos_sel]
    s_mat = im_d @ im_d
    core = (v_pos.conj().T @ s_mat @ v_pos) / np.sqrt(np.outer(lam_pos, lam_pos))
    gamma = float(np.linalg.eigvalsh(core).max())
    c1_max = math.inf if gamma <= tol else 1.0 / gamma

    def norm_ok(c):
        return np.linalg.norm(-np.eye(m) + c * d_mat, 2) <= 1.0 + 1e-14

    hi = 1.0
    grow = 0
    while norm_ok(hi) and grow < 80:
        hi *= 2.0
        grow += 1
    if grow >= 80:
        return AdmissibleResult(True, math.inf, c1_max)
    lo = 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if norm_ok(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-9 * max(1.0, hi):
            break
    c_max = lo
    return AdmissibleResult(c_max > tol, c_max, c1_max)


def haar_unitary(m, rng) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a complex Ginibre matrix."""
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_contraction(m, rng, boundary=False) -> ContractionOp:
    """Random contraction; boundary=True renormalizes to ||K|| = 1 exactly."""
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    u, s, vh = np.linalg.svd(g)
    if boundary:
        s = s / s[0]
    else:
        s = rng.random(m)
    return ContractionOp(u @ np.diag(s.astype(complex)) @ vh)


def sample_shifted_hs(k0, weights, stream: SeededStream) -> ContractionOp:
    """K = K0 + sum xi_jk e_j x e_k with |xi_jk| <= r_jk uniform on the disc.

    Requires ||K0|| + sqrt(sum r_jk^2) <= 1.
    """
    k0 = np.asarray(k0, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != k0.shape:
        raise BudgetError("weights must match the shape of K0")
    budget = np.linalg.norm(k0, 2) + math.sqrt(float(np.sum(weights ** 2)))
    if budget > 1.0 + ACCRETIVE_TOL:
        raise BudgetError(f"||K0|| + ||r||_2 = {budget:.6g} > 1")
    rng = stream.generator()
    rho = np.sqrt(rng.random(k0.shape)) * weights
    phase = np.exp(2j * math.pi * rng.random(k0.shape))
    return _checked_contraction(k0 + rho * phase)


def sample_quasi_uniform(k0, amplitudes, directions,
                         stream: SeededStream) -> ContractionOp:
    """K = K0 + sum xi_j D_j, xi_j uniform on |z| < a_j, D_j contractions.

    Requires ||K0|| + sum a_j <= 1.
    """
    k0 = np.asarray(k0, dtype=complex)
    amplitudes = [float(a) for a in amplitudes]
    if len(amplitudes) != len(directions):
        raise BudgetError("one amplitude per direction required")
    budget = np.linalg.norm(k0, 2) + sum(amplitudes)
    if budget > 1.0 + ACCRETIVE_TOL:
        raise BudgetError(f"||K0|| + sum a_j = {budget:.6g} > 1")
    rng = stream.generator()
    k = k0.astype(complex).copy()
    for a_j, d_j in zip(amplitudes, directions):
        d_j = np.asarray(d_j, dtype=complex)
        if np.linalg.norm(d_j, 2) > 1.0 + ACCRETIVE_TOL:
            raise BudgetError("directions must be contractions")
        xi = a_j * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random())
        k = k + xi * d_j
    return _checked_contraction(k)


def sample_admissible_mix(budgets, directions,
                          stream: SeededStream) -> ContractionOp:
    """K = -I + sum b_j xi_j D_j with xi_j uniform on [0, c_max(D_j)].

    Requires sum b_j <= 1 and every D_j admissible from -I.
    """
    budgets = [float(b) for b in budgets]
    if len(budgets) != len(directions):
        raise BudgetError("one budget per direction required")
    if sum(budgets) > 1.0 + ACCRETIVE_TOL:
        raise BudgetError(f"sum b_j = {sum(budgets):.6g} > 1")
    mats = [np.asarray(d, dtype=complex) for d in directions]
    m = mats[0].shape[0]
    rng = stream.generator()
    k = -np.eye(m, dtype=complex)
    for b_j, d_j in zip(budgets, mats):
        res = admissible_direction_check(d_j)
        if not res.admissible:
            raise BudgetError("direction not admissible from -I")
        c = res.c_max if math.isfinite(res.c_max) else 1.0
        xi = rng.random() * c
        k = k + b_j * xi * d_j
    return _checked_contraction(k)


def _checked_contraction(k) -> ContractionOp:
    norm = np.linalg.norm(k, 2)
    if norm > 1.0 + 1e-10:
        raise BudgetError(f"sampled matrix has norm {norm:.15g} > 1: "
                          "caller budget violated")
    return ContractionOp(k)


def sample_matrix_contraction(kind, m, stream: SeededStream,
                              **params) -> ContractionOp:
    """Dispatcher over the three random-contraction constructions."""
    if kind == "shifted_hs":
        k0 = params.get("k0")
        if k0 is None:
            k0 = np.zeros((m, m), dtype=complex)
        weights = params.get("weights")
        if weights is None:
            room = 1.0 - np.linalg.norm(np.asarray(k0), 2)
            weights = np.full((m, m), 0.9 * room / m)
        return sample_shifted_hs(k0, weights, stream)
    if kind == "quasi_uniform":
        k0 = params.get("k0")
        if k0 is None:
            k0 = np.zeros((m, m), dtype=complex)
        directions = params.get("directions")
        if directions is None:
            directions = [haar_unitary(m, stream.child(10_000 + j).generator())
                          for j in range(3)]
        amplitudes = params.get("amplitudes")
        if amplitudes is None:
            room = 1.0 - np.linalg.norm(np.asarray(k0), 2)
            amplitudes = [0.9 * room / len(directions)] * len(directions)
        return sample_quasi_uniform(k0, amplitudes, directions, stream)
    if kind == "admissible_mix":
        directions = params.get("directions")
        if directions is None:
            rng = stream.child(20_000).generator()
            directions = []
            for _ in range(3):
                v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                v /= np.linalg.norm(v)
                directions.append(np.outer(v, v.conj()))
        budgets = params.get("budgets", [1.0 / len(directions)] * len(directions))
        return sample_admissible_mix(budgets, directions, stream)
    raise ValueError(f"unknown contraction sampler kind {kind!r}")
