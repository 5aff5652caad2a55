"""Independent computations the benchmark checks the program against.

Nothing here imports revtwist.  Jets are dense (N+1) x (N+1) complex
arrays with entry [i, j] the coefficient of xi^i eta^j and zeros above the
anti-diagonal i + j = N; maps are pairs of such arrays.  The algebra is
written differently from the program's (power tables instead of a Horner
sweep, a 2-D direct convolution instead of a packed 1-D one), so a shared
bug is unlikely to cancel out.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.signal import convolve2d


def triangle(order: int) -> np.ndarray:
    i = np.arange(order + 1)
    return (i[:, None] + i[None, :]) <= order


def jmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product of two jets by a direct 2-D convolution."""
    n = a.shape[0] - 1
    out = convolve2d(a, b, mode="full")[: n + 1, : n + 1]
    out[~triangle(n)] = 0.0
    return out


def coordinate(order: int, which: int) -> np.ndarray:
    c = np.zeros((order + 1, order + 1), dtype=complex)
    c[(1, 0) if which == 0 else (0, 1)] = 1.0
    return c


def compose(f: np.ndarray, g: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """f(gx, gy) through degree N for a map g fixing the origin.

    Sums gx^i * (sum_j f[i, j] gy^j) over i from two power tables.
    """
    n = f.shape[0] - 1
    one = np.zeros_like(f)
    one[0, 0] = 1.0
    px, py = [one], [one]
    for _ in range(n):
        px.append(jmul(px[-1], g[0]))
        py.append(jmul(py[-1], g[1]))
    py = np.array(py)
    out = np.zeros_like(f)
    for i in range(n + 1):
        row = np.tensordot(f[i, : n + 1 - i], py[: n + 1 - i], axes=1)
        out += jmul(px[i], row)
    return out


def map_compose(f, g):
    return compose(f[0], g), compose(f[1], g)


def map_inverse(f):
    """Compositional inverse by the fixed point psi = L^{-1}(id - P(psi)).

    P, the nonlinear part, starts at degree 2, so a pass at order m makes
    psi exact through degree m when it was exact through m - 1; each pass
    runs only at its own order.
    """
    n = f[0].shape[0] - 1
    lin = np.array([[f[0][1, 0], f[0][0, 1]], [f[1][1, 0], f[1][0, 1]]])
    inv = np.linalg.inv(lin)
    nl = []
    for comp in f:
        c = comp.copy()
        c[1, 0] = c[0, 1] = 0.0
        nl.append(c)
    ident = (coordinate(n, 0), coordinate(n, 1))

    def linmap(m):
        return (inv[0, 0] * m[0] + inv[0, 1] * m[1], inv[1, 0] * m[0] + inv[1, 1] * m[1])

    psi = linmap(ident)
    for m in range(2, n + 1):
        cut = [c[: m + 1, : m + 1] for c in (*nl, *psi)]
        p = map_compose(cut[:2], cut[2:])
        q = linmap((ident[0][: m + 1, : m + 1] - p[0], ident[1][: m + 1, : m + 1] - p[1]))
        psi = tuple(np.zeros_like(ident[0]) for _ in range(2))
        for full, part in zip(psi, q):
            full[: m + 1, : m + 1] = part
    return psi


def normal_form(lam: complex, eps: int, s: int, order: int):
    """(lam xi e^{i eps t^s}, lam^{-1} eta e^{-i eps t^s}), t = xi eta."""
    x = np.zeros((order + 1, order + 1), dtype=complex)
    y = np.zeros_like(x)
    m = 0
    while 2 * s * m + 1 <= order:
        k = s * m
        term = (1j * eps) ** m / math.factorial(m)
        x[k + 1, k] = lam * term
        y[k, k + 1] = np.conj(term) / lam
        m += 1
    return x, y


def swap_commuting_frame(rng: np.random.Generator, order: int, scale: float):
    """id + real noise of degree >= 2 with y = x^T: commutes with the swap
    (xi, eta) -> (eta, xi) and with rho (xi, eta) -> (conj eta, conj xi)."""
    a = scale * rng.standard_normal((order + 1, order + 1)).astype(complex)
    i = np.arange(order + 1)
    deg = i[:, None] + i[None, :]
    a[(deg > order) | (deg < 2)] = 0.0
    a[1, 0] += 1.0
    return a, a.T.copy()


def max_abs(m) -> float:
    return max(float(np.abs(c).max()) for c in m)


# ---------------------------------------------------------------------------
# Resonances in extended precision


def beta_of(n: int, alpha: float) -> float:
    """beta in (-pi, pi] with n alpha = 2 g pi + beta, from 40-digit arithmetic."""
    with mpmath.workdps(40):
        x = mpmath.mpf(n) * mpmath.mpf(alpha)
        g = mpmath.floor((x + mpmath.pi) / (2 * mpmath.pi))
        return float(x - 2 * g * mpmath.pi)


def winding_of(n: int, alpha: float) -> int:
    with mpmath.workdps(40):
        x = mpmath.mpf(n) * mpmath.mpf(alpha)
        return int(mpmath.floor((x + mpmath.pi) / (2 * mpmath.pi)))


def resonant_periods(alpha: float, delta: float, count: int, n_max: int) -> list[int]:
    """First `count` n <= n_max with beta(n) in (-delta, 0), by a full scan."""
    out = []
    for n in range(1, n_max + 1):
        if -delta < beta_of(n, alpha) < 0.0:
            out.append(n)
            if len(out) == count:
                break
    return out


# ---------------------------------------------------------------------------
# Pointwise perturbed twist


def family_eval(entries: dict, xi, eta):
    out = np.zeros(np.broadcast(xi, eta).shape, dtype=complex)
    for (i, j), v in entries.items():
        out += v * xi**i * eta**j
    return out


def perturbed_twist(entries: dict, alpha: float, s: int):
    """phi_a . T . phibar_a^{-1} at arrays of points.

    T multiplies (xi, eta) by e^{+-i (alpha + (xi eta)^s)}; phi_a by
    e^{+-i a(xi, eta)}; phibar_a uses the conjugated coefficients, and its
    inverse solves c = abar(e^{ic} xi, e^{-ic} eta) by iteration.
    """
    conj_entries = {k: np.conj(v) for k, v in entries.items()}

    def step(xi, eta):
        c = np.zeros_like(xi)
        for _ in range(100):
            ph = np.exp(1j * c)
            cn = family_eval(conj_entries, ph * xi, eta / ph)
            done = np.abs(cn - c).max() <= 2e-16 * (1.0 + np.abs(cn).max())
            c = cn
            if done:
                break
        ph = np.exp(1j * c)
        xi, eta = ph * xi, eta / ph
        ph = np.exp(1j * (alpha + (xi * eta) ** s))
        xi, eta = ph * xi, eta / ph
        ph = np.exp(1j * family_eval(entries, xi, eta))
        return ph * xi, eta / ph

    return step
