"""Truncated bivariate power-series algebra over complex coefficients.

Everything formal in this package is carried by two small containers: a
``Jet`` (a series in two variables xi, eta truncated at total degree N) and a
``MapJet`` (a pair of Jets representing a formal plane transformation).  A
series in the single radial variable t = xi*eta is a plain numpy array of
its coefficients.  All operations are pure and return new objects;
coefficients of any algebraic combination are exact through the truncation
order up to floating-point rounding.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_ORDER = 16
MAX_ORDER = 64


@lru_cache(maxsize=None)
def _triangle_mask(order: int) -> np.ndarray:
    i = np.arange(order + 1)
    return (i[:, None] + i[None, :]) <= order


def _check_int(value, name: str, lo: int = 1, hi: int | None = None) -> int:
    """The package's one rule for a count, order, period, index or size:
    `value` as an int in [lo, hi] (hi None: no upper end).

    operator.index admits Python and numpy integers alone, so a float or a
    string is refused rather than rounded; a bool is refused too.  Either
    failure raises one ValueError that names the argument.
    """
    try:
        k = operator.index(value)
    except TypeError:
        k = None
    if k is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if k < lo or (hi is not None and k > hi):
        bound = f"at least {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return k


def _check_order(order) -> int:
    return _check_int(order, "truncation order", 1, MAX_ORDER)


@dataclass(frozen=True)
class Jet:
    """Series sum c[i,j] xi^i eta^j over i+j <= order, stored densely.

    Entries of ``coeffs`` with i+j > order are kept identically zero. The
    array is never mutated after construction.
    """

    coeffs: np.ndarray
    order: int

    @staticmethod
    def zero(order: int = DEFAULT_ORDER) -> "Jet":
        order = _check_order(order)
        return Jet(np.zeros((order + 1, order + 1), dtype=complex), order)

    @staticmethod
    def from_entries(entries: dict[tuple[int, int], complex], order: int = DEFAULT_ORDER) -> "Jet":
        order = _check_order(order)
        c = np.zeros((order + 1, order + 1), dtype=complex)
        for (i, j), v in entries.items():
            if i < 0 or j < 0 or i + j > order:
                raise ValueError(f"index ({i},{j}) outside triangle of order {order}")
            c[i, j] = v
        return Jet(c, order)

    @staticmethod
    def constant(value: complex, order: int = DEFAULT_ORDER) -> "Jet":
        return Jet.from_entries({(0, 0): value}, order)

    @staticmethod
    def coordinate(which: str, order: int = DEFAULT_ORDER) -> "Jet":
        if which == "xi":
            return Jet.from_entries({(1, 0): 1.0}, order)
        if which == "eta":
            return Jet.from_entries({(0, 1): 1.0}, order)
        raise ValueError(f"unknown coordinate {which!r}")

    def __post_init__(self):
        # Every jet operation builds a jet, so a plain in-range int skips
        # the rule's call; anything else (a float, a bool, a numpy
        # integer) goes through it.
        order = self.order
        if type(order) is not int or not 1 <= order <= MAX_ORDER:
            object.__setattr__(self, "order", _check_order(order))
        c = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", c)
        if c.shape != (self.order + 1, self.order + 1):
            raise ValueError("coefficient table shape does not match order")
        c.setflags(write=False)

    def __add__(self, other: "Jet") -> "Jet":
        return jet_add(self, other)

    def __sub__(self, other: "Jet") -> "Jet":
        _same_order(self, other)
        return Jet(self.coeffs - other.coeffs, self.order)

    def __mul__(self, other):
        if isinstance(other, Jet):
            return jet_mul(self, other)
        return Jet(self.coeffs * complex(other), self.order)

    __rmul__ = __mul__

    def coeff(self, i: int, j: int) -> complex:
        return complex(self.coeffs[i, j])

    def truncate(self, order: int) -> "Jet":
        order = _check_order(order)
        if order >= self.order:
            c = np.zeros((order + 1, order + 1), dtype=complex)
            c[: self.order + 1, : self.order + 1] = self.coeffs
        else:
            c = self.coeffs[: order + 1, : order + 1].copy()
            c[~_triangle_mask(order)] = 0.0
        return Jet(c, order)

    def max_abs(self) -> float:
        return float(np.abs(self.coeffs).max())

    def eval(self, xi, eta):
        """Evaluate the polynomial at numeric points (arrays broadcast)."""
        xi = np.asarray(xi, dtype=complex)
        eta = np.asarray(eta, dtype=complex)
        out = np.zeros(np.broadcast(xi, eta).shape, dtype=complex)
        xp = [np.ones_like(xi)]
        ep = [np.ones_like(eta)]
        for _ in range(self.order):
            xp.append(xp[-1] * xi)
            ep.append(ep[-1] * eta)
        for i in range(self.order + 1):
            for j in range(self.order + 1 - i):
                c = self.coeffs[i, j]
                if c != 0.0:
                    out = out + c * xp[i] * ep[j]
        return out


def _same_order(a, b):
    if a.order != b.order:
        raise ValueError(f"truncation order mismatch: {a.order} != {b.order}")


def jet_add(a: Jet, b: Jet) -> Jet:
    """Coefficient-wise sum of two jets of equal order."""
    _same_order(a, b)
    return Jet(a.coeffs + b.coeffs, a.order)


@lru_cache(maxsize=None)
def _product_pairs(order: int) -> tuple[np.ndarray, ...]:
    """Gather plan of the product truncated at total degree `order`.

    Output entry (p, q) of the triangle is the sum of a[i, j] * b[p-i, q-j]
    over its own (p+1)(q+1) pairs, C(order+4, 4) pairs in all.  Returns the
    flat output index of every triangle entry, the flat indices into a and
    b of every pair, grouped by output in that order, and the offset at
    which each group starts.  The arrays are shared, hence read-only.
    """
    rows, cols = np.nonzero(_triangle_mask(order))
    counts = (rows + 1) * (cols + 1)
    starts = np.cumsum(counts) - counts
    group = np.repeat(np.arange(len(rows)), counts)
    i, j = np.divmod(np.arange(counts.sum()) - starts[group], cols[group] + 1)
    w = order + 1
    plan = (rows * w + cols, i * w + j, (rows[group] - i) * w + (cols[group] - j), starts)
    for arr in plan:
        arr.setflags(write=False)
    return plan


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Cauchy product truncated at total degree N.

    Every surviving coefficient is the exact (up to rounding) finite sum
    of its own coefficient products: no padding, no FFT, and no
    truncation bias below order N.  A factor with only a few nonzero
    entries is applied by shift-and-add; otherwise the pairs of every
    output entry are gathered from a plan cached per order
    (`_product_pairs`), multiplied, and summed group by group.
    """
    _same_order(a, b)
    n = a.order
    na = int(np.count_nonzero(a.coeffs))
    nb = int(np.count_nonzero(b.coeffs))
    if min(na, nb) <= 4:
        if nb < na:
            a, b = b, a
        out = np.zeros((n + 1, n + 1), dtype=complex)
        for i, j in zip(*np.nonzero(a.coeffs)):
            out[i:, j:] += a.coeffs[i, j] * b.coeffs[: n + 1 - i, : n + 1 - j]
        out[~_triangle_mask(n)] = 0.0
    else:
        dest, ia, ib, starts = _product_pairs(n)
        out = np.zeros((n + 1) * (n + 1), dtype=complex)
        out[dest] = np.add.reduceat(a.coeffs.ravel()[ia] * b.coeffs.ravel()[ib], starts)
        out = out.reshape(n + 1, n + 1)
    return Jet(out, n)


@dataclass(frozen=True)
class MapJet:
    """Formal transformation (xi, eta) -> (x(xi,eta), y(xi,eta))."""

    x: Jet
    y: Jet

    def __post_init__(self):
        _same_order(self.x, self.y)

    @property
    def order(self) -> int:
        return self.x.order

    @staticmethod
    def identity(order: int = DEFAULT_ORDER) -> "MapJet":
        return MapJet(Jet.coordinate("xi", order), Jet.coordinate("eta", order))

    @staticmethod
    def swap(order: int = DEFAULT_ORDER) -> "MapJet":
        return MapJet(Jet.coordinate("eta", order), Jet.coordinate("xi", order))

    def linear_part(self) -> np.ndarray:
        """2x2 matrix of degree-1 coefficients (rows: components)."""
        return np.array(
            [
                [self.x.coeff(1, 0), self.x.coeff(0, 1)],
                [self.y.coeff(1, 0), self.y.coeff(0, 1)],
            ]
        )

    def fixes_origin(self) -> bool:
        return self.x.coeff(0, 0) == 0 and self.y.coeff(0, 0) == 0

    def max_abs(self) -> float:
        return max(self.x.max_abs(), self.y.max_abs())

    def truncate(self, order: int) -> "MapJet":
        return MapJet(self.x.truncate(order), self.y.truncate(order))

    def __sub__(self, other: "MapJet") -> "MapJet":
        return MapJet(self.x - other.x, self.y - other.y)

    def eval(self, xi, eta):
        return self.x.eval(xi, eta), self.y.eval(xi, eta)


def _degrees(*jets: Jet) -> np.ndarray:
    """Total degrees at which any of the jets has a nonzero coefficient."""
    i, j = np.nonzero(np.any([f.coeffs != 0 for f in jets], axis=0))
    return i + j


def _powers(y: Jet, top: int) -> np.ndarray:
    """Coefficient tables of y^0, ..., y^top stacked along a first axis."""
    n = y.order
    pw = [Jet.constant(1.0, n), y][: top + 1]
    for _ in range(top - 1):
        pw.append(jet_mul(pw[-1], y))
    return np.stack([p.coeffs for p in pw])


def _compose(f: Jet, x: Jet, ypow: np.ndarray) -> Jet:
    """f(x, y) through degree N, given the power table y^0, ..., y^D of y.

    f must vanish above total degree D; its rows and columns beyond D are
    never read.
    """
    n = f.order
    top = len(ypow) - 1
    # rows[i] = sum_j f[i, j] y^j; then a Horner loop in x from row D.
    rows = np.tensordot(f.coeffs[: top + 1, : top + 1], ypow, axes=(1, 0))
    out = Jet(rows[top], n)
    for i in range(top - 1, -1, -1):
        out = Jet(jet_mul(out, x).coeffs + rows[i], n)
    return out


def _check_inner(f: Jet, phi: MapJet) -> None:
    _same_order(f, phi.x)
    if not phi.fixes_origin():
        raise ValueError("composition target must fix the origin")


def jet_compose(f: Jet, phi: MapJet) -> Jet:
    """Coefficients of f(phi) through degree N.

    Only the powers of phi.y up to the top total degree D of f are built;
    they are contracted with f's rows in one tensor product, and a Horner
    loop in phi.x then takes D products.  The zero jet composes to zero.

    Parameters
    ----------
    f : Jet
    phi : MapJet
        Must fix the origin; otherwise composition is not a polynomial
        operation on truncated series.
    """
    _check_inner(f, phi)
    top = int(_degrees(f).max(initial=-1))
    if top < 0:
        return f
    return _compose(f, phi.x, _powers(phi.y, top))


def map_compose(outer: MapJet, inner: MapJet) -> MapJet:
    """outer(inner(.)) through degree N.

    Both components share one power table of inner.y, built only up to
    the top total degree D of outer, so a composition costs 3D - 1 jet
    products (D - 1 for the table, D per Horner loop) for D >= 1.  The
    zero map composes to zero.
    """
    _check_inner(outer.x, inner)
    top = int(_degrees(outer.x, outer.y).max(initial=-1))
    if top < 0:
        return outer
    ypow = _powers(inner.y, top)
    return MapJet(_compose(outer.x, inner.x, ypow), _compose(outer.y, inner.x, ypow))


def _compose_product_form(m, m_prime, inner: MapJet) -> MapJet:
    """(X M(XY), Y M'(XY)), the product form (xi M, eta M') after inner = (X, Y), by
    a Horner loop in t = XY over the (N + 1) // 2 coefficients of each series
    that reach degree N; a swapped form (eta M, xi M') is the kernel on (Y, X)."""
    k = (inner.order + 1) // 2
    t = jet_mul(inner.x, inner.y)
    one = Jet.constant(1.0, t.order)
    out = []
    for c, factor in ((m[:k], inner.x), (m_prime[:k], inner.y)):
        acc = c[-1] * one
        for ck in c[-2::-1]:
            acc = jet_mul(acc, t) + ck * one
        out.append(jet_mul(factor, acc))
    return MapJet(*out)


def map_inverse(phi: MapJet) -> MapJet:
    """Compositional inverse, solved degree by degree.

    The linear part L is inverted exactly; nonlinear orders are filled in
    by the fixed-point iteration psi <- L^{-1}(id - P(psi)) from
    psi = L^{-1}, where P is the nonlinear part of phi.  If the lowest
    nonzero total degree of P is d, psi = L^{-1} is right through degree
    d - 1 and each pass fixes d - 1 more degrees, so (N - d) // (d - 1) + 1
    passes reach degree N (none for a linear phi).  This holds bit for bit
    in floating point: a degree-m coefficient of P(psi) is computed from
    coefficients of psi of degree at most m - d + 1 alone.  The pass count
    is the one stopping rule: a pass at the fixed point returns its input.
    """
    n = phi.order
    if not phi.fixes_origin():
        raise ValueError("can only invert maps fixing the origin")
    lin = phi.linear_part()
    det = lin[0, 0] * lin[1, 1] - lin[0, 1] * lin[1, 0]
    if abs(det) < 1e-14:
        raise ValueError("singular linear part")
    inv = np.array([[lin[1, 1], -lin[0, 1]], [-lin[1, 0], lin[0, 0]]]) / det

    # Nonlinear part of phi.
    px = phi.x.coeffs.copy()
    py = phi.y.coeffs.copy()
    px[1, 0] = px[0, 1] = 0.0
    py[1, 0] = py[0, 1] = 0.0
    pnl = MapJet(Jet(px, n), Jet(py, n))
    degrees = _degrees(pnl.x, pnl.y)
    passes = 0
    if degrees.size:
        d = int(degrees.min())
        passes = (n - d) // (d - 1) + 1

    ident = MapJet.identity(n)

    def linmap(m: MapJet) -> MapJet:
        return MapJet(
            Jet(inv[0, 0] * m.x.coeffs + inv[0, 1] * m.y.coeffs, n),
            Jet(inv[1, 0] * m.x.coeffs + inv[1, 1] * m.y.coeffs, n),
        )

    psi = linmap(ident)
    for _ in range(passes):
        psi = linmap(ident - map_compose(pnl, psi))
    return psi


def jet_exp_i(g: Jet) -> Jet:
    """exp(i g) for a jet with zero constant term, by a Horner loop."""
    if g.coeff(0, 0) != 0:
        raise ValueError("jet_exp_i requires zero constant term")
    n = g.order
    one = Jet.constant(1.0, n)
    out = one
    for k in range(n, 0, -1):
        out = jet_add(one, jet_mul(g, out) * (1j / k))
    return out


def rho_conjugate(phi: MapJet, rho_kind: str = "standard") -> MapJet:
    """The holomorphic map rho . phi . rho for an antiholomorphic involution rho.

    "standard" is rho(xi,eta) = (etabar, xibar); "surface" is
    rho(xi,eta) = (xibar, etabar).  Both squares are the identity, so the
    reality condition rho phi = phi rho reads rho_conjugate(phi) == phi.
    """
    if rho_kind == "standard":
        return MapJet(
            Jet(np.conj(phi.y.coeffs).T.copy(), phi.order),
            Jet(np.conj(phi.x.coeffs).T.copy(), phi.order),
        )
    if rho_kind == "surface":
        return MapJet(
            Jet(np.conj(phi.x.coeffs), phi.order),
            Jet(np.conj(phi.y.coeffs), phi.order),
        )
    raise ValueError(f"unknown rho_kind {rho_kind!r}")


def reality_defect(phi: MapJet, rho_kind: str = "standard") -> float:
    """Max coefficient modulus of rho.phi - phi.rho (zero iff reality holds)."""
    return (rho_conjugate(phi, rho_kind) - phi).max_abs()


def map_residual(a: MapJet, b: MapJet) -> float:
    return (a - b).max_abs()


# ---------------------------------------------------------------------------
# One-variable series in t = xi*eta.


def _as_series(c) -> np.ndarray:
    return np.asarray(c, dtype=complex).ravel()


def series_mul(a, b) -> np.ndarray:
    """Product of two series, truncated at the order of a."""
    a = _as_series(a)
    return np.convolve(a, _as_series(b))[: len(a)]


def series_reciprocal(a) -> np.ndarray:
    a = _as_series(a)
    if a[0] == 0:
        raise ValueError("series has no reciprocal: zero constant term")
    out = np.zeros_like(a)
    out[0] = 1.0 / a[0]
    for k in range(1, len(a)):
        out[k] = -np.dot(a[1 : k + 1], out[k - 1 :: -1]) / a[0]
    return out


def series_log(a) -> np.ndarray:
    """Principal logarithm of a series with nonzero constant term."""
    a = _as_series(a)
    if a[0] == 0:
        raise ValueError("log of series with zero constant term")
    out = np.zeros_like(a)
    out[0] = np.log(a[0])
    for k in range(1, len(a)):
        acc = a[k]
        for j in range(1, k):
            acc -= (j / k) * out[j] * a[k - j]
        out[k] = acc / a[0]
    return out


def series_exp(g) -> np.ndarray:
    g = _as_series(g)
    out = np.zeros_like(g)
    out[0] = np.exp(g[0])
    for k in range(1, len(g)):
        out[k] = sum((j / k) * g[j] * out[k - j] for j in range(1, k + 1))
    return out


def series_pow(a, r: float) -> np.ndarray:
    """Principal a(t)^r for real exponent r, a(0) != 0."""
    return series_exp(r * series_log(a))


# Offset (i0, j0) of the diagonal (k+i0, k+j0) that carries the
# coefficients c_k of each kind of radial series.
_DIAGONALS = {"plain": (0, 0), "xi": (1, 0), "eta": (0, 1)}


def _diagonal(kind: str, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the `kind` diagonal inside the triangle."""
    if kind not in _DIAGONALS:
        raise ValueError(f"unknown kind {kind!r}")
    i0, j0 = _DIAGONALS[kind]
    k = np.arange((order - i0 - j0) // 2 + 1)
    return k + i0, k + j0


def diagonal_series(f: Jet, kind: str) -> np.ndarray:
    """Extract the radial series sitting on a diagonal of a Jet.

    kind "xi" reads coefficients of xi (xi eta)^k at (k+1, k); "eta" reads
    eta (xi eta)^k at (k, k+1); "plain" reads (xi eta)^k at (k, k).
    """
    return f.coeffs[_diagonal(kind, f.order)]


def off_diagonal_residual(f: Jet, kind: str) -> float:
    """Max modulus of coefficients NOT on the given diagonal."""
    c = f.coeffs.copy()
    c[_diagonal(kind, f.order)] = 0.0
    return float(np.abs(c).max())
