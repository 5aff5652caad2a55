"""The swap reversibility of a Hermitian varphi and the half-circle solve
that rests on it.

For a Hermitian family, S varphi S = varphi^{-1} with S the swap
(xi, eta) -> (eta, xi), so S carries the period-n point at w on the unit
circle to the one at conj(w) with the same zeta.  `periodic_curve` then
solves the closed half w_0 ... w_{G//2} of its grid and reads sample m
from index min(m, G - m)."""

import math

import numpy as np
import pytest

from revtwist import surface, twist
from revtwist.families import CoefficientFamily
from revtwist.obstruction import Hk_estimate, divergence_witness, select_resonant_n
from revtwist.twist import (
    DomainError,
    SolverError,
    TwistParams,
    beta_reduce,
    h_eval,
    iterate,
    make_varphi,
    periodic_curve,
)

from test_twist import random_hermitian_family, resonant_alpha

EPS = np.finfo(float).eps


def draw_family(rng, s, scale):
    """A Hermitian family of every (i, j) of total degree 2s+1 .. 2s+3."""
    return random_hermitian_family(rng, s, range(2 * s + 1, 2 * s + 4), scale)


def swap_return(fam, tp, xi, eta):
    """S varphi S varphi (xi, eta) - (xi, eta), the larger part's modulus."""
    varphi = make_varphi(fam, tp)
    x, y = varphi(xi, eta)
    y, x = varphi(y, x)  # S varphi S: swap in, swap back out
    return max(float(np.abs(x - xi).max()), float(np.abs(y - eta).max()))


@pytest.mark.parametrize("s", [1, 2, 3])
def test_hermitian_varphi_is_reversible_by_the_swap(s):
    rng = np.random.default_rng(100 + s)
    tp = TwistParams(alpha=float(rng.uniform(0, 2 * math.pi)), s=s)
    r = rng.uniform(0.1, 0.6, 40)
    xi = r * np.exp(2j * np.pi * rng.uniform(size=40))
    eta = rng.uniform(0.1, 0.6, 40) * np.exp(2j * np.pi * rng.uniform(size=40))
    for _ in range(3):
        fam = draw_family(rng, s, 0.05)
        assert swap_return(fam, tp, xi, eta) <= 1e-14
        # Control: the same entries with one mirror value turned are no
        # longer Hermitian, and miss the identity by far more than rounding.
        ent = dict(fam.entries)
        key = (2 * s + 1, 0)
        ent[key] *= 1j
        assert swap_return(CoefficientFamily(ent, s), tp, xi, eta) > 1e-6


def curve_or_error(fam, tp, n, j, grid):
    try:
        return periodic_curve(fam, tp, n, j, grid_size=grid)
    except (DomainError, SolverError) as exc:
        return type(exc)


# (s, n, beta, family scale): solved on every branch and grid
PARITY_CASES = [(1, 9, -0.3, 0.05), (1, 23, -1.1, 0.02), (2, 7, -0.6, 0.04),
                (2, 12, -1.4, 0.1), (3, 5, -0.4, 0.03), (3, 10, -0.9, 0.04)]


@pytest.mark.parametrize("s, n, beta, scale", PARITY_CASES)
def test_half_circle_matches_full_circle(s, n, beta, scale):
    # The same entries as a Hermitian family (half circle) and as a plain
    # one (full circle): on every branch and on 4n, 4n + 1 and the default
    # grid the samples and Laurent coefficients agree within
    # 8 eps max|zeta|, the step counts within one.
    rng = np.random.default_rng([s, n])
    tp = TwistParams(alpha=resonant_alpha(n, int(rng.integers(1, n)), beta), s=s)
    half = draw_family(rng, s, scale)
    full = CoefficientFamily(half.entries, s)
    for j in range(1, 2 * s + 1):
        for grid in (4 * n, 4 * n + 1, None):
            a = periodic_curve(half, tp, n, j, grid_size=grid)
            b = periodic_curve(full, tp, n, j, grid_size=grid)
            assert [w for w, _ in a.samples] == [w for w, _ in b.samples]
            za = np.array([z for _, z in a.samples])
            zb = np.array([z for _, z in b.samples])
            tol = 8 * EPS * float(np.abs(zb).max())
            assert float(np.abs(za - zb).max()) <= tol
            assert a.laurent.keys() == b.laurent.keys()
            assert max(abs(a.laurent[k] - b.laurent[k]) for k in a.laurent) <= tol
            assert abs(a.steps - b.steps) <= 1
            assert a.zeta0 == b.zeta0 and a.residual <= 1e-10
            # Sample m is read from index min(m, G - m): the mirror of a
            # solved sample is that sample.
            G = a.grid_size
            assert all(za[m] == za[G - m] for m in range(1, G))


# (s, n, beta, entries, j, exception, message): refused on both paths with
# one class
REFUSALS = {
    "polydisk escape": (2, 2, -0.5, {(3, 2): 0.5j}, 1, DomainError, "escaped the unit polydisk"),
    "p_n above 1/2": (1, 4, -1.0, {(3, 0): 0.9}, 2, DomainError, r"^\|p_n\| = "),
    "exponent solve": (1, 2, -1.0, {(3, 0): 0.9}, 2, SolverError, "exponent iteration"),
}


@pytest.mark.parametrize("case", REFUSALS, ids=list(REFUSALS))
def test_half_circle_keeps_the_refusals(case):
    s, n, beta, entries, j, error, match = REFUSALS[case]
    tp = TwistParams(alpha=resonant_alpha(n, 1, beta), s=s)
    half = CoefficientFamily(entries, s, hermitian=True)
    full = CoefficientFamily(half.entries, s)
    for grid in (4 * n, 4 * n + 1, None):
        assert curve_or_error(full, tp, n, j, grid) is error
        with pytest.raises(error, match=match):
            periodic_curve(half, tp, n, j, grid_size=grid)


def test_mirrored_samples_pass_the_gates_on_their_own():
    # A mirrored sample never runs the iteration, so the iteration's own
    # refusals are those of the solved half: here the full circle loses
    # |h| <= 1/2 at an intermediate iterate of four points of the other
    # half, while the half circle solves.  Every sample of the half-circle
    # curve, mirrored ones included, holds the curve equation within 1e-12
    # and returns within 1e-10 under n pointwise steps of varphi.
    s, n, j = 1, 2, 1
    tp = TwistParams(alpha=resonant_alpha(n, 1, -1.0), s=s)
    half = CoefficientFamily({(2, 1): 0.9 + 0.3j}, s, hermitian=True)
    with pytest.raises(DomainError, match=r"^\|h\| > 1/2"):
        periodic_curve(CoefficientFamily(half.entries, s), tp, n, j, grid_size=64)
    crv = periodic_curve(half, tp, n, j, grid_size=64)
    w = np.array([w for w, _ in crv.samples])
    z = np.array([z for _, z in crv.samples])
    h = h_eval(z, w, half, tp, n)
    target = np.exp(1j * j * math.pi / s) * crv.zeta0
    assert float(np.abs(h).max()) <= 0.5
    assert float(np.abs(z * (1 + h) ** (1 / (2 * s)) - target).max()) <= 1e-12
    xi, eta = z * w, z / w
    x, y = iterate(make_varphi(half, tp), n, (xi, eta))
    assert max(float(np.abs(x - xi).max()), float(np.abs(y - eta).max())) <= 1e-10


def test_control_floor_of_the_half_circle():
    # {(4, 0): 0.05} with its mirror has no mode n at the 17 periods
    # 13 <= n <= 60 with 4 not dividing n and beta < 0, so c_n = 0
    # exactly; the mirrored samples keep the numeric coefficient at
    # rounding, below eps zeta0.
    tp = TwistParams(alpha=1.41421356, s=1)
    fam = CoefficientFamily({(4, 0): 0.05}, 1, hermitian=True)
    periods = [n for n in range(13, 61) if n % 4 and beta_reduce(n, tp.alpha).beta < 0]
    assert len(periods) == 17
    for n in periods:
        zeta0 = math.sqrt(-beta_reduce(n, tp.alpha).beta / n)
        assert abs(Hk_estimate(fam, tp, n)[0]) <= EPS * zeta0


def orbit_points(monkeypatch):
    """(n, point count) of every orbit kernel call, in order."""
    points, h_orbit = [], twist._h_orbit

    def counted(zeta, w, tp, n, orbit):
        points.append((n, np.size(w)))
        return h_orbit(zeta, w, tp, n, orbit)

    monkeypatch.setattr(twist, "_h_orbit", counted)
    return points


def test_only_hermitian_varphi_takes_the_half_circle(monkeypatch):
    # The witness curve of a Hermitian family runs every orbit on 2n + 1
    # of its 4n points; a plain family and the involution pair of
    # `surface_curves` run the full grid.
    alpha = resonant_alpha(7, 1, -0.25)
    tp = TwistParams(alpha=alpha, s=1)
    schedule = select_resonant_n(alpha, 0.3, 2, 100)
    hermitian = CoefficientFamily({(7, 0): 0.02 + 0.01j, (3, 1): 0.01j}, 1, hermitian=True)
    points = orbit_points(monkeypatch)
    divergence_witness(hermitian, tp, schedule)
    assert {n for n, _ in points} == {rd.n for rd in schedule}
    assert all(size == 2 * n + 1 for n, size in points)

    points.clear()
    divergence_witness(CoefficientFamily(hermitian.entries, 1), tp, schedule)
    assert {n for n, _ in points} == {rd.n for rd in schedule}
    assert all(size == 4 * n for n, size in points)

    points.clear()
    surface.surface_curves(hermitian, tp, 7, 2, grid_size=64, intersect=False)
    assert points and all(size == 64 for _, size in points)
