"""Divergence obstructions from families of periodic curves.

For a resonant period n (beta in (-pi, 0); `select_resonant_n` picks the
periods whose beta lies in a window (-delta, 0)) the branch curve zeta(w)
deviates from the circle zeta0 at first order in the perturbation, and the
coefficient of w^n in its Laurent expansion has an explicit leading term
driven only by the (n,0) and (0,n) modes of the family.  A schedule of such
periods with nonconstant |zeta| at every scale witnesses that no single
convergent change of coordinates can straighten the map: reported here as
numeric intervals I_k per period, never as a proof.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .families import CoefficientFamily
from .series import _check_int
from .twist import (
    HypothesisViolation,
    TwistParams,
    _beta_window,
    _step_bound,
    beta_reduce,
    periodic_curve,
)


@dataclass(frozen=True)
class ObstructionRow:
    n: int
    beta: float
    Hk_numeric: complex
    Hk_leading: complex
    I_min: float
    I_max: float
    width: float
    threshold: float
    nonconstant: bool
    residual: float


@dataclass(frozen=True)
class ObstructionReport:
    rows: list
    witness: bool
    note: str


def select_resonant_n(alpha: float, delta: float, count: int, n_max: int):
    """First `count` periods n <= n_max with beta(n) in (-delta, 0), ascending.

    A float64 prefilter walks the line n*alpha mod 2pi in chunks; every
    candidate is then confirmed through the extended-precision reduction, so
    large-n rounding in the prefilter cannot leak a wrong period in (a
    margin around the window absorbs it), and a period whose float64
    n*alpha overflows is a candidate.  Fewer than `count` hits below
    n_max returns the partial list with a warning: existence of infinitely
    many resonant periods is only guaranteed asymptotically.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if not 0.0 < delta < math.pi:
        raise ValueError("delta must lie in (0, pi)")
    count = _check_int(count, "count")
    n_max = _check_int(n_max, "n_max")
    margin = 1e-8 + abs(alpha) * n_max * 1e-15
    out = []
    chunk = 1 << 20
    for lo in range(1, n_max + 1, chunk):
        ns = np.arange(lo, min(lo + chunk, n_max + 1))
        # n*alpha overflows to inf near the top of float64, and its
        # reduction to nan: such a period goes to beta_reduce unfiltered.
        with np.errstate(over="ignore", invalid="ignore"):
            bf = np.mod(ns * alpha + math.pi, 2 * math.pi) - math.pi
        hits = ns[((bf > -delta - margin) & (bf < margin)) | ~np.isfinite(bf)]
        for n in hits:
            rd = beta_reduce(int(n), alpha)
            if -delta < rd.beta < 0.0:
                out.append(rd)
                if len(out) == count:
                    return out
    warnings.warn(
        f"only {len(out)} of {count} resonant periods found below n_max = {n_max}",
        stacklevel=2,
    )
    return out


def predicted_linear_zeta(a: CoefficientFamily, tp: TwistParams, n: int, w):
    """First-order response d zeta/dt of the branch curve to the family.

    zeta = zeta0 (1+h)^{-1/(2s)} gives d zeta = -zeta0 dh/(2s), so the value
    is -(zeta0/(2 s n zeta0^{2s})) sum_j [a(zeta0 w u^{j+1}, zeta0 w^{-1} ubar^{j+1})
    + abar(zeta0 w u^j, zeta0 w^{-1} ubar^j)], u = e^{i omega(zeta0^2)}, abar
    phibar_a's conjugated family; u^n = 1, so each diagonal mode cancels over
    the orbit sum or survives in full when its index gap is a multiple of n.
    """
    _, zeta0 = _beta_window(tp, n)
    u = complex(np.exp(1j * (tp.alpha + zeta0 ** (2 * tp.s))))
    w = np.asarray(w, dtype=complex)
    ub = np.conj(u)
    abar = a.conjugated()
    acc = np.zeros(w.shape, dtype=complex)
    for j in range(n):
        acc += a.eval(zeta0 * w * u ** (j + 1), zeta0 / w * ub ** (j + 1))
        acc += abar.eval(zeta0 * w * u**j, zeta0 / w * ub**j)
    out = -zeta0 * acc / (2 * tp.s * n * zeta0 ** (2 * tp.s))
    return complex(out) if out.ndim == 0 else out


def leading_Hk(a: CoefficientFamily, tp: TwistParams, n: int) -> complex:
    """Closed-form linear part of the w^n Laurent coefficient:
    -zeta0^{n-2s+1} (a_{n,0} + conj(a_{n,0})) / (2s), the chain-rule image of
    the surviving orbit sum under zeta = zeta0 (1+h)^{-1/(2s)}."""
    _, zeta0 = _beta_window(tp, n)
    an0 = a.entries.get((n, 0), 0.0)
    pair = an0 + np.conj(an0)
    return complex(-(zeta0 ** (n - 2 * tp.s + 1)) * pair / (2 * tp.s))


def _witness_curve(a: CoefficientFamily, tp: TwistParams, n: int):
    """The j=2s branch curve with its Laurent band K, for reading w^n.

    The grid holds 4n points so the target coefficient is read alias-free;
    Laurent data is retained through |k| <= K = 2n-1.
    """
    K = 2 * _check_int(n, "n") - 1
    return periodic_curve(a, tp, n, 2 * tp.s, grid_size=4 * n, K=K), K


def Hk_estimate(a: CoefficientFamily, tp: TwistParams, n: int):
    """(numeric, leading) for the w^n coefficient of the j=2s branch curve,
    sampled on 4n points with the stopping rule of `solve_branch`."""
    crv, _ = _witness_curve(a, tp, n)
    return crv.laurent[n], leading_Hk(a, tp, n)


def divergence_witness(a: CoefficientFamily, tp: TwistParams, schedule) -> ObstructionReport:
    """Per-period intervals I_k = [min |zeta|, max |zeta|] with verdicts.

    A row is flagged nonconstant when its width clears 10x the noise budget
    (the solver's stopping bound plus the tail of the Laurent band).  All rows
    nonconstant makes the report a witness: periodic points filling an
    interval of radii at every scheduled scale is what a convergent
    normalization would forbid.  It is evidence, not a proof.  Each schedule
    entry must carry the beta of its period at tp.alpha, as `beta_reduce`
    gives it; any other entry is refused with a ValueError.
    """
    rows = []
    for rd in sorted(schedule, key=lambda r: r.n):
        if not rd.beta < 0.0:
            raise HypothesisViolation(f"schedule entry n = {rd.n} has beta >= 0")
        n = rd.n
        beta = beta_reduce(n, tp.alpha).beta
        if rd.beta != beta:
            raise ValueError(f"schedule entry n = {n} has beta = {rd.beta!r}, but "
                             f"alpha = {tp.alpha!r} gives beta = {beta!r}")
        crv, K = _witness_curve(a, tp, n)
        radii = np.abs([z for _, z in crv.samples])
        tail_lo = max(1, (3 * K) // 4)
        alias = max(
            max(abs(crv.laurent[k]), abs(crv.laurent[-k])) for k in range(tail_lo, K + 1)
        )
        width = float(radii.max() - radii.min())
        threshold = 10.0 * (_step_bound(crv.zeta0, tp.s) + alias)
        rows.append(ObstructionRow(
            n=n, beta=beta,
            Hk_numeric=crv.laurent[n], Hk_leading=leading_Hk(a, tp, n),
            I_min=float(radii.min()), I_max=float(radii.max()),
            width=width, threshold=threshold,
            nonconstant=width > threshold, residual=crv.residual,
        ))
    witness = bool(rows) and all(r.nonconstant for r in rows)
    note = (
        "nonconstant radius intervals at every scheduled period are incompatible "
        "with a convergent normalizing change of coordinates (numerical witness, "
        "not a proof)"
    )
    return ObstructionReport(rows=rows, witness=witness, note=note)
