"""The three workloads: seeded inputs, the timed operations, their checks.

A workload is a list of operations that one round runs in order.  Every
input comes from the seed through numpy's default_rng, except the one
fixed failing operation of `witness`, whose inputs are constants.  An
operation's `run(call)` makes each program call as `call(fn, *args)`, so
the runner can time every call on its own; it looks functions up in the
`revtwist` package namespace at call time, so the tracer's rebinding
reaches them.  Every check compares an output with an independent
computation from `reference` or with a property the method guarantees,
never with a stored copy of an output.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref
import revtwist as rt

MARGIN_CAP = 12.0


class Checks:
    """Collects check outcomes; each numeric check also gives a margin in
    decades, log10(tolerance / error), capped at MARGIN_CAP."""

    def __init__(self):
        self.margins: list[float] = []
        self.problems: list[str] = []

    def within(self, label: str, err: float, tol: float) -> None:
        err = float(err)
        if not err <= tol:
            self.problems.append(f"{label}: {err:.3e} exceeds {tol:.3e}")
        if math.isfinite(err):
            m = MARGIN_CAP if err == 0 else min(MARGIN_CAP, math.log10(tol / err))
        else:
            m = -MARGIN_CAP
        self.margins.append(m)

    def holds(self, label: str, ok: bool) -> None:
        if not ok:
            self.problems.append(label)


@dataclass
class Operation:
    label: str
    run: Callable[[Callable], object]
    check: Callable[[object, Checks], None]
    fingerprint: Callable[[object], tuple]


def _upper_unit(rng, order: int) -> complex:
    """lambda = e^{i theta} on the upper half circle with |lambda^k - 1| >= 0.1
    for every k <= order + 1."""
    while True:
        lam = cmath.exp(1j * float(rng.uniform(0.05, math.pi - 0.05)))
        if min(abs(lam**k - 1.0) for k in range(1, order + 2)) >= 0.1:
            return lam


def _hermitian(rng, degrees, modulus: float) -> dict:
    """Entries (d-1, 1) and (1, d-1) per degree d, of fixed modulus and
    seeded phase.  Only the phases vary, so the solvers' iteration counts
    hardly depend on the seed."""
    ent = {}
    for d in degrees:
        c = modulus * cmath.exp(2j * math.pi * float(rng.uniform()))
        ent[(d - 1, 1)] = c
        ent[(1, d - 1)] = c.conjugate()
    return ent


# ---------------------------------------------------------------------------
# normal_form: full_normalize of planted reversible maps


NORMAL_FORM_ORDERS = (12, 16)


def normal_form_ops(seed: int) -> list[Operation]:
    """One operation normalizes one planted map, truncated at each order of
    NORMAL_FORM_ORDERS, so that every operation costs about the same."""
    rng = np.random.default_rng([seed, 1])
    top = max(NORMAL_FORM_ORDERS)
    ops = []
    for s in (1, 2, 3):
        eps = int(rng.choice([-1, 1]))
        lam = _upper_unit(rng, top)
        frame = ref.swap_commuting_frame(rng, top, 0.04)
        target = ref.normal_form(lam, eps, s, top)
        phi = ref.map_compose(ref.map_inverse(frame), ref.map_compose(target, frame))
        ops.append(_normalize_op(s, eps, lam, target, phi))
    return ops


def _truncate(m, order: int):
    keep = ref.triangle(order)
    return tuple(np.where(keep, c[: order + 1, : order + 1], 0.0) for c in m)


def _normalize_op(s, eps, lam, target, phi) -> Operation:
    cases = []
    for order in NORMAL_FORM_ORDERS:
        p, t = _truncate(phi, order), _truncate(target, order)
        cases.append((order, p, t, rt.MapJet(rt.Jet(p[0], order), rt.Jet(p[1], order))))

    def run(call):
        return [call(rt.full_normalize, jet) for *_, jet in cases]

    def check(results, c: Checks):
        for (order, p, t, _), res in zip(cases, results):
            c.holds(f"N={order} s={s}: (eps, s) = ({res.eps}, {res.s}), planted ({eps}, {s})",
                    (res.eps, res.s) == (eps, s))
            c.within(f"N={order} s={s}: lambda", abs(res.lam - lam), 1e-10)
            conj = (res.Phi.x.coeffs, res.Phi.y.coeffs)
            lhs = ref.map_compose(conj, p)
            rhs = ref.map_compose(t, conj)
            c.within(f"N={order} s={s}: conjugacy defect",
                     ref.max_abs((lhs[0] - rhs[0], lhs[1] - rhs[1])), 1e-6 * max(1.0, ref.max_abs(p)))

    def fingerprint(results):
        return tuple((r.lam, r.eps, r.s, r.residual) for r in results)

    return Operation(f"normalize s={s} eps={eps}", run, check, fingerprint)


# ---------------------------------------------------------------------------
# witness: select_resonant_n then divergence_witness at grid 4n

# Periods q of the first scheduled resonance, with s and the family kind.
# Every q is a denominator of alpha/(2 pi) up to a small shift, so the
# schedule is q, 2q (see _planted_alpha).  s = 2 stays at small q: there
# zeta0 = (-beta/n)^{1/4} is large enough that the curve solver's fixed
# 1e-13 step tolerance stays above its rounding floor.  The median
# operation by time is q = 40, whose curve solver takes the same number of
# Picard steps on every seed; at s = 2 that number moves with the phases
# of the family, by a fifth of the operation's time.
WITNESS_PLAN = (
    (5, 1, "linear"),
    (6, 2, "linear"),
    (12, 1, "zero"),
    (9, 2, "generic"),
    (40, 1, "generic"),
    (60, 1, "generic"),
    (80, 1, "generic"),
    (150, 1, "generic"),
)
SCHEDULE_COUNT = 2

# `revtwist obstruct --alpha 1.4660520412407083 --s 2 --schedule-count 2
# --n-max 400 --hermitian`: fails at n = 30 because the curve solver's
# absolute step tolerance 1e-13 lies below its rounding floor there.
FAILING_ALPHA = 1.4660520412407083
FAILING_FAMILY = {
    (5, 0): complex(-0.019848387910666, 0.025145008821470),
    (5, 1): complex(0.0037930366559, 0.0158341263749),
    (5, 2): complex(-0.0221637009443, -0.0415694122349),
}


def _planted_alpha(rng, q: int):
    """alpha = 2 pi p/q - eta with gcd(p, q) = 1 and delta < 2 pi / q.

    Off multiples of q, beta(n) stays at least 2 pi/q - n eta away from 0
    on the positive side and below -2 pi/q on the negative side, so the
    first periods with beta in (-delta, 0) are q, 2q, ... while k q eta <
    delta.  Returns (alpha, delta, n_max)."""
    delta = min(0.3, 0.6 * 2 * math.pi / q)
    while True:
        p = int(rng.integers(1, q))
        if math.gcd(p, q) == 1:
            break
    eta = float(rng.uniform(0.6, 0.8)) * delta / (SCHEDULE_COUNT * q)
    return 2 * math.pi * p / q - eta, delta, 3 * q


def witness_ops(seed: int) -> list[Operation]:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for q, s, kind in WITNESS_PLAN:
        alpha, delta, n_max = _planted_alpha(rng, q)
        if kind == "linear":
            a = 0.01 * cmath.exp(2j * math.pi * float(rng.uniform()))
            entries = {(q, 0): a, (0, q): a.conjugate()}
        elif kind == "zero":
            entries = {}
        else:
            entries = _hermitian(rng, (2 * s + 1, 2 * s + 2), 0.02)
        ops.append(_witness_op(f"witness q={q} s={s} {kind}", alpha, s, entries,
                               delta, n_max, kind))
    ops.append(_witness_op("witness fixed tolerance-floor case", FAILING_ALPHA, 2,
                           FAILING_FAMILY, 0.3, 400, "generic"))
    return ops


def _witness_op(label, alpha, s, entries, delta, n_max, kind) -> Operation:
    fam = rt.CoefficientFamily(entries, s, hermitian=True)
    tp = rt.TwistParams(alpha=alpha, s=s)

    def run(call):
        schedule = call(rt.select_resonant_n, alpha, delta, SCHEDULE_COUNT, n_max)
        return schedule, call(rt.divergence_witness, fam, tp, schedule)

    def check(out, c: Checks):
        schedule, report = out
        expect = ref.resonant_periods(alpha, delta, SCHEDULE_COUNT, n_max)
        c.holds(f"{label}: schedule {[r.n for r in schedule]} != {expect}",
                [r.n for r in schedule] == expect)
        c.holds(f"{label}: rows do not follow the schedule",
                [r.n for r in report.rows] == [r.n for r in schedule])
        step = ref.perturbed_twist(fam.entries, alpha, s)
        for rd, row in zip(schedule, report.rows):
            n = rd.n
            beta = ref.beta_of(n, alpha)
            c.within(f"{label}: beta({n})", abs(rd.beta - beta), 1e-13)
            c.holds(f"{label}: beta({n}) = {beta} outside (-{delta}, 0)", -delta < beta < 0)
            zeta0 = (-beta / n) ** (1.0 / (2 * s))
            # The curve behind the row, recomputed with the same arguments.
            grid = 4 * n
            band = min(2 * n - 1, (grid - 1) // 2) if n > 1 else (grid - 1) // 2
            crv = rt.periodic_curve(fam, tp, n, 2 * s, grid_size=grid, K=band,
                                    check_domain=False)
            radii = np.abs([z for _, z in crv.samples])
            c.holds(f"{label}: n={n} interval differs from its curve",
                    (row.I_min, row.I_max) == (float(radii.min()), float(radii.max())))
            c.within(f"{label}: n={n} zeta0", abs(crv.zeta0 - zeta0) / zeta0, 1e-13)
            pick = np.arange(0, grid, max(1, grid // 8))
            z = np.array([crv.samples[m][1] for m in pick])
            w = np.array([crv.samples[m][0] for m in pick])
            xi, eta = z * w, z / w
            x, y = xi, eta
            for _ in range(n):
                x, y = step(x, y)
            ret = max(float(np.abs(x - xi).max()), float(np.abs(y - eta).max()))
            c.within(f"{label}: n={n} return after n steps", ret, 1e-10)
            if kind == "zero":
                c.within(f"{label}: n={n} zero-family width", row.width, 1e-12)
        if kind == "linear":
            row, n = report.rows[0], report.rows[0].n
            zeta0 = (-ref.beta_of(n, alpha) / n) ** (1.0 / (2 * s))
            pair = entries[(n, 0)] + entries[(0, n)]
            law = 4 * abs(zeta0 ** (n - 2 * s + 1) * pair / (2 * s))
            c.within(f"{label}: linear-law width", abs(row.width - law) / law, 0.25)

    def fingerprint(out):
        return tuple((r.n, r.I_min, r.I_max) for r in out[1].rows)

    return Operation(label, run, check, fingerprint)


# ---------------------------------------------------------------------------
# surface: one study of the involution-pair front end per operation

SURFACE_STUDIES = 2
SURFACE_ORDER = 12
SURFACE_GRIDS = (64, 128, 256)
# Invariants per study passed through lambda_from_gamma; the first one
# feeds the normal forms.  With 128 per round the worst rounding case of
# the characteristic identity turns up in every round, which keeps the
# accuracy margin of the workload from depending on the draw.
SURFACE_GAMMAS = 64
# Probe size of q_zeta_check.  At the default 1e-3 the n = 16, s = 2
# coefficient sits near float64 resolution and its error is rounding noise
# of about 1e-3; at 1e-2 the error stays below 3e-5 on these inputs.
SURFACE_T = 1e-2
# Per s: (b range, amplitude) at n = 4s with winding 2, and at n = 8s with
# winding 4, where beta = -b.  These keep the w^{2n} coefficient that
# q_zeta_check measures well above float64 resolution (below it, rel_error
# is meaningless).  The ranges are narrow because zeta0 = (b/n)^{1/(2s)}
# sets the solvers' iteration counts.
SURFACE_PLAN = {
    1: (((1.4, 1.6), 0.05), ((2.4, 2.6), 0.2)),
    2: (((1.2, 1.3), 0.05), ((2.6, 2.8), 0.2)),
}


@dataclass
class SurfacePart:
    """The part of a study at one degeneracy order s."""

    s: int
    jet_family: object
    probes: list  # (n, alpha, amplitude) at n = 4s and n = 8s
    a: object
    abar: object


def surface_ops(seed: int) -> list[Operation]:
    """Each study takes one draw of gamma and runs the front end at s = 1
    and at s = 2, so that every operation costs about the same."""
    rng = np.random.default_rng([seed, 3])
    ops = []
    for _ in range(SURFACE_STUDIES):
        while True:
            gamma = float(rng.uniform(0.6, 3.0))
            lam = (1.0 + 1j * math.sqrt(4 * gamma * gamma - 1.0)) / (2 * gamma)
            if min(abs(lam**k - 1.0) for k in range(1, SURFACE_ORDER + 2)) >= 0.1:
                break
        gammas = [gamma] + [float(g) for g in rng.uniform(0.55, 4.0, SURFACE_GAMMAS - 1)]
        parts = []
        for s in (1, 2):
            jet_family = rt.CoefficientFamily(_hermitian(rng, (2 * s + 1, 2 * s + 2), 0.03), s,
                                              hermitian=True)
            probes = []
            for mult, winding, ((lo, hi), amp) in zip((4, 8), (2, 4), SURFACE_PLAN[s]):
                n = mult * s
                probes.append((n, (2 * math.pi * winding - float(rng.uniform(lo, hi))) / n, amp))
            a, abar = (rt.CoefficientFamily({(4 * s, 0): 0.05 * cmath.exp(2j * math.pi * u)}, s)
                       for u in rng.uniform(size=2))
            parts.append(SurfacePart(s, jet_family, probes, a, abar))
        ops.append(_surface_op(gammas, parts))
    return ops


def _surface_op(gammas, parts) -> Operation:
    label = f"surface gamma={gammas[0]:.4f}"

    def run(call):
        bishop = call(lambda: [rt.lambda_from_gamma(g) for g in gammas])
        alpha = cmath.phase(bishop[0].lam)
        out = []
        for part in parts:
            s = part.s
            tp = rt.TwistParams(alpha=alpha, s=s)
            tau1, _, phi = call(rt.involution_jets, part.jet_family, tp, order=SURFACE_ORDER)
            nf = call(rt.full_normalize, phi, tau=tau1, order=SURFACE_ORDER, reality="surface")
            n4, alpha4, _ = part.probes[0]
            tp4 = rt.TwistParams(alpha=alpha4, s=s)
            curves = [call(rt.surface_curves, part.a, tp4, n4, 2 * s, grid_size=g,
                           abar=part.abar) for g in SURFACE_GRIDS]
            probe_out = []
            for n, alpha_n, amp in part.probes:
                tpn = rt.TwistParams(alpha=alpha_n, s=s)
                q = call(rt.q_zeta_check, amp, tpn, n, t=SURFACE_T)
                h = call(rt.Hn_obstruction, rt.CoefficientFamily({(n, 0): amp}, s), tpn, n,
                         include_remainder=True)
                probe_out.append((q, h))
            out.append((nf, curves, probe_out))
        return bishop, out

    def check(result, c: Checks):
        bishop, out = result
        for gamma, bd in zip(gammas, bishop):
            lam = bd.lam
            c.within(f"{label}: characteristic residual at gamma={gamma!r}",
                     abs(gamma * lam * lam - lam + gamma), 1e-13)
            c.within(f"{label}: |lambda| - 1 at gamma={gamma!r}", abs(abs(lam) - 1.0), 1e-13)
            c.holds(f"{label}: gamma={gamma!r} flagged exceptional", not bd.exceptional)
        alpha = cmath.phase(bishop[0].lam)
        for part, (nf, curves, probe_out) in zip(parts, out):
            s = part.s
            where = f"{label} s={s}"
            c.within(f"{where}: normal-form lambda", abs(nf.lam - cmath.exp(1j * alpha)), 1e-10)
            c.holds(f"{where}: normal form (eps, s) = ({nf.eps}, {nf.s})", (nf.eps, nf.s) == (1, s))
            counts = [crv.real_intersections if isinstance(crv.real_intersections, str)
                      else len(crv.real_intersections) for crv in curves]
            c.holds(f"{where}: real intersection counts {counts} differ across grids",
                    all(isinstance(k, int) for k in counts) and len(set(counts)) == 1)
            for (n, alpha_n, _), (q, h) in zip(part.probes, probe_out):
                c.holds(f"{where}: n={n} winding is odd", ref.winding_of(n, alpha_n) % 2 == 0)
                zj = ((-ref.beta_of(n, alpha_n) / n) ** (1.0 / (2 * s))
                      * cmath.exp(1j * math.pi * q.j / s))
                predicted = 1j * n * zj ** (2 * n - 2 * s + 1) / s
                c.within(f"{where}: n={n} q_zeta relative error",
                         abs(q.a2_coeff - predicted) / abs(predicted), 0.05)
                c.within(f"{where}: n={n} Hn with remainder at the self-conjugate pair",
                         abs(h), 1e-12)

    def fingerprint(result):
        bishop, out = result
        return (bishop[0].lam,) + tuple(
            (nf.lam, nf.residual, tuple(str(crv.real_intersections) for crv in curves),
             tuple((q.a2_coeff, h) for q, h in probe_out))
            for nf, curves, probe_out in out)

    return Operation(label, run, check, fingerprint)


WORKLOADS = {
    "normal_form": normal_form_ops,
    "witness": witness_ops,
    "surface": surface_ops,
}
