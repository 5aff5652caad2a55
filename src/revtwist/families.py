"""Finitely supported perturbation coefficient families.

A family collects the nonzero coefficients a_{i,j} of the perturbation
generator atilde(xi, eta) = sum a_{i,j} xi^i eta^j with i+j > 2s.  The
optional Hermitian flag enforces a_{j,i} = conj(a_{i,j}), which is exactly
the condition making atilde real on the slice eta = conj(xi).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .series import Jet, _check_int


@lru_cache(maxsize=256)
def _power_plan(ks: frozenset) -> tuple:
    """Squaring chain that forms x^k for every k in ks from x and 1/x:
    (whether 1/x is needed, steps).  Step (k, h, b) forms x^k = x^h x^h,
    times x^b when b is not 0; every step follows the steps it reads."""
    known = {-1, 0, 1}
    steps = []

    def plan(k):
        if k not in known:
            h = int(k / 2)
            plan(h)
            steps.append((k, h, (1 if k > 0 else -1) if k % 2 else 0))
            known.add(k)

    for k in ks:
        plan(k)
    return min(ks, default=0) < 0, tuple(steps)


def _power_table(x, ks) -> dict:
    """{k: x^k} for the integers ks, by squaring from x and 1/x (for most
    k, x**k leaves numpy's fast paths and costs several products).  The
    chain is planned once per exponent set (`_power_plan`)."""
    inverse, steps = _power_plan(frozenset(ks))
    table = {0: 1.0, 1: x}
    if inverse:
        table[-1] = 1.0 / x
    for k, h, b in steps:
        square = table[h] * table[h]
        table[k] = square * table[b] if b else square
    return {k: table[k] for k in ks}


@dataclass(frozen=True)
class CoefficientFamily:
    """Sparse map (i,j) -> a_{i,j} with i+j > 2s and |a_{i,j}| <= 1."""

    entries: dict[tuple[int, int], complex]
    s: int
    hermitian: bool = False
    _validate: bool = field(default=True, repr=False)

    def __post_init__(self):
        ent = {}
        for (i, j), v in self.entries.items():
            name = f"index of entry {(i, j)}"
            key = (_check_int(i, name, 0), _check_int(j, name, 0))
            if np.ndim(v):
                # Per-point entries (one value per evaluation point, along
                # the flat point axis) serve the batched probe solves only.
                if self._validate:
                    raise ValueError(f"entry ({i},{j}) must be a number, not an array")
                ent[key] = np.asarray(v, dtype=complex)
                continue
            v = complex(v)
            if v != 0:
                ent[key] = v
        if self.hermitian:
            for (i, j), v in list(ent.items()):
                mirror = ent.get((j, i))
                if mirror is None:
                    ent[(j, i)] = np.conj(v)
                elif abs(mirror - np.conj(v)) > 0:
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) break Hermitian symmetry")
        if self._validate:
            object.__setattr__(self, "s", _check_int(self.s, "s"))
            for (i, j), v in ent.items():
                if i + j <= 2 * self.s:
                    raise ValueError(f"entry ({i},{j}) has total degree <= 2s = {2 * self.s}")
                if not cmath.isfinite(v):
                    raise ValueError(f"entry ({i},{j}) = {v} is not finite")
                if abs(v) > 1.0 + 1e-12:
                    raise ValueError(f"entry ({i},{j}) has modulus {abs(v)} > 1")
        object.__setattr__(self, "entries", ent)
        # The exponent sets of the power tables every evaluation reads.
        object.__setattr__(self, "_xi_powers", frozenset(i for i, _ in ent))
        object.__setattr__(self, "_eta_powers", frozenset(j for _, j in ent))
        object.__setattr__(self, "_mode_powers", frozenset(i - j for i, j in ent))
        object.__setattr__(self, "_band_powers", frozenset(min(i, j) for i, j in ent))

    @staticmethod
    def empty(s: int) -> "CoefficientFamily":
        return CoefficientFamily({}, s)

    def scaled(self, t: complex) -> "CoefficientFamily":
        """Family with every entry multiplied by t (skips Sigma validation)."""
        return CoefficientFamily(
            {k: t * v for k, v in self.entries.items()}, self.s, False, _validate=False
        )

    def conjugated(self) -> "CoefficientFamily":
        """Family of conj(a_{i,j}): the rho-conjugate perturbation data."""
        return CoefficientFamily(
            {k: np.conj(v) for k, v in self.entries.items()}, self.s, False, _validate=False
        )

    def max_modulus(self) -> float:
        return max((abs(v) for v in self.entries.values()), default=0.0)

    def _terms(self, xi, eta):
        """Pairs (i - j, a_{i,j} xi^i eta^j) over the entries, from one table
        of the powers of xi and of eta that the entries use."""
        xp = _power_table(np.asarray(xi, dtype=complex), self._xi_powers)
        ep = _power_table(np.asarray(eta, dtype=complex), self._eta_powers)
        for (i, j), v in self.entries.items():
            term = v
            if i:
                term = term * xp[i]
            if j:
                term = term * ep[j]
            yield i - j, term

    def eval(self, xi, eta):
        """atilde(xi, eta); accepts scalars or numpy arrays."""
        out = np.zeros(np.broadcast(np.asarray(xi), np.asarray(eta)).shape, dtype=complex)
        for _, term in self._terms(xi, eta):
            out = out + term
        return out

    def phase_modes(self, xi, eta) -> dict[int, np.ndarray]:
        """Modes {k: m_k}, m_k = sum over i - j = k of a_{i,j} xi^i eta^j.

        A phase change keeps xi*eta fixed: atilde(u xi, eta/u) is the
        Laurent sum of m_k u^k, so one set of modes serves every phase.
        """
        modes: dict[int, np.ndarray] = {}
        for k, term in self._terms(xi, eta):
            modes[k] = modes[k] + term if k in modes else term
        return modes

    def _bands(self, t) -> dict:
        """Band coefficients {k: B_k(t)} of atilde on the level set xi*eta = t.

        B_k = sum over i - j = k of a_{i,j} t^{min(i, j)}, so that
        atilde = sum_{k >= 0} B_k xi^k + sum_{k < 0} B_k eta^{-k} there:
        each term a xi^i eta^j is a t^j xi^{i-j} or a t^i eta^{j-i}, a power
        of modulus at most 1 inside the unit polydisk, never of 1/xi.  An
        orbit that keeps t forms the bands once.
        """
        powers = _power_table(np.asarray(t, dtype=complex), self._band_powers)
        out: dict = {}
        for (i, j), v in self.entries.items():
            term = v * powers[min(i, j)] if min(i, j) else v
            out[i - j] = out[i - j] + term if i - j in out else term
        return out

    def to_jet(self, order: int) -> Jet:
        ent = {k: v for k, v in self.entries.items() if k[0] + k[1] <= order}
        return Jet.from_entries(ent, order)


def _read_entries(path: str | Path, tags: tuple = (), check=None) -> dict:
    """Entries of a text coefficient file, one 'i j re im' line each, or
    'tag i j re im' with a tag from `tags` (("x", "y") for map jets).

    Blank lines and '#' comments are skipped.  Keys are (i, j), or
    (tag, i, j) when tags are given; `check(*key)` may refuse an entry
    by raising ValueError.  A line with the wrong fields, a number that
    does not parse, a non-finite value, a repeated key or a refused entry
    raises ValueError that starts with its line number.
    """
    layout = ("|".join(tags) + " " if tags else "") + "i j re im"
    fields = len(layout.split())
    entries = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        try:
            if len(parts) != fields or (tags and parts[0] not in tags):
                raise ValueError(f"expected '{layout}', got {line.rstrip()!r}")
            *tag, i, j, re, im = parts
            key = (*tag, int(i), int(j))
            value = complex(float(re), float(im))
            if not cmath.isfinite(value):
                raise ValueError(f"entry {value} is not finite")
            if key in entries:
                raise ValueError(f"duplicate entry for {key}")
            if check is not None:
                check(*key)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        entries[key] = value
    return entries


def load_family(path: str | Path, s: int, hermitian: bool = False) -> CoefficientFamily:
    """Read a family from the text format: one 'i j re im' entry per line."""
    return CoefficientFamily(_read_entries(path), s, hermitian)


def save_family(path: str | Path, family: CoefficientFamily) -> None:
    lines = ["# coefficient family: i j re im"]
    for (i, j) in sorted(family.entries):
        v = family.entries[(i, j)]
        lines.append(f"{i} {j} {v.real:.17g} {v.imag:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")
