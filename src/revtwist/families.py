"""Finitely supported perturbation coefficient families.

A family collects the nonzero coefficients a_{i,j} of the perturbation
generator atilde(xi, eta) = sum a_{i,j} xi^i eta^j with i+j > 2s.  The
optional Hermitian flag enforces a_{j,i} = conj(a_{i,j}), which is exactly
the condition making atilde real on the slice eta = conj(xi).
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .series import Jet


def _degeneracy_order(s) -> int:
    """The degeneracy order s as an int: an integer, not a bool, at least 1."""
    try:
        k = operator.index(s)
    except TypeError:
        k = 0
    if isinstance(s, bool) or k < 1:
        raise ValueError(f"s must be a positive integer, got {s!r}")
    return k


def _power(table: dict, k: int):
    """x^k from a table holding at least x^1 (and x^-1 for k < 0), by
    squaring; the powers it forms are added to the table."""
    if k not in table:
        half = _power(table, int(k / 2))
        table[k] = half * half * table[1 if k > 0 else -1] if k % 2 else half * half
    return table[k]


def _power_table(x, ks) -> dict:
    """{k: x^k} for the integers ks, by squaring from x and 1/x (for most
    k, x**k leaves numpy's fast paths and costs several products)."""
    table = {0: 1.0, 1: x}
    if min(ks, default=0) < 0:
        table[-1] = 1.0 / x
    return {k: _power(table, k) for k in ks}


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
            i, j = int(i), int(j)
            v = complex(v)
            if v == 0:
                continue
            ent[(i, j)] = v
        if self.hermitian:
            for (i, j), v in list(ent.items()):
                mirror = ent.get((j, i))
                if mirror is None:
                    ent[(j, i)] = np.conj(v)
                elif abs(mirror - np.conj(v)) > 0:
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) break Hermitian symmetry")
        if self._validate:
            object.__setattr__(self, "s", _degeneracy_order(self.s))
            for (i, j), v in ent.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative index ({i},{j})")
                if i + j <= 2 * self.s:
                    raise ValueError(f"entry ({i},{j}) has total degree <= 2s = {2 * self.s}")
                if not cmath.isfinite(v):
                    raise ValueError(f"entry ({i},{j}) = {v} is not finite")
                if abs(v) > 1.0 + 1e-12:
                    raise ValueError(f"entry ({i},{j}) has modulus {abs(v)} > 1")
        object.__setattr__(self, "entries", ent)

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

    def max_degree(self) -> int:
        return max((i + j for i, j in self.entries), default=0)

    def _terms(self, xi, eta):
        """Pairs (i - j, a_{i,j} xi^i eta^j) over the entries, from one table
        of the powers of xi and of eta that the entries use."""
        xp = _power_table(np.asarray(xi, dtype=complex), {i for i, _ in self.entries})
        ep = _power_table(np.asarray(eta, dtype=complex), {j for _, j in self.entries})
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

    def to_jet(self, order: int) -> Jet:
        ent = {k: v for k, v in self.entries.items() if k[0] + k[1] <= order}
        return Jet.from_entries(ent, order)


def _parse_line(line: str, lineno: int) -> tuple[tuple[int, int], complex] | None:
    body = line.split("#", 1)[0].strip()
    if not body:
        return None
    parts = body.split()
    if len(parts) != 4:
        raise ValueError(f"line {lineno}: expected 'i j re im', got {line.rstrip()!r}")
    try:
        i, j = int(parts[0]), int(parts[1])
        re, im = float(parts[2]), float(parts[3])
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from exc
    return (i, j), complex(re, im)


def load_family(path: str | Path, s: int, hermitian: bool = False) -> CoefficientFamily:
    """Read a family from the text format: one 'i j re im' entry per line."""
    entries: dict[tuple[int, int], complex] = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        parsed = _parse_line(line, lineno)
        if parsed is None:
            continue
        key, value = parsed
        if key in entries:
            raise ValueError(f"line {lineno}: duplicate entry for {key}")
        entries[key] = value
    return CoefficientFamily(entries, s, hermitian)


def save_family(path: str | Path, family: CoefficientFamily) -> None:
    lines = ["# coefficient family: i j re im"]
    for (i, j) in sorted(family.entries):
        v = family.entries[(i, j)]
        lines.append(f"{i} {j} {v.real:.17g} {v.imag:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")
