"""Per-layer spans recorded from outside the program.

`install()` wraps public functions of each revtwist module (and the one
private solver every pointwise layer goes through, `_exponent_fixed_point`)
and rebinds each wrapper under every name that any revtwist module holds
for the original, because modules import names by value
(`from .series import jet_mul`).  `Jet.__mul__` reaches `jet_mul` through
the series module globals, so rebinding covers it too.  Closures returned
by `make_varphi` and `build_involution_maps` are wrapped as they are made.

A span is (name, parent, start, end, extra); spans are kept in flat
arrays in memory and written out by `Tracer.write` when the run ends.
Self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extra = array("q")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str, extra: int) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.extra.append(extra)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, extra=None):
        """A function that records a span around each call of fn."""

        def traced(*args, **kwargs):
            idx = self._open(name, extra(*args) if extra else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "revtwist" and not modname.startswith("revtwist."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        from revtwist import families, normal_form, obstruction, series, surface, twist

        plain = [
            (series, "jet_mul", lambda a, b: int(min(np.count_nonzero(a.coeffs),
                                                    np.count_nonzero(b.coeffs)) <= 4)),
            (series, "jet_compose", None),
            (series, "map_compose", None),
            (series, "map_inverse", None),
            (normal_form, "full_normalize", None),
            (normal_form, "mw_normalize", None),
            (normal_form, "linearize_involution", None),
            (twist, "_exponent_fixed_point", None),
            (twist, "h_eval", None),
            (twist, "iterate", None),
            (twist, "periodic_curve", None),
            (twist, "compute_constants", None),
            (obstruction, "select_resonant_n", None),
            (obstruction, "divergence_witness", None),
            (surface, "lambda_from_gamma", None),
            (surface, "involution_jets", None),
            (surface, "surface_curves", None),
            (surface, "real_intersection", None),
            (surface, "q_zeta_check", None),
            (surface, "Hn_obstruction", None),
        ]
        for mod, attr, extra in plain:
            original = getattr(mod, attr)
            self._rebind(original, self.span(f"{mod.__name__[9:]}.{attr}", original, extra))

        def points(*args):
            return int(np.broadcast(np.asarray(args[-2]), np.asarray(args[-1])).size)

        fam_eval = families.CoefficientFamily.eval
        families.CoefficientFamily.eval = self.span("families.eval", fam_eval, points)
        self._undo.append((families.CoefficientFamily, "eval", fam_eval))

        make_varphi = twist.make_varphi

        def traced_make_varphi(*args, **kwargs):
            return self.span("twist.map_eval", make_varphi(*args, **kwargs), points)

        self._rebind(make_varphi, traced_make_varphi)

        build = surface.build_involution_maps

        def traced_build(*args, **kwargs):
            return tuple(self.span("surface.tau_eval", f, points)
                         for f in build(*args, **kwargs))

        self._rebind(build, traced_build)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis ---------------------------------------------------------

    def _arrays(self):
        n = len(self.name)
        start = np.frombuffer(self.start, dtype=float)[:n]
        dur = np.frombuffer(self.end, dtype=float)[:n] - start
        name = np.frombuffer(self.name, dtype=np.int32)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        extra = np.frombuffer(self.extra, dtype=np.int64)[:n]
        return dur, name, parent, extra

    def summary(self) -> dict:
        """Per span name: calls, summed extra, total time and self time.

        No wrapped function calls itself, so the total time of a name is
        the plain sum of its span durations.
        """
        dur, name, parent, extra = self._arrays()
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        out = {}
        for nid, nm in enumerate(self.names):
            sel = name == nid
            out[nm] = {
                "calls": int(sel.sum()),
                "extra": int(extra[sel].sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float((dur - child)[sel].sum()),
            }
        return out

    def _id(self, nm: str) -> int:
        return self._ids.get(nm, -2)

    def children(self, child: str, parent: str) -> int:
        """Spans named `child` whose direct parent is named `parent`."""
        _, name, par, _ = self._arrays()
        sel = np.nonzero(name == self._id(child))[0]
        p = par[sel]
        return int((name[p[p >= 0]] == self._id(parent)).sum())

    def under(self, child: str, watch: tuple[str, ...], owner: str) -> int:
        """Spans named `child` whose nearest ancestor among `watch` is `owner`."""
        _, name, par, _ = self._arrays()
        ids = {self._id(w) for w in watch}
        count = 0
        for i in np.nonzero(name == self._id(child))[0]:
            p = par[i]
            while p >= 0 and name[p] not in ids:
                p = par[p]
            count += int(p >= 0 and name[p] == self._id(owner))
        return count

    def write(self, path) -> None:
        """Spans as gzip'd tab-separated lines: index, name, parent, start,
        end, extra."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tparent\tstart\tend\textra\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.extra[i]}\n")
