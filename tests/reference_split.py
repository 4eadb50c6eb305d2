"""Whole-lattice halves of the Koszul split and the per-point split audit,
kept as references for ``koszul_split`` and ``spectral.split_column_report``.

The package keeps only the face half's totalization over a lattice, and
reads the complement half's wedge columns from one-point lattices.
``koszul_half`` builds either half over the whole lattice as a
multicomplex, ``line_complex`` reads the single complex along one axis of
a multicomplex, and ``reference_split_column_report`` reads, checks and
reduces both halves' wedge columns at every point, with no cache.
"""

from cechmv import CochainComplex, Multicomplex
from cechmv.multicomplex import Point, _koszul_half

RULES = {
    # wedge slot I keeps the points with some q_i > 0, i in I
    "complement": lambda I, q: any(q[i] > 0 for i in I),
    # wedge slot I keeps the points with q_i = 0 for all i in I
    "face": lambda I, q: all(q[i] == 0 for i in I),
}


def koszul_half(mc: Multicomplex, kind: str) -> Multicomplex:
    """The ``kind`` ("complement" or "face") half of the unit-Koszul scaffold
    on ``mc``."""
    return _koszul_half(mc, RULES[kind])


def line_complex(mc: Multicomplex, axis: int, base: Point) -> CochainComplex:
    """The single complex along one axis through ``base`` (other coords fixed)."""
    lo, hi = mc.box
    dims = {}
    d = {}
    for v in range(lo[axis], hi[axis] + 1):
        q = base[:axis] + (v,) + base[axis + 1 :]
        if mc.entry_dim(q):
            dims[v] = mc.entry_dim(q)
    for v in list(dims):
        q = base[:axis] + (v,) + base[axis + 1 :]
        if (q, axis) in mc.diffs and dims.get(v + 1):
            d[v] = mc.diffs[(q, axis)]
    return CochainComplex(mc.field, dims, d)


def reference_split_column_report(mc: Multicomplex, complement: Multicomplex,
                                  face: Multicomplex) -> list[str]:
    """The split audit read point by point off two whole halves: each wedge
    column is checked (d o d = 0) and reduced where it stands."""
    bad: list[str] = []
    for q in mc.points():
        want = mc.entry_dim(q) if all(x > 0 for x in q) else 0
        for part, name, good_deg in ((complement, "complement half", 1),
                                     (face, "face half", 0)):
            col = line_complex(part, 0, (0,) + q)
            col.check_complex()
            h = col.cohomology_dims()
            if h.get(good_deg, 0) != want:
                bad.append(
                    f"{name} column at {q}: H^{good_deg} = {h.get(good_deg, 0)}, expected {want}"
                )
            extra = {k: v for k, v in h.items() if k != good_deg}
            if extra:
                bad.append(f"{name} column at {q}: unexpected cohomology {extra}")
    return bad
