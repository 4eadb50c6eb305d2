"""Lattice-graded multicomplexes and the constructions the spectral runs feed on.

A multicomplex here is a finite family of vector spaces C^q indexed by lattice
points q, with one differential per coordinate direction raising that
coordinate by 1: d^i and d^j commute for i != j, and d^i twice in the same
direction composes to zero.

Totalization sums the entries along total degree, rescaling each block
d^{q,i} by (-1)^(q_1+...+q_{i-1}).  That rescaling is all that separates the
commuting convention from the anticommuting one, so only the commuting one
is stored.

Every region the rest of the package compares (faces, punctured faces,
interiors and augmented interiors, the top-dropped face half) is a
subquotient of one totalization, of the face half of the split below or of
the cube extension, whose layer 0 is the lattice itself: a face is a
quotient complex, the other kinds are subcomplexes of the relevant face
quotient, and ``restrict`` selects any of them as the blocks of the
totalization whose lattice points lie in the region.

The unit-Koszul scaffold on a lattice splits into a subobject supported off
the coordinate faces and a face-supported quotient.  Only the quotient, the
face half (``koszul_split``), feeds a spectral sequence, so it is the only
half built over a whole lattice, and only its totalization is kept.

Every map is a list of sparse ``{row: value}`` columns (``linalg``), and
every builder here writes its columns directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import ContractError, InputError, InternalCheckError
from .linalg import Columns, Field, identity, mul, neg, pivot_pairs, submatrix

Point = tuple[int, ...]


def add_e(q: Point, i: int) -> Point:
    return q[:i] + (q[i] + 1,) + q[i + 1 :]


@dataclass(frozen=True)
class CochainComplex:
    """Single complex with integer degrees; ``d[m]`` is the column list of
    the map from degree m to degree m + 1."""

    field: Field
    dims: dict[int, int]
    d: dict[int, Columns]
    blocks: dict[int, tuple] | None = None  # degree -> ((block key, dim), ...)

    def dim(self, m: int) -> int:
        return self.dims.get(m, 0)

    def matrix(self, m: int) -> Columns:
        mat = self.d.get(m)
        if mat is None:
            return [{} for _ in range(self.dim(m))]
        return mat

    def check_complex(self) -> None:
        for m in sorted(self.dims):
            if self.dim(m) and self.dim(m + 1) and self.dim(m + 2):
                if any(mul(self.field, self.matrix(m + 1), self.matrix(m))):
                    raise InternalCheckError(f"d o d != 0 at degree {m}")

    def cohomology_dims(self) -> dict[int, int]:
        out = {}
        rk = {m: len(pivot_pairs(self.field, self.matrix(m))) for m in self.dims}
        for m in self.dims:
            h = self.dim(m) - rk.get(m, 0) - rk.get(m - 1, 0) if self.dim(m) else 0
            if h:
                out[m] = h
        return out


@dataclass(frozen=True)
class Multicomplex:
    """Entries ``dims[q]`` at lattice points q of arity n and commuting maps
    ``diffs[q, i]`` from q to q + e_i."""

    field: Field
    n: int
    dims: dict[Point, int]
    diffs: dict[tuple[Point, int], Columns]

    @cached_property
    def box(self) -> tuple[Point, Point]:
        """The bounding box (lo, hi) of the points, inclusive; lo > hi when
        there are none."""
        if not self.dims:
            return (0,) * self.n, (-1,) * self.n
        axes = list(zip(*self.dims))
        return tuple(map(min, axes)), tuple(map(max, axes))

    def entry_dim(self, q: Point) -> int:
        return self.dims.get(q, 0)

    def diff(self, q: Point, i: int) -> Columns:
        mat = self.diffs.get((q, i))
        if mat is None:
            return [{} for _ in range(self.entry_dim(q))]
        return mat

    def points(self) -> list[Point]:
        return sorted(self.dims)


def _nonzero_sum(f: Field, terms: list[tuple[Columns, Columns, int]]) -> bool:
    """Whether the sum of s * (a x b) over the (a, b, s) in ``terms`` is
    nonzero.  The products are accumulated as exact sums of the stored
    entries, and only the total is normalized, entry by entry; every ``b``
    has the same number of columns."""
    for j in range(len(terms[0][1])):
        acc: dict[int, object] = {}
        for a, b, s in terms:
            for k, x in b[j].items():
                x *= s
                for i, y in a[k].items():
                    acc[i] = acc.get(i, 0) + x * y
        if any(map(f.normalize, acc.values())):
            return True
    return False


def validate(mc: Multicomplex) -> list[str]:
    """Structural audit; returns a list of violations (empty means valid).
    Each relation is checked as one sum of products that must vanish
    (``_nonzero_sum``), not by comparing normalized products."""
    bad: list[str] = []
    for q, d in mc.dims.items():
        if len(q) != mc.n:
            bad.append(f"point {q} has wrong arity")
        if d <= 0:
            bad.append(f"nonpositive dim at {q}")
    for (q, i), mat in mc.diffs.items():
        rows, cols = mc.entry_dim(add_e(q, i)), mc.entry_dim(q)
        if len(mat) != cols:
            bad.append(f"matrix at {q} axis {i} has the wrong shape: {len(mat)} columns, "
                       f"expected {cols}")
        elif any(not 0 <= r < rows for col in mat for r in col):
            bad.append(f"matrix at {q} axis {i} has the wrong shape: a row outside "
                       f"0..{rows - 1}")
    if bad:
        return bad
    f = mc.field
    for q in mc.points():
        for i in range(mc.n):
            qi = add_e(q, i)
            if mc.entry_dim(qi) and mc.entry_dim(add_e(qi, i)):
                if _nonzero_sum(f, [(mc.diff(qi, i), mc.diff(q, i), 1)]):
                    bad.append(f"square of axis-{i} differential nonzero at {q}")
            for j in range(i + 1, mc.n):
                target = add_e(qi, j)
                if mc.entry_dim(target) == 0 or mc.entry_dim(q) == 0:
                    continue
                if _nonzero_sum(f, [(mc.diff(qi, j), mc.diff(q, i), 1),
                                    (mc.diff(add_e(q, j), i), mc.diff(q, j), -1)]):
                    bad.append(f"axes {i},{j} fail the commutative relation at {q}")
    return bad


def block_slices(blocks: tuple) -> dict:
    """The coordinates of each block of one degree of a totalization, as
    ``block key -> slice``, from its ``((key, dim), ...)`` block list."""
    ends = itertools.accumulate(d for _, d in blocks)
    return {key: slice(end - d, end) for (key, d), end in zip(blocks, ends)}


def totalize(mc: Multicomplex) -> CochainComplex:
    """Direct sum along total degree, block d^{q,i} rescaled by
    (-1)^(q_1+...+q_{i-1})."""
    by_degree: dict[int, list[Point]] = {}
    for q in mc.points():
        by_degree.setdefault(sum(q), []).append(q)
    blocks = {m: tuple((q, mc.entry_dim(q)) for q in sorted(pts)) for m, pts in by_degree.items()}
    dims = {m: sum(d for _, d in blk) for m, blk in blocks.items()}
    starts = {m: {key: sl.start for key, sl in block_slices(blk).items()}
              for m, blk in blocks.items()}
    d = {}
    f = mc.field
    for m, blk in blocks.items():
        if m + 1 not in dims:
            continue
        columns: Columns = []
        row_ids = list(range(dims[m + 1]))  # one int object per row, shared by its entries
        for q, dq in blk:
            cols: Columns = [{} for _ in range(dq)]
            for i in range(mc.n):
                tq = add_e(q, i)
                if mc.entry_dim(tq) == 0 or (q, i) not in mc.diffs:
                    continue
                block = mc.diffs[(q, i)]
                if sum(q[:i]) % 2:
                    block = neg(f, block)
                r0 = starts[m + 1][tq]
                for col, bcol in zip(cols, block):
                    col.update((row_ids[r0 + r], v) for r, v in bcol.items())
            columns.extend(cols)
        d[m] = columns
    return CochainComplex(f, dims, d, blocks)


def restrict(tot: CochainComplex, keep) -> CochainComplex:
    """The blocks of ``tot``, a totalization, whose lattice points satisfy
    ``keep``, with the maps between them: each degree keeps its surviving
    blocks in order, and degrees left empty are dropped.

    Every region the audits read is such a block selection.  A set of points
    closed upward (every point above a kept one is kept) gives a subcomplex,
    one closed downward a quotient complex, and the meet of one of each (an
    interior) a subquotient."""
    if tot.blocks is None:
        raise ContractError("only a totalization can be restricted to lattice points")
    kept: dict[int, tuple[tuple, list[int]]] = {}
    for m, blk in tot.blocks.items():
        slices = block_slices(blk)
        keys = tuple((key, d) for key, d in blk if keep(key))
        if keys:
            kept[m] = (keys, [i for key, _ in keys
                              for i in range(slices[key].start, slices[key].stop)])
    if sum(len(keys) for keys, _ in kept.values()) == sum(map(len, tot.blocks.values())):
        return tot  # every block kept
    d = {m: submatrix(tot.matrix(m), kept[m + 1][1], cols)
         for m, (_, cols) in kept.items() if m + 1 in kept}
    return CochainComplex(tot.field, {m: len(cols) for m, (_, cols) in kept.items()}, d,
                          {m: keys for m, (keys, _) in kept.items()})


def composite_along(mc: Multicomplex, axes: tuple[int, ...]) -> Columns:
    """Composite differential from the origin entry along the given axes, in
    the listed order.  Zero entries along the path give zero columns."""
    pt = (0,) * mc.n
    mat = identity(mc.entry_dim(pt))
    for i in axes:
        mat = mul(mc.field, mc.diff(pt, i), mat)
        pt = add_e(pt, i)
    return mat


def augment_interior(tot: CochainComplex, axes: tuple[int, ...]) -> CochainComplex:
    """The augmented interior of a lattice along ``axes`` (i_1 < ... < i_p),
    read off ``tot``, the totalization of the lattice's cube extension: its
    blocks positive exactly on ``axes``, in both layers.

    Layer 0 gives the interior, which starts in degree p with the single
    entry at e_{i_1}+...+e_{i_p}; layer -1 gives the cube vertex at the same
    point, a copy of the origin entry C^0 in degree p-1, mapping by the
    composite d^{i_p} o ... o d^{i_1} (``cube_extension``).
    """
    if not axes:
        raise InputError("augmentation needs a nonempty axis subset")
    n = next((len(key) - 1 for blk in (tot.blocks or {}).values() for key, _ in blk), None)
    if len(set(axes)) != len(axes) or any(i < 0 or (n is not None and i >= n) for i in axes):
        raise ContractError(f"bad axis subset {tuple(sorted(axes))} for n={n}")
    out = restrict(tot, lambda k: all((x > 0) == (i in axes) for i, x in enumerate(k[1:])))
    p = len(axes)
    if out.dim(p - 1) and out.dim(p) and out.dim(p + 1):
        if any(mul(out.field, out.matrix(p), out.matrix(p - 1))):
            raise InternalCheckError("augmentation composite does not land in the kernel")
    return out


def _wedge_signs(field: Field, s: tuple[int, ...], n: int, index: dict) -> dict[int, object]:
    """The Koszul map on the wedge slot ``s``: ``{index[t]: sign}`` over the
    slots t = s + {j} that ``index`` holds, with sign (-1)^#{i in s : i < j}."""
    out = {}
    for j in range(n):
        if j in s:
            continue
        t = tuple(sorted((*s, j)))
        if t in index:
            out[index[t]] = field.normalize(-1 if sum(1 for i in s if i < j) % 2 else 1)
    return out


def koszul_split(mc: Multicomplex) -> Multicomplex:
    """The face half of the unit-Koszul scaffold on ``mc``: the quotient of
    the scaffold supported on the coordinate faces, where wedge slot I keeps
    the points with q_i = 0 for all i in I.

    Axis 0 of the half is the wedge degree p; the entry at (p,) + q sums one
    copy of C^q per kept p-subset I of the original axes, in lexicographic
    order.  The other half is never built over a lattice (``spectral``).
    """
    return _koszul_half(mc, lambda I, q: all(q[i] == 0 for i in I))


def _koszul_half(mc: Multicomplex, keep) -> Multicomplex:
    """The half of the scaffold on ``mc`` whose wedge slot I at point q is
    kept when ``keep(I, q)``."""
    n = mc.n
    f = mc.field
    subsets = {p: list(itertools.combinations(range(n), p)) for p in range(n + 1)}
    slots = {(p,) + q: allowed for q in mc.points() for p in range(n + 1)
             if (allowed := [I for I in subsets[p] if keep(I, q)])}
    dims = {point: mc.entry_dim(point[1:]) * len(allowed) for point, allowed in slots.items()}
    diffs: dict[tuple[Point, int], Columns] = {}
    for point, allowed in slots.items():
        p, q = point[0], point[1:]
        dq = mc.entry_dim(q)
        # wedge axis
        target = (p + 1,) + q
        if target in slots:
            t_index = {I: k for k, I in enumerate(slots[target])}
            columns: Columns = []
            for I in allowed:
                signs = _wedge_signs(f, I, n, t_index)
                columns.extend({r * dq + k: v for r, v in signs.items()} for k in range(dq))
            diffs[(point, 0)] = columns
        # multicomplex axes
        for i in range(n):
            tq = add_e(q, i)
            tpoint = (p,) + tq
            if tpoint not in slots or (q, i) not in mc.diffs:
                continue
            t_offs = {I: k * mc.entry_dim(tq) for k, I in enumerate(slots[tpoint])}
            block = mc.diffs[(q, i)]
            columns = []
            for I in allowed:
                if I in t_offs:
                    r0 = t_offs[I]
                    columns.extend({r0 + r: v for r, v in col.items()} for col in block)
                else:
                    columns.extend({} for _ in range(dq))
            diffs[(point, i + 1)] = columns
    return Multicomplex(f, n + 1, dims, diffs)


def cube_extension(mc: Multicomplex) -> Multicomplex:
    """Extend a multicomplex by the unit hypercube on its origin entry, glued
    one layer below via the composite differentials.

    The result lives in {-1,0} x N^n: layer 0 is ``mc``; layer -1 carries a
    copy of C^0 on each vertex of {0,1}^n with identity maps inside the cube
    and the composite map down to layer 0.
    """
    n = mc.n
    f = mc.field
    c0 = mc.entry_dim((0,) * n)
    dims: dict[Point, int] = {(0,) + q: d for q, d in mc.dims.items()}
    diffs: dict[tuple[Point, int], Columns] = {
        ((0,) + q, i + 1): m for (q, i), m in mc.diffs.items()
    }
    if c0:
        for q in itertools.product((0, 1), repeat=n):
            dims[(-1,) + q] = c0
        for q in itertools.product((0, 1), repeat=n):
            support = tuple(i for i, x in enumerate(q) if x)
            psi = composite_along(mc, support)
            if (0,) + q in dims and any(psi):
                diffs[((-1,) + q, 0)] = psi
            for i in range(n):
                if q[i] == 0:
                    diffs[((-1,) + q, i + 1)] = identity(c0)
    return Multicomplex(f, n + 1, dims, diffs)
