"""Lattice-graded multicomplexes and the constructions the spectral runs feed on.

A multicomplex here is a finite family of vector spaces C^q indexed by lattice
points q inside a box, with one differential per coordinate direction raising
that coordinate by 1.  Two flavors are supported:

  commutative      d^i and d^j commute for i != j,
  anticommutative  d^i and d^j anticommute for i != j,

both with d^i twice in the same direction composing to zero.  The sign
transform rescaling d^{q,i} by (-1)^(q_1+...+q_{i-1}) toggles the flavor and
is an involution.

Totalization sums the entries along total degree; in the commutative flavor
the blocks are sign-twisted exactly as above, in the anticommutative flavor
they are summed as-is.

The region machinery (faces, punctured faces, interiors) produces the
subquotients whose totalizations the rest of the package compares:
restriction to a face is a quotient of the original multicomplex, the other
two kinds are subcomplexes of the relevant face quotient, and all of them are
implemented uniformly by discarding entries outside the region.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, InputError, InternalCheckError
from .linalg import Field, image, kernel_space, mul, pivot_columns, same_field, solve

Point = tuple[int, ...]

COMMUTATIVE = "commutative"
ANTICOMMUTATIVE = "anticommutative"


def add_e(q: Point, i: int, step: int = 1) -> Point:
    return q[:i] + (q[i] + step,) + q[i + 1 :]


@dataclass(frozen=True)
class CochainComplex:
    """Single complex with integer degrees; matrices act on column vectors."""

    field: Field
    dims: dict[int, int]
    d: dict[int, np.ndarray]
    blocks: dict[int, tuple] | None = None  # degree -> ((block key, dim), ...)

    def dim(self, m: int) -> int:
        return self.dims.get(m, 0)

    def matrix(self, m: int) -> np.ndarray:
        mat = self.d.get(m)
        if mat is None:
            return self.field.zeros(self.dim(m + 1), self.dim(m))
        return mat

    def degree_range(self) -> tuple[int, int]:
        if not self.dims:
            return (0, -1)
        return (min(self.dims), max(self.dims))

    def check_complex(self) -> None:
        for m in sorted(self.dims):
            if self.dim(m) and self.dim(m + 1) and self.dim(m + 2):
                prod = mul(self.field, self.matrix(m + 1), self.matrix(m))
                if np.any(prod):
                    raise InternalCheckError(f"d o d != 0 at degree {m}")

    def cohomology_dims(self) -> dict[int, int]:
        out = {}
        rk = {m: len(pivot_columns(self.field, self.matrix(m))) for m in self.dims}
        for m in self.dims:
            h = self.dim(m) - rk.get(m, 0) - rk.get(m - 1, 0) if self.dim(m) else 0
            if h:
                out[m] = h
        return out

    def cohomology_reps(self, m: int):
        """(representative rows, kernel, image) at degree ``m``."""
        ker = kernel_space(self.field, self.matrix(m))
        im = image(self.field, self.matrix(m - 1))
        return ker.quotient_reps(im), ker, im


def cohomology_map(cxa: CochainComplex, cxb: CochainComplex, chain: dict[int, np.ndarray], check: bool = True) -> dict[int, np.ndarray]:
    """Map induced on cohomology by a chain map ``chain[m]: cxa^m -> cxb^m``.

    Returns one matrix per degree where both sides have entries, written in
    the representative bases of ``cohomology_reps``.
    """
    same_field(cxa.field, cxb.field)
    f = cxa.field
    if check:
        for m in cxa.dims:
            lhs = mul(f, chain.get(m + 1, f.zeros(cxb.dim(m + 1), cxa.dim(m + 1))), cxa.matrix(m))
            rhs = mul(f, cxb.matrix(m), chain.get(m, f.zeros(cxb.dim(m), cxa.dim(m))))
            if np.any(f.normalize(lhs - rhs)):
                raise ContractError(f"not a chain map at degree {m}")
    out = {}
    for m in sorted(set(cxa.dims) | set(cxb.dims)):
        reps_a = cxa.cohomology_reps(m)[0] if cxa.dim(m) else f.zeros(0, 0)
        if cxb.dim(m) == 0:
            if reps_a.shape[0]:
                out[m] = f.zeros(0, reps_a.shape[0])
            continue
        reps_b, _, im_b = cxb.cohomology_reps(m)
        if reps_a.shape[0] == 0 and reps_b.shape[0] == 0:
            continue
        fm = chain.get(m, f.zeros(cxb.dim(m), cxa.dim(m)))
        images = mul(f, reps_a, fm.T)  # rows: chain-image of each representative
        basis = np.concatenate([reps_b, im_b.basis], axis=0)
        if basis.shape[0] == 0:
            out[m] = f.zeros(0, reps_a.shape[0])
            continue
        coeffs = solve(f, basis.T, images.T)  # columns express each image
        out[m] = coeffs[: reps_b.shape[0], :]
    return out


@dataclass(frozen=True)
class Multicomplex:
    field: Field
    n: int
    box: tuple[Point, Point]  # inclusive (lo, hi)
    dims: dict[Point, int]
    diffs: dict[tuple[Point, int], np.ndarray]
    flavor: str
    point_blocks: dict[Point, tuple] | None = None  # provenance of per-point sums

    def entry_dim(self, q: Point) -> int:
        return self.dims.get(q, 0)

    def diff(self, q: Point, i: int) -> np.ndarray:
        mat = self.diffs.get((q, i))
        if mat is None:
            return self.field.zeros(self.entry_dim(add_e(q, i)), self.entry_dim(q))
        return mat

    def points(self) -> list[Point]:
        return sorted(self.dims)


def validate(mc: Multicomplex) -> list[str]:
    """Structural audit; returns a list of violations (empty means valid)."""
    bad: list[str] = []
    lo, hi = mc.box
    if len(lo) != mc.n or len(hi) != mc.n or any(a > b for a, b in zip(lo, hi)):
        bad.append(f"malformed box {mc.box}")
        return bad
    for q, d in mc.dims.items():
        if len(q) != mc.n:
            bad.append(f"point {q} has wrong arity")
        elif not all(a <= x <= b for x, a, b in zip(q, lo, hi)):
            bad.append(f"point {q} outside box")
        if d <= 0:
            bad.append(f"nonpositive dim at {q}")
    for (q, i), mat in mc.diffs.items():
        want = (mc.entry_dim(add_e(q, i)), mc.entry_dim(q))
        if mat.shape != want:
            bad.append(f"matrix at {q} axis {i} has shape {mat.shape}, expected {want}")
    if bad:
        return bad
    f = mc.field
    sign = 1 if mc.flavor == COMMUTATIVE else -1
    for q in mc.points():
        for i in range(mc.n):
            qi = add_e(q, i)
            if mc.entry_dim(qi) and mc.entry_dim(add_e(qi, i)):
                if np.any(mul(f, mc.diff(qi, i), mc.diff(q, i))):
                    raise_point = f"square of axis-{i} differential nonzero at {q}"
                    bad.append(raise_point)
            for j in range(i + 1, mc.n):
                target = add_e(qi, j)
                if mc.entry_dim(target) == 0 or mc.entry_dim(q) == 0:
                    continue
                one = mul(f, mc.diff(qi, j), mc.diff(q, i))
                two = mul(f, mc.diff(add_e(q, j), i), mc.diff(q, j))
                if np.any(f.normalize(one - sign * two)):
                    bad.append(f"axes {i},{j} fail the {mc.flavor} relation at {q}")
    return bad


def sign_twist(mc: Multicomplex) -> Multicomplex:
    """Rescale d^{q,i} by (-1)^(q_1+...+q_{i-1}); involutive, toggles flavor."""
    new = {}
    for (q, i), mat in mc.diffs.items():
        s = sum(q[:i]) % 2
        new[(q, i)] = mc.field.normalize(-mat) if s else mat
    flavor = ANTICOMMUTATIVE if mc.flavor == COMMUTATIVE else COMMUTATIVE
    return Multicomplex(mc.field, mc.n, mc.box, dict(mc.dims), new, flavor, mc.point_blocks)


def block_slices(blocks: tuple) -> dict:
    """The coordinates of each block of one degree of a totalization, as
    ``block key -> slice``, from its ``((key, dim), ...)`` block list."""
    ends = itertools.accumulate(d for _, d in blocks)
    return {key: slice(end - d, end) for (key, d), end in zip(blocks, ends)}


def totalize(mc: Multicomplex, check: bool = False) -> CochainComplex:
    """Direct sum along total degree; commutative inputs get the sign twist on
    each block, anticommutative inputs are summed raw."""
    by_degree: dict[int, list[Point]] = {}
    for q in mc.points():
        by_degree.setdefault(sum(q), []).append(q)
    blocks = {m: tuple((q, mc.entry_dim(q)) for q in sorted(pts)) for m, pts in by_degree.items()}
    dims = {m: sum(d for _, d in blk) for m, blk in blocks.items()}
    spans = {m: block_slices(blk) for m, blk in blocks.items()}
    d = {}
    f = mc.field
    for m, blk in blocks.items():
        if m + 1 not in dims:
            continue
        mat = f.zeros(dims[m + 1], dims[m])
        wrote = False
        for q, _ in blk:
            for i in range(mc.n):
                tq = add_e(q, i)
                if mc.entry_dim(tq) == 0 or (q, i) not in mc.diffs:
                    continue
                block = mc.diffs[(q, i)]
                if mc.flavor == COMMUTATIVE and sum(q[:i]) % 2:
                    block = f.normalize(-block)
                mat[spans[m + 1][tq], spans[m][q]] = block
                wrote = True
        if wrote:
            d[m] = mat
    out = CochainComplex(f, dims, d, blocks)
    if check:
        out.check_complex()
    return out


@dataclass(frozen=True)
class Region:
    """Lattice region over nonnegative points.

    kind 'face': q_i = 0 off ``axes``;  'punctured': face minus the origin;
    'interior': q_i > 0 exactly on ``axes``.  ``star=True`` in the
    constructors means ``axes`` names the coordinates forced to zero instead
    (the face spanned by the others).
    """

    kind: str
    axes: frozenset[int]

    @staticmethod
    def _resolve(axes, n: int, star: bool) -> frozenset[int]:
        ax = frozenset(axes)
        if any(i < 0 or i >= n for i in ax):
            raise ContractError(f"region axes {sorted(ax)} out of range for n={n}")
        return frozenset(range(n)) - ax if star else ax

    @staticmethod
    def face(axes, n: int, star: bool = False) -> "Region":
        return Region("face", Region._resolve(axes, n, star))

    @staticmethod
    def interior(axes, n: int, star: bool = False) -> "Region":
        return Region("interior", Region._resolve(axes, n, star))

    @staticmethod
    def punctured_all(n: int) -> "Region":
        return Region("punctured", frozenset(range(n)))

    @staticmethod
    def interior_all(n: int) -> "Region":
        return Region("interior", frozenset(range(n)))

    def contains(self, q: Point) -> bool:
        on_face = all(x == 0 for i, x in enumerate(q) if i not in self.axes)
        if self.kind == "face":
            return on_face
        if self.kind == "punctured":
            return on_face and any(q)
        if self.kind == "interior":
            return all((x > 0) == (i in self.axes) for i, x in enumerate(q))
        raise ContractError(f"unknown region kind {self.kind}")


def _keep_points(mc: Multicomplex, keep, box: tuple[Point, Point] | None = None) -> Multicomplex:
    """The entries at the points where ``keep`` holds, with the maps between
    them and their block provenance."""
    dims = {q: d for q, d in mc.dims.items() if keep(q)}
    diffs = {(q, i): m for (q, i), m in mc.diffs.items() if q in dims and add_e(q, i) in dims}
    pb = ({q: b for q, b in mc.point_blocks.items() if q in dims}
          if mc.point_blocks is not None else None)
    return Multicomplex(mc.field, mc.n, box or mc.box, dims, diffs, mc.flavor, pb)


def restrict(mc: Multicomplex, region: Region) -> Multicomplex:
    """Zero out all entries outside the region, keeping the surviving maps."""
    if any(x < 0 for x in mc.box[0]):
        raise ContractError("regions are defined over nonnegative lattice points only")
    return _keep_points(mc, region.contains)


def puncture(mc: Multicomplex) -> Multicomplex:
    return restrict(mc, Region.punctured_all(mc.n))


def puncture_along(mc: Multicomplex, axis: int) -> Multicomplex:
    """Drop the line through the origin along ``axis``: the points whose other
    coordinates are all zero.  Along the wedge axis 0 of a Koszul split half,
    this is the same half of the split of the punctured multicomplex."""
    return _keep_points(mc, lambda q: any(x for i, x in enumerate(q) if i != axis))


def drop_axis_top(mc: Multicomplex, axis: int, value: int) -> Multicomplex:
    """Quotient away the layer q[axis] == value (must be the top of the box)."""
    if value != mc.box[1][axis]:
        raise ContractError("can only drop the top layer of an axis")
    return _keep_points(mc, lambda q: q[axis] != value, (mc.box[0], add_e(mc.box[1], axis, -1)))


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


def composite_along(mc: Multicomplex, axes: tuple[int, ...]) -> np.ndarray:
    """Composite differential from the origin entry along the given axes, in
    the listed order.  Zero entries along the path give a zero matrix of the
    right shape."""
    pt = (0,) * mc.n
    mat = mc.field.eye(mc.entry_dim(pt))
    for i in axes:
        mat = mul(mc.field, mc.diff(pt, i), mat)
        pt = add_e(pt, i)
    return mat


def augment_interior(mc: Multicomplex, axes: tuple[int, ...],
                     tot: CochainComplex) -> CochainComplex:
    """``tot``, the totalization of the interior of ``mc`` along ``axes``,
    with the origin entry glued in one degree below the interior's start, via
    the composite differential.

    For axes (i_1 < ... < i_p) the interior totalization starts in degree p
    with the single entry at e_{i_1}+...+e_{i_p}; the augmentation adds C^0 in
    degree p-1 mapping by d^{i_p} o ... o d^{i_1}.
    """
    axes = tuple(sorted(axes))
    if not axes:
        raise InputError("augmentation needs a nonempty axis subset")
    if len(set(axes)) != len(axes) or any(i < 0 or i >= mc.n for i in axes):
        raise ContractError(f"bad axis subset {axes} for n={mc.n}")
    p = len(axes)
    c0 = mc.entry_dim((0,) * mc.n)
    if c0 == 0:
        return tot
    comp = composite_along(mc, axes)
    dims = dict(tot.dims)
    dims[p - 1] = c0
    d = dict(tot.d)
    if tot.dim(p):
        d[p - 1] = comp
        if tot.dim(p + 1) and np.any(mul(mc.field, tot.matrix(p), comp)):
            raise InternalCheckError("augmentation composite does not land in the kernel")
    blocks = dict(tot.blocks or {})
    blocks[p - 1] = (("aug", c0),)
    return CochainComplex(mc.field, dims, d, blocks)


def tensor_product(factors: list[CochainComplex]) -> Multicomplex:
    """Outer tensor product of single complexes, one lattice axis per factor.

    Direction i acts by the factor differential on slot i and the identity on
    the others; no signs are introduced, so the result is commutative.
    """
    if not factors:
        raise ContractError("tensor_product needs at least one factor")
    f = factors[0].field
    for cx in factors[1:]:
        same_field(f, cx.field)
    n = len(factors)
    ranges = [cx.degree_range() for cx in factors]
    lo = tuple(r[0] for r in ranges)
    hi = tuple(max(r[1], r[0]) for r in ranges)
    dims: dict[Point, int] = {}
    for q in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        d = 1
        for cx, v in zip(factors, q):
            d *= cx.dim(v)
        if d:
            dims[q] = d
    diffs = {}
    for q in dims:
        for i in range(n):
            tq = add_e(q, i)
            if tq not in dims:
                continue
            di = factors[i].matrix(q[i])
            pre = 1
            for cx, v in zip(factors[:i], q[:i]):
                pre *= cx.dim(v)
            post = 1
            for cx, v in zip(factors[i + 1 :], q[i + 1 :]):
                post *= cx.dim(v)
            mat = np.kron(np.kron(np.eye(pre, dtype=int), di), np.eye(post, dtype=int))
            diffs[(q, i)] = f.normalize(np.array(mat, dtype=f.dtype))
    return Multicomplex(f, n, (lo, hi), dims, diffs, COMMUTATIVE)


def koszul_complex(field: Field, n: int, coeff_dim: int) -> CochainComplex:
    """Cochain Koszul complex on n unit coefficients with values in k^coeff_dim.

    Exact for every n >= 1; used as a scaffold and as a self-test fixture.
    """
    subsets = {p: list(itertools.combinations(range(n), p)) for p in range(n + 1)}
    dims = {p: len(subsets[p]) * coeff_dim for p in range(n + 1) if len(subsets[p]) * coeff_dim}
    d = {}
    for p in range(n):
        if not dims.get(p) or not dims.get(p + 1):
            continue
        mat = field.zeros(dims[p + 1], dims[p])
        index = {s: k for k, s in enumerate(subsets[p + 1])}
        for col, s in enumerate(subsets[p]):
            inside = set(s)
            for j in range(n):
                if j in inside:
                    continue
                t = tuple(sorted(inside | {j}))
                sign = -1 if sum(1 for i in s if i < j) % 2 else 1
                r0 = index[t] * coeff_dim
                c0 = col * coeff_dim
                for k in range(coeff_dim):
                    mat[r0 + k, c0 + k] = sign
        d[p] = field.normalize(mat)
    return CochainComplex(field, dims, d)


@dataclass(frozen=True)
class KoszulSplit:
    """The unit-Koszul scaffold over a multicomplex, split into the subobject
    supported off the coordinate faces and the face-supported quotient."""

    complement_part: Multicomplex  # wedge slot I keeps points with some q_i > 0, i in I
    face_part: Multicomplex  # wedge slot I keeps points with q_i = 0 for all i in I


def koszul_split(mc: Multicomplex) -> KoszulSplit:
    """Build the two halves of the unit-Koszul scaffold on ``mc``.

    Axis 0 of the results is the wedge degree p; slots are indexed by the
    p-subsets I of the original axes in lexicographic order.  Anticommutative
    inputs are sign-twisted first so the scaffold is uniformly commutative.
    """
    if mc.flavor == ANTICOMMUTATIVE:
        mc = sign_twist(mc)
    n = mc.n
    f = mc.field
    subsets = {p: list(itertools.combinations(range(n), p)) for p in range(n + 1)}

    def build(keep) -> Multicomplex:
        dims: dict[Point, int] = {}
        pblocks: dict[Point, tuple] = {}
        for q in mc.points():
            dq = mc.entry_dim(q)
            for p in range(n + 1):
                allowed = [I for I in subsets[p] if keep(I, q)]
                if not allowed:
                    continue
                point = (p,) + q
                dims[point] = dq * len(allowed)
                pblocks[point] = tuple((I, dq) for I in allowed)
        diffs: dict[tuple[Point, int], np.ndarray] = {}
        for point, total in dims.items():
            p, q = point[0], point[1:]
            dq = mc.entry_dim(q)
            allowed = [I for I, _ in pblocks[point]]
            offs = {I: k * dq for k, I in enumerate(allowed)}
            # wedge axis
            target = (p + 1,) + q
            if target in dims:
                t_allowed = [I for I, _ in pblocks[target]]
                t_offs = {I: k * dq for k, I in enumerate(t_allowed)}
                mat = f.zeros(dims[target], total)
                wrote = False
                for I in allowed:
                    inside = set(I)
                    for j in range(n):
                        if j in inside:
                            continue
                        t = tuple(sorted(inside | {j}))
                        if t not in t_offs:
                            continue
                        sign = -1 if sum(1 for i in I if i < j) % 2 else 1
                        r0, c0 = t_offs[t], offs[I]
                        for k in range(dq):
                            mat[r0 + k, c0 + k] = sign
                        wrote = True
                if wrote:
                    diffs[(point, 0)] = f.normalize(mat)
            # multicomplex axes
            for i in range(n):
                tq = add_e(q, i)
                tpoint = (p,) + tq
                if tpoint not in dims or (q, i) not in mc.diffs:
                    continue
                t_allowed = [I for I, _ in pblocks[tpoint]]
                t_offs = {I: k * mc.entry_dim(tq) for k, I in enumerate(t_allowed)}
                block = mc.diffs[(q, i)]
                mat = f.zeros(dims[tpoint], total)
                wrote = False
                for I in allowed:
                    if I not in t_offs:
                        continue
                    r0, c0 = t_offs[I], offs[I]
                    mat[r0 : r0 + block.shape[0], c0 : c0 + dq] = block
                    wrote = True
                if wrote:
                    diffs[(point, i + 1)] = mat
        lo = (0,) + mc.box[0]
        hi = (n,) + mc.box[1]
        return Multicomplex(f, n + 1, (lo, hi), dims, diffs, COMMUTATIVE, pblocks)

    complement = build(lambda I, q: any(q[i] > 0 for i in I))
    face = build(lambda I, q: all(q[i] == 0 for i in I))
    return KoszulSplit(complement, face)


def cube_extension(mc: Multicomplex) -> Multicomplex:
    """Extend a commutative multicomplex by the unit hypercube on its origin
    entry, glued one layer below via the composite differentials.

    The result lives in {-1,0} x N^n: layer 0 is ``mc``; layer -1 carries a
    copy of C^0 on each vertex of {0,1}^n with identity maps inside the cube
    and the composite map down to layer 0.
    """
    if mc.flavor != COMMUTATIVE:
        raise ContractError("cube extension needs a commutative multicomplex")
    n = mc.n
    f = mc.field
    c0 = mc.entry_dim((0,) * n)
    dims: dict[Point, int] = {(0,) + q: d for q, d in mc.dims.items()}
    diffs: dict[tuple[Point, int], np.ndarray] = {
        ((0,) + q, i + 1): m for (q, i), m in mc.diffs.items()
    }
    if c0:
        for q in itertools.product((0, 1), repeat=n):
            dims[(-1,) + q] = c0
        for q in itertools.product((0, 1), repeat=n):
            support = tuple(i for i, x in enumerate(q) if x)
            psi = composite_along(mc, support)
            if (0,) + q in dims and np.any(psi):
                diffs[((-1,) + q, 0)] = psi
            for i in range(n):
                if q[i] == 0:
                    diffs[((-1,) + q, i + 1)] = f.eye(c0)
    lo = (-1,) + mc.box[0]
    hi = (0,) + tuple(max(b, 1) if c0 else b for b in mc.box[1])
    return Multicomplex(f, n + 1, (lo, hi), dims, diffs, COMMUTATIVE)
