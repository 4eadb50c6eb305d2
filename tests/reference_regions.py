"""The lattice regions built from the lattice's own totalization, kept as a
reference for ``LatticeSequences.region``, which selects every region from
the totalization of the cube extension.

``reference_region`` restricts ``totalize(mc)`` to a face or an interior and
glues the origin entry onto an interior by hand (``glue_origin``).  Its block
keys are those of the cube extension: ``(0,) + q`` for the lattice point q,
and ``(-1,) + e_axes`` for the glued origin entry, so the two constructions
can be compared with ``==``, matrix for matrix.
"""

from cechmv import CochainComplex, Multicomplex, composite_along, restrict, totalize
from cechmv.errors import InternalCheckError
from cechmv.linalg import mul


def lift(tot: CochainComplex) -> CochainComplex:
    """``tot`` with each block key q renamed ``(0,) + q``, its cube-layer-0 name."""
    blocks = {m: tuple(((0,) + key, d) for key, d in blk) for m, blk in tot.blocks.items()}
    return CochainComplex(tot.field, tot.dims, tot.d, blocks)


def glue_origin(mc: Multicomplex, axes: tuple[int, ...], tot: CochainComplex) -> CochainComplex:
    """``tot``, the totalization of the interior of ``mc`` along ``axes``,
    with the origin entry glued in one degree below the interior's start, via
    the composite differential.

    For axes (i_1 < ... < i_p) the interior totalization starts in degree p
    with the single entry at e_{i_1}+...+e_{i_p}; the augmentation adds C^0 in
    degree p-1 mapping by d^{i_p} o ... o d^{i_1}.
    """
    axes = tuple(sorted(axes))
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
        if tot.dim(p + 1) and any(mul(mc.field, tot.matrix(p), comp)):
            raise InternalCheckError("augmentation composite does not land in the kernel")
    blocks = dict(tot.blocks)
    blocks[p - 1] = (((-1,) + tuple(int(i in axes) for i in range(mc.n)), c0),)
    return CochainComplex(mc.field, dims, d, blocks)


def reference_region(mc: Multicomplex, kind: str, axes: tuple[int, ...]) -> CochainComplex:
    """The region ``(kind, axes)`` of ``LatticeSequences(mc)``, from ``totalize(mc)``."""
    tot = totalize(mc)
    if kind == "face":
        return lift(restrict(tot, lambda q: not any(q[i] for i in axes)))
    interior = lift(restrict(tot, lambda q: all((x > 0) == (i in axes) for i, x in enumerate(q))))
    if kind == "interior":
        return interior
    assert kind == "augmented", kind
    return glue_origin(mc, axes, interior)
