"""Cohomology representatives, their coordinates and the maps they induce,
kept as a test reference: the annihilation audit (``reference_annihilation``)
composes the induced maps, the first-page route of the three-group limit
filtration (``reference_middle_pieces``) is the reference for
``mvss._middle_piece``, and the representative route of the page-n edge
check (``reference_edge_composite_check``) is the reference for
``spectral.edge_composite_check``; the package reads the same numbers from
the dimensions of spans.
"""

from cechmv.errors import ContractError
from cechmv.linalg import Columns, Subspace, mul, pivot_pairs, submatrix
from cechmv.multicomplex import CochainComplex, block_slices, composite_along
from cechmv.spectral import FilteredComplex, LatticeSequences, _cell_spaces, filtration_from_blocks
from conftest import same_field


def coordinates(space: Subspace, v: dict) -> list | None:
    """The coefficients of the ``{row: value}`` vector ``v`` on
    ``space.columns``, or None when ``v`` is outside the subspace: the
    reduction of ``linalg.reduce_column``, recording the multiple of each
    basis column it subtracts."""
    f, col, coeffs = space.field, dict(v), {}
    while col:
        low = max(col)
        if low not in space.pivots:
            return None
        other, inv = space.pivots[low]
        c = coeffs[low] = f.normalize(col[low] * inv)
        for i, x in other.items():
            y = f.normalize(col.pop(i, 0) - c * x)
            if y:
                col[i] = y
    return [coeffs.get(low, 0) for low in space.pivots]


def quotient_reps(space: Subspace, sub: Subspace) -> Columns:
    """The basis columns of ``space`` whose lowest rows are not lowest rows
    of ``sub``.  For ``sub`` inside ``space`` they complete any basis of
    ``sub`` to one of ``space``."""
    same_field(space.field, sub.field)
    if space.ambient != sub.ambient:
        raise ContractError(f"ambient mismatch {space.ambient} vs {sub.ambient}")
    keep = [col for low, (col, _) in space.pivots.items() if low not in sub.pivots]
    if len(keep) != space.dim - sub.dim:
        raise ContractError("quotient_reps: argument is not a subspace of space")
    return keep


def cohomology_reps(cx: CochainComplex, m: int):
    """(representatives, kernel, image) of ``cx`` at degree ``m``, the two
    spaces as ``Subspace``s.  The representatives are the kernel's basis
    columns whose lowest rows are not lowest rows of the image, so they
    complete the image to the kernel."""
    ker = Subspace.kernel(cx.field, cx.matrix(m))
    im = Subspace.span(cx.field, cx.dim(m), cx.matrix(m - 1))
    return quotient_reps(ker, im), ker, im


def cohomology_map(cxa: CochainComplex, cxb: CochainComplex, chain: dict[int, Columns],
                   check: bool = True) -> dict[int, Columns]:
    """Map induced on cohomology by a chain map ``chain[m]: cxa^m -> cxb^m``.

    Returns one column list per degree where both sides have entries, written
    in the representatives of ``cohomology_reps``.  The coordinates of each
    image are read off one reduction against the target's image columns
    followed by its representatives; their lowest rows are distinct, so
    that reduction keeps every one of them as it is.
    """
    same_field(cxa.field, cxb.field)
    f = cxa.field

    def chain_at(m: int) -> Columns:
        return chain[m] if m in chain else [{} for _ in range(cxa.dim(m))]

    if check:
        for m in cxa.dims:
            if mul(f, chain_at(m + 1), cxa.matrix(m)) != mul(f, cxb.matrix(m), chain_at(m)):
                raise ContractError(f"not a chain map at degree {m}")
    out = {}
    for m in sorted(set(cxa.dims) | set(cxb.dims)):
        reps_a = cohomology_reps(cxa, m)[0] if cxa.dim(m) else []
        if cxb.dim(m) == 0:
            if reps_a:
                out[m] = [{} for _ in reps_a]
            continue
        reps_b, _, im_b = cohomology_reps(cxb, m)
        if not reps_a and not reps_b:
            continue
        target = Subspace.span(f, cxb.dim(m), im_b.columns + reps_b)
        out[m] = []
        for v in mul(f, chain_at(m), reps_a):
            coords = coordinates(target, v)
            if coords is None:
                raise ContractError(f"a degree-{m} class maps outside the cocycles")
            out[m].append({i: c for i, c in enumerate(coords[im_b.dim:]) if c})
    return out


def first_page_maps(fc: FilteredComplex, p: int) -> dict[int, Columns]:
    """d_1 out of level p of a coordinate filtration, by total degree, in the
    bases of ``cohomology_reps``.  The first page at level p is the cohomology
    of the level-p diagonal block of d, and d_1 is induced by the block one
    level up, which anticommutes with the diagonal blocks."""
    tot = fc.total

    def level(lv: int, shift: int) -> tuple[CochainComplex, dict[int, list[int]]]:
        index = {m: [i for i, x in enumerate(fc.levels[m]) if x == lv] for m in tot.dims}
        dims = {m - shift: len(ix) for m, ix in index.items()}
        d = {m - shift: submatrix(tot.matrix(m), index[m + 1], ix)
             for m, ix in index.items() if m + 1 in index}
        return CochainComplex(tot.field, dims, d), index

    src, here = level(p, 0)
    tgt, up = level(p + 1, 1)
    chain = {m: submatrix(tot.matrix(m), up[m + 1], ix) for m, ix in here.items() if m + 1 in up}
    return cohomology_map(src, tgt, chain, check=False)


def reference_middle_pieces(fc: FilteredComplex, degrees) -> dict[int, tuple[int, bool]]:
    """What ``mvss._middle_piece(fc, m)`` returns, for each m in ``degrees``,
    from the ranks of the explicit first-page maps phi' (out of level 0 at
    total degree m - 1) and psi' (out of level 1 at total degree m): ker psi'
    contains im phi' exactly when psi' phi' = 0, and then the quotient has
    dimension cols(psi') - rank psi' - rank phi'."""
    f = fc.total.field
    maps = {p: first_page_maps(fc, p) for p in (0, 1)}
    out = {}
    for m in degrees:
        # a map is missing where its source cell is zero
        psi, phi = maps[1].get(m, []), maps[0].get(m - 1, [])
        out[m] = (len(psi) - len(pivot_pairs(f, psi)) - len(pivot_pairs(f, phi)),
                  not any(mul(f, psi, phi)))
    return out


def reference_edge_composite_check(seqs: LatticeSequences) -> list[str]:
    """What ``spectral.edge_composite_check(seqs)`` returns, from
    representatives: the quotient representatives of the page-n cell
    (0, n-1) must number c0 and be identified with the origin entry, and
    for one global sign s, d(rep) - s psi(iota rep), sliced to the interior
    block, must have coordinates in B_n of cell (n, 0) for every
    representative."""
    mc = seqs.mc
    n = mc.n
    if n < 2:
        return []
    f = mc.field
    c0 = mc.entry_dim((0,) * n)
    fc = filtration_from_blocks(seqs.sequence("truncated face").fc.total, lambda q: sum(q) - q[0])
    if not fc.total.dims:
        return []
    z, b = _cell_spaces(fc, n, 0, n - 1)
    reps = quotient_reps(z, b)
    bad: list[str] = []
    if len(reps) != c0:
        bad.append(f"page-{n} cell (0,{n - 1}) has dim {len(reps)}, expected dim {c0} of the origin entry")
        return bad
    if c0 == 0:
        return bad
    psi = composite_along(mc, tuple(range(n)))
    tz, bsp = _cell_spaces(fc, n, n, 0)
    treps = quotient_reps(tz, bsp)

    # identification of the source cell with the origin entry: extract the
    # block at wedge n-1 over q=0 and apply the last Koszul map
    tot = fc.total
    top_point = (n - 1,) + (0,) * n
    src = block_slices(tot.blocks[n - 1]).get(top_point)
    if src is None:
        bad.append(f"no wedge-(n-1) block over the origin in degree {n - 1}")
        return bad
    ident = [{} for _ in range(tot.dim(n - 1))]
    for subset, sl in block_slices(seqs.face_half.point_blocks[top_point]).items():
        missing = next(i for i in range(n) if i not in subset)
        sign = f.normalize(-1 if missing % 2 else 1)
        for k in range(sl.stop - sl.start):
            ident[src.start + sl.start + k] = {k: sign}
    origin = mul(f, ident, reps)  # the origin element of each source representative
    if len(pivot_pairs(f, origin)) != c0:
        bad.append("source-cell identification with the origin entry is singular")
        return bad

    # target side: representatives must live in the wedge-0 block over (1,..,1)
    tgt = block_slices(tot.blocks.get(n, ())).get((0,) + (1,) * n)
    if tgt is None:
        if treps:
            bad.append("target cell nonzero but the interior block is absent")
        return bad
    if any(not tgt.start <= i < tgt.stop for col in treps + bsp.columns for i in col):
        bad.append("target-cell representatives or boundaries stick out of the interior block")
        return bad
    w = Subspace.span(f, tgt.stop - tgt.start,
                      ({i - tgt.start: v for i, v in col.items()} for col in bsp.columns))

    # realize the map on the nose: class of d(rep_k) sliced to the interior block
    images = submatrix(mul(f, tot.matrix(n - 1), reps), range(tgt.start, tgt.stop),
                       range(len(reps)))
    expected = mul(f, psi, origin)  # psi of the identified origin element
    for sign in (1, -1):
        # column k of images + expected, times e_k - sign e_{c0+k}: their difference
        diff = mul(f, images + expected, [{k: 1, c0 + k: f.normalize(-sign)} for k in range(c0)])
        if all(coordinates(w, col) is not None for col in diff):
            return bad
    bad.append("page-n edge map differs from the composite differential by more than a sign")
    return bad
