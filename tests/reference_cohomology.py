"""Maps induced on cohomology, written in bases of representatives, kept as a
test reference: the annihilation audit (``reference_annihilation``) composes
them, and the first-page route of the three-group limit filtration
(``reference_middle_pieces``) is the reference for ``mvss._middle_piece``,
which reads the same numbers from the dimensions of spans.
"""

from cechmv.errors import ContractError
from cechmv.linalg import Columns, Subspace, mul, pivot_pairs, same_field, submatrix
from cechmv.multicomplex import CochainComplex
from cechmv.spectral import FilteredComplex


def cohomology_reps(cx: CochainComplex, m: int):
    """(representatives, kernel, image) of ``cx`` at degree ``m``, the two
    spaces as ``Subspace``s.  The representatives are the kernel's basis
    columns whose lowest rows are not lowest rows of the image, so they
    complete the image to the kernel."""
    ker = Subspace.kernel(cx.field, cx.matrix(m))
    im = Subspace.span(cx.field, cx.dim(m), cx.matrix(m - 1))
    return ker.quotient_reps(im), ker, im


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
            coords = target.coordinates(v)
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
