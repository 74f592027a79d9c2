"""The all-generator solve of descent, kept as the oracle of its span-basis route.

``hlmod.descent`` solves for the coordinates of g . embedding only for the
generators g of the span basis that ``validate_structure`` checks, and
builds every other generator's descended matrix from its rational
coordinates over that basis.  This is the route it replaced: one RREF of
[basis | C conj(vectors), g vectors for every generator g, extra], every
descended generator read off it, and every generator's class coordinates
compared with the image module in the quotient presentation.  Each
function returns what its replacement returns, so a test can require the
two to agree byte for byte.
"""

from __future__ import annotations

from itertools import accumulate, product
from typing import Sequence

from hlmod.descent import DescentError, DescentResult, FormIllDefinedError, QuotientDescent
from hlmod.exact import Matrix, hstack
from hlmod.hodge_lefschetz import (
    BasisVector,
    GradedSpace,
    HLModule,
    OperatorFamily,
    PreconditionError,
    _ambient_kernel,
    _certify_module,
    _chain_columns,
    _vector_witness,
)
from hlmod.mixed import validate_tuple


def structure_coordinates(module: HLModule, basis: Matrix, vectors: Matrix, escaped: str, *extra: Matrix) -> list[Matrix]:
    """The coordinates over the columns of ``basis`` of the columns of C conj(vectors),
    of g vectors for every generator g and of each ``extra``, from one RREF."""
    targets = [module.space.conjugation * vectors.conjugate(), *(g * vectors for g in module.family.matrices), *extra]
    r = basis.cols
    rr, pivots = hstack(basis, *targets).rref()
    if pivots != list(range(r)):
        raise DescentError(escaped)
    starts = list(accumulate((t.cols for t in targets), initial=r))
    return [rr.submatrix(range(r), range(a, b)) for a, b in zip(starts, starts[1:])]


def descend(module: HLModule, mats: Sequence[Matrix]) -> tuple[DescentResult, Matrix]:
    """:func:`hlmod.descent._descend` with every generator solved for."""
    t, n = len(mats), module.dim
    new_weight = module.weight - t
    image = _chain_columns(module, mats).transpose()
    pivots = set(image.rref()[1])
    bi = module.space.bidegree_indices()
    blocks = sorted(product(range(new_weight + 1), repeat=2), key=lambda ab: (-sum(ab), -ab[0]))
    placed = [(i, a, b) for a, b in blocks for i in bi.get((a + t, b + t), []) if i in pivots]
    preimages = [i for i, _, _ in placed]
    new_vectors = tuple(BasisVector(a + b - new_weight, a, b) for _, a, b in placed)
    embedding = image.submatrix(range(n), preimages)
    section = Matrix.over([[int(i == r) for r in preimages] for i in range(n)], 1, len(preimages))
    kernel = Matrix([u for u, _ in _ambient_kernel(module, mats)], None, n)
    bad = next((i for i, row in enumerate((kernel * module.form * embedding).numerators()[0]) if any(row)), None)
    if bad is not None:
        raise FormIllDefinedError(f"form-ill-defined: Q(kernel, image) != 0 with witness {_vector_witness(kernel.data[bad])}")
    conjugation, *gen_mats, projection = structure_coordinates(
        module, embedding, embedding, "vector escaped the descended subspace", image
    )
    new_module = HLModule(
        space=GradedSpace(max(new_weight, 0), new_vectors, conjugation),
        form=module.form.submatrix(preimages, range(n)) * embedding,
        family=OperatorFamily(module.family.names, tuple(gen_mats)),
        reference=module.reference,
        cone=module.cone,
    )
    _certify_module(new_module, DescentError)
    return DescentResult(new_module, embedding, section, projection), kernel


def quotient_descent(module: HLModule, coeffs, power: int) -> QuotientDescent:
    """:func:`hlmod.descent.quotient_descent`, every generator's class
    coordinates compared with the image module."""
    (c,) = validate_tuple(module, [coeffs])
    if power < 0 or power > module.weight:
        raise PreconditionError("power must lie between 0 and the weight")
    image, kernel = descend(module, [module.operator(c)] * power)
    m_dim = image.module.dim
    reps = image.section
    coords = structure_coordinates(module, hstack(reps, kernel.transpose()), reps, "vector outside representatives + kernel")
    expected = (image.module.space.conjugation,) + image.module.family.matrices
    if any(x.submatrix(range(m_dim), range(m_dim)) != matrix for x, matrix in zip(coords, expected)):
        raise DescentError("class coordinates disagree with the image module")
    return QuotientDescent(image.module, image, Matrix.identity(m_dim))
