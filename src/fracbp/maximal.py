"""Maximal biclique enumeration and Kronecker lifting.

The pricing step only ever needs inclusion-maximal bicliques: every
biclique extends to a maximal one, and the positive-column closure used
there maximizes over sub-bicliques implicitly.  For Kronecker powers the
maximal bicliques of the power are exactly the products of maximal
bicliques of the factors, so they are lifted instead of re-enumerated.
"""

from .core import (
    Biclique,
    BinaryMatrix,
    kronecker_biclique,
    maximal_biclique_masks,
)
from .errors import EmptyGraphError


def enumerate_maximal(a: BinaryMatrix) -> list[Biclique]:
    """All inclusion-maximal bicliques of `a`, canonically sorted.

    Every edge of `a` is covered by at least one returned biclique.
    Raises EmptyGraphError when the matrix has no ones.
    """
    if a.num_edges == 0:
        raise EmptyGraphError("matrix has no ones")
    return [Biclique(r, c) for r, c in maximal_biclique_masks(a)]


def lift_maximal_kronecker(
    base_maximals: list[Biclique], k: int, base_shape: tuple[int, int],
    below: list[Biclique] | None = None,
) -> list[Biclique]:
    """Maximal bicliques of the k-th Kronecker power of the base matrix.

    Association matches `kronecker_power`: level k is built as
    (level k-1) x base, so bitsets line up with the power's indexing.

    Args:
        base_maximals: maximal bicliques of the base matrix.
        k: power, at least 1.
        base_shape: (num_rows, num_cols) of the base matrix.
        below: the maximal bicliques of the (k-1)-th power, when they
            are already at hand; level k is then one product step from
            them instead of k-1 steps from the base.  Needs k >= 2.

    Returns:
        Canonically sorted list of the t^k product bicliques, for a base
        with t maximal bicliques.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if below is None:
        level, steps = list(base_maximals), k - 1
    elif k < 2:
        raise ValueError("lifting from the level below needs k >= 2")
    else:
        level, steps = list(below), 1
    for _ in range(steps):
        level = [
            kronecker_biclique(prev, b, base_shape)
            for prev in level
            for b in base_maximals
        ]
    # Deduped and sorted on int keys, which is Biclique's own order.
    unique = {(b.row_set, b.col_set): b for b in level}
    return [unique[key] for key in sorted(unique)]
