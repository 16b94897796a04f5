"""Word growth of the sol lattice and its abelian control.

Elements of the semidirect product are integer triples (m, n, l) with

    (v, l) * (v', l') = (v + A^l v', l + l'),

descended from the sol group law; exact integer arithmetic throughout.
This is the deck group law of the sol quotient, whose element (m, n, l)
acts on the cover by ``ModelManifold.deck_apply``.
Ball counts come from breadth-first search over the standard six-element
generating set {(+-e1, 0), (+-e2, 0), ((0,0), +-1)}; the abelian control
drops the vertical generators and freezes l = 0.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceededError

Element = tuple[int, int, int]

IDENTITY: Element = (0, 0, 0)

_INT64_GUARD = 2 ** 62


def int_mat_pow(a: tuple[int, int, int, int], l: int) -> tuple[int, int, int, int]:
    """Exact power of a determinant-1 integer 2x2 matrix (row-major tuple)."""
    if l < 0:
        p, q, r, s = a
        return int_mat_pow((s, -q, -r, p), -l)
    out = (1, 0, 0, 1)
    for _ in range(l):
        p, q, r, s = out
        a11, a12, a21, a22 = a
        out = (p * a11 + q * a21, p * a12 + q * a22,
               r * a11 + s * a21, r * a12 + s * a22)
    return out


def int_mat_vec(m: tuple[int, int, int, int], v: tuple[int, int]) -> tuple[int, int]:
    return (m[0] * v[0] + m[1] * v[1], m[2] * v[0] + m[3] * v[1])


def _matrix(monodromy) -> tuple[int, int, int, int]:
    return tuple(int(v) for v in np.asarray(monodromy).ravel())


def _product(a: Element, b: Element, al) -> Element:
    """a * b given al = A^(a's l); exact, with an int64-range guard."""
    w = int_mat_vec(al, (b[0], b[1]))
    out = (a[0] + w[0], a[1] + w[1], a[2] + b[2])
    if max(abs(out[0]), abs(out[1])) >= _INT64_GUARD:
        raise OverflowError("group element left the guarded integer range")
    return out


def multiply(a: Element, b: Element, monodromy) -> Element:
    """Group product; exact, with an int64-range guard on the result."""
    return _product(a, b, int_mat_pow(_matrix(monodromy), a[2]))


def generators(include_vertical: bool = True) -> list[Element]:
    gens = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
    if include_vertical:
        gens += [(0, 0, 1), (0, 0, -1)]
    return gens


def ball_counts(monodromy, n_max: int, *, include_vertical: bool = True,
                max_elements: int = 20_000_000) -> list[int]:
    """b_0..b_{n_max}: number of distinct elements of word length <= n.

    Breadth-first frontier expansion with exact set membership; the counts
    are independent of exploration order.  ``include_vertical=False`` gives
    the abelian plane control.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    # the exponential ball sizes make n > 16 a memory hazard; the abelian
    # control grows quadratically and may run longer
    cap = 16 if include_vertical else 64
    if n_max > cap:
        raise BudgetExceededError(f"ball counts are budgeted up to n_max = {cap}")
    a = _matrix(monodromy)
    # A^l of every layer a frontier element can reach before its last step
    powers = {l: int_mat_pow(a, l) for l in range(-n_max, n_max + 1)}
    gens = generators(include_vertical)
    seen = {IDENTITY}
    frontier = [IDENTITY]
    counts = [1]
    for _ in range(n_max):
        new_frontier = []
        for g in frontier:
            al = powers[g[2]]
            for s in gens:
                h = _product(g, s, al)
                if h not in seen:
                    seen.add(h)
                    new_frontier.append(h)
        if len(seen) > max_elements:
            raise BudgetExceededError(
                f"word ball exceeds the {max_elements}-element budget")
        frontier = new_frontier
        counts.append(len(seen))
    return counts
