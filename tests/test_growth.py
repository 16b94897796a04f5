from collections import deque

import numpy as np
import pytest

from spherization_lab.entropy import fit_exponential_rate
from spherization_lab.errors import BudgetExceededError
from spherization_lab.growth import ball_counts, generators, multiply

A = (2, 1, 1, 1)

# recorded from the standalone breadth-first oracle before the build
ORACLE_BALLS = [1, 7, 33, 103, 273, 663, 1521, 3355, 7277, 15547, 32817,
                68607, 142241]


def oracle_bfs(n_max, with_vertical=True):
    """Independent deque-based BFS with its own group arithmetic."""
    def apow(l):
        m = np.array([[2, 1], [1, 1]], dtype=object)
        if l < 0:
            m = np.array([[1, -1], [-1, 2]], dtype=object)
            l = -l
        out = np.array([[1, 0], [0, 1]], dtype=object)
        for _ in range(l):
            out = out @ m
        return out

    def mul(a, b):
        v = np.array(a[:2], dtype=object) + apow(a[2]) @ np.array(b[:2],
                                                                  dtype=object)
        return (int(v[0]), int(v[1]), a[2] + b[2])

    gens = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
    if with_vertical:
        gens += [(0, 0, 1), (0, 0, -1)]
    seen = {(0, 0, 0)}
    frontier = deque([(0, 0, 0)])
    counts = [1]
    for _ in range(n_max):
        nxt = deque()
        while frontier:
            g = frontier.popleft()
            for s in gens:
                h = mul(g, s)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
        counts.append(len(seen))
    return counts


def test_identity_and_abelian_part():
    e = (0, 0, 0)
    g = (3, -2, 1)
    assert multiply(e, g, A) == g
    assert multiply(g, e, A) == g
    assert multiply((1, 2, 0), (3, 4, 0), A) == (4, 6, 0)


def test_vertical_conjugation_example():
    # the vertical generator twists the plane by the monodromy
    assert multiply((0, 0, 1), (1, 0, 0), A) == (2, 1, 1)


def test_group_laws_random(rng):
    for _ in range(1000):
        g, h, k = (tuple(int(v) for v in rng.integers(-4, 5, size=3))
                   for _ in range(3))
        assert multiply(multiply(g, h, A), k, A) == \
            multiply(g, multiply(h, k, A), A)


def test_overflow_guard():
    with pytest.raises(OverflowError):
        multiply((0, 0, 62), (1, 1, 0), A)


def test_ball_counts_match_recorded_oracle():
    counts = ball_counts(A, 12)
    assert counts == ORACLE_BALLS
    assert counts[0] == 1 and counts[1] == 7


def test_ball_counts_match_independent_bfs():
    assert ball_counts(A, 9) == oracle_bfs(9)
    assert ball_counts(A, 10, include_vertical=False) == \
        oracle_bfs(10, with_vertical=False)


def test_abelian_control_is_quadratic():
    control = ball_counts(A, 20, include_vertical=False)
    expected = [2 * n * n + 2 * n + 1 for n in range(21)]
    assert control == expected


def test_growth_separation():
    counts = ball_counts(A, 12)
    fit = fit_exponential_rate(counts, window=6)
    assert fit.verdict == "exponential" and fit.rate >= 0.3
    control = ball_counts(A, 28, include_vertical=False)
    cfit = fit_exponential_rate(control, window=8)
    assert cfit.verdict == "polynomial" and cfit.rate <= 0.1


def test_budget_caps():
    with pytest.raises(BudgetExceededError):
        ball_counts(A, 17)
    with pytest.raises(BudgetExceededError):
        ball_counts(A, 8, max_elements=100)
    assert len(generators(False)) == 4 and len(generators()) == 6
