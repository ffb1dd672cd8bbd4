import pytest

from truncperm.core import Params, likelihood_ratio
from truncperm.exact import count_partitions, enumerate_profiles


@pytest.fixture(scope="session")
def small_cell_ratios():
    """Every (n, m, q) with n <= 6 whose full profile enumeration has at most
    1000 profiles, each cell with its profiles and their Fraction likelihood
    ratios: the reference for the integer kernel's sums."""
    cells = []
    for n in range(1, 7):
        for m in range(n):
            for q in range(1, (1 << n) + 1):
                p = Params(n, m, q)
                if count_partitions(q, q, p.num_replies) <= 1000:
                    cells.append((p, [(pw, likelihood_ratio(pw.profile, p))
                                      for pw in enumerate_profiles(p)]))
    return cells
