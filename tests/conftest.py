import pytest

from truncperm.core import CountProfile, Params, likelihood_ratio
from truncperm.exact import count_partitions, enumerate_profiles


@pytest.fixture(scope="session")
def small_cell_ratios():
    """Every (n, m, q) with n <= 6 whose full profile enumeration has at most
    1000 profiles, each cell with its (parts, transcript count, Fraction
    likelihood ratio) triples: the reference for the integer kernel's sums."""
    cells = []
    for n in range(1, 7):
        for m in range(n):
            for q in range(1, (1 << n) + 1):
                p = Params(n, m, q)
                if count_partitions(q, q, p.num_replies) <= 1000:
                    cells.append((p, [
                        (parts, count, likelihood_ratio(CountProfile(parts), p))
                        for parts, count in enumerate_profiles(p)
                    ]))
    return cells
