import pytest

from boolnorm import BaseCostTable, TriangularBasis, table_norm


@pytest.fixture
def norm_a():
    """Rank-2 closed table: N({1})=1, N({2})=3, N({1,2})=2."""
    return table_norm(BaseCostTable(2, (0.0, 1.0, 3.0, 2.0)))


@pytest.fixture
def norm_a_basis():
    """The reduced basis under norm_a: rows {1}, {1,2}."""
    return TriangularBasis((0b01, 0b11))


@pytest.fixture
def bad_oracle():
    """A valid norm table (4, 5, 2) whose identity basis is unreduced."""
    return table_norm(BaseCostTable(2, (0.0, 4.0, 5.0, 2.0)))


@pytest.fixture
def bad_basis():
    """Identity basis {1}, {2}: unreduced under bad_oracle."""
    return TriangularBasis((0b01, 0b10))


@pytest.fixture
def slack_dist():
    """A rank-4 metric that MetricSpec admits, with each of the triangles
    along the path 1-2-3-4 loose by 0.9e-9 relative.  N({1,4}) spends that
    slack twice, so at tol 1e-9 the gate fails at g={2,3}, h={1,2,3,4}."""
    a, eps = 0.001, 0.9e-9
    d = [[0.0 if i == j else 10.0 for j in range(5)] for i in range(5)]
    for i, j, x in (
        (1, 2, a),
        (3, 4, a),
        (2, 3, 1 - 2 * a),
        (1, 3, (a + (1 - 2 * a)) * (1 + eps)),
    ):
        d[i][j] = d[j][i] = x
    d[2][4] = d[4][2] = (d[2][3] + d[3][4]) * (1 + eps)
    d[1][4] = d[4][1] = (d[1][3] + d[3][4]) * (1 + eps)
    return d
