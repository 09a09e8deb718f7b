import pytest

from boolnorm import BaseCostTable, MetricSpec, TriangularBasis, norms, table_norm


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


@pytest.fixture
def slack_wedge(slack_dist):
    """slack_wedge(units): slack_dist's points 1..4 as generators units +
    1..units + 4, wedged at the basepoint below units points at distance 1
    from it and 2 from each other, so a distance across the two parts runs
    through the basepoint."""

    def wedge(units):
        def point(p):
            return p + units if p else 0

        m = units + 5
        dist = [[0.0] * m for _ in range(m)]
        for i in range(1, units + 1):
            for j in range(1, units + 1):
                dist[i][j] = 2.0 if i != j else 0.0
            dist[0][i] = dist[i][0] = 1.0
            for p in range(1, 5):
                dist[i][point(p)] = dist[point(p)][i] = 1.0 + slack_dist[0][p]
        for p in range(5):
            for q in range(5):
                dist[point(p)][point(q)] = slack_dist[p][q]
        return MetricSpec(dist)

    return wedge


@pytest.fixture
def table_builds(monkeypatch):
    """The rank of every spec table built while the test runs."""
    builds, real = [], norms._spec_tables
    monkeypatch.setattr(norms, "_spec_tables", lambda specs, m: builds.append(m) or real(specs, m))
    return builds
