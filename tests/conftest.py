import pytest

from c2lab.corpus import named_graphs
from c2lab.fields import make_field
from c2lab.graphs import connected_multigraphs


@pytest.fixture(scope="session")
def corpus():
    return named_graphs()


@pytest.fixture(scope="session")
def log_divergent():
    # connected members with N = 2h, the c2 theorems' hypothesis
    return {k: g for k, g in named_graphs().items() if g.is_log_divergent()}


@pytest.fixture(scope="session")
def catalog5():
    return connected_multigraphs(5)


@pytest.fixture(scope="session")
def catalog6():
    return connected_multigraphs(6)


@pytest.fixture(scope="session")
def fields():
    return {q: make_field(q) for q in (2, 3, 4, 5)}
