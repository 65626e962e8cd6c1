import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from trialg.fields import QQ
from trialg.generators import abelian, cover_abelian, dim2_single_product, unital_dim1

from oracles import random_valid_algebra


@pytest.fixture
def dim2():
    return dim2_single_product()


@pytest.fixture
def unital():
    return unital_dim1()


@pytest.fixture
def example_cover_1():
    """Dimension 4 cover of the 1-dimensional abelian algebra."""
    return cover_abelian(1)


@pytest.fixture
def small_corpus():
    """Mixed validated algebras used by the property sweeps."""
    return [
        abelian(1),
        abelian(2),
        abelian(3),
        dim2_single_product(),
        unital_dim1(),
        cover_abelian(1),
    ]


@pytest.fixture
def random_corpus():
    rng = random.Random(20240)
    return [random_valid_algebra(rng, QQ, max_dim=5) for _ in range(12)]
