import random

import pytest


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
