import os

import pytest
from hypothesis import settings

from kmchev.cartan import realization_from_preset
from kmchev.weyl import WeylGroup

# `suite` keeps tier-1 quick; KMCHEV_HYPOTHESIS_PROFILE=ci draws more examples.
settings.register_profile("suite", deadline=None, max_examples=60)
settings.register_profile("ci", deadline=None, max_examples=400)
settings.load_profile(os.environ.get("KMCHEV_HYPOTHESIS_PROFILE", "suite"))


@pytest.fixture(scope="session")
def WA2():
    return WeylGroup(realization_from_preset("A2"))


@pytest.fixture(scope="session")
def WB2():
    return WeylGroup(realization_from_preset("B2"))


@pytest.fixture(scope="session")
def WG2():
    return WeylGroup(realization_from_preset("G2"))


@pytest.fixture(scope="session")
def WAFF():
    return WeylGroup(realization_from_preset("A2~"))
