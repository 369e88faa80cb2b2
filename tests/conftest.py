import pytest

from dotdiode.device import load_reference_stack, build_mesh


@pytest.fixture(scope="session")
def reference_stack():
    return load_reference_stack()


@pytest.fixture(scope="session")
def reference_mesh(reference_stack):
    return build_mesh(reference_stack)
