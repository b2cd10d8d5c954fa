"""Helpers shared by the test modules."""

import copy

import pytest


def _search_twin(norm):
    """``norm`` under another key and with no ``dual_transform``.

    No closed form applies under the twin: a Wulff body projects through the
    support search, a box through its facets' and edges' feet.
    """
    twin = copy.copy(norm)
    twin.__class__ = type("Twin", (type(norm),), {"kind": f"twin-{norm.kind}"})
    twin.dual_transform = None
    return twin


@pytest.fixture
def search_twin():
    return _search_twin
