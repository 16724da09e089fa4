import os

import numpy as np
import pytest
from hypothesis import settings

from cltlab import FieldSpec, IidNormal, basis_matrix, uniform_grid
from cltlab.discretize import lp_norms
from cltlab.montecarlo import norm_form, project

# Tests that set no max_examples of their own (the row/block properties) take
# it from the profile named by CLTLAB_HYPOTHESIS_PROFILE: "tier1" by default,
# "rows" for the long run of those properties.
settings.register_profile("tier1", max_examples=40, deadline=None)
settings.register_profile("rows", max_examples=2000, deadline=None)
settings.load_profile(os.environ.get("CLTLAB_HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def grid16():
    return uniform_grid(16)


@pytest.fixture
def const_normal_field(grid16):
    """phi = 1, one iid standard normal driver component: S_n ~ N(0,1) exactly."""
    return FieldSpec(basis=basis_matrix("const", 1, grid16), driver=IidNormal(sigma=1.0, k=1))


def assert_rel(actual, expected, rel, msg=""):
    denom = max(abs(expected), 1e-300)
    assert abs(actual - expected) / denom < rel, (
        msg or f"{actual!r} vs {expected!r} beyond relative {rel}"
    )


def one_row_norm(rows, p, grid):
    """norm(coords): ||S||_p of one replication from its (1 x K) coordinates on rows, as the engine
    reduces it: through the rows' NormForm where form_pays picks it, else projected and reduced on the grid."""
    form = norm_form(rows, p, grid)
    if form is None:
        return lambda coords: lp_norms(project(coords, rows), p, grid)[0]
    return lambda coords: (form(coords) ** (1.0 / p))[0]
