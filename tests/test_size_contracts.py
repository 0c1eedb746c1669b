"""Rank and size arguments of the conv geometry and the count formulas."""

import pytest

from attnlab.conv import ConvParams
from attnlab.errors import ContractViolation
from attnlab.flops import (
    count_attention,
    count_deformable,
    count_dynamic,
    count_regular,
    count_term,
)
from attnlab.tensor import Rng


@pytest.mark.parametrize("ndim", [True, False, 0, 3, 1.0, "2"])
@pytest.mark.parametrize("build", [
    lambda ndim: ConvParams(4, 4, 3, ndim=ndim, rng=Rng(0)),
    lambda ndim: count_deformable(4, 3, 4, ndim=ndim),
], ids=["conv_points", "count_deformable"])
def test_ndim_other_than_int_1_or_2_is_rejected(build, ndim):
    with pytest.raises(ContractViolation, match="ndim"):
        build(ndim)


@pytest.mark.parametrize("count, args, kwargs", [
    (count_regular, (-3, 9, 16), {}),
    (count_regular, (3, 9, 16), {"c_out": 0}),
    (count_regular, (2.5, 9, 16), {}),
    (count_term, ("query_key", -4, 8, 2), {}),
    (count_term, ("pos_only", 4, 8, 2), {"enc_dim": -8}),
    (count_attention, ((True,) * 4, 4, 0, 8, 2), {}),
    (count_attention, ((True,) * 4, 4, 4, 8, 2), {"n_offsets": 0}),
    (count_deformable, (0, 9, 4), {}),
    (count_deformable, (4, 9, 4), {"c_out": -4, "ndim": 1}),
    (count_dynamic, (-2, 3, 8, 4), {}),
    (count_dynamic, (2, 3, 8, 4), {"c_out": -1}),
])
def test_count_formulas_reject_non_positive_sizes(count, args, kwargs):
    with pytest.raises(ContractViolation, match="positive ints"):
        count(*args, **kwargs)
