"""Labels outside the class range and numeric options that are bools,
negative or NaN raise ContractViolation at the boundary, and the
`bilinear-partition` check watches the deformable layer's own reads."""

import math
import numbers

import numpy as np
import pytest

from attnlab import conv, errors
from attnlab.attention import offset_map, offset_map_1d, offset_map_2d
from attnlab.checks import run_checks
from attnlab.errors import ContractViolation, ShapeMismatch
from attnlab.models import cross_entropy
from attnlab.relpos import encode, encode_1d, encode_2d
from attnlab.tasks import make_windowed_denoise_task
from attnlab.tensor import Tensor

LOGITS = [[0.0, 1.0, 2.0], [5.0, 6.0, 7.0]]


@pytest.mark.parametrize("labels, bad", [([3, 0], 3), ([0, -1], -1), ([0, 3], 3),
                                         ([-1, 0], -1), ([7, 9], 7)])
def test_cross_entropy_rejects_a_label_outside_the_classes(labels, bad):
    with pytest.raises(ContractViolation, match=rf"label {bad} .* 3 classes"):
        cross_entropy(Tensor(LOGITS), labels)


def test_cross_entropy_scores_in_range_labels():
    loss = cross_entropy(Tensor(LOGITS), [2, 0])
    want = np.mean([math.log(sum(math.exp(v - row[i]) for v in row))
                    for row, i in zip(LOGITS, (2, 0))])
    assert loss.item() == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("labels", [[1.7, 0.2], [1.0, 0.0], [True, False], ["1", "0"]],
                         ids=["fractional", "integral-floats", "bool", "str"])
def test_cross_entropy_rejects_labels_that_are_not_integers(labels):
    with pytest.raises(ContractViolation, match="labels must be integers"):
        cross_entropy(Tensor(LOGITS), labels)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint8, np.uint64])
def test_cross_entropy_takes_any_integer_dtype(dtype):
    want = cross_entropy(Tensor(LOGITS), [2, 0]).item()
    assert cross_entropy(Tensor(LOGITS), np.array([2, 0], dtype=dtype)).item() == want


@pytest.mark.parametrize("logits, shape", [([0.0, 1.0, 2.0], r"\(3,\)"),
                                           ([[[0.0, 1.0, 2.0]]], r"\(1, 1, 3\)")],
                         ids=["1-d", "3-d"])
def test_cross_entropy_names_logits_that_are_not_2d(logits, shape):
    with pytest.raises(ShapeMismatch, match=rf"logits must be \(n, classes\).*{shape}"):
        cross_entropy(Tensor(logits), [0])


@pytest.mark.parametrize("value, low, kind, ok", [
    (0, 0, numbers.Real, True),
    (2.5, 0, numbers.Real, True),
    (np.int64(3), 1, numbers.Integral, True),
    (True, 0, numbers.Real, False),
    (False, 0, numbers.Integral, False),
    (-1, 0, numbers.Real, False),
    (math.nan, 0, numbers.Real, False),
    (math.inf, 0, numbers.Real, False),
    (1.5, 0, numbers.Integral, False),
    ("3", 0, numbers.Real, False),
])
def test_at_least(value, low, kind, ok):
    assert errors.at_least(value, low, kind) == ok


@pytest.mark.parametrize("clip", [True, False, -1, -0.5, math.nan, math.inf, "2"])
def test_encode_rejects_a_clip_that_is_not_a_finite_magnitude(clip):
    with pytest.raises(ContractViolation, match="clip"):
        encode(np.arange(-3, 4)[:, None], 8, clip=clip)
    with pytest.raises(ContractViolation, match="clip"):
        encode_1d(np.arange(-3, 4), 8, clip=clip)
    with pytest.raises(ContractViolation, match="clip"):
        encode_2d(np.zeros((2, 2)), 8, clip=clip)


@pytest.mark.parametrize("build", [
    lambda clip: offset_map(3, 3, enc_dim=8, clip=clip),
    lambda clip: offset_map_1d(3, 3, enc_dim=8, clip=clip),
    lambda clip: offset_map_2d(3, 3, enc_dim=8, clip=clip),
])
def test_offset_maps_reject_a_negative_clip(build):
    with pytest.raises(ContractViolation, match="clip"):
        build(-1)


def test_a_zero_clip_encodes_every_offset_as_zero():
    np.testing.assert_array_equal(encode_1d(np.arange(-3, 4), 8, clip=0),
                                  np.tile(encode_1d(0, 8), (7, 1)))
    np.testing.assert_array_equal(encode_1d(np.arange(-3, 4), 8, clip=np.int64(1)),
                                  encode_1d(np.clip(np.arange(-3, 4), -1, 1), 8))


@pytest.mark.parametrize("flip", [True, False, math.nan, -0.1, 1.5, "0.2"])
def test_denoise_rejects_a_flip_that_is_not_a_probability(flip):
    with pytest.raises(ContractViolation, match="flip"):
        make_windowed_denoise_task(0, flip=flip, eval_size=4)


@pytest.mark.parametrize("flip", [0, 1, 0.3, np.float64(0.3)])
def test_denoise_takes_a_numeric_probability(flip):
    assert make_windowed_denoise_task(0, flip=flip, eval_size=4).flip == flip


def test_bilinear_partition_check_reads_through_the_deformable_layer(monkeypatch):
    real = conv._interpolate
    monkeypatch.setattr(conv, "_interpolate", lambda *args: real(*args) * 0.99)
    [(name, error)] = run_checks(["bilinear-partition"])
    assert name == "bilinear-partition" and error is not None
