import numpy as np
import pytest

from pinset.rng import RngState


def test_identical_seed_identical_stream():
    a = RngState(123).generator().random(16)
    b = RngState(123).generator().random(16)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    a = RngState(1).generator().random(8)
    b = RngState(2).generator().random(8)
    assert not np.array_equal(a, b)


def test_children_are_independent_and_deterministic():
    root = RngState(7)
    a1 = root.child("model").generator().random(8)
    a2 = root.child("model").generator().random(8)
    b = root.child("train").generator().random(8)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_string_and_int_tags_are_stable():
    x = RngState(5).child("shuffle", 3).generator().random(4)
    y = RngState(5).child("shuffle", 3).generator().random(4)
    np.testing.assert_array_equal(x, y)


def test_known_stream_values_pinned():
    # guards against silent algorithm changes; the stream identity is part
    # of the reproducibility contract
    got = RngState(0).generator().random(3)
    expected = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=0, spawn_key=()))
    ).random(3)
    np.testing.assert_array_equal(got, expected)


def test_seed_bounds():
    with pytest.raises(ValueError):
        RngState(-1)
    with pytest.raises(ValueError):
        RngState(2**64)


def test_bad_tag_types_rejected():
    with pytest.raises(TypeError):
        RngState(0).child(3.5)
    with pytest.raises(ValueError):
        RngState(0).child(-2)
