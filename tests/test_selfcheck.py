"""The self-check suites: their random draws against the randint forms,
their sign-call count and the lane count of distinct trees."""

import pytest
from hypothesis import given, settings, strategies as st

from opengw import multidisk, selfcheck

from support import (
    make_rng,
    reference_matrix_tree_weights,
    reference_rand_matrix,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(0, 6),
       st.sampled_from((5, 6)))
def test_draws_match_randint(seed, rows, cols, top):
    """The rationals read off getrandbits are those of randint(-top, top)
    then randint(1, 3) per entry, and leave the same random state, on
    shapes from 0 x 0 to 6 x 6; checked after each of two draws in a
    row, the second of the transposed shape."""
    rng, ref = make_rng(seed), make_rng(seed)
    for shape in ((rows, cols), (cols, rows)):
        if top == 5:
            got = selfcheck.rand_matrix(rng, *shape)
        else:
            got = [selfcheck._rationals(rng, shape[1], top)
                   for _ in range(shape[0])]
        assert got == reference_rand_matrix(ref, *shape, top=top)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("seed", [0, 1, 41])
def test_matrix_tree_weights_match_randint(monkeypatch, seed):
    """matrix_tree_suite draws the weight lists of the randint form, 11
    per vertex count m from 1 to 6, and leaves the same random state."""
    real = multidisk.tree_weight_sum
    seen = []
    monkeypatch.setattr(multidisk, "tree_weight_sum",
                        lambda m, weights: seen.append((m, list(weights)))
                        or real(m, weights))
    rng, ref = make_rng(seed), make_rng(seed)
    assert selfcheck.matrix_tree_suite(rng) == (True,
                                                "66 matrices, 0 failures")
    assert seen == [(m, reference_matrix_tree_weights(ref, m))
                    for m in range(1, 7) for _ in range(11)]
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("seed", [0, 1, 7, 41])
def test_orientation_suite_makes_200_sign_calls(monkeypatch, seed):
    """One fiber_orientation_sign call per instance: the face basis, the
    flipped basis or the iterated basis.  Every sign of a problem's own
    kernel basis is read by kernel_sign, retries included."""
    real = selfcheck.fiber_orientation_sign
    calls = []
    monkeypatch.setattr(selfcheck, "fiber_orientation_sign",
                        lambda prob, cand: calls.append(1)
                        or real(prob, cand))
    assert selfcheck.orientation_suite(make_rng(seed)) \
        == (True, "200 instances, 0 failures")
    assert len(calls) == 200


def _slice_count(packed, width):
    return len({packed[i:i + width] for i in range(0, len(packed), width)})


@pytest.mark.parametrize("m", range(2, 9))
def test_tree_count_lanes_match_the_slice_set(monkeypatch, m):
    """The distinct trees counted in 64-bit lanes are the distinct
    fixed-width slices: m^(m-2) on the true table, and on the table with
    its first row written over the second or repeated at its end, the
    count the suite reports is the slice count of that table."""
    packed, width = multidisk._packed_trees(m), m - 1
    assert _slice_count(packed, width) == m ** (m - 2)
    assert selfcheck.tree_count_suite(m) \
        == (True, "all vertex counts up to %d" % m)
    real = multidisk._packed_trees
    edits = [packed + packed[:width]]
    if m > 2:
        edits.append(packed[:width] * 2 + packed[2 * width:])
    for edited in edits:
        monkeypatch.setattr(multidisk, "_packed_trees",
                            lambda k, table=edited: table if k == m
                            else real(k))
        ok, detail = selfcheck.tree_count_suite(m)
        assert not ok and detail == \
            "vertex count %d: %d trees, %d distinct, expected %d" % (
                m, len(edited) // width, _slice_count(edited, width),
                m ** (m - 2))
