import numpy as np
import pytest

from hyperc.geometry import dist_arrays
from hyperc.sampling import RngStream
from hyperc.treecover import (
    MAX_DEPTH,
    MAX_RADIUS,
    build_tree,
    check_separation,
    estimate_R_prime,
    reduced_words,
)


@pytest.mark.parametrize("arc, depth", [(0.3, 8), (0.5, 10), (0.5, 9), (1.0, 10)])
def test_trees_beyond_the_max_radius_are_rejected(arc, depth):
    """Too far out the reflection products turn singular or give wrong
    parent-child distances; such depths are refused by name."""
    with pytest.raises(ValueError, match="MAX_RADIUS"):
        build_tree(arc, depth)


@pytest.mark.parametrize("arc", [0.3, 0.5, 1.0])
def test_parent_child_distances_hold_at_the_largest_accepted_depth(arc):
    edge = build_tree(arc, 1).edge_length()
    depth = min(MAX_DEPTH, int(MAX_RADIUS // edge))
    tree = build_tree(arc, depth)
    words = [w for w in tree.vertices if w]
    child = np.asarray([tree.vertices[w].as_complex() for w in words])
    parent = np.asarray([tree.vertices[w[:-1]].as_complex() for w in words])
    assert np.abs(dist_arrays(child, parent) - edge).max() < 1e-5
    with pytest.raises(ValueError, match="MAX_RADIUS"):
        build_tree(arc, depth + 1)


@pytest.mark.parametrize("arc", [0.5, 1.0, 1.5, 2.0])
def test_first_generator_line_separates_every_reduced_word(arc):
    tree = build_tree(arc, 5)
    words = list(reduced_words(5))
    assert len(words) == 3 * (2**5 - 1)
    assert all(check_separation(tree, w) for w in words)


@pytest.mark.parametrize("arc", [1.0, 1.5])
def test_tube_constant_is_stable_in_the_depth(arc):
    """The limit geodesics are approximated by the deepest vertices, so
    the tube constant must settle as the depth grows."""
    r_prime = [
        estimate_R_prime(build_tree(arc, depth), 64, RngStream(3)).line_to_vertices
        for depth in (5, 6, 8)
    ]
    assert max(r_prime) - min(r_prime) < 0.02
