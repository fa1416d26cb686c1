import math

import numpy as np
import pytest

from hyperc.geometry import ORIGIN, HPoint, dist, dist_arrays
from hyperc.treecover import (
    MAX_DEPTH,
    MAX_RADIUS,
    build_tree,
    check_separation,
    reduced_words,
    _foot_normals,
    tube_constants,
)

from line_oracles import canonical_matrix, dist_to_geodesic, inverse, path_tube_distances
from mobius import Geodesic, generator_lines, reflection_in, tree_vertices


@pytest.mark.parametrize("arc, depth", [(0.3, 8), (0.5, 10), (0.5, 9), (1.0, 10)])
def test_trees_beyond_the_max_radius_are_rejected(arc, depth):
    """Too far out the inversions give wrong parent-child distances (3.5e-3
    off by 37 from the origin); such depths are refused by name."""
    with pytest.raises(ValueError, match="MAX_RADIUS"):
        build_tree(arc, depth)


@pytest.mark.parametrize("depth", [2.0, -1, MAX_DEPTH + 1, math.nan])
def test_tree_needs_a_whole_depth(depth):
    """Depth 2.0 raised TypeError in the word enumeration."""
    with pytest.raises(ValueError, match="depth must be an integer in"):
        build_tree(0.5, depth)
    assert len(build_tree(0.5, np.int64(2)).vertices) == 10


def _deepest_tree(arc):
    """The tree at the largest depth that MAX_RADIUS and MAX_DEPTH accept."""
    edge = build_tree(arc, 0).edge_length()
    return build_tree(arc, min(MAX_DEPTH, int(MAX_RADIUS // edge)))


@pytest.mark.parametrize("arc", [0.3, 0.5, 1.0])
def test_parent_child_distances_hold_at_the_largest_accepted_depth(arc):
    """One inversion per vertex keeps every edge within 1e-6 of its
    length out to MAX_RADIUS (4e-8 at most at these arcs)."""
    tree = _deepest_tree(arc)
    words = [w for w in tree.vertices if w]
    child = np.asarray([tree.vertices[w].as_complex() for w in words])
    parent = np.asarray([tree.vertices[w[:-1]].as_complex() for w in words])
    assert np.abs(dist_arrays(child, parent) - tree.edge_length()).max() < 1e-6
    with pytest.raises(ValueError, match="MAX_RADIUS"):
        build_tree(arc, tree.depth + 1)


# the largest gap is 1.4e-5, at arc 0.3 and depth 5, where the matrix
# products' own edges are 4.6e-6 off their length
MATRIX_TOL = 3e-5


@pytest.mark.parametrize("arc", [0.3, 0.5, 1.0, 1.5, 2.0])
def test_vertices_match_the_matrix_products(arc):
    """Each vertex lies within MATRIX_TOL of the product of reflection matrices
    over its word, applied to (0, 1), out to the largest accepted depth.
    The matrices are built on the ideal ends of the generator lines, not
    on their normals; the products carry most of the gap."""
    tree = _deepest_tree(arc)
    oracle = tree_vertices(arc, tree.depth)
    assert list(oracle) == list(tree.vertices)
    got = np.asarray([v.as_complex() for v in tree.vertices.values()])
    assert dist_arrays(got, np.asarray(list(oracle.values()))).max() < MATRIX_TOL


@pytest.mark.parametrize("arc", [0.5, 1.0, 1.5, 2.0])
def test_first_generator_line_separates_every_reduced_word(arc):
    tree = build_tree(arc, 5)
    words = list(reduced_words(5))
    assert len(words) == 3 * (2**5 - 1)
    assert all(check_separation(tree, w) for w in words)


PATH_DEPTH = 5
PATH_STEP = 0.01


@pytest.mark.parametrize("arc", [0.5, 1.0, 1.5])
def test_enumerated_paths_stay_within_the_closed_forms(arc):
    """Every reduced path through the origin with both halves of length
    PATH_DEPTH stays within the closed-form tube constants, up to the
    oracle's step PATH_STEP along the limit geodesic, and the worst path
    comes within 3e-3 of them: the limit points are those of the
    truncated paths, which fall 2.0e-3 short at arc 1.5."""
    tree = build_tree(arc, PATH_DEPTH)
    words = [w for w in reduced_words(PATH_DEPTH) if len(w) == PATH_DEPTH]
    worst = np.max([
        path_tube_distances(tree, left, right, PATH_STEP)
        for left in words for right in words if right[0] > left[0]
    ], axis=0)
    closed = np.asarray(tube_constants(arc))
    assert np.all(worst <= closed + PATH_STEP)
    assert np.all(worst > closed - 3e-3)


@pytest.mark.parametrize("arc", [0.5, 1.0, 1.5, 2.0])
def test_periodic_path_attains_the_closed_forms(arc):
    """The path ...0101... runs along the axis of r_0 r_1, the geodesic
    through the two fixed points of that hyperbolic Mobius map.  Its
    vertices o and r_0 o lie at vertex_to_line from the axis, and the
    point where L_0 crosses the axis lies at r_prime from both."""
    tree = build_tree(arc, 1)
    lines = generator_lines(arc)
    m = reflection_in(lines[0]) @ reflection_in(lines[1])
    # fixed points of z -> (a z + b) / (c z + d): c z^2 + (d - a) z - b = 0
    disc = math.sqrt((m.d - m.a) ** 2 + 4.0 * m.b * m.c)
    axis = Geodesic((m.a - m.d - disc) / (2.0 * m.c), (m.a - m.d + disc) / (2.0 * m.c))
    delta, r_prime = tube_constants(arc)
    vertices = [ORIGIN, tree.vertices[(0,)]]
    for v in vertices:
        assert dist_to_geodesic(v, axis)[0] == pytest.approx(delta, abs=1e-9)
    # in the frame where the axis is the imaginary axis, the semicircle
    # of L_0 on the ends a < 0 < b crosses it at height sqrt(-a b)
    frame = canonical_matrix(axis)
    a, b = sorted(inverse(frame).apply_array(complex(x, 0.0)).real
                  for x in (lines[0].a, lines[0].b))
    assert a < 0.0 < b
    crossing = frame.apply(HPoint(0.0, math.sqrt(-a * b)))
    for v in vertices:
        assert dist(crossing, v) == pytest.approx(r_prime, abs=1e-9)


@pytest.mark.parametrize("arc", [1e-4, 3e-4, 1e-3, 1e-2, 0.1, 1.0, 2.0])
def test_generator_feet_keep_their_precision_at_small_arcs(arc):
    """L_0's unit normal (0, cosh p, sinh p), p = -log tan(arc/4), holds
    to 1e-15 relative against 50-digit arithmetic (3.4e-16 at most here),
    and p to 1e-12 against the distance from (0, 1) to L_0 built by the
    matrix oracle from the arc's ideal ends (1.2e-13 at arc 1e-4).  The
    form artanh cos(arc/2) is 2.1e-11 off at arc 1e-3, 2.8e-10 at 1e-4."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        p = -mpmath.log(mpmath.tan(mpmath.mpf(arc) / 4))
        exact = np.asarray([0.0, float(mpmath.cosh(p)), float(mpmath.sinh(p))])
    n0 = _foot_normals(arc)[0]
    assert np.all(np.abs(n0 - exact) <= 1e-15 * np.abs(exact))
    matrix_p = dist_to_geodesic(ORIGIN, generator_lines(arc)[0])[0]
    assert abs(math.asinh(n0[2]) - matrix_p) <= 1e-12 * matrix_p
