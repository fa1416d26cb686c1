import numpy as np
import pytest

from hyperc.geometry import ORIGIN, HPoint, dist, dist_arrays, polar_around_origin
from hyperc.sampling import ModelParams, RngStream, WindowError, sample_lines, sample_points
from hyperc.treecover import (
    MAX_DEPTH,
    MAX_RADIUS,
    _ball_net_polar,
    build_tree,
    check_separation,
    estimate_R_prime,
    reduced_words,
    tree_site_reduction,
)

from line_oracles import dist_to_geodesic, geodesic

R_PRIME = 0.3
TREE = build_tree(1.5, 3)
REACH = max(dist(ORIGIN, v) for v in TREE.vertices.values())


def test_lines_branch_matches_brute_force_distances():
    """A vertex is open iff every line keeps at least r' from it."""
    outcomes = set()
    for seed in range(10):
        sample = sample_lines(0.3, REACH + R_PRIME, RngStream(seed).generator())
        lines = [geodesic(p, phi) for p, phi in zip(sample.foot_dist, sample.foot_dir)]
        expect = {
            w
            for w, v in TREE.vertices.items()
            if all(dist_to_geodesic(v, g)[0] >= R_PRIME for g in lines)
        }
        got = tree_site_reduction(TREE, sample, "lines", R_PRIME)
        assert got == expect, seed
        outcomes.update(w in got for w in TREE.words())
    assert outcomes == {True, False}


def test_vacant_branch_matches_brute_force_distances():
    """A vertex is open iff every point keeps at least R + r' from it."""
    params = ModelParams(0.3, 0.5)
    outcomes = set()
    for seed in range(10):
        sample = sample_points(params, REACH + R_PRIME + params.radius, RngStream(seed).generator())
        points = [HPoint(z.real, z.imag) for z in sample.points]
        expect = {
            w
            for w, v in TREE.vertices.items()
            if all(dist(v, q) >= params.radius + R_PRIME for q in points)
        }
        got = tree_site_reduction(TREE, sample, "vacant", R_PRIME)
        assert got == expect, seed
        outcomes.update(w in got for w in TREE.words())
    assert outcomes == {True, False}


def _occupied_per_vertex(tree, sample, r_prime):
    """Reference for the occupied branch: each vertex's ball net, built
    anew, measured against every point of the window."""
    mesh, R = 0.05, sample.params.radius
    if len(sample) == 0:
        return set()
    t_net, psi_net = _ball_net_polar(r_prime, mesh)
    out = set()
    for w, v in tree.vertices.items():
        net = v.y * polar_around_origin(t_net, psi_net) + v.x
        dmat = dist_arrays(net[:, None], sample.points[None, :])
        if bool((dmat.min(axis=1) <= R - mesh).all()):
            out.add(w)
    return out


@pytest.mark.parametrize("lam", [2.0, 0.5, 0.0])
def test_occupied_branch_matches_the_per_vertex_reference(lam):
    """The nets measured only against the points within R + r' of their
    vertex give the same words; at lambda 0.5 some vertices have no such
    point at all."""
    params = ModelParams(lam, 0.8)
    verts = np.asarray([v.as_complex() for v in TREE.vertices.values()])
    outcomes, lonely = set(), 0
    for seed in range(4):
        sample = sample_points(params, REACH + R_PRIME + params.radius, RngStream(seed).generator())
        got = tree_site_reduction(TREE, sample, "occupied", R_PRIME)
        assert got == _occupied_per_vertex(TREE, sample, R_PRIME), seed
        outcomes.update(w in got for w in TREE.words())
        near = dist_arrays(verts[:, None], sample.points[None, :]) < params.radius + R_PRIME
        lonely += int((~near.any(axis=1)).sum())
    assert outcomes == ({True, False} if lam > 0.0 else {False})
    assert (lonely > 0) == (lam < 2.0)


@pytest.mark.parametrize("model", ["vacant", "occupied", "lines"])
def test_empty_process(model):
    """With no points or lines every vertex ball lies in the vacant set
    and in the complement of the lines, and none in the occupied set."""
    if model == "lines":
        sample = sample_lines(0.0, REACH + R_PRIME, RngStream(1).generator())
    else:
        gen = RngStream(1).generator()
        sample = sample_points(ModelParams(0.0, 0.5), REACH + R_PRIME + 0.5, gen)
    got = tree_site_reduction(TREE, sample, model, R_PRIME)
    assert got == (set() if model == "occupied" else set(TREE.words()))


def test_window_too_small():
    lines = sample_lines(0.3, REACH, RngStream(1).generator())
    with pytest.raises(WindowError):
        tree_site_reduction(TREE, lines, "lines", R_PRIME)
    sample = sample_points(ModelParams(0.3, 0.5), REACH + R_PRIME, RngStream(1).generator())
    with pytest.raises(WindowError):
        tree_site_reduction(TREE, sample, "vacant", R_PRIME)


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
    words = [w for w in tree.words() if w]
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
