import pytest

from hyperc.geometry import ORIGIN, HPoint, dist, dist_to_geodesic
from hyperc.sampling import ModelParams, RngStream, WindowError, sample_lines, sample_points
from hyperc.treecover import build_tree, tree_site_reduction

from line_oracles import geodesic

R_PRIME = 0.3
TREE = build_tree(1.5, 3)
REACH = max(dist(ORIGIN, v) for v in TREE.uhp_vertices.values())


def test_lines_branch_matches_brute_force_distances():
    """A vertex is open iff every line keeps at least r' from it."""
    outcomes = set()
    for seed in range(10):
        sample = sample_lines(0.3, REACH + R_PRIME, RngStream(seed))
        lines = [geodesic(p, phi) for p, phi in zip(sample.foot_dist, sample.foot_dir)]
        expect = {
            w
            for w, v in TREE.uhp_vertices.items()
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
        sample = sample_points(params, ORIGIN, REACH + R_PRIME + params.radius, RngStream(seed))
        points = [HPoint(z.real, z.imag) for z in sample.points]
        expect = {
            w
            for w, v in TREE.uhp_vertices.items()
            if all(dist(v, q) >= params.radius + R_PRIME for q in points)
        }
        got = tree_site_reduction(TREE, sample, "vacant", R_PRIME)
        assert got == expect, seed
        outcomes.update(w in got for w in TREE.words())
    assert outcomes == {True, False}


@pytest.mark.parametrize("model", ["vacant", "occupied", "lines"])
def test_empty_process(model):
    """With no points or lines every vertex ball lies in the vacant set
    and in the complement of the lines, and none in the occupied set."""
    if model == "lines":
        sample = sample_lines(0.0, REACH + R_PRIME, RngStream(1))
    else:
        sample = sample_points(ModelParams(0.0, 0.5), ORIGIN, REACH + R_PRIME + 0.5, RngStream(1))
    got = tree_site_reduction(TREE, sample, model, R_PRIME)
    assert got == (set() if model == "occupied" else set(TREE.words()))


def test_window_too_small():
    with pytest.raises(WindowError):
        tree_site_reduction(TREE, sample_lines(0.3, REACH, RngStream(1)), "lines", R_PRIME)
    sample = sample_points(ModelParams(0.3, 0.5), ORIGIN, REACH + R_PRIME, RngStream(1))
    with pytest.raises(WindowError):
        tree_site_reduction(TREE, sample, "vacant", R_PRIME)
