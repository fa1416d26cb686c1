import pytest

from hyperc import render
from hyperc.sampling import RngStream, sample_lines
from hyperc.treecover import build_tree

from line_oracles import geodesic
from mobius import disk_angle_from_ideal, generator_lines


def _through_ideal_ends(g, stroke, width):
    """The arc of the geodesic g, drawn from the disk angles of its ideal
    ends in the order of g's ends."""
    return render._arc_path(disk_angle_from_ideal(g.a), disk_angle_from_ideal(g.b), stroke, width)


def test_line_arcs_match_the_geodesics_through_their_ideal_ends():
    """Each arc drawn from the polar feet is the element drawn for the
    geodesic through the line's ideal ends, byte for byte."""
    for rho in (1.0, 5.0, 8.0):
        sample = sample_lines(0.5, rho, RngStream(3).generator())
        expect = [
            _through_ideal_ends(geodesic(p, phi), "steelblue", 0.004)
            for p, phi in zip(sample.foot_dist, sample.foot_dir)
        ]
        body = render.render_lines(sample).splitlines()[4:-1]
        assert len(body) == len(sample) > 0
        assert body == expect, rho


@pytest.mark.parametrize("arc", [0.3, 1.0, 1.2, 2.0])
def test_generator_arcs_match_the_geodesics_through_their_ideal_ends(arc):
    """The tree's generator arcs, drawn from the disk angles of their
    boundary arcs, are the elements drawn for the generator lines through
    their ideal ends, byte for byte."""
    body = render.render_tree(build_tree(arc, 0)).splitlines()[4:7]
    assert body == [_through_ideal_ends(g, "lightsteelblue", 0.003) for g in generator_lines(arc)]


@pytest.mark.parametrize("arc, depth", [(1.0, 7), (1.0, 8), (1.5, 10), (1.5, 14)])
def test_tree_edges_end_on_their_arcs(arc, depth, monkeypatch):
    """Deep trees render, and both ends of each edge lie on the circle
    its arc is drawn on, to within 1e-6 of the chord."""
    arcs = []
    draw = render._arc_segment

    def record(p1, p2, center, radius, *style):
        arcs.append((p1, p2, center, radius))
        return draw(p1, p2, center, radius, *style)

    monkeypatch.setattr(render, "_arc_segment", record)
    tree = build_tree(arc, depth)
    render.render_tree(tree)
    # the generator lines come first; the edges from the root are diameters
    edges = arcs[3:]
    assert len(edges) == len(tree.vertices) - 4
    for p1, p2, c, r in edges:
        assert abs(abs(p1 - c) - r) <= 1e-6 * abs(p2 - p1)
        assert abs(abs(p2 - c) - r) <= 1e-6 * abs(p2 - p1)
