from hyperc import render
from hyperc.sampling import RngStream, sample_lines

from line_oracles import geodesic


def test_line_arcs_match_the_geodesics_through_their_ideal_ends():
    """Each arc drawn from the polar feet is the element drawn for the
    geodesic through the line's ideal ends, byte for byte."""
    for rho in (1.0, 5.0, 8.0):
        sample = sample_lines(0.5, rho, RngStream(3).generator())
        expect = [
            render._geodesic_element(geodesic(p, phi), "steelblue", 0.004)
            for p, phi in zip(sample.foot_dist, sample.foot_dir)
        ]
        body = render.render_lines(sample).splitlines()[4:-1]
        assert len(body) == len(sample) > 0
        assert body == expect, rho
