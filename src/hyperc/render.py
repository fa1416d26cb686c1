"""Deterministic SVG scenes of realizations in the Poincare disk.

Lines render from their foot direction and the half-angle their ideal
ends span around it, as circular arcs orthogonal to the boundary circle
(straight chords when diametral): the sampled lines, and the tree's
generator lines on their boundary arcs.  Balls render as the Euclidean
circles they are in the disk model, and tree edges as geodesic arc
segments between the vertices' Cayley images.  Output is byte-stable:
fixed float formatting, no timestamps.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import to_disk
from .sampling import BooleanSample, LineSample
from .treecover import EmbeddedTree

__all__ = ["render_boolean", "render_lines", "render_tree", "write_svg"]

_VIEW = 1.08
_SIZE = 600  # the document's width and height
_DIAMETRAL_TOL = 1e-9


def _fmt(v: float) -> str:
    out = f"{v:.6f}"
    return "0.000000" if out == "-0.000000" else out


def _svg(body: list[str]) -> str:
    """The document: the elements of body over the white view of the disk."""
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="{-_VIEW} {-_VIEW} {2 * _VIEW} {2 * _VIEW}">',
        f'<rect x="{-_VIEW}" y="{-_VIEW}" width="{2 * _VIEW}" height="{2 * _VIEW}" fill="white"/>',
        '<circle cx="0" cy="0" r="1" fill="none" stroke="black" stroke-width="0.006"/>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _line(p1: complex, p2: complex, stroke: str, width: float) -> str:
    return (
        f'<line x1="{_fmt(p1.real)}" y1="{_fmt(p1.imag)}" '
        f'x2="{_fmt(p2.real)}" y2="{_fmt(p2.imag)}" '
        f'stroke="{stroke}" stroke-width="{width}" fill="none"/>'
    )


def _arc_path(theta_a: float, theta_b: float, stroke: str, width: float) -> str:
    """Full geodesic between two boundary angles as one SVG path."""
    p1 = complex(math.cos(theta_a), math.sin(theta_a))
    p2 = complex(math.cos(theta_b), math.sin(theta_b))
    sep = abs(theta_a - theta_b) % (2.0 * math.pi)
    sep = min(sep, 2.0 * math.pi - sep)
    if abs(sep - math.pi) < _DIAMETRAL_TOL:
        return _line(p1, p2, stroke, width)
    delta = sep / 2.0
    signed = math.remainder(theta_b - theta_a, 2.0 * math.pi)
    mu = theta_a + signed / 2.0
    center = complex(math.cos(mu), math.sin(mu)) / math.cos(delta)
    radius = math.tan(delta)
    return _arc_segment(p1, p2, center, radius, stroke, width)


def _arc_segment(p1, p2, center, radius, stroke, width) -> str:
    """A-command arc from p1 to p2 on the circle (center, radius); the
    sweep flag is chosen so the implied center (SVG F.6.5) matches."""
    mid = (p1 + p2) / 2.0
    v = (p1 - p2) / 2.0
    h2 = radius * radius - abs(v) ** 2
    h = math.sqrt(max(h2, 0.0)) / max(abs(v), 1e-300)
    center_sweep1 = mid - 1j * v * h
    sweep = 1 if abs(center_sweep1 - center) <= abs((mid + 1j * v * h) - center) else 0
    return (
        f'<path d="M {_fmt(p1.real)} {_fmt(p1.imag)} '
        f"A {_fmt(radius)} {_fmt(radius)} 0 0 {sweep} "
        f'{_fmt(p2.real)} {_fmt(p2.imag)}" '
        f'stroke="{stroke}" stroke-width="{width}" fill="none"/>'
    )


def _edge_element(w1: complex, w2: complex, stroke="black", width=0.004) -> str:
    """Geodesic segment between two interior disk points: off a diameter,
    an arc of the circle through them orthogonal to the unit circle,
    |c|^2 = r^2 + 1.  Its centre c = m + k n lies on the chord's
    perpendicular bisector (m the midpoint, n the unit normal), so both
    ends lie on it however short the chord: k = (1 - |m|^2 + |w2 - m|^2)
    / (2 m.n), with 1 - |m|^2 as (1 - |m|)(1 + |m|) to keep its digits."""
    d = w1 * w2.conjugate()
    if abs(d.imag) < 1e-12 * max(abs(d), 1e-12):
        # collinear with the center: the geodesic is a diameter
        return _line(w1, w2, stroke, width)
    m, n = (w1 + w2) / 2.0, 1j * (w2 - w1) / abs(w2 - w1)
    k = ((1.0 - abs(m)) * (1.0 + abs(m)) + abs(w2 - m) ** 2) / (2.0 * (m * n.conjugate()).real)
    center = m + k * n
    return _arc_segment(w1, w2, center, abs(center - w1), stroke, width)


def _ball_element(w: complex, R: float, stroke="firebrick", fill="none") -> str:
    """The hyperbolic circle of radius R around disk point w."""
    rho = abs(w)
    d_center = 2.0 * math.atanh(rho)
    t_far = math.tanh((d_center + R) / 2.0)
    t_near = math.tanh((d_center - R) / 2.0)
    r_e = (t_far - t_near) / 2.0
    c_e = (t_far + t_near) / 2.0
    u = w / rho if rho > 0 else complex(1.0, 0.0)
    c = c_e * u
    return (
        f'<circle cx="{_fmt(c.real)}" cy="{_fmt(c.imag)}" r="{_fmt(r_e)}" '
        f'fill="{fill}" stroke="{stroke}" stroke-width="0.003"/>'
    )


def render_boolean(sample: BooleanSample) -> str:
    """Points of the process with their R-balls, each at tanh(t / 2)
    e^{i psi} in the disk centred on (0, 1), from its polar (t, psi)."""
    lines = []
    R = sample.params.radius
    disk = np.tanh(sample.t / 2.0) * np.exp(1j * sample.psi)
    for w in disk:
        lines.append(_ball_element(w, R, fill="#fde0e0"))
    for w in disk:
        lines.append(
            f'<circle cx="{_fmt(w.real)}" cy="{_fmt(w.imag)}" r="0.006" fill="firebrick"/>'
        )
    return _svg(lines)


def _line_element(phi: float, delta: float, stroke: str, width: float) -> str:
    """The line whose ideal ends lie delta either side of the disk angle
    phi, drawn from the smaller of the two end angles in [0, 2 pi)."""
    ends = sorted(((phi - delta) % (2.0 * math.pi), (phi + delta) % (2.0 * math.pi)))
    return _arc_path(*ends, stroke, width)


def render_lines(sample: LineSample) -> str:
    """A line-process realization, arcs orthogonal to the boundary."""
    # the line's ends lie arccos(tanh p) either side of its foot direction
    lines = [_line_element(phi, math.acos(math.tanh(p)), "steelblue", 0.004)
             for p, phi in zip(sample.foot_dist, sample.foot_dir)]
    return _svg(lines)


def render_tree(tree: EmbeddedTree) -> str:
    """The embedded tree: generator lines, edges, and vertex orbit."""
    # L_j spans the boundary arc of the tree's arc length centred at 2 pi j / 3
    lines = [_line_element(2.0 * math.pi * j / 3.0, tree.arc_length / 2.0, "lightsteelblue", 0.003)
             for j in range(3)]
    disk = {w: to_disk(v.as_complex()) for w, v in tree.vertices.items()}
    # the vertices run breadth first, so each edge to a parent is drawn
    # in the order the parents list their children
    for w, z in disk.items():
        if w:
            lines.append(_edge_element(disk[w[:-1]], z))
    for z in disk.values():
        lines.append(
            f'<circle cx="{_fmt(z.real)}" cy="{_fmt(z.imag)}" r="0.008" fill="black"/>'
        )
    return _svg(lines)


def write_svg(content: str, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)
