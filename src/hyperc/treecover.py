"""The 3-regular tree embedded in the hyperbolic plane by reflections.

Three disjoint geodesics are spanned by three equal arcs on the ideal
boundary, rotated by 120 degrees; the group generated by the three
reflections acts simply transitively on the orbit of the disk center,
and reduced words over {0, 1, 2} index the orbit points, which form a
3-regular tree.  The geodesic joining the two ideal limits of a
bi-infinite tree path stays near the path's vertices; the module gives
the two tube constants of that statement in closed form, from the
generator lines alone, with no vertex, depth or sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Geodesic,
    HPoint,
    Isometry,
    ORIGIN,
    dist,
    geodesic_normal,
    ideal_from_disk_angle,
    line_normal,
    minkowski,
    reflection_in,
)

__all__ = [
    "Word",
    "is_reduced",
    "reduced_words",
    "EmbeddedTree",
    "build_tree",
    "check_separation",
    "tube_constants",
]

Word = tuple[int, ...]

MAX_DEPTH = 14
# reflection products lose precision: parent-child error 5e-6 at 27, 0.15 at 37
MAX_RADIUS = 27.0


def is_reduced(word: Word) -> bool:
    return all(a != b for a, b in zip(word, word[1:])) and all(w in (0, 1, 2) for w in word)


def reduced_words(depth: int):
    """All reduced words of length 1..depth, breadth first."""
    frontier: list[Word] = [()]
    for _ in range(depth):
        nxt = []
        for w in frontier:
            for letter in (0, 1, 2):
                if not w or w[-1] != letter:
                    nxt.append(w + (letter,))
        yield from nxt
        frontier = nxt


@dataclass(frozen=True)
class EmbeddedTree:
    """Vertices of the reflection orbit up to a word-length cutoff."""

    arc_length: float
    depth: int
    vertices: dict[Word, HPoint] = field(repr=False)
    generator_lines: list[Geodesic]

    def edge_length(self) -> float:
        return dist(ORIGIN, reflection_in(self.generator_lines[0]).apply(ORIGIN))


def build_tree(arc_length: float, depth: int) -> EmbeddedTree:
    """Compose reflections over reduced words of length <= depth.

    The boundary arc A_j is centered at angle 2 pi j / 3 with the given
    arc length; the generator geodesic L_j joins the endpoints of A_j.
    The deepest vertices lie depth edge lengths from the origin, which
    may not exceed MAX_RADIUS.
    """
    if not 0.0 < arc_length < 2.0 * math.pi / 3.0:
        raise ValueError("arc length must lie in (0, 2 pi / 3)")
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in [0, {MAX_DEPTH}]")
    lines = []
    refls = []
    for j in range(3):
        center = 2.0 * math.pi * j / 3.0
        g = Geodesic(
            ideal_from_disk_angle(center - arc_length / 2.0),
            ideal_from_disk_angle(center + arc_length / 2.0),
        )
        lines.append(g)
        refls.append(reflection_in(g))
    edge = dist(ORIGIN, refls[0].apply(ORIGIN))
    if depth * edge > MAX_RADIUS:
        raise ValueError(f"depth {depth} at arc length {arc_length} reaches {depth * edge:.4g} "
                         f"from the origin, beyond MAX_RADIUS = {MAX_RADIUS:g}")

    vertices: dict[Word, HPoint] = {(): ORIGIN}
    mats: dict[Word, Isometry] = {(): Isometry.identity()}
    for w in reduced_words(depth):
        mats[w] = mats[w[:-1]] @ refls[w[-1]]
        vertices[w] = mats[w].apply(ORIGIN)
    return EmbeddedTree(arc_length, depth, vertices, lines)


def check_separation(tree: EmbeddedTree, word: Word) -> bool:
    """True iff the generator line of the word's first letter separates
    the origin from the word's orbit point."""
    if not word:
        raise ValueError("the empty word has no separating line")
    if not is_reduced(word):
        raise ValueError(f"word {word} is not reduced")
    if word not in tree.vertices:
        raise ValueError(f"word {word} is beyond the tree depth")
    line = tree.generator_lines[word[0]]
    return line.side(ORIGIN) * line.side(tree.vertices[word]) < 0.0


def tube_constants(arc_length: float) -> tuple[float, float]:
    """The tube constants (vertex_to_line, r_prime) in closed form: the
    largest distance from a bi-infinite tree path's vertices to its limit
    geodesic, and from that geodesic to the path's vertices.

    L_j has foot distance p = artanh cos(arc/2) in the direction
    2 pi j / 3, and cosh d(L_0, L_1) = -<n_0, n_1> on their unit normals.
    The path ...0101... runs along the axis of r_0 r_1, their common
    perpendicular with normal m, and its vertices lie delta = arcsinh |m_2|
    from it.  L_0 crosses the axis d/2 from the foot of o, so its nearest
    vertices o and r_0 o lie arccosh(cosh delta cosh(d/2)) from it.  The
    tests check both as suprema over every reduced path to a fixed depth.
    """
    if not 0.0 < arc_length < 2.0 * math.pi / 3.0:
        raise ValueError("arc length must lie in (0, 2 pi / 3)")
    p = math.atanh(math.cos(arc_length / 2.0))
    n0, n1 = line_normal(np.full(2, p), np.asarray([0.0, 2.0 * math.pi / 3.0]))
    d = math.acosh(-float(minkowski(n0, n1)))
    delta = math.asinh(abs(float(geodesic_normal(n0, n1)[2])))
    return delta, math.acosh(math.cosh(delta) * math.cosh(d / 2.0))
