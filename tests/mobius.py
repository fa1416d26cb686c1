"""Real Mobius matrices on the upper half-plane and its ideal boundary:
the reference from which the tests build the frames of lines, moved
segments and the reflection tree, apart from the package, which works
with hyperboloid normals and circle inversions.  A geodesic is stored
by its unordered pair of ideal ends (the boundary is R together with
the single point INF at infinity) and an isometry as a real matrix."""

import math
from dataclasses import dataclass

import numpy as np

from hyperc.geometry import HPoint, ORIGIN
from hyperc.treecover import reduced_words

INF = math.inf


@dataclass(frozen=True)
class Geodesic:
    """An unoriented line given by its two ideal ends, finite reals or
    INF, normalized so that {a, b} compares equal in either order:
    finite pairs are sorted, and INF always sits in the second slot."""

    a: float
    b: float

    def __post_init__(self):
        a, b = self.a, self.b
        if a == b or not all(x == INF or math.isfinite(x) for x in (a, b)):
            raise ValueError(f"a geodesic needs two distinct ideal ends, finite or INF: {a}, {b}")
        if a == INF or (b != INF and b < a):
            a, b = b, a
        object.__setattr__(self, "a", float(a))
        object.__setattr__(self, "b", float(b))

    @property
    def vertical(self) -> bool:
        return self.b == INF


@dataclass(frozen=True)
class Isometry:
    """An isometry as a real Mobius matrix [[a, b], [c, d]].

    Positive determinant acts as z -> (az+b)/(cz+d); negative
    determinant acts on the conjugate, z -> (a zbar + b)/(c zbar + d),
    covering reflections.  Composition is matrix multiplication either
    way because the coefficients are real.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if self.a * self.d - self.b * self.c == 0:
            raise ValueError("Mobius coefficients must have nonzero determinant")

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    @staticmethod
    def identity() -> "Isometry":
        return Isometry(1.0, 0.0, 0.0, 1.0)

    def __matmul__(self, other: "Isometry") -> "Isometry":
        return Isometry(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def apply(self, p: HPoint) -> HPoint:
        w = self.apply_array(p.as_complex())
        return HPoint(float(w.real), float(w.imag))

    def apply_array(self, z):
        """The action on complex UHP coordinates, scalar or array; a Python
        complex stays on CPython arithmetic (``z.conjugate()``, not
        ``np.conjugate``)."""
        if self.det < 0:
            z = z.conjugate()
        w = (self.a * z + self.b) / (self.c * z + self.d)
        return w.real + 1j * np.abs(w.imag)


def reflection_in(g: Geodesic) -> Isometry:
    """The reflection across g as a negative-determinant Isometry."""
    if g.vertical:
        return Isometry(-1.0, 2.0 * g.a, 0.0, 1.0)
    c = 0.5 * (g.a + g.b)
    r = 0.5 * (g.b - g.a)
    # circle inversion z -> c + r^2/(zbar - c)
    return Isometry(c, r * r - c * c, 1.0, -c)


def ideal_from_disk_angle(theta: float) -> float:
    """Boundary circle point e^{i theta} mapped to the UHP ideal boundary."""
    t = math.tan(0.5 * (theta % (2.0 * math.pi)))
    if t == 0.0:
        return INF
    return -1.0 / t


def disk_angle_from_ideal(x: float) -> float:
    """Inverse boundary map; returns an angle in [0, 2 pi)."""
    if x == INF:
        return 0.0
    return (2.0 * math.atan2(-1.0, x)) % (2.0 * math.pi)


def generator_lines(arc_length: float) -> list[Geodesic]:
    """L_0, L_1, L_2 of the reflection tree: the geodesics over the
    boundary arcs of the given length centred at the disk angles
    2 pi j / 3."""
    return [
        Geodesic(ideal_from_disk_angle(2.0 * math.pi * j / 3.0 - arc_length / 2.0),
                 ideal_from_disk_angle(2.0 * math.pi * j / 3.0 + arc_length / 2.0))
        for j in range(3)
    ]


def tree_vertices(arc_length: float, depth: int) -> dict:
    """The reflection tree's vertices by matrix products, as complex UHP
    coordinates by word: the word w is r_{w_0} r_{w_1} ... applied to
    (0, 1), and each product is its parent word's times one reflection
    on the right."""
    mirrors = [reflection_in(g) for g in generator_lines(arc_length)]
    mats = {(): Isometry.identity()}
    for w in reduced_words(depth):
        mats[w] = mats[w[:-1]] @ mirrors[w[-1]]
    return {w: m.apply(ORIGIN).as_complex() for w, m in mats.items()}
