"""Finite metric samples: point clouds, scales, and the sampled example spaces.

A :class:`PointCloud` is either a list of planar coordinates or an explicit
distance matrix.  All closeness tests use the *closed* inequality
``dist(x, y) <= epsilon``; there is no tolerance fudging in the semantics
(tolerances belong in test assertions, not here).

Clouds are immutable after construction.  The distance matrix and per-scale
adjacency structures are computed lazily and cached, so repeated queries at
the same scale are cheap and a cloud can be shared by concurrent readers.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from .documents import SCHEMA_VERSION, DocumentError, dumps_doc, parse_doc, read_doc


@dataclass(frozen=True)
class Scale:
    """A closeness threshold epsilon >= 0, in the same units as distances."""

    epsilon: float

    def __post_init__(self):
        eps = float(self.epsilon)
        if not math.isfinite(eps) or eps < 0:
            raise ValueError(f"epsilon must be a finite nonnegative real, got {self.epsilon}")
        object.__setattr__(self, "epsilon", eps)


def as_scale(value) -> Scale:
    """Coerce a number to a Scale; Scales pass through unchanged."""
    return value if isinstance(value, Scale) else Scale(float(value))


class PointCloud:
    """A finite metric sample with optional per-point part labels.

    Exactly one of ``points`` (an (n, 2) coordinate array) or ``matrix`` (an
    explicit symmetric distance matrix) must be given.  Explicit matrices are
    checked for symmetry, zero diagonal, and the triangle inequality.
    """

    def __init__(self, points=None, matrix=None, labels=None, parts=None, name=""):
        if (points is None) == (matrix is None):
            raise ValueError("give exactly one of points or matrix")
        self.name = str(name)
        self._dist = None
        if points is not None:
            pts = np.asarray(points, dtype=float)
            if pts.size == 0:
                pts = pts.reshape(0, 2)
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise ValueError("points must be an (n, 2) array")
            if not np.all(np.isfinite(pts)):
                raise ValueError("points must be finite")
            pts.setflags(write=False)
            self.points = pts
            self.matrix = None
            n = len(pts)
        else:
            mat = np.asarray(matrix, dtype=float)
            if mat.size == 0:
                mat = mat.reshape(0, 0)
            _check_distance_matrix(mat)
            mat.setflags(write=False)
            self.points = None
            self.matrix = mat
            self._dist = mat
            n = len(mat)
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != n:
                raise ValueError(f"{len(labels)} labels for {n} points")
        self.labels = labels
        if parts is None:
            parts = tuple(sorted(set(labels))) if labels else ()
        else:
            parts = tuple(str(s) for s in parts)
        if labels is not None:
            bad = set(labels) - set(parts)
            if bad:
                raise ValueError(f"labels {sorted(bad)} not among declared parts {parts}")
        self.parts = parts
        # lazy caches: scale (epsilon) -> adjacency bitsets / edge data
        self._bits_cache: dict[float, list[int]] = {}
        self._rips_cache: dict[float, object] = {}

    def __len__(self) -> int:
        return len(self.points) if self.points is not None else len(self.matrix)

    def __repr__(self) -> str:
        return f"PointCloud({self.name!r}, n={len(self)})"

    def distances(self) -> np.ndarray:
        """Full pairwise distance matrix (cached)."""
        if self._dist is None:
            p = self.points
            d = np.sqrt(((p[:, None, :] - p[None, :, :]) ** 2).sum(-1))
            np.fill_diagonal(d, 0.0)
            d.setflags(write=False)
            self._dist = d
        return self._dist

    def distance(self, i: int, j: int) -> float:
        n = len(self)
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"point index out of range: ({i}, {j}) for n={n}")
        return float(self.distances()[i, j])

    def in_entourage(self, i: int, j: int, scale) -> bool:
        """Closed test: distance(i, j) <= epsilon."""
        return self.distance(i, j) <= as_scale(scale).epsilon

    def neighbors(self, i: int, scale) -> list[int]:
        """Indices j != i with distance(i, j) <= epsilon, sorted."""
        n = len(self)
        if not 0 <= i < n:
            raise IndexError(f"point index out of range: {i} for n={n}")
        eps = as_scale(scale).epsilon
        row = self.distances()[i]
        out = np.flatnonzero(row <= eps)
        return [int(j) for j in out if j != i]

    def entourage_bits(self, scale) -> list[int]:
        """Per-vertex adjacency bitsets at a scale, self bit included (cached).

        Bit j of entry i is set iff distance(i, j) <= epsilon.  The diagonal
        is included because (i, i) is always in a closed entourage.
        """
        eps = as_scale(scale).epsilon
        bits = self._bits_cache.get(eps)
        if bits is None:
            close = self.distances() <= eps
            bits = [_row_bits(row) for row in close]
            self._bits_cache[eps] = bits
        return bits


def _row_bits(row: np.ndarray) -> int:
    # little-endian bit packing of a boolean row into one Python int
    packed = np.packbits(row, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _check_distance_matrix(mat: np.ndarray) -> None:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("distance matrix must be square")
    if not np.all(np.isfinite(mat)):
        raise ValueError("distance matrix must be finite")
    if np.any(mat < 0):
        raise ValueError("distances must be nonnegative")
    if np.any(np.diag(mat) != 0):
        raise ValueError("distance matrix must have a zero diagonal")
    if not np.array_equal(mat, mat.T):
        raise ValueError("distance matrix must be symmetric")
    n = len(mat)
    for k in range(n):
        # allow a hair of slack for matrices that went through decimal text
        if np.any(mat > mat[:, k, None] + mat[None, k, :] + 1e-9):
            raise ValueError(f"triangle inequality violated via point {k}")


# ---------------------------------------------------------------------------
# Example-space samplers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceSpec:
    """Declarative recipe for a sampled space; ``generate`` turns it into a cloud.

    ``params`` are keywords of the family's sampler function (of
    :class:`PointCloud` for ``explicit``).  ``must_include`` coordinates are
    forced verbatim into the sample and labeled by their nearest sampled
    part.  A keyword the sampler does not take, or ``must_include`` for a
    family whose sampler cannot force points, raises ValueError.
    """

    family: str
    params: dict = field(default_factory=dict)
    must_include: tuple = ()
    name: str = ""

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        object.__setattr__(self, "must_include", tuple((float(x), float(y)) for x, y in self.must_include))
        make = PointCloud if self.family == "explicit" else _SAMPLERS[self.family]
        keywords = set(inspect.signature(make).parameters)
        unknown = sorted(set(self.params) - (keywords - {"name", "must_include"}))
        if self.must_include and "must_include" not in keywords:
            unknown.append("must_include")
        if unknown:
            raise ValueError(f"family {self.family!r} takes no {', '.join(unknown)}")


def crest_height(x):
    """Height of the oscillating curve used by the texas_circle family."""
    return np.sin(x) ** 2 + 1.0 / x


def texas_circle_cloud(h=0.05, h_segment=None, m_end=8.0, must_include=(), name="texas_circle"):
    """Sample the oscillating-curve space: curve, axis tail, and left segment.

    The curve part is the graph of ``sin^2 x + 1/x`` on [pi, m_end*pi] on a
    grid of step ``h``; the axis part is the same grid at height 0; the
    segment part runs up from (pi, 0) to height 1/pi in steps of
    ``h_segment``.  Exact duplicate coordinates are kept once (first part
    wins), so (pi, 0) belongs to the axis part.
    """
    h = float(h)
    h_segment = h if h_segment is None else float(h_segment)
    m_end = float(m_end)
    if h <= 0 or h_segment <= 0:
        raise ValueError("sampling steps must be strictly positive")
    if m_end * math.pi <= math.pi:
        raise ValueError("domain end m_end*pi must exceed pi")
    xs = np.pi + h * np.arange(int(np.floor((m_end * np.pi - np.pi) / h)) + 1)
    ys = h_segment * np.arange(int(np.floor((1 / np.pi) / h_segment)) + 1)
    pts: list[tuple[float, float]] = []
    labels: list[str] = []
    for x in xs:
        pts.append((float(x), float(crest_height(x))))
        labels.append("graph")
    for x in xs:
        pts.append((float(x), 0.0))
        labels.append("axis")
    for y in ys:
        pts.append((float(np.pi), float(y)))
        labels.append("segment")
    return _assemble(pts, labels, ("graph", "axis", "segment"), must_include, name)


def circle_cloud(n=360, name="circle"):
    """n equally spaced points on the unit circle."""
    n = int(n)
    if n < 1:
        raise ValueError("need at least one point")
    t = 2 * np.pi * np.arange(n) / n
    pts = [(float(np.cos(a)), float(np.sin(a))) for a in t]
    return PointCloud(points=pts, name=name)


def parallel_lines_cloud(gap=1.0, step=0.04, length=5.0, must_include=(), name="parallel_lines"):
    """Two horizontal sampled lines at vertical distance ``gap``.

    The default step stays strictly below the scan scales used on this
    family, so float rounding of the grid cannot push a hop past a closed
    entourage test that its real value would satisfy.
    """
    gap, step, length = float(gap), float(step), float(length)
    if step <= 0 or length <= 0 or gap <= 0:
        raise ValueError("gap, step, and length must be strictly positive")
    xs = step * np.arange(int(np.floor(length / step)) + 1)
    pts: list[tuple[float, float]] = []
    labels: list[str] = []
    for x in xs:
        pts.append((float(x), 0.0))
        labels.append("lower")
    for x in xs:
        pts.append((float(x), gap))
        labels.append("upper")
    return _assemble(pts, labels, ("lower", "upper"), must_include, name)


def interval_cloud(length=1.0, step=0.05, name="interval"):
    """The segment [0, length] on the x-axis, sampled with step ``step``."""
    length, step = float(length), float(step)
    if step <= 0 or length < 0:
        raise ValueError("step must be positive and length nonnegative")
    xs = step * np.arange(int(np.floor(length / step)) + 1)
    return PointCloud(points=[(float(x), 0.0) for x in xs], name=name)


def _assemble(pts, labels, parts, must_include, name) -> PointCloud:
    # drop exact coordinate duplicates (first part wins), then force inclusions
    seen = set()
    out_pts, out_labels = [], []
    for p, lab in zip(pts, labels):
        if p in seen:
            continue
        seen.add(p)
        out_pts.append(p)
        out_labels.append(lab)
    for m in must_include:
        m = (float(m[0]), float(m[1]))
        if m in seen:
            continue
        if out_pts:
            arr = np.asarray(out_pts)
            d2 = ((arr - np.asarray(m)) ** 2).sum(1)
            out_labels.append(out_labels[int(np.argmin(d2))])
        else:
            out_labels.append(parts[0])
        out_pts.append(m)
        seen.add(m)
    return PointCloud(points=out_pts, labels=out_labels, parts=parts, name=name)


def texas_pair(n: int) -> tuple[tuple[float, float], tuple[float, float]]:
    """The curve/axis point pair at x = n*pi, at vertical distance 1/(n*pi)."""
    x = n * math.pi
    return (x, 1.0 / x), (x, 0.0)


def texas_sample(n=2, **sampler_args) -> PointCloud:
    """texas_circle sample that always contains the pair at x = n*pi.

    Other keywords go to :func:`texas_circle_cloud`, whose defaults apply.
    """
    return texas_circle_cloud(must_include=texas_pair(n), **sampler_args)


_SAMPLERS = {"texas_circle": texas_circle_cloud, "circle": circle_cloud,
             "parallel_lines": parallel_lines_cloud, "interval": interval_cloud}
FAMILIES = (*_SAMPLERS, "explicit")


def generate(spec: SpaceSpec) -> PointCloud:
    """Build the cloud a SpaceSpec describes.  Deterministic per spec.

    ``spec.params`` go straight to the family's sampler as keywords, so a
    parameter left out takes that sampler's own default.
    """
    name = spec.name or spec.family
    if spec.family == "explicit":
        p = spec.params
        return PointCloud(points=p.get("points"), matrix=p.get("matrix"),
                          labels=p.get("labels"), parts=p.get("parts") or None, name=name)
    inclusions = {"must_include": spec.must_include} if spec.must_include else {}
    return _SAMPLERS[spec.family](**spec.params, **inclusions, name=name)


# ---------------------------------------------------------------------------
# Point-cloud documents
# ---------------------------------------------------------------------------

def cloud_to_doc(cloud: PointCloud) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "kind": "point_cloud", "name": cloud.name}
    if cloud.points is not None:
        doc["points"] = [[float(x), float(y)] for x, y in cloud.points]
    else:
        doc["matrix"] = [[float(v) for v in row] for row in cloud.matrix]
    if cloud.labels is not None:
        doc["labels"] = list(cloud.labels)
        doc["parts"] = list(cloud.parts)
    return doc


def cloud_from_doc(doc: dict) -> PointCloud:
    if "points" in doc and "matrix" in doc:
        raise DocumentError("document has both points and matrix")
    if "points" not in doc and "matrix" not in doc:
        raise DocumentError("document has neither points nor matrix")
    try:
        return PointCloud(points=doc.get("points"), matrix=doc.get("matrix"),
                          labels=doc.get("labels"), parts=doc.get("parts") or None,
                          name=doc.get("name", ""))
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def save_cloud(cloud: PointCloud, path=None) -> str:
    """Serialize a cloud; also write it to ``path`` when given.

    Coordinates serialize through Python's shortest round-trip decimal form
    (at most 17 significant digits), so load(save(c)) is bit-exact.
    """
    text = dumps_doc(cloud_to_doc(cloud))
    if path is not None:
        from pathlib import Path

        Path(path).write_text(text, encoding="utf-8")
    return text


def load_cloud(source) -> PointCloud:
    """Load a cloud from a path, or from document text containing JSON."""
    text = str(source)
    if text.lstrip().startswith("{"):
        return cloud_from_doc(parse_doc(text, "point_cloud"))
    return cloud_from_doc(read_doc(source, "point_cloud"))
