"""Uniform rectangular grids, cell-centered scalar fields, and zero-flux operators.

Domains are intervals (1D) or axis-aligned rectangles (2D) split into uniform
cells. Every differential operator is written in finite-volume face-flux form
with reflecting ghost cells, so insulated (homogeneous Neumann) boundaries and
discrete conservation hold by construction: the Laplacian and the
cross-diffusion divergence both integrate to zero up to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "GridSpec",
    "ScalarField",
    "cell_centers",
    "integrate",
    "grad_sq_integral",
    "lp_norm",
    "sup_norm",
    "save_snapshot",
    "load_snapshot",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-centered grid over [0, L1] or [0, L1] x [0, L2].

    Cell i along an axis spans [i*h, (i+1)*h) with its center at (i + 1/2)*h,
    where h = length/n_cells for that axis. Fields live at cell centers and
    are stored row-major (C order) over the axes.
    """

    dim: int
    n_cells: tuple[int, ...]
    length: tuple[float, ...]

    def __post_init__(self):
        n = self.n_cells if isinstance(self.n_cells, (tuple, list)) else (self.n_cells,)
        L = self.length if isinstance(self.length, (tuple, list)) else (self.length,)
        object.__setattr__(self, "n_cells", tuple(int(v) for v in n))
        object.__setattr__(self, "length", tuple(float(v) for v in L))
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if len(self.n_cells) != self.dim:
            raise ValueError(f"n_cells needs {self.dim} entries, got {len(self.n_cells)}")
        if len(self.length) != self.dim:
            raise ValueError(f"length needs {self.dim} entries, got {len(self.length)}")
        if any(v < 3 for v in self.n_cells):
            raise ValueError(f"need at least 3 cells per axis, got {self.n_cells}")
        if not all(0.0 < v < np.inf for v in self.length):
            raise ValueError(f"length entries must be finite and > 0, got {self.length}")

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.length, self.n_cells))

    @cached_property
    def diffusive_bound(self) -> float:
        """Explicit diffusive step bound 1/(2*sum(1/h^2)): h^2/(2*dim) on equal spacings."""
        return 0.5 / sum(1.0 / (h * h) for h in self.spacing)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n_cells

    @cached_property
    def total_cells(self) -> int:
        out = 1
        for n in self.n_cells:
            out *= n
        return out

    @property
    def cell_volume(self) -> float:
        out = 1.0
        for h in self.spacing:
            out *= h
        return out

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return (np.arange(self.n_cells[axis]) + 0.5) * h

    @classmethod
    def interval(cls, n: int, length: float = 1.0) -> "GridSpec":
        return cls(1, (n,), (length,))

    @classmethod
    def rectangle(cls, n_cells: tuple[int, int], length: tuple[float, float] = (1.0, 1.0)) -> "GridSpec":
        return cls(2, tuple(n_cells), tuple(length))


@lru_cache(maxsize=64)
def cell_centers(spec: GridSpec) -> tuple[np.ndarray, ...]:
    """Cell-center coordinate arrays, each shaped like a field on ``spec``.

    Cached per grid; the returned arrays are read-only.
    """
    axes = [spec.axis_centers(ax) for ax in range(spec.dim)]
    grids = np.meshgrid(*axes, indexing="ij") if spec.dim > 1 else [axes[0]]
    for g in grids:
        g.setflags(write=False)
    return tuple(grids)


@dataclass(slots=True)
class ScalarField:
    """One real value per cell of a :class:`GridSpec`, stored row-major."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.size != self.spec.total_cells:
            raise ValueError(
                f"field has {v.size} values, grid has {self.spec.total_cells} cells"
            )
        self.values = v.reshape(self.spec.shape)

    def copy(self) -> "ScalarField":
        return ScalarField(self.spec, self.values.copy())

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.values).all())

    @classmethod
    def full(cls, spec: GridSpec, value: float) -> "ScalarField":
        return cls(spec, np.full(spec.shape, float(value)))

    @classmethod
    def from_function(cls, spec: GridSpec, fn) -> "ScalarField":
        """Sample ``fn`` at cell centers; fn takes one coordinate array per axis."""
        return cls(spec, np.asarray(fn(*cell_centers(spec)), dtype=float))

    @classmethod
    def _wrap(cls, spec: GridSpec, values: np.ndarray) -> "ScalarField":
        """A field on ``values``, a float array of ``spec.shape`` that its caller made itself.

        Skips the conversion and the size check of ``__post_init__``.
        """
        field = object.__new__(cls)
        field.spec = spec
        field.values = values
        return field


@dataclass(frozen=True)
class AxisOperators:
    """One axis on the flattened (C-order) cell array, where its neighbours are
    a stride s apart: ``lo``/``hi`` pick the cells on either side of each
    interior face. The axis's faces form an array of ``n_faces`` = cells + s
    entries; ``interior`` picks the interior faces (the first and last s are
    the zero-flux boundary), and ``lo``/``hi`` also pick the two faces of each
    cell. On the last axis of a 2D grid, ``wrap`` picks the interior entries
    that would join one row's last cell to the next row's first; they carry
    zero. ``seams`` picks the same entries among the interior faces alone.
    """

    axis: int
    lo: slice
    hi: slice
    interior: slice
    wrap: slice | None
    seams: slice | None
    n_faces: int


@lru_cache(maxsize=64)
def axis_operators(shape: tuple[int, ...]) -> tuple[AxisOperators, ...]:
    """Per-axis face slices for fields of ``shape``; cached and immutable."""
    size = int(np.prod(shape))
    row = shape[-1]
    axes = []
    for axis in range(len(shape)):
        s = int(np.prod(shape[axis + 1 :]))
        wrap = seams = None
        if s == 1 and size > row:
            wrap, seams = slice(row, size, row), slice(row - 1, size - 1, row)
        axes.append(AxisOperators(axis, slice(None, -s), slice(s, None), slice(s, -s),
                                  wrap, seams, size + s))
    return tuple(axes)


def laplacian_values(values: np.ndarray, spacing: tuple[float, ...]) -> np.ndarray:
    """Second-order zero-flux Laplacian on a raw cell array.

    Assembled as the divergence of face gradients with reflecting ghost cells,
    which is identical to the classical stencil in the interior and telescopes
    to zero total flux.
    """
    flat = values.ravel()
    total = None
    for ax, h in zip(axis_operators(values.shape), spacing):
        faces = np.zeros(ax.n_faces)
        np.subtract(flat[ax.hi], flat[ax.lo], out=faces[ax.interior])
        if ax.wrap is not None:
            faces[ax.wrap] = 0.0
        div = faces[ax.hi] - faces[ax.lo]
        div *= 1.0 / (h * h)
        total = div if total is None else np.add(total, div, out=total)
    return total.reshape(values.shape)


def div_u_grad_values(
    u: np.ndarray,
    phi: np.ndarray,
    spacing: tuple[float, ...],
    scheme: str = "central",
) -> np.ndarray:
    """Conservative cross-diffusion divergence div(u grad phi) on raw arrays.

    Face flux is u_face * (phi_right - phi_left)/h on interior faces, zero on
    boundary faces. ``scheme`` selects u_face: "central" takes the arithmetic
    mean of the adjacent cells (keeps second order); "upwind" takes the donor
    cell for transport with velocity +grad(phi), trading accuracy for
    positivity near steep fronts.
    """
    if scheme not in ("central", "upwind"):
        raise ValueError(f"unknown scheme {scheme!r}")
    total = None
    for axis, h in enumerate(spacing):
        lo, hi = np.delete(u, -1, axis), np.delete(u, 0, axis)
        dphi = np.diff(phi, axis=axis)
        face = (lo + hi) * 0.5 if scheme == "central" else np.where(dphi >= 0.0, lo, hi)
        div = np.diff(face * dphi, axis=axis, prepend=0.0, append=0.0) * (1.0 / (h * h))
        total = div if total is None else total + div
    return total


def integrate(f: ScalarField) -> float:
    """Discrete integral over the domain (midpoint rule: sum times cell volume)."""
    return float(f.values.sum() * f.spec.cell_volume)


def grad_sq_integral(f: ScalarField) -> float:
    """Discrete integral of |grad f|^2 from interior face differences.

    Each interior face contributes (difference/h)^2 times one cell volume;
    boundary faces contribute nothing (reflecting ghosts make them flat).
    """
    total = 0.0
    v = f.values
    for axis, h in enumerate(f.spec.spacing):
        grad = np.diff(v, axis=axis) / h
        total += float(np.sum(grad * grad))
    return total * f.spec.cell_volume


def lp_norm(f: ScalarField, p: float) -> float:
    """L^p norm (integral form) of a field, p >= 1."""
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    return float((np.sum(np.abs(f.values) ** p) * f.spec.cell_volume) ** (1.0 / p))


def sup_norm(f: ScalarField) -> float:
    return float(np.max(np.abs(f.values)))


# --- plain-text snapshot format -------------------------------------------
#
# header lines: dim, n_cells, length, time; then the values row-major,
# six to a line (the last line may be shorter), full double precision.

_VALUES_PER_LINE = 6


def save_snapshot(f: ScalarField, time: float, path) -> None:
    spec = f.spec
    values = tuple(f.values.ravel().tolist())
    rows, rest = divmod(len(values), _VALUES_PER_LINE)
    body = (b" ".join([b"%.17g"] * _VALUES_PER_LINE) + b"\n") * rows
    body += b" ".join([b"%.17g"] * rest) + b"\n" if rest else b""
    with open(path, "wb") as fh:
        fh.write(f"dim {spec.dim}\n".encode())
        fh.write(("n_cells " + " ".join(str(n) for n in spec.n_cells) + "\n").encode())
        fh.write(("length " + " ".join(f"{L:.17g}" for L in spec.length) + "\n").encode())
        fh.write(f"time {time:.17g}\n".encode())
        fh.write(body % values)


def load_snapshot(path) -> tuple[ScalarField, float]:
    """Read a snapshot; a missing header line or a wrong value count raises ValueError."""
    with open(path) as fh:
        header = {}
        for name in ("dim", "n_cells", "length", "time"):
            key, _, rest = fh.readline().partition(" ")
            if key.strip() != name:
                raise ValueError(f"snapshot {path}: missing header line {name!r}")
            header[name] = rest
        values = np.array(fh.read().split(), dtype=float)
    spec = GridSpec(int(header["dim"]), header["n_cells"].split(), header["length"].split())
    if values.size != spec.total_cells:
        raise ValueError(f"snapshot {path}: {values.size} values, {spec.total_cells} cells")
    return ScalarField(spec, values), float(header["time"])
