"""2D piecewise-linear finite elements for the eddy-current device model.

The device is the out-of-plane component of the vector potential on a
triangle mesh, extruded by a model depth.  This module assembles the
conductivity mass matrix, the reluctivity stiffness matrix, and the
stranded-conductor winding matrix, and applies the gauge (homogeneous
Dirichlet condition on the outer boundary) by eliminating boundary rows
and columns.

Mesh file format (whitespace separated, ``#`` starts a comment)::

    depth <lz>
    vertices <N>
    <x> <y>                          # N lines, coordinates in metres
    triangles <M>
    <i> <j> <k> <region>             # M lines, 0-based vertex indices
    regions <K>
    <region> <nu> <sigma> <winding> <orientation>   # winding -1 = none
    windings <W>
    <winding> <turns>

Winding cross-section areas are always the summed areas of the winding's
triangles; they are not stored in the file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import GaugeError, MeshError

__all__ = [
    "MU_0",
    "TriMesh",
    "MaterialMap",
    "Winding",
    "FieldModel",
    "TransformerParams",
    "triangle_areas",
    "rect_mesh",
    "assemble_stiffness",
    "assemble_mass",
    "assemble_winding",
    "apply_gauge",
    "build_field_model",
    "generate_transformer_mesh",
    "parse_mesh",
    "load_mesh",
    "save_mesh",
]

MU_0 = 4.0e-7 * math.pi  # vacuum permeability [H/m]

# Declared winding areas must match the summed triangle areas this closely.
AREA_RTOL = 1e-12


@dataclass
class TriMesh:
    """Planar triangle mesh with an out-of-plane model depth.

    All triangles must be positively oriented; the boundary vertex set is
    where the gauge (a = 0) is applied and must be non-empty.
    """

    vertices: np.ndarray          # (n, 2) [m]
    triangles: np.ndarray         # (m, 3) int
    boundary_vertices: np.ndarray  # sorted int indices
    depth: float                  # [m]

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        self.boundary_vertices = np.unique(np.asarray(self.boundary_vertices, dtype=np.int64))
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (n, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (m, 3) array")
        if self.triangles.size and (self.triangles.min() < 0
                                    or self.triangles.max() >= self.n_vertices):
            raise MeshError("triangle vertex index out of range")
        if self.boundary_vertices.size == 0:
            raise MeshError("boundary vertex set must be non-empty")
        if self.boundary_vertices.min() < 0 or self.boundary_vertices.max() >= self.n_vertices:
            raise MeshError("boundary vertex index out of range")
        if not self.depth > 0.0:
            raise MeshError("mesh depth must be positive")
        areas = triangle_areas(self.vertices, self.triangles)
        bad = np.flatnonzero(areas <= 0.0)
        if bad.size:
            raise MeshError(f"triangles with non-positive area: {bad[:10].tolist()}")
        self._areas = areas

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def areas(self) -> np.ndarray:
        return self._areas


@dataclass
class MaterialMap:
    """Per-triangle reluctivity [m/H] and conductivity [S/m]."""

    reluctivity: np.ndarray
    conductivity: np.ndarray

    def __post_init__(self):
        self.reluctivity = np.asarray(self.reluctivity, dtype=float)
        self.conductivity = np.asarray(self.conductivity, dtype=float)
        if self.reluctivity.shape != self.conductivity.shape:
            raise MeshError("reluctivity and conductivity must have equal length")
        if not np.all(self.reluctivity > 0.0):
            raise MeshError("reluctivity must be positive everywhere")
        if not np.all(self.conductivity >= 0.0):
            raise MeshError("conductivity must be non-negative")


@dataclass
class Winding:
    """A stranded conductor: a signed triangle region with a turn count.

    ``orientation`` is +1 on go-side triangles and -1 on the return side.
    ``area`` is the summed area of the winding's triangles; if given it is
    checked against the mesh, otherwise it is computed.
    """

    name: str
    triangles: np.ndarray      # indices into the mesh triangle list
    orientation: np.ndarray    # +1 / -1 per listed triangle
    turns: float
    area: float | None = None

    def __post_init__(self):
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        self.orientation = np.asarray(self.orientation, dtype=float)
        if self.triangles.size == 0:
            raise MeshError(f"winding {self.name!r}: empty triangle set")
        if self.orientation.shape != self.triangles.shape:
            raise MeshError(f"winding {self.name!r}: orientation length mismatch")
        if not np.all(np.isin(self.orientation, (-1.0, 1.0))):
            raise MeshError(f"winding {self.name!r}: orientation entries must be +1 or -1")
        if not self.turns > 0:
            raise MeshError(f"winding {self.name!r}: turns must be positive")

    def resolved_area(self, mesh: TriMesh) -> float:
        total = float(mesh.areas[self.triangles].sum())
        if self.area is not None:
            if abs(self.area - total) > AREA_RTOL * max(abs(total), 1e-300):
                raise MeshError(
                    f"winding {self.name!r}: declared area {self.area} does not match "
                    f"summed triangle area {total}")
        return total


def triangle_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p0 = vertices[triangles[:, 0]]
    e1 = vertices[triangles[:, 1]] - p0
    e2 = vertices[triangles[:, 2]] - p0
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def _gradients(mesh: TriMesh):
    """Constant P1 basis gradients per triangle, shape (m, 3, 2)."""
    tri = mesh.triangles
    p0 = mesh.vertices[tri[:, 0]]
    e1 = mesh.vertices[tri[:, 1]] - p0
    e2 = mesh.vertices[tri[:, 2]] - p0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    g = np.empty((tri.shape[0], 3, 2))
    g[:, 1, 0] = e2[:, 1] / det
    g[:, 1, 1] = -e2[:, 0] / det
    g[:, 2, 0] = -e1[:, 1] / det
    g[:, 2, 1] = e1[:, 0] / det
    g[:, 0, :] = -g[:, 1, :] - g[:, 2, :]
    return g


def _scatter(mesh: TriMesh, local: np.ndarray) -> sp.csr_matrix:
    """Accumulate (m, 3, 3) local blocks into a CSR matrix over vertices."""
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)),
                        shape=(mesh.n_vertices, mesh.n_vertices))
    return mat.tocsr()


def assemble_stiffness(mesh: TriMesh, materials: MaterialMap) -> sp.csr_matrix:
    """Ungauged reluctivity stiffness matrix.

    Entries are sums over triangles of nu * depth * area * (grad_i . grad_j);
    constants lie in the kernel until the gauge removes them.
    """
    _check_counts(mesh, materials)
    g = _gradients(mesh)
    coef = materials.reluctivity * mesh.depth * mesh.areas
    local = np.einsum("tad,tbd->tab", g, g) * coef[:, None, None]
    return _scatter(mesh, local)


_MASS_PATTERN = (np.ones((3, 3)) + np.eye(3)) / 12.0


def assemble_mass(mesh: TriMesh, materials: MaterialMap) -> sp.csr_matrix:
    """Conductivity mass matrix (consistent P1 mass, not lumped).

    Rows of vertices touched only by non-conducting triangles are exactly
    zero; explicit zeros are pruned so those rows stay structurally empty.
    """
    _check_counts(mesh, materials)
    coef = materials.conductivity * mesh.depth * mesh.areas
    local = coef[:, None, None] * _MASS_PATTERN
    mat = _scatter(mesh, local)
    mat.eliminate_zeros()
    return mat


def assemble_winding(mesh: TriMesh, windings, materials: MaterialMap | None = None) -> np.ndarray:
    """Winding matrix: one column per winding, rows over mesh vertices.

    Column k discretizes the winding function, which is s * N_k / A_k on the
    winding's triangles and zero elsewhere; each triangle contributes
    s * (N_k / A_k) * depth * area / 3 to its three vertices.  When materials
    are given, winding regions are required to be non-conducting (stranded
    conductors carry no eddy currents in this model).
    """
    windings = list(windings)
    x = np.zeros((mesh.n_vertices, len(windings)))
    for k, w in enumerate(windings):
        if w.triangles.size and w.triangles.max() >= mesh.n_triangles:
            raise MeshError(f"winding {w.name!r}: triangle index out of range")
        if materials is not None and np.any(materials.conductivity[w.triangles] > 0.0):
            raise MeshError(f"winding {w.name!r} overlaps conducting triangles")
        area = w.resolved_area(mesh)
        if not area > 0.0:
            raise MeshError(f"winding {w.name!r}: zero cross-section area")
        per_tri = w.orientation * (w.turns / area) * mesh.depth * mesh.areas[w.triangles] / 3.0
        np.add.at(x[:, k], mesh.triangles[w.triangles].ravel(), np.repeat(per_tri, 3))
    return x


def _check_counts(mesh: TriMesh, materials: MaterialMap) -> None:
    if materials.reluctivity.shape != (mesh.n_triangles,):
        raise MeshError("materials must provide one value per triangle")


@dataclass
class FieldModel:
    """Gauged finite-element device model.

    ``stiffness`` and ``mass`` act on interior (gauged) unknowns;
    ``winding_matrix`` maps winding currents to interior load contributions.
    ``dof_map[v]`` is the interior index of vertex v, or -1 on the boundary.
    """

    mesh: TriMesh
    materials: MaterialMap
    windings: list
    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    winding_matrix: np.ndarray
    dof_map: np.ndarray
    _lu: object = field(default=None, repr=False)
    _gradient_op: tuple = field(default=None, repr=False)  # (B_x, B_y, coef), built on demand

    @property
    def n_dofs(self) -> int:
        return self.stiffness.shape[0]

    @property
    def n_windings(self) -> int:
        return self.winding_matrix.shape[1]

    def static_solve(self, currents: np.ndarray) -> np.ndarray:
        """Solve the magnetostatic problem for fixed winding currents."""
        currents = np.asarray(currents, dtype=float)
        if self.n_dofs == 0:
            return np.zeros(0)
        return self._lu.solve(self.winding_matrix @ currents)

    def expand(self, a: np.ndarray) -> np.ndarray:
        """Interior solution padded with the boundary zeros, per vertex."""
        full = np.zeros(self.mesh.n_vertices)
        interior = self.dof_map >= 0
        full[interior] = a[self.dof_map[interior]]
        return full

    def energy(self, a: np.ndarray) -> float:
        """Stored magnetic energy of an interior solution vector.

        Summed per element from the piecewise-constant gradients; this is the
        stiffness quadratic form evaluated without cancellation, so the
        result carries a relative (not absolute) rounding error, which the
        power audit's energy difference quotients rely on.
        """
        if self.n_dofs == 0 or not np.any(a):
            return 0.0
        if self._gradient_op is None:
            self._gradient_op = self._element_gradients()
        b_x, b_y, coef = self._gradient_op
        gx = b_x @ a
        gy = b_y @ a
        return 0.5 * float(coef @ (gx * gx + gy * gy))

    def _element_gradients(self):
        """(B_x, B_y, coef): per-triangle gradient components of an interior
        solution, as CSR maps from the interior unknowns, and the per-triangle
        energy coefficient nu * depth * area.

        Each row lists its triangle's interior vertices in local vertex
        order, so a gradient component is summed in the same order as over
        all three vertices with zeros on the boundary.
        """
        mesh = self.mesh
        grads = _gradients(mesh)
        dofs = self.dof_map[mesh.triangles]
        interior = dofs >= 0
        indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(interior, axis=1))])
        shape = (mesh.n_triangles, self.n_dofs)
        b_x, b_y = (sp.csr_matrix((grads[:, :, d][interior], dofs[interior], indptr),
                                  shape=shape) for d in (0, 1))
        coef = self.materials.reluctivity * mesh.depth * mesh.areas
        return b_x, b_y, coef


def apply_gauge(mesh: TriMesh, materials: MaterialMap, windings,
                stiffness: sp.csr_matrix, mass: sp.csr_matrix,
                winding_matrix: np.ndarray) -> FieldModel:
    """Eliminate boundary rows/columns and verify the result is solvable.

    The gauged stiffness matrix must admit a factorization that actually
    solves (checked on a random right-hand side to 1e-10 relative); failure
    is reported as a :class:`GaugeError`.
    """
    interior = np.setdiff1d(np.arange(mesh.n_vertices), mesh.boundary_vertices)
    dof_map = np.full(mesh.n_vertices, -1, dtype=np.int64)
    dof_map[interior] = np.arange(interior.size)

    k_g = stiffness[interior][:, interior].tocsc()
    m_g = mass[interior][:, interior].tocsr()
    x_g = np.asarray(winding_matrix)[interior]

    lu = None
    if interior.size:
        try:
            lu = splu(k_g)
        except RuntimeError as exc:
            raise GaugeError(f"gauged stiffness factorization failed: {exc}") from exc
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal(interior.size)
        sol = lu.solve(rhs)
        resid = np.linalg.norm(k_g @ sol - rhs)
        if not np.isfinite(resid) or resid > 1e-10 * max(np.linalg.norm(rhs), 1.0):
            raise GaugeError("gauged stiffness matrix is numerically singular")

    return FieldModel(mesh=mesh, materials=materials, windings=list(windings),
                      stiffness=k_g.tocsr(), mass=m_g, winding_matrix=x_g,
                      dof_map=dof_map, _lu=lu)


def build_field_model(mesh: TriMesh, materials: MaterialMap, windings) -> FieldModel:
    """Assemble all device matrices and apply the gauge in one call."""
    k = assemble_stiffness(mesh, materials)
    m = assemble_mass(mesh, materials)
    x = assemble_winding(mesh, windings, materials)
    return apply_gauge(mesh, materials, windings, k, m, x)


def boundary_vertices_of(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Vertices on edges that belong to exactly one triangle."""
    edges = np.vstack([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    edges.sort(axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    return np.unique(uniq[counts == 1])


def rect_mesh(nx: int, ny: int, width: float, height: float, depth: float = 1.0) -> TriMesh:
    """Structured triangulation of [0, width] x [0, height].

    Each grid cell is split along its lower-left/upper-right diagonal into
    two positively oriented triangles; vertices are numbered row-major.
    """
    if nx < 1 or ny < 1:
        raise MeshError("rect_mesh needs at least one cell per direction")
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    xg, yg = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([xg.ravel(), yg.ravel()])

    def vid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    triangles = np.asarray(tris, dtype=np.int64)
    boundary = boundary_vertices_of(vertices, triangles)
    return TriMesh(vertices=vertices, triangles=triangles,
                   boundary_vertices=boundary, depth=depth)


@dataclass(frozen=True)
class TransformerParams:
    """Geometry and materials of the built-in two-winding transformer.

    Cross-section: a square laminated core with a centred window, inside an
    air box with ``padding`` of air around the core.  Each winding is a
    go/return pair of vertical strips hugging one limb: the go side sits
    inside the window, the return side outside the core.  All default edges
    are multiples of 0.0125 m so structured meshes with h in
    {0.025, 0.0125, 0.00625, ...} resolve the regions exactly.
    """

    core_size: float = 0.2
    window_size: float = 0.1
    winding_width: float = 0.025
    padding: float = 0.1
    turns_primary: float = 200.0
    turns_secondary: float = 25.0
    depth: float = 1.0
    mu_r_core: float = 1000.0
    sigma_core: float = 1000.0  # effective laminated conductivity [S/m]

    def __post_init__(self):
        if not (self.core_size > 0 and self.window_size > 0 and self.winding_width > 0
                and self.padding > 0 and self.depth > 0):
            raise MeshError("transformer dimensions must be positive")
        if self.window_size >= self.core_size:
            raise MeshError("window must fit inside the core")
        if 2 * self.winding_width > self.window_size:
            raise MeshError("windings overlap inside the window")
        if self.winding_width > self.padding:
            raise MeshError("return winding does not fit in the air padding")
        if not (self.turns_primary > 0 and self.turns_secondary > 0):
            raise MeshError("turn counts must be positive")
        if not (self.mu_r_core > 0 and self.sigma_core >= 0):
            raise MeshError("core material values out of range")

    @property
    def domain_size(self) -> float:
        return self.core_size + 2.0 * self.padding


def generate_transformer_mesh(params: TransformerParams, h: float):
    """Deterministic structured mesh of the transformer cross-section.

    Returns (mesh, materials, [primary, secondary]).  Regions are assigned
    per grid cell (both triangles of a cell agree) by the cell centre; every
    winding strip must contain at least one whole cell column (two
    triangles), otherwise the mesh is rejected as too coarse.
    """
    if not h > 0:
        raise MeshError("mesh density must be positive")
    size = params.domain_size
    n = int(round(size / h))
    if n < 4:
        raise MeshError("mesh density too coarse for the transformer geometry")
    mesh = rect_mesh(n, n, size, size, depth=params.depth)

    core_lo = params.padding
    core_hi = params.padding + params.core_size
    win_lo = core_lo + (params.core_size - params.window_size) / 2.0
    win_hi = win_lo + params.window_size
    ww = params.winding_width
    band = (win_lo, win_hi)  # vertical extent of all winding strips

    # (xmin, xmax) of the four strips: go sides inside the window, return
    # sides outside the core.
    strips = {
        "primary_go": (win_lo, win_lo + ww),
        "primary_return": (core_lo - ww, core_lo),
        "secondary_go": (win_hi - ww, win_hi),
        "secondary_return": (core_hi, core_hi + ww),
    }

    # triangle t belongs to cell t // 2 of the row-major nx * ny cell grid
    dx = size / n
    cells = np.arange(mesh.n_triangles) // 2
    cx = (cells % n + 0.5) * dx
    cy = (cells // n + 0.5) * dx

    in_core_box = (cx > core_lo) & (cx < core_hi) & (cy > core_lo) & (cy < core_hi)
    in_window = (cx > win_lo) & (cx < win_hi) & (cy > win_lo) & (cy < win_hi)
    core = in_core_box & ~in_window

    in_band = (cy > band[0]) & (cy < band[1])
    strip_sets = {name: np.flatnonzero((cx > lo) & (cx < hi) & in_band)
                  for name, (lo, hi) in strips.items()}
    for name, tris in strip_sets.items():
        if tris.size < 2:
            raise MeshError(f"mesh density h={h} too coarse to resolve {name}")
        if np.any(core[tris]):
            raise MeshError(f"{name} overlaps the core region")

    nu = np.full(mesh.n_triangles, 1.0 / MU_0)
    nu[core] = 1.0 / (params.mu_r_core * MU_0)
    sigma = np.zeros(mesh.n_triangles)
    sigma[core] = params.sigma_core
    materials = MaterialMap(reluctivity=nu, conductivity=sigma)

    def make_winding(name, go, ret, turns):
        tris = np.concatenate([strip_sets[go], strip_sets[ret]])
        orient = np.concatenate([np.ones(strip_sets[go].size), -np.ones(strip_sets[ret].size)])
        return Winding(name=name, triangles=tris, orientation=orient, turns=turns)

    windings = [
        make_winding("primary", "primary_go", "primary_return", params.turns_primary),
        make_winding("secondary", "secondary_go", "secondary_return", params.turns_secondary),
    ]
    return mesh, materials, windings


# ---------------------------------------------------------------------------
# mesh file i/o


def save_mesh(path, mesh: TriMesh, materials: MaterialMap, windings) -> None:
    """Write the mesh, materials, and windings in the documented text format."""
    windings = list(windings)
    tri_winding = np.full(mesh.n_triangles, -1, dtype=int)
    tri_orient = np.zeros(mesh.n_triangles, dtype=int)
    for k, w in enumerate(windings):
        tri_winding[w.triangles] = k
        tri_orient[w.triangles] = w.orientation.astype(int)

    keys = list(zip(materials.reluctivity, materials.conductivity, tri_winding, tri_orient))
    region_of_key = {}
    regions = []
    tri_region = np.empty(mesh.n_triangles, dtype=int)
    for t, key in enumerate(keys):
        if key not in region_of_key:
            region_of_key[key] = len(regions)
            regions.append(key)
        tri_region[t] = region_of_key[key]

    lines = [f"depth {mesh.depth:.17g}", f"vertices {mesh.n_vertices}"]
    lines += [f"{x:.17g} {y:.17g}" for x, y in mesh.vertices]
    lines.append(f"triangles {mesh.n_triangles}")
    lines += [f"{i} {j} {k} {r}" for (i, j, k), r in zip(mesh.triangles, tri_region)]
    lines.append(f"regions {len(regions)}")
    lines += [f"{rid} {nu:.17g} {sg:.17g} {w} {o}"
              for rid, (nu, sg, w, o) in enumerate(regions)]
    lines.append(f"windings {len(windings)}")
    lines += [f"{k} {w.turns:.17g}" for k, w in enumerate(windings)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_mesh(text: str):
    """Parse the mesh text format; returns (mesh, materials, windings)."""
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            tokens.append((lineno, body.split()))
    pos = 0

    def take(expect_key=None):
        nonlocal pos
        if pos >= len(tokens):
            raise MeshError("unexpected end of mesh file")
        lineno, toks = tokens[pos]
        pos += 1
        if expect_key is not None and toks[0].lower() != expect_key:
            raise MeshError(f"line {lineno}: expected '{expect_key}', got {toks[0]!r}")
        return lineno, toks

    def as_int(lineno, s):
        try:
            return int(s)
        except ValueError:
            raise MeshError(f"line {lineno}: expected integer, got {s!r}") from None

    def as_float(lineno, s):
        try:
            value = float(s)
        except ValueError:
            raise MeshError(f"line {lineno}: expected number, got {s!r}") from None
        if not math.isfinite(value):
            raise MeshError(f"line {lineno}: expected a finite number, got {s!r}")
        return value

    lineno, toks = take("depth")
    depth = as_float(lineno, toks[1])
    lineno, toks = take("vertices")
    n_v = as_int(lineno, toks[1])
    vertices = np.empty((n_v, 2))
    for row in range(n_v):
        lineno, toks = take()
        if len(toks) != 2:
            raise MeshError(f"line {lineno}: vertex needs two coordinates")
        vertices[row] = [as_float(lineno, toks[0]), as_float(lineno, toks[1])]

    lineno, toks = take("triangles")
    n_t = as_int(lineno, toks[1])
    triangles = np.empty((n_t, 3), dtype=np.int64)
    tri_region = np.empty(n_t, dtype=int)
    for row in range(n_t):
        lineno, toks = take()
        if len(toks) != 4:
            raise MeshError(f"line {lineno}: triangle needs three vertices and a region")
        triangles[row] = [as_int(lineno, s) for s in toks[:3]]
        tri_region[row] = as_int(lineno, toks[3])

    lineno, toks = take("regions")
    n_r = as_int(lineno, toks[1])
    region_table = {}
    for _ in range(n_r):
        lineno, toks = take()
        if len(toks) != 5:
            raise MeshError(f"line {lineno}: region needs id, nu, sigma, winding, orientation")
        rid = as_int(lineno, toks[0])
        region_table[rid] = (as_float(lineno, toks[1]), as_float(lineno, toks[2]),
                             as_int(lineno, toks[3]), as_int(lineno, toks[4]))

    lineno, toks = take("windings")
    n_w = as_int(lineno, toks[1])
    turns = {}
    for _ in range(n_w):
        lineno, toks = take()
        if len(toks) != 2:
            raise MeshError(f"line {lineno}: winding needs id and turns")
        turns[as_int(lineno, toks[0])] = as_float(lineno, toks[1])

    missing = set(tri_region) - set(region_table)
    if missing:
        raise MeshError(f"triangles reference undeclared regions {sorted(missing)}")

    nu = np.array([region_table[r][0] for r in tri_region])
    sigma = np.array([region_table[r][1] for r in tri_region])
    materials = MaterialMap(reluctivity=nu, conductivity=sigma)

    boundary = boundary_vertices_of(vertices, triangles)
    mesh = TriMesh(vertices=vertices, triangles=triangles,
                   boundary_vertices=boundary, depth=depth)

    windings = []
    for wid in sorted(turns):
        tris = np.flatnonzero([region_table[r][2] == wid for r in tri_region])
        if tris.size == 0:
            raise MeshError(f"winding {wid} has no triangles")
        orient = np.array([region_table[tri_region[t]][3] for t in tris], dtype=float)
        windings.append(Winding(name=f"w{wid}", triangles=tris,
                                orientation=orient, turns=turns[wid]))
    used = {region_table[r][2] for r in tri_region} - {-1}
    if used - set(turns):
        raise MeshError(f"regions reference undeclared windings {sorted(used - set(turns))}")
    return mesh, materials, windings


def load_mesh(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_mesh(fh.read())
