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

Every section header takes exactly one value, the four entry counts are
non-negative, and the file ends after the windings section.  Winding
cross-section areas are always the summed areas of the winding's
triangles; they are not stored in the file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .errors import GaugeError, MeshError

__all__ = [
    "MU_0",
    "MAX_VERTICES",
    "TriMesh",
    "MaterialMap",
    "Winding",
    "FieldModel",
    "TransformerParams",
    "rect_mesh",
    "assemble_stiffness",
    "assemble_mass",
    "assemble_winding",
    "factor_spd",
    "build_field_model",
    "generate_transformer_mesh",
    "parse_mesh",
    "load_mesh",
    "save_mesh",
]

MU_0 = 4.0e-7 * math.pi  # vacuum permeability [H/m]
# the most vertices a mesh may have: SuperLU indexes its matrices with int32
MAX_VERTICES = 2**31 - 1


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
        self._edges = _edge_vectors(self.vertices, self.triangles)
        areas = 0.5 * self._edges[4]
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
    The cross-section area is the summed area of the winding's triangles.
    """

    name: str
    triangles: np.ndarray      # indices into the mesh triangle list
    orientation: np.ndarray    # +1 / -1 per listed triangle
    turns: float

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


def _edge_vectors(vertices: np.ndarray, triangles: np.ndarray):
    """(e1x, e1y, e2x, e2y, det) per triangle: the components of the edges
    from its vertex 0 to its vertices 1 and 2, and det = e1 x e2, twice the
    signed area.  Each coordinate is gathered once, for the areas and the
    gradients both, and every difference runs along the triangles."""
    x = np.take(vertices[:, 0], triangles)
    y = np.take(vertices[:, 1], triangles)
    e1x, e1y = x[:, 1] - x[:, 0], y[:, 1] - y[:, 0]
    e2x, e2y = x[:, 2] - x[:, 0], y[:, 2] - y[:, 0]
    return e1x, e1y, e2x, e2y, e1x * e2y - e1y * e2x


def _gradients(mesh: TriMesh):
    """Constant P1 basis gradients, shape (2, m, 3): component, triangle,
    local vertex."""
    e1x, e1y, e2x, e2y, det = mesh._edges
    g = np.empty((2, mesh.n_triangles, 3))
    g[0, :, 1] = e2y / det
    g[1, :, 1] = -e2x / det
    g[0, :, 2] = -e1y / det
    g[1, :, 2] = e1x / det
    g[:, :, 0] = -g[:, :, 1] - g[:, :, 2]
    return g


def _element_map(mesh: TriMesh, dof_map: np.ndarray) -> sp.csr_matrix:
    """The CSR map G = [B_x; B_y] from the unknowns to the x (row t) and y
    (row n_triangles + t) component of triangle t's gradient, each row in
    local vertex order.  ``dof_map[v]`` is vertex v's unknown, or -1 where
    the gauge fixes it.  Overflow is left as values that are not finite, for
    the caller to reject.
    """
    with np.errstate(over="ignore"):
        grads = _gradients(mesh)
    dofs = np.take(dof_map, mesh.triangles)
    kept = dofs >= 0
    # the end of each triangle's row: its kept vertices, counted as int8
    # columns, which numpy sums faster than a row-wise count
    counts = kept.view(np.int8)
    ends = np.cumsum(counts[:, 0] + counts[:, 1] + counts[:, 2], dtype=np.int64)
    cols = dofs[kept]
    return sp.csr_matrix((np.concatenate([grads[0][kept], grads[1][kept]]),
                          np.concatenate([cols, cols]),
                          np.concatenate([[0], ends, ends[-1:] + ends])),
                         shape=(2 * mesh.n_triangles, int(np.count_nonzero(dof_map >= 0))))


def _reluctivity_coef(mesh: TriMesh, materials: MaterialMap) -> np.ndarray:
    """coef = nu * depth * area per triangle; overflow is left infinite, for
    the caller to reject."""
    _check_counts(mesh, materials)
    with np.errstate(over="ignore"):
        return materials.reluctivity * mesh.depth * mesh.areas


def _gradient_and_stiffness(g: sp.csr_matrix, coef: np.ndarray):
    """(G^T C, K): the energy's gradient map G^T C with C = diag([coef; coef])
    folded in, as one CSR matrix, and the stiffness K = (G^T C) G.

    G^T C is G's transpose with its columns scaled: each entry is one rounded
    product as in the sparse product C @ G, and like that product it holds
    no exact zeros, so a column whose coef is 0 is dropped whole.  An
    overflowing product is left infinite, without a warning, for the caller
    to reject."""
    gt = g.tocsc()  # the columns of G, stored as the rows of G^T
    scale = np.take(np.concatenate([coef, coef]), gt.indices)
    with np.errstate(over="ignore"):
        data = np.multiply(gt.data, scale, out=np.zeros_like(gt.data), where=scale != 0)
    weighted = sp.csr_matrix((data, gt.indices, gt.indptr), shape=(g.shape[1], g.shape[0]))
    weighted.eliminate_zeros()
    return weighted, weighted @ g


def assemble_stiffness(mesh: TriMesh, materials: MaterialMap) -> sp.csr_matrix:
    """Ungauged reluctivity stiffness matrix.

    Entries are sums over triangles of nu * depth * area * (grad_i . grad_j),
    formed as the product K = (G^T C) G of :func:`build_field_model` over all
    vertices; constants lie in the kernel until the gauge removes them.
    """
    g = _element_map(mesh, np.arange(mesh.n_vertices))
    return _gradient_and_stiffness(g, _reluctivity_coef(mesh, materials))[1]


_MASS_PATTERN = (np.ones((3, 3)) + np.eye(3)) / 12.0


def _mass(mesh: TriMesh, materials: MaterialMap, dof_map: np.ndarray) -> sp.csr_matrix:
    """The conductivity mass of :func:`assemble_mass` on the unknowns that
    ``dof_map`` numbers (-1 where the gauge fixes a vertex).

    Only the rows of unknowns are scattered, over vertex-numbered columns,
    so each row reaches the CSR conversion's per-row sort and duplicate sum
    with the entries, in the order, of the all-vertex scatter.  The columns
    are then renumbered, and gauged columns and exact zeros dropped, in one
    pass.
    """
    _check_counts(mesh, materials)
    coef = materials.conductivity * mesh.depth * mesh.areas
    n = mesh.n_vertices
    hot = np.zeros(n, dtype=bool)
    hot[mesh.triangles[coef != 0.0]] = True
    near = np.take(hot, mesh.triangles)
    kept = np.flatnonzero(near[:, 0] | near[:, 1] | near[:, 2])
    tri = np.take(mesh.triangles, kept, axis=0)
    # entry (t, i, j), t-major: row tri[t, i], column tri[t, j]
    rows = np.repeat(np.take(dof_map, tri), 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    local = np.multiply.outer(np.take(coef, kept), _MASS_PATTERN.ravel()).ravel()
    on = np.flatnonzero(rows >= 0)
    n_dofs = int(np.count_nonzero(dof_map >= 0))
    mat = sp.coo_matrix((np.take(local, on), (np.take(rows, on), np.take(cols, on))),
                        shape=(n_dofs, n)).tocsr()
    dofs = np.take(dof_map, mat.indices)
    keep = (dofs >= 0) & (mat.data != 0.0)
    indptr = np.concatenate([[0], np.cumsum(keep)])[mat.indptr]
    return sp.csr_matrix((mat.data[keep], dofs[keep], indptr), shape=(n_dofs, n_dofs))


def assemble_mass(mesh: TriMesh, materials: MaterialMap) -> sp.csr_matrix:
    """Conductivity mass matrix (consistent P1 mass, not lumped).

    Rows of vertices touched only by non-conducting triangles are exactly
    zero; explicit zeros are pruned so those rows stay structurally empty.
    Only the triangles that share a vertex with a conducting triangle are
    scattered: every triangle at a conducting vertex is among them, in mesh
    order, so that vertex's row receives the same entries in the same order
    as from a scatter of all triangles, and the per-row sort and duplicate
    sum of the CSR conversion give the same bits.  The rows of the other
    scattered vertices hold only zeros, which are pruned.
    """
    return _mass(mesh, materials, np.arange(mesh.n_vertices))


def assemble_winding(mesh: TriMesh, windings, materials: MaterialMap) -> np.ndarray:
    """Winding matrix: one column per winding, rows over mesh vertices.

    Column k discretizes the winding function, which is s * N_k / A_k on the
    winding's triangles and zero elsewhere, with A_k the summed area of those
    triangles; each triangle contributes s * (N_k / A_k) * depth * area / 3
    to its three vertices.  Winding regions are required to be
    non-conducting (stranded conductors carry no eddy currents in this
    model).
    """
    windings = list(windings)
    x = np.zeros((mesh.n_vertices, len(windings)))
    for k, w in enumerate(windings):
        if w.triangles.size and w.triangles.max() >= mesh.n_triangles:
            raise MeshError(f"winding {w.name!r}: triangle index out of range")
        if np.any(materials.conductivity[w.triangles] > 0.0):
            raise MeshError(f"winding {w.name!r} overlaps conducting triangles")
        area = float(mesh.areas[w.triangles].sum())
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

    One field operator: the energy 0.5 (G a)^T C (G a) with ``element_map`` G
    and C = diag([coef; coef]), its gradient ``gradient_map`` (G a) with
    ``gradient_map`` = G^T C, and its Hessian ``stiffness`` K = (G^T C) G.
    ``stiffness`` and ``mass`` act on interior (gauged) unknowns;
    ``winding_matrix`` maps winding currents to interior load contributions.
    ``dof_map[v]`` is the interior index of vertex v, or -1 on the boundary.
    """

    mesh: TriMesh
    materials: MaterialMap
    windings: list
    element_map: sp.csr_matrix
    coef: np.ndarray
    gradient_map: sp.csr_matrix
    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    winding_matrix: np.ndarray
    dof_map: np.ndarray

    @property
    def n_dofs(self) -> int:
        return self.stiffness.shape[0]

    @property
    def n_windings(self) -> int:
        return self.winding_matrix.shape[1]

    def energy(self, a: np.ndarray, grad: np.ndarray | None = None) -> float:
        """Stored magnetic energy of an interior solution vector, summed per
        element: 0.5 a^T K a without its cancellation.  The residual takes the
        gradient of this same sum, :meth:`energy_gradient`, at a state.
        ``grad`` is G a where the caller has it."""
        if grad is None:
            grad = self.element_map @ a
        gx, gy = grad[:self.coef.size], grad[self.coef.size:]
        return 0.5 * float(self.coef @ (gx * gx + gy * gy))

    def energy_gradient(self, a: np.ndarray, grad: np.ndarray | None = None) -> np.ndarray:
        """Gradient (G^T C)(G a) of :meth:`energy`: K a without K's
        cancellation; ``grad`` is G a where the caller has it."""
        return self.gradient_map @ (self.element_map @ a if grad is None else grad)


def factor_spd(matrix: sp.csc_matrix):
    """SuperLU factorization of a sparse symmetric positive definite matrix.

    The ordering is minimum degree on the pattern of A^T + A and every pivot
    is taken from the diagonal, so the factors keep the symmetric structure
    and the fill of a Cholesky factor.  No row exchanges are needed: every
    Schur complement of an SPD matrix is again SPD, so every diagonal pivot
    is positive.
    """
    return splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def build_field_model(mesh: TriMesh, materials: MaterialMap, windings) -> FieldModel:
    """The device model gauged to a = 0 on the boundary vertices.

    K = (G^T C) G is definite exactly when every coef is positive and every
    interior vertex is connected to the gauge, which is decided from the
    inputs, not by a solve.  :class:`GaugeError` rejects a part of the
    triangles' vertex graph (or a vertex in no triangle) with no gauge
    vertex, a coef = nu * depth * area that is 0 or not finite in binary64,
    and a G or K that is not finite; a badly conditioned mesh is accepted.
    :class:`MeshError` rejects a sigma * depth * area that is not finite.

    Everything is built once, from whole arrays: G and coef, G^T C and K,
    the mass M and the winding matrix.  Each array is formed from the
    triangles that contribute to it (M from those at a conducting vertex, see
    :func:`assemble_mass`), and each keeps the bits of the all-triangle
    assembly: the same products, summed in the same order.  The stored
    ``element_map`` is G without its exact zeros.
    """
    n, m = mesh.n_vertices, mesh.n_triangles
    free = np.ones(n, dtype=bool)
    free[mesh.boundary_vertices] = False
    interior = np.flatnonzero(free)
    dof_map = np.full(n, -1, dtype=np.int64)
    dof_map[interior] = np.arange(interior.size)

    g = _element_map(mesh, dof_map)
    # the graph of the unknowns and G's x rows, row t linked to triangle t's
    # unknowns, connects two unknowns exactly when a triangle path through
    # interior vertices does; a part is gauged where one of its triangles
    # has a gauge vertex, so fewer than three unknowns
    n_dofs, ends = interior.size, g.indptr[:m + 1]
    starts = np.concatenate([np.zeros(n_dofs, dtype=ends.dtype), ends])
    links = sp.csr_matrix((np.ones(ends[-1]), g.indices[:ends[-1]], starts),
                          shape=(n_dofs + m,) * 2)
    n_parts, part = connected_components(links, directed=False)
    gauged = np.zeros(n_parts, dtype=bool)
    gauged[part[n_dofs + np.flatnonzero(np.diff(ends) < 3)]] = True
    loose = interior[~gauged[part[:n_dofs]]]
    if loose.size:
        raise GaugeError(f"gauged stiffness matrix is singular: {loose.size} interior vertices "
                         f"share no triangle path with the gauge, e.g. {loose[:10].tolist()}")
    coef = _reluctivity_coef(mesh, materials)
    bad = np.flatnonzero(~(np.isfinite(coef) & (coef > 0.0)))
    if bad.size:
        raise GaugeError(f"gauged stiffness matrix is singular in binary64: nu * depth * area "
                         f"is zero or not finite on {bad.size} triangles, e.g. {bad[:10].tolist()}")
    gradient_map, stiffness = _gradient_and_stiffness(g, coef)
    if not (np.all(np.isfinite(g.data)) and np.all(np.isfinite(stiffness.data))):
        raise GaugeError("gauged stiffness matrix is not finite in binary64: "
                         "basis gradients or their products overflow")
    with np.errstate(over="ignore"):
        bad = np.flatnonzero(~np.isfinite(materials.conductivity * mesh.depth * mesh.areas))
    if bad.size:
        raise MeshError(f"conductivity mass matrix is not finite in binary64: sigma * depth * "
                        f"area overflows on {bad.size} triangles, e.g. {bad[:10].tolist()}")
    mass = _mass(mesh, materials, dof_map)
    winding_matrix = assemble_winding(mesh, windings, materials)[interior]
    # a third of G's entries on the built-in mesh are exact zeros: for a
    # finite a each adds +-0 to a sum begun at +0, so G a keeps its bits
    g.eliminate_zeros()
    return FieldModel(mesh=mesh, materials=materials, windings=list(windings),
                      element_map=g, coef=coef, gradient_map=gradient_map,
                      stiffness=stiffness, mass=mass, winding_matrix=winding_matrix,
                      dof_map=dof_map)


def boundary_vertices_of(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Vertices on edges that belong to exactly one triangle.

    Each edge (lo, hi), lo < hi, is counted under the one integer key
    lo * n + hi, with n the number of vertices: sorted, a key that equals
    neither neighbour occurs once.
    """
    n = vertices.shape[0]
    tri = np.asarray(triangles, dtype=np.int64)
    heads = tri.ravel()
    tails = tri[:, [1, 2, 0]].ravel()
    keys = np.minimum(heads, tails)
    keys *= n
    keys += np.maximum(heads, tails)
    keys.sort()
    repeated = keys[1:] == keys[:-1]
    once = np.ones(keys.size, dtype=bool)
    once[1:] &= ~repeated
    once[:-1] &= ~repeated
    edges = keys[once]
    return np.unique(np.concatenate([edges // n, edges % n]))


def rect_mesh(nx: int, ny: int, width: float, height: float, depth: float = 1.0) -> TriMesh:
    """Structured triangulation of [0, width] x [0, height].

    Each grid cell is split along its lower-left/upper-right diagonal into
    two positively oriented triangles; vertices are numbered row-major, and
    cell (i, j) with lower-left vertex v00 gives the triangles
    (v00, v10, v11) and (v00, v11, v01), cells in row-major order.  The
    boundary is the perimeter of the vertex grid, which is where the edges
    that belong to one triangle lie.
    """
    if nx < 1 or ny < 1:
        raise MeshError("rect_mesh needs at least one cell per direction")
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    xg, yg = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([xg.ravel(), yg.ravel()])

    v00 = (np.arange(ny, dtype=np.int64)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    v10, v01 = v00 + 1, v00 + (nx + 1)
    v11 = v01 + 1
    triangles = np.column_stack([v00, v10, v11, v00, v11, v01]).reshape(-1, 3)
    # the perimeter of the vertex grid, in increasing order: the bottom row,
    # the two ends of every row between, and the top row
    sides = np.arange(1, ny, dtype=np.int64)[:, None] * (nx + 1) + np.array([0, nx])
    boundary = np.concatenate([np.arange(nx + 1), sides.ravel(), ny * (nx + 1) + np.arange(nx + 1)])
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
    triangles), otherwise the mesh is rejected as too coarse.  A density so
    fine that the (n+1)^2 vertices of the n x n cells outnumber
    :data:`MAX_VERTICES` is rejected before anything is allocated.
    """
    if not h > 0:
        raise MeshError("mesh density must be positive")
    size = params.domain_size
    cells = size / h
    # vertices per side; the product is exact up to the bound and inf past
    # the largest float
    side = round(cells) + 1.0 if math.isfinite(cells) else math.inf
    if side * side > MAX_VERTICES:
        raise MeshError(f"mesh density h={h!r} too fine: {side * side:.4g} vertices "
                        f"({side:.4g} per side), more than the {MAX_VERTICES} that int32 "
                        f"indices can address")
    n = int(side) - 1
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

    # a region per distinct (nu, sigma, winding, orientation), numbered in
    # order of first appearance; the values written are the first's
    keys = np.column_stack([materials.reluctivity, materials.conductivity,
                            tri_winding, tri_orient])
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    tri_region = rank[inverse.reshape(-1)]
    firsts = first[order]

    lines = [f"depth {mesh.depth:.17g}", f"vertices {mesh.n_vertices}"]
    lines += [f"{x:.17g} {y:.17g}" for x, y in mesh.vertices.tolist()]
    lines.append(f"triangles {mesh.n_triangles}")
    lines += [f"{i} {j} {k} {r}"
              for i, j, k, r in np.column_stack([mesh.triangles, tri_region]).tolist()]
    lines.append(f"regions {firsts.size}")
    lines += [f"{rid} {nu:.17g} {sg:.17g} {w} {o}" for rid, (nu, sg, w, o) in enumerate(zip(
        materials.reluctivity[firsts].tolist(), materials.conductivity[firsts].tolist(),
        tri_winding[firsts].tolist(), tri_orient[firsts].tolist()))]
    lines.append(f"windings {len(windings)}")
    lines += [f"{k} {w.turns:.17g}" for k, w in enumerate(windings)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_mesh(text: str):
    """Parse the mesh text format; returns (mesh, materials, windings).

    The vertex and triangle sections are each converted by one array read of
    their lines.  Where that read fails or finds anything but the expected
    rows (a comment or blank line among them, a token numpy does not read,
    a malformed line), the section is read again token by token, which
    accepts what Python's ``int`` and ``float`` accept and names the first
    bad token with its line.
    """
    lines = text.splitlines()
    pos = 0  # index in ``lines`` of the next line to read

    def next_content():
        """(line number, tokens) of the next line with content, or None."""
        nonlocal pos
        while pos < len(lines):
            pos += 1
            toks = lines[pos - 1].split("#", 1)[0].split()
            if toks:
                return pos, toks
        return None

    def take():
        entry = next_content()
        if entry is None:
            raise MeshError("unexpected end of mesh file")
        return entry

    def header(key):
        """(line number, value token) of the section header ``key <value>``."""
        lineno, toks = take()
        if toks[0].lower() != key:
            raise MeshError(f"line {lineno}: expected '{key}', got {toks[0]!r}")
        if len(toks) < 2:
            raise MeshError(f"line {lineno}: '{key}' needs a value")
        if len(toks) > 2:
            raise MeshError(f"line {lineno}: '{key}' takes exactly one value, "
                            f"got {len(toks) - 1}")
        return lineno, toks[1]

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

    def count(key):
        """The entry count of the section header ``key <count>``."""
        lineno, token = header(key)
        n = as_int(lineno, token)
        if n < 0:
            raise MeshError(f"line {lineno}: '{key}' count must be non-negative, got {n}")
        if n > len(lines) - lineno:
            raise MeshError(f"line {lineno}: '{key}' count {n} exceeds the {len(lines) - lineno} "
                            f"line(s) after it")
        return n

    def rows(n, width, dtype, convert, message):
        """The next n content lines, ``width`` finite numbers each, as an (n,
        width) array: one read of the next n lines, or token by token."""
        nonlocal pos
        block = lines[pos:pos + n]
        # the next n lines are the n rows only if each holds content: the
        # read checks that by its row count, and the first line here, since
        # loadtxt warns on a block without any
        if n and len(block) == n and block[0].split("#", 1)[0].split():
            try:
                values = np.loadtxt(block, dtype=dtype, comments="#", ndmin=2)
            except (ValueError, OverflowError):
                values = None
            if values is not None and values.shape == (n, width) and np.isfinite(values).all():
                pos += n
                return values
        values = np.empty((n, width), dtype=dtype)
        for row in range(n):
            lineno, toks = take()
            if len(toks) != width:
                raise MeshError(f"line {lineno}: {message}")
            try:
                values[row] = [convert(lineno, s) for s in toks]
            except OverflowError:
                raise MeshError(f"line {lineno}: {' '.join(toks)!r} has an integer out of "
                                f"the {np.dtype(dtype)} range") from None
        return values

    depth = as_float(*header("depth"))
    vertices = rows(count("vertices"), 2, np.float64, as_float,
                    "vertex needs two coordinates")
    entries = rows(count("triangles"), 4, np.int64, as_int,
                   "triangle needs three vertices and a region")
    triangles, tri_region = entries[:, :3], entries[:, 3]

    n_r = count("regions")
    region_table = {}
    for _ in range(n_r):
        lineno, toks = take()
        if len(toks) != 5:
            raise MeshError(f"line {lineno}: region needs id, nu, sigma, winding, orientation")
        rid = as_int(lineno, toks[0])
        if rid in region_table:
            raise MeshError(f"line {lineno}: region {rid} declared twice")
        region_table[rid] = (as_float(lineno, toks[1]), as_float(lineno, toks[2]),
                             as_int(lineno, toks[3]), as_int(lineno, toks[4]))

    n_w = count("windings")
    turns = {}
    for _ in range(n_w):
        lineno, toks = take()
        if len(toks) != 2:
            raise MeshError(f"line {lineno}: winding needs id and turns")
        wid = as_int(lineno, toks[0])
        if wid in turns:
            raise MeshError(f"line {lineno}: winding {wid} declared twice")
        turns[wid] = as_float(lineno, toks[1])

    extra = next_content()
    if extra is not None:
        raise MeshError(f"line {extra[0]}: expected the end of the file after the windings, "
                        f"got {extra[1][0]!r}")

    # the regions the triangles use, each looked up once
    used, which = np.unique(tri_region, return_inverse=True)
    used = used.tolist()
    missing = [r for r in used if r not in region_table]
    if missing:
        raise MeshError(f"triangles reference undeclared regions {missing}")
    props = [region_table[r] for r in used]

    def per_triangle(values, dtype=float):
        return np.array(values, dtype=dtype)[which]

    materials = MaterialMap(reluctivity=per_triangle([p[0] for p in props]),
                            conductivity=per_triangle([p[1] for p in props]))

    boundary = boundary_vertices_of(vertices, triangles)
    mesh = TriMesh(vertices=vertices, triangles=triangles,
                   boundary_vertices=boundary, depth=depth)

    windings = []
    for wid in sorted(turns):
        ours = [p[2] == wid for p in props]
        tris = np.flatnonzero(per_triangle(ours, dtype=bool))
        if tris.size == 0:
            raise MeshError(f"winding {wid} has no triangles")
        # only the winding's own regions have an orientation to read; one
        # other than +-1 is an error (Winding), clipped first to one a float holds
        orientation = per_triangle([min(max(p[3], -2), 2) if mine else 0
                                    for p, mine in zip(props, ours)])
        windings.append(Winding(name=f"w{wid}", triangles=tris,
                                orientation=orientation[tris], turns=turns[wid]))
    undeclared = {p[2] for p in props} - {-1} - set(turns)
    if undeclared:
        raise MeshError(f"regions reference undeclared windings {sorted(undeclared)}")
    return mesh, materials, windings


def load_mesh(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_mesh(fh.read())
