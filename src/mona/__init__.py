"""Field-circuit co-simulation with magnetic-oriented nodal analysis.

Lumped circuits are formulated in magnetic node potentials and branch
charges, a 2D finite-element eddy-current device couples in through its
winding matrix, and an implicit midpoint integrator preserves the discrete
power balance of the coupled system, which is audited at every step.
"""

from .circuit import (
    CircuitGraph,
    DiodeParams,
    NetlistElement,
    TopologyReport,
    build_incidence,
    circuit_energy,
    validate_topology,
)
from .coupling import (
    BlockLayout,
    CompactForm,
    CoupledSystem,
    PowerBreakdown,
    assemble_coupled,
)
from .errors import (
    ConsistencyError,
    GaugeError,
    MeshError,
    MonaError,
    NetlistError,
    SolverError,
    TopologyError,
)
from .fem import (
    FieldModel,
    MaterialMap,
    TransformerParams,
    TriMesh,
    Winding,
    assemble_mass,
    assemble_stiffness,
    assemble_winding,
    build_field_model,
    generate_transformer_mesh,
    load_mesh,
    parse_mesh,
    rect_mesh,
    save_mesh,
)
from .netlist import ParsedNetlist, parse_netlist
from .probes import compile_probe, default_state_probe, parse_probe_spec
from .sources import Waveform
from .stepping import (
    EocRow,
    FactorCache,
    NewtonStats,
    StepOperator,
    StepRecord,
    StepState,
    TimeGrid,
    TransientResult,
    convergence_study,
    midpoint_step,
    newton_solve,
    power_audit,
    run_transient,
)

__version__ = "0.1.0"
