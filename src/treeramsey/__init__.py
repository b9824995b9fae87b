"""treeramsey: colorings on binary-tree leaves, ordered hypergraph
families, and partial Steiner systems for tower-type avoidance and
containment experiments."""

from .trees import (
    LeafSet,
    Shape,
    ShapeKind,
    TreeParams,
    ancestor_level,
    classify,
    consecutive_levels,
    projection,
    split_parts,
)
from .colorings import (
    BINARY,
    Z4,
    BaseColoring,
    CliqueWitness,
    ColoringTower,
    SteppedColoring,
    build_tower,
    export_coloring,
    import_coloring,
    read_coloring,
    reflect_set,
    search_base_coloring,
    verify_no_mono_clique,
    write_coloring,
)
from .families import (
    FLAVOR_F,
    FLAVOR_G,
    FLAVOR_REVF,
    FLAVOR_REVG,
    FamilySpec,
    MemberBlueprint,
    OrderedHypergraph,
    canonical_member,
    canonical_separated,
    enumerate_blueprints,
    is_member,
    is_separated,
    member_edge_count,
    member_vertex_count,
    realize_blueprint,
    reverse,
)
from .search import (
    AvoidanceReport,
    MonoCopyWitness,
    SearchBudget,
    SearchOutcome,
    contains_family_member,
    find_mono_f_copy,
    find_ordered_copy,
    validate_witness,
    verify_stepup_avoidance,
)
from .steiner import (
    BlowupSystem,
    MonteCarloReport,
    ProjectivePlane,
    SteinerSystem,
    SteinerWitness,
    assemble_h,
    build_blowup,
    build_projective_plane,
    is_partial_steiner,
    next_prime_at_least,
    ordering_as_hypergraph,
    sample_ordering_and_search,
    validate_projective_plane,
)
from .reporting import RunManifest, tower

__version__ = "0.1.0"
