"""Causal effect identification from partial ancestral graphs.

Decides identifiability of interventional distributions given a PAG and, when
identifiable, emits a closed-form symbolic expression over the observational
distribution.  Ships the DAG-side identification algorithm, a generalized
adjustment criterion, and a brute-force equivalence-class oracle for
end-to-end numeric verification.
"""

from .adjustment import adjust_set, adjustment_formula, forbidden_set, gac
from .exprs import (
    Conditional,
    Const,
    DistRef,
    Expr,
    JointTable,
    Product,
    Quotient,
    SumOver,
    evaluate,
    evaluate_table,
    render_latex,
    render_text,
    simplify,
)
from .graphs import (
    ARROW,
    CIRCLE,
    TAIL,
    EdgeMark,
    LatentDag,
    Mag,
    MixedGraph,
    Pag,
    induced_subgraph,
    mag_of_dag,
    possible_ancestors,
    possible_descendants,
)
from .ident_dag import c_components, id_dag, q_reduce
from .ident_pag import bucket_identifiable, idp, q_reduce_bucket
from .oracle import (
    Scm,
    canonical_dag_of_mag,
    class_of_dag,
    equivalence_class,
    joint,
    pag_of_class,
    random_latent_dag,
    random_scm,
    truncated,
)
from .separation import d_separated, definitely_m_separated, m_separated
from .structure import (
    PartialOrder,
    buckets,
    cpc_components,
    dc_component,
    pc_component,
    possible_children,
    pto,
    visible_edges,
)

__version__ = "0.1.0"
