"""moa: shape-polymorphic array algebra and an expression compiler.

Arrays are shapes plus row-major buffers.  Expressions over named arrays
(outer products, axis permutations, reshapes, Kronecker products) normalize
to per-element read plans and lower to affine loop nests partitioned over
virtual processors, without ever materializing intermediates.
"""

from .arrays import (
    DenseArray,
    OpCounters,
    counters,
    element,
    flatten,
    psi,
    reshape,
)
from .dyadics import dyad, projector_parallel, spectral_reconstruct
from .errors import (
    BoundsError,
    DomainError,
    EvaluationError,
    LoweringError,
    MoaError,
    ParseError,
    PartitionError,
    PlanError,
    ShapeError,
)
from .exprs import (
    OPS,
    Combine,
    ExprNode,
    Kron,
    Leaf,
    LeafRead,
    Outer,
    Reshape,
    ScalarReadPlan,
    TransposeG,
    apply_op,
    eval_element,
    evaluate_plan,
    fold_plan,
    infer_shape,
    leaves,
    materialize,
    psi_reduce,
)
from .kron import kron_desugar, kron_entry, multi_kron
from .lowering import (
    Affine,
    FlatWrite,
    LoopPlan,
    LoopSpec,
    execute_plan,
    flatten_operands,
    lower,
    plan_from_json,
    plan_to_json,
)
from .parser import parse
from .permute import transpose_general, transpose_matrix
from .shapes import (
    concat,
    gradeup,
    pi,
    ravel_rowmajor,
    select,
    unravel_rowmajor,
)
from .verify import builtin_env, builtin_grid, materialize_stepwise, run_suites

# An ONF loop body is the DNF read/op IR with Affine offsets.
FlatRead = LeafRead
OpExpr = Combine

__version__ = "0.1.0"

__all__ = [
    "Affine",
    "BoundsError",
    "Combine",
    "DenseArray",
    "DomainError",
    "EvaluationError",
    "ExprNode",
    "FlatRead",
    "FlatWrite",
    "Kron",
    "Leaf",
    "LeafRead",
    "LoopPlan",
    "LoopSpec",
    "LoweringError",
    "MoaError",
    "OPS",
    "OpCounters",
    "OpExpr",
    "Outer",
    "ParseError",
    "PartitionError",
    "PlanError",
    "Reshape",
    "ScalarReadPlan",
    "ShapeError",
    "TransposeG",
    "apply_op",
    "builtin_env",
    "builtin_grid",
    "concat",
    "counters",
    "dyad",
    "element",
    "eval_element",
    "evaluate_plan",
    "execute_plan",
    "flatten",
    "flatten_operands",
    "fold_plan",
    "gradeup",
    "infer_shape",
    "kron_desugar",
    "kron_entry",
    "leaves",
    "lower",
    "materialize",
    "materialize_stepwise",
    "multi_kron",
    "parse",
    "pi",
    "plan_from_json",
    "plan_to_json",
    "projector_parallel",
    "psi",
    "psi_reduce",
    "ravel_rowmajor",
    "reshape",
    "run_suites",
    "select",
    "spectral_reconstruct",
    "transpose_general",
    "transpose_matrix",
    "unravel_rowmajor",
]
