"""moa: shape-polymorphic array algebra and an expression compiler.

Arrays are shapes plus row-major buffers.  Expressions over named arrays
(outer products, axis permutations, reshapes, Kronecker products) normalize
to per-element read plans and lower to affine loop nests partitioned over
virtual processors, without ever materializing intermediates.

The names from verify, dyadics, kron and permute load with their module on
first access (PEP 562), so `import moa` and the CLI, which never uses them,
do not pay for compiling them.
"""

import importlib

from .arrays import (
    DenseArray,
    OpCounters,
    counters,
    element,
    flatten,
    psi,
    reshape,
)
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
    SizeError,
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
from .shapes import (
    concat,
    gradeup,
    pi,
    ravel_rowmajor,
    select,
    unravel_rowmajor,
)

# name -> the module that defines it, imported on first access
_LAZY = {
    "builtin_env": "verify",
    "builtin_grid": "verify",
    "materialize_stepwise": "verify",
    "run_suites": "verify",
    "dyad": "dyadics",
    "projector_parallel": "dyadics",
    "spectral_reconstruct": "dyadics",
    "kron_desugar": "kron",
    "kron_entry": "kron",
    "multi_kron": "kron",
    "transpose_general": "permute",
    "transpose_matrix": "permute",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + _LAZY[name], __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})

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
    "SizeError",
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
