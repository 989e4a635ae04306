"""Lowering an expression to an affine loop plan.

Lowering compiles the structure away entirely: what remains is a nest of
counted loops, reads of the flattened input buffers at offsets that are
affine in the loop variables, and one row-major write per iteration.
Adjacent loops whose access strides chain are coalesced, so a double
outer product over a 2x2 and a 3x3 matrix becomes three clean loops of
extents 4, 9, 4 rather than six loops over the raw axes.

The plan's virtual processor count must divide the outermost loop extent;
each processor then owns a contiguous slab of the output, which makes the
parallel schedule deterministic down to the bit.  A parallel run hands the
slabs to threads only when each holds at least PARALLEL_MIN_SLAB elements;
smaller plans run them in order, since threads would cost more than the work.
"""

import numpy as np

from moa import (
    DenseArray,
    Leaf,
    Outer,
    PartitionError,
    execute_plan,
    flatten_operands,
    lower,
    materialize,
    plan_to_json,
)
from moa.lowering import PARALLEL_MIN_SLAB

A = DenseArray.from_nested([[1.0, 2.0], [3.0, 4.0]])
B = DenseArray.from_nested([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
env = {"A": A, "B": B}

a, b = Leaf("A", A.shape), Leaf("B", B.shape)
expr = Outer("mul", Outer("mul", a, b), a)
print("expression shape:", expr.shape)

plan = lower(expr, procs=4)
print("\nplan at procs=4:")
print(plan_to_json(plan))

buffers = flatten_operands(env)
out = execute_plan(plan, buffers)
print("\nplan output equals brute-force evaluation:", out == materialize(expr, env))

in_order = execute_plan(plan, buffers, parallel=True)
slab = out.size // plan.procs
print(f"parallel run (slabs of {slab}, run in order) is bit-identical:", in_order.data == out.data)

# slabs of PARALLEL_MIN_SLAB elements or more go to a thread pool
rng = np.random.default_rng(0)
u, v = rng.standard_normal(2), rng.standard_normal(PARALLEL_MIN_SLAB)
big = lower(Outer("add", Leaf("U", u.shape), Leaf("V", v.shape)), procs=2)
big_buffers = flatten_operands({"U": DenseArray.from_numpy(u), "V": DenseArray.from_numpy(v)})
threaded = execute_plan(big, big_buffers, parallel=True).to_numpy()
in_order = execute_plan(big, big_buffers).to_numpy()
print(
    f"threaded run (slabs of {PARALLEL_MIN_SLAB}) is bit-identical:",
    threaded.tobytes() == in_order.tobytes(),
)

# processor counts that do not divide the outer loop are rejected up front
try:
    lower(expr, procs=5)
except PartitionError as exc:
    print("\nprocs=5 is rejected:", exc)
    print("valid nontrivial counts:", exc.valid)
