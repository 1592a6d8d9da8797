"""Tropical (min-plus) semiring algebra, dense and density-priced sparse.

The dense product is served by a registry of in-process kernels
(:mod:`repro.semiring.kernels`): ``minplus(a, b, kernel=...)`` dispatches
to the reference ``broadcast`` kernel, the cache-``tiled`` kernel or the
``int-repack`` kernel.  ``use_kernel("tiled")`` / the
``REPRO_MINPLUS_KERNEL`` environment variable fix the choice
process-wide.
"""

from .minplus import (
    INF,
    RowSparse,
    filter_with_zero_diagonal,
    filtered_power_rows,
    filtered_power_rows_sparse,
    hop_power_row_sparse,
    k_smallest_in_rows,
    row_sparse_from_dense,
)
from .sparse import SparseProductResult, density, embed, sparse_minplus

# Imported *after* ``.minplus`` on purpose: loading the ``minplus``
# submodule binds the package attribute ``repro.semiring.minplus`` to the
# module object; re-importing from ``.kernels`` afterwards rebinds the
# public name to the dispatcher function (the historical API).
from .kernels import (
    AUTO,
    auto_kernel,
    KERNEL_ENV,
    KernelSpec,
    current_kernel_pin,
    get_kernel,
    iter_kernels,
    kernel_names,
    minplus,
    minplus_gather,
    minplus_power,
    minplus_square,
    register_kernel,
    resolve_kernel,
    use_kernel,
)

__all__ = [
    "AUTO",
    "auto_kernel",
    "current_kernel_pin",
    "INF",
    "KERNEL_ENV",
    "KernelSpec",
    "RowSparse",
    "SparseProductResult",
    "density",
    "embed",
    "filter_with_zero_diagonal",
    "filtered_power_rows",
    "filtered_power_rows_sparse",
    "get_kernel",
    "hop_power_row_sparse",
    "iter_kernels",
    "k_smallest_in_rows",
    "kernel_names",
    "minplus",
    "minplus_gather",
    "minplus_power",
    "minplus_square",
    "register_kernel",
    "resolve_kernel",
    "row_sparse_from_dense",
    "sparse_minplus",
    "use_kernel",
]
