"""Pluggable min-plus (tropical) matmul kernels — the repo's hot path.

Every algorithm in the reproduction bottoms out in a dense min-plus
product: filtered powers (Section 5), skeleton products (Lemma 6.2 via
[CDKL21]), hopset limits, the exact baseline.  This module is the single
home of that product: a registry of interchangeable kernel
implementations behind one :func:`minplus` entry point, mirroring the
variant registry of :mod:`repro.core.registry`.

Registered kernels (all bit-identical on the same inputs):

``broadcast``
    The original reference: row-blocked numpy broadcasting with
    ``(block, k, m)`` temporaries.  Fastest below ``n ~ 200`` where the
    temporary fits in cache anyway.
``tiled``
    Two-axis (row x column) cache-tiled product.  Temporaries are bounded
    by a memory budget (``O(block^2 * k)`` elements instead of
    ``O(block * k * m)``), column tiles are copied contiguous, and the
    scratch buffer is reused across tiles.  ~2.5-3x the reference at
    ``n = 512``.
``int-repack``
    Detects integer-valued inputs, maps ``inf`` to a safe sentinel, and
    runs the tiled product in float32 (half the memory bandwidth) or
    int64, whichever is exact for the value range; falls back to
    ``tiled`` for non-integer or oversized inputs.  Bit-identical to the
    float64 reference because every sum stays exactly representable.

All three run in the calling process.

Selection precedence in :func:`minplus`:

1. the explicit ``kernel=...`` argument,
2. the ambient :func:`use_kernel` context (how ``SolverConfig.kernel``
   reaches the hot path),
3. the ``REPRO_MINPLUS_KERNEL`` environment variable,
4. :func:`resolve_kernel` auto-selection: ``int-repack`` for
   integer-valued matrices, else ``tiled`` for large inputs, else
   ``broadcast``.

This module is a *leaf*: it imports nothing from the rest of the package
(numpy only), so both :mod:`repro.semiring` and :mod:`repro.graphs` may
depend on it without cycles.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

INF = np.inf

#: Environment variable overriding kernel auto-selection (lowest-priority
#: explicit choice; see module docstring for the full precedence).
KERNEL_ENV = "REPRO_MINPLUS_KERNEL"

#: Name accepted everywhere a kernel name is accepted: defer to auto-selection.
AUTO = "auto"

#: Default temporary-buffer budget (bytes) for the tiled kernels.  Sized so
#: the scratch tile stays L2/L3-resident; override per call.
DEFAULT_MEMORY_BUDGET = 32 * 2**20

#: Smallest max-dimension at which tiling beats plain broadcasting (below
#: this the broadcast temporary is cache-resident already).
TILED_MIN_DIM = 192

#: Integer magnitudes up to this bound survive a float32 round-trip exactly
#: (sums of two entries stay <= 2^24, the float32 exact-integer limit).
_FLOAT32_EXACT_MAX = float(2**23)

#: Integer magnitudes up to this bound keep float64 *sums* exact (< 2^52),
#: so the int64 path stays bit-identical to the float64 reference.
_INT_EXACT_MAX = float(2**51)

#: Sentinel standing in for ``inf`` on the int64 path.  Any sum touching a
#: sentinel lands strictly above ``_INT_INF_THRESHOLD``; any finite sum
#: stays strictly below it (given ``_INT_EXACT_MAX``); no overflow occurs.
_INT_SENTINEL = np.int64(2**60)
_INT_INF_THRESHOLD = np.int64(2**59)


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class KernelSpec:
    """One registered min-plus product implementation.

    ``func(a, b, block, memory_budget, out) -> result`` receives
    validated float64 arrays with agreeing inner dimensions and must
    return the exact tropical product (bit-identical to the reference
    kernel).  ``out`` is an optional preallocated float64 destination
    (never aliasing the operands); a kernel may write into it and return
    it, or ignore it and return a fresh array — the dispatcher copies
    into ``out`` when the kernel didn't.
    """

    name: str
    func: Callable[..., np.ndarray]
    summary: str


_KERNELS: Dict[str, KernelSpec] = {}


def register_kernel(name: str, *, summary: str) -> Callable[[Callable], Callable]:
    """Decorator registering one kernel implementation under ``name``."""

    def decorator(func: Callable) -> Callable:
        if name in _KERNELS or name == AUTO:
            raise ValueError(f"kernel {name!r} is already registered")
        _KERNELS[name] = KernelSpec(name=name, func=func, summary=summary)
        return func

    return decorator


def get_kernel(name: str) -> KernelSpec:
    """Look up one registered kernel; ``ValueError`` on unknown names."""
    try:
        return _KERNELS[name]
    except KeyError:
        raise ValueError(
            f"unknown min-plus kernel {name!r}; "
            f"registered: {', '.join(_KERNELS)} (or {AUTO!r})"
        ) from None


def kernel_names() -> Tuple[str, ...]:
    """All registered kernel names, in registration order."""
    return tuple(_KERNELS)


def iter_kernels() -> Iterator[KernelSpec]:
    """Iterate the registered specs in registration order."""
    return iter(tuple(_KERNELS.values()))


# --------------------------------------------------------------------- #
# Ambient kernel choice (context + environment)
# --------------------------------------------------------------------- #

_ambient_kernel: ContextVar[Optional[str]] = ContextVar(
    "repro_minplus_kernel", default=None
)


@contextmanager
def use_kernel(name: Optional[str]) -> Iterator[None]:
    """Context manager fixing the kernel for every :func:`minplus` inside.

    ``None`` and ``"auto"`` leave auto-selection in charge.  The setting
    is a :class:`~contextvars.ContextVar`, so concurrent solver threads
    (``ApspSolver.solve_many``) each see only their own choice.
    """
    if name is not None and name != AUTO:
        get_kernel(name)  # fail fast on unknown names
    token = _ambient_kernel.set(name)
    try:
        yield
    finally:
        _ambient_kernel.reset(token)


def current_kernel_pin() -> Optional[str]:
    """The explicit ambient kernel pin, if any.

    Resolves the non-input-dependent part of the :func:`resolve_kernel`
    precedence — the :func:`use_kernel` context, then the
    ``REPRO_MINPLUS_KERNEL`` environment variable — and returns the pinned
    kernel's canonical name, or ``None`` when auto-selection is in charge.
    ``ApspSolver.solve_many`` captures this in the submitting process and
    re-applies it inside executor workers (thread contexts and spawned
    processes do not inherit the caller's :class:`~contextvars.ContextVar`).
    """
    for choice in (_ambient_kernel.get(), os.environ.get(KERNEL_ENV)):
        if choice is not None and choice != "" and choice != AUTO:
            return get_kernel(choice).name
    return None


def _is_integral(matrix: np.ndarray) -> bool:
    finite = np.isfinite(matrix)
    return bool(np.all(np.floor(matrix[finite]) == matrix[finite]))


def _max_abs_finite(matrix: np.ndarray) -> float:
    finite = np.isfinite(matrix)
    if not finite.any():
        return 0.0
    return float(np.abs(matrix[finite]).max())


def auto_kernel(a: np.ndarray, b: np.ndarray) -> str:
    """The kernel auto-selection picks for these inputs, ignoring any
    explicit argument/context/environment pin.

    Thresholds were measured on the repo's benchmark harness
    (benchmarks/bench_kernels.py); see DESIGN.md "Kernel layer".
    """
    if _is_integral(a) and _is_integral(b):
        return "int-repack"
    if max(a.shape[0], a.shape[1], b.shape[1]) >= TILED_MIN_DIM:
        return "tiled"
    return "broadcast"


def resolve_kernel(
    a: np.ndarray, b: np.ndarray, kernel: Optional[str] = None
) -> str:
    """The kernel name :func:`minplus` will run for these inputs.

    Applies the documented precedence (argument > :func:`use_kernel`
    context > ``REPRO_MINPLUS_KERNEL`` > :func:`auto_kernel` selection).
    Public so callers and tests can observe selection without timing it.
    """
    for choice in (kernel, _ambient_kernel.get(), os.environ.get(KERNEL_ENV)):
        if choice is not None and choice != "" and choice != AUTO:
            return get_kernel(choice).name
    return auto_kernel(a, b)


# --------------------------------------------------------------------- #
# The entry point
# --------------------------------------------------------------------- #


def _validate_out(
    out: np.ndarray, shape: Tuple[int, int], a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Check a caller-provided destination buffer for the dispatcher."""
    out = np.asarray(out)
    if out.shape != shape:
        raise ValueError(f"out must have shape {shape}; got {out.shape}")
    if out.dtype != np.float64:
        raise ValueError(f"out must be float64; got {out.dtype}")
    if not out.flags.writeable:
        raise ValueError("out must be writable")
    if np.may_share_memory(out, a) or np.may_share_memory(out, b):
        raise ValueError("out must not share memory with the operands")
    return out


def minplus(
    a: np.ndarray,
    b: np.ndarray,
    block: Optional[int] = None,
    *,
    kernel: Optional[str] = None,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Dense min-plus product ``(A * B)[i, j] = min_k (A[i,k] + B[k,j])``.

    The one dispatcher every dense tropical product in the repo routes
    through.  All kernels return bit-identical float64 results; see the
    module docstring for the registry and the selection precedence.

    Parameters
    ----------
    a, b:
        Factor matrices (``inf`` = semiring zero).  Any real dtype;
        computation is exact float64 semantics.
    block:
        Row-block hint for the ``broadcast`` kernel (legacy knob, default
        64).  Tiled kernels size their tiles from ``memory_budget``.
    kernel:
        Explicit kernel name (highest precedence), ``"auto"``/``None``
        for ambient/env/auto selection.
    memory_budget:
        Scratch-buffer budget in bytes for the tiled kernels.
    out:
        Optional preallocated float64 destination of shape
        ``(a.shape[0], b.shape[1])``, not aliasing the operands.  The
        result lands there (and is returned); repeated products —
        ``minplus_power``'s squaring loop — can then ping-pong two
        buffers instead of allocating an ``(n, n)`` temporary per step.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError("inner dimensions must agree")
    if out is not None:
        out = _validate_out(out, (a.shape[0], b.shape[1]), a, b)
    if a.shape[1] == 0:
        # Empty inner dimension: the min over an empty set is the
        # semiring zero (inf) everywhere.
        if out is not None:
            out.fill(INF)
            return out
        return np.full((a.shape[0], b.shape[1]), INF)
    if a.shape[0] == 0 or b.shape[1] == 0:
        if out is not None:
            return out
        return np.empty((a.shape[0], b.shape[1]), dtype=np.float64)
    name = resolve_kernel(a, b, kernel)
    if name == "int-repack" and _was_auto_selected(kernel):
        # Auto-selection just proved integrality; skip the kernel's own
        # O(n^2) recheck on this (hot) path.
        result = _int_repack_product(a, b, memory_budget, integral=True, out=out)
    else:
        result = get_kernel(name).func(a, b, block, memory_budget, out)
    if out is not None and result is not out:
        np.copyto(out, result)
        return out
    return result


def _was_auto_selected(kernel: Optional[str]) -> bool:
    """Whether :func:`resolve_kernel` fell through to auto-selection."""
    for choice in (kernel, _ambient_kernel.get(), os.environ.get(KERNEL_ENV)):
        if choice is not None and choice != "" and choice != AUTO:
            return False
    return True


def minplus_square(
    matrix: np.ndarray,
    block: Optional[int] = None,
    *,
    kernel: Optional[str] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One min-plus squaring ``A -> A (*) A``."""
    return minplus(matrix, matrix, block=block, kernel=kernel, out=out)


def minplus_power(
    matrix: np.ndarray,
    exponent: int,
    block: Optional[int] = None,
    *,
    kernel: Optional[str] = None,
) -> np.ndarray:
    """Exact min-plus power ``A^h`` by binary exponentiation.

    Requires a zero diagonal so that ``A^h`` equals "minimum length over
    paths with at most h hops" (Section 2.1).  Square-and-multiply makes
    the exponent exact for every ``h`` (plain repeated squaring would
    overshoot to the next power of two).

    Memory discipline: each squaring and each accumulator multiply
    ping-pongs a pair of preallocated buffers through ``minplus(out=...)``
    — at most four ``(n, n)`` arrays live for the whole loop, where the
    naive form allocated a fresh product every round.
    """
    if exponent < 1:
        raise ValueError("exponent must be >= 1")
    matrix = np.asarray(matrix, dtype=np.float64)
    if np.any(np.diag(matrix) != 0):
        raise ValueError("matrix must have a zero diagonal")
    accumulator: Optional[np.ndarray] = None
    acc_spare: Optional[np.ndarray] = None
    base = np.array(matrix)
    base_spare: Optional[np.ndarray] = None
    remaining = int(exponent)
    while remaining > 0:
        if remaining & 1:
            if accumulator is None:
                accumulator = np.array(base)
            else:
                if acc_spare is None:
                    acc_spare = np.empty_like(base)
                minplus(accumulator, base, block=block, kernel=kernel,
                        out=acc_spare)
                accumulator, acc_spare = acc_spare, accumulator
        remaining >>= 1
        if remaining:
            if base_spare is None:
                base_spare = np.empty_like(base)
            minplus(base, base, block=block, kernel=kernel, out=base_spare)
            base, base_spare = base_spare, base
    assert accumulator is not None
    return accumulator


def minplus_gather(
    weights: np.ndarray,
    indices: np.ndarray,
    dense: np.ndarray,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> np.ndarray:
    """Row-sparse min-plus step: ``out[u, v] = min_j w[u,j] + D[idx[u,j], v]``.

    The inner product of one Bellman-Ford round over a row-sparse matrix
    (``hop_power_row_sparse``): each row ``u`` relaxes through its ``k``
    stored neighbours ``indices[u, :]``.  Row-blocked so the gathered
    temporary stays within the memory budget.  ``indices`` must be valid
    row indices into ``dense`` (callers map padding to a self-loop with
    ``inf`` weight).
    """
    weights = np.asarray(weights, dtype=np.float64)
    indices = np.asarray(indices)
    n, k = weights.shape
    m = dense.shape[1]
    if k == 0:
        return np.full((n, m), INF)
    blk = max(1, min(n, memory_budget // (8 * k * max(1, m))))
    out = np.empty((n, m))
    for start in range(0, n, blk):
        stop = min(start + blk, n)
        # gathered[u, j, v] = dense[indices[u, j], v]
        gathered = dense[indices[start:stop], :]
        out[start:stop] = (weights[start:stop, :, None] + gathered).min(axis=1)
    return out


# --------------------------------------------------------------------- #
# Kernel implementations
# --------------------------------------------------------------------- #


@register_kernel(
    "broadcast",
    summary="row-blocked numpy broadcasting (reference; best for small n)",
)
def _kernel_broadcast(
    a: np.ndarray,
    b: np.ndarray,
    block: Optional[int],
    memory_budget: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    block = 64 if block is None else max(1, int(block))
    if out is None:
        out = np.empty((a.shape[0], b.shape[1]), dtype=np.float64)
    for start in range(0, a.shape[0], block):
        stop = min(start + block, a.shape[0])
        out[start:stop] = (a[start:stop, :, None] + b[None, :, :]).min(axis=1)
    return out


def _tiled_product(
    a: np.ndarray,
    b: np.ndarray,
    memory_budget: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Two-axis tiled product over any dtype with exact add/min semantics.

    Shared by the ``tiled`` kernel (float64) and the ``int-repack`` paths
    (float32 / int64): column tiles of ``b`` are copied contiguous once
    per tile, and one scratch buffer of ``bi * k * bj`` elements is
    reused for the broadcast sums — ``O(block^2 * k)`` memory instead of
    the reference's ``O(block * k * m)``.
    """
    n, k = a.shape
    m = b.shape[1]
    itemsize = a.dtype.itemsize
    bj = min(m, 256)
    bi = max(1, min(n, memory_budget // (itemsize * max(1, k) * bj)))
    if out is None or out.dtype != a.dtype:
        out = np.empty((n, m), dtype=a.dtype)
    scratch = np.empty((bi, k, bj), dtype=a.dtype)
    for col_start in range(0, m, bj):
        col_stop = min(col_start + bj, m)
        col_tile = np.ascontiguousarray(b[:, col_start:col_stop])
        width = col_stop - col_start
        for row_start in range(0, n, bi):
            row_stop = min(row_start + bi, n)
            sums = np.add(
                a[row_start:row_stop, :, None],
                col_tile[None, :, :],
                out=scratch[: row_stop - row_start, :, :width],
            )
            out[row_start:row_stop, col_start:col_stop] = sums.min(axis=1)
    return out


@register_kernel(
    "tiled",
    summary="two-axis cache-tiled product, scratch bounded by a memory budget",
)
def _kernel_tiled(
    a: np.ndarray,
    b: np.ndarray,
    block: Optional[int],
    memory_budget: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    return _tiled_product(a, b, memory_budget, out=out)


@register_kernel(
    "int-repack",
    summary="integer inputs repacked to float32/int64 (inf -> sentinel); "
    "falls back to tiled otherwise",
)
def _kernel_int_repack(
    a: np.ndarray,
    b: np.ndarray,
    block: Optional[int],
    memory_budget: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    return _int_repack_product(a, b, memory_budget, integral=None, out=out)


def _int_repack_product(
    a: np.ndarray,
    b: np.ndarray,
    memory_budget: int,
    integral: Optional[bool],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """int-repack body; ``integral=True`` skips the recheck when the
    dispatcher's auto-selection already classified both inputs."""
    if integral is None:
        integral = _is_integral(a) and _is_integral(b)
    if not integral:
        return _tiled_product(a, b, memory_budget, out=out)
    largest = max(_max_abs_finite(a), _max_abs_finite(b))
    if largest <= _FLOAT32_EXACT_MAX:
        # float32 halves memory bandwidth; inf needs no sentinel and all
        # sums stay <= 2^24, the float32 exact-integer limit.
        out32 = _tiled_product(
            a.astype(np.float32), b.astype(np.float32), memory_budget
        )
        if out is not None:
            np.copyto(out, out32)
            return out
        return out32.astype(np.float64)
    if largest < _INT_EXACT_MAX:
        a64 = np.where(np.isfinite(a), a, float(_INT_SENTINEL)).astype(np.int64)
        b64 = np.where(np.isfinite(b), b, float(_INT_SENTINEL)).astype(np.int64)
        out64 = _tiled_product(a64, b64, memory_budget)
        if out is None:
            out = out64.astype(np.float64)
        else:
            np.copyto(out, out64, casting="unsafe")
        out[out64 >= _INT_INF_THRESHOLD] = INF
        return out
    # Values large enough that float64 addition itself rounds: only the
    # reference semantics are well-defined, so stay in float64.
    return _tiled_product(a, b, memory_budget, out=out)


__all__ = [
    "AUTO",
    "auto_kernel",
    "DEFAULT_MEMORY_BUDGET",
    "INF",
    "KERNEL_ENV",
    "KernelSpec",
    "current_kernel_pin",
    "get_kernel",
    "iter_kernels",
    "kernel_names",
    "minplus",
    "minplus_gather",
    "minplus_power",
    "minplus_square",
    "register_kernel",
    "resolve_kernel",
    "use_kernel",
]
