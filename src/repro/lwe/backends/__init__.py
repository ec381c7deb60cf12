"""Pluggable kernel backends for the hot modular GEMM.

The registry maps backend names to :class:`KernelBackend` instances.
Selection policy (see :func:`get_backend`):

* ``"reference"`` -- the in-process limb-decomposed BLAS path.  Always
  available; the bit-identity baseline.
* ``"multiprocess"`` -- spawn-context worker pool over shared-memory
  row partitions.
* ``"cnative"`` -- cffi-compiled C GEMM releasing the GIL across
  native row-partition threads; needs a C compiler once (content-
  hashed build cache), degrades to reference without one.
* ``"auto"`` -- the reference backend unless a tuned
  :class:`~repro.lwe.backends.autotune.KernelPlan` (from the precompute
  sidecar) says otherwise; resolution happens in the serving layer.

Backend choice is **data-independent**: it keys on configuration and on
public matrix geometry, never on query contents (SECURITY.md).
"""

from __future__ import annotations

import threading

from repro.lwe.backends.base import (
    BackendPlan,
    KernelBackend,
    KernelUnavailable,
    PlanContextMixin,
)
from repro.lwe.backends.cnative import CNativeBackend
from repro.lwe.backends.reference import ReferenceBackend
from repro.lwe.backends.shm import SharedMemoryBackend

#: Name the serving layer uses for "pick for me" (resolved against the
#: sidecar's tuned plan, falling back to the reference backend).
AUTO = "auto"

_REGISTRY_LOCK = threading.Lock()
_REGISTRY: dict = {}  # guarded-by: _REGISTRY_LOCK


def register_backend(backend: KernelBackend) -> None:
    """Add (or replace) a backend under ``backend.name``."""
    with _REGISTRY_LOCK:
        _REGISTRY[backend.name] = backend


def backend_names() -> list[str]:
    """Registered names, registration order."""
    with _REGISTRY_LOCK:
        return list(_REGISTRY)


def available_backends() -> list[str]:
    """Names whose backends report :attr:`~KernelBackend.available`."""
    with _REGISTRY_LOCK:
        backends = list(_REGISTRY.values())
    return [b.name for b in backends if b.available]


def backend_available(name: str) -> bool:
    """Whether ``name`` is registered *and* runnable on this host.

    Unlike :func:`available_backends` this probes exactly one backend,
    so asking about ``"reference"`` does not (say) trigger a cnative
    build attempt.  Unknown names are simply unavailable.
    """
    with _REGISTRY_LOCK:
        backend = _REGISTRY.get(name)
    return backend is not None and backend.available


def get_backend(name: str | None = None) -> KernelBackend:
    """Resolve a backend by name.

    ``None`` or ``"auto"`` or ``"reference"`` return the reference
    backend (tuned auto-resolution happens in the serving layer, which
    knows about the sidecar).  An unavailable backend falls back to
    reference rather than failing -- the contract is bit-identical
    either way.  An unknown name is a hard error listing the choices.
    """
    if name is None or name == AUTO:
        name = "reference"
    with _REGISTRY_LOCK:
        backend = _REGISTRY.get(name)
        names = list(_REGISTRY)
    if backend is None:
        raise ValueError(
            f"unknown kernel backend {name!r}; registered: {names}"
        )
    if not backend.available:
        with _REGISTRY_LOCK:
            return _REGISTRY["reference"]
    return backend


register_backend(ReferenceBackend())
register_backend(SharedMemoryBackend())
register_backend(CNativeBackend())

from repro.lwe.backends.autotune import (  # noqa: E402  (needs registry)
    KernelPlan,
    tune_index,
    tune_matrix,
)

__all__ = [
    "AUTO",
    "BackendPlan",
    "CNativeBackend",
    "KernelBackend",
    "KernelPlan",
    "KernelUnavailable",
    "PlanContextMixin",
    "ReferenceBackend",
    "SharedMemoryBackend",
    "available_backends",
    "backend_available",
    "backend_names",
    "get_backend",
    "register_backend",
    "tune_index",
    "tune_matrix",
]
