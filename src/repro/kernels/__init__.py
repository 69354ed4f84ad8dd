"""Interchangeable pair-counting kernels for the dictionary procedures.

See :mod:`repro.kernels.base` for the :class:`KernelBackend` protocol and
``docs/kernels.md`` for the packing layouts and performance notes.  The
three shipped backends are registered here:

* ``naive`` — pure-Python reference (:mod:`repro.kernels.naive`);
* ``packed`` — interned-column kernels (:mod:`repro.kernels.packed`),
  the default unless ``REPRO_BACKEND`` says otherwise;
* ``vector`` — batched word-array scoring (:mod:`repro.kernels.vector`),
  numpy-accelerated when numpy is importable, stdlib ``array`` fallback
  otherwise; the import alone decides, and both paths are
  byte-identical.
"""

from .base import (
    BACKEND_ENV,
    DEFAULT_BACKEND,
    KernelBackend,
    Procedure1Run,
    available_backends,
    backend_choices_help,
    backend_descriptions,
    default_backend_name,
    get_backend,
    register_backend,
)
from .interning import (
    InternedTable,
    VectorLayout,
    build_vector_layout,
    intern_response_table,
    unpack_vector_layout,
)
from .naive import NaiveBackend
from .packed import PackedBackend
from .vector import VectorBackend

register_backend(
    "naive", NaiveBackend, "pure-Python reference, the differential oracle"
)
register_backend(
    "packed", PackedBackend, "interned columns with class-major scoring"
)
register_backend(
    "vector",
    VectorBackend,
    "batched word-array sweep, numpy-accelerated with a stdlib fallback",
)

__all__ = [
    "BACKEND_ENV",
    "DEFAULT_BACKEND",
    "InternedTable",
    "KernelBackend",
    "NaiveBackend",
    "PackedBackend",
    "Procedure1Run",
    "VectorBackend",
    "VectorLayout",
    "available_backends",
    "backend_choices_help",
    "backend_descriptions",
    "build_vector_layout",
    "default_backend_name",
    "get_backend",
    "intern_response_table",
    "register_backend",
    "unpack_vector_layout",
]
