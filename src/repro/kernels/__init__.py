"""Interchangeable pair-counting kernels for the dictionary procedures.

See :mod:`repro.kernels.base` for the :class:`KernelBackend` protocol and
``docs/kernels.md`` for the packing layout and performance notes.  The
two shipped backends are registered here:

* ``naive`` — pure-Python reference (:mod:`repro.kernels.naive`);
* ``packed`` — interned-column kernels (:mod:`repro.kernels.packed`),
  the default unless ``REPRO_BACKEND`` says otherwise.
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
from .interning import InternedTable, intern_response_table
from .naive import NaiveBackend
from .packed import PackedBackend

register_backend(
    "naive", NaiveBackend, "pure-Python reference, the differential oracle"
)
register_backend(
    "packed",
    PackedBackend,
    "interned columns with entry-major, then class-major scoring",
)

__all__ = [
    "BACKEND_ENV",
    "DEFAULT_BACKEND",
    "InternedTable",
    "KernelBackend",
    "NaiveBackend",
    "PackedBackend",
    "Procedure1Run",
    "available_backends",
    "backend_choices_help",
    "backend_descriptions",
    "default_backend_name",
    "get_backend",
    "intern_response_table",
    "register_backend",
]
