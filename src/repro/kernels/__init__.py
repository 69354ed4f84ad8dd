"""The pair-counting kernels of the dictionary procedures.

:class:`PackedBackend` (:mod:`repro.kernels.packed`) scores from a
table's interned columns (:class:`~repro.sim.InternedTable`);
``docs/kernels.md`` has the layouts and performance notes.
:mod:`repro.kernels.naive` keeps the pure-Python reference paths as the
differential oracle the tests hold the packed kernels to; production
never imports it.
"""

from .base import KernelBackend, Procedure1Run
from .packed import PackedBackend

#: The kernel every dictionary procedure runs on.  Callers read it at call
#: time, so a test can swap in the naive oracle and drive the production
#: build through it.
KERNEL: KernelBackend = PackedBackend()

__all__ = [
    "KERNEL",
    "KernelBackend",
    "PackedBackend",
    "Procedure1Run",
]
