"""Bit-parallel logic and fault simulation."""

from .bits import iter_bits
from .faultsim import FaultSimulator
from .logicsim import (
    SimulationError,
    output_vectors,
    output_words,
    simulate,
    simulate_single,
    simulate_words,
)
from .patterns import TestSet
from .responses import PASS, InternedTable, ResponseTable, Signature, id_typecode
from .seqfaultsim import (
    random_sequences,
    sequential_detection_word,
    sequential_output_diffs,
    sequential_outputs,
    sequential_response_table,
)
from .seqsim import SequentialSimulator, simulate_sequence
from .xsim import (
    UNKNOWN,
    cube_conflicts,
    determined_outputs,
    merge_cubes,
    simulate3,
)

__all__ = [
    "FaultSimulator",
    "InternedTable",
    "PASS",
    "ResponseTable",
    "SequentialSimulator",
    "Signature",
    "SimulationError",
    "TestSet",
    "UNKNOWN",
    "cube_conflicts",
    "determined_outputs",
    "merge_cubes",
    "simulate3",
    "simulate_sequence",
    "id_typecode",
    "iter_bits",
    "output_vectors",
    "output_words",
    "random_sequences",
    "sequential_detection_word",
    "sequential_output_diffs",
    "sequential_outputs",
    "sequential_response_table",
    "simulate",
    "simulate_single",
    "simulate_words",
]
