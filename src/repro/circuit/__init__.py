"""Gate-level circuit substrate: netlists, .bench I/O, benchmarks, scan."""

from .bench import BenchParseError, dump, dumps, load, loads
from .compiled import CompiledNetlist
from .gates import GateType, evaluate_gate
from .generate import (
    ITC99_PRESETS,
    GeneratorSpec,
    ProxySpec,
    generate_netlist,
    proxy_response_table,
)
from .library import PROXY_SPECS, available_circuits, load_circuit
from .compactor import compaction_alias_rate, grouped_compactor, parity_compactor
from .netlist import Gate, Netlist, NetlistError, from_gates
from .scan import ScanInfo, full_scan, prepare_for_test
from .transforms import decompose_to_two_input, remove_dangling, sweep_constants
from .verilog import VerilogParseError

__all__ = [
    "BenchParseError",
    "CompiledNetlist",
    "Gate",
    "GateType",
    "GeneratorSpec",
    "ITC99_PRESETS",
    "Netlist",
    "NetlistError",
    "PROXY_SPECS",
    "ProxySpec",
    "ScanInfo",
    "VerilogParseError",
    "available_circuits",
    "compaction_alias_rate",
    "grouped_compactor",
    "parity_compactor",
    "decompose_to_two_input",
    "dump",
    "dumps",
    "remove_dangling",
    "sweep_constants",
    "evaluate_gate",
    "from_gates",
    "full_scan",
    "generate_netlist",
    "load",
    "load_circuit",
    "loads",
    "prepare_for_test",
    "proxy_response_table",
]
