"""Tests for the Netlist data structure."""

import pytest

from repro.circuit import GateType, Netlist, NetlistError, from_gates
from repro.circuit.compiled import GATE_TYPES


def small_netlist() -> Netlist:
    return from_gates(
        "small",
        inputs=["a", "b", "c"],
        gates=[
            ("g1", GateType.AND, ["a", "b"]),
            ("g2", GateType.NOT, ["c"]),
            ("g3", GateType.OR, ["g1", "g2"]),
        ],
        outputs=["g3"],
    )


class TestConstruction:
    def test_basic_counts(self):
        netlist = small_netlist()
        assert netlist.inputs == ["a", "b", "c"]
        assert netlist.outputs == ["g3"]
        assert netlist.num_gates == 3
        assert len(netlist) == 6
        assert "g1" in netlist
        assert "nope" not in netlist

    def test_double_drive_rejected(self):
        netlist = Netlist()
        netlist.add_input("a")
        with pytest.raises(NetlistError, match="driven twice"):
            netlist.add_input("a")

    def test_double_output_rejected(self):
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_output("a")
        with pytest.raises(NetlistError, match="declared twice"):
            netlist.add_output("a")

    def test_bad_fanin_count(self):
        netlist = Netlist()
        netlist.add_input("a")
        with pytest.raises(NetlistError, match="inputs"):
            netlist.add_gate("g", GateType.AND, ["a"])
        with pytest.raises(NetlistError, match="inputs"):
            netlist.add_gate("g2", GateType.NOT, ["a", "a"])


class TestValidation:
    def test_undriven_net(self):
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_gate("g", GateType.NOT, ["ghost"])
        netlist.add_output("g")
        with pytest.raises(NetlistError, match="undriven"):
            netlist.validate()

    def test_missing_output(self):
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_output("ghost")
        with pytest.raises(NetlistError, match="not driven"):
            netlist.validate()

    def test_no_outputs(self):
        netlist = Netlist()
        netlist.add_input("a")
        with pytest.raises(NetlistError, match="no primary outputs"):
            netlist.validate()

    def test_combinational_cycle_detected(self):
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_gate("x", GateType.AND, ["a", "y"])
        netlist.add_gate("y", GateType.NOT, ["x"])
        netlist.add_output("y")
        with pytest.raises(NetlistError, match="cycle"):
            netlist.validate()

    def test_sequential_loop_through_dff_is_legal(self):
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_gate("q", GateType.DFF, ["d"])
        netlist.add_gate("d", GateType.AND, ["a", "q"])
        netlist.add_output("d")
        netlist.validate()
        assert not netlist.is_combinational


class TestAnalysis:
    def test_topological_order(self):
        netlist = small_netlist()
        order = netlist.topological_order()
        position = {net: i for i, net in enumerate(order)}
        for gate in netlist:
            for fanin in gate.inputs:
                assert position[fanin] < position[gate.name]

    def test_levels(self):
        netlist = small_netlist()
        levels = netlist.levelize()
        assert levels["a"] == 0
        assert levels["g1"] == 1
        assert levels["g3"] == 2
        assert netlist.stats()["depth"] == 2

    def test_fanout_map(self):
        netlist = small_netlist()
        fanout = netlist.fanout_map()
        assert fanout["a"] == ("g1",)
        assert fanout["g3"] == ()

    def test_cones(self):
        netlist = small_netlist()
        assert netlist.output_cone("a") == {"a", "g1", "g3"}
        assert netlist.input_cone("g3") == {"a", "b", "c", "g1", "g2", "g3"}
        assert netlist.input_cone("g1") == {"a", "b", "g1"}

    def test_output_cone_stops_at_dff(self):
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_gate("q", GateType.DFF, ["d"])
        netlist.add_gate("d", GateType.AND, ["a", "q"])
        netlist.add_output("d")
        assert "q" not in netlist.output_cone("d")
        assert "d" in netlist.output_cone("a")

    def test_caches_invalidated_on_add(self):
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_gate("g", GateType.NOT, ["a"])
        netlist.add_output("g")
        assert len(netlist.topological_order()) == 2
        netlist.add_gate("h", GateType.NOT, ["g"])
        assert len(netlist.topological_order()) == 3


class TestCompiledView:
    def test_arrays_mirror_the_netlist(self):
        netlist = small_netlist()
        view = netlist.compiled()
        assert list(view.names) == netlist.topological_order()
        assert len(view) == len(netlist)
        for i, net in enumerate(view.names):
            gate = netlist.gates[net]
            assert view.position[net] == i
            assert GATE_TYPES[view.kinds[i]] is gate.gate_type
            assert [view.names[j] for j in view.fanin[i]] == list(gate.inputs)
            assert all(j < i for j in view.fanin[i])
            assert [view.names[j] for j in view.fanout[i]] == list(
                netlist.fanout_map()[net]
            )
            assert view.is_output[i] == (net in netlist.outputs)
        assert [view.names[i] for i in view.inputs] == netlist.inputs
        assert [view.names[i] for i in view.outputs] == netlist.outputs

    def test_built_once(self):
        netlist = small_netlist()
        assert netlist.compiled() is netlist.compiled()

    def test_cones_match_a_fanout_walk(self, s27_scan):
        fanout = s27_scan.fanout_map()
        view = s27_scan.compiled()
        for net in s27_scan.gates:
            reachable, stack = {net}, [net]
            while stack:
                for successor in fanout[stack.pop()]:
                    if successor not in reachable:
                        reachable.add(successor)
                        stack.append(successor)
            cone = view.cone(view.position[net])
            assert list(cone) == sorted(cone)
            assert cone[0] == view.position[net]
            assert {view.names[i] for i in cone} == reachable
            assert s27_scan.output_cone(net) == reachable
            assert view.cone(view.position[net]) is cone  # cached

    def test_cone_stops_at_dff(self):
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_gate("q", GateType.DFF, ["d"])
        netlist.add_gate("d", GateType.AND, ["a", "q"])
        netlist.add_output("d")
        view = netlist.compiled()
        cone = {view.names[i] for i in view.cone(view.position["a"])}
        assert cone == {"a", "d"}

    def test_edits_drop_the_view(self):
        netlist = small_netlist()
        before = netlist.compiled()
        netlist.add_gate("g4", GateType.AND, ["g3", "a"])
        netlist.add_output("g4")
        after = netlist.compiled()
        assert after is not before
        g4 = after.position["g4"]
        assert [after.names[j] for j in after.fanin[g4]] == ["g3", "a"]
        assert after.is_output[g4]
        assert g4 in after.cone(after.position["a"])

    def test_add_output_alone_drops_the_view(self):
        netlist = small_netlist()
        before = netlist.compiled()
        assert not before.is_output[before.position["g1"]]
        netlist.add_output("g1")
        after = netlist.compiled()
        assert after.is_output[after.position["g1"]]
        assert [after.names[i] for i in after.outputs] == ["g3", "g1"]


class TestEditing:
    def test_copy_is_independent(self):
        netlist = small_netlist()
        clone = netlist.copy("clone")
        clone.add_gate("extra", GateType.NOT, ["g3"])
        assert "extra" not in netlist
        assert clone.name == "clone"
        assert netlist.outputs == clone.outputs

    def test_with_line_tied(self):
        netlist = small_netlist()
        tied = netlist.with_line_tied("g1", 1)
        assert tied.gates["g1"].gate_type is GateType.CONST1
        assert netlist.gates["g1"].gate_type is GateType.AND
        tied.validate()

    def test_with_line_tied_rejects_bad_args(self):
        netlist = small_netlist()
        with pytest.raises(NetlistError):
            netlist.with_line_tied("ghost", 0)
        with pytest.raises(ValueError):
            netlist.with_line_tied("g1", 2)

    def test_repr_mentions_counts(self):
        assert "inputs=3" in repr(small_netlist())
