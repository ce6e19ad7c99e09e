"""Unit tests for the machine models (clustered VLIW and Raw mesh)."""

import pytest

from repro.ir import Opcode
from repro.ir.instruction import Instruction
from repro.ir.opcode import FUNC_CLASS, FuncClass, LatencyModel
from repro.machine import (
    ClusteredVLIW,
    RawMachine,
    machine_from_spec,
    raw_with_tiles,
    single_cluster_vliw,
)
from repro.machine.fu import Cluster, FunctionalUnit
from repro.schedulers.list_scheduler import feasible_clusters

from .conftest import fabric2, intonly2


class TestFunctionalUnits:
    def test_unit_class_check(self):
        fu = FunctionalUnit("ialu", frozenset({FuncClass.IALU}))
        assert fu.can_execute(FuncClass.IALU)
        assert not fu.can_execute(FuncClass.FPU)

    def test_cluster_units_for(self):
        vliw = ClusteredVLIW(1)
        cluster = vliw.clusters[0]
        assert len(cluster.units_for(FuncClass.IALU)) == 2  # ialu + ialu_mem
        assert len(cluster.units_for(FuncClass.MEM)) == 1
        assert len(cluster.units_for(FuncClass.FPU)) == 1
        assert len(cluster.units_for(FuncClass.XFER)) == 1

    def test_issue_width(self):
        assert ClusteredVLIW(1).clusters[0].issue_width == 4
        assert RawMachine(1, 1).clusters[0].issue_width == 1


class TestClusteredVLIW:
    def test_cluster_count(self, vliw4):
        assert vliw4.n_clusters == 4
        assert vliw4.name == "vliw4"

    def test_comm_latency_one_cycle_uniform(self, vliw4):
        for a in range(4):
            for b in range(4):
                expected = 0 if a == b else 1
                assert vliw4.comm_latency(a, b) == expected

    def test_comm_occupies_senders_transfer_unit(self, vliw4):
        (resource,) = vliw4.comm_resources(2, 0)
        assert resource == ("xfer", 2, -1)
        assert vliw4.comm_resources(1, 1) == ()

    def test_soft_memory_affinity(self, vliw4):
        assert vliw4.memory_affinity == "soft"
        assert vliw4.remote_mem_penalty == 1

    def test_banks_interleave(self, vliw4):
        assert [vliw4.bank_home(b) for b in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_pseudo_ops_execute_anywhere(self, vliw4):
        assert vliw4.can_execute(3, FuncClass.PSEUDO)
        assert vliw4.can_execute(0, FuncClass.CONST)

    def test_single_cluster_helper(self):
        assert single_cluster_vliw().n_clusters == 1

    def test_latency_model_override(self):
        m = ClusteredVLIW(2, latency_model=LatencyModel().with_overrides(load=2))
        assert m.latency(Opcode.LOAD) == 2


class TestRawMachine:
    def test_mesh_dimensions(self, raw16):
        assert raw16.rows == raw16.cols == 4
        assert raw16.n_clusters == 16

    def test_coords_roundtrip(self, raw16):
        for tile in range(16):
            r, c = raw16.coords(tile)
            assert raw16.tile_at(r, c) == tile

    def test_coords_out_of_range(self, raw16):
        with pytest.raises(ValueError):
            raw16.coords(16)
        with pytest.raises(ValueError):
            raw16.tile_at(4, 0)

    def test_manhattan_distance(self, raw16):
        assert raw16.distance(0, 0) == 0
        assert raw16.distance(0, 1) == 1
        assert raw16.distance(0, 15) == 6  # (0,0) -> (3,3)

    def test_neighbor_comm_latency_is_three(self, raw16):
        assert raw16.comm_latency(0, 1) == 3
        assert raw16.comm_latency(0, 4) == 3

    def test_extra_hops_cost_one_each(self, raw16):
        assert raw16.comm_latency(0, 2) == 4
        assert raw16.comm_latency(0, 15) == 8

    def test_route_is_dimension_ordered(self, raw16):
        path = raw16.route_path(0, 9)  # (0,0) -> (2,1): x first
        assert path == [0, 1, 5, 9]

    def test_route_resources_include_injection(self, raw16):
        resources = raw16.comm_resources(0, 1)
        assert resources[0] == ("inj", 0, -1)
        assert ("link", 0, 1) in resources

    def test_route_resource_count_matches_hops(self, raw16):
        # injection + 6 links + ejection
        assert len(raw16.comm_resources(0, 15)) == 1 + 6 + 1

    def test_route_resources_include_ejection(self, raw16):
        assert raw16.comm_resources(0, 1)[-1] == ("ej", 1, -1)

    def test_hard_memory_affinity(self, raw16):
        assert raw16.memory_affinity == "hard"

    def test_single_tile_is_single_issue(self):
        tile = RawMachine(1, 1).clusters[0]
        (unit,) = tile.units
        for fc in (FuncClass.IALU, FuncClass.IMUL, FuncClass.MEM, FuncClass.FPU):
            assert unit.can_execute(fc)

    def test_invalid_mesh(self):
        with pytest.raises(ValueError):
            RawMachine(0, 4)


class TestRawWithTiles:
    @pytest.mark.parametrize(
        "tiles,shape",
        [(1, (1, 1)), (2, (1, 2)), (4, (2, 2)), (8, (2, 4)), (16, (4, 4))],
    )
    def test_table2_shapes(self, tiles, shape):
        m = raw_with_tiles(tiles)
        assert (m.rows, m.cols) == shape

    def test_prime_count(self):
        m = raw_with_tiles(7)
        assert m.n_clusters == 7


class TestMachineValidation:
    def test_cluster_indices_must_be_dense(self):
        bad = [Cluster(index=1, units=(FunctionalUnit("u", frozenset({FuncClass.IALU})),))]
        from repro.machine.machine import Machine

        class Dummy(ClusteredVLIW):
            pass

        with pytest.raises(ValueError):
            # Recreate through the base initializer with wrong indices.
            Machine.__init__(Dummy.__new__(Dummy), bad, LatencyModel(), "dummy")

    def test_zero_clusters_rejected(self):
        from repro.machine.machine import Machine

        with pytest.raises(ValueError):
            Machine.__init__(
                ClusteredVLIW.__new__(ClusteredVLIW), [], LatencyModel(), "none"
            )


def _unit_scan(machine, cluster, func_class):
    """First-principles feasibility: does any unit of ``cluster`` take
    ``func_class`` (pseudo ops and constants run anywhere)?"""
    if func_class in (FuncClass.PSEUDO, FuncClass.CONST):
        return True
    return any(func_class in u.classes for u in machine.clusters[cluster].units)


def _feasibility_machines():
    specs = ["vliw1", "vliw2", "vliw4", "vliw8", "raw1x1", "raw2x2", "raw4x4",
             "raw8x8", "raw4", "raw16"]
    machines = [machine_from_spec(spec) for spec in specs]
    return machines + [
        fabric2(),
        intonly2(),
        ClusteredVLIW(4, fp_clusters=(0, 1)),
        ClusteredVLIW(4, fp_clusters=(3,)),
    ]


class TestFeasibilityTable:
    @pytest.mark.parametrize("machine", _feasibility_machines(), ids=lambda m: m.name)
    def test_table_matches_unit_scan(self, machine):
        for fc in FuncClass:
            scan = [c for c in range(machine.n_clusters) if _unit_scan(machine, c, fc)]
            assert list(machine.feasibility_table[fc]) == scan
            assert [c for c in range(machine.n_clusters)
                    if machine.can_execute(c, fc)] == scan
            for opcode in (op for op in Opcode if FUNC_CLASS[op] is fc):
                # A free (unhomed, bankless) instruction of this class.
                inst = Instruction(uid=0, opcode=opcode)
                assert feasible_clusters(inst, machine) == scan

    def test_table_is_built_once(self):
        machine = ClusteredVLIW(4, fp_clusters=(0, 1))
        assert machine.feasibility_table is machine.feasibility_table
        assert machine.feasibility_table[FuncClass.FPU] == (0, 1)
