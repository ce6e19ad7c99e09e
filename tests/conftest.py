"""Shared fixtures: machines, small hand-built regions, kernel programs."""

from __future__ import annotations

import pytest

from repro.ir import RegionBuilder
from repro.ir.opcode import FuncClass, LatencyModel
from repro.machine import ClusteredVLIW, RawMachine
from repro.machine.fu import Cluster, FunctionalUnit
from repro.machine.machine import Machine
from repro.workloads import apply_congruence, build_benchmark


@pytest.fixture
def vliw4():
    """The paper's evaluation VLIW: 4 identical clusters."""
    return ClusteredVLIW(4)


@pytest.fixture
def vliw1():
    """Single-cluster VLIW (speedup denominator)."""
    return ClusteredVLIW(1)


@pytest.fixture
def raw4():
    """A 2x2 Raw mesh."""
    return RawMachine(2, 2)


@pytest.fixture
def raw16():
    """The full 4x4 Raw prototype."""
    return RawMachine(4, 4)


class BusMachine(Machine):
    """Two clusters of one unit each over ``classes``, joined by a bus:
    a machine outside the raw*/vliw* families, with soft memory
    affinity."""

    memory_affinity = "soft"
    remote_mem_penalty = 0

    def __init__(self, classes, name: str, hop_latency: int = 1):
        units = (FunctionalUnit("u", frozenset(classes)),)
        clusters = [Cluster(index=i, units=units) for i in range(2)]
        super().__init__(clusters, LatencyModel(), name)
        self.hop_latency = hop_latency

    def comm_latency(self, src, dst):
        return 0 if src == dst else self.hop_latency

    def comm_resources(self, src, dst):
        return () if src == dst else (("bus", src, dst),)

    def distance(self, src, dst):
        return 0 if src == dst else 1


def fabric2() -> BusMachine:
    """Every class on both clusters, two-cycle hops."""
    classes = {FuncClass.IALU, FuncClass.IMUL, FuncClass.FPU, FuncClass.MEM,
               FuncClass.CONST}
    return BusMachine(classes, "fabric2", hop_latency=2)


def intonly2() -> BusMachine:
    """Integer units only: no FPU anywhere."""
    return BusMachine({FuncClass.IALU, FuncClass.CONST, FuncClass.MEM}, "intonly2")


def build_dot_region(n: int = 4, banks: int = 4, name: str = "dot"):
    """A dot product: 2n loads, n fmuls, a reduction tree, one live-out."""
    b = RegionBuilder(name)
    xs = [b.load(bank=i % banks, name=f"x[{i}]", array="x") for i in range(n)]
    ys = [b.load(bank=i % banks, name=f"y[{i}]", array="y") for i in range(n)]
    prods = [b.fmul(x, y) for x, y in zip(xs, ys)]
    b.live_out(b.reduce(prods))
    return b.build()


def build_chain_region(length: int = 6, name: str = "chain"):
    """A pure serial chain: one live-in followed by ``length`` fadds."""
    b = RegionBuilder(name)
    v = b.live_in(name="v0")
    one = b.li(1.0)
    for _ in range(length):
        v = b.fadd(v, one)
    b.live_out(v)
    return b.build()


@pytest.fixture
def dot_region():
    return build_dot_region()


@pytest.fixture
def chain_region():
    return build_chain_region()


@pytest.fixture
def mxm_vliw(vliw4):
    """The mxm kernel bound to the 4-cluster VLIW."""
    return build_benchmark("mxm", vliw4).regions[0]


@pytest.fixture
def jacobi_raw(raw4):
    """The jacobi kernel bound to a 2x2 Raw mesh."""
    return build_benchmark("jacobi", raw4).regions[0]
