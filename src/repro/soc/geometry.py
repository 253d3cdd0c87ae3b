"""OpenSPARC T2 component inventory (paper Tables 3 and 4).

These are the published figures for the OpenSPARC T2 SoC (500M
transistors, eight cores, eight L2 cache banks, four DRAM controllers,
one crossbar, one PCI Express controller).  They are the one source of
these numbers: the RTL models in :mod:`repro.uncore` pad their register
inventories to them (:meth:`repro.rtl.module.RtlModule.pad`) and check
the totals at construction.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ComponentSpec:
    """Inventory of one component type (one row of Tables 3 and 4).

    Attributes:
        name: short component name as used in the paper.
        long_name: descriptive name.
        instances: number of instances on the chip.
        flip_flops: flip-flops per instance (Table 3).
        gates: gate count per instance (Table 3).
        target_ffs: flip-flops eligible for error injection (Table 4);
            ``None`` for components the paper does not inject into.
        protected_ffs: ECC/CRC-protected flip-flops, excluded (Table 4).
        inactive_ffs: BIST/redundancy flip-flops, excluded (Table 4).
    """

    name: str
    long_name: str
    instances: int
    flip_flops: int
    gates: int
    target_ffs: int | None = None
    protected_ffs: int | None = None
    inactive_ffs: int | None = None

    @property
    def target_fraction(self) -> float | None:
        """Fraction of flip-flops targeted for injection (Table 4 %)."""
        if self.target_ffs is None:
            return None
        return self.target_ffs / self.flip_flops

    @property
    def total_flip_flops(self) -> int:
        """Flip-flops across all instances."""
        return self.instances * self.flip_flops

    @property
    def total_gates(self) -> int:
        """Gates across all instances."""
        return self.instances * self.gates


#: Table 3 (plus the Table 4 split for the four studied components).
T2_GEOMETRY: dict[str, ComponentSpec] = {
    "core": ComponentSpec(
        name="core",
        long_name="Processor Core",
        instances=8,
        flip_flops=44_288,
        gates=513_597,
    ),
    "l2c": ComponentSpec(
        name="l2c",
        long_name="L2 Cache Controller",
        instances=8,
        flip_flops=31_675,
        gates=210_540,
        target_ffs=18_369,
        protected_ffs=8_650,
        inactive_ffs=4_656,
    ),
    "mcu": ComponentSpec(
        name="mcu",
        long_name="DRAM Controller",
        instances=4,
        flip_flops=18_068,
        gates=155_726,
        target_ffs=12_007,
        protected_ffs=4_782,
        inactive_ffs=1_279,
    ),
    "ccx": ComponentSpec(
        name="ccx",
        long_name="Crossbar Interconnect",
        instances=1,
        flip_flops=41_521,
        gates=370_738,
        target_ffs=41_181,
        protected_ffs=0,
        inactive_ffs=340,
    ),
    "pcie": ComponentSpec(
        name="pcie",
        long_name="PCI Express I/O Controller",
        instances=1,
        flip_flops=29_022,
        gates=376_988,
        target_ffs=23_483,
        protected_ffs=5_539,
        inactive_ffs=0,
    ),
    "niu": ComponentSpec(
        name="niu",
        long_name="Network Interface Unit",
        instances=1,
        flip_flops=135_699,
        gates=1_297_427,
    ),
    "siu": ComponentSpec(
        name="siu",
        long_name="System Interface Unit",
        instances=1,
        flip_flops=16_908,
        gates=105_695,
    ),
    "ncu": ComponentSpec(
        name="ncu",
        long_name="Non-Cacheable Unit",
        instances=1,
        flip_flops=17_338,
        gates=143_374,
    ),
}

#: The four uncore components the paper studies, in its order.
UNCORE_TARGETS: tuple[str, ...] = ("l2c", "mcu", "ccx", "pcie")

#: Table 1 -- high-level uncore state per instance (name -> bytes).
HIGHLEVEL_STATE_BYTES: dict[str, dict[str, int]] = {
    "l2c": {
        "tag_address_array": 28 * 1024,
        "cache_line_state_bits": 5 * 1024,
        "cache_data_array": 512 * 1024,
        "l1_cache_directory": 2 * 1024,
    },
    "mcu": {"dram_contents": 4 * 1024**3},
    "ccx": {},
    "pcie": {"rx_transfer_buffer": 8 * 1024, "tx_transfer_buffer": 4 * 1024},
}


def chip_flip_flop_total() -> int:
    """Total flip-flops across all components and instances."""
    return sum(spec.total_flip_flops for spec in T2_GEOMETRY.values())


def chip_gate_total() -> int:
    """Total gates across all components and instances."""
    return sum(spec.total_gates for spec in T2_GEOMETRY.values())
