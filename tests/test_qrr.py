"""Tests for Quick Replay Recovery (repro.qrr)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.dram import Dram
from repro.mixedmode.platform import MixedModePlatform
from repro.qrr.campaign import QrrCampaign
from repro.qrr.coverage import (
    classify_coverage,
    covered_bits,
    improvement_factor,
    is_parity_covered,
    residual_error_fraction,
)
from repro.qrr.record import RecordTable
from repro.qrr.servers import QrrL2cServer, QrrMcuServer
from repro.soc.address import AddressMap
from repro.soc.packets import CpxPacket, CpxType, PcxPacket, PcxType
from repro.system.machine import MachineConfig
from repro.uncore.l2c import L2cRtl
from repro.uncore.mcu import McuRtl

CFG = MachineConfig(cores=4, threads_per_core=2, l2_banks=8, l2_sets=16)
AMAP = AddressMap(l2_banks=8, l2_sets=16, mcus=4)


class TestCoverage:
    def test_l2c_classification(self):
        cov = classify_coverage(
            L2cRtl(0, AMAP, 8, send_mcu=lambda r: None), "l2c"
        )
        assert cov.hardened_timing == 1_650
        assert cov.hardened_config == 55
        assert cov.qrr_controller == 812
        assert cov.parity_covered == 18_369 - 1_650 - 55

    def test_mcu_classification(self):
        cov = classify_coverage(McuRtl(0, Dram()), "mcu")
        assert cov.hardened_timing == 36
        assert cov.hardened_config == 309

    def test_improvement_exceeds_100x(self):
        for module, comp in (
            (L2cRtl(0, AMAP, 8, send_mcu=lambda r: None), "l2c"),
            (McuRtl(0, Dram()), "mcu"),
        ):
            cov = classify_coverage(module, comp)
            assert improvement_factor(cov) > 100

    def test_residual_matches_footnote15_arithmetic(self):
        """~13% hardened at 1/1000 -> ~0.013% residual."""
        cov = classify_coverage(
            L2cRtl(0, AMAP, 8, send_mcu=lambda r: None), "l2c"
        )
        assert residual_error_fraction(cov) == pytest.approx(0.00013, rel=0.02)

    def test_is_parity_covered(self):
        m = L2cRtl(0, AMAP, 8, send_mcu=lambda r: None)
        assert is_parity_covered(m, "iq_addr")
        assert not is_parity_covered(m, "cfg_mode")  # config: hardened
        assert not is_parity_covered(m, "tag_cmp_stage")  # timing: hardened
        assert not is_parity_covered(m, "ecc_fill_stage")  # ECC already


class TestRecordTable:
    def pkt(self, reqid, ptype=PcxType.LOAD):
        return PcxPacket(ptype, 0, 0, 0x200, 0, reqid)

    def reply(self, reqid, ctype=CpxType.LOAD_RET):
        return CpxPacket(ctype, 0, 0, 0x200, 0, reqid)

    def test_load_lifecycle(self):
        table = RecordTable()
        table.record(self.pkt(1))
        assert len(table) == 1
        table.mark_executed(1, self.reply(1))
        assert len(table) == 1  # reply not yet delivered
        table.mark_delivered(self.reply(1))
        assert len(table) == 0

    def test_store_miss_lifecycle(self):
        """Ack delivered early; entry survives until execution."""
        table = RecordTable()
        table.record(self.pkt(2, PcxType.STORE))
        table.mark_delivered(self.reply(2, CpxType.STORE_ACK))
        assert len(table) == 1  # post-return processing pending
        table.mark_executed(2, None)
        assert len(table) == 0

    def test_store_hit_lifecycle(self):
        table = RecordTable()
        table.record(self.pkt(3, PcxType.STORE))
        table.mark_executed(3, self.reply(3, CpxType.STORE_ACK))
        table.mark_delivered(self.reply(3, CpxType.STORE_ACK))
        assert len(table) == 0

    def test_total_order_maintained(self):
        table = RecordTable()
        for reqid in (5, 3, 9):
            table.record(self.pkt(reqid))
        assert [e.pkt.reqid for e in table.incomplete_in_order()] == [5, 3, 9]

    def test_capacity_backpressure(self):
        table = RecordTable(capacity=2)
        table.record(self.pkt(1))
        table.record(self.pkt(2))
        assert table.full
        with pytest.raises(RuntimeError):
            table.record(self.pkt(3))

    def test_unknown_completion_ignored(self):
        table = RecordTable()
        table.mark_delivered(self.reply(42))
        table.mark_executed(42, None)
        assert len(table) == 0


@pytest.fixture(scope="module")
def platform():
    return MixedModePlatform("flui", machine_config=CFG, scale=1 / 120_000)


class TestQrrRecovery:
    def test_l2c_recovers_all_covered_injections(self, platform):
        records = QrrCampaign(platform, "l2c").run(12, seed=7)
        assert len(records) == 12
        assert all(r.detected for r in records)
        assert all(r.recovered for r in records), records

    def test_mcu_recovers_all_covered_injections(self, platform):
        records = QrrCampaign(platform, "mcu").run(12, seed=7)
        assert len(records) == 12
        assert all(r.recovered for r in records), records

    def test_recovery_blocks_new_packets(self, platform):
        machine = platform.machine
        machine.restore(platform.golden.snapshots[0])
        server = QrrL2cServer(machine, 0)
        server._begin_recovery(0)
        server._replay.append(PcxPacket(PcxType.LOAD, 0, 0, 0, 0, 1))
        server.recovering = True
        assert not server.accept(PcxPacket(PcxType.LOAD, 0, 0, 0x40, 0, 2), 0)

    def test_invalid_component_rejected(self, platform):
        with pytest.raises(ValueError):
            QrrCampaign(platform, "ccx")

    def test_covered_bits_exclude_hardened(self, platform):
        server = QrrL2cServer(platform.machine, 0)
        covered = covered_bits(server.rtl)
        bits = server.rtl.target_bits()
        names = {bits[i][0] for i in covered}
        assert "cfg_mode" not in names
        assert "tag_cmp_stage" not in names
        assert "iq_addr" in names


class TestReplayEquivalence:
    """Property: gate -> reset -> replay at an arbitrary point produces
    the same architected memory state as an uninterrupted execution
    (paper Sec. 6.3)."""

    def _run_requests(self, pkts, reset_after=None, max_cycles=30_000):
        from repro.uncore.highlevel.mcu import HighLevelMcu

        dram = Dram()
        for i in range(2048):
            dram.write_word(i * 8, random.Random(i).getrandbits(48))
        mcu_inbox, replies = [], []

        class FakeMachine:
            amap = AMAP
            config = CFG

            def _send_mcu(self, req):
                mcu_inbox.append(req)

        fake = FakeMachine()
        fake.dram = dram
        from repro.mem.l2state import L2BankState

        fake.l2states = [L2BankState(0, AMAP, CFG.l2_ways)]
        fake.l2banks = [None]
        server = QrrL2cServer(fake, 0)
        mcu = HighLevelMcu(0, dram, send_reply=replies.append)
        pending = list(pkts)
        delivered = []
        accepted = 0
        reset_done = reset_after is None
        for cycle in range(max_cycles):
            if pending and server.accept(pending[0], cycle):
                pending.pop(0)
                accepted += 1
                if not reset_done and accepted == reset_after:
                    server._begin_recovery(cycle)
                    reset_done = True
            for req in mcu_inbox:
                mcu.accept(req, cycle)
            mcu_inbox.clear()
            delivered.extend(server.tick(cycle))
            mcu.tick(cycle)
            for rep in replies:
                server.deliver_mcu_reply(rep)
            replies.clear()
            if (not pending and server.in_flight() == 0
                    and mcu.in_flight() == 0 and not mcu_inbox
                    and not server.recovering):
                break
        assert server.in_flight() == 0
        state = fake.l2states[0]
        server.rtl.extract_state(state)
        view = {}
        for a in sorted(dram.words):
            if AMAP.bank_of(a) == 0:
                loc = state.lookup(a)
                if loc:
                    view[a] = state.lines[loc[0]][loc[1]].data[AMAP.word_in_line(a)]
                    continue
            view[a] = dram.read_word(a)
        return view, delivered

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 20))
    def test_reset_replay_equivalence(self, seed, reset_after):
        r = random.Random(seed)
        pkts = []
        for i in range(25):
            addr = (r.randrange(32) * 512) + (r.randrange(8) * 8)
            ptype = r.choice(
                [PcxType.LOAD, PcxType.STORE, PcxType.ATOMIC_ADD, PcxType.ATOMIC_TAS]
            )
            pkts.append(PcxPacket(ptype, r.randrange(4), 0, addr,
                                  r.getrandbits(16), i + 1))
        clean_view, clean_out = self._run_requests(pkts)
        replay_view, replay_out = self._run_requests(pkts, reset_after=reset_after)
        assert clean_view == replay_view
        # every request must be answered exactly once in both runs
        def non_inv(out):
            return sorted(
                (p.reqid, p.ctype, p.data) for p in out
                if p.ctype is not CpxType.INVALIDATE
            )
        assert non_inv(clean_out) == non_inv(replay_out)
