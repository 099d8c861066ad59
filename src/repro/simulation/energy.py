"""Client power-state accounting: joules, not just packet counts.

The paper reports tuning time as a *proxy* for energy (§1: the receiver
draws far more power active than dozing).  This module makes the proxy
concrete with the classic palmtop budget of Imielinski, Viswanathan &
Badrinath (the paper's broadcast-indexing reference): a receiving radio
draws ~130 mW, a dozing one ~6.6 mW — a 20:1 ratio, which is why one
saved packet access pays for ~20 packets of sleep.

A query's energy is charged per packet slot:

* every read *attempt* (successful or lost — the radio was on either
  way) costs one slot at receive power;
* the rest of the access latency is spent dozing at doze power.

Slot duration follows from the packet capacity and channel bandwidth,
so energy figures react to the packet-capacity sweep like the paper's
other metrics do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import BroadcastError


@dataclass(frozen=True)
class EnergyModel:
    """Power draw of the client radio in each state.

    Defaults: 130 mW receiving, 6.6 mW dozing (Imielinski et al.'s
    Hobbit-chip palmtop), 144 kbps broadcast channel (GPRS-class).
    """

    receive_mw: float = 130.0
    doze_mw: float = 6.6
    bandwidth_kbps: float = 144.0

    def __post_init__(self) -> None:
        for name in ("receive_mw", "doze_mw", "bandwidth_kbps"):
            value = getattr(self, name)
            if value <= 0:
                raise BroadcastError(f"{name} must be positive, got {value}")
        if self.doze_mw > self.receive_mw:
            raise BroadcastError(
                "doze power above receive power: "
                f"{self.doze_mw} mW > {self.receive_mw} mW"
            )

    def packet_seconds(self, packet_capacity: int) -> float:
        """Airtime of one packet slot in seconds."""
        if packet_capacity <= 0:
            raise BroadcastError(
                f"packet capacity must be positive, got {packet_capacity}"
            )
        return packet_capacity * 8.0 / (self.bandwidth_kbps * 1000.0)

    def query_joules(
        self,
        read_attempts: int,
        access_latency: float,
        packet_capacity: int,
    ) -> float:
        """Energy of one query: attempts at receive power, the remaining
        latency at doze power.  Latency and attempts are in packet slots."""
        if read_attempts < 0:
            raise BroadcastError(
                f"read attempts must be >= 0, got {read_attempts}"
            )
        slot = self.packet_seconds(packet_capacity)
        active_s = read_attempts * slot
        doze_s = max(access_latency - read_attempts, 0.0) * slot
        return (self.receive_mw * active_s + self.doze_mw * doze_s) / 1000.0

    def batch_joules(
        self,
        read_attempts,
        access_latency,
        packet_capacity: int,
    ):
        """Vectorized :meth:`query_joules` over per-query arrays.

        Element *i* equals ``query_joules(read_attempts[i],
        access_latency[i], packet_capacity)`` bit for bit (the same
        IEEE-754 expression evaluated elementwise), so fleet chunks can
        charge a whole chunk in one call.  Returns a float64 array.
        """
        active_s, doze_s = self._airtime(
            read_attempts, access_latency, packet_capacity
        )
        return (self.receive_mw * active_s + self.doze_mw * doze_s) / 1000.0

    def batch_components(
        self,
        read_attempts,
        access_latency,
        packet_capacity: int,
    ):
        """``(receive_joules, doze_joules)`` float64 arrays: the energy
        of each query split by radio state.

        Observability-only breakdown: summing the two components may
        differ from :meth:`batch_joules` in the last ulp, so the walker
        keeps charging through ``batch_joules`` and reports this split
        purely as profile counters.
        """
        active_s, doze_s = self._airtime(
            read_attempts, access_latency, packet_capacity
        )
        return (
            self.receive_mw * active_s / 1000.0,
            self.doze_mw * doze_s / 1000.0,
        )

    def _airtime(self, read_attempts, access_latency, packet_capacity: int):
        """Per-query seconds receiving and dozing, as float64 arrays."""
        attempts = np.asarray(read_attempts, np.float64)
        latency = np.asarray(access_latency, np.float64)
        if attempts.size and float(attempts.min()) < 0:
            raise BroadcastError(
                f"read attempts must be >= 0, got {float(attempts.min())}"
            )
        slot = self.packet_seconds(packet_capacity)
        return attempts * slot, np.maximum(latency - attempts, 0.0) * slot
