"""Performance benchmarks: the scp stress script and the Siege analog.

Figure 8 (OpenSSH): a client keeps 20 concurrent scp connections busy
until 4000 transfers complete, cycling through 10 file sizes from 1 KB
to 512 KB (average 102.3 KB).  Metrics: transaction rate (files/s) and
throughput (Mbit/s).

Figures 19-20 (Apache): Siege drives 4000 HTTPS transactions at
concurrency 20.  Metrics: response time, throughput (bytes/s),
transaction rate, concurrency.

Both run on *simulated* time, so the before/after comparison isolates
exactly what the paper measured: the relative cost of the kernel page
clears and the alignment work against the RSA + network cost every
connection already pays.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

from repro.core.protection import ProtectionLevel
from repro.core.simulation import Simulation, SimulationConfig

#: The 10 file sizes of the paper's scp benchmark: 1 KB .. 512 KB,
#: average 102.3 KB.
SCP_FILE_SIZES = tuple(1024 * (1 << i) for i in range(10))

#: Siege-style fixed response size (the paper served a document tree;
#: we use the same average payload as the scp bench for comparability).
SIEGE_RESPONSE_BYTES = 100 * 1024


@dataclass
class PerfMetrics:
    """What the stress tools print."""

    transactions: int
    concurrent: int
    elapsed_s: float
    bytes_moved: int

    @property
    def transaction_rate(self) -> float:
        """Transactions per second."""
        return self.transactions / self.elapsed_s if self.elapsed_s else 0.0

    @property
    def throughput_mbit(self) -> float:
        """Megabits per second."""
        if not self.elapsed_s:
            return 0.0
        return self.bytes_moved * 8 / 1e6 / self.elapsed_s

    @property
    def throughput_bytes(self) -> float:
        """Bytes per second (Siege reports bytes)."""
        return self.bytes_moved / self.elapsed_s if self.elapsed_s else 0.0

    @property
    def response_time_s(self) -> float:
        """Average per-transaction response time at the configured
        concurrency (Little's law on the closed system)."""
        if not self.transactions:
            return 0.0
        return self.concurrent * self.elapsed_s / self.transactions

    @property
    def effective_concurrency(self) -> float:
        """Average in-flight connections (Siege's 'concurrency')."""
        return self.transaction_rate * self.response_time_s


def _owned(simulation: Optional[Simulation], server: str, **config):
    """The caller's simulation, left open, or a fresh one the run closes."""
    if simulation is not None:
        return nullcontext(simulation)
    return Simulation(SimulationConfig(server=server, **config))


def run_scp_stress(
    level: ProtectionLevel = ProtectionLevel.NONE,
    transfers: int = 800,
    concurrent: int = 20,
    seed: int = 0,
    memory_mb: int = 16,
    key_bits: int = 1024,
    simulation: Optional[Simulation] = None,
) -> PerfMetrics:
    """The paper's scp benchmark against an OpenSSH server.

    ``transfers`` defaults to a fifth of the paper's 4000 so the quick
    benches stay fast; pass 4000 for paper scale.
    """
    if concurrent < 1:
        raise ValueError("concurrent must be at least 1")
    with _owned(simulation, "openssh", level=level, seed=seed,
                memory_mb=memory_mb, key_bits=key_bits) as sim:
        sim.start_server()
        # The client holds ``concurrent`` live sessions for the whole run
        # (the paper's "20 concurrent scp connections kept busy").  Pool
        # warm-up happens before the clock starts, mirroring run_siege's
        # ensure_pool; each finished transfer closes its session (scp is
        # one file per connection) and a replacement opens immediately.
        server = sim.server
        server.set_concurrency(concurrent)
        start_us = sim.kernel.clock.now_us
        bytes_moved = 0
        for index in range(transfers):
            size = SCP_FILE_SIZES[index % len(SCP_FILE_SIZES)]
            connection = server.connections[0]
            connection.transfer(size, server.rng)
            connection.close()
            server.open_connection()
            bytes_moved += size
        elapsed_s = (sim.kernel.clock.now_us - start_us) / 1e6
        sim.stop_server()
        return PerfMetrics(
            transactions=transfers,
            concurrent=concurrent,
            elapsed_s=elapsed_s,
            bytes_moved=bytes_moved,
        )


def run_siege(
    level: ProtectionLevel = ProtectionLevel.NONE,
    transactions: int = 800,
    concurrent: int = 20,
    seed: int = 0,
    memory_mb: int = 16,
    key_bits: int = 1024,
    simulation: Optional[Simulation] = None,
) -> PerfMetrics:
    """The Siege benchmark against an Apache server."""
    with _owned(simulation, "apache", level=level, seed=seed,
                memory_mb=memory_mb, key_bits=key_bits) as sim:
        sim.start_server()
        sim.server.ensure_pool(concurrent)
        start_us = sim.kernel.clock.now_us
        bytes_moved = 0
        for _ in range(transactions):
            sim.server.handle_request(SIEGE_RESPONSE_BYTES)
            bytes_moved += SIEGE_RESPONSE_BYTES
        elapsed_s = (sim.kernel.clock.now_us - start_us) / 1e6
        sim.stop_server()
        return PerfMetrics(
            transactions=transactions,
            concurrent=concurrent,
            elapsed_s=elapsed_s,
            bytes_moved=bytes_moved,
        )


def overhead_ratio(before: PerfMetrics, after: PerfMetrics) -> float:
    """Relative slowdown of ``after`` vs ``before`` (0.0 = no penalty)."""
    if before.elapsed_s == 0:
        return 0.0
    return after.elapsed_s / before.elapsed_s - 1.0
