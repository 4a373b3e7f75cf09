"""The one-stop facade: a booted machine + server + attack surface.

A :class:`Simulation` is what a downstream user (and every example,
test and benchmark in this repository) drives:

>>> sim = Simulation(SimulationConfig(server="openssh"))
>>> sim.start_server()
>>> sim.hold_connections(16)
>>> report = sim.scan()                      # the scanmemory view
>>> result = sim.run_ntty_attack()           # the [12] exploit
>>> result.success
True

It owns the deterministic RNG streams, generates the RSA key, writes
the PEM file onto the configured root filesystem, boots a kernel whose
patches match the protection level, and instantiates the right server.
"""

from __future__ import annotations

import dataclasses
import hashlib
from contextlib import AbstractContextManager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Union

from repro.apps.httpd import ApacheConfig, ApacheServer
from repro.apps.sshd import OpenSSHServer, SshdConfig
from repro.attacks.ext2_dirleak import Ext2DirLeakAttack
from repro.attacks.keysearch import AttackResult, KeyPatternSet
from repro.attacks.ntty_dump import NttyDumpAttack
from repro.attacks.predict import Ext2PredictAttack, NttyPredictAttack, PredictResult
from repro.attacks.scanner import MemoryScanner, ScanReport
from repro.core.protection import (
    ProtectionLevel,
    ProtectionPolicy,
    kernel_config_for,
    policy_for,
)
from repro.crypto.keycorpus import key_material
from repro.crypto.randsrc import DeterministicRandom
from repro.crypto.rsa import RsaKey
from repro.errors import WorkloadError
from repro.kernel.fs import SimFileSystem
from repro.kernel.kernel import Kernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults import FaultPlan

SSH_KEY_PATH = "/etc/ssh/ssh_host_rsa_key"
APACHE_KEY_PATH = "/etc/apache2/ssl/server.key"


@dataclass
class SimulationConfig:
    """Everything that defines one experiment run."""

    #: "openssh" or "apache".
    server: str = "openssh"
    level: ProtectionLevel = ProtectionLevel.NONE
    memory_mb: int = 16
    key_bits: int = 1024
    seed: int = 0
    #: Root filesystem personality.  The paper's baseline runs had the
    #: key on Reiser (eagerly cached); the mitigated runs moved it to
    #: ext2 "to avoid the additional caching".  ``None`` picks exactly
    #: that per-level default.
    root_fstype: Optional[str] = None
    #: Age the allocator at boot so allocations spread across RAM like
    #: the paper's long-running testbed (see Kernel.age_memory).
    age_memory: bool = True
    #: Fraction of churned frames pinned by unrelated system activity.
    age_hold_fraction: float = 0.30
    #: Field overrides applied to the derived KernelConfig — for
    #: comparison experiments that need machine settings outside the
    #: paper's five protection levels (e.g. Chow-style secure
    #: deallocation: ``{"zero_on_free": True, "zero_on_unmap": True,
    #: "heap_clear_on_free": True}``).
    kernel_overrides: Optional[dict] = None
    #: Attach the KeySan taint sanitizer at boot: the generated key's
    #: CRT parts and PEM are registered as taint sources *before* the
    #: key file touches the filesystem, and every later copy is tracked
    #: byte-for-byte (see :mod:`repro.sanitizer`).
    taint: bool = False
    #: Attach a fault injector carrying this plan (see
    #: :mod:`repro.faults`).  Attachment happens at the *end* of
    #: construction, so boot and memory aging never consume plan ticks:
    #: fault indices count workload-time operations only.
    fault_plan: Optional["FaultPlan"] = None
    #: Namespace KeySan tags per key incarnation (``gen0.d``,
    #: ``gen1.pem``, ...) so :meth:`Simulation.provision_key` can
    #: register a fresh key per supervisor restart and post-mortem
    #: audits can ask for a *dead* generation's bytes specifically.
    #: Off by default: the flat tag names (``d``, ``pem``) every
    #: existing report consumer expects stay unchanged.
    incarnation_tags: bool = False

    def effective_root_fstype(self) -> str:
        if self.root_fstype is not None:
            return self.root_fstype
        return "reiser" if self.level == ProtectionLevel.NONE else "ext2"


class Simulation(AbstractContextManager):
    """A booted machine with one protected-or-not server installed."""

    def __init__(self, config: Optional[SimulationConfig] = None) -> None:
        self.config = config if config is not None else SimulationConfig()
        if self.config.server not in ("openssh", "apache"):
            raise WorkloadError(f"unknown server {self.config.server!r}")

        root_rng = DeterministicRandom(self.config.seed)
        self.keygen_rng = root_rng.fork_stream("keygen")
        self.workload_rng = root_rng.fork_stream("workload")
        self.attack_rng = root_rng.fork_stream("attack")

        self.policy: ProtectionPolicy = policy_for(self.config.level)
        kernel_config = kernel_config_for(self.policy, memory_mb=self.config.memory_mb)
        if self.config.kernel_overrides:
            kernel_config = dataclasses.replace(
                kernel_config, **self.config.kernel_overrides
            )
        self.kernel = Kernel(kernel_config)
        if self.config.age_memory:
            self.kernel.age_memory(
                root_rng.fork_stream("aging"),
                hold_fraction=self.config.age_hold_fraction,
            )

        # Key material + PEM file on the root filesystem.  Fetched
        # through the per-process key corpus: byte-identical to calling
        # generate_rsa_key(key_bits, self.keygen_rng) here (fork_stream
        # is stateless, so the corpus derives the very same stream),
        # but repeated (key_bits, seed) runs — every sweep repetition —
        # skip the Miller–Rabin regrind.
        material = key_material(self.config.key_bits, self.config.seed)
        self.key: RsaKey = material.key
        self.pem: bytes = material.pem
        self.patterns = KeyPatternSet.from_key(self.key, self.pem)

        # Taint mode: register the secrets before the PEM file exists
        # anywhere, so even the mount-time page-cache preload is seen.
        self.incarnation = 0
        self.patterns_by_incarnation: Dict[int, KeyPatternSet] = {0: self.patterns}
        self.keysan = None
        if self.config.taint:
            from repro.sanitizer import KeySan

            self.keysan = KeySan.attach(self.kernel)
            self.keysan.register_key(
                self.key, self.pem, prefix=self.incarnation_prefix(0)
            )

        key_path = SSH_KEY_PATH if self.config.server == "openssh" else APACHE_KEY_PATH
        self._key_path = key_path
        self.root_fs = SimFileSystem(
            self.config.effective_root_fstype(), label="root"
        )
        self._create_parents(key_path)
        self.root_fs.create_file(key_path, self.pem)
        self.kernel.vfs.mount("/", self.root_fs)

        self.server: Union[OpenSSHServer, ApacheServer]
        if self.config.server == "openssh":
            self.server = OpenSSHServer(
                self.kernel,
                SshdConfig.for_policy(self.policy, key_path=key_path),
                rng=self.workload_rng,
            )
        else:
            self.server = ApacheServer(
                self.kernel,
                ApacheConfig.for_policy(self.policy, key_path=key_path),
                rng=self.workload_rng,
            )

        self._scanner = MemoryScanner(self.kernel, self.patterns)
        self._dirleak: Optional[Ext2DirLeakAttack] = None
        self._ntty = NttyDumpAttack(self.kernel, self.patterns)
        self._ntty_predict: Optional[NttyPredictAttack] = None
        self._ext2_predict: Optional[Ext2PredictAttack] = None

        self.faults = None
        if self.config.fault_plan is not None:
            from repro.faults import FaultInjector

            self.faults = FaultInjector.attach(
                self.kernel, self.config.fault_plan
            )

    def _create_parents(self, path: str) -> None:
        parts = path.strip("/").split("/")[:-1]
        current = ""
        for part in parts:
            current = f"{current}/{part}" if current else part
            if current not in self.root_fs.dirs:
                self.root_fs.dirs.add(current)

    # ------------------------------------------------------------------
    # key provisioning across incarnations
    # ------------------------------------------------------------------
    def incarnation_prefix(self, incarnation: int) -> str:
        """KeySan tag-name prefix for one key generation ('' unless
        :attr:`SimulationConfig.incarnation_tags` is set)."""
        return f"gen{incarnation}." if self.config.incarnation_tags else ""

    def _incarnation_seed(self, incarnation: int) -> int:
        """Key-corpus seed for one generation; generation 0 is the
        configured seed itself (byte-identical to a non-supervised
        run), later generations derive via SHA-256."""
        if incarnation == 0:
            return self.config.seed
        digest = hashlib.sha256(
            f"repro-incarnation-v1|{self.config.seed}|{incarnation}".encode("ascii")
        ).digest()
        return int.from_bytes(digest[:8], "big")

    def provision_key(self, incarnation: int) -> None:
        """Install a fresh host key for the ``incarnation``-th service
        generation: generate it, replace the PEM file *in place*,
        invalidate the stale page-cache pages of the old PEM, and (in
        taint mode) register the new secrets under a ``gen<n>.`` tag
        prefix.  The next :meth:`start_server` loads the new key; scans
        and attacks from here on target the new patterns.
        """
        if incarnation in self.patterns_by_incarnation:
            raise WorkloadError(
                f"incarnation {incarnation} was already provisioned"
            )
        if self.keysan is not None and not self.config.incarnation_tags:
            raise WorkloadError(
                "provision_key under taint requires incarnation_tags=True "
                "(flat tag names would collide across generations)"
            )
        material = key_material(
            self.config.key_bits, self._incarnation_seed(incarnation)
        )
        self.key, self.pem = material.key, material.pem
        self.patterns = KeyPatternSet.from_key(self.key, self.pem)
        self.patterns_by_incarnation[incarnation] = self.patterns
        self.incarnation = incarnation
        if self.keysan is not None:
            self.keysan.register_key(
                self.key, self.pem, prefix=self.incarnation_prefix(incarnation)
            )
        # write_file keeps the same file_id, so cached pages of the old
        # PEM would otherwise keep serving (and leaking) stale key
        # bytes: drop them explicitly, like the real key-rotation
        # recipe's `sync; echo 1 > drop_caches` step.
        file = self.root_fs.write_file(self._key_path, self.pem)
        self.kernel.pagecache.invalidate(file.file_id)
        self.server.incarnation = incarnation
        self._scanner = MemoryScanner(self.kernel, self.patterns)
        self._ntty = NttyDumpAttack(self.kernel, self.patterns)
        self._ntty_predict = None
        self._ext2_predict = None

    # ------------------------------------------------------------------
    # server driving
    # ------------------------------------------------------------------
    def start_server(self) -> None:
        self.server.start()

    def stop_server(self) -> None:
        self.server.stop()

    def cycle_connections(self, count: int, transfer_bytes: int = 100 * 1024) -> None:
        """Open→transfer→close ``count`` sequential sessions/requests."""
        if isinstance(self.server, OpenSSHServer):
            for _ in range(count):
                self.server.run_connection_cycle(transfer_bytes)
        else:
            self.server.ensure_pool(1)
            for _ in range(count):
                self.server.handle_request(transfer_bytes)

    def hold_connections(self, concurrent: int) -> None:
        """Bring the server to ``concurrent`` simultaneous sessions.

        For Apache this sizes the prefork pool and puts one handshake
        through every worker (an in-flight request per connection).
        """
        if isinstance(self.server, OpenSSHServer):
            self.server.set_concurrency(concurrent)
        else:
            self.server.ensure_pool(concurrent)
            for _ in range(concurrent):
                self.server.handle_request(16 * 1024)

    # ------------------------------------------------------------------
    # measurement & attacks
    # ------------------------------------------------------------------
    def scan(self, incremental: bool = False) -> ScanReport:
        """Run the scanmemory analog over all of RAM.

        ``incremental=True`` reuses the scanner's cached hits for
        frames unchanged since the previous scan (identical report,
        time charged only for the re-searched ranges).
        """
        return self._scanner.scan(incremental=incremental)

    def taint_report(self):
        """Build the KeySan ground-truth report (requires ``taint=True``)."""
        if self.keysan is None:
            raise WorkloadError("simulation was not built with taint=True")
        return self.keysan.report(self.patterns)

    def run_ext2_attack(self, num_dirs: int = 1000) -> AttackResult:
        """The [17] directory-leak attack (lazily mounts the USB stick)."""
        if self._dirleak is None:
            self._dirleak = Ext2DirLeakAttack(self.kernel, self.patterns)
        return self._dirleak.run(num_dirs)

    def run_ntty_attack(self) -> AttackResult:
        """The [12] random-window dump attack."""
        return self._ntty.run(self.attack_rng)

    def run_ext2_predict(self, num_dirs: int = 1000) -> PredictResult:
        """The [17] leak driven by the structural attacker: success
        means the full key was *rebuilt* from derived fragments + the
        public key, not that a verbatim pattern matched."""
        if self._dirleak is None:
            self._dirleak = Ext2DirLeakAttack(self.kernel, self.patterns)
        if self._ext2_predict is None:
            self._ext2_predict = Ext2PredictAttack(
                self._dirleak, self.key.n, self.key.e
            )
        return self._ext2_predict.run(num_dirs)

    def run_ntty_predict(self) -> PredictResult:
        """The [12] dump driven by the structural attacker."""
        if self._ntty_predict is None:
            self._ntty_predict = NttyPredictAttack(
                self.kernel, self.key.n, self.key.e
            )
        return self._ntty_predict.run(self.attack_rng)

    def close(self) -> None:
        """Shut the machine down (:meth:`Kernel.shutdown`); idempotent."""
        self.kernel.shutdown()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulation(server={self.config.server!r}, "
            f"level={self.config.level.value}, seed={self.config.seed})"
        )
