"""Exception hierarchy for the repro simulator.

Every error raised by the simulated machine derives from
:class:`ReproError` so callers can distinguish simulator faults from
ordinary Python errors.  The kernel-facing errors mirror the errno-style
failures the real system calls would produce (``ENOMEM``, ``ENOENT``,
``EFAULT``, ...), which keeps application code written against the
simulated syscall layer close to its C counterpart.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all simulator errors."""


class MemoryError_(ReproError):
    """Base class for physical/virtual memory errors.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`MemoryError`.
    """


class OutOfMemoryError(MemoryError_):
    """The buddy allocator has no free block of the requested order (ENOMEM)."""


class BadAddressError(MemoryError_):
    """An access touched an unmapped or out-of-range address (EFAULT)."""


class ProtectionFaultError(MemoryError_):
    """A write hit a read-only mapping that is not copy-on-write (SIGSEGV)."""


class AllocatorStateError(MemoryError_):
    """The allocator was driven into an invalid state (double free, bad order)."""


class SwapError(MemoryError_):
    """Swap device is full or an invalid swap slot was referenced."""


class MachineShutdownError(MemoryError_):
    """A store released by :meth:`repro.kernel.kernel.Kernel.shutdown` was used."""


class KernelError(ReproError):
    """Base class for kernel subsystem errors."""


class SyscallInterruptedError(KernelError):
    """A syscall was interrupted and should be retried (EINTR).

    Transient by contract: the operation did not happen, no state
    changed, and the caller is expected to retry.  The fault injector
    raises it at the syscall layer to prove callers actually do.
    """


class DiskIOError(KernelError):
    """A device I/O operation failed (EIO).

    Unlike EINTR this is not retryable-by-contract: the caller must
    fail the current operation and degrade (reject the connection,
    keep the rest of the machine serving).
    """


class ProcessError(KernelError):
    """Invalid process operation (unknown pid, double exit, fork of a zombie)."""


class FileSystemError(KernelError):
    """Base class for filesystem errors."""


class FileNotFoundError_(FileSystemError):
    """Path does not exist (ENOENT)."""


class FileExistsError_(FileSystemError):
    """Path already exists (EEXIST)."""


class NotADirectoryError_(FileSystemError):
    """A path component is not a directory (ENOTDIR)."""


class IsADirectoryError_(FileSystemError):
    """Regular-file operation attempted on a directory (EISDIR)."""


class BadFileDescriptorError(FileSystemError):
    """Operation on a closed or never-opened descriptor (EBADF)."""


class NoSpaceError(FileSystemError):
    """The filesystem's block budget is exhausted (ENOSPC)."""


class CryptoError(ReproError):
    """Base class for crypto-substrate errors."""


class KeyGenerationError(CryptoError):
    """Prime or key generation failed (bad bit size, exhausted attempts)."""


class EncodingError(CryptoError):
    """DER/PEM encoding or decoding failed."""


class SignatureError(CryptoError):
    """Signature verification failed."""


class PaddingError(CryptoError):
    """PKCS#1 padding was malformed on decryption."""


class SslError(ReproError):
    """Base class for the OpenSSL-like library layer."""


class BignumError(SslError):
    """Invalid BIGNUM operation (e.g. writing a static BN)."""


class RsaStructError(SslError):
    """RSA struct misuse (missing parts, double free)."""


class AttackError(ReproError):
    """An attack harness was misconfigured (e.g. dumping on a patched FS)."""


class WorkloadError(ReproError):
    """A workload driver hit an inconsistent server state."""


class ConnectionRejectedError(WorkloadError):
    """A server rejected one connection/request after a resource fault.

    This is the *graceful degradation* signal: the affected child or
    worker was torn down (its key state scrubbed where it owned any),
    the listener keeps serving, and the caller may simply try again.
    """
