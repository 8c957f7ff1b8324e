"""Struct-of-arrays request batches for the columnar fast path.

The object request path moves one :class:`~repro.mc.controller.MemoryRequest`
at a time through the controller; every request costs a frozen-dataclass
allocation plus per-field attribute loads.  A :class:`ColumnarBatch` holds
the same information as parallel ``array``-module columns — one C-typed
array per field — so producers append plain ints and the consumer
(:meth:`MemoryController.submit_columnar`) iterates machine words instead
of objects.  This is the last structural step before array/numpy-backed
kernels: the batch layout is already the one a vectorised backend wants.

Columns:

``line``      (int64)  physical cache-line index
``is_write``  (int8)   1 = write, 0 = read
``issue_ns``  (int64)  request issue time
``domain``    (int64)  trust-domain id; ``-1`` encodes "no domain"

The object path stays the reference implementation: a batch converts
losslessly to a list of :class:`MemoryRequest` via :meth:`to_requests`,
which the differential tests use to pin bit-identical behaviour (and
the scheduler's counted fallback uses to reach the object path).
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.mc.controller import MemoryRequest

#: sentinel stored in the ``domain`` column for "no domain" (``None``)
NO_DOMAIN = -1


class ColumnarBatch:
    """A resizable struct-of-arrays buffer of memory requests.

    Append-only between :meth:`clear` calls; producers are expected to
    reuse one batch per issue window (`clear` keeps the allocated column
    storage, so steady-state appends never reallocate).
    """

    __slots__ = ("line", "is_write", "issue_ns", "domain")

    def __init__(self) -> None:
        self.line = array("q")
        self.is_write = array("b")
        self.issue_ns = array("q")
        self.domain = array("q")

    def __len__(self) -> int:
        return len(self.line)

    def append(
        self,
        line: int,
        is_write: bool,
        issue_ns: int,
        domain: Optional[int] = None,
    ) -> None:
        """Append one request.  Validation mirrors
        ``MemoryRequest.__post_init__`` so the two paths reject exactly
        the same inputs."""
        if issue_ns < 0:
            raise ValueError("request time must be >= 0")
        if line < 0:
            raise ValueError("physical_line must be >= 0")
        self.line.append(line)
        self.is_write.append(1 if is_write else 0)
        self.issue_ns.append(issue_ns)
        self.domain.append(NO_DOMAIN if domain is None else domain)

    def clear(self) -> None:
        """Empty the batch, keeping the column storage for reuse."""
        del self.line[:]
        del self.is_write[:]
        del self.issue_ns[:]
        del self.domain[:]

    def load_window(
        self,
        line_bytes: bytes,
        write_bytes: bytes,
        issue_ns: int,
        domain,
        count: int,
    ) -> None:
        """Rebind the whole batch to one pre-generated window at C speed.

        ``line_bytes``/``write_bytes`` are raw little-endian int64/int8
        column bytes (``numpy.ndarray.tobytes()`` from the bulk
        generators — already validated upstream by the generator and the
        MMU, so the per-element checks of :meth:`append` are not re-run);
        ``issue_ns`` is the window's shared issue time and ``domain`` is
        either one domain id applied to every element or a prebuilt
        ``array('q')`` column bound as-is (the shared-queue runner reuses
        one interleave template per window).
        """
        if issue_ns < 0:
            raise ValueError("request time must be >= 0")
        line = array("q")
        line.frombytes(line_bytes)
        is_write = array("b")
        is_write.frombytes(write_bytes)
        if len(line) != count or len(is_write) != count:
            raise ValueError("column byte lengths disagree with count")
        self.line = line
        self.is_write = is_write
        self.issue_ns = array("q", (issue_ns,)) * count
        if isinstance(domain, array):
            if len(domain) != count:
                raise ValueError("domain column length disagrees with count")
            self.domain = domain
        else:
            self.domain = array(
                "q", (NO_DOMAIN if domain is None else domain,)
            ) * count

    # ------------------------------------------------------------------
    # Interop with the object (reference) path
    # ------------------------------------------------------------------

    def to_requests(self) -> "List[MemoryRequest]":
        """Materialise the batch as object requests (reference path)."""
        from repro.mc.controller import MemoryRequest

        domains = self.domain
        return [
            MemoryRequest(
                time_ns=self.issue_ns[i],
                physical_line=self.line[i],
                is_write=bool(self.is_write[i]),
                domain=None if domains[i] == NO_DOMAIN else domains[i],
            )
            for i in range(len(self.line))
        ]

    @classmethod
    def from_requests(
        cls, requests: "Iterable[MemoryRequest]"
    ) -> "ColumnarBatch":
        """Build a batch from object requests (tests / adapters).

        DMA requests are rejected: the columnar layout carries no
        ``is_dma`` column (benign workload traffic is never DMA), so a
        lossy conversion here would silently drop the flag.
        """
        batch = cls()
        for request in requests:
            if request.is_dma:
                raise ValueError(
                    "columnar batches do not carry is_dma; route DMA "
                    "requests through the object path"
                )
            batch.append(
                request.physical_line,
                request.is_write,
                request.time_ns,
                request.domain,
            )
        return batch
