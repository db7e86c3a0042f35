"""Layout base class and placement primitives.

Physical model: an array of ``n_disks`` identical disks, each holding
``rows`` block rows of ``block_size`` bytes.  A layout divides each disk
into a *data region* (rows ``[0, data_rows)``) and, for mirrored
layouts, a *mirror region* (rows ``[data_rows, rows)``); RAID-5 embeds
parity inside stripes instead.

Logical address space: data blocks ``0 .. data_blocks-1``, exposed to
clients as one contiguous virtual disk (the single I/O space).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Set, Tuple

from repro.errors import AddressError, ConfigurationError, LayoutError


@dataclass(frozen=True)
class Placement:
    """A physical location: disk id and byte offset on that disk."""

    disk: int
    offset: int

    def end(self, nbytes: int) -> int:
        return self.offset + nbytes


class Layout:
    """Abstract block-placement geometry.

    Parameters
    ----------
    n_disks:
        Total number of disks in the array (``n × k`` for 2D arrays).
    block_size:
        Striping unit in bytes.
    disk_capacity:
        Usable bytes per disk.
    stripe_width:
        Disks per stripe group (``n``); defaults to ``n_disks``.
    """

    #: Architecture name, overridden by subclasses.
    name = "abstract"
    #: Whether the layout stores redundancy (mirror or parity).
    redundant = True

    def __init__(
        self,
        n_disks: int,
        block_size: int,
        disk_capacity: int,
        stripe_width: int | None = None,
    ):
        if n_disks < 2:
            raise ConfigurationError("an array needs at least 2 disks")
        if block_size <= 0 or disk_capacity < block_size:
            raise ConfigurationError("bad block size / disk capacity")
        self.n_disks = n_disks
        self.block_size = block_size
        self.disk_capacity = disk_capacity
        self.rows = disk_capacity // block_size
        self.stripe_width = stripe_width or n_disks
        if not (2 <= self.stripe_width <= n_disks):
            raise ConfigurationError(
                f"stripe width {self.stripe_width} out of range"
            )
        if n_disks % self.stripe_width:
            raise ConfigurationError(
                "n_disks must be a multiple of the stripe width"
            )

    # -- capacity ----------------------------------------------------------
    @property
    def data_rows(self) -> int:
        """Rows of the per-disk data region (override in subclasses)."""
        raise NotImplementedError

    @property
    def data_blocks(self) -> int:
        """Total addressable logical blocks."""
        raise NotImplementedError

    @property
    def data_capacity(self) -> int:
        """Addressable bytes of the virtual disk."""
        return self.data_blocks * self.block_size

    def check_block(self, block: int) -> None:
        if not 0 <= block < self.data_blocks:
            raise AddressError(
                f"logical block {block} outside [0, {self.data_blocks})"
            )

    # -- geometry ------------------------------------------------------------
    def data_location(self, block: int) -> Placement:
        """Primary placement of a logical data block.

        Default: RAID-0 striping over all disks, block ``i`` → disk
        ``i mod D``, row ``i // D``.  Layouts with another data pattern
        override it with their own closed form.
        """
        self.check_block(block)
        row, disk = divmod(block, self.n_disks)
        return Placement(disk, row * self.block_size)

    def redundancy_locations(self, block: int) -> List[Placement]:
        """Mirror-image placements of ``block`` (empty for RAID-0/RAID-5;
        RAID-5 exposes parity via :meth:`parity_location` because parity
        is shared per stripe, not per block)."""
        return []

    def read_sources(self, block: int) -> List[Placement]:
        """All placements a read of ``block`` may be served from,
        primary first."""
        return [self.data_location(block)] + self.redundancy_locations(block)

    def stripe_of(self, block: int) -> int:
        """Index of the stripe group containing ``block``."""
        raise NotImplementedError

    def stripe_blocks(self, stripe: int) -> List[int]:
        """The logical blocks forming a stripe group."""
        raise NotImplementedError

    def full_stripe(self, blocks: Sequence[int]) -> bool:
        """True if ``blocks`` covers at least one entire stripe group."""
        by_stripe: dict[int, set] = {}
        for b in blocks:
            by_stripe.setdefault(self.stripe_of(b), set()).add(b)
        return any(
            set(self.stripe_blocks(s)) <= members
            for s, members in by_stripe.items()
        )

    # -- fault coverage --------------------------------------------------
    def tolerates(self, failed: Iterable[int]) -> bool:
        """True if no data is lost with the given set of failed disks."""
        raise NotImplementedError

    def max_fault_coverage(self) -> int:
        """Largest f such that *some* f-disk failure pattern is survivable."""
        # Greedy enumeration; subclasses may override with closed forms.
        best = 0
        survivor: Set[int] = set()
        for d in range(self.n_disks):
            if self.tolerates(survivor | {d}):
                survivor.add(d)
                best += 1
        return best

    def surviving_read_sources(
        self, block: int, failed: Set[int]
    ) -> List[Placement]:
        """Read placements for ``block`` excluding failed disks."""
        return [p for p in self.read_sources(block) if p.disk not in failed]

    # -- introspection helpers ---------------------------------------------
    def node_of_disk(self, disk: int) -> int:
        """The cluster node driving ``disk`` (paper's Fig. 3 numbering:
        node j owns disks j, j+n, j+2n, … where n is the stripe width)."""
        return disk % self.stripe_width

    def disk_group(self, disk: int) -> int:
        """The n-disk group (pipeline stage) a disk belongs to."""
        return disk // self.stripe_width

    def placement_map(self, max_blocks: int = 16) -> str:
        """ASCII rendering of the first ``max_blocks`` data/image rows —
        reproduces the style of the paper's Fig. 1 / Fig. 3."""
        n = self.n_disks
        grid: dict[Tuple[int, int], str] = {}
        for b in range(min(max_blocks, self.data_blocks)):
            p = self.data_location(b)
            grid[(p.disk, p.offset // self.block_size)] = f"B{b}"
            for m in self.redundancy_locations(b):
                grid[(m.disk, m.offset // self.block_size)] = f"M{b}"
        occupied = sorted({r for _d, r in grid})
        lines = ["disk: " + "  ".join(f"D{d:<4}" for d in range(n))]
        prev = None
        for r in occupied:
            if prev is not None and r > prev + 1:
                lines.append("  ...")
            cells = [grid.get((d, r), ".") for d in range(n)]
            lines.append(f"row {r:>2}: " + "  ".join(f"{c:<5}" for c in cells))
            prev = r
        return "\n".join(lines)

    def verify_invariants(self, blocks: int = 256) -> None:
        """Check core placement invariants over the first ``blocks`` blocks.

        Raises :class:`LayoutError` on violation.  Used by property tests
        and at array construction time.
        """
        seen: dict = {}
        upper = min(blocks, self.data_blocks)
        for b in range(upper):
            p = self.data_location(b)
            if not 0 <= p.disk < self.n_disks:
                raise LayoutError(f"block {b}: disk {p.disk} out of range")
            if not 0 <= p.offset <= self.disk_capacity - self.block_size:
                raise LayoutError(f"block {b}: offset {p.offset} out of range")
            key = (p.disk, p.offset)
            if key in seen:
                raise LayoutError(
                    f"placement collision: blocks {seen[key]} and {b} "
                    f"both at disk {p.disk} offset {p.offset}"
                )
            seen[key] = ("data", b)
            for m in self.redundancy_locations(b):
                if not 0 <= m.disk < self.n_disks:
                    raise LayoutError(
                        f"block {b}: image disk {m.disk} out of range"
                    )
                if not 0 <= m.offset <= self.disk_capacity - self.block_size:
                    raise LayoutError(
                        f"block {b}: image offset {m.offset} past the "
                        f"disk end"
                    )
                if m.disk == p.disk:
                    raise LayoutError(
                        f"block {b}: image on same disk as data "
                        f"(disk {p.disk}) — orthogonality violated"
                    )
                mkey = (m.disk, m.offset)
                if mkey in seen:
                    raise LayoutError(
                        f"placement collision at disk {m.disk} offset "
                        f"{m.offset}: {seen[mkey]} vs image of {b}"
                    )
                seen[mkey] = ("image", b)
