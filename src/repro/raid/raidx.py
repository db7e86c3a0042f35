"""RAID-x: orthogonal striping and mirroring (OSM) — the paper's §2.

Geometry for an ``n × k`` array (n nodes = stripe width, k disks per
node = pipeline depth, D = nk disks total):

* **Data** stripes RAID-0-style across *all* D disks in the order
  D0, D1, …, D(D-1): block ``i`` → disk ``i mod D``, data row ``i // D``
  (top half of every disk), exactly as in the paper's Fig. 3.
* **Mirroring** is confined to each *disk group* of n disks (disks
  ``[cn, (c+1)n)`` — one disk per node, the unit of stripe parallelism).
  Within group ``c``, the group's data blocks in address order get local
  indices ℓ = 0, 1, 2, …; each run of ``n-1`` consecutive indices forms
  a **mirror group** whose images are *clustered* — stored as one long
  (n-1)-block sequential extent — on the single image disk

      image_disk(g) = c·n + ((g+1)·(n-1)) mod n

  in the bottom half of the disk.  Since ``gcd(n-1, n) = 1`` the image
  disk cycles through all n disks of the group (load balance), and the
  congruence ``p ≡ n-1 (mod n)`` is unsatisfiable for in-group positions
  ``p ≤ n-2``, so **no image ever shares a disk with its data block**
  (orthogonality — verified by property tests).

Consequences reproduced from the paper:

* the images of one n-block stripe group land on exactly two disks;
* a full-stripe write issues n parallel foreground block writes plus
  two long background image writes — no read-modify-write ever;
* one disk failure per disk group is survivable (``k`` failures total
  for an n×k array — the paper's "up to 3 failures in 3 stripe groups"
  for the 4×3 configuration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from repro.errors import ConfigurationError
from repro.raid.layout import Layout, Placement


@dataclass(frozen=True)
class MirrorGroup:
    """One clustered image extent: ``n-1`` consecutive blocks of a disk
    group, stored as a single long block on ``image_disk``.  Members are
    listed on demand by :meth:`RaidxLayout.mirror_group_members`."""

    group_id: int  # global id: (disk_group, local_group) flattened
    disk_group: int
    image_disk: int
    image_offset: int  # byte offset of the extent start


class RaidxLayout(Layout):
    """Orthogonal striping and mirroring over an n × k disk array.

    Every placement is closed-form index arithmetic: data block ``i`` is
    the RAID-0 stripe of the base class, and its image follows from the
    block's (disk group, mirror group, position) coordinates.
    """

    name = "raidx"

    def __init__(
        self,
        n_disks: int,
        block_size: int,
        disk_capacity: int,
        stripe_width: int | None = None,
    ):
        super().__init__(n_disks, block_size, disk_capacity, stripe_width)
        self.n = self.stripe_width
        self.k = n_disks // self.n
        if self.n < 3:
            raise ConfigurationError(
                "RAID-x needs stripe width >= 3 (n-1 >= 2 blocks per "
                "mirror group)"
            )
        self._data_rows = self._fit_data_rows()
        self._mirror_base = self._data_rows * block_size
        # Local blocks per disk group, and mirror groups per disk group
        # (the last one truncated when n-1 does not divide the former).
        self._local_blocks = self._data_rows * self.n
        self._groups_per_disk_group = -(-self._local_blocks // (self.n - 1))

    # -- capacity ----------------------------------------------------------
    def _mirror_rows_needed(self, data_rows: int) -> int:
        """Image rows a disk must hold when the data region has
        ``data_rows`` rows.

        The image row of local index ℓ is ``(ℓ//(n-1)//n)·(n-1) +
        ℓ mod (n-1)``; the ``p`` term skews up to ``n-2`` rows past the
        rotation base, so the region needs slightly *more* than
        ``data_rows`` rows.  With ``G, P`` the group and position of the
        last local index and ``R = G // n`` its rotation: if an earlier
        group shares rotation ``R`` it is complete and reaches position
        ``n-2``, else group ``G`` alone sets the maximum.
        """
        n = self.n
        G, P = divmod(data_rows * n - 1, n - 1)
        R = G // n
        if G > R * n:
            return (R + 1) * (n - 1)
        return R * (n - 1) + P + 1

    def _fit_data_rows(self) -> int:
        """Largest data region whose images still fit below the disk end.

        An even split (``rows // 2``) overcommits: the image-row skew
        (see :meth:`_mirror_rows_needed`) pushes the last few images up
        to ``n-2`` rows past half the disk, which would address past the
        end of the physical disk for tail blocks.
        """
        d = self.rows // 2
        while d > 0 and self._mirror_rows_needed(d) > self.rows - d:
            d -= 1
        return d

    @property
    def data_rows(self) -> int:
        return self._data_rows

    @property
    def data_blocks(self) -> int:
        return self.data_rows * self.n_disks

    @property
    def mirror_base(self) -> int:
        """Byte offset where the clustered-image region starts."""
        return self._mirror_base

    # -- mirror placement ----------------------------------------------------
    def _group_local_index(self, block: int) -> tuple:
        """(disk_group c, local index ℓ) of a data block within its group."""
        q, disk = divmod(block, self.n_disks)
        c, r = divmod(disk, self.n)
        return c, q * self.n + r

    def _local_block(self, c: int, ell: int) -> int:
        """Inverse of :meth:`_group_local_index`."""
        q, r = divmod(ell, self.n)
        return q * self.n_disks + c * self.n + r

    def _mirror_coords(self, block: int) -> tuple:
        """(disk group c, mirror group g within c, position p within g)."""
        c, ell = self._group_local_index(block)
        g, p = divmod(ell, self.n - 1)
        return c, g, p

    def _image(self, c: int, g: int, p: int) -> Placement:
        """Slot ``p`` of mirror group ``g``'s clustered extent in disk
        group ``c``: disk ``c·n + ((g+1)(n-1)) mod n``, image row
        ``(g//n)(n-1) + p``."""
        n = self.n
        row = (g // n) * (n - 1) + p
        return Placement(
            c * n + ((g + 1) * (n - 1)) % n,
            self._mirror_base + row * self.block_size,
        )

    def mirror_group_of(self, block: int) -> MirrorGroup:
        """The mirror group (clustered image extent) containing ``block``."""
        self.check_block(block)
        c, g, _p = self._mirror_coords(block)
        start = self._image(c, g, 0)
        return MirrorGroup(
            group_id=c * self._groups_per_disk_group + g,
            disk_group=c,
            image_disk=start.disk,
            image_offset=start.offset,
        )

    def mirror_group_members(self, block: int) -> tuple:
        """Logical blocks of ``block``'s mirror group, in image order.

        O(n); the I/O paths never list members — they address each
        image through :meth:`redundancy_locations`.
        """
        self.check_block(block)
        c, ell = self._group_local_index(block)
        lo = ell - ell % (self.n - 1)
        hi = min(lo + self.n - 1, self._local_blocks)
        return tuple(self._local_block(c, j) for j in range(lo, hi))

    def redundancy_locations(self, block: int) -> List[Placement]:
        """Image placement of ``block``: position ``ℓ mod (n-1)`` of its
        mirror group's clustered extent."""
        self.check_block(block)
        return [self._image(*self._mirror_coords(block))]

    # -- stripes -------------------------------------------------------------
    def stripe_of(self, block: int) -> int:
        self.check_block(block)
        return block // self.n

    def stripe_blocks(self, stripe: int) -> List[int]:
        start = stripe * self.n
        return [b for b in range(start, start + self.n) if b < self.data_blocks]

    def stripe_image_disks(self, stripe: int) -> List[int]:
        """The (at most two) disks carrying the stripe group's images."""
        disks = []
        for b in self.stripe_blocks(stripe):
            d = self.mirror_group_of(b).image_disk
            if d not in disks:
                disks.append(d)
        return disks

    # -- fault model -----------------------------------------------------
    def tolerates(self, failed: Iterable[int]) -> bool:
        """Survivable iff no disk group has two failed disks.

        Mirroring is confined to disk groups, and within a group every
        ordered disk pair (data, image) is realized by some mirror group,
        so two failures in one group always lose data while failures in
        distinct groups never conflict.
        """
        failed = set(failed)
        if any(not 0 <= d < self.n_disks for d in failed):
            return False
        per_group: dict[int, int] = {}
        for d in failed:
            c = d // self.n
            per_group[c] = per_group.get(c, 0) + 1
            if per_group[c] > 1:
                return False
        return True

    def max_fault_coverage(self) -> int:
        return self.k
