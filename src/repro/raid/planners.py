"""Pure per-architecture planners: request in, :class:`IOPlan` out.

One planner per architecture turns ``(op, offset, nbytes, failed)``
into the declarative plan its protocol requires — RAID-x's clustered
mirror-image extents and RAID-5's read-modify-write vs. full-stripe
choice are *plan-construction decisions* here, not control flow in the
executor.  Planners are side-effect free: no simulator processes, no
hardware, no mutation of anything they are handed.  The division of
labour with :mod:`repro.cluster.engine`:

* the **planner** decides structure from geometry and request shape
  (which copies exist, how parity pairs with data, how image fragments
  coalesce into extents);
* the **engine** decides everything that depends on runtime state —
  filtering ops against the live failed-disk set at each spawn point,
  queue-depth read balancing, lock waits, write-behind absorption.

``plan()`` accepts the failed set so degraded-aware planners *can* use
it, but the stock planners deliberately ignore it for writes: disks can
fail while a request waits on a lock, so failure filtering must happen
at execution time to be correct.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Optional, Tuple

from repro.errors import AddressError, DataLossError
from repro.raid.layout import Layout, Placement
from repro.raid.mirror_policy import MirrorPolicy
from repro.raid.plan import (
    CopySet,
    ImageExtent,
    IOPlan,
    MirroredPieceWrite,
    OrthogonalWrite,
    ParallelWrite,
    ParityWrite,
    Piece,
    PieceOp,
    ReadContext,
    ReadPiece,
    ReadPlan,
    ReconstructRead,
    RmwPass,
    FullStripePass,
    SerialWrite,
    StripeWrite,
    WriteContext,
    split_into_blocks,
)

FailedSet = AbstractSet[int]


class Planner:
    """Base planner: piece splitting, read plans, source ranking."""

    arch = "abstract"

    def __init__(self, layout: Layout):
        self.layout = layout

    # -- addressing --------------------------------------------------------
    def pieces_for(self, offset: int, nbytes: int) -> List[Piece]:
        """Split a logical byte range into per-disk pieces."""
        capacity = self.layout.data_capacity
        if offset < 0 or nbytes < 0 or offset + nbytes > capacity:
            raise AddressError(
                f"range [{offset}, {offset + nbytes}) outside virtual disk "
                f"of {capacity} bytes"
            )
        return [
            Piece(
                block=block,
                intra=intra,
                nbytes=take,
                placement=self.layout.data_location(block),
            )
            for block, intra, take in split_into_blocks(
                offset, nbytes, self.layout.block_size
            )
        ]

    # -- plan construction -------------------------------------------------
    def plan(
        self,
        op: str,
        offset: int,
        nbytes: int,
        failed: FailedSet = frozenset(),
        wctx: Optional[WriteContext] = None,
    ) -> IOPlan:
        """Build the declarative plan for one logical request.

        ``wctx`` (cache destages only) names the blocks whose pre-write
        content the buffer cache holds; parity planners may absorb
        those blocks' RMW pre-reads.
        """
        pieces = self.pieces_for(offset, nbytes)
        action: object = None
        if pieces:
            if op == "read":
                action = ReadPlan(tuple(ReadPiece(p) for p in pieces))
            else:
                action = self.plan_write(pieces, failed, wctx)
        return IOPlan(
            arch=self.arch,
            op=op,
            offset=offset,
            nbytes=nbytes,
            pieces=tuple(pieces),
            lock_blocks=tuple(p.block for p in pieces),
            action=action,
        )

    def plan_write(
        self,
        pieces: List[Piece],
        failed: FailedSet,
        wctx: Optional[WriteContext] = None,
    ) -> object:
        raise NotImplementedError

    # -- read-source ranking (consulted per attempt by the engine) ---------
    def read_candidates(
        self, piece: Piece, failed: FailedSet, ctx: ReadContext
    ) -> Tuple[Tuple[Placement, ...], bool]:
        """Ordered surviving copies for a read, preferred first.

        Returns ``(candidates, may_balance)``: when ``may_balance`` is
        true the engine's read policy may divert from the preferred copy
        by queue depth; when false the ranking is binding.  An empty
        tuple means no copy survives — reconstruct or fail.
        """
        return (
            tuple(self.layout.surviving_read_sources(piece.block, failed)),
            True,
        )

    def plan_reconstruct(
        self, piece: Piece, failed: FailedSet
    ) -> ReconstructRead:
        """Plan a peer-reconstruction read, or raise
        :class:`~repro.errors.DataLossError` when the layout cannot."""
        raise DataLossError(
            f"block {piece.block}: all copies on failed disks "
            f"{sorted(failed)}"
        )

    # -- helpers -----------------------------------------------------------
    def _data_write(self, p: Piece, tolerant: bool = False) -> PieceOp:
        return PieceOp(
            "write", p.disk, p.disk_offset, p.nbytes,
            kind="data", block=p.block, tolerant=tolerant,
        )


class Raid0Planner(Planner):
    """Striping only: one parallel burst of non-tolerant data writes —
    no redundancy means a mid-write disk failure must surface."""

    arch = "raid0"

    def plan_write(
        self,
        pieces: List[Piece],
        failed: FailedSet,
        wctx: Optional[WriteContext] = None,
    ) -> object:
        return ParallelWrite(
            pieces=tuple(
                MirroredPieceWrite(
                    block=p.block,
                    ops=(self._data_write(p),),
                    skip_failed=False,
                    require_alive=False,
                )
                for p in pieces
            ),
        )


class MirroredPlanner(Planner):
    """Foreground mirroring shared by RAID-10 and chained declustering.

    ``serial`` commits the mirror copy after the primary completes
    (write-through, as the era's simple mirroring drivers did) instead
    of issuing both concurrently.
    """

    serial = False

    def _copy_sets(self, pieces: List[Piece]) -> Tuple[CopySet, ...]:
        lay = self.layout
        return tuple(
            CopySet(
                p.block,
                tuple(
                    c.disk
                    for c in [p.placement] + lay.redundancy_locations(p.block)
                ),
            )
            for p in pieces
        )

    def plan_write(
        self,
        pieces: List[Piece],
        failed: FailedSet,
        wctx: Optional[WriteContext] = None,
    ) -> object:
        lay = self.layout
        copies = self._copy_sets(pieces)
        if self.serial:
            # Primary wave first, mirror wave after it commits.
            waves = (
                tuple(self._data_write(p, tolerant=True) for p in pieces),
                tuple(
                    PieceOp(
                        "write", m.disk, m.offset + p.intra, p.nbytes,
                        kind="mirror", block=p.block, tolerant=True,
                    )
                    for p in pieces
                    for m in lay.redundancy_locations(p.block)
                ),
            )
            return SerialWrite(copies=copies, waves=waves)
        bursts = []
        for p in pieces:
            locs = [p.placement] + lay.redundancy_locations(p.block)
            bursts.append(
                MirroredPieceWrite(
                    block=p.block,
                    ops=tuple(
                        PieceOp(
                            "write", c.disk, c.offset + p.intra, p.nbytes,
                            kind="data" if i == 0 else "mirror",
                            block=p.block, tolerant=True,
                        )
                        for i, c in enumerate(locs)
                    ),
                )
            )
        return ParallelWrite(
            pieces=tuple(bursts), copies=copies, check_survivors=True
        )


class Raid10Planner(MirroredPlanner):
    arch = "raid10"
    serial = True


class ChainedPlanner(MirroredPlanner):
    arch = "chained"


class Raid5Planner(Planner):
    """Rotating parity: full-stripe vs. read-modify-write is decided
    here, per stripe, from the request shape alone."""

    arch = "raid5"

    def __init__(
        self,
        layout: Layout,
        full_stripe_optimization: bool = False,
        batch_rmw: bool = False,
    ):
        super().__init__(layout)
        self.full_stripe_optimization = full_stripe_optimization
        self.batch_rmw = batch_rmw

    def _by_stripe(self, pieces: List[Piece]) -> Dict[int, List[Piece]]:
        out: Dict[int, List[Piece]] = {}
        for p in pieces:
            out.setdefault(self.layout.stripe_of(p.block), []).append(p)
        return out

    def _is_full_stripe(self, stripe: int, spieces: List[Piece]) -> bool:
        want = set(self.layout.stripe_blocks(stripe))
        have = {
            p.block
            for p in spieces
            if p.intra == 0 and p.nbytes == self.layout.block_size
        }
        return want <= have

    def plan_write(
        self,
        pieces: List[Piece],
        failed: FailedSet,
        wctx: Optional[WriteContext] = None,
    ) -> object:
        lay = self.layout
        bs = lay.block_size
        stripes = []
        for stripe, spieces in self._by_stripe(pieces).items():
            ploc = lay.parity_location(stripe)  # type: ignore[attr-defined]
            if self.full_stripe_optimization and self._is_full_stripe(
                stripe, spieces
            ):
                # Full-stripe write: parity computed in memory, no reads.
                stripes.append(
                    StripeWrite(
                        stripe=stripe,
                        parity_disk=ploc.disk,
                        full_stripe=FullStripePass(
                            xor_bytes=len(spieces) * bs,
                            writes=tuple(
                                self._data_write(p) for p in spieces
                            ),
                            parity_write=PieceOp(
                                "write", ploc.disk, ploc.offset, bs,
                                kind="parity",
                            ),
                        ),
                    )
                )
                continue
            # Read-modify-write.  The faithful (default) mode updates
            # parity once per modified block, as the era's block-level
            # software RAID-5 drivers did; batch mode amortizes one
            # parity read/write over the whole request's stripe share.
            groups = (
                [spieces] if self.batch_rmw else [[p] for p in spieces]
            )
            absorbed = wctx.absorbed if wctx is not None else frozenset()
            passes = []
            for group in groups:
                modified = sum(p.nbytes for p in group)
                # Parity I/O covers the union of the modified intra-block
                # ranges (parity bytes pair with data bytes positionally).
                plo = min(p.intra for p in group)
                phi = max(p.intra + p.nbytes for p in group)
                passes.append(
                    RmwPass(
                        # RMW absorption: the buffer cache supplies the
                        # pre-write content of absorbed blocks, so their
                        # old-data pre-reads vanish; the parity read and
                        # both XOR passes are unchanged (the parity
                        # delta still needs computing either way).
                        reads=tuple(
                            PieceOp(
                                "read", p.disk, p.disk_offset, p.nbytes,
                                kind="data", block=p.block,
                            )
                            for p in group
                            if p.block not in absorbed
                        ),
                        parity_read=PieceOp(
                            "read", ploc.disk, ploc.offset + plo, phi - plo,
                            kind="parity",
                        ),
                        xor_bytes=modified,
                        writes=tuple(self._data_write(p) for p in group),
                        parity_write=PieceOp(
                            "write", ploc.disk, ploc.offset + plo, phi - plo,
                            kind="parity",
                        ),
                    )
                )
            stripes.append(
                StripeWrite(
                    stripe=stripe,
                    parity_disk=ploc.disk,
                    rmw_passes=tuple(passes),
                )
            )
        return ParityWrite(tuple(stripes))

    def plan_reconstruct(
        self, piece: Piece, failed: FailedSet
    ) -> ReconstructRead:
        """Rebuild a lost block from the surviving stripe + parity."""
        lay = self.layout
        stripe = lay.stripe_of(piece.block)
        bs = lay.block_size
        reads = []
        for b in lay.stripe_blocks(stripe):
            if b == piece.block:
                continue
            loc = lay.data_location(b)
            if loc.disk in failed:
                raise DataLossError(
                    f"stripe {stripe}: second failure at disk {loc.disk}"
                )
            reads.append(
                PieceOp(
                    "read", loc.disk, loc.offset, bs,
                    kind="reconstruct", block=b,
                )
            )
        ploc = lay.parity_location(stripe)  # type: ignore[attr-defined]
        if ploc.disk in failed:
            raise DataLossError(f"stripe {stripe}: parity disk also failed")
        reads.append(
            PieceOp("read", ploc.disk, ploc.offset, bs, kind="reconstruct")
        )
        # XOR all surviving blocks to regenerate the lost one.
        return ReconstructRead(reads=tuple(reads), xor_bytes=len(reads) * bs)


class RaidxPlanner(Planner):
    """RAID-x OSM: parallel tolerant foreground data writes plus
    clustered image extents tagged foreground or background."""

    arch = "raidx"

    def __init__(
        self,
        layout: Layout,
        mirror_policy: MirrorPolicy | str = MirrorPolicy.BACKGROUND,
        read_local_mirror: bool = False,
    ):
        super().__init__(layout)
        self.mirror_policy = MirrorPolicy.parse(mirror_policy)
        self.read_local_mirror = read_local_mirror

    # -- reads -------------------------------------------------------------
    def _image_clean(
        self, block: int, failed: FailedSet, dirty: AbstractSet[int]
    ) -> bool:
        mg = self.layout.mirror_group_of(block)  # type: ignore[attr-defined]
        return mg.image_disk not in failed and mg.group_id not in dirty

    def read_candidates(
        self, piece: Piece, failed: FailedSet, ctx: ReadContext
    ) -> Tuple[Tuple[Placement, ...], bool]:
        lay = self.layout
        primary = piece.placement
        mirror = lay.redundancy_locations(piece.block)[0]
        clean = self._image_clean(piece.block, failed, ctx.dirty_groups)
        if primary.disk not in failed:
            if self.read_local_mirror and clean:
                # Serve from a *local* image copy when the primary is
                # remote and the image sits on the reading node's disk.
                if (
                    lay.node_of_disk(primary.disk) != ctx.client
                    and lay.node_of_disk(mirror.disk) == ctx.client
                ):
                    return (mirror,), False
            if clean:
                return (primary, mirror), True
            return (primary,), False
        if not clean:
            return (), False  # image missing or not yet consistent
        return (mirror,), False

    # -- writes ------------------------------------------------------------
    def image_extents(self, pieces: List[Piece]) -> List[ImageExtent]:
        """Coalesce image fragments into clustered extents.

        Fragments of one mirror group are contiguous in image space, so
        a full group becomes a single long (n-1)-block extent — the
        paper's "image blocks gathered as a long block written into the
        same disk".
        """
        lay = self.layout
        frags: List[Tuple[int, int, int, int]] = []
        for p in pieces:
            mg = lay.mirror_group_of(p.block)  # type: ignore[attr-defined]
            image = lay.redundancy_locations(p.block)[0]
            frags.append(
                (mg.group_id, image.disk, image.offset + p.intra, p.nbytes)
            )
        frags.sort(key=lambda f: (f[1], f[2]))
        runs: List[Tuple[int, int, int, int]] = []
        for g, disk, off, n in frags:
            if runs and runs[-1][1] == disk and runs[-1][2] + runs[-1][3] == off:
                pg, pd, po, pn = runs[-1]
                runs[-1] = (pg, pd, po, pn + n)
            else:
                runs.append((g, disk, off, n))
        return [ImageExtent(g, d, o, n) for g, d, o, n in runs]

    def plan_write(
        self,
        pieces: List[Piece],
        failed: FailedSet,
        wctx: Optional[WriteContext] = None,
    ) -> object:
        return OrthogonalWrite(
            foreground=tuple(
                self._data_write(p, tolerant=True) for p in pieces
            ),
            extents=tuple(self.image_extents(pieces)),
            background=self.mirror_policy is MirrorPolicy.BACKGROUND,
        )


PLANNERS = {
    "raid0": Raid0Planner,
    "raid5": Raid5Planner,
    "raid10": Raid10Planner,
    "chained": ChainedPlanner,
    "raidx": RaidxPlanner,
}


def make_planner(name: str, layout: Layout, **opts) -> Planner:
    """Instantiate an architecture's planner over a layout."""
    try:
        cls = PLANNERS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown planner {name!r}; choose from {sorted(PLANNERS)}"
        ) from None
    return cls(layout, **opts)


__all__ = [
    "ChainedPlanner",
    "MirroredPlanner",
    "PLANNERS",
    "Planner",
    "Raid0Planner",
    "Raid10Planner",
    "Raid5Planner",
    "RaidxPlanner",
    "make_planner",
]
