"""Closed-form placement must agree with a brute-force reference.

Every layout answers ``data_location``, ``redundancy_locations`` and
``mirror_group_of`` with one formula each.  The reference below is built
straight from the paper's §2 definition instead: it lists each RAID-x
disk group's local blocks in address order, cuts them into runs of
``n-1`` (the mirror groups) and lays each run out as one clustered
image extent.  The tests sweep *every* logical block of several n×k
arrays, including a truncated last mirror group and an array smaller
than one placement rotation, plus RAID-5 and RAID-10.  Test names keep
the "cached matches formula" wording: the layout method is checked
against the reference placement.
"""

import time

import pytest

from repro.raid.layout import Placement
from repro.raid.raid5 import Raid5Layout
from repro.raid.raid10 import Raid10Layout
from repro.raid.raidx import MirrorGroup, RaidxLayout

KiB = 1024


def _raidx(n, k, rows=None):
    # Odd-ish capacities leave the last rotation partial; for (4, 1),
    # (4, 3) and (7, 1) the last mirror group of each disk group is
    # truncated too.
    rows = rows if rows is not None else 2 * n + 3
    return RaidxLayout(
        n_disks=n * k,
        block_size=4 * KiB,
        disk_capacity=2 * rows * 4 * KiB,
        stripe_width=n,
    )


def _raidx_reference(layout):
    """Per block: (data placement, mirror group, members, image).

    Brute force from the paper's definition: data stripes over all D
    disks; within disk group c the local blocks, in address order, form
    mirror groups of n-1; group g's images are clustered on disk
    ``c·n + ((g+1)(n-1)) mod n`` starting at image row ``(g//n)(n-1)``.
    """
    n, D, bs = layout.n, layout.n_disks, layout.block_size
    ref = {}
    for c in range(layout.k):
        local = [b for b in range(layout.data_blocks) if (b % D) // n == c]
        runs = [local[i : i + n - 1] for i in range(0, len(local), n - 1)]
        for g, run in enumerate(runs):
            disk = c * n + ((g + 1) * (n - 1)) % n
            base = layout.mirror_base + (g // n) * (n - 1) * bs
            group = MirrorGroup(c * len(runs) + g, c, disk, base)
            for p, b in enumerate(run):
                ref[b] = (
                    Placement(b % D, (b // D) * bs),
                    group,
                    tuple(run),
                    Placement(disk, base + p * bs),
                )
    assert sorted(ref) == list(range(layout.data_blocks))
    return ref


def _image_rows_scan(n, data_rows):
    """Image rows needed for ``data_rows`` data rows, by scanning every
    local index ℓ of one disk group."""
    need = 0
    for ell in range(data_rows * n):
        g, p = divmod(ell, n - 1)
        need = max(need, (g // n) * (n - 1) + p + 1)
    return need


RAIDX_CONFIGS = [(3, 1), (4, 1), (4, 3), (5, 2), (6, 2), (7, 1)]


@pytest.mark.parametrize("n,k", RAIDX_CONFIGS)
def test_raidx_data_location_cached_matches_formula(n, k):
    layout = _raidx(n, k)
    ref = _raidx_reference(layout)
    for b in range(layout.data_blocks):
        assert layout.data_location(b) == ref[b][0]


@pytest.mark.parametrize("n,k", RAIDX_CONFIGS)
def test_raidx_mirror_group_cached_matches_formula(n, k):
    layout = _raidx(n, k)
    assert layout.data_blocks > layout.n_disks * (n - 1), "want >1 rotation"
    ref = _raidx_reference(layout)
    if (layout.data_rows * n) % (n - 1):
        assert len(ref[layout.data_blocks - 1][2]) < n - 1
    for b in range(layout.data_blocks):
        _data, group, members, _image = ref[b]
        assert layout.mirror_group_of(b) == group
        assert layout.mirror_group_members(b) == members


@pytest.mark.parametrize("n,k", RAIDX_CONFIGS)
def test_raidx_redundancy_cached_matches_formula(n, k):
    layout = _raidx(n, k)
    ref = _raidx_reference(layout)
    for b in range(layout.data_blocks):
        assert layout.redundancy_locations(b) == [ref[b][3]]


@pytest.mark.parametrize("n,k", RAIDX_CONFIGS)
def test_raidx_orthogonality_still_holds(n, k):
    layout = _raidx(n, k)
    layout.verify_invariants(blocks=layout.data_blocks)
    for b in range(layout.data_blocks):
        data = layout.data_location(b)
        for img in layout.redundancy_locations(b):
            assert img.disk != data.disk


def test_raidx_tiny_array_smaller_than_one_rotation():
    layout = _raidx(5, 1, rows=3)
    assert 0 < layout.data_blocks < layout.n_disks * (layout.n - 1)
    ref = _raidx_reference(layout)
    assert len(ref[layout.data_blocks - 1][2]) < layout.n - 1
    for b in range(layout.data_blocks):
        data, group, members, image = ref[b]
        assert layout.data_location(b) == data
        assert layout.mirror_group_of(b) == group
        assert layout.mirror_group_members(b) == members
        assert layout.redundancy_locations(b) == [image]


@pytest.mark.parametrize("n", range(3, 20))
def test_raidx_image_rows_needed_matches_scan(n):
    layout = _raidx(n, 1)
    for data_rows in range(0, 3 * n + 2):
        assert layout._mirror_rows_needed(data_rows) == _image_rows_scan(
            n, data_rows
        )
    # The data region is the largest one whose images fit on the disk.
    d = layout.data_rows
    assert d + _image_rows_scan(n, d) <= layout.rows
    assert d + 1 + _image_rows_scan(n, d + 1) > layout.rows


def test_raidx_256_nodes_last_block_is_cheap():
    # A 256-node array with Trojans-sized disks: construction and every
    # query stay O(1) in the number of blocks (members are O(n)).
    start = time.process_time()
    layout = RaidxLayout(
        n_disks=256,
        block_size=32 * KiB,
        disk_capacity=10_000 * 1024 * 1024,
        stripe_width=256,
    )
    last = layout.data_blocks - 1
    group = layout.mirror_group_of(last)
    members = layout.mirror_group_members(last)
    image = layout.redundancy_locations(last)[0]
    elapsed = time.process_time() - start
    assert elapsed < 1.0, f"256-node geometry took {elapsed:.2f} s"

    assert last in members and len(members) <= layout.n - 1
    assert all(layout.mirror_group_of(b) == group for b in members)
    offsets = [layout.redundancy_locations(b)[0].offset for b in members]
    bs = layout.block_size
    assert offsets == [group.image_offset + i * bs for i in range(len(members))]
    assert image.disk == group.image_disk != layout.data_location(last).disk
    assert image.offset + bs <= layout.disk_capacity


@pytest.mark.parametrize("disks", [3, 4, 5, 8])
def test_raid5_data_location_cached_matches_formula(disks):
    layout = Raid5Layout(
        n_disks=disks, block_size=4 * KiB, disk_capacity=64 * 4 * KiB
    )
    # Several full parity rotations plus a partial one.
    assert layout.data_blocks > 2 * disks * (disks - 1)
    b = 0
    for stripe in range(layout.rows):
        # Left-symmetric: data fills the non-parity disks in order,
        # starting just after the parity disk.
        parity = (disks - 1 - stripe) % disks
        others = [d for d in range(disks) if d != parity]
        for disk in others[parity:] + others[:parity]:
            assert layout.data_location(b) == Placement(
                disk, stripe * layout.block_size
            )
            b += 1
    assert b == layout.data_blocks


@pytest.mark.parametrize("disks", [4, 6, 12])
def test_raid10_cached_matches_formula(disks):
    layout = Raid10Layout(
        n_disks=disks, block_size=4 * KiB, disk_capacity=33 * 4 * KiB
    )
    pairs = [(2 * i, 2 * i + 1) for i in range(disks // 2)]
    for b in range(layout.data_blocks):
        row, i = divmod(b, len(pairs))
        primary, partner = pairs[i]
        offset = row * layout.block_size
        assert layout.data_location(b) == Placement(primary, offset)
        assert layout.redundancy_locations(b) == [Placement(partner, offset)]
