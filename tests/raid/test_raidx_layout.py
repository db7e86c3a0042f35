"""RAID-x OSM geometry against the paper's Figs. 1a and 3."""

import pytest

from repro.raid import make_layout
from repro.raid.raidx import RaidxLayout


def fig1a():
    return make_layout(
        "raidx", n_disks=4, block_size=1, disk_capacity=8, stripe_width=4
    )


def fig3(rows=8):
    return make_layout(
        "raidx",
        n_disks=12,
        block_size=1,
        disk_capacity=rows,
        stripe_width=4,
    )


def test_fig1a_data_striping():
    lay = fig1a()
    for b in range(12):
        p = lay.data_location(b)
        assert p.disk == b % 4
        assert p.offset == b // 4


def test_fig1a_mirror_groups_match_paper():
    """Paper Fig. 1a: (M0,M1,M2)->D3, (M3,M4,M5)->D2, (M6..)->D1, (M9..)->D0."""
    lay = fig1a()
    expect = {0: 3, 1: 2, 2: 1, 3: 0}
    for g, disk in expect.items():
        mg = lay.mirror_group_of(g * 3)
        assert mg.image_disk == disk
        members = lay.mirror_group_members(g * 3)
        assert members == tuple(range(g * 3, g * 3 + 3))


def test_images_clustered_contiguously():
    lay = fig1a()
    mg = lay.mirror_group_of(0)
    members = lay.mirror_group_members(0)
    offsets = [
        lay.redundancy_locations(b)[0].offset for b in members
    ]
    assert offsets == list(
        range(mg.image_offset, mg.image_offset + len(members))
    )
    # All in the mirror half of the disk.
    assert all(o >= lay.mirror_base for o in offsets)


def test_stripe_images_on_exactly_two_disks():
    """Paper: 'the image blocks are saved in exactly two disks'."""
    lay = fig1a()
    for s in range(3):
        assert len(lay.stripe_image_disks(s)) == 2


def test_orthogonality_everywhere():
    lay = fig3()
    for b in range(lay.data_blocks):
        data = lay.data_location(b)
        image = lay.redundancy_locations(b)[0]
        assert image.disk != data.disk


def test_mirroring_confined_to_disk_group():
    lay = fig3()
    for b in range(lay.data_blocks):
        data = lay.data_location(b)
        image = lay.redundancy_locations(b)[0]
        assert lay.disk_group(image.disk) == lay.disk_group(data.disk)


def test_image_disks_balanced_within_group():
    lay = fig3(rows=32)
    counts = {}
    for b in range(lay.data_blocks):
        d = lay.redundancy_locations(b)[0].disk
        counts[d] = counts.get(d, 0) + 1
    per_group = [counts.get(d, 0) for d in range(12)]
    assert max(per_group) - min(per_group) <= lay.n - 1


def test_local_index_roundtrip():
    lay = fig3()
    for b in range(lay.data_blocks):
        c, ell = lay._group_local_index(b)
        assert lay._local_block(c, ell) == b


def test_fig3_addressing_matches_paper():
    """Fig. 3: D0 holds B0, B12, B24; D4 holds B4, B16, B28."""
    lay = fig3()
    assert lay.data_location(0).disk == 0
    assert lay.data_location(12).disk == 0
    assert lay.data_location(12).offset == 1
    assert lay.data_location(4).disk == 4
    assert lay.data_location(16).disk == 4
    assert lay.data_location(28).disk == 4


def test_tolerates_one_failure_per_group():
    lay = fig3()
    assert lay.tolerates(set())
    assert lay.tolerates({0})
    assert lay.tolerates({0, 5, 10})  # one per group
    assert not lay.tolerates({0, 1})  # two in group 0
    assert not lay.tolerates({4, 7})  # two in group 1
    assert not lay.tolerates({0, 99})  # unknown disk


def test_max_fault_coverage_is_k():
    assert fig3().max_fault_coverage() == 3
    assert fig1a().max_fault_coverage() == 1


def test_no_data_image_collision_verified():
    lay = fig3(rows=16)
    lay.verify_invariants(lay.data_blocks)


def test_partial_final_mirror_group():
    lay = make_layout(
        "raidx", n_disks=4, block_size=1, disk_capacity=4, stripe_width=4
    )
    # 8 data blocks per group slice; trailing group may be short.
    last_block = lay.data_blocks - 1
    members = lay.mirror_group_members(last_block)
    assert last_block in members
    assert 1 <= len(members) <= lay.n - 1
