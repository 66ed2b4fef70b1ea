"""Differential tests for the bulk sequential fill (preconditioning).

``PageMappedFtl.fill_sequential`` applies the closed-form state of a
sequential host-write loop on a pristine FTL.  These tests pin the only
property that matters: the resulting FTL state is *indistinguishable*
(through the public API) from running the write loop, across geometries,
fractions, GC policies, and the fallback path.
"""

import pytest

from repro.ftl import FtlLayout, PageMappedFtl, WriteStream
from repro.ftl.mapping import UNMAPPED


def make_ftl(dies=2, blocks_per_die=16, pages_per_block=8, **kwargs):
    layout = FtlLayout(
        dies=dies, blocks_per_die=blocks_per_die, pages_per_block=pages_per_block
    )
    return PageMappedFtl(layout, **kwargs)


def snapshot(ftl):
    """Full public-API view of the FTL state after a fill."""
    layout = ftl.layout
    mapping = ftl.mapping
    allocator = ftl.allocator
    return {
        "l2p": [mapping.lookup(lpn) for lpn in range(ftl.logical_pages)],
        "p2l": [mapping.owner(ppa) for ppa in range(layout.total_pages)],
        "state": [mapping.state(ppa) for ppa in range(layout.total_pages)],
        "valid": [mapping.valid_count(b) for b in range(layout.total_blocks)],
        "mapped": mapping.mapped_lpn_count,
        "free": [allocator.free_blocks(d) for d in range(layout.dies)],
        "active_host": [
            allocator.active_block(d, WriteStream.HOST) for d in range(layout.dies)
        ],
        "active_gc": [
            allocator.active_block(d, WriteStream.GC) for d in range(layout.dies)
        ],
        "remaining": [
            allocator.remaining_in_active(d, WriteStream.HOST)
            for d in range(layout.dies)
        ],
        "closed": [allocator.closed_blocks(d) for d in range(layout.dies)],
        "closed_at": {
            b: allocator.closed_at(b)
            for d in range(layout.dies)
            for b in allocator.closed_blocks(d)
        },
        "sequence": allocator.sequence,
        "stripe_cursor": allocator.stripe_cursor,
        "host_writes": ftl.host_writes,
        "gc_writes": ftl.gc_writes,
    }


GEOMETRIES = [
    # (dies, blocks_per_die, pages_per_block) — odd shapes on purpose:
    # die counts that do not divide the fill, partial tail blocks.
    (1, 16, 8),
    (2, 16, 8),
    (3, 9, 7),
    (4, 12, 16),
    (8, 32, 4),
]


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("fraction", [0.0, 0.1, 0.33, 0.5, 0.875, 1.0])
def test_fill_matches_write_loop(geometry, fraction):
    dies, blocks_per_die, pages_per_block = geometry
    bulk = make_ftl(dies, blocks_per_die, pages_per_block)
    loop = make_ftl(dies, blocks_per_die, pages_per_block)
    count = int(bulk.logical_pages * fraction)
    assert bulk.fill_sequential(count) == count
    for lpn in range(count):
        loop.write(lpn)
    assert snapshot(bulk) == snapshot(loop)
    bulk.mapping.check_invariants()


def test_fill_falls_back_when_the_guard_fails():
    # The guard is exact: it fails precisely when the busiest die needs
    # more than its blocks_per_die - 1 host-writable blocks, which on a
    # pristine FTL means the write loop itself runs out of space (every
    # die has the same capacity and round-robin load).  The fallback
    # must reproduce that failure — and the partial state — exactly.
    from repro.ftl.allocator import OutOfSpace

    kwargs = dict(overprovision=0.15, gc_watermark_blocks=1)
    bulk = make_ftl(dies=4, blocks_per_die=4, pages_per_block=8, **kwargs)
    loop = make_ftl(dies=4, blocks_per_die=4, pages_per_block=8, **kwargs)
    count = bulk.logical_pages
    busiest = -(-count // 4)
    assert -(-busiest // 8) > 4 - 1  # guard really fails for this shape
    with pytest.raises(OutOfSpace):
        bulk.fill_sequential(count)
    with pytest.raises(OutOfSpace):
        for lpn in range(count):
            loop.write(lpn)
    assert snapshot(bulk) == snapshot(loop)


def test_fill_falls_back_on_non_pristine_ftl():
    bulk = make_ftl()
    loop = make_ftl()
    for ftl in (bulk, loop):
        ftl.write(7)  # dirty: one page on die 0, stripe cursor moved
    bulk.fill_sequential(40)
    for lpn in range(40):
        loop.write(lpn)
    assert snapshot(bulk) == snapshot(loop)


def test_fill_rejects_bad_counts():
    ftl = make_ftl()
    with pytest.raises(ValueError):
        ftl.fill_sequential(-1)
    with pytest.raises(ValueError):
        ftl.fill_sequential(ftl.logical_pages + 1)


def test_fill_zero_is_a_noop():
    ftl = make_ftl()
    assert ftl.fill_sequential(0) == 0
    assert ftl.mapping.mapped_lpn_count == 0
    assert ftl.allocator.is_pristine()


def test_pristine_checks():
    ftl = make_ftl()
    assert ftl.mapping.is_pristine()
    assert ftl.allocator.is_pristine()
    ftl.write(0)
    assert not ftl.mapping.is_pristine()
    assert not ftl.allocator.is_pristine()
    ftl.trim(0)
    # A bind/trim pair leaves an INVALID page: still not pristine even
    # though the mapped count is back to zero.
    assert ftl.mapping.mapped_lpn_count == 0
    assert not ftl.mapping.is_pristine()


def test_fill_then_overwrite_behaves_like_preconditioned_drive():
    bulk = make_ftl()
    loop = make_ftl()
    count = bulk.logical_pages
    bulk.fill_sequential(count)
    for lpn in range(count):
        loop.write(lpn)
    # Drive both through an identical overwrite burst (triggers real
    # allocation decisions against the filled state; small enough to
    # fit the post-fill free space without GC).
    for ftl in (bulk, loop):
        for lpn in range(0, 36, 3):
            ftl.write(lpn)
    assert snapshot(bulk) == snapshot(loop)
    assert [ftl.read_ppa(1) for ftl in (bulk, loop)] == [bulk.read_ppa(1)] * 2


def test_unmapped_tail_stays_unmapped():
    ftl = make_ftl()
    half = ftl.logical_pages // 2
    ftl.fill_sequential(half)
    assert ftl.mapping.lookup(ftl.logical_pages - 1) == UNMAPPED
    assert ftl.read_ppa(ftl.logical_pages - 1) is None


def _paper_ftl(name):
    from repro.ssd.registry import resolve_config

    config = resolve_config(name)
    return PageMappedFtl(
        config.ftl_layout(),
        overprovision=config.overprovision,
        gc_watermark_blocks=config.gc_watermark_blocks,
        gc_policy=config.gc_policy,
    )


@pytest.mark.parametrize("device", ["zssd", "intel750"])
@pytest.mark.parametrize("fraction", [0.5, 1.0])
def test_fill_matches_write_loop_on_paper_layouts(device, fraction):
    # The layouts every paper figure preconditions, at full size: the
    # template path (not the fallback) must serve them.
    bulk = _paper_ftl(device)
    loop = _paper_ftl(device)
    count = int(bulk.logical_pages * fraction)
    assert bulk.fill_sequential(count) == count
    for lpn in range(count):
        loop.write(lpn)
    assert snapshot(bulk) == snapshot(loop)
    bulk.mapping.check_invariants()


def _drive_gc(ftl):
    """Reclaim blocks until no die is under the watermark (what the
    controller's flush workers do)."""
    progressing = True
    while progressing and ftl.dies_needing_gc():
        progressing = False
        for die in ftl.dies_needing_gc():
            plan = ftl.plan_gc(die)
            if plan is None:
                continue
            for lpn in plan.victim_lpns:
                if ftl.still_in_block(lpn, plan.victim_block):
                    ftl.relocate(lpn, die)
            ftl.finish_gc(plan)
            progressing = True


def test_snapshot_has_no_side_effects():
    ftl = make_ftl(dies=3, blocks_per_die=9, pages_per_block=7)
    ftl.fill_sequential(ftl.logical_pages // 2)
    first = snapshot(ftl)
    assert snapshot(ftl) == first
    assert first["stripe_cursor"] == ftl.allocator.next_die()


def test_clones_of_one_template_never_alias():
    # Two drives preconditioned from the same cached template: churning
    # one through overwrites and GC must leave the other (and the
    # template) exactly as a fresh fill.
    from repro.ftl.mapping import striped_fill

    kwargs = dict(dies=2, blocks_per_die=6, pages_per_block=4, overprovision=0.25)
    churned, untouched, fresh = (make_ftl(**kwargs) for _ in range(3))
    count = churned.logical_pages
    churned.fill_sequential(count)
    hits = striped_fill.cache_info().hits
    untouched.fill_sequential(count)
    assert striped_fill.cache_info().hits == hits + 1  # the same template
    for step in range(400):
        _drive_gc(churned)
        churned.write((step * 7) % count)
    assert churned.gc_runs > 0
    churned.mapping.check_invariants()
    for lpn in range(count):
        fresh.write(lpn)
    assert snapshot(untouched) == snapshot(fresh)
    layout = churned.layout
    assert striped_fill(layout, count, count) == striped_fill.__wrapped__(
        layout, count, count
    )
