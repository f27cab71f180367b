"""Fixture: reaching into BufferPool internals from outside -> SAN301."""


def force_resident(pool, page_id):
    frame = pool._frames.get(page_id)  # SAN301: private frame table
    if frame is None:
        frame = pool._admit(page_id, None, dirty=False)  # SAN301
    frame.pins = 0  # SAN301: pin bookkeeping is the pool's alone
    return frame


def dirty_without_undo(pool, page_id):
    pool.get(page_id).next_page = -1
    pool.mark_dirty(page_id)  # SAN301: a write outside pool.writing
