"""Reference greedy packer: the sentence-pair chunk walker of IBM-1 EM.

This is `_chunks` as `mtlens.align` shipped it before `corpus.ranges`
replaced it and `quality`'s twin sentence-block walker: the limit is
the module's LINK_CHUNK, and pair_links must be a sequence, since its
length closes the last range. Used to check that `ranges` packs the
same ranges for any sizes and limit.
"""

LINK_CHUNK = 1 << 15


def _chunks(pair_links):
    """(start, stop) sentence-pair ranges of at most LINK_CHUNK links, one pair at least."""
    start = size = 0
    for i, links in enumerate(pair_links):
        if i > start and size + links > LINK_CHUNK:
            yield start, i
            start, size = i, 0
        size += links
    if start < len(pair_links):
        yield start, len(pair_links)
