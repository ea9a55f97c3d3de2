"""Process malloc policy: keep freed forward memory in the process.

By default glibc serves blocks above 128 KiB with ``mmap`` and raises
that threshold only when such a block is freed; it trims the heap top
once the free space there passes twice the threshold.  An inference
forward allocates arrays of about 2 MB and peaks near 10 MB, so glibc
hands most of each batch's freed temporaries back to the kernel and the
next batch faults them in again: about 2,800 minor faults per 128x64
batch, a third or more of the forward's CPU time (EXPERIMENTS.md, "Page
faults in the forward").  Pinning both thresholds at the 64-bit ceilings
glibc's own dynamic thresholds climb to keeps up to one batch's working
set resident between batches instead.
"""

from __future__ import annotations

import ctypes
import platform

#: ``mallopt`` parameter numbers from glibc's ``<malloc.h>``.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: Blocks below this come from the heap, not from a fresh ``mmap``.
MMAP_THRESHOLD = 32 << 20
#: The heap top is returned to the kernel only past this much free space.
TRIM_THRESHOLD = 64 << 20


def keep_freed_memory() -> None:
    """Pin glibc's mmap and trim thresholds; a no-op on any other libc."""
    if platform.libc_ver()[0] != "glibc":
        return
    libc = ctypes.CDLL(None)
    libc.mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    libc.mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
