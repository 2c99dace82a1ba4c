"""Keep the memory a training step frees in the process heap (glibc only).

By default glibc gives each block above a dynamic threshold (at most 32 MiB)
its own ``mmap`` and hands free memory at the top of its heap back to the
kernel, so every training step faults its arrays in again as fresh zeroed
pages. The README's performance notes give the measured cost.
"""

import ctypes
import os

# mallopt parameter numbers, from glibc's <malloc.h>
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# Blocks up to 64 MiB come from the heap. At the default settings that covers
# the largest per-step temporaries: the float64 attention scores of a 128 x 96
# fine-tuning batch (38 MB) and the pre-training head logits at a 30k
# vocabulary (36-40 MB).
MMAP_THRESHOLD = 64 << 20
# Free memory at the top of the heap goes back to the kernel only past 1 GiB,
# above a default-settings run's high-water mark (peak RSS 0.76 GB on the
# WN18RR-shaped benchmark graph).
TRIM_THRESHOLD = 1 << 30


def glibc_mallopt():
    """glibc's ``mallopt``, typed; None off glibc or where it is missing."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def keep_freed_memory(mallopt) -> bool:
    """Raise both thresholds through ``mallopt``, or neither; True when both took.

    Setting either one alone turns glibc's dynamic threshold off, which costs
    more page faults than it saves. The mmap threshold goes first: it is the
    one glibc may refuse (it always accepts a trim threshold). Without a
    ``mallopt``, or when it refuses the first value, nothing is set.
    """
    if mallopt is None or not mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD):
        return False
    return bool(mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))
