"""Page-level abstractions: tiers, huge-page geometry, object regions.

Pages are identified by dense integer ids (virtual page numbers within a
workload's footprint); all bulk state lives in numpy arrays indexed by
page id, which keeps simulations of multi-GB footprints cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from repro.common.arrays import sorted_unique
from repro.common.units import PAGES_PER_HUGE_PAGE


class Tier(IntEnum):
    """Names for the two canonical tier codes of the default DRAM/CXL pair.

    A tier code is a plain int, 0 the fastest tier; every per-tier
    quantity in the simulator is a list indexed by code.  ``FAST`` and
    ``SLOW`` name codes 0 and 1 -- an ``IntEnum`` indexes lists and
    compares, hashes and keys dicts exactly as its value -- and deeper
    tiers have no name.  Names become strings only at serialisation
    (:func:`tier_label`).
    """

    FAST = 0
    SLOW = 1


#: Placement value for pages that have not been touched yet.
UNALLOCATED = -1


def tier_label(index: int) -> str:
    """Stable serialisation label for a tier code (``FAST``/``SLOW``/``TIER2``...)."""
    index = int(index)
    if 0 <= index <= 1:
        return Tier(index).name
    return f"TIER{index}"


def tier_from_label(label: str) -> int:
    """Inverse of :func:`tier_label`: the tier code."""
    if label in Tier.__members__:
        return int(Tier[label])
    if label.startswith("TIER"):
        return int(label[4:])
    raise ValueError(f"unknown tier label {label!r}")

#: log2(pages per 2MB huge page) -- used to shift 4KB page ids to huge ids.
HUGE_SHIFT = int(np.log2(PAGES_PER_HUGE_PAGE))


def huge_page_of(pages: np.ndarray) -> np.ndarray:
    """Huge-page ids covering each 4KB page id."""
    return np.asarray(pages, dtype=np.int64) >> HUGE_SHIFT


def expand_huge_pages(huge_ids: np.ndarray, footprint_pages: int) -> np.ndarray:
    """All 4KB page ids belonging to the given huge pages, clipped to footprint.

    Used by THP-aware migration: when a critical 4KB page is selected and
    THP is enabled, the whole surrounding 2MB region migrates (§5.2).
    """
    huge_ids = sorted_unique(np.asarray(huge_ids, dtype=np.int64))
    base = huge_ids << HUGE_SHIFT
    offsets = np.arange(PAGES_PER_HUGE_PAGE, dtype=np.int64)
    pages = (base[:, None] + offsets[None, :]).ravel()
    return pages[pages < footprint_pages]


@dataclass(frozen=True)
class ObjectRegion:
    """A named contiguous allocation inside a workload's address space.

    Soar (§5.4) places whole objects, so workloads describe their major
    allocations as regions: ``[start_page, start_page + num_pages)``.
    """

    name: str
    start_page: int
    num_pages: int

    def __post_init__(self) -> None:
        if self.num_pages <= 0:
            raise ValueError("object region must span at least one page")
        if self.start_page < 0:
            raise ValueError("object region start must be non-negative")

    @property
    def end_page(self) -> int:
        return self.start_page + self.num_pages

    def pages(self) -> np.ndarray:
        """All 4KB page ids in the region."""
        return np.arange(self.start_page, self.end_page, dtype=np.int64)

    def contains(self, page: int) -> bool:
        return self.start_page <= page < self.end_page
