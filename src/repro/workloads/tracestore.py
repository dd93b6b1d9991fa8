"""Record-once traffic replay: binary columnar access-trace store.

Workload traffic streams are pure functions of (workload parameters,
workload seed, window budget): the policy never influences what the
application *would have* accessed, only where those pages live.  Yet
every figure sweep regenerates the same stream once per contender --
the RNG-pinned multinomial draws that *are* the simulated traffic
dominate per-window cost (see DESIGN.md §3b).  This module makes the
stream a first-class artifact:

* ``record_stream`` freezes a workload's exact ``next_window`` output
  into columnar numpy arrays (CSR-style: one flat ``pages``/``counts``
  pair plus group/window boundary pointers),
* ``write_npt``/``read_npt`` persist them in the ``.npt`` format --
  a JSON header followed by aligned raw column blocks -- loadable
  zero-copy via ``np.memmap`` (the OS page cache shares one copy
  across every sweep worker touching the same trace); ``.npt`` is the
  only trace format,
* :class:`ReplayWorkload` replays a recorded stream through
  :class:`~repro.sim.machine.Machine` **bit-identically by
  construction**: it stores the generator's actual output arrays, the
  per-window consumed-work counter, and the end-of-run metrics, so a
  replayed run is indistinguishable from a live one (the golden-digest
  matrix in ``tests/test_golden_digests.py`` pins this),
* :class:`TraceStore` is the content-addressed cache (keyed on the
  workload fingerprint + window budget, hashed with the same
  canonicaliser as :mod:`repro.exp.cache`): the first run records, every
  subsequent run -- any policy, ratio, contender, or worker process --
  replays.

Every experiment request (:mod:`repro.exp.runner`) runs on a replayed
stream; engine-level runs (``run_policy``, a hand-built ``Machine``)
take whatever workload they are given, which is how the golden digests
pin replay == live.  A trace file from elsewhere (``repro trace record
WORKLOAD -o FILE.npt``, or any tool writing this layout) loads through
:meth:`ReplayWorkload.from_file`, which validates it first.  Point the
on-disk layer somewhere with ``REPRO_TRACE_DIR`` (defaults to
``$REPRO_CACHE_DIR/traces`` when a result cache directory is set).
"""

from __future__ import annotations

import copy
import json
import os
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.hw.access import AccessGroup, WindowTraffic
from repro.mem.page import ObjectRegion
from repro.workloads.base import Workload

PathLike = Union[str, Path]

#: Bump when the on-disk column layout or replay semantics change;
#: readers reject other versions and the store re-records.
TRACE_FORMAT_VERSION = 1

#: File magic for the binary trace format ("numpy page trace").
TRACE_MAGIC = b"NPT1"

#: Alignment of the first column block (and the header padding).
_ALIGN = 64

#: Windows generated per bulk ``next_windows`` call during recording.
RECORD_CHUNK = 64

#: Environment variable selecting the on-disk trace directory.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

#: Soft cap on the memory layer of a :class:`TraceStore` (bytes).
#: Disk-backed entries are memory-mapped and barely count; this bounds
#: only traces recorded without a directory to spill to.
DEFAULT_MEMORY_BUDGET = 768 * 1024 * 1024

#: Schema: column name -> (dtype, length key).  Lengths are expressed
#: in terms of the header's count fields so the reader can validate
#: shapes before touching the data.
_COLUMN_SPECS: "Tuple[Tuple[str, str, str], ...]" = (
    ("window_group_ptr", "<i8", "windows+1"),
    ("window_compute", "<f8", "windows"),
    ("window_consumed", "<i8", "windows"),
    ("window_done", "|u1", "windows"),
    ("window_phase", "<u4", "windows"),
    ("group_page_ptr", "<i8", "groups+1"),
    ("group_mlp", "<f8", "groups"),
    ("group_load_fraction", "<f8", "groups"),
    ("group_label", "<u4", "groups"),
    ("pages", "<i8", "entries"),
    ("counts", "<i8", "entries"),
    ("alloc_order", "<i8", "footprint"),
)


class TraceFormatError(ValueError):
    """A ``.npt`` file is truncated, corrupt, or of an unknown version.

    :meth:`ReplayWorkload.from_file` also raises it for a well-formed
    file whose values no run can replay (see :func:`_validate`).
    """


class TraceExhausted(RuntimeError):
    """A non-looping replay was asked for more windows than it recorded."""


def _source_fingerprint(workload: Workload) -> Dict[str, Any]:
    # Lazy import: repro.exp builds on the workloads layer.
    from repro.exp.cache import workload_fingerprint

    return workload_fingerprint(workload)


def trace_key(workload_fp: Dict[str, Any], max_windows: int) -> str:
    """Content address of a recorded stream.

    The stream depends only on the workload's identity (which includes
    its seed) and the window budget it was recorded under -- never on
    the policy, ratio, contender, or machine seed.
    """
    from repro.exp.cache import content_hash

    return content_hash(
        {
            "trace_format": TRACE_FORMAT_VERSION,
            "workload": workload_fp,
            "max_windows": int(max_windows),
        }
    )


# ---------------------------------------------------------------------------
# In-memory representation.
# ---------------------------------------------------------------------------


@dataclass
class TraceData:
    """One recorded stream: header metadata plus the column arrays."""

    workload: Dict[str, Any]
    fingerprint: Dict[str, Any]
    objects: List[Tuple[str, int, int]]
    final_metrics: Dict[str, Any]
    phases: List[str]
    labels: List[str]
    columns: Dict[str, np.ndarray]
    source_class: str = ""
    path: Optional[Path] = None

    @property
    def num_windows(self) -> int:
        return int(self.columns["window_group_ptr"].shape[0] - 1)

    @property
    def num_groups(self) -> int:
        return int(self.columns["group_page_ptr"].shape[0] - 1)

    @property
    def num_entries(self) -> int:
        return int(self.columns["pages"].shape[0])

    def nbytes(self) -> int:
        return int(sum(col.nbytes for col in self.columns.values()))


# ---------------------------------------------------------------------------
# Recording.
# ---------------------------------------------------------------------------


def record_stream(workload: Workload, max_windows: int = 200_000) -> TraceData:
    """Freeze a workload's traffic stream into columnar arrays.

    Consumes ``workload`` exactly as :meth:`Machine.run` would -- one
    ``next_window`` per window while the workload is not done and the
    budget holds -- so the recorded stream, the per-window consumed
    counters, and the end-of-run ``final_metrics`` all match what a
    live run observes.  The workload is reset afterwards.
    """
    fingerprint = _source_fingerprint(workload)
    workload.reset()

    page_parts: List[np.ndarray] = []
    count_parts: List[np.ndarray] = []
    group_sizes: List[int] = []
    group_mlp: List[float] = []
    group_lf: List[float] = []
    group_label: List[int] = []
    win_groups: List[int] = []
    win_compute: List[float] = []
    win_consumed: List[int] = []
    win_done: List[bool] = []
    win_phase: List[int] = []
    phases: Dict[str, int] = {}
    labels: Dict[str, int] = {}

    recorded = 0
    while not workload.done and recorded < max_windows:
        chunk = workload.next_windows(min(RECORD_CHUNK, max_windows - recorded))
        if not chunk:
            break
        for traffic in chunk:
            for group in traffic.groups:
                page_parts.append(group.pages)
                count_parts.append(group.counts)
                group_sizes.append(group.pages.shape[0])
                group_mlp.append(float(group.mlp))
                group_lf.append(float(group.load_fraction))
                group_label.append(labels.setdefault(group.label, len(labels)))
            win_groups.append(len(traffic.groups))
            win_compute.append(float(traffic.compute_cycles))
            win_consumed.append(int(traffic.extra["consumed_after"]))
            win_done.append(bool(traffic.done))
            win_phase.append(phases.setdefault(traffic.phase, len(phases)))
            recorded += 1

    final_metrics = copy.deepcopy(workload.final_metrics())
    alloc_order = np.ascontiguousarray(workload.allocation_order(), dtype=np.int64)
    workload.reset()

    columns: Dict[str, np.ndarray] = {
        "window_group_ptr": _ptr(win_groups),
        "window_compute": np.asarray(win_compute, dtype=np.float64),
        "window_consumed": np.asarray(win_consumed, dtype=np.int64),
        "window_done": np.asarray(win_done, dtype=np.uint8),
        "window_phase": np.asarray(win_phase, dtype=np.uint32),
        "group_page_ptr": _ptr(group_sizes),
        "group_mlp": np.asarray(group_mlp, dtype=np.float64),
        "group_load_fraction": np.asarray(group_lf, dtype=np.float64),
        "group_label": np.asarray(group_label, dtype=np.uint32),
        "pages": _concat_int64(page_parts),
        "counts": _concat_int64(count_parts),
        "alloc_order": alloc_order,
    }
    return TraceData(
        workload={
            "name": workload.name,
            "footprint_pages": int(workload.footprint_pages),
            "total_misses": int(workload.total_misses),
            "misses_per_window": int(workload.misses_per_window),
            "compute_cycles_per_miss": float(workload.compute_cycles_per_miss),
            "seed": workload.seed,
        },
        fingerprint=fingerprint,
        objects=[(o.name, int(o.start_page), int(o.num_pages)) for o in workload.objects],
        final_metrics=final_metrics,
        phases=_table(phases),
        labels=_table(labels),
        columns=columns,
        source_class=type(workload).__qualname__,
    )


def _ptr(sizes: List[int]) -> np.ndarray:
    ptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    if sizes:
        np.cumsum(np.asarray(sizes, dtype=np.int64), out=ptr[1:])
    return ptr


def _concat_int64(parts: List[np.ndarray]) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([np.asarray(p, dtype=np.int64) for p in parts])


def _table(index: Dict[str, int]) -> List[str]:
    out = [""] * len(index)
    for value, i in index.items():
        out[i] = value
    return out


# ---------------------------------------------------------------------------
# The .npt container.
# ---------------------------------------------------------------------------


def write_npt(data: TraceData, path: PathLike) -> Path:
    """Persist a recorded stream; atomic (write-temp + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    counts = {
        "windows": data.num_windows,
        "groups": data.num_groups,
        "entries": data.num_entries,
        "footprint": int(data.workload["footprint_pages"]),
    }
    column_meta: Dict[str, Dict[str, Any]] = {}
    # Header length depends on the offsets which depend on the header
    # length; iterate until the layout is stable (two passes suffice:
    # offsets only grow with header size, which converges immediately).
    offset_guess = 0
    for _ in range(4):
        offset = offset_guess
        column_meta = {}
        for name, dtype, length_key in _COLUMN_SPECS:
            arr = data.columns[name]
            expect = _expected_length(length_key, counts)
            if arr.shape[0] != expect:
                raise TraceFormatError(
                    f"column {name!r} has {arr.shape[0]} rows, expected {expect}"
                )
            offset = _aligned(offset)
            column_meta[name] = {"dtype": dtype, "length": int(arr.shape[0]), "offset": offset}
            offset += arr.shape[0] * np.dtype(dtype).itemsize
        header = {
            "format_version": TRACE_FORMAT_VERSION,
            "workload": data.workload,
            "source_class": data.source_class,
            "fingerprint": data.fingerprint,
            "objects": data.objects,
            "final_metrics": data.final_metrics,
            "phases": data.phases,
            "labels": data.labels,
            "counts": counts,
            "columns": column_meta,
            "total_bytes": offset,
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        new_guess = _aligned(len(TRACE_MAGIC) + 4 + len(blob))
        if new_guess == offset_guess:
            break
        offset_guess = new_guess
    else:  # pragma: no cover - layout always converges in two passes
        raise TraceFormatError("header layout failed to converge")

    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".npt.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(TRACE_MAGIC)
            fh.write(len(blob).to_bytes(4, "little"))
            fh.write(blob)
            for name, dtype, _ in _COLUMN_SPECS:
                meta = column_meta[name]
                fh.seek(meta["offset"])
                fh.write(np.ascontiguousarray(data.columns[name], dtype=dtype).tobytes())
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def read_npt(path: PathLike, mmap: bool = True) -> TraceData:
    """Load a ``.npt`` trace, zero-copy via ``np.memmap`` by default.

    Raises :class:`TraceFormatError` on bad magic, version mismatch,
    unparsable headers, or truncated column data -- callers (the trace
    store) treat any of those as a cache miss and re-record.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
        with path.open("rb") as fh:
            magic = fh.read(len(TRACE_MAGIC))
            if magic != TRACE_MAGIC:
                raise TraceFormatError(f"{path}: not a .npt trace (bad magic {magic!r})")
            raw_len = fh.read(4)
            if len(raw_len) < 4:
                raise TraceFormatError(f"{path}: truncated header length")
            header_len = int.from_bytes(raw_len, "little")
            blob = fh.read(header_len)
            if len(blob) < header_len:
                raise TraceFormatError(f"{path}: truncated header")
    except OSError as exc:
        raise TraceFormatError(f"{path}: unreadable ({exc})") from exc
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError(f"{path}: corrupt header JSON") from exc
    if header.get("format_version") != TRACE_FORMAT_VERSION:
        raise TraceFormatError(
            f"{path}: format version {header.get('format_version')!r}, "
            f"expected {TRACE_FORMAT_VERSION}"
        )
    counts = header.get("counts") or {}
    column_meta = header.get("columns") or {}
    columns: Dict[str, np.ndarray] = {}
    for name, dtype, length_key in _COLUMN_SPECS:
        meta = column_meta.get(name)
        if meta is None:
            raise TraceFormatError(f"{path}: missing column {name!r}")
        length = int(meta["length"])
        if length != _expected_length(length_key, counts):
            raise TraceFormatError(f"{path}: column {name!r} has inconsistent length")
        offset = int(meta["offset"])
        end = offset + length * np.dtype(dtype).itemsize
        if end > size:
            raise TraceFormatError(
                f"{path}: truncated column {name!r} (needs {end} bytes, file has {size})"
            )
        if length == 0:
            columns[name] = np.empty(0, dtype=np.dtype(dtype))
        elif mmap:
            mm = np.memmap(path, dtype=np.dtype(dtype), mode="r",
                           offset=offset, shape=(length,))
            # View as a plain ndarray: same mmap-backed buffer (the
            # memmap stays alive via .base, so page-cache sharing across
            # sweep workers is unchanged) but slicing no longer pays the
            # memmap.__array_finalize__ subclass overhead -- the replay
            # hot loop slices these columns thousands of times per run.
            columns[name] = mm.view(np.ndarray)
        else:
            with path.open("rb") as fh:
                fh.seek(offset)
                buf = fh.read(length * np.dtype(dtype).itemsize)
            columns[name] = np.frombuffer(buf, dtype=np.dtype(dtype)).copy()
    for ptr_name, indexed in (("window_group_ptr", "group_mlp"), ("group_page_ptr", "pages")):
        ptr = columns[ptr_name]
        if ptr.shape[0] == 0 or ptr[0] != 0 or np.any(np.diff(ptr) < 0):
            raise TraceFormatError(f"{path}: non-monotonic {ptr_name}")
        # Slicing would silently truncate a pointer that overruns.
        rows = columns[indexed].shape[0]
        if ptr[-1] != rows:
            raise TraceFormatError(
                f"{path}: {ptr_name} ends at {int(ptr[-1])}, but {indexed} has {rows} rows"
            )
    return TraceData(
        workload=header["workload"],
        fingerprint=header["fingerprint"],
        objects=[tuple(o) for o in header.get("objects", [])],
        final_metrics=header.get("final_metrics") or {},
        phases=header.get("phases") or [],
        labels=header.get("labels") or [],
        columns=columns,
        source_class=header.get("source_class", ""),
        path=path,
    )


def _expected_length(length_key: str, counts: Dict[str, int]) -> int:
    if length_key.endswith("+1"):
        return int(counts[length_key[:-2]]) + 1
    return int(counts[length_key])


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def record_to_file(
    workload: Workload, path: PathLike, max_windows: int = 200_000
) -> TraceData:
    """Record ``workload``'s stream and persist it as ``.npt``."""
    data = record_stream(workload, max_windows=max_windows)
    write_npt(data, path)
    return data


def _validate(data: TraceData, path: PathLike) -> None:
    """Reject a user's trace whose contents cannot describe a run.

    An O(entries) scan, so only :meth:`ReplayWorkload.from_file` makes
    it; the runner reads traces this module recorded itself.
    """
    footprint = int(data.workload["footprint_pages"])
    if footprint <= 0:
        raise TraceFormatError(f"{path}: footprint_pages must be positive, got {footprint}")
    if data.num_windows == 0:
        raise TraceFormatError(f"{path}: trace has no windows")
    c = data.columns
    pages, counts, mlp = c["pages"], c["counts"], c["group_mlp"]
    if pages.shape[0] and (pages.min() < 0 or pages.max() >= footprint):
        raise TraceFormatError(f"{path}: page id outside [0, {footprint})")
    if counts.shape[0] and counts.min() < 0:
        raise TraceFormatError(f"{path}: negative access count")
    if not np.all(np.isfinite(mlp) & (mlp > 0)):
        raise TraceFormatError(f"{path}: mlp must be finite and positive")


# ---------------------------------------------------------------------------
# Replay.
# ---------------------------------------------------------------------------


class ReplayWorkload(Workload):
    """Replays a recorded stream bit-identically (or loops it).

    In the default exact mode the per-window consumed-work counter,
    ``done`` transitions, phases, and ``final_metrics`` come straight
    from the recording, so a :class:`Machine` run over this workload is
    indistinguishable from one over the live generator it was recorded
    from.  With ``loop=True`` the trace wraps around at the end instead,
    for trace-driven evaluation over a work budget longer than one pass
    (:meth:`set_total_misses`).
    """

    def __init__(self, data: TraceData, loop: bool = False):
        meta = data.workload
        self._data = data
        self.loop = loop
        #: Identity passthrough: cache keys fingerprint the *recorded*
        #: workload, so replayed and live runs share result-cache entries.
        self.replay_fingerprint = copy.deepcopy(data.fingerprint)
        self._num_windows = data.num_windows
        self._cursor = 0
        super().__init__(
            name=meta["name"],
            footprint_pages=int(meta["footprint_pages"]),
            total_misses=int(meta["total_misses"]),
            misses_per_window=int(meta["misses_per_window"]),
            compute_cycles_per_miss=float(meta["compute_cycles_per_miss"]),
            seed=meta["seed"],
            objects=[ObjectRegion(name, start, num) for name, start, num in data.objects],
        )
        if loop:
            # Looping replays re-derive progress from each window's
            # emitted misses (the trace may cover the budget many times):
            # window i owns entries [bounds[i], bounds[i + 1]).
            c = data.columns
            totals = np.concatenate([[0], np.cumsum(c["counts"])])
            bounds = c["group_page_ptr"][c["window_group_ptr"]]
            self._window_emitted = np.diff(totals[bounds])

    @classmethod
    def from_file(cls, path: PathLike, loop: bool = False, mmap: bool = True) -> "ReplayWorkload":
        """Load a ``.npt`` trace file, validated (:class:`TraceFormatError`)."""
        data = read_npt(path, mmap=mmap)
        _validate(data, path)
        return cls(data, loop=loop)

    @property
    def trace_windows(self) -> int:
        """Number of recorded windows in the underlying trace."""
        return self._num_windows

    @property
    def trace_data(self) -> TraceData:
        """The recorded columns backing this replay (read-only use)."""
        return self._data

    def set_total_misses(self, total: int) -> None:
        """Stretch/shrink the work budget (looping replays only)."""
        if total <= 0:
            raise ValueError("total must be positive")
        if not self.loop:
            raise ValueError("cannot stretch a non-looping replay")
        self.total_misses = total

    def _on_reset(self) -> None:
        self._cursor = 0

    def allocation_order(self) -> np.ndarray:
        # Copy: callers may treat allocation order as scratch, and the
        # underlying column can be a read-only memmap.
        return np.array(self._data.columns["alloc_order"], dtype=np.int64)

    def final_metrics(self) -> dict:
        return copy.deepcopy(self._data.final_metrics)

    def next_window(self) -> WindowTraffic:
        i = self._cursor
        if i >= self._num_windows:
            if not self.loop:
                raise TraceExhausted(
                    f"replay of {self.name!r} exhausted after {self._num_windows} "
                    f"windows (recorded under a smaller window budget?)"
                )
            i = 0
        data = self._data
        c = data.columns
        wgp = c["window_group_ptr"]
        g0, g1 = int(wgp[i]), int(wgp[i + 1])
        gpp = c["group_page_ptr"]
        pages, counts = c["pages"], c["counts"]
        mlp, lf, lab = c["group_mlp"], c["group_load_fraction"], c["group_label"]
        groups = [
            AccessGroup(
                pages=pages[gpp[g] : gpp[g + 1]],
                counts=counts[gpp[g] : gpp[g + 1]],
                mlp=float(mlp[g]),
                load_fraction=float(lf[g]),
                label=data.labels[lab[g]],
            )
            for g in range(g0, g1)
        ]
        self._cursor = i + 1
        self._window += 1
        if self.loop:
            self._consumed += int(self._window_emitted[i])
            done = self.done
        else:
            self._consumed = int(c["window_consumed"][i])
            done = bool(c["window_done"][i])
        p0, p1 = int(gpp[g0]), int(gpp[g1])
        return WindowTraffic(
            groups=groups,
            compute_cycles=float(c["window_compute"][i]),
            done=done,
            phase=data.phases[int(c["window_phase"][i])],
            flat_pages=pages[p0:p1],
            flat_counts=counts[p0:p1],
        )

    def _emit(self, budget, rng):  # pragma: no cover - next_window overridden
        raise NotImplementedError


# ---------------------------------------------------------------------------
# The content-addressed trace cache.
# ---------------------------------------------------------------------------


class TraceStore:
    """Two-tier (memory + optional ``.npt`` directory) trace cache.

    ``replay`` is the single entry point: given a live workload and a
    window budget it returns a :class:`ReplayWorkload` over the cached
    stream, recording it first if this is the stream's first use.  With
    a directory configured, recorded traces are persisted and replayed
    through ``np.memmap`` -- concurrent sweep workers all share the one
    page-cache-warm copy.
    """

    def __init__(
        self,
        directory: Optional[PathLike] = None,
        memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
    ):
        self.directory = Path(directory) if directory else None
        self.memory_budget_bytes = memory_budget_bytes
        self._memory: Dict[str, TraceData] = {}
        self._memory_bytes = 0
        self._lock = threading.Lock()
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.records = 0

    def path_for(self, key: str) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / f"{key}.npt"

    def key_for(self, workload: Workload, max_windows: int) -> str:
        return trace_key(_source_fingerprint(workload), max_windows)

    def get(self, key: str) -> Optional[TraceData]:
        """The cached stream for ``key``, or None (corrupt files = miss)."""
        with self._lock:
            cached = self._memory.get(key)
        if cached is not None:
            self.memory_hits += 1
            return cached
        path = self.path_for(key)
        if path is not None and path.is_file():
            try:
                data = read_npt(path)
            except TraceFormatError:
                data = None
            if data is not None:
                self.disk_hits += 1
                self._remember(key, data)
                return data
        self.misses += 1
        return None

    def ensure(self, workload: Workload, max_windows: int) -> Tuple[str, TraceData]:
        """The cached stream for ``workload``, recording it on first use."""
        key = self.key_for(workload, max_windows)
        data = self.get(key)
        if data is None:
            data = self._record(workload, max_windows, key)
        return key, data

    def ensure_spec(
        self,
        fingerprint: Dict[str, Any],
        builder,
        max_windows: int,
    ) -> Tuple[str, TraceData]:
        """Like :meth:`ensure`, keyed by fingerprint instead of instance.

        ``builder`` is a zero-argument callable producing the live
        workload; it is invoked only on a recording miss.  This is the
        shared-map handoff path campaign drivers use: for the (typical)
        case where the stream is already on disk, the workload is never
        built at all -- the driver just attaches the memory-mappable
        ``.npt`` path to thousands of requests.
        """
        key = trace_key(fingerprint, max_windows)
        data = self.get(key)
        if data is None:
            data = self._record(builder(), max_windows, key)
        return key, data

    def _record(self, workload: Workload, max_windows: int, key: str) -> TraceData:
        data = record_stream(workload, max_windows=max_windows)
        self.records += 1
        path = self.path_for(key)
        if path is not None:
            try:
                write_npt(data, path)
                # Re-open memory-mapped so replays share the page
                # cache instead of this process's private arrays.
                data = read_npt(path)
            except OSError:
                pass
        self._remember(key, data)
        return data

    def replay(
        self, workload: Workload, max_windows: int = 200_000, loop: bool = False
    ) -> Workload:
        """A replaying stand-in for ``workload`` (already-replaying: no-op)."""
        if isinstance(workload, ReplayWorkload):
            return workload
        _, data = self.ensure(workload, max_windows)
        return ReplayWorkload(data, loop=loop)

    def _remember(self, key: str, data: TraceData) -> None:
        # Disk-backed entries hold memmaps (shared page cache, ~free);
        # purely in-memory recordings count against the soft budget,
        # evicting oldest-inserted first.
        cost = 0 if data.path is not None else data.nbytes()
        with self._lock:
            if key in self._memory:
                return
            self._memory[key] = data
            self._memory_bytes += cost
            while self._memory_bytes > self.memory_budget_bytes and len(self._memory) > 1:
                old_key = next(iter(self._memory))
                if old_key == key:
                    break
                old = self._memory.pop(old_key)
                self._memory_bytes -= 0 if old.path is not None else old.nbytes()

    def clear_memory(self) -> None:
        with self._lock:
            self._memory.clear()
            self._memory_bytes = 0

    def stats(self) -> Dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "records": self.records,
        }


# ---------------------------------------------------------------------------
# Default-store plumbing.
# ---------------------------------------------------------------------------

_default_trace_store: Optional[TraceStore] = None


def default_trace_dir() -> Optional[str]:
    """Trace directory from the environment (or derived from the cache dir)."""
    directory = os.environ.get(TRACE_DIR_ENV)
    if directory:
        return directory
    from repro.exp.cache import CACHE_DIR_ENV

    cache_dir = os.environ.get(CACHE_DIR_ENV)
    if cache_dir:
        return os.path.join(cache_dir, "traces")
    return None


def get_default_trace_store() -> TraceStore:
    global _default_trace_store
    if _default_trace_store is None:
        _default_trace_store = TraceStore(default_trace_dir())
    return _default_trace_store


def set_default_trace_store(store: TraceStore) -> TraceStore:
    global _default_trace_store
    _default_trace_store = store
    return store


def reset_default_trace_store() -> None:
    global _default_trace_store
    _default_trace_store = None


__all__ = [
    "DEFAULT_MEMORY_BUDGET",
    "RECORD_CHUNK",
    "ReplayWorkload",
    "TRACE_DIR_ENV",
    "TRACE_FORMAT_VERSION",
    "TRACE_MAGIC",
    "TraceData",
    "TraceExhausted",
    "TraceFormatError",
    "TraceStore",
    "default_trace_dir",
    "get_default_trace_store",
    "read_npt",
    "record_stream",
    "record_to_file",
    "reset_default_trace_store",
    "set_default_trace_store",
    "trace_key",
    "write_npt",
]
