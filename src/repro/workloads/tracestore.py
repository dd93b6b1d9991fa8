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
import secrets
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.hw.access import WindowTraffic
from repro.hw.drawplan import StreamMemo
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

#: Environment variable selecting the on-disk trace directory.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

#: Soft cap (bytes) on the recordings a :class:`TraceStore` holds in
#: memory only: those recorded without a directory to spill to, which
#: cannot be re-read and so are evicted first-in, first-out.  Each
#: counts its columns and its memo (plan and draws).  Mapped streams are
#: bounded by count instead (one per store).
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
    """A replay was asked for more windows than it recorded."""


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
    """One recorded stream: header metadata plus the column arrays.

    ``memo`` is the stream's :class:`~repro.hw.drawplan.StreamMemo`:
    every run replaying this object shares its entry-meta plan and its
    keyed draws.  It is not part of the stream's value, so equality and
    ``repr`` ignore it.
    """

    workload: Dict[str, Any]
    fingerprint: Dict[str, Any]
    objects: List[Tuple[str, int, int]]
    final_metrics: Dict[str, Any]
    phases: List[str]
    labels: List[str]
    columns: Dict[str, np.ndarray]
    source_class: str = ""
    path: Optional[Path] = None
    memo: StreamMemo = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.memo = StreamMemo(self.nbytes())

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
    size_parts: List[np.ndarray] = []
    mlp_parts: List[np.ndarray] = []
    lf_parts: List[np.ndarray] = []
    group_label: List[int] = []
    win_groups: List[int] = []
    win_compute: List[float] = []
    win_consumed: List[int] = []
    win_done: List[bool] = []
    win_phase: List[int] = []
    phases: Dict[str, int] = {}
    labels: Dict[str, int] = {}

    while not workload.done and len(win_groups) < max_windows:
        traffic = workload.next_window()
        page_parts.append(traffic.pages)
        count_parts.append(traffic.counts)
        size_parts.append(np.diff(traffic.group_ptr))
        mlp_parts.append(traffic.mlp)
        lf_parts.append(traffic.load_fraction)
        group_label.extend(labels.setdefault(label, len(labels)) for label in traffic.labels)
        win_groups.append(traffic.num_groups)
        win_compute.append(float(traffic.compute_cycles))
        # The work counter after this window: emission rules differ by
        # workload (an empty window still consumes its budget), so it is
        # read rather than re-derived from the entries.
        win_consumed.append(int(workload._consumed))
        win_done.append(bool(traffic.done))
        win_phase.append(phases.setdefault(traffic.phase, len(phases)))

    final_metrics = copy.deepcopy(workload.final_metrics())
    alloc_order = np.ascontiguousarray(workload.allocation_order(), dtype=np.int64)
    workload.reset()

    columns: Dict[str, np.ndarray] = {
        "window_group_ptr": _ptr(win_groups),
        "window_compute": np.asarray(win_compute, dtype=np.float64),
        "window_consumed": np.asarray(win_consumed, dtype=np.int64),
        "window_done": np.asarray(win_done, dtype=np.uint8),
        "window_phase": np.asarray(win_phase, dtype=np.uint32),
        "group_page_ptr": _ptr(_concat(size_parts, np.int64)),
        "group_mlp": _concat(mlp_parts, np.float64),
        "group_load_fraction": _concat(lf_parts, np.float64),
        "group_label": np.asarray(group_label, dtype=np.uint32),
        "pages": _concat(page_parts, np.int64),
        "counts": _concat(count_parts, np.int64),
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


def _ptr(sizes) -> np.ndarray:
    ptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    if len(sizes):
        np.cumsum(np.asarray(sizes, dtype=np.int64), out=ptr[1:])
    return ptr


def _concat(parts: List[np.ndarray], dtype) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=dtype)
    return np.concatenate([np.asarray(p, dtype=dtype) for p in parts])


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

    # Created like open() would create it: mode 0666 less the umask.
    tmp = path.parent / f"tmp{secrets.token_hex(8)}.npt.tmp"
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(TRACE_MAGIC)
            fh.write(len(blob).to_bytes(4, "little"))
            fh.write(blob)
            for name, dtype, _ in _COLUMN_SPECS:
                meta = column_meta[name]
                fh.seek(meta["offset"])
                # Write the array's buffer: no second copy of a large column.
                fh.write(memoryview(np.ascontiguousarray(data.columns[name], dtype=dtype)))
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def read_npt(path: PathLike) -> TraceData:
    """Load a ``.npt`` trace, zero-copy via ``np.memmap``.

    Raises :class:`TraceFormatError` on bad magic, version mismatch,
    unparsable headers, truncated column data, or a file that cannot be
    read or mapped -- callers (the trace store) treat any of those as a
    cache miss and re-record.
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
            continue
        try:
            mm = np.memmap(path, dtype=np.dtype(dtype), mode="r", offset=offset, shape=(length,))
        except OSError as exc:  # deleted or made unreadable since the header read
            raise TraceFormatError(f"{path}: unreadable ({exc})") from exc
        # View as a plain ndarray: same mmap-backed buffer (the memmap
        # stays alive via .base, so page-cache sharing across sweep
        # workers is unchanged) but slicing no longer pays the
        # memmap.__array_finalize__ subclass overhead -- the replay hot
        # loop slices these columns thousands of times per run.
        columns[name] = mm.view(np.ndarray)
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

    Checks every column a replay reads beyond the layout
    :func:`read_npt` checks.  An O(entries) scan, so only
    :meth:`ReplayWorkload.from_file` makes it; the runner reads traces
    this module recorded itself.
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
    lf = c["group_load_fraction"]
    if not np.all((lf >= 0.0) & (lf <= 1.0)):
        raise TraceFormatError(f"{path}: load_fraction must be finite and in [0, 1]")
    for column, table in (("group_label", data.labels), ("window_phase", data.phases)):
        codes = c[column]
        if codes.shape[0] and int(codes.max()) >= len(table):
            raise TraceFormatError(
                f"{path}: {column} code {int(codes.max())} past its {len(table)}-entry table"
            )
    # The machine places every page before window 0 in this order, so
    # it must be a permutation of the footprint (read_npt checked its
    # length).
    order = c["alloc_order"]
    if (
        order.min() < 0
        or order.max() >= footprint
        or not np.all(np.bincount(order, minlength=footprint) == 1)
    ):
        raise TraceFormatError(f"{path}: alloc_order is not a permutation of [0, {footprint})")


# ---------------------------------------------------------------------------
# Replay.
# ---------------------------------------------------------------------------


class ReplayWorkload(Workload):
    """Replays a recorded stream bit-identically.

    The per-window consumed-work counter, ``done`` transitions, phases,
    and ``final_metrics`` come straight from the recording, so a
    :class:`Machine` run over this workload is indistinguishable from
    one over the live generator it was recorded from.  The replay ends
    with the recording's last window.
    """

    def __init__(self, data: TraceData):
        meta = data.workload
        self._data = data
        self._recorded_fingerprint = copy.deepcopy(data.fingerprint)
        self._num_windows = data.num_windows
        #: False when the recording stops before its workload is done
        #: (it was recorded under a window budget).
        done = data.columns["window_done"]
        self._complete = len(done) > 0 and bool(done[-1])
        self._cursor = 0
        #: Every recorded group's label, decoded once.
        codes = data.columns["group_label"].tolist()
        self._group_labels = [data.labels[code] for code in codes]
        super().__init__(
            name=meta["name"],
            footprint_pages=int(meta["footprint_pages"]),
            total_misses=int(meta["total_misses"]),
            misses_per_window=int(meta["misses_per_window"]),
            compute_cycles_per_miss=float(meta["compute_cycles_per_miss"]),
            seed=meta["seed"],
            objects=[ObjectRegion(name, start, num) for name, start, num in data.objects],
        )

    @classmethod
    def from_file(cls, path: PathLike) -> "ReplayWorkload":
        """Load a ``.npt`` trace file, validated (:class:`TraceFormatError`)."""
        data = read_npt(path)
        _validate(data, path)
        return cls(data)

    @property
    def replay_fingerprint(self) -> Dict[str, Any]:
        """Cache identity (read by :func:`repro.exp.cache.workload_fingerprint`).

        A replay of a complete recording passes the *recorded*
        workload's fingerprint through, so replayed and live runs share
        result-cache entries and trace-store keys.  A recording that
        stops before its workload is done runs another stream, so its
        identity names the recording and its window count.
        """
        if self._complete:
            return self._recorded_fingerprint
        return {"replay_of": self._recorded_fingerprint, "windows": self._num_windows}

    @property
    def trace_windows(self) -> int:
        """Number of recorded windows in the underlying trace."""
        return self._num_windows

    @property
    def trace_data(self) -> TraceData:
        """The recorded columns backing this replay (read-only use)."""
        return self._data

    @property
    def done(self) -> bool:
        # A replay also ends with its last recorded window: a trace
        # recorded under a window budget stops before its workload.
        return super().done or self._cursor >= self._num_windows

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
            raise TraceExhausted(
                f"replay of {self.name!r} exhausted after {self._num_windows} "
                f"windows (recorded under a smaller window budget?)"
            )
        c = self._data.columns
        wgp, gpp = c["window_group_ptr"], c["group_page_ptr"]
        g0, g1 = int(wgp[i]), int(wgp[i + 1])
        p0, p1 = int(gpp[g0]), int(gpp[g1])
        self._cursor = i + 1
        self._window += 1
        self._consumed = int(c["window_consumed"][i])
        return WindowTraffic(
            pages=c["pages"][p0:p1],
            counts=c["counts"][p0:p1],
            group_ptr=gpp[g0 : g1 + 1] - p0,
            mlp=c["group_mlp"][g0:g1],
            load_fraction=c["group_load_fraction"][g0:g1],
            labels=self._group_labels[g0:g1],
            compute_cycles=float(c["window_compute"][i]),
            done=bool(c["window_done"][i]),
            phase=self._data.phases[int(c["window_phase"][i])],
        )

    def _emit(self, budget, rng):  # pragma: no cover - next_window overridden
        raise NotImplementedError


# ---------------------------------------------------------------------------
# The content-addressed trace cache.
# ---------------------------------------------------------------------------


class TraceStore:
    """Two-tier (memory + optional ``.npt`` directory) trace cache.

    :meth:`ensure_spec` is the single lookup: given a workload's
    fingerprint, a builder and a window budget it returns the cached
    stream, recording it first if this is the stream's first use.  With
    a directory configured, recorded traces are persisted and replayed
    through ``np.memmap`` -- concurrent sweep workers all share the one
    page-cache-warm copy -- and the memory layer holds one mapped
    stream, the one the process is replaying, so every run of it shares
    one ``TraceData`` (and its memo: entry-meta plan and keyed draws).
    """

    def __init__(self, directory: Optional[PathLike] = None):
        self.directory = Path(directory) if directory else None
        self._memory: Dict[str, TraceData] = {}
        self._lock = threading.Lock()
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.records = 0

    def path_for(self, key: str) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / f"{key}.npt"

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

    def ensure_spec(
        self,
        fingerprint: Dict[str, Any],
        builder,
        max_windows: int,
    ) -> Tuple[str, TraceData]:
        """``(key, stream)`` for ``fingerprint``, recording it on first use.

        ``builder`` is a zero-argument callable producing the live
        workload; it is invoked only on a recording miss.  Every
        experiment run gets its stream here: when the stream is already
        on disk the workload is never built at all, and a file that has
        vanished or turned unreadable costs one re-record.
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
            except (OSError, TraceFormatError):
                pass
        self._remember(key, data)
        return data

    def _remember(self, key: str, data: TraceData) -> None:
        # A replayed mapped stream costs its size in RSS (its memo about
        # as much again), and a process replays one stream at a time: a
        # newly mapped stream evicts the previous one, which its file
        # re-maps on demand.  Recordings held only in memory cannot be
        # re-read; they go oldest-first once their columns and memos
        # (plan and draws, grown by the runs since) exceed
        # DEFAULT_MEMORY_BUDGET.
        with self._lock:
            if key in self._memory:
                return
            if data.path is not None:
                for old_key in [k for k, old in self._memory.items() if old.path is not None]:
                    del self._memory[old_key]
            else:
                unmapped = [k for k, old in self._memory.items() if old.path is None]
                total = _held_bytes(data) + sum(_held_bytes(self._memory[k]) for k in unmapped)
                for old_key in unmapped:
                    if total <= DEFAULT_MEMORY_BUDGET:
                        break
                    total -= _held_bytes(self._memory.pop(old_key))
            self._memory[key] = data

    def clear_memory(self) -> None:
        with self._lock:
            self._memory.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "records": self.records,
        }


def _held_bytes(data: TraceData) -> int:
    """What holding ``data`` in memory costs: its columns and its memo."""
    return data.nbytes() + data.memo.nbytes()


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
