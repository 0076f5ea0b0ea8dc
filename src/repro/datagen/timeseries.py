"""Time-varying dataset containers: on-disk and generated-on-demand.

Two forms are provided:

- :class:`TimeSeriesWriter` / :class:`TimeSeriesReader` write and read
  a simple brick-per-timestep format (one raw binary file per
  timestep plus a JSON header). This is the "file on a parallel
  filesystem / DPSS-staged dataset" form used by the live pipeline.
  A read is a read-only view of a memory-mapped brick, not a heap
  copy, and a write replaces the brick file whole, so a view taken
  before the write keeps reading the bytes it was taken from.
- :class:`SyntheticTimeSeries` generates timesteps on demand from a
  field function. Simulated experiments use it to know sizes and to
  regenerate any timestep's voxels without storing 41 GB.
"""

from __future__ import annotations

import json
import mmap
import os
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

_HEADER_NAME = "dataset.json"


@dataclass(frozen=True)
class TimeSeriesMeta:
    """Shape/type metadata for a time-varying scalar dataset."""

    name: str
    shape: Tuple[int, int, int]
    n_timesteps: int
    dtype: str = "float32"

    def __post_init__(self):
        if len(self.shape) != 3 or any(s < 1 for s in self.shape):
            raise ValueError(f"bad shape {self.shape}")
        if self.n_timesteps < 1:
            raise ValueError("n_timesteps must be >= 1")
        np.dtype(self.dtype)  # raises on junk

    @property
    def bytes_per_timestep(self) -> int:
        """Size of one timestep in bytes (the paper's 160 MB unit)."""
        nx, ny, nz = self.shape
        return nx * ny * nz * np.dtype(self.dtype).itemsize

    @property
    def total_bytes(self) -> int:
        """Whole-dataset size (the paper's 41.4 GB figure)."""
        return self.bytes_per_timestep * self.n_timesteps

    @property
    def n_voxels(self) -> int:
        nx, ny, nz = self.shape
        return nx * ny * nz


class TimeSeriesWriter:
    """Writes timesteps as raw bricks under a directory."""

    def __init__(self, directory: str, meta: TimeSeriesMeta):
        self.directory = directory
        self.meta = meta
        os.makedirs(directory, exist_ok=True)
        header = {
            "name": meta.name,
            "shape": list(meta.shape),
            "n_timesteps": meta.n_timesteps,
            "dtype": meta.dtype,
        }
        with open(os.path.join(directory, _HEADER_NAME), "w") as f:
            json.dump(header, f, indent=2)

    def path_for(self, timestep: int) -> str:
        """On-disk path of a timestep brick."""
        return os.path.join(self.directory, f"t{timestep:05d}.raw")

    def write(self, timestep: int, field: np.ndarray) -> str:
        """Write one timestep; returns the file path.

        The brick goes to a temporary file in the same directory that
        then replaces the old one: truncating a brick in place would
        fault any reader still holding a mapped view of it.
        """
        self._check_step(timestep)
        if tuple(field.shape) != self.meta.shape:
            raise ValueError(
                f"field shape {field.shape} != dataset shape {self.meta.shape}"
            )
        data = np.ascontiguousarray(field, dtype=self.meta.dtype)
        path = self.path_for(timestep)
        tmp = f"{path}.{os.urandom(8).hex()}.tmp"
        try:
            with open(tmp, "xb") as f:
                data.tofile(f)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    def _check_step(self, timestep: int) -> None:
        if not 0 <= timestep < self.meta.n_timesteps:
            raise IndexError(
                f"timestep {timestep} outside [0, {self.meta.n_timesteps})"
            )


class TimeSeriesReader:
    """Reads bricks written by :class:`TimeSeriesWriter`.

    Supports sub-reads of contiguous index ranges along the slowest
    (x) axis, which is exactly the access pattern of the slab
    decomposition: each PE reads its slab, not the whole brick.
    """

    def __init__(self, directory: str):
        self.directory = directory
        with open(os.path.join(directory, _HEADER_NAME)) as f:
            header = json.load(f)
        self.meta = TimeSeriesMeta(
            name=header["name"],
            shape=tuple(header["shape"]),
            n_timesteps=header["n_timesteps"],
            dtype=header["dtype"],
        )

    def path_for(self, timestep: int) -> str:
        """On-disk path of a timestep brick."""
        return os.path.join(self.directory, f"t{timestep:05d}.raw")

    def read(self, timestep: int) -> np.ndarray:
        """Read a whole timestep."""
        return self.read_slab(timestep, 0, self.meta.shape[0])

    def read_slab(self, timestep: int, x_lo: int, x_hi: int) -> np.ndarray:
        """Rows ``x_lo:x_hi`` along the x axis of one timestep.

        The result is a read-only view of the memory-mapped brick: its
        pages are read on first touch and leave the resident set when
        the last view of the mapping goes, instead of sitting on the
        heap as an 8 MB copy per timestep.
        """
        nx, ny, nz = self.meta.shape
        if not 0 <= timestep < self.meta.n_timesteps:
            raise IndexError(f"timestep {timestep} out of range")
        if not 0 <= x_lo < x_hi <= nx:
            raise IndexError(f"slab [{x_lo}, {x_hi}) outside [0, {nx})")
        itemsize = np.dtype(self.meta.dtype).itemsize
        row_bytes = ny * nz * itemsize
        path = self.path_for(timestep)
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            if size != self.meta.bytes_per_timestep:
                raise ValueError(
                    f"brick {path} holds {size} bytes, expected "
                    f"{self.meta.bytes_per_timestep}"
                )
            mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        flat = np.frombuffer(
            mapped,
            dtype=self.meta.dtype,
            count=(x_hi - x_lo) * ny * nz,
            offset=x_lo * row_bytes,
        )
        return flat.reshape((x_hi - x_lo, ny, nz))


class SyntheticTimeSeries:
    """A time series whose voxels are computed on demand.

    ``field_fn(time) -> ndarray`` supplies the data;
    ``time_of(step)`` maps the integer step to the field time
    coordinate. Simulated campaigns use :attr:`meta` for transfer
    sizes and only materialise voxels when a renderer needs them.
    """

    def __init__(
        self,
        meta: TimeSeriesMeta,
        field_fn: Callable[[float], np.ndarray],
        *,
        dt: float = 1.0,
    ):
        if dt <= 0:
            raise ValueError("dt must be > 0")
        self.meta = meta
        self._field_fn = field_fn
        self.dt = dt
        #: ``(step, voxels)`` of the last step materialised, or None
        self._last: Optional[Tuple[int, np.ndarray]] = None

    def time_of(self, step: int) -> float:
        """Field-time coordinate of an integer timestep."""
        return step * self.dt

    def timestep(self, step: int) -> np.ndarray:
        """Materialise one timestep. Only the last one is kept: reads of
        one step share it, and a long series never piles up in memory."""
        if not 0 <= step < self.meta.n_timesteps:
            raise IndexError(f"timestep {step} out of range")
        last = self._last
        if last is not None and last[0] == step:
            return last[1]
        field = self._field_fn(self.time_of(step))
        if tuple(field.shape) != self.meta.shape:
            raise ValueError(
                f"field_fn produced shape {field.shape}, "
                f"expected {self.meta.shape}"
            )
        voxels = np.asarray(field, dtype=self.meta.dtype)
        self._last = (step, voxels)
        return voxels

    def slab(self, step: int, x_lo: int, x_hi: int) -> np.ndarray:
        """Slab view of one timestep along the x axis."""
        nx = self.meta.shape[0]
        if not 0 <= x_lo < x_hi <= nx:
            raise IndexError(f"slab [{x_lo}, {x_hi}) outside [0, {nx})")
        return self.timestep(step)[x_lo:x_hi]
