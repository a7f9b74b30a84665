"""Flat binary serialization of trajectories: one file per stored trajectory.

SGF2 layout (little-endian): magic ``b"SGF2"``, uint32 nx, ny and the level
count nt+1 (16 bytes, so the payload is 8-byte aligned), then the packed
``(nt+1, n_faces)`` stack as float64, level 0 first.  Each row is one level's
u faces followed by its v faces, the layout of :func:`grid.face_views`.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .grid import GridSpec, Trajectory

MAGIC = b"SGF2"
_HEADER = struct.Struct("<4sIII")


def write_trajectory(directory, name: str, traj: Trajectory) -> Path:
    """Write ``directory/<name>.sgf`` straight from the stack; return its path."""
    path = Path(directory) / f"{name}.sgf"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, traj.grid.nx, traj.grid.ny, len(traj)))
        fh.write(np.ascontiguousarray(traj.data, dtype="<f8"))
    return path


def read_trajectory(directory, name: str, grid: GridSpec) -> Trajectory:
    """The trajectory of ``directory/<name>.sgf`` on ``grid``, in a stack of its own."""
    path = Path(directory) / f"{name}.sgf"
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise ConfigurationError(f"{path} is too short to be a trajectory file")
    magic, nx, ny, levels = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ConfigurationError(f"{path} is not an SGF2 trajectory file")
    if (nx, ny) != (grid.nx, grid.ny):
        raise ConfigurationError(f"{path} holds a {nx}x{ny} grid, expected {grid.nx}x{grid.ny}")
    if levels != grid.nt + 1:
        raise ConfigurationError(f"{path} holds {levels} levels, expected {grid.nt + 1}")
    size, expected = len(raw) - _HEADER.size, 8 * levels * grid.n_faces
    if size != expected:
        raise ConfigurationError(f"{path} payload has {size} bytes, expected {expected}")
    stack = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(levels, -1)
    return Trajectory(grid, stack.astype(float))
