"""Flat binary serialization of velocity fields and trajectories.

SGF1 layout (little-endian): magic ``b"SGF1"``, kind byte ``b"V"`` (velocity,
the one kind), uint32 nx, uint32 ny, then ``(nx+1)*ny`` u faces followed by
``nx*(ny+1)`` v faces as float64, which is the packed ``data`` of the field.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .grid import GridSpec, Trajectory, VelocityField

MAGIC = b"SGF1"
_HEADER = struct.Struct("<4scII")


def write_field(path, field) -> None:
    path = Path(path)
    if not isinstance(field, VelocityField):
        raise ConfigurationError(f"cannot serialize {type(field).__name__}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, b"V", field.grid.nx, field.grid.ny))
        fh.write(np.ascontiguousarray(field.data, dtype="<f8").tobytes())


def read_field(path, grid: GridSpec):
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise ConfigurationError(f"{path} is too short to be a grid-field file")
    magic, kind, nx, ny = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise ConfigurationError(f"{path} is not a grid-field file")
    if (nx, ny) != (grid.nx, grid.ny):
        raise ConfigurationError(
            f"{path} holds a {nx}x{ny} field, expected {grid.nx}x{grid.ny}"
        )
    if kind != b"V":
        raise ConfigurationError(f"unknown field kind {kind!r} in {path}")
    expected = grid.n_faces
    if len(raw) - _HEADER.size != 8 * expected:
        raise ConfigurationError(
            f"{path} payload has {len(raw) - _HEADER.size} bytes, "
            f"expected {8 * expected}"
        )
    body = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    return VelocityField.from_packed(grid, body.astype(float))


def write_trajectory(directory, name: str, traj: Trajectory) -> list:
    """One binary file per snapshot: ``<name>_0000.sgf`` ... Returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for m, snap in enumerate(traj):
        p = directory / f"{name}_{m:04d}.sgf"
        write_field(p, snap)
        paths.append(p)
    return paths


def read_trajectory(directory, name: str, grid: GridSpec) -> Trajectory:
    directory = Path(directory)
    traj = Trajectory.zeros(grid)
    for m in range(grid.nt + 1):
        traj[m] = read_field(directory / f"{name}_{m:04d}.sgf", grid)
    return traj

