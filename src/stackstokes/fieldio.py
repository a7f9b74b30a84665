"""Flat binary and CSV serialization of grid fields and trajectories.

Binary layout (little-endian): magic ``b"SGF1"``, kind byte (``b"S"`` scalar,
``b"V"`` velocity), uint32 nx, uint32 ny, then the payload(s) as row-major
float64: scalar ``nx*ny``; velocity ``(nx+1)*ny`` for u followed by
``nx*(ny+1)`` for v, which is the packed ``data`` of the field.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .grid import GridSpec, ScalarField, Trajectory, VelocityField

MAGIC = b"SGF1"
_HEADER = struct.Struct("<4scII")


def write_field(path, field) -> None:
    path = Path(path)
    with open(path, "wb") as fh:
        if isinstance(field, ScalarField):
            fh.write(_HEADER.pack(MAGIC, b"S", field.grid.nx, field.grid.ny))
            fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())
        elif isinstance(field, VelocityField):
            fh.write(_HEADER.pack(MAGIC, b"V", field.grid.nx, field.grid.ny))
            fh.write(np.ascontiguousarray(field.data, dtype="<f8").tobytes())
        else:
            raise ConfigurationError(f"cannot serialize {type(field).__name__}")


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
    if kind == b"S":
        expected = nx * ny
    elif kind == b"V":
        expected = (nx + 1) * ny + nx * (ny + 1)
    else:
        raise ConfigurationError(f"unknown field kind {kind!r} in {path}")
    if len(raw) - _HEADER.size != 8 * expected:
        raise ConfigurationError(
            f"{path} payload has {len(raw) - _HEADER.size} bytes, "
            f"expected {8 * expected}"
        )
    body = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    if kind == b"S":
        return ScalarField(grid, body.reshape(nx, ny).copy())
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


def velocity_to_csv(path, field: VelocityField) -> None:
    g = field.grid
    xu, yu = g.u_face_coords()
    xv, yv = g.v_face_coords()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["component", "x", "y", "value"])
        for i in range(g.nx + 1):
            for j in range(g.ny):
                w.writerow(["u", repr(xu[i]), repr(yu[j]), repr(field.u[i, j])])
        for i in range(g.nx):
            for j in range(g.ny + 1):
                w.writerow(["v", repr(xv[i]), repr(yv[j]), repr(field.v[i, j])])
