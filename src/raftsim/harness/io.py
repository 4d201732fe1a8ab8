"""Series and snapshot persistence.

Series files are plain CSV with one header row (the DiagnosticsRecord
columns, fixed order) and decimal values at 17 significant digits.

A snapshot is one file: line 1 is a JSON header (system kind, grid spec,
field names/sizes, and exact scalars as C99 hex floats), followed by the raw
little-endian float64 payload of each field in declared order.  Reading a
snapshot reproduces the state bit-exactly; a parameter hash recorded at write
time lets resume refuse configs that would silently change the physics.
Snapshots are written atomically, and a file whose header does not parse,
whose payload differs from the declared size, or whose grid and fields do
not make a valid state is refused on read.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from ..bulk import BulkField, DiskGrid
from ..diagnostics import COLUMNS, INT_COLUMNS
from ..model import FullState, ReducedState
from ..surface import SurfaceField, SurfaceGrid
from .config import RunConfig, serialize_config


class SnapshotMismatchError(RuntimeError):
    """Snapshot was produced under a different physical configuration."""


class CorruptSnapshotError(ValueError):
    """Snapshot header is unreadable, the payload is not the declared size,
    or the grid and state it describes cannot be built."""


def write_series(records, path):
    """Write diagnostics records as CSV (one row per sample)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(COLUMNS) + "\n")
        for rec in records:
            cells = []
            for name in COLUMNS:
                value = getattr(rec, name)
                if name in INT_COLUMNS:
                    cells.append(str(int(value)))
                else:
                    cells.append(f"{value:.17g}")
            fh.write(",".join(cells) + "\n")


def read_series(path):
    """Read a series file back as a list of column dicts (floats/ints)."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            parts = line.strip().split(",")
            row = {}
            for name, cell in zip(header, parts):
                row[name] = int(cell) if name in INT_COLUMNS else float(cell)
            rows.append(row)
    return rows


def param_hash(cfg: RunConfig) -> str:
    """Hash of the physics-relevant configuration (not schedule/output)."""
    text = serialize_config(cfg)
    keep = []
    skip = False
    for line in text.splitlines():
        if line.startswith("["):
            skip = line in ("[schedule]", "[output]", "[experiment]",
                            "[initial]")
        if not skip:
            keep.append(line)
    return hashlib.sha256("\n".join(keep).encode()).hexdigest()


def _grid_spec(state):
    if isinstance(state, FullState):
        dg = state.u.grid
        return {"kind": "disk", "nr": dg.nr, "ntheta": dg.ntheta}
    g = state.phi.grid
    if g.kind == "circle":
        return {"kind": "circle", "n": g.shape[0]}
    return {"kind": "torus", "nx": g.shape[0], "ny": g.shape[1],
            "lx": g.lengths[0].hex(), "ly": g.lengths[1].hex()}


def write_snapshot(state, path, param_hash: str = ""):
    """Serialize a state; roundtrips bit-exactly through read_snapshot.
    Atomic: a failure mid-write leaves any previous file at `path` intact."""
    if isinstance(state, FullState):
        system, payload = "full", {"u": state.u.values}
    elif isinstance(state, ReducedState):
        system, payload = "reduced", {}
    else:
        raise TypeError(f"cannot snapshot {type(state).__name__}")
    payload.update(phi=state.phi.values, v=state.v.values)
    header = {
        "system": system,
        "grid": _grid_spec(state),
        "t": float(state.t).hex(),
        "param_hash": param_hash,
        "fields": [[name, arr.size] for name, arr in payload.items()],
    }
    if system == "reduced":
        header["scalars"] = {"u": float(state.u).hex(),
                             "total_mass": float(state.total_mass).hex(),
                             "omega_measure": float(state.omega_measure).hex()}
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            for arr in payload.values():
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_snapshot(path, expect_param_hash: str | None = None):
    """Load a snapshot; returns (state, param_hash_recorded_at_write)."""
    with open(path, "rb") as fh:
        line = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(line.decode())
        declared = 8 * sum(count for _, count in header["fields"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptSnapshotError(
            f"{path}: unreadable snapshot header ({exc!r})") from exc
    stored_hash = header.get("param_hash", "")
    if expect_param_hash is not None and stored_hash != expect_param_hash:
        raise SnapshotMismatchError(
            "snapshot was written under a different configuration "
            f"(stored {stored_hash[:12]}..., expected {expect_param_hash[:12]}...)")

    if len(blob) != declared:
        raise CorruptSnapshotError(
            f"{path}: payload holds {len(blob)} bytes, the header declares "
            f"{declared}")
    try:
        return _build_state(header, blob), stored_hash
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptSnapshotError(
            f"{path}: snapshot holds no valid state ({exc})") from exc


def _build_state(header, blob):
    """The state described by a snapshot's header and payload."""
    arrays = {}
    offset = 0
    for name, count in header["fields"]:
        arrays[name] = np.frombuffer(blob, dtype="<f8", count=count,
                                     offset=offset).copy()
        offset += count * 8
    t = float.fromhex(header["t"])
    spec = header["grid"]

    if header["system"] == "full":
        dg = DiskGrid(spec["nr"], spec["ntheta"])
        u = BulkField(dg, arrays["u"].reshape(dg.nr, dg.ntheta))
        phi = SurfaceField(dg.boundary, arrays["phi"])
        v = SurfaceField(dg.boundary, arrays["v"])
        return FullState(t, u, phi, v)

    if spec["kind"] == "circle":
        grid = SurfaceGrid.circle(spec["n"])
    else:
        grid = SurfaceGrid.torus(spec["nx"], spec["ny"],
                                 float.fromhex(spec["lx"]),
                                 float.fromhex(spec["ly"]))
    phi = SurfaceField(grid, arrays["phi"].reshape(grid.shape))
    v = SurfaceField(grid, arrays["v"].reshape(grid.shape))
    scalars = header["scalars"]
    return ReducedState(t, float.fromhex(scalars["u"]), phi, v,
                        float.fromhex(scalars["total_mass"]),
                        float.fromhex(scalars["omega_measure"]))
