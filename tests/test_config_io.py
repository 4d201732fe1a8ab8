import hashlib
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import raftsim as rs
import raftsim.harness as h
from raftsim.diagnostics import INT_COLUMNS
from raftsim.harness import config

MINIMAL_REDUCED = """
[run]
system = reduced

[geometry]
kind = torus
nx = 32
ny = 32

[exchange]
kind = reaction

[stepper]
dt = 1e-3

[initial]
kind = random
seed = 7
amplitude = 0.01

[schedule]
t_final = 0.01
"""


def test_parse_minimal_fills_defaults():
    cfg = h.parse_config(MINIMAL_REDUCED)
    assert cfg.system == "reduced"
    assert cfg.delta == 1.0 and cfg.D == 1.0
    assert cfg.potential.kind == "logarithmic"
    assert cfg.stepper.newton_tol == 1e-10
    assert cfg.schedule.sample_stride == 1
    assert cfg.initial.v0 == 0.5


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def config_documents(draw):
    """Valid documents over every kind of the config tables, with the
    optional keys of each section present or left to their defaults."""
    sections = {}

    def put(section, key, value, optional=True):
        if not optional or draw(st.booleans()):
            sections.setdefault(section, []).append(f"{key} = {value}")

    geometry = draw(st.sampled_from(sorted(config._KINDS["geometry"][1])))
    put("run", "system", "full" if geometry == "disk" else "reduced", False)
    put("geometry", "kind", geometry, False)
    even = st.integers(4, 64).map(lambda k: 2 * k)
    if geometry == "circle":
        put("geometry", "n", draw(even), False)
    elif geometry == "torus":
        put("geometry", "nx", draw(even), False)
        put("geometry", "ny", draw(even), False)
        put("geometry", "lx", draw(_floats(0.1, 100)))
        put("geometry", "ly", draw(_floats(0.1, 100)))
    else:
        put("geometry", "nr", draw(st.integers(4, 64)), False)
        put("geometry", "ntheta", draw(even), False)

    potential = draw(st.sampled_from(
        sorted(k for k in config._KINDS["potential"][1] if k is not None)))
    theta0 = draw(_floats(0.1, 10))
    r0 = draw(_floats(0.05, 0.95))
    put("potential", "kind", potential)
    if draw(st.booleans()):  # 0 < theta < theta0 holds for the defaults too
        put("potential", "theta", theta0 * draw(_floats(0.01, 0.99)), False)
        put("potential", "theta0", theta0, False)
    put("potential", "r0", r0, potential != "regularized")
    if potential == "regularized":
        put("potential", "kappa", r0 * draw(_floats(0.01, 0.99)), False)

    law = draw(st.sampled_from(sorted(config._KINDS["exchange"][1])))
    put("exchange", "kind", law, False)
    for key in config._KINDS["exchange"][1][law][1]:
        put("exchange", key, draw(_floats(1e-3, 1e3)))

    for key in config._SCHEMA["params"]:
        # a full-system document may set omega_measure only to pi, the
        # volume of its unit-disk bulk
        fixed = key == "omega_measure" and geometry == "disk"
        put("params", key, np.pi if fixed else draw(_floats(1e-3, 1e3)))

    dt = draw(_floats(1e-6, 1.0))
    put("stepper", "dt", dt, False)
    put("stepper", "newton_tol", draw(_floats(1e-14, 1e-2)))
    put("stepper", "newton_max_iters", draw(st.integers(0, 100)))
    put("stepper", "dt_min", dt * draw(_floats(1e-4, 1.0)))
    # below the smallest r0 drawn, as the logarithmic well's fallback needs
    put("stepper", "kappa_fallback", draw(_floats(1e-8, 0.04)))

    initial = draw(st.sampled_from(sorted(config._KINDS["initial"][1])))
    name = st.text("abcxyz019_./-", min_size=1, max_size=12)
    put("initial", "kind", initial, False)
    put("initial", "phi_mean", draw(_floats(-0.5, 0.5)))
    put("initial", "amplitude", draw(_floats(0.0, 0.49)))
    put("initial", "seed", draw(st.integers(0, 2**32)), initial != "random")
    put("initial", "path", draw(name), initial != "file")
    put("initial", "v_amplitude", draw(_floats(0.0, 1.0)))
    put("initial", "cutoff", draw(st.integers(1, 64)))
    put("initial", "v0", draw(_floats(-10, 10)))
    put("initial", "u0", draw(_floats(-10, 10)))

    put("schedule", "t_final", draw(st.integers(0, 10**4)) * dt, False)
    put("schedule", "sample_stride", draw(st.integers(1, 100)))
    put("schedule", "checkpoint_stride", draw(st.integers(0, 100)))

    put("experiment", "kind", draw(st.sampled_from(
        ["large_d", "kappa", "equilibrium_convergence", "absorbing"])))
    for key in ("d_list", "kappa_list", "scales"):
        items = draw(st.lists(_floats(1e-6, 1e6), max_size=4))
        put("experiment", key, ", ".join(map(repr, items)))
    put("experiment", "t_star", draw(_floats(0.0, 100)))
    put("output", "directory", draw(name))

    draw(st.randoms()).shuffle(order := list(sections))
    return "\n".join(f"[{section}]\n" + "\n".join(sections[section])
                     for section in order)


@settings(max_examples=300, deadline=None)
@given(config_documents())
def test_serialize_roundtrip(text):
    cfg = h.parse_config(text)
    canonical = h.serialize_config(cfg)
    again = h.parse_config(canonical)
    assert again == cfg
    assert h.serialize_config(again) == canonical


def test_readme_config_block():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    h.parse_config(block)
    # every key is documented in its own section, set or in a comment
    parts = re.split(r"^\[(\w+)\]", block, flags=re.M)
    documented = dict(zip(parts[1::2], parts[2::2]))
    for section, keys in config._SCHEMA.items():
        for key in keys:
            assert re.search(rf"\b{key}\b", documented[section]), (section, key)


def test_negative_delta_cites_positivity():
    with pytest.raises(h.ConfigError) as info:
        h.parse_config(MINIMAL_REDUCED + "\n[params]\ndelta = -1\n")
    assert any("positive" in msg for _, msg in info.value.errors)


def test_all_errors_collected():
    bad = """
[run]
system = sideways
[geometry]
kind = torus
nx = 32
ny = 31
[exchange]
kind = reaction
[stepper]
dt = 1e-3
[initial]
kind = random
[schedule]
t_final = 0.0105
[bogus]
"""
    with pytest.raises(h.ConfigError) as info:
        h.parse_config(bad)
    msgs = [m for _, m in info.value.errors]
    assert len(msgs) >= 5
    assert any("system" in m for m in msgs)
    assert any("ny" in m for m in msgs)
    assert any("seed" in m for m in msgs)
    assert any("multiple" in m for m in msgs)
    assert any("bogus" in m for m in msgs)


def test_error_lines_reported():
    with pytest.raises(h.ConfigError) as info:
        h.parse_config(MINIMAL_REDUCED.replace("dt = 1e-3", "dt = fast"))
    lines = [line for line, _ in info.value.errors if line is not None]
    assert lines  # the dt parse error carries its line number


def test_unknown_key_rejected():
    with pytest.raises(h.ConfigError) as info:
        h.parse_config(MINIMAL_REDUCED + "\n[stepper]\nwarp = 9\n")
    assert any("unknown key" in m for _, m in info.value.errors)


def test_overrides():
    cfg = h.parse_config(MINIMAL_REDUCED,
                         overrides=[("stepper.dt", "5e-4"),
                                    ("schedule.t_final", "0.02")])
    assert cfg.stepper.dt == 5e-4
    assert cfg.schedule.t_final == 0.02
    with pytest.raises(h.ConfigError):
        h.parse_config(MINIMAL_REDUCED, overrides=[("stepper.warp", "1")])


def test_geometry_system_compatibility():
    with pytest.raises(h.ConfigError):
        h.parse_config(MINIMAL_REDUCED.replace("system = reduced",
                                               "system = full"))


def test_initial_field_construction_deterministic():
    cfg = h.parse_config(MINIMAL_REDUCED)
    a = cfg.build_initial_state()
    b = cfg.build_initial_state()
    assert np.array_equal(a.phi.values, b.phi.values)
    g = a.phi.grid
    assert abs(g.mean(a.phi.values)) <= 1e-15
    assert np.max(np.abs(a.phi.values)) == pytest.approx(0.01, rel=1e-12)


@pytest.mark.parametrize("geometry, digest", [
    ("kind = circle\nn = 64",
     "b03d7b6f1f55cfb7676fb0b016760f8246d8c5e75c69a55e1114efa872c24409"),
    ("kind = torus\nnx = 24\nny = 40",
     "f19f5bd9cf61179909fd0a8163f36dcb852f3e60d0f6f707ef9aa8c938e02e23"),
], ids=["circle64", "torus24x40"])
def test_initial_fields_pinned(geometry, digest):
    # random initial data, both low-pass draws: the mask of modes below the
    # cutoff and the normalization must keep every bit
    text = (MINIMAL_REDUCED.replace("kind = torus\nnx = 32\nny = 32", geometry)
            .replace("seed = 7\namplitude = 0.01",
                     "seed = 11\namplitude = 0.4\nv_amplitude = 0.2\n"
                     "cutoff = 6"))
    state = h.parse_config(text).build_initial_state()
    sha = hashlib.sha256()
    for field in (state.phi.values, state.v.values):
        sha.update(np.ascontiguousarray(field, "<f8").tobytes())
    assert sha.hexdigest() == digest


def test_snapshot_roundtrip_full(tmp_path):
    disk = rs.DiskGrid(12, 32)
    rng = np.random.default_rng(3)
    st = rs.FullState(0.375,
                      rs.BulkField(disk, rng.standard_normal((12, 32))),
                      rs.SurfaceField(disk.boundary, 0.1 * rng.standard_normal(32)),
                      rs.SurfaceField(disk.boundary, rng.standard_normal(32)))
    path = tmp_path / "full.snap"
    h.write_snapshot(st, path, "deadbeef")
    back, digest = h.read_snapshot(path)
    assert digest == "deadbeef"
    assert back.t == st.t
    assert np.array_equal(back.u.values, st.u.values)
    assert np.array_equal(back.phi.values, st.phi.values)
    assert np.array_equal(back.v.values, st.v.values)


def test_snapshot_roundtrip_reduced(tmp_path):
    grid = rs.SurfaceGrid.torus(16, 32, 1.5, 2.5)
    rng = np.random.default_rng(4)
    phi = rs.SurfaceField(grid, 0.3 * rng.standard_normal(grid.shape))
    v = rs.SurfaceField(grid, rng.standard_normal(grid.shape))
    st = rs.ReducedState.from_mass(1.0 / 3.0, phi, v, total_mass=2.0,
                                   omega_measure=1.25)
    path = tmp_path / "red.snap"
    h.write_snapshot(st, path)
    back, _ = h.read_snapshot(path)
    assert back.t == st.t and back.u == st.u
    assert back.total_mass == st.total_mass
    assert back.omega_measure == st.omega_measure
    assert back.phi.grid == grid
    assert np.array_equal(back.v.values, st.v.values)


def test_snapshot_bytes_pinned(tmp_path):
    # the documented format that --resume of existing snapshots reads; the
    # fields are dyadic, so the bytes do not depend on NumPy's arithmetic
    disk = rs.DiskGrid(4, 8)
    circle = disk.boundary
    full = rs.FullState(
        0.125, rs.BulkField(disk, np.arange(32.0).reshape(4, 8) / 64.0),
        rs.SurfaceField(circle, np.arange(8.0) / 16.0 - 0.25),
        rs.SurfaceField.constant(circle, 0.5))
    torus = rs.SurfaceGrid.torus(8, 8, 1.5, 2.5)
    reduced = rs.ReducedState(
        0.375, 0.75,
        rs.SurfaceField(torus, np.arange(64.0).reshape(8, 8) / 128.0 - 0.25),
        rs.SurfaceField.constant(torus, 0.5), 2.8125, 1.25)
    expected = {
        "full": "10121b75dd396fba980c1bc5494df4052c6f3450cee16b5fdf1536b05b5b315b",
        "reduced": "bd31ffcc4c10c5ff382bdbecff0d4b30b35d4520677d57fbcd6673bcd89c6a4d",
    }
    for name, state in (("full", full), ("reduced", reduced)):
        path = tmp_path / f"{name}.snap"
        h.write_snapshot(state, path, "0123abcd")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == expected[name]


def test_snapshot_hash_guard(tmp_path):
    grid = rs.SurfaceGrid.circle(16)
    st = rs.ReducedState.from_mass(
        0.0, rs.SurfaceField.constant(grid, 0.0),
        rs.SurfaceField.constant(grid, 0.5), total_mass=np.pi)
    path = tmp_path / "s.snap"
    h.write_snapshot(st, path, "aaaa")
    h.read_snapshot(path, expect_param_hash="aaaa")
    with pytest.raises(h.SnapshotMismatchError):
        h.read_snapshot(path, expect_param_hash="bbbb")


def test_snapshot_write_is_atomic(tmp_path):
    grid = rs.SurfaceGrid.circle(16)
    st = rs.ReducedState.from_mass(
        0.0, rs.SurfaceField.constant(grid, 0.1),
        rs.SurfaceField.constant(grid, 0.5), total_mass=np.pi)
    path = tmp_path / "s.snap"
    h.write_snapshot(st, path, "aaaa")
    before = path.read_bytes()
    # phi is written, then v fails to convert: the write stops mid-payload
    st.phi.values = np.full(16, 0.2)
    st.v.values = np.array(["x"] * 16)
    with pytest.raises(ValueError):
        h.write_snapshot(st, path, "aaaa")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["s.snap"]


def test_param_hash_tracks_physics_only():
    base = h.parse_config(MINIMAL_REDUCED)
    same_schedule = h.parse_config(MINIMAL_REDUCED,
                                   overrides=[("schedule.t_final", "0.02")])
    other_physics = h.parse_config(MINIMAL_REDUCED,
                                   overrides=[("params.delta", "2.0")])
    assert h.param_hash(base) == h.param_hash(same_schedule)
    assert h.param_hash(base) != h.param_hash(other_physics)


def test_series_roundtrip(tmp_path):
    cfg = h.parse_config(MINIMAL_REDUCED)
    traj = rs.run(cfg.build_initial_state(), cfg.build_params(), cfg.stepper,
                  cfg.schedule)
    path = tmp_path / "series.csv"
    h.write_series(traj.records, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(rs.COLUMNS)  # fixed, documented column order
    rows = h.read_series(path)
    assert len(rows) == len(traj.records)
    for rec, row in zip(traj.records, rows):
        # 17 significant digits reproduce doubles exactly
        assert row["total_energy"] == rec.total_energy
        assert row["combined_mass"] == rec.combined_mass
        for name in INT_COLUMNS:
            assert type(row[name]) is int and row[name] == getattr(rec, name)
