"""Run configuration: a small INI-style format with full validation.

The format is line oriented: ``[section]`` headers and ``key = value``
assignments, ``#`` comments.  Parsing collects *all* problems (unknown keys,
type mismatches, violated invariants) with their line numbers before raising,
and ``serialize_config(parse_config(text))`` reparses to an equal config.

One table, ``_SCHEMA``, names every section and key with its type; parsing,
the single-key checks, the kind tables and serialization all walk it.  A
key left out takes the default of the dataclass its section builds.

Sections and keys are documented in the project README; every simulation and
experiment is fully determined by one such document (seeds are mandatory for
random initial data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import reduce

import numpy as np

from ..bulk import BulkField, DiskGrid
from ..model import (
    CutoffReactionExchange,
    EquilibriumExchange,
    FullState,
    Params,
    ReactionExchange,
    ReducedState,
)
from ..potentials import DoubleWell, LOGARITHMIC, POLYNOMIAL, REGULARIZED
from ..stepper import Schedule, StepperConfig, whole_steps
from ..surface import SurfaceField, SurfaceGrid


class ConfigError(ValueError):
    """Carries every violation found in a config document."""

    def __init__(self, errors):
        self.errors = list(errors)
        lines = []
        for line, msg in self.errors:
            where = f"line {line}: " if line is not None else ""
            lines.append(f"{where}{msg}")
        super().__init__("invalid configuration:\n  " + "\n  ".join(lines))


@dataclass(frozen=True)
class GeometryConfig:
    kind: str                      # circle | torus | disk
    n: int | None = None           # circle nodes
    nx: int | None = None
    ny: int | None = None
    lx: float = 2.0 * math.pi
    ly: float = 2.0 * math.pi
    nr: int | None = None          # disk radial cells
    ntheta: int | None = None      # disk angular nodes / boundary circle


@dataclass(frozen=True)
class InitialConfig:
    kind: str                      # constant | random | file
    phi_mean: float = 0.0
    amplitude: float = 0.1
    v_amplitude: float = 0.0
    cutoff: int = 8                # highest excited integer mode
    seed: int | None = None
    v0: float = 0.5
    u0: float = 0.0
    path: str | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str | None = None
    d_list: tuple = ()
    kappa_list: tuple = ()
    scales: tuple = ()
    t_star: float | None = None


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    system: str                    # full | reduced
    geometry: GeometryConfig
    potential: DoubleWell
    exchange: object
    D: float = 1.0
    delta: float = 1.0
    omega_measure: float = math.pi
    stepper: StepperConfig
    initial: InitialConfig
    schedule: Schedule
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    output_dir: str | None = None

    # -- builders ----------------------------------------------------------

    def build_params(self) -> Params:
        return Params(D=self.D, delta=self.delta, potential=self.potential,
                      exchange=self.exchange)

    def build_surface_grid(self) -> SurfaceGrid:
        g = self.geometry
        if g.kind == "circle":
            return SurfaceGrid.circle(g.n)
        if g.kind == "torus":
            return SurfaceGrid.torus(g.nx, g.ny, g.lx, g.ly)
        return SurfaceGrid.circle(g.ntheta)

    def build_disk_grid(self) -> DiskGrid | None:
        if self.geometry.kind != "disk":
            return None
        return DiskGrid(self.geometry.nr, self.geometry.ntheta)

    def build_initial_state(self):
        if self.initial.kind == "file":
            from .io import read_snapshot
            state, _ = read_snapshot(self.initial.path)
            held = (("full", state.u.grid) if isinstance(state, FullState)
                    else ("reduced", state.phi.grid))
            wanted = (self.system, self.build_disk_grid()
                      or self.build_surface_grid())
            if held != wanted:
                raise ConfigError([(None, "initial.path holds a {} state on "
                                    "{!r}; [run] and [geometry] ask for a {} "
                                    "state on {!r}".format(*held, *wanted))])
            if (self.system == "reduced"
                    and state.omega_measure != self.omega_measure):
                raise ConfigError([(None, "initial.path holds a reduced state "
                                    f"with omega_measure = {state.omega_measure!r}"
                                    "; [params] asks for omega_measure = "
                                    f"{self.omega_measure!r}")])
            return state
        grid = self.build_surface_grid()
        phi_vals, v_vals = _initial_fields(grid, self.initial)
        phi = SurfaceField(grid, phi_vals)
        v = SurfaceField(grid, v_vals)
        if self.system == "full":
            disk = self.build_disk_grid()
            u = BulkField.constant(disk, self.initial.u0)
            return FullState(0.0, u, phi, v)
        total = self.omega_measure * self.initial.u0 + grid.integral(v_vals)
        return ReducedState(0.0, self.initial.u0, phi, v, total,
                            self.omega_measure)


def lowpass_mask(grid, cutoff):
    """The modes, in rfft layout, whose mode numbers are all at most `cutoff`
    in size, the zero mode excepted."""
    order = reduce(np.maximum, np.ix_(*(abs(m) for m in grid.axis_modes)))
    return (order >= 1) & (order <= cutoff)


def _lowpass_noise(grid, rng, cutoff):
    """Mean-free random field with integer modes up to `cutoff`, sup-norm 1."""
    noise = rng.standard_normal(grid.shape)
    out = grid.ifft(grid.fft(noise) * lowpass_mask(grid, cutoff))
    peak = np.max(np.abs(out))
    if peak > 0.0:
        out /= peak
    out -= grid.mean(out)
    return out


def _initial_fields(grid, init: InitialConfig):
    if init.kind == "constant":
        phi = np.full(grid.shape, init.phi_mean)
        v = np.full(grid.shape, init.v0)
        return phi, v
    rng = np.random.default_rng(init.seed)
    phi = init.phi_mean + init.amplitude * _lowpass_noise(grid, rng, init.cutoff)
    v = np.full(grid.shape, init.v0)
    if init.v_amplitude > 0.0:
        v = v + init.v_amplitude * _lowpass_noise(grid, rng, init.cutoff)
    return phi, v


# -- schema ---------------------------------------------------------------------

_SCHEMA = {
    "run": {"system": str},
    "geometry": {"kind": str, "n": int, "nx": int, "ny": int,
                 "lx": float, "ly": float, "nr": int, "ntheta": int},
    "potential": {"kind": str, "theta": float, "theta0": float,
                  "r0": float, "kappa": float},
    "exchange": {"kind": str, "a0": float, "alpha": float,
                 "b1": float, "b2": float, "h0": float},
    "params": {"diffusion": float, "delta": float, "omega_measure": float},
    "stepper": {"dt": float, "newton_tol": float, "newton_max_iters": int,
                "dt_min": float, "kappa_fallback": float},
    "initial": {"kind": str, "phi_mean": float, "amplitude": float,
                "v_amplitude": float, "cutoff": int, "seed": int,
                "v0": float, "u0": float, "path": str},
    "schedule": {"t_final": float, "sample_stride": int,
                 "checkpoint_stride": int},
    "experiment": {"kind": str, "d_list": "floats", "kappa_list": "floats",
                   "scales": "floats", "t_star": float},
    "output": {"directory": str},
}

# Keys without which a section builds nothing.
_REQUIRED = (("run", "system"), ("geometry", "kind"), ("exchange", "kind"),
             ("stepper", "dt"), ("initial", "kind"), ("schedule", "t_final"))

_LAWS = {"equilibrium": EquilibriumExchange, "reaction": ReactionExchange,
         "cutoff_reaction": CutoffReactionExchange}
_LAW_KINDS = {law: kind for kind, law in _LAWS.items()}

# The object each section builds, whose dataclass defaults are the config
# defaults, and the prefix of its constructor's errors.  [run], [params] and
# [output] set RunConfig fields, renamed where the key differs.
_BUILDERS = {
    "geometry": (GeometryConfig, "invalid geometry"),
    "potential": (DoubleWell, "invalid potential"),
    "exchange": (lambda kind, **rates: _LAWS[kind](**rates),
                 "invalid exchange law"),
    "stepper": (StepperConfig, "invalid stepper config"),
    "initial": (InitialConfig, "invalid initial data"),
    "schedule": (Schedule, "invalid schedule"),
    "experiment": (ExperimentConfig, "invalid experiment"),
}
_RUN_FIELDS = {"diffusion": "D", "directory": "output_dir"}

# Per kind: the keys it needs, and the keys besides `kind` that its object is
# built from and serialized with (None: every key of the section).
_WELL = ("theta", "theta0", "r0")
_KINDS = {
    "geometry": ("geometry", {
        "circle": (("n",), ("n",)),
        "torus": (("nx", "ny"), ("nx", "ny", "lx", "ly")),
        "disk": (("nr", "ntheta"), ("nr", "ntheta")),
    }),
    "potential": ("potential", {
        None: ((), _WELL),                  # kind omitted: DoubleWell's default
        LOGARITHMIC: ((), _WELL),
        POLYNOMIAL: ((), _WELL),
        REGULARIZED: (("kappa",), _WELL + ("kappa",)),
    }),
    "exchange": ("exchange", {kind: ((), tuple(f.name for f in fields(law)))
                              for kind, law in _LAWS.items()}),
    "initial": ("initial data", {
        "constant": ((), None), "random": ((), None), "file": (("path",), None),
    }),
}


def _one_of(choices):
    return lambda value: value in choices


def _positive(value):
    return value > 0.0


# Single-key checks, each reported at its key's line; `{!r}` is the value.
_CHECKS = (
    ("run", "system", _one_of(("full", "reduced")),
     "run.system must be full or reduced, got {!r}"),
    ("geometry", "kind", _one_of(_KINDS["geometry"][1]),
     "geometry.kind must be circle, torus or disk, got {!r}"),
    *(("geometry", key, lambda n: n >= 8 and n % 2 == 0,
       f"geometry.{key} must be even and >= 8")
      for key in ("n", "nx", "ny", "ntheta")),
    ("geometry", "nr", lambda nr: nr >= 4, "geometry.nr must be >= 4"),
    ("geometry", "lx", _positive, "geometry.lx must be positive"),
    ("geometry", "ly", _positive, "geometry.ly must be positive"),
    ("potential", "kind", _one_of(_KINDS["potential"][1]),
     "unknown potential kind {!r}"),
    ("exchange", "kind", _one_of(_LAWS), "exchange.kind must be equilibrium, "
     "reaction or cutoff_reaction, got {!r}"),
    ("params", "diffusion", _positive,
     "diffusion coefficient must be positive"),
    ("params", "delta", _positive, "delta must be positive (affinity strength)"),
    ("params", "omega_measure", _positive, "omega_measure must be positive"),
    ("initial", "kind", _one_of(_KINDS["initial"][1]),
     "initial.kind must be constant, random or file"),
    ("initial", "cutoff", lambda cutoff: cutoff >= 1,
     "initial.cutoff must be >= 1"),
    ("initial", "seed", lambda seed: seed >= 0, "initial.seed must be >= 0"),
    ("experiment", "kind",
     _one_of(("large_d", "kappa", "equilibrium_convergence", "absorbing")),
     "unknown experiment kind {!r}"),
)


def _carried(section, kind):
    """Keys that a section's object is built from and serialized with."""
    carried = _KINDS[section][1][kind][1] if section in _KINDS else None
    return _SCHEMA[section] if carried is None else ("kind",) + carried


def _tokenize(text, errors):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SCHEMA:
                errors.append((lineno, f"unknown section [{name}]"))
                current = None
                continue
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            errors.append((lineno, f"expected 'key = value', got {line!r}"))
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if current is None:
            errors.append((lineno, f"key {key!r} outside any section"))
            continue
        current[key] = (value, lineno)
    return sections


def _convert(raw, typ):
    if typ is str:
        return raw
    if typ is int:
        return int(raw)
    if typ == "floats":
        return tuple(_convert(part, float) for part in raw.split(",")
                     if part.strip())
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _build(section, given, errors):
    """The object a section builds from its converted values; None when a
    required key, the kind or the constructor fails."""
    if any(key not in given for name, key in _REQUIRED if name == section):
        return None
    builder, prefix = _BUILDERS[section]
    if section in _KINDS:
        noun, kinds = _KINDS[section]
        kind = given.get("kind")
        if kind not in kinds:
            return None
        needs = kinds[kind][0]
        if any(key not in given for key in needs):
            errors.append((None, f"{kind} {noun} needs " + " and ".join(
                f"{section}.{key}" for key in needs)))
            return None
        carried = _carried(section, kind)
        given = {key: value for key, value in given.items() if key in carried}
    try:
        return builder(**given)
    except ValueError as exc:
        errors.append((None, f"{prefix}: {exc}"))
        return None


def parse_config(text: str, overrides=()) -> RunConfig:
    """Parse and validate a config document; raise ConfigError with every
    violation found.  `overrides` are (dotted.key, value) pairs applied on
    top of the document, e.g. ("stepper.dt", "1e-3")."""
    errors = []
    sections = _tokenize(text, errors)
    for dotted, value in overrides:
        if "." not in dotted:
            errors.append((None, f"override {dotted!r} is not section.key"))
            continue
        section, key = dotted.split(".", 1)
        section, key = section.lower(), key.lower()
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            errors.append((None, f"override targets unknown key {dotted!r}"))
            continue
        sections.setdefault(section, {})[key] = (str(value), None)

    def line_of(section, key):
        return sections.get(section, {}).get(key, (None, None))[1]

    values = {section: {} for section in _SCHEMA}
    for section, entries in sections.items():
        for key, (raw, line) in entries.items():
            if key not in _SCHEMA[section]:
                errors.append((line, f"unknown key {key!r} in [{section}]"))
                continue
            try:
                values[section][key] = _convert(raw, _SCHEMA[section][key])
            except ValueError:
                errors.append((line, f"bad value for {section}.{key}: {raw!r}"))
    for section, key in _REQUIRED:
        if key not in sections.get(section, {}):
            errors.append((None, f"missing required key {key!r} in [{section}]"))
    for section, key, test, message in _CHECKS:
        value = values[section].get(key)
        if value is not None and not test(value):
            errors.append((line_of(section, key), message.format(value)))
    built = {section: _build(section, values[section], errors)
             for section in _BUILDERS}

    # rules across keys
    system = values["run"].get("system")
    geometry = values["geometry"].get("kind")
    if system == "full" and geometry in ("circle", "torus"):
        errors.append((line_of("geometry", "kind"), "the full system needs "
                       "disk geometry (bulk + boundary circle)"))
    if system == "reduced" and geometry == "disk":
        errors.append((line_of("geometry", "kind"),
                       "the reduced system lives on a circle or torus"))
    if system == "full" and values["params"].get("omega_measure",
                                                 math.pi) != math.pi:
        # only the reduced system reads omega_measure
        errors.append((line_of("params", "omega_measure"),
                       "the full system's bulk is the unit disk: "
                       "params.omega_measure must be pi or left out"))
    init = built["initial"]
    if init is not None and init.kind == "random":
        if init.seed is None:
            errors.append((None, "random initial data needs initial.seed "
                                 "(reproducibility)"))
        if abs(init.phi_mean) + init.amplitude >= 1.0:
            errors.append((None, "initial |phi_mean| + amplitude must be < 1"))
    if init is not None and init.kind == "constant" and abs(init.phi_mean) > 1:
        errors.append((None, "initial phi_mean must lie in [-1, 1]"))
    stepper, schedule = built["stepper"], built["schedule"]
    well = built["potential"]
    if (stepper is not None and well is not None and well.kind == LOGARITHMIC
            and not 0.0 < stepper.kappa_fallback < well.r0):
        # the fallback builds well.regularized(kappa_fallback) mid-run
        errors.append((line_of("stepper", "kappa_fallback"),
                       f"stepper.kappa_fallback must lie in (0, potential.r0 "
                       f"= {well.r0!r}), got {stepper.kappa_fallback!r}"))
    if (stepper is not None and schedule is not None
            and whole_steps(schedule.t_final, stepper.dt) is None):
        errors.append((line_of("schedule", "t_final"),
                       "t_final must be an integer multiple of stepper.dt"))

    if errors:
        raise ConfigError(errors)
    run_fields = {_RUN_FIELDS.get(key, key): value
                  for section in ("run", "params", "output")
                  for key, value in values[section].items()}
    return RunConfig(**built, **run_fields)


# -- serialization ----------------------------------------------------------------

def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) == c.

    Walks the schema in order and writes each section's kind keys, skipping
    unset (None) and empty values and sections left empty."""
    out = []
    for section, keys in _SCHEMA.items():
        obj = getattr(cfg, section) if section in _BUILDERS else cfg
        found = {key: getattr(obj, _RUN_FIELDS.get(key, key), None)
                 for key in keys}
        if section == "exchange":
            found["kind"] = _LAW_KINDS[type(obj)]
        carried = _carried(section, found.get("kind"))
        pairs = [(key, value) for key, value in found.items()
                 if key in carried and value is not None and value != ()]
        if pairs:
            out.append(f"[{section}]")
            out.extend(f"{key} = {_fmt(value)}" for key, value in pairs)
            out.append("")
    return "\n".join(out)
