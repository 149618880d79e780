"""Command-line interface: reproducible runs with config and manifest.

Subcommands
-----------
bands      Band energies along a Brillouin-zone path -> CSV.
design     Optimize a pulse sequence -> sequence YAML + fidelity-trace CSV.
eval       Fidelity report for a sequence file (or shipped reference).
ramsey     Ensemble Ramsey fringe -> fringe CSV + contrast CSV + coherence.
echo       Ensemble echo fringe (n pi pulses) -> same outputs.
coherence  Re-analyze an existing fringe CSV offline.

Every run writes a ``manifest.json`` into the output directory carrying the
config snapshot, input-file hashes, derived constants (recoil frequency, S-D
gap, fringe period), code version, timestamps, and the hash of every output
artifact.  CSV files carry a ``#`` header block with the run id so plots
stay traceable to configs; the run id hashes the command, the config, the
arguments and the contents of the input files read.  Identical config +
seed produce byte-identical CSVs regardless of thread count.

Config and sequence files are YAML, read only through the schema tables
below, whose keys carry their units (``depth_Er``, ``t_on_us``); a key
outside them is refused (exit code 2).  The README shows an example of each.

Exit codes: 0 success, 2 validation error, 3 threshold not met,
4 numerical failure.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

# PyYAML, hashlib and argparse are imported where they are used: importing
# this module for its API, as the library and the benchmark do, loads none.
from . import __version__
from .dynamics import MAX_STEP_US, PulseSequence, PulseStep, band_eig
from .interferometer import (
    MAX_HOLD_TIMES,
    WIDTH_READINGS,
    EnsembleSpec,
    FringeCurve,
    FringeKind,
    IdealPulses,
    SequencePulses,
    coherence_time,
    contrast_curve,
    ensemble_fringe,
)
from .lattice import (
    MAX_DEPTH_ER,
    Geometry,
    LatticeSpec,
    build_basis,
    fringe_period_us,
    recoil_energy,
    reciprocal_primitives,
    require_within,
    sd_gap,
)
from .sequences import REFERENCE_SEQUENCES
from .shortcut import (
    MAX_COUNT,
    ObjectiveKind,
    OptimizerOptions,
    build_objective,
    design_sequence,
    fidelity_report,
)

CONFIG_ENV_VAR = "ARTIFACT_CONFIG"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_THRESHOLD = 3
EXIT_NUMERICAL = 4


def _real(value) -> float:
    """A number or numeric string; refuses booleans instead of reading them
    as 0 or 1."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    """An integral number or integer string; refuses booleans and fractions
    instead of truncating them."""
    if isinstance(value, bool) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _choice(*names: str):
    """A converter that accepts one of ``names`` only."""

    def convert(value):
        if value not in names:
            raise ValueError(f"expected one of {', '.join(names)}, got {value!r}")
        return value

    return convert


def _schedule(value) -> list:
    """A width schedule as loaded, each point a (t_us, sigma) pair of
    numbers; kept unconverted so that the run id sees the config's values."""
    value = list(value)
    for t, sigma in value:
        _real(t), _real(sigma)  # raises on a point that is not two numbers
    return value


def _read_yaml(path: str, what: str):
    """Load the YAML file at ``path``; ``what`` names it in the messages."""
    if not os.path.isfile(path):  # False, not OSError, for a name too long
        raise ValueError(f"{what} not found: {path}")
    import yaml

    try:
        with open(path) as f:
            return yaml.safe_load(f)
    except yaml.YAMLError as exc:
        raise ValueError(f"{what} {path} is not valid YAML: {exc}") from exc


def _convert(key: str, convert, value, what: str = "config"):
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad {what} value for {key}: {exc}") from exc


#: Config schema: each section's keys, each the :class:`RunConfig` field of the
#: same name, with the converter that RunConfig applies to it.  ``optimizer``
#: is kept as written, and its keys load into :class:`OptimizerOptions` fields.
_SECTION_KEYS = {
    "lattice": dict(geometry=_choice(*(g.value for g in Geometry)), wavelength_nm=_real,
                    depth_Er=_real, atom_mass_kg=_real),
    "basis": dict(shell_radius=_integer),
    "ensemble": dict(distribution=_choice("gaussian", "delta"), delta_q_hk=_real,
                     width_reading=_choice(*WIDTH_READINGS),
                     quadrature=_integer, width_schedule=_schedule),
}
#: The top-level keys of a config file.
_TOP_KEYS = (*_SECTION_KEYS, "optimizer", "rng_seed")
#: The converter of every RunConfig field but ``optimizer``.
_FIELD_CONVERTERS = {
    **{key: convert for table in _SECTION_KEYS.values() for key, convert in table.items()},
    "rng_seed": _integer,
}
_OPTIMIZER_KEYS = {
    "max_iters": ("max_iters", _integer),
    "grid_quantum_us": ("grid_quantum", _real),
    "restarts": ("restarts", _integer),
    "on_max_us": ("on_max", _real),
    "off_max_us": ("off_max", _real),
}


#: Sequence-file schema: the top-level keys in file order, ``steps`` and then
#: the metadata that ``design`` writes, which loading does not read; and each
#: step's key -> (PulseStep field, converter), of which ``depth_Er`` is optional.
_SEQUENCE_KEYS = ("steps", "provenance", "fidelity", "fidelity_pre_rounding")
_STEP_KEYS = {
    "t_on_us": ("t_on", _real),
    "t_off_us": ("t_off", _real),
    "depth_Er": ("depth", _real),
}
_REQUIRED_STEP_KEYS = ("t_on_us", "t_off_us")


def _mapping(data, known, where: str, what: str = "config") -> dict:
    """``data`` as a dict, refusing a non-mapping or any key outside
    ``known``, placed by ``where``."""
    if not isinstance(data, dict):
        raise ValueError(f"a {what} and each of its sections must be mappings")
    unknown = set(data) - set(known)
    if unknown:
        raise ValueError(
            f"unknown {what} key(s) {', '.join(sorted(map(str, unknown)))} "
            f"{where}; expected one of {', '.join(sorted(known))}"
        )
    return dict(data)


def _fields(values, table: dict, where: str, what: str = "config") -> dict:
    """``values`` read through ``table`` (key -> (field, converter)) as
    field -> converted value, refused as :func:`_mapping` refuses.  A bad
    config value is named by its key, which is unique in the schema, and a
    bad sequence value also by ``where``, its step."""
    _mapping(values, table, where, what)
    return {name: _convert(key if what == "config" else f"{key} {where}", convert,
                           values[key], what)
            for key, (name, convert) in table.items() if key in values}


@dataclass
class RunConfig:
    """Validated run configuration with explicit units.  Construction passes
    each field through its schema converter and builds the run's specs and
    basis once, so a bad value exits 2 whatever the subcommand or raises
    ValueError for a library caller; ``load`` only places a file's keys."""

    geometry: str = LatticeSpec.geometry.value
    wavelength_nm: float = LatticeSpec.wavelength * 1e9
    depth_Er: float = LatticeSpec.depth
    atom_mass_kg: float = LatticeSpec.atom_mass
    shell_radius: int = 5
    distribution: str = "gaussian"
    delta_q_hk: float = 0.72
    width_reading: str = "fwhm"
    quadrature: int = EnsembleSpec.quadrature
    width_schedule: list = field(default_factory=list)
    optimizer: dict = field(default_factory=dict)
    rng_seed: int = OptimizerOptions.rng_seed

    #: Built on construction; not fields, so not in the run id.
    lattice = basis = ensemble = options = None

    def __post_init__(self) -> None:
        for key, convert in _FIELD_CONVERTERS.items():
            setattr(self, key, _convert(key, convert, getattr(self, key)))
        self.lattice = LatticeSpec(
            geometry=Geometry(self.geometry),
            wavelength=self.wavelength_nm * 1e-9,
            depth=self.depth_Er,
            atom_mass=self.atom_mass_kg,
        )
        self.basis = build_basis(self.lattice, self.shell_radius)
        schedule = tuple((float(t), float(s)) for t, s in self.width_schedule)
        ens = EnsembleSpec.from_width(self.delta_q_hk, reading=self.width_reading)
        ens = replace(ens, width_schedule=schedule)
        if self.distribution == "delta":  # q = 0 alone: the width keys go unused
            ens = EnsembleSpec()
        self.ensemble = replace(ens, quadrature=self.quadrature)
        fields = _fields(self.optimizer, _OPTIMIZER_KEYS, "in optimizer")
        self.options = OptimizerOptions(rng_seed=self.rng_seed, **fields)

    @classmethod
    def load(cls, path: str | None, overrides: dict | None = None) -> "RunConfig":
        """The config file at ``path`` (defaults when None), with the non-None
        ``overrides`` (field -> value) applied."""
        data = _read_yaml(path, "config file") if path else None
        values = _mapping({} if data is None else data, _TOP_KEYS, "at the top level")
        for section, table in _SECTION_KEYS.items():
            values.update(_mapping(values.pop(section, {}), table, f"in {section}"))
        values.update((k, v) for k, v in (overrides or {}).items() if v is not None)
        return cls(**values)


# --------------------------------------------------------------------------
# Output helpers


class RunWriter:
    """Collects outputs for one run and writes the manifest last.

    Construction hashes the ``inputs`` files (None skipped) into the run id
    and, if ``derive``, records the derived constants of the config's lattice
    and basis.  The output directory is made at the first write, so a run
    refused or failed before it has any output leaves no directory."""

    def __init__(self, command: str, out_dir: Path, config: RunConfig, args: dict,
                 inputs=(), derive: bool = True):
        import hashlib

        self.command = command
        self.out_dir = out_dir
        self.config = config
        self.args = {k: v for k, v in args.items() if v is not None}
        self.inputs = {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in map(Path, filter(None, inputs)) if p.is_file()}
        self.outputs: dict[str, str] = {}
        self.derived: dict[str, float] = {}
        # The contents of the files read enter the run id when there are any.
        snapshot = {"command": command, "config": asdict(config), "args": self.args}
        if self.inputs:
            snapshot["inputs"] = sorted(self.inputs.values())
        canonical = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
        self.run_id = hashlib.sha256(canonical.encode()).hexdigest()[:16]
        self.started = datetime.datetime.now(datetime.timezone.utc).isoformat()
        if derive:
            self.derived.update(
                recoil_frequency_Hz=recoil_energy(config.lattice)[1],
                sd_gap_Er=sd_gap(config.lattice, config.basis),
                fringe_period_us=fringe_period_us(config.lattice, config.basis),
            )

    def _write(self, name: str, text: str) -> Path:
        """Write output ``name`` as ``text``, making the output directory if
        need be, and record the hash of its bytes."""
        import hashlib

        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(
                f"--out {self.out_dir}: cannot create the output directory ({exc.strerror})"
            ) from None
        data = text.encode()
        path = self.out_dir / name
        path.write_bytes(data)
        self.outputs[name] = hashlib.sha256(data).hexdigest()
        return path

    def write_csv(self, name: str, columns: list[str], rows,
                  extra_header: dict | None = None) -> Path:
        lines = [f"# generated-by: artifact {__version__}", f"# command: {self.command}",
                 f"# run_id: {self.run_id}"]
        lines += (f"# {k}: {v}" for k, v in (extra_header or {}).items())
        lines.append(",".join(columns))
        lines += (",".join(_fmt(v) for v in row) for row in rows)
        return self._write(name, "\n".join(lines) + "\n")

    def write_yaml(self, name: str, data: dict) -> Path:
        import yaml

        return self._write(name, yaml.safe_dump(data, sort_keys=False))

    def write_json(self, name: str, data: dict) -> Path:
        return self._write(name, _json_text(data))

    def finish(self) -> Path:
        """Write ``manifest.json``, listing the outputs written before it."""
        manifest = _json_text({
            "run_id": self.run_id,
            "command": self.command,
            "code_version": __version__,
            "started_utc": self.started,
            "finished_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "config": asdict(self.config),
            "args": self.args,
            "input_hashes": self.inputs,
            "derived_constants": self.derived,
            "outputs": self.outputs,
        })
        return self._write("manifest.json", manifest)


def _json_text(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        # shortest string that round-trips to the same float64
        return repr(float(v))
    return str(v)


# --------------------------------------------------------------------------
# Sequence files


def load_sequence(token: str) -> PulseSequence:
    """Load a sequence from a YAML file or a ``reference:<name>`` token."""
    if token.startswith("reference:"):
        choose = _choice(*REFERENCE_SEQUENCES)
        name = _convert("reference:<name>", choose, token.split(":", 1)[1], "sequence")
        return REFERENCE_SEQUENCES[name]
    data = _read_yaml(token, "sequence file")
    try:
        return _parse_sequence(data)
    except ValueError as exc:
        raise ValueError(f"malformed sequence file {token}: {exc}") from exc


def _parse_sequence(data) -> PulseSequence:
    """A sequence from a loaded sequence file, through the schema tables."""
    if not isinstance(data, dict) or not isinstance(data.get("steps"), list):
        raise ValueError("expected a mapping with a list of steps")
    _mapping(data, _SEQUENCE_KEYS, "at the top level", "sequence")
    steps = []
    for i, step in enumerate(data["steps"], 1):
        if not isinstance(step, dict):
            raise ValueError(f"step {i} is not a mapping")
        fields = _fields(step, _STEP_KEYS, f"in step {i}", "sequence")
        missing = [key for key in _REQUIRED_STEP_KEYS if key not in step]
        if missing:
            raise ValueError(f"missing sequence key {missing[0]} in step {i}")
        try:
            steps.append(PulseStep(**fields))
        except ValueError as exc:
            raise ValueError(f"bad sequence value in step {i}: {exc}") from exc
    return PulseSequence(tuple(steps))


def _sequence_file(seq: PulseSequence, *meta) -> dict:
    """A sequence file's mapping in schema order: ``seq``'s steps (a depth
    only where a step has one), then the metadata values ``meta``."""
    steps = [
        {key: getattr(step, name) for key, (name, _) in _STEP_KEYS.items()
         if getattr(step, name) is not None}
        for step in seq.steps
    ]
    return dict(zip(_SEQUENCE_KEYS, (steps, *meta)))


# --------------------------------------------------------------------------
# Subcommands


def _waypoint(token: str, basis) -> np.ndarray:
    """The quasi-momentum that ``token`` names, refused beyond the basis's
    largest |G|, where the lowest eigenvalues are no longer Bloch bands."""
    prims = reciprocal_primitives(basis.geometry)
    named = {
        "G": np.zeros(2),
        "M": prims[0] / 2.0,
        "K": (2.0 * prims[0] + prims[1]) / 3.0,
    }
    t = token.strip()
    if t.upper() in named:
        return named[t.upper()]
    parts = t.split(":")
    if len(parts) != 2:
        raise ValueError(
            f"waypoint {token!r} is neither G/M/K nor 'qx:qy' coordinates"
        )
    try:
        q = np.array([float(parts[0]), float(parts[1])])
    except ValueError as exc:
        raise ValueError(f"bad waypoint coordinates {token!r}") from exc
    basis.check_reach(math.hypot(*q), f"waypoint {token!r}")  # hypot: no overflow
    return q


def cmd_bands(cfg: RunConfig, args, out_dir: Path) -> int:
    spec, basis = cfg.lattice, cfg.basis
    waypoints = [_waypoint(t, basis) for t in args.path.split(",")]
    if len(waypoints) < 2:
        raise ValueError("path needs at least two waypoints")
    writer = RunWriter(
        "bands", out_dir, cfg, {"path": args.path, "samples": args.samples}, [args.config]
    )
    points = []  # (path coordinate, q)
    coord = 0.0
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        length = float(np.linalg.norm(b - a))
        for f in np.linspace(0.0, 1.0, args.samples, endpoint=False):
            points.append((coord + f * length, a + f * (b - a)))
        coord += length
    points.append((coord, waypoints[-1]))
    n_bands = min(6, basis.size)
    rows = []
    for x, q in points:
        energies, _ = band_eig(q, spec, basis)
        rows.append([x, q[0], q[1], *energies[:n_bands].tolist()])
    cols = ["path_coord", "q_x", "q_y"] + [f"E{i+1}_Er" for i in range(n_bands)]
    writer.write_csv("bands.csv", cols, rows)
    writer.finish()
    print(f"wrote {out_dir / 'bands.csv'} ({len(rows)} rows)")
    return EXIT_OK


def cmd_design(cfg: RunConfig, args, out_dir: Path) -> int:
    spec = cfg.lattice
    kind = ObjectiveKind(args.kind)
    default_threshold = 0.93 if kind is ObjectiveKind.PI else 0.98
    threshold = args.threshold if args.threshold is not None else default_threshold
    if not math.isfinite(threshold):
        raise ValueError(f"--threshold must be finite, got {threshold}")
    box = (args.depth_min, args.depth_max) if args.variable_amplitude else None
    if box and not 0 <= box[0] <= spec.depth <= box[1] <= MAX_DEPTH_ER:
        raise ValueError(
            f"--depth-min and --depth-max must be finite, with 0 <= --depth-min <= depth_Er "
            f"{spec.depth:g} <= --depth-max <= {MAX_DEPTH_ER:g}, got {box[0]:g} and {box[1]:g}"
        )
    run_args = {
        "kind": args.kind,
        "steps": args.steps,
        "variable_amplitude": args.variable_amplitude,
        "depth_min": box[0] if box else None,
        "depth_max": box[1] if box else None,
        "threshold": threshold,
    }
    writer = RunWriter("design", out_dir, cfg, run_args, [args.config])
    result = design_sequence(kind, args.steps, spec, cfg.basis, cfg.options, box)
    provenance = (
        f"designed by artifact {__version__}, kind={args.kind}, "
        f"seed={cfg.rng_seed}, restarts={cfg.options.restarts}"
    )
    writer.write_yaml("sequence.yaml", _sequence_file(
        result.sequence, provenance, result.fidelity, result.fidelity_pre_rounding
    ))
    writer.write_csv(
        "trace.csv",
        ["iteration", "fidelity"],
        [[i, f] for i, f in enumerate(result.trace)],
        {"restart": result.restart},
    )
    writer.finish()
    print(
        f"designed {args.kind} sequence: fidelity {result.fidelity:.4f} "
        f"(pre-rounding {result.fidelity_pre_rounding:.4f}), "
        f"restart {result.restart}, wrote {out_dir / 'sequence.yaml'}"
    )
    if result.fidelity < threshold:
        print(f"fidelity below threshold {threshold}", file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


def cmd_eval(cfg: RunConfig, args, out_dir: Path) -> int:
    seq = load_sequence(args.sequence)
    writer = RunWriter(
        "eval", out_dir, cfg, {"sequence": args.sequence, "kind": args.kind},
        [args.config, *_sequence_files(args.sequence)],
    )
    obj = build_objective(ObjectiveKind(args.kind), cfg.lattice, cfg.basis)
    report = fidelity_report(seq, obj)
    writer.write_json("report.json", report)
    writer.finish()
    print(f"kind: {report['kind']}")
    print(f"fidelity: {report['fidelity']:.4f}")
    for i, o in enumerate(report["pair_overlaps"]):
        print(
            f"pair {i + 1}: |overlap| = {o['magnitude']:.4f}, "
            f"phase = {o['phase_rad']:+.4f} rad"
        )
    leakage = zip(report["leakage_mid_bands"], report["leakage_above_d"])
    for i, (mid, above) in enumerate(leakage, 1):
        print(f"state {i} leakage: mid-bands {mid:.4f}, above-D {above:.4f}")
    return EXIT_OK


def _fringe_times(args, window: float) -> np.ndarray:
    """The hold times, refused unless the fringe analysis can use them: a
    flat fringe on them is analysed as the computed one will be, so a grid
    that undersamples the window or spans fewer than three windows exits
    before the ensemble."""
    if args.t_max / args.dt > MAX_HOLD_TIMES:
        raise ValueError(f"--t-max / --dt must give at most {MAX_HOLD_TIMES} "
                         f"hold times, got {args.t_max:g} / {args.dt:g}")
    times = np.arange(0.0, args.t_max, args.dt)
    coherence_time(contrast_curve(FringeCurve(times, np.full(len(times), 0.5)), window))
    return times


def _finish_coherence(
    writer: RunWriter, contrast, coh, window: float, summary: str
) -> None:
    """Write contrast.csv, coherence.json and the manifest; print a summary
    line that starts with ``summary``."""
    writer.write_csv(
        "contrast.csv",
        ["t_us", "contrast"],
        list(zip(contrast.times, contrast.contrast)),
        {"window_us": _fmt(window)},
    )
    writer.write_json(
        "coherence.json",
        {
            "crossing_1e_us": coh.crossing_us,
            "fit_tau_us": None if math.isinf(coh.fit_tau_us) else coh.fit_tau_us,
            "fit_amplitude": coh.fit_amplitude,
        },
    )
    writer.finish()
    cross = "not crossed" if coh.crossing_us is None else f"{coh.crossing_us:.1f} us"
    tau = "inf" if math.isinf(coh.fit_tau_us) else f"{coh.fit_tau_us:.1f} us"
    print(f"{summary}1/e crossing = {cross}, fit tau = {tau}")


def _sequence_files(*tokens) -> list:
    """The file paths among ``--pi2``/``--pi``/``--sequence`` tokens."""
    return [t for t in tokens if t and t != "ideal" and not t.startswith("reference:")]


def _pulse_model(args, need_pi: bool):
    if args.pi2 == "ideal":
        if getattr(args, "pi", None) not in (None, "ideal"):
            raise ValueError("--pi2 ideal runs ideal pi pulses; drop --pi")
        return IdealPulses()
    pi_seq = None
    if need_pi:
        if args.pi is None or args.pi == "ideal":
            raise ValueError(
                "echo with sequence pulses needs --pi (mixing ideal and "
                "sequence pulses is not supported)"
            )
        pi_seq = load_sequence(args.pi)
    return SequencePulses(
        pi2=load_sequence(args.pi2), pi=pi_seq, phase_locked=not args.no_phase_lock
    )


def _run_fringe(cfg: RunConfig, args, out_dir: Path) -> int:
    kind = FringeKind(args.command)
    spec, basis = cfg.lattice, cfg.basis
    period = fringe_period_us(spec, basis)
    window = period if args.contrast_window is None else args.contrast_window
    times = _fringe_times(args, window)
    model = _pulse_model(args, kind is FringeKind.ECHO)
    ens = EnsembleSpec(sigma_q=0.0) if args.single_q else cfg.ensemble
    sequence_pulses = isinstance(model, SequencePulses)
    # Every flag that changes the outputs enters the run id; a flag the
    # pulse model ignores stays out (None values are dropped).
    run_args = {
        "pi2": args.pi2,
        "pi": getattr(args, "pi", None) if sequence_pulses else None,
        "t_max": args.t_max,
        "dt": args.dt,
        "n_echo": getattr(args, "n_echo", None),
        "period": period,
        "contrast_window": args.contrast_window,
        "single_q": args.single_q,
        "no_phase_lock": (args.no_phase_lock and sequence_pulses) or None,
    }
    inputs = [args.config, *_sequence_files(args.pi2, run_args["pi"])]
    writer = RunWriter(kind.value, out_dir, cfg, run_args, inputs)
    fringe = ensemble_fringe(kind, model, times, ens, spec, basis,
                             n_echo=getattr(args, "n_echo", 2), threads=args.threads)
    contrast = contrast_curve(fringe, window)
    coh = coherence_time(contrast)
    writer.write_csv(
        "fringe.csv",
        ["t_us", "p_d"],
        list(zip(fringe.times, fringe.p_d)),
        {"fringe_kind": kind.value},
    )
    _finish_coherence(
        writer, contrast, coh, window,
        f"{kind.value}: contrast[0] = {contrast.contrast[0]:.3f}, ",
    )
    return EXIT_OK


def cmd_coherence(cfg: RunConfig, args, out_dir: Path) -> int:
    if not os.path.isfile(args.fringe):
        raise ValueError(f"fringe CSV not found: {args.fringe}")
    times, p_d = [], []
    with open(args.fringe) as f:
        rows = ((n, line.strip()) for n, line in enumerate(f, 1))
        rows = ((n, line) for n, line in rows if line and not line.startswith("#"))
        n, line = next(rows, (1, ""))  # the column line comes first
        if line != "t_us,p_d":
            raise ValueError(f"fringe CSV {args.fringe} line {n}: expected the column "
                             f"line t_us,p_d, got {line!r}")
        for n, line in rows:
            try:
                t, v = map(float, line.split(","))
            except ValueError as exc:
                raise ValueError(f"fringe CSV {args.fringe} line {n}: {exc}") from None
            times.append(t)
            p_d.append(v)
    if len(times) < 3:
        raise ValueError("fringe CSV holds fewer than 3 samples")
    fringe = FringeCurve(times=np.array(times), p_d=np.array(p_d))
    contrast = contrast_curve(fringe, args.period)
    coh = coherence_time(contrast)
    writer = RunWriter(
        "coherence", out_dir, cfg, {"fringe": args.fringe, "period": args.period},
        [args.fringe, args.config], derive=False,
    )
    _finish_coherence(writer, contrast, coh, args.period, "coherence: ")
    return EXIT_OK


# --------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="artifact",
        description="Bloch-band interferometry in a triangular optical lattice.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config",
        default=os.environ.get(CONFIG_ENV_VAR),
        help=f"YAML config path (default: ${CONFIG_ENV_VAR})",
    )
    common.add_argument("--out", default="runs/out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    kinds = [kind.value for kind in ObjectiveKind]

    p = sub.add_parser("bands", help="band energies along a BZ path", parents=[common])
    p.set_defaults(run=cmd_bands)
    p.add_argument("--path", default="G,M,K,G", help="comma list of G/M/K or qx:qy")
    p.add_argument("--samples", type=int, default=40, help="samples per segment")

    p = sub.add_parser("design", help="optimize a pulse sequence", parents=[common])
    p.set_defaults(run=cmd_design)
    p.add_argument("--kind", choices=kinds, required=True)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--variable-amplitude", action="store_true")
    p.add_argument("--depth-min", type=float, default=3.0)
    p.add_argument("--depth-max", type=float, default=6.0)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--seed", type=int, default=None, help="RNG seed override")

    p = sub.add_parser("eval", help="fidelity report for a sequence", parents=[common])
    p.set_defaults(run=cmd_eval)
    p.add_argument("--sequence", required=True, help="YAML path or reference:<name>")
    p.add_argument("--kind", choices=kinds, required=True)

    for kind in FringeKind:
        p = sub.add_parser(kind.value, help=f"ensemble {kind.value} fringe", parents=[common])
        p.set_defaults(run=_run_fringe)
        p.add_argument("--pi2", default="ideal", help="sequence file, reference:<name>, or 'ideal'")
        if kind is FringeKind.ECHO:
            p.add_argument("--pi", default=None, help="pi sequence file or reference:<name>")
            p.add_argument("--n-echo", type=int, default=2)
        p.add_argument("--t-max", type=float, required=True, help="max hold time (us)")
        p.add_argument("--dt", type=float, required=True, help="hold-time step (us)")
        p.add_argument("--single-q", action="store_true", help="no ensemble, q = 0 only")
        p.add_argument("--contrast-window", type=float, default=None,
                       help="contrast window (us, default = the fringe period)")
        p.add_argument("--no-phase-lock", action="store_true")
        p.add_argument("--threads", type=int, default=1, help="quadrature threads")

    p = sub.add_parser("coherence", help="re-analyze a fringe CSV", parents=[common])
    p.set_defaults(run=cmd_coherence)
    p.add_argument("--fringe", required=True, help="fringe CSV path")
    p.add_argument("--period", type=float, required=True, help="window period (us)")

    return parser


def _attach_dash_values(argv: list[str]) -> list[str]:
    """``argv`` with ``--flag -v`` written ``--flag=-v``.  After a flag,
    argparse reads -1 as its value but -inf, -nan or -1e3 as an unknown
    option.  Every option here but -h has two dashes, so a token with one
    dash after a flag other than --help is that flag's value, which argparse
    then checks: a switch refuses it as an explicit argument."""
    out = list(argv[:1])
    for flag, token in zip(argv, argv[1:]):
        if (token[:1] == "-" and token[1:2] != "-" and token != "-h" and flag[:2] == "--"
                and flag not in ("--", "--help") and "=" not in flag):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


#: The bounded numeric flags, by argparse dest, each with the upper end of its
#: range (0, most]: :data:`MAX_COUNT` for a count, None for no upper end.
_FLAG_BOUNDS = {"samples": MAX_COUNT, "steps": MAX_COUNT, "dt": None, "t_max": MAX_STEP_US,
                "contrast_window": None, "threads": None, "n_echo": MAX_COUNT}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        cfg = RunConfig.load(args.config, overrides={"rng_seed": getattr(args, "seed", None)})
        for dest, most in _FLAG_BOUNDS.items():
            value = getattr(args, dest, None)
            if value is not None:
                require_within("--" + dest.replace("_", "-"), value, 0, most, above=True)
        return args.run(cfg, args, Path(args.out))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
