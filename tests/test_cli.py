import ast
import contextlib
import hashlib
import io
import importlib
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from artifact import shortcut
from artifact.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_THRESHOLD,
    EXIT_VALIDATION,
    MAX_HOLD_TIMES,
    RunConfig,
    _parse_sequence,
    _run_fringe,
    _sequence_file,
    build_parser,
    load_sequence,
    main,
)
from artifact.dynamics import MAX_STEP_US, PulseSequence
from artifact.interferometer import MAX_QUADRATURE, EnsembleSpec, FringeKind
from artifact.lattice import MAX_DEPTH_ER, MAX_SHELL_RADIUS, LatticeSpec, build_basis
from artifact.sequences import REFERENCE_SEQUENCES
from artifact.shortcut import MAX_COUNT, ObjectiveKind, OptimizerOptions


def read_csv(path):
    header = {}
    rows = []
    columns = None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition(":")
                header[key.strip()] = value.strip()
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return header, columns, np.array(rows)


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig.load(None)
        assert cfg.geometry == "triangular"
        assert cfg.depth_Er == 5.0
        assert cfg.shell_radius == 5

    def test_defaults_and_choices_are_the_librarys(self):
        cfg = RunConfig()
        assert cfg.lattice == LatticeSpec()
        assert cfg.basis == build_basis(LatticeSpec())
        assert cfg.ensemble == EnsembleSpec.from_width(0.72)
        assert cfg.options == OptimizerOptions()
        commands = build_parser()._subparsers._group_actions[0].choices
        kinds = [kind.value for kind in ObjectiveKind]
        for name in ("design", "eval"):
            (kind,) = (a for a in commands[name]._actions if a.dest == "kind")
            assert list(kind.choices) == kinds
        fringes = [name for name, p in commands.items() if p.get_default("run") is _run_fringe]
        assert fringes == [kind.value for kind in FringeKind]

    def test_file_and_overrides(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text(
            "lattice:\n  depth_Er: 4.0\nbasis:\n  shell_radius: 3\nrng_seed: 9\n"
        )
        cfg = RunConfig.load(str(p), overrides={"rng_seed": 11})
        assert cfg.depth_Er == 4.0
        assert cfg.shell_radius == 3
        assert cfg.rng_seed == 11

    def test_missing_file_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.load("/nonexistent/config.yaml")

    def test_bad_geometry_rejected(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("lattice:\n  geometry: cubic\n")
        with pytest.raises(ValueError, match="bad config value for geometry: expected one "
                                             "of triangular, 1d, got 'cubic'"):
            RunConfig.load(str(p))

    @pytest.mark.parametrize(
        "text", ["- 1\n- 2\n", "lattice: 5.0\n", "optimizer:\n  - 3\n"]
    )
    def test_non_mapping_config_exits_2(self, tmp_path, capsys, text):
        p = tmp_path / "c.yaml"
        p.write_text(text)
        code = main(["bands", "--samples", "2", "--config", str(p),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_VALIDATION
        assert "mapping" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "text, key",
        [
            ("lattice:\n  depth_er: 9.0\n", "depth_er"),
            ("ensemble:\n  quadratur: 5\n", "quadratur"),
            ("basis:\n  radius: 3\n", "radius"),
            ("threads: 4\n", "threads"),
            ("optimizer:\n  max_iter: 3\n", "max_iter"),
            # the optimizer's step, rate and tolerance are constants
            ("optimizer:\n  fd_step_us: 0.02\n", "fd_step_us"),
            ("optimizer:\n  learning_rate: 9\n", "learning_rate"),
            ("optimizer:\n  convergence_tol: 1e-5\n", "convergence_tol"),
        ],
    )
    def test_unknown_key_exits_2(self, tmp_path, capsys, text, key):
        p = tmp_path / "c.yaml"
        p.write_text(text)
        code = main(["bands", "--samples", "2", "--config", str(p),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_VALIDATION
        assert f"unknown config key(s) {key}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("distribution", "boxcar"), ("geometry", "cubic"), ("shell_radius", 2.9)],
    )
    def test_fields_are_checked_on_construction(self, key, value):
        with pytest.raises(ValueError, match=f"bad config value for {key}"):
            RunConfig(**{key: value})

    def test_fields_are_the_config_schema(self, tmp_path):
        # RunConfig holds the config file's keys and nothing else: the
        # thread count is a flag of ramsey and echo, not a config value.
        out = tmp_path / "x"
        assert main(["bands", "--samples", "2", "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        sections = ("lattice", "basis", "ensemble")
        keys = {key for section in sections for key in _SCHEMA[section]}
        assert set(manifest["config"]) == keys | {"optimizer", "rng_seed"}

    def test_optimizer_keys_load(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text(
            "optimizer:\n  max_iters: 7\n  grid_quantum_us: 0.2\n  restarts: 2\n"
            "  on_max_us: 12\n  off_max_us: 13\n"
        )
        opts = RunConfig.load(str(p)).options
        assert (opts.max_iters, opts.restarts, opts.grid_quantum) == (7, 2, 0.2)
        assert (opts.on_max, opts.off_max) == (12.0, 13.0)

    def test_non_finite_depth_exits_2(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        p.write_text("lattice:\n  depth_Er: .nan\n")
        code = main(["bands", "--samples", "2", "--config", str(p),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_VALIDATION
        assert "depth must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, name",
        [("on_max_us: 1.0e9", "on_max"), ("off_max_us: -5", "off_max")],
    )
    def test_step_range_out_of_bounds_exits_2(self, tmp_path, capsys, text, name):
        # A 1e9 us range once designed a step that eval refuses.
        p = tmp_path / "c.yaml"
        p.write_text(f"optimizer: {{{text}, restarts: 1, max_iters: 1}}\n")
        out = tmp_path / "x"
        code = main(["design", "--kind", "pi2", "--steps", "1", "--config", str(p),
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{name} must be finite, with 0 <= {name} <= {MAX_STEP_US:g} us" in err
        assert not out.exists()

    def test_non_finite_optimizer_value_exits_2(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        p.write_text("optimizer:\n  on_max_us: .inf\n")
        code = main(["design", "--kind", "pi2", "--config", str(p),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_VALIDATION
        assert "on_max must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("lattice: {depth_Er: 5\n", "is not valid YAML"),
            ("ensemble:\n  width_schedule: [[null, 0.3]]\n",
             "bad config value for width_schedule"),
            ("ensemble:\n  width_schedule: [1, 2]\n",
             "bad config value for width_schedule"),
            ("ensemble:\n  width_schedule: [[0, 0.3], [100, 0.0]]\n",
             "width_schedule width must be finite, with width_schedule width > 0, got 0.0"),
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, text, message):
        p = tmp_path / "c.yaml"
        p.write_text(text)
        out = tmp_path / "x"
        code = main(["ramsey", "--t-max", "400", "--dt", "4", "--config", str(p),
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        if "YAML" in message:
            assert f"config file {p}" in err
        assert not out.exists()

    def test_bad_value_type_exits_2(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        p.write_text("lattice:\n  depth_Er: [1, 2]\n")
        code = main(["bands", "--samples", "2", "--config", str(p),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_VALIDATION
        assert "depth_Er" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "text, key",
        [
            ("basis:\n  shell_radius: 2.9\n", "shell_radius"),
            ("basis:\n  shell_radius: true\n", "shell_radius"),
            ("ensemble:\n  quadrature: 21.5\n", "quadrature"),
            ("rng_seed: 3.7\n", "rng_seed"),
            ("rng_seed: .inf\n", "rng_seed"),
            ("optimizer:\n  max_iters: 20.5\n", "max_iters"),
            ("optimizer:\n  restarts: false\n", "restarts"),
            # a real-valued key refuses booleans and numbers beyond a float
            ("lattice:\n  depth_Er: true\n", "depth_Er"),
            ("lattice:\n  wavelength_nm: false\n", "wavelength_nm"),
            ("lattice:\n  depth_Er: 1" + "0" * 400 + "\n", "depth_Er"),
            ("ensemble:\n  delta_q_hk: true\n", "delta_q_hk"),
            ("ensemble:\n  width_schedule: [[true, 0.3]]\n", "width_schedule"),
            ("optimizer:\n  on_max_us: true\n", "on_max_us"),
        ],
    )
    def test_non_integral_value_exits_2(self, tmp_path, capsys, text, key):
        p = tmp_path / "c.yaml"
        p.write_text(text)
        code = main(["design", "--kind", "pi2", "--config", str(p),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_VALIDATION
        assert f"bad config value for {key}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "text, key",
        [
            ("ensemble:\n  distribution: boxcar\n", "distribution"),
            ("ensemble:\n  distribution: 3\n", "distribution"),
            ("lattice:\n  geometry: true\n", "geometry"),
        ],
        ids=["distribution-boxcar", "distribution-3", "geometry-true"],
    )
    def test_bad_choice_exits_2(self, tmp_path, capsys, text, key):
        p = tmp_path / "c.yaml"
        p.write_text(text)
        code = main(["ramsey", "--t-max", "400", "--dt", "4", "--config", str(p),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_VALIDATION
        assert f"bad config value for {key}: expected one of" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_load_builds_the_specs(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("lattice:\n  depth_Er: 4.0\nensemble:\n  distribution: delta\n"
                     "  quadrature: 9\noptimizer:\n  restarts: 2\n")
        cfg = RunConfig.load(str(p), overrides={"rng_seed": 5})
        assert cfg.lattice.depth == 4.0 and cfg.basis.size == (2 * 5 + 1) ** 2
        assert (cfg.ensemble.sigma_q, cfg.ensemble.quadrature) == (0.0, 9)
        assert (cfg.options.restarts, cfg.options.rng_seed) == (2, 5)

    @pytest.mark.parametrize(
        "text, name",
        [
            ("optimizer: {max_iters: abc}", "max_iters"),
            ("optimizer: {on_max_us: -5}", "on_max"),
            ("ensemble: {quadrature: 4}", "quadrature"),
            ("ensemble: {delta_q_hk: 0, quadrature: -3}",
             f"quadrature must be finite, with 1 <= quadrature <= {MAX_QUADRATURE}, got -3"),
            ("ensemble: {width_reading: bogus, distribution: delta}", "width_reading"),
            ("ensemble: {delta_q_hk: .nan, distribution: delta}", "sigma_q must be finite"),
            ("lattice: {depth_Er: -1}",
             f"depth must be finite, with 0 <= depth <= {MAX_DEPTH_ER:g} E_r, got -1.0"),
            ("basis: {shell_radius: 0}", "shell_radius"),
            ("rng_seed: -1", "rng_seed"),
            # counts whose run would exhaust memory or time
            (f"basis: {{shell_radius: {MAX_SHELL_RADIUS + 1}}}",
             f"shell_radius must be finite, with 1 <= shell_radius <= {MAX_SHELL_RADIUS}, "
             f"got {MAX_SHELL_RADIUS + 1}"),
            (f"ensemble: {{quadrature: {MAX_QUADRATURE + 2}}}",
             f"quadrature must be finite, with 5 <= quadrature <= {MAX_QUADRATURE}, "
             f"got {MAX_QUADRATURE + 2}"),
            (f"optimizer: {{restarts: {MAX_COUNT + 1}}}",
             f"restarts must be finite, with 1 <= restarts <= {MAX_COUNT:g}, got {MAX_COUNT + 1}"),
            (f"optimizer: {{max_iters: {MAX_COUNT + 1}}}",
             f"max_iters must be finite, with 1 <= max_iters <= {MAX_COUNT:g}, "
             f"got {MAX_COUNT + 1}"),
            # a recoil frequency E_r/h that underflows to 0 or overflows
            ("lattice: {atom_mass_kg: 1.0e+300}",
             "recoil frequency E_r/h must be finite, with recoil frequency E_r/h > 0, got 0.0"),
            ("lattice: {wavelength_nm: 1.0e-300}",
             "recoil frequency E_r/h must be finite, with recoil frequency E_r/h > 0, got inf"),
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [["bands", "--samples", "2"],
         ["eval", "--sequence", "reference:pi2", "--kind", "pi2"],
         ["coherence", "--period", "88.8", "--fringe"],
         ["ramsey", "--single-q", "--t-max", "400", "--dt", "4"],
         ["ramsey", "--t-max", "400", "--dt", "4"]],
        ids=["bands", "eval", "coherence", "ramsey-single-q", "ramsey"],
    )
    def test_bad_value_exits_2_whatever_the_subcommand(self, tmp_path, capsys,
                                                        text, name, command):
        p = tmp_path / "c.yaml"
        p.write_text(text + "\n")
        if command[0] == "coherence":
            command = command + [str(TestCoherenceCommand._fringe_csv(tmp_path / "f.csv"))]
        out = tmp_path / "x"
        code = main(command + ["--config", str(p), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_integral_values_load_unchanged(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("basis:\n  shell_radius: 3.0\nensemble:\n  quadrature: '9'\n"
                     "rng_seed: 4\noptimizer:\n  max_iters: 7.0\n")
        cfg = RunConfig.load(str(p))
        assert (cfg.shell_radius, cfg.quadrature, cfg.rng_seed) == (3, 9, 4)
        assert type(cfg.shell_radius) is int
        assert cfg.options.max_iters == 7

    def test_config_env_var(self, tmp_path, monkeypatch):
        env_config = tmp_path / "env.yaml"
        env_config.write_text("lattice: {depth_Er: 4}\n")
        flag_config = tmp_path / "flag.yaml"
        flag_config.write_text("lattice: {depth_Er: 3}\n")

        def bands(name, *flags):
            out = tmp_path / name
            assert main(["bands", "--samples", "2", "--out", str(out), *flags]) == EXIT_OK
            manifest = json.loads((out / "manifest.json").read_text())
            return (out / "bands.csv").read_bytes(), manifest

        monkeypatch.delenv("ARTIFACT_CONFIG", raising=False)
        _, plain = bands("plain")
        csv_by_flag, by_flag = bands("flag", "--config", str(env_config))
        monkeypatch.setenv("ARTIFACT_CONFIG", str(env_config))
        csv_by_env, by_env = bands("env")
        _, overridden = bands("override", "--config", str(flag_config))

        assert plain["run_id"] == "6127a121161d6108"
        assert by_env["run_id"] == by_flag["run_id"] == "316c3c9cb675cc96"
        assert csv_by_env == csv_by_flag
        assert list(by_env["input_hashes"]) == [str(env_config)]
        assert by_env["config"]["depth_Er"] == 4.0
        assert list(overridden["input_hashes"]) == [str(flag_config)]
        assert overridden["config"]["depth_Er"] == 3.0


_SCHEMA = {
    "lattice": ["geometry", "wavelength_nm", "depth_Er", "atom_mass_kg"],
    "basis": ["shell_radius"],
    "ensemble": ["distribution", "delta_q_hk", "width_reading", "quadrature",
                 "width_schedule"],
    "optimizer": ["max_iters", "grid_quantum_us", "restarts", "on_max_us", "off_max_us"],
}
_VALID = {
    "geometry": st.sampled_from(["triangular", "1d"]),
    "distribution": st.sampled_from(["gaussian", "delta"]),
    "width_reading": st.sampled_from(["fwhm", "two_sigma"]),
    "width_schedule": st.lists(
        st.tuples(st.floats(0, 1e4), st.floats(0, 1)).map(list), max_size=3
    ),
    **dict.fromkeys(["quadrature", "max_iters", "restarts", "rng_seed"],
                    st.integers(1, 31)),
    "shell_radius": st.integers(1, MAX_SHELL_RADIUS),
}
_JUNK = st.one_of(
    st.booleans(),
    st.none(),
    st.text("ab1.e-", max_size=6),
    st.floats(),  # NaN, inf, negatives and huge values
    st.integers(-(10**400), 10**400),
    st.sampled_from([-(10**400), 10**400]),  # too large for a float
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text("xyz", max_size=3), st.integers(), max_size=2),
)


def _value(key):
    """A valid value for ``key`` three times in four, junk otherwise."""
    valid = _VALID.get(key, st.floats(0.1, 100.0) | st.integers(1, 30))
    return st.integers(0, 3).flatmap(lambda k: valid if k else _JUNK)


@st.composite
def _config_mappings(draw):
    """A config mapping over the schema keys, valid values mixed with junk,
    sometimes with an unknown key or a section that is not a mapping."""
    data = {}
    for section, keys in _SCHEMA.items():
        if draw(st.booleans()):
            continue
        chosen = draw(st.lists(st.sampled_from(keys), unique=True))
        values = {key: draw(_value(key)) for key in chosen}
        if draw(st.integers(0, 9)) == 0:
            values["unknown_key"] = 1
        data[section] = values if draw(st.integers(0, 9)) else draw(_JUNK)
    if draw(st.booleans()):
        data["rng_seed"] = draw(_value("rng_seed"))
    if draw(st.integers(0, 9)) == 0:
        data[draw(st.sampled_from(["threads", "seed", "depth_Er"]))] = 1
    return data


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_config_mappings())
def test_config_loading_raises_only_value_error(tmp_path, data):
    """Any YAML mapping loads or raises ValueError, which main maps to
    exit 2; no other exception type escapes.  Every value is checked at
    load, so once a config loads, its specs and basis are built."""
    p = tmp_path / "c.yaml"
    p.write_text(yaml.safe_dump(data))
    try:
        cfg = RunConfig.load(str(p))
    except ValueError:
        return
    assert cfg.lattice.depth == cfg.depth_Er
    assert cfg.basis.size == (2 * cfg.shell_radius + 1) ** (
        2 if cfg.geometry == "triangular" else 1)
    assert cfg.ensemble.quadrature == cfg.quadrature
    assert cfg.options.rng_seed == cfg.rng_seed


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_blocks(lang):
    text = README.read_text()
    return [b.split("\n", 1)[1] for b in text.split("```")[1::2] if b.startswith(lang)]


def _readme_commands():
    """Every ``artifact ...`` command of the README's sh blocks, as argv."""
    return [
        shlex.split(line)[1:]
        for block in _readme_blocks("sh")
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("artifact ")
    ]


class TestReadme:
    def test_commands_parse(self):
        commands = _readme_commands()
        assert len(commands) >= 7
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv)

    def test_cheap_commands_run(self, tmp_path, monkeypatch, capsys):
        # bands, eval, the single-q Ramsey and a re-analysis of that fringe
        # (the README re-analyses the ensemble fringe, too slow to run here).
        outputs = {
            "bands": {"bands.csv"},
            "eval": {"report.json"},
            "ramsey": {"fringe.csv", "contrast.csv", "coherence.json"},
            "coherence": {"contrast.csv", "coherence.json"},
        }
        cheap = [
            argv for argv in _readme_commands()
            if argv[0] in ("bands", "eval", "coherence") or "--single-q" in argv
        ]
        assert [argv[0] for argv in cheap] == ["bands", "eval", "ramsey", "coherence"]
        single_q = cheap[2][cheap[2].index("--out") + 1]
        cheap[3][cheap[3].index("--fringe") + 1] = f"{single_q}/fringe.csv"
        monkeypatch.chdir(tmp_path)
        for argv in cheap:
            assert main(argv) == EXIT_OK, (argv, capsys.readouterr().err)
            out = tmp_path / argv[argv.index("--out") + 1]
            manifest = json.loads((out / "manifest.json").read_text())
            assert set(manifest["outputs"]) == outputs[argv[0]]
            assert all((out / name).is_file() for name in outputs[argv[0]])

    def test_python_examples_import(self):
        names = [
            (node.module, alias.name)
            for block in _readme_blocks("python")
            for node in ast.walk(ast.parse(block))
            if isinstance(node, ast.ImportFrom) and node.module.startswith("artifact.")
            for alias in node.names
        ]
        assert names
        for module, name in names:
            assert hasattr(importlib.import_module(module), name), (module, name)

    def test_example_config_loads(self, tmp_path):
        block, _ = _readme_blocks("yaml")
        p = tmp_path / "c.yaml"
        p.write_text(block)
        cfg = RunConfig.load(str(p))
        assert cfg.rng_seed == 7
        assert cfg.optimizer == {"max_iters": 200, "restarts": 10}

    def test_example_sequence_loads(self, tmp_path):
        _, block = _readme_blocks("yaml")
        p = tmp_path / "s.yaml"
        p.write_text(block)
        expected = PulseSequence.from_durations([(2.7, 16.8), (21.9, 7.9)], [None, 4.5])
        assert load_sequence(str(p)) == expected


class TestLoadSequence:
    def test_reference_names(self):
        for name, seq in REFERENCE_SEQUENCES.items():
            assert load_sequence(f"reference:{name}") == seq

    def test_unknown_reference(self):
        with pytest.raises(ValueError):
            load_sequence("reference:nope")

    def test_missing_file(self):
        with pytest.raises(ValueError):
            load_sequence("/nonexistent/seq.yaml")

    def test_malformed_yaml_exits_2(self, tmp_path, capsys):
        seq = tmp_path / "s.yaml"
        seq.write_text("steps: [{t_on_us: 1.0\n")
        out = tmp_path / "x"
        code = main(["ramsey", "--pi2", str(seq), "--single-q", "--t-max", "400",
                     "--dt", "4", "--out", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: sequence file {seq} is not valid YAML")
        assert not out.exists()

    def test_yaml_roundtrip(self, tmp_path):
        seq = PulseSequence.from_durations([(1.5, 2.0), (3.0, 4.5)], depths=[4.0, 5.0])
        p = tmp_path / "seq.yaml"
        with open(p, "w") as f:
            yaml.safe_dump(_sequence_file(seq), f)
        assert load_sequence(str(p)) == seq

    def test_dict_roundtrip(self):
        seq = PulseSequence.from_durations([(1.5, 2.5), (3.5, 0.0)], depths=[4.0, 5.5])
        assert _parse_sequence(_sequence_file(seq, "by hand", 0.5)) == seq

    def test_dict_roundtrip_without_depth(self):
        seq = PulseSequence.from_durations([(1.5, 2.5)])
        data = _sequence_file(seq)
        assert list(data["steps"][0]) == ["t_on_us", "t_off_us"]
        assert _parse_sequence(data) == seq

    def test_hand_written_file(self, tmp_path):
        p = tmp_path / "seq.yaml"
        p.write_text("steps:\n  - {t_on_us: 2.7, t_off_us: 16.8}\n"
                     "  - {t_on_us: '21.9', t_off_us: 7, depth_Er: 4.5}\n")
        expected = PulseSequence.from_durations([(2.7, 16.8), (21.9, 7.0)], [None, 4.5])
        assert load_sequence(str(p)) == expected

    @pytest.mark.parametrize(
        "step, key",
        [
            ("{t_on_us: true, t_off_us: true}", "bad sequence value for t_on_us"),
            ("{t_on_us: 1" + "0" * 400 + ", t_off_us: 1.0}",
             "bad sequence value for t_on_us"),
            ("{t_on_us: 1e308, t_off_us: 1e308}",
             "bad sequence value in step 1: t_on must be finite, with "
             f"0 <= t_on <= {MAX_STEP_US:g} us, got 1e+308"),
            ("{t_on_us: 2.7, t_off_us: 1e300}",
             "bad sequence value in step 1: t_off must be finite, with "
             f"0 <= t_off <= {MAX_STEP_US:g} us, got 1e+300"),
            ("{t_on_us: 1.0, t_off_us: -1}", "bad sequence value in step 1: "
             f"t_off must be finite, with 0 <= t_off <= {MAX_STEP_US:g} us, got -1.0"),
            ("{t_on_us: 1.0, t_off_us: 1.0, depth_Er: -2}", "bad sequence value in step 1: "
             f"depth must be finite, with 0 <= depth <= {MAX_DEPTH_ER:g} E_r, got -2.0"),
            ("{t_on_us: 2.7, t_off_us: 16.8, depth_er: 3.0}",
             "unknown sequence key(s) depth_er"),
        ],
        ids=["boolean", "beyond-a-float", "overflowing", "beyond-the-bound",
             "negative", "negative-depth", "unknown-key"],
    )
    def test_bad_step_exits_2(self, tmp_path, capsys, step, key):
        seq = tmp_path / "s.yaml"
        seq.write_text(f"steps:\n  - {step}\n")
        out = tmp_path / "x"
        code = main(["eval", "--sequence", str(seq), "--kind", "pi2",
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed sequence file {seq}: ") and key in err
        assert not out.exists()


_STEP_KEY_NAMES = ["t_on_us", "t_off_us", "depth_Er"]


@st.composite
def _sequence_mappings(draw):
    """A sequence-file mapping whose step values mix valid numbers with junk,
    sometimes with a missing or unknown key or a step that is not a mapping."""
    steps = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 9)) == 0:
            steps.append(draw(_JUNK))
            continue
        step = {key: draw(_value(key)) for key in _STEP_KEY_NAMES if draw(st.integers(0, 5))}
        if draw(st.integers(0, 9)) == 0:
            step[draw(st.sampled_from(["depth_er", "t_on", "unknown_key"]))] = 1.0
        steps.append(step)
    data = {"steps": steps if draw(st.integers(0, 9)) else draw(_JUNK)}
    if draw(st.booleans()):
        data["fidelity"] = draw(_value("fidelity"))
    if draw(st.integers(0, 9)) == 0:
        data[draw(st.sampled_from(["step", "depth_Er", "unknown_key"]))] = 1
    return data


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_sequence_mappings())
def test_sequence_loading_raises_only_value_error(tmp_path, data):
    """Any YAML sequence mapping loads or raises ValueError, which main maps
    to exit 2; no other exception type escapes."""
    p = tmp_path / "s.yaml"
    p.write_text(yaml.safe_dump(data))
    try:
        load_sequence(str(p))
    except ValueError:
        pass


class TestBands:
    def test_default_path(self, tmp_path):
        out = tmp_path / "run"
        assert main(["bands", "--out", str(out), "--samples", "8"]) == EXIT_OK
        header, columns, rows = read_csv(out / "bands.csv")
        assert "run_id" in header
        assert columns[:3] == ["path_coord", "q_x", "q_y"]
        assert len(columns) == 9  # 6 bands
        assert len(rows) == 3 * 8 + 1
        assert np.all(np.diff(rows[:, 0]) >= -1e-12)
        # First row is the zone center: E4 - E1 is the working gap.
        assert rows[0, 6] - rows[0, 3] == pytest.approx(5.5535, abs=2e-4)

    def test_bad_waypoint(self, tmp_path):
        code = main(["bands", "--out", str(tmp_path / "x"), "--path", "G,Q"])
        assert code == EXIT_VALIDATION
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("path", ["G,nan:0", "G,inf:0", "G,0.5:nan"])
    def test_non_finite_waypoint_exits_2(self, tmp_path, capsys, path):
        code = main(["bands", "--out", str(tmp_path / "x"), "--path", path,
                     "--samples", "2"])
        assert code == EXIT_VALIDATION
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_deep_lattice_exits_2(self, tmp_path, capsys):
        # At 1e6 E_r eigh solves H to rounding, but the absolute eigen-residual
        # check (1e-10) refused it: exit 4.  The depth bound refuses it first.
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text("lattice: {depth_Er: 1.0e+6}\n")
        code = main(["bands", "--out", str(tmp_path / "x"), "--samples", "2",
                     "--config", str(cfgp)])
        assert code == EXIT_VALIDATION
        assert (f"depth must be finite, with 0 <= depth <= {MAX_DEPTH_ER:g} E_r, got 1000000.0"
                in capsys.readouterr().err)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "path, config, reach",
        [("G,1e200:0", "", "15"), ("G,300:0", "", "15"), ("G,16:0", "", "15"),
         ("G,11:0", "lattice:\n  geometry: 1d\n", "10")],
        ids=["overflowing", "far", "just-beyond", "1d"],
    )
    def test_waypoint_beyond_the_basis_exits_2(self, tmp_path, capsys, path, config,
                                               reach):
        # Beyond the largest |G| of the basis the lowest eigenvalues are not
        # Bloch bands, and (1e200)^2 would overflow the kinetic energy.
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["bands", "--out", str(tmp_path / "x"), "--path", path,
                         "--samples", "2", "--config", str(cfgp)])
        assert code == EXIT_VALIDATION
        waypoint = path.split(",")[1]
        assert (f"waypoint {waypoint!r} must be finite, with |q| <= the basis's largest "
                f"|G| = {reach} k" in capsys.readouterr().err)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "path, message",
        [("G,1:x", "bad waypoint coordinates '1:x'"),
         ("G", "path needs at least two waypoints")],
        ids=["not-two-numbers", "one-waypoint"],
    )
    def test_malformed_path_exits_2(self, tmp_path, capsys, path, message):
        code = main(["bands", "--out", str(tmp_path / "x"), "--path", path])
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_coordinate_waypoints(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["bands", "--out", str(out), "--path", "0:0,0.75:-0.43", "--samples", "4"]
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize("under", ["", "sub"])
    def test_out_on_a_file_exits_2(self, tmp_path, capsys, under):
        blocker = tmp_path / "f"
        blocker.write_text("kept\n")
        out = blocker / under if under else blocker
        code = main(["bands", "--samples", "2", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert f"--out {out}: cannot create the output directory" in capsys.readouterr().err
        assert blocker.read_text() == "kept\n"


class TestEval:
    def test_reference_pi2(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["eval", "--sequence", "reference:pi2", "--kind", "pi2",
                     "--out", str(out)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "fidelity: 0.9832" in stdout
        report = json.loads((out / "report.json").read_text())
        assert report["fidelity"] == pytest.approx(0.9832, abs=5e-4)

    def test_reference_load(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["eval", "--sequence", "reference:load", "--kind", "load",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert "fidelity: 0.9946" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert report["fidelity"] == pytest.approx(0.99456, abs=5e-6)
        assert report["leakage_above_d"] == [pytest.approx(0.00453, abs=5e-6)]
        assert report["pair_overlaps"][0]["magnitude"] == report["fidelity"]

    def test_missing_sequence_file(self, tmp_path):
        code = main(["eval", "--sequence", str(tmp_path / "no.yaml"),
                     "--kind", "pi2", "--out", str(tmp_path / "x")])
        assert code == EXIT_VALIDATION


class TestDesign:
    def test_below_threshold_still_writes(self, tmp_path):
        cfgp = tmp_path / "tiny.yaml"
        cfgp.write_text("optimizer:\n  max_iters: 3\n  restarts: 1\n")
        out = tmp_path / "run"
        code = main(["design", "--kind", "pi2", "--steps", "2",
                     "--config", str(cfgp), "--out", str(out)])
        assert code == EXIT_THRESHOLD
        seq = load_sequence(str(out / "sequence.yaml"))
        assert len(seq.steps) == 2
        _, _, trace = read_csv(out / "trace.csv")
        assert np.all(np.diff(trace[:, 1]) >= -1e-12)

    def test_explicit_threshold_passes(self, tmp_path):
        cfgp = tmp_path / "tiny.yaml"
        cfgp.write_text("optimizer:\n  max_iters: 3\n  restarts: 1\n")
        out = tmp_path / "run"
        code = main(["design", "--kind", "pi2", "--steps", "2",
                     "--config", str(cfgp), "--out", str(out),
                     "--threshold", "0.05"])
        assert code == EXIT_OK

    def test_depth_box_enters_the_run_id(self, tmp_path):
        cfgp = tmp_path / "tiny.yaml"
        cfgp.write_text("optimizer:\n  max_iters: 1\n  restarts: 1\n")
        args = ["design", "--kind", "pi", "--steps", "1", "--threshold", "0",
                "--config", str(cfgp)]
        manifests = {}
        for name, extra in [("wide", ["--depth-min", "3", "--depth-max", "6"]),
                            ("narrow", ["--depth-min", "4", "--depth-max", "5"]),
                            ("fixed", ["--depth-min", "4", "--depth-max", "5"])]:
            variable = ["--variable-amplitude"] if name != "fixed" else []
            out = tmp_path / name
            assert main(args + variable + extra + ["--out", str(out)]) == EXIT_OK
            manifests[name] = json.loads((out / "manifest.json").read_text())
        wide, narrow, fixed = manifests["wide"], manifests["narrow"], manifests["fixed"]
        assert wide["run_id"] != narrow["run_id"]
        assert (wide["args"]["depth_min"], wide["args"]["depth_max"]) == (3.0, 6.0)
        assert (narrow["args"]["depth_min"], narrow["args"]["depth_max"]) == (4.0, 5.0)
        # A fixed-depth design ignores the box, so it stays out of the run id.
        assert "depth_min" not in fixed["args"] and "depth_max" not in fixed["args"]

    @pytest.mark.parametrize(
        "extra, message",
        [(["--threshold", "nan"], "--threshold must be finite"),
         (["--threshold", "inf"], "--threshold must be finite"),
         (["--variable-amplitude", "--depth-min", "-3", "--depth-max", "6"],
          "--depth-min must be finite, with 0 <= --depth-min <= 5 E_r, got -3.0"),
         (["--variable-amplitude", "--depth-min", "6", "--depth-max", "3"],
          "--depth-min must be finite, with 0 <= --depth-min <= 5 E_r, got 6.0"),
         (["--variable-amplitude", "--depth-min", "3", "--depth-max", "nan"],
          f"--depth-max must be finite, with 5 <= --depth-max <= {MAX_DEPTH_ER:g} E_r, got nan"),
         (["--variable-amplitude", "--depth-min", "3", "--depth-max", "1001"],
          f"--depth-max must be finite, with 5 <= --depth-max <= {MAX_DEPTH_ER:g} E_r, "
          "got 1001.0")],
        ids=["threshold-nan", "threshold-inf", "negative-depth-min",
             "depth-box-reversed", "depth-max-nan", "depth-max-too-deep"],
    )
    def test_bad_design_flag_exits_2_before_the_output(self, tmp_path, capsys,
                                                       extra, message):
        cfgp = tmp_path / "tiny.yaml"
        cfgp.write_text("optimizer:\n  max_iters: 1\n  restarts: 1\n")
        out = tmp_path / "run"
        code = main(["design", "--kind", "pi2", "--steps", "1", "--config", str(cfgp),
                     "--out", str(out)] + extra)
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_fidelity_exits_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(shortcut, "fidelity", lambda seq, obj: math.nan)
        cfgp = tmp_path / "tiny.yaml"
        cfgp.write_text("optimizer:\n  max_iters: 1\n  restarts: 1\n")
        out = tmp_path / "run"
        code = main(["design", "--kind", "pi2", "--steps", "1",
                     "--config", str(cfgp), "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert "numerical failure: non-finite fidelity" in capsys.readouterr().err
        assert not out.exists()

    def test_designed_sequence_evaluates(self, tmp_path):
        cfgp = tmp_path / "tiny.yaml"
        cfgp.write_text("optimizer:\n  max_iters: 3\n  restarts: 1\n")
        out = tmp_path / "run"
        main(["design", "--kind", "pi2", "--steps", "2",
              "--config", str(cfgp), "--out", str(out)])
        code = main(["eval", "--sequence", str(out / "sequence.yaml"),
                     "--kind", "pi2", "--out", str(tmp_path / "e")])
        assert code == EXIT_OK


class TestFringeCommands:
    def test_single_q_ideal_ramsey(self, tmp_path):
        out = tmp_path / "run"
        code = main(["ramsey", "--pi2", "ideal", "--t-max", "400", "--dt", "4",
                     "--single-q", "--out", str(out)])
        assert code == EXIT_OK
        _, _, fringe = read_csv(out / "fringe.csv")
        assert fringe[0, 1] == pytest.approx(1.0, abs=1e-9)
        _, _, contrast = read_csv(out / "contrast.csv")
        assert contrast[0, 1] == pytest.approx(1.0, abs=1e-3)
        coh = json.loads((out / "coherence.json").read_text())
        assert set(coh) == {"crossing_1e_us", "fit_tau_us", "fit_amplitude"}

    def test_dt_refusal(self, tmp_path, capsys):
        code = main(["ramsey", "--pi2", "ideal", "--t-max", "400", "--dt", "30",
                     "--single-q", "--out", str(tmp_path / "x")])
        assert code == EXIT_VALIDATION
        assert "dt" in capsys.readouterr().err

    def test_window_sets_sampling(self, tmp_path):
        # Echo on the acceptance grid: dt 16 us over a two-period window.
        code = main(["echo", "--pi2", "reference:pi2", "--pi", "reference:pi",
                     "--t-max", "5000", "--dt", "16", "--contrast-window", "177.6",
                     "--single-q", "--out", str(tmp_path / "echo")])
        assert code == EXIT_OK

    def test_eight_samples_per_window_accepted(self, tmp_path, capsys):
        args = ["ramsey", "--pi2", "ideal", "--single-q", "--t-max", "400",
                "--contrast-window", "88.8"]
        assert main(args + ["--dt", "11.1", "--out", str(tmp_path / "a")]) == EXIT_OK
        code = main(args + ["--dt", "11.2", "--out", str(tmp_path / "b")])
        assert code == EXIT_VALIDATION
        assert "dt" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "t_max, message",
        # 150 us spans one 88.8 us window; 270 us spans two, from which
        # contrast_curve reads two contrasts and coherence_time fits none.
        [("150", "two periods"), ("270", "need at least 3 contrast samples")],
    )
    def test_short_span_exits_before_the_ensemble(self, tmp_path, capsys, monkeypatch,
                                                  t_max, message):
        from artifact import cli

        def never(*args, **kwargs):
            raise AssertionError("ensemble computed for a refused time grid")

        monkeypatch.setattr(cli, "ensemble_fringe", never)
        out = tmp_path / "x"
        code = main(["ramsey", "--pi2", "reference:pi2", "--t-max", t_max,
                     "--dt", "8", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--dt", "0"), ("--dt", "-4"), ("--dt", "nan"),
         ("--t-max", "-400"), ("--t-max", "inf"), ("--contrast-window", "0"),
         ("--contrast-window", "nan")],
    )
    def test_bad_time_grid_exits_2(self, tmp_path, capsys, flag, value):
        args = {"--t-max": "400", "--dt": "4", flag: value}
        code = main(["ramsey", "--pi2", "ideal", "--single-q"]
                    + [token for item in args.items() for token in item]
                    + ["--out", str(tmp_path / "x")])
        assert code == EXIT_VALIDATION
        bound = f"0 < {flag}" if flag == "--t-max" else f"{flag} > 0"
        assert f"{flag} must be finite, with {bound}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_echo_zero_pulses_exits_2(self, tmp_path, capsys):
        code = main(["echo", "--pi2", "ideal", "--n-echo", "0", "--single-q",
                     "--t-max", "400", "--dt", "4", "--out", str(tmp_path / "x")])
        assert code == EXIT_VALIDATION
        assert (f"--n-echo must be finite, with 0 < --n-echo <= {MAX_COUNT:g}, got 0"
                in capsys.readouterr().err)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [(["echo", "--pi2", "ideal", "--single-q", "--t-max", "400", "--dt", "4"],
          "--n-echo", "-2"),
         (["design", "--kind", "pi2"], "--steps", "0"),
         (["bands"], "--samples", "0"),
         (["bands"], "--samples", "-1")],
        ids=["echo-n-echo-negative", "design-steps-0", "bands-samples-0",
             "bands-samples-negative"],
    )
    def test_count_below_one_exits_2_before_the_output(self, tmp_path, capsys,
                                                       command, flag, value):
        out = tmp_path / "x"
        code = main(command + [flag, value, "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert (f"{flag} must be finite, with 0 < {flag} <= {MAX_COUNT:g}, got {value}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag",
        [(["echo", "--pi2", "ideal", "--single-q", "--t-max", "400", "--dt", "4"],
          "--n-echo"),
         (["design", "--kind", "pi2"], "--steps"),
         (["bands"], "--samples")],
        ids=["echo-n-echo", "design-steps", "bands-samples"],
    )
    @pytest.mark.parametrize("value", [MAX_COUNT + 1, 10**400],
                             ids=["max-plus-1", "1e400"])
    def test_count_above_max_count_exits_2_before_the_output(
        self, tmp_path, capsys, command, flag, value
    ):
        out = tmp_path / "x"
        code = main(command + [flag, str(value), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert (f"{flag} must be finite, with 0 < {flag} <= {MAX_COUNT:g}, got {value}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [(["bands", "--path", "G", "--samples", "0"], "--samples"),
         (["design", "--kind", "pi2", "--threshold", "nan", "--steps", "0"], "--steps"),
         (["ramsey", "--t-max", "150", "--dt", "8", "--threads", "0"], "--threads"),
         (["echo", "--t-max", "270", "--dt", "8", "--n-echo", "0"], "--n-echo")],
        ids=["bands", "design", "ramsey", "echo"],
    )
    def test_a_bounded_flag_is_refused_before_the_command_checks(self, tmp_path, capsys,
                                                                argv, flag):
        # Each argv also breaks a rule of its command: a one-waypoint path,
        # a NaN threshold, a fringe shorter than two or three windows.
        out = tmp_path / "x"
        assert main(argv + ["--out", str(out)]) == EXIT_VALIDATION
        assert f"error: {flag} must be finite, with " in capsys.readouterr().err
        assert not out.exists()

    def test_echo_runs_with_references(self, tmp_path):
        out = tmp_path / "run"
        code = main(["echo", "--pi2", "reference:pi2", "--pi", "reference:pi",
                     "--t-max", "400", "--dt", "8", "--single-q",
                     "--out", str(out)])
        assert code == EXIT_OK
        _, _, fringe = read_csv(out / "fringe.csv")
        assert fringe[0, 1] == pytest.approx(0.675, abs=5e-3)

    def test_echo_rejects_mixed_ideal_and_sequence(self, tmp_path):
        code = main(["echo", "--pi2", "reference:pi2", "--pi", "ideal",
                     "--t-max", "400", "--dt", "8", "--single-q",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("pi", ["reference:pi", "sequence file"])
    def test_echo_rejects_a_pi_sequence_with_ideal_pi2(self, tmp_path, capsys, pi):
        if pi == "sequence file":
            pi = str(tmp_path / "p.yaml")
            Path(pi).write_text(yaml.safe_dump(_sequence_file(REFERENCE_SEQUENCES["pi"])))
        out = tmp_path / "x"
        code = main(["echo", "--pi2", "ideal", "--pi", pi, "--t-max", "400",
                     "--dt", "4", "--single-q", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "--pi" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, threads):
        out = tmp_path / "x"
        code = main(["ramsey", "--pi2", "ideal", "--single-q", "--t-max", "400",
                     "--dt", "4", "--threads", threads, "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert f"--threads must be finite, with --threads > 0, got {threads}" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_refused(self, tmp_path):
        # rng_seed reaches only design's numbers, so a fringe command does
        # not take --seed, which would change the run id and nothing else.
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main(["ramsey", "--pi2", "ideal", "--single-q", "--t-max", "400",
                  "--dt", "4", "--seed", "1", "--out", str(out)])
        assert exc.value.code == EXIT_VALIDATION
        assert not out.exists()

    def test_hold_above_the_step_bound_exits_2(self, tmp_path, capsys):
        # Holds of 1e306 us used to run and lose every phase to rounding.
        out = tmp_path / "x"
        code = main(["ramsey", "--pi2", "ideal", "--single-q", "--t-max", "1e306",
                     "--dt", "1e303", "--contrast-window", "1e304", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert (f"--t-max must be finite, with 0 < --t-max <= {MAX_STEP_US:g}, got 1e+306"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_too_many_hold_times_exit_2(self, tmp_path, capsys):
        # 125,000 hold times at the largest --t-max: refused before arange.
        out = tmp_path / "x"
        code = main(["ramsey", "--pi2", "ideal", "--single-q", "--t-max", "1e6",
                     "--dt", "8", "--out", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert (f"--t-max / --dt must be finite, with 0 <= --t-max / --dt <= {MAX_HOLD_TIMES}, "
                "got 125000.0" in err)
        assert not out.exists()

    @pytest.mark.parametrize("fwhm, farthest", [("23", "41.4387"), ("1e300", "1.80168e+300"),
                                                ("1e308", "inf")])
    def test_ensemble_beyond_the_basis_exits_2(self, tmp_path, capsys, fwhm, farthest):
        # The default basis reaches 15 k; the 2-D grid's farthest node lies
        # at 3 sqrt(2) sigma.  FWHM 23 once ran to a coherence time of 900 us,
        # 1e300 overflowed the Hamiltonian after --out existed, and at 1e308
        # the grid's spacing overflows too.
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(f"ensemble: {{delta_q_hk: {fwhm}, quadrature: 5}}\n")
        out = tmp_path / "x"
        code = main(["ramsey", "--pi2", "ideal", "--t-max", "400", "--dt", "4",
                     "--config", str(cfgp), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert ("the ensemble's farthest quadrature node must be finite, with |q| <= "
                f"the basis's largest |G| = 15 k, got |q| = {farthest} k"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "ensemble, flags",
        [("{delta_q_hk: 23, quadrature: 5}", ["--single-q"]),
         ("{delta_q_hk: 23, quadrature: 5, distribution: delta}", [])],
        ids=["single-q", "delta"],
    )
    def test_wide_ensemble_unused_at_q_0_runs(self, tmp_path, ensemble, flags):
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(f"ensemble: {ensemble}\n")
        code = main(["ramsey", "--pi2", "ideal", "--t-max", "400", "--dt", "4", *flags,
                     "--config", str(cfgp), "--out", str(tmp_path / "x")])
        assert code == EXIT_OK

    @staticmethod
    def _manifest(args, out):
        assert main(args + ["--out", str(out)]) == EXIT_OK
        return json.loads((out / "manifest.json").read_text())

    def test_no_phase_lock_enters_the_run_id(self, tmp_path):
        args = ["ramsey", "--pi2", "reference:pi2", "--single-q", "--t-max", "400",
                "--dt", "4"]
        locked = self._manifest(args, tmp_path / "a")
        unlocked = self._manifest(args + ["--no-phase-lock"], tmp_path / "b")
        assert ((tmp_path / "a/fringe.csv").read_bytes()
                != (tmp_path / "b/fringe.csv").read_bytes())
        assert unlocked["run_id"] != locked["run_id"]
        assert unlocked["args"]["no_phase_lock"] is True
        assert "no_phase_lock" not in locked["args"]
        # Ideal pulses ignore the flag, so it stays out of their run id.
        ideal = ["ramsey", "--pi2", "ideal", "--single-q", "--t-max", "400",
                 "--dt", "4"]
        plain = self._manifest(ideal, tmp_path / "c")
        ignored = self._manifest(ideal + ["--no-phase-lock"], tmp_path / "d")
        assert ignored["run_id"] == plain["run_id"]

    def test_contrast_window_enters_the_run_id(self, tmp_path):
        args = ["ramsey", "--pi2", "ideal", "--single-q", "--t-max", "800",
                "--dt", "4"]
        default = self._manifest(args, tmp_path / "a")
        wide = self._manifest(args + ["--contrast-window", "177.6"], tmp_path / "b")
        assert ((tmp_path / "a/contrast.csv").read_bytes()
                != (tmp_path / "b/contrast.csv").read_bytes())
        assert wide["run_id"] != default["run_id"]
        assert wide["args"]["contrast_window"] == 177.6
        assert "contrast_window" not in default["args"]

    def test_ideal_pi_stays_out_of_the_run_id(self, tmp_path):
        args = ["echo", "--pi2", "ideal", "--single-q", "--t-max", "400",
                "--dt", "4"]
        plain = self._manifest(args, tmp_path / "a")
        with_pi = self._manifest(args + ["--pi", "ideal"], tmp_path / "b")
        assert with_pi["run_id"] == plain["run_id"]
        assert "pi" not in with_pi["args"]
        for name in ("fringe.csv", "contrast.csv", "coherence.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_byte_identical_reruns_and_thread_invariance(self, tmp_path):
        args = ["ramsey", "--pi2", "ideal", "--t-max", "300", "--dt", "4",
                "--single-q"]
        outs = []
        for name, extra in (("a", []), ("b", []), ("c", ["--threads", "4"])):
            out = tmp_path / name
            assert main(args + ["--out", str(out)] + extra) == EXIT_OK
            outs.append(out)
        ref_fringe = (outs[0] / "fringe.csv").read_bytes()
        ref_contrast = (outs[0] / "contrast.csv").read_bytes()
        for out in outs[1:]:
            assert (out / "fringe.csv").read_bytes() == ref_fringe
            assert (out / "contrast.csv").read_bytes() == ref_contrast


class TestCoherenceCommand:
    def test_reanalysis_matches_original(self, tmp_path):
        run = tmp_path / "run"
        main(["ramsey", "--pi2", "ideal", "--t-max", "400", "--dt", "4",
              "--single-q", "--out", str(run)])
        period = json.loads((run / "manifest.json").read_text())[
            "derived_constants"]["fringe_period_us"]
        re = tmp_path / "re"
        code = main(["coherence", "--fringe", str(run / "fringe.csv"),
                     "--period", str(period), "--out", str(re)])
        assert code == EXIT_OK
        a = json.loads((run / "coherence.json").read_text())
        b = json.loads((re / "coherence.json").read_text())
        assert a == b

    def test_config_is_hashed(self, tmp_path):
        fringe = self._fringe_csv(tmp_path / "f.csv")
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text("lattice:\n  depth_Er: 5.0\n")
        out = tmp_path / "re"
        code = main(["coherence", "--fringe", str(fringe), "--period", "88.8",
                     "--config", str(cfgp), "--out", str(out)])
        assert code == EXIT_OK
        hashes = json.loads((out / "manifest.json").read_text())["input_hashes"]
        assert hashes == {
            str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in (fringe, cfgp)
        }

    def test_fringe_contents_enter_the_run_id(self, tmp_path):
        fringe = self._fringe_csv(tmp_path / "f.csv")
        ids = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(["coherence", "--fringe", str(fringe), "--period", "88.8",
                         "--out", str(out)])
            assert code == EXIT_OK
            ids.append(json.loads((out / "manifest.json").read_text())["run_id"])
            # Same path, first sample edited in place.
            fringe.write_text(fringe.read_text().replace("p_d\n0.0,1.0\n", "p_d\n0.0,0.9\n"))
        assert ids[0] != ids[1]

    @pytest.mark.parametrize("row", ["16,abc", "16,0.5,0.5", "16"],
                             ids=["not-a-number", "three-columns", "one-column"])
    def test_bad_row_exits_2_naming_the_file_and_line(self, tmp_path, capsys, row):
        fringe = self._fringe_csv(tmp_path / "f.csv")
        lines = fringe.read_text().splitlines()
        fringe.write_text("\n".join(lines[:3] + [row] + lines[3:]) + "\n")
        out = tmp_path / "x"
        code = main(["coherence", "--fringe", str(fringe), "--period", "88.8",
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert f"fringe CSV {fringe} line 4: " in capsys.readouterr().err
        assert not out.exists()

    def test_contrast_csv_exits_2(self, tmp_path, capsys):
        """A run's contrast.csv has two numeric columns too, but its column
        line is t_us,contrast: it is refused, not analysed as a fringe."""
        run = tmp_path / "run"
        assert main(["ramsey", "--pi2", "ideal", "--single-q", "--t-max", "8000",
                     "--dt", "8", "--out", str(run)]) == EXIT_OK
        contrast = run / "contrast.csv"
        n = 1 + [line.startswith("#") for line in contrast.read_text().splitlines()].index(False)
        out = tmp_path / "x"
        code = main(["coherence", "--fringe", str(contrast), "--period", "720",
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert (f"fringe CSV {contrast} line {n}: expected the column line t_us,p_d, "
                "got 't_us,contrast'" in capsys.readouterr().err)
        assert not out.exists()

    def test_no_column_line_exits_2(self, tmp_path, capsys):
        fringe = self._fringe_csv(tmp_path / "f.csv")
        fringe.write_text("# a fringe\n\n" + fringe.read_text().split("\n", 1)[1])
        out = tmp_path / "x"
        code = main(["coherence", "--fringe", str(fringe), "--period", "88.8",
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert (f"fringe CSV {fringe} line 3: expected the column line t_us,p_d, "
                "got '0.0,1.0'" in capsys.readouterr().err)
        assert not out.exists()

    def test_fewer_than_3_samples_exits_2(self, tmp_path, capsys):
        fringe = tmp_path / "f.csv"
        fringe.write_text("t_us,p_d\n0.0,1.0\n4.0,0.5\n")
        out = tmp_path / "x"
        code = main(["coherence", "--fringe", str(fringe), "--period", "88.8",
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "fewer than 3 samples" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_fringe(self, tmp_path):
        code = main(["coherence", "--fringe", str(tmp_path / "no.csv"),
                     "--period", "88.8", "--out", str(tmp_path / "x")])
        assert code == EXIT_VALIDATION

    @staticmethod
    def _fringe_csv(path, nan_row=None):
        t = np.arange(0.0, 1000.0, 4.0)
        p = 0.5 + 0.5 * np.exp(-t / 400.0) * np.cos(2 * np.pi * t / 88.8)
        if nan_row is not None:
            p[nan_row] = np.nan
        rows = "".join(f"{a},{b}\n" for a, b in zip(t.tolist(), p.tolist()))
        path.write_text("t_us,p_d\n" + rows)
        return path

    @pytest.mark.parametrize(
        "period, message",
        [("nan", "period must be finite, with period > 0, got nan"),
         ("inf", "period must be finite, with period > 0, got inf"),
         ("0", "period must be finite, with period > 0, got 0.0"),
         ("-5", "period must be finite, with period > 0, got -5.0"),
         ("1e9", "two periods")],
    )
    def test_bad_period_exits_2_before_the_output(self, tmp_path, capsys, period,
                                                  message):
        fringe = self._fringe_csv(tmp_path / "f.csv")
        out = tmp_path / "x"
        code = main(["coherence", "--fringe", str(fringe), "--period", period,
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_fringe_below_zero_exits_2(self, tmp_path, capsys):
        """A window whose minimum is below 0 would read a contrast above 1, so
        the fringe is refused up front, naming its most negative sample."""
        t = np.arange(0.0, 1000.0, 4.0)
        p = 0.5 + 0.6 * np.cos(2 * np.pi * t / 88.8) * np.exp(-t / 500.0)
        fringe = tmp_path / "f.csv"
        rows = "".join(f"{a},{b}\n" for a, b in zip(t.tolist(), p.tolist()))
        fringe.write_text("t_us,p_d\n" + rows)
        out = tmp_path / "x"
        code = main(["coherence", "--fringe", str(fringe), "--period", "88.8",
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "error: P_D must be >= 0, got -0.0492365 at t = 44 us" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_fringe_exits_2(self, tmp_path, capsys):
        fringe = self._fringe_csv(tmp_path / "f.csv", nan_row=17)
        out = tmp_path / "x"
        code = main(["coherence", "--fringe", str(fringe), "--period", "88.8",
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


def _run_python(script):
    """Run ``script`` in a fresh interpreter that imports the package from
    this checkout; return its standard output."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_every_subcommand_runs_without_scipy(tmp_path):
    """bands, eval, design, ramsey, echo and coherence, the fit included, run
    without importing SciPy, which only the tests need."""
    decay = TestCoherenceCommand._fringe_csv(tmp_path / "decay.csv")
    quick = tmp_path / "quick.yaml"
    quick.write_text("optimizer:\n  max_iters: 1\n  restarts: 1\n")
    script = f"""
import json, sys
from artifact.cli import main
out = {str(tmp_path)!r}
assert main(["bands", "--samples", "2", "--out", out + "/b"]) == 0
assert main(["eval", "--sequence", "reference:pi2", "--kind", "pi2",
             "--out", out + "/v"]) == 0
assert main(["design", "--kind", "pi2", "--steps", "1", "--threshold", "0",
             "--config", {str(quick)!r}, "--out", out + "/g"]) == 0
base = ["--pi2", "ideal", "--single-q", "--t-max", "400", "--dt", "4"]
assert main(["ramsey", *base, "--out", out + "/r"]) == 0
assert main(["echo", *base, "--out", out + "/e"]) == 0
assert main(["coherence", "--fringe", out + "/r/fringe.csv", "--period", "88.8",
             "--out", out + "/c"]) == 0
assert main(["coherence", "--fringe", {str(decay)!r}, "--period", "88.8",
             "--out", out + "/d"]) == 0
assert json.load(open(out + "/d/coherence.json"))["fit_tau_us"] is not None
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    assert _run_python(script).splitlines()[-1] == "[]"


def test_importing_the_cli_loads_only_what_it_uses(tmp_path):
    """Importing the package and its CLI loads none of PyYAML, hashlib,
    argparse or SciPy; a run loads PyYAML only when it reads a YAML file."""
    script = f"""
import sys
import artifact, artifact.cli
lazy = ("yaml", "hashlib", "argparse", "scipy")
seen = [sorted(name for name in lazy if name in sys.modules)]
from artifact.cli import main
out = {str(tmp_path)!r}
base = ["--single-q", "--t-max", "400", "--dt", "4"]
assert main(["ramsey", "--pi2", "reference:pi2", *base, "--out", out + "/r"]) == 0
seen.append("yaml" in sys.modules)
open(out + "/c.yaml", "w").write("lattice:\\n  depth_Er: 5.0\\n")
assert main(["ramsey", "--pi2", "ideal", *base, "--config", out + "/c.yaml",
             "--out", out + "/c"]) == 0
seen.append("yaml" in sys.modules)
print(seen)
"""
    assert _run_python(script).splitlines()[-1] == "[[], False, True]"


def test_importing_a_module_loads_only_that_module():
    """The package namespace holds only ``__version__``: importing
    ``artifact.lattice`` loads no other module of the package, nor the thread
    pool that ``artifact.interferometer`` imports."""
    script = """
import sys
import artifact.lattice
print(sorted(name for name in sys.modules if name.split(".")[0] == "artifact"),
      "concurrent.futures" in sys.modules)
"""
    assert _run_python(script).splitlines()[-1] == "['artifact', 'artifact.lattice'] False"


@pytest.mark.parametrize(
    "argv",
    [["design", "--kind", "pi2", "--steps", "1"],
     ["bands", "--samples", "2"],
     ["eval", "--sequence", "reference:pi2", "--kind", "pi2"],
     ["coherence", "--fringe", "f.csv", "--period", "88.8"]],
)
def test_threads_refused_where_no_pool_runs(tmp_path, argv):
    # Only ramsey and echo run the quadrature pool.
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threads", "2", "--out", str(out)])
    assert exc.value.code == EXIT_VALIDATION
    assert not out.exists()


class TestManifest:
    def test_hashes_verify_and_constants_present(self, tmp_path):
        out = tmp_path / "run"
        main(["ramsey", "--pi2", "ideal", "--t-max", "300", "--dt", "4",
              "--single-q", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["outputs"].items():
            actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert actual == digest
        derived = manifest["derived_constants"]
        assert derived["recoil_frequency_Hz"] == pytest.approx(2027.7586, rel=1e-6)
        assert derived["sd_gap_Er"] == pytest.approx(5.5535, abs=2e-4)
        assert derived["fringe_period_us"] == pytest.approx(88.8, abs=0.02)
        assert manifest["run_id"] in (out / "fringe.csv").read_text()

    @pytest.mark.parametrize(
        "args",
        [["eval", "--kind", "pi2", "--sequence"],
         ["ramsey", "--single-q", "--t-max", "400", "--dt", "4", "--pi2"]],
    )
    def test_sequence_contents_enter_the_run_id(self, tmp_path, args):
        seq = tmp_path / "s.yaml"
        ids = []
        for t_off in (16.8, 10.0):
            seq.write_text(f"steps:\n  - {{t_on_us: 2.7, t_off_us: {t_off}}}\n")
            out = tmp_path / str(t_off)
            assert main(args + [str(seq), "--out", str(out)]) == EXIT_OK
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["input_hashes"] == {
                str(seq): hashlib.sha256(seq.read_bytes()).hexdigest()
            }
            ids.append(manifest["run_id"])
        assert ids[0] != ids[1]

    @pytest.mark.parametrize(
        "args, run_id",
        [(["ramsey", "--pi2", "ideal"], "7df2418f1f2d91b7"),
         (["ramsey", "--pi2", "reference:pi2"], "e109e3e958c6caf3")],
    )
    def test_runs_that_read_no_file_keep_their_ids(self, tmp_path, args, run_id):
        # Input hashes enter the id only when a file was read, so these ids
        # are the ones such runs had before file contents entered it.
        out = tmp_path / "run"
        assert main(args + ["--single-q", "--t-max", "400", "--dt", "4",
                            "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["run_id"] == run_id

    @pytest.mark.parametrize(
        "args, run_id",
        [(["ramsey", "--pi2", "ideal", "--single-q", "--t-max", "400", "--dt", "4"],
          "c328e0560a76f7f8"),
         (["bands", "--samples", "2"], "3c27dc7498ae7198")],
    )
    def test_runs_with_a_config_keep_their_ids(self, tmp_path, args, run_id):
        # The config's loaded values, and so the id, are the ones these runs
        # had before every spec was built at load.
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text("lattice:\n  depth_Er: 5.0\nensemble:\n  delta_q_hk: 0.56\n"
                        "  quadrature: 9\nrng_seed: 3\noptimizer:\n  max_iters: 7.0\n"
                        "  restarts: \"2\"\n")
        out = tmp_path / "run"
        assert main(args + ["--config", str(cfgp), "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["run_id"] == run_id

    def test_config_depth_changes_results(self, tmp_path):
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text("lattice:\n  depth_Er: 4.0\n")
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["bands", "--out", str(a), "--samples", "4"])
        main(["bands", "--out", str(b), "--samples", "4", "--config", str(cfgp)])
        _, _, ra = read_csv(a / "bands.csv")
        _, _, rb = read_csv(b / "bands.csv")
        assert not np.allclose(ra[:, 3:], rb[:, 3:], atol=1e-6)


#: Boundary values for any flag: zero, a negative, non-finite and huge floats,
#: an integer too large for a float, a non-number and a boolean word.
_FLAG_BOUNDARY = ["0", "-1", "nan", "inf", "-inf", "1e308", str(10**400), "abc", "true"]
_FRINGE_FLAGS = {"--pi2": ["ideal", "reference:pi2"], "--t-max": ["400", "300"],
                 "--dt": ["4", "8"], "--threads": [None, "1", "2"],
                 "--contrast-window": [None, "88.8", "50"]}
#: Each subcommand's flags, each with the values that keep a run tiny (None
#: leaves the flag out; a value of two words passes a second flag with it),
#: and its switches.  ``{dir}`` is the example's folder, which holds
#: fringe.csv and not-a-fringe.csv, whose column line is wrong.
_RUN_FLAGS = {
    "bands": ({"--samples": ["2"], "--path": ["G,M,K,G", "G,0.5:0.5"]}, []),
    "design": ({"--kind": ["pi2", "pi", "load"], "--steps": ["1"],
                "--threshold": [None, "0", "0.99"], "--seed": [None, "7"],
                "--depth-min": [None, "3"], "--depth-max": [None, "6"]},
               ["--variable-amplitude"]),
    "eval": ({"--sequence": [f"reference:{name}" for name in REFERENCE_SEQUENCES],
              "--kind": ["pi2", "pi", "load"]}, []),
    "ramsey": (_FRINGE_FLAGS, ["--single-q", "--no-phase-lock"]),
    "echo": ({**_FRINGE_FLAGS, "--pi2": ["ideal", "reference:pi2 --pi=reference:pi"],
              "--n-echo": [None, "1", "2"]}, ["--single-q", "--no-phase-lock"]),
    "coherence": ({"--fringe": ["{dir}/fringe.csv"], "--period": ["88.8", "44.4"]}, []),
}
#: Config counts lowered to keep a drawn run tiny, (section, key, cap, largest
#: valid value): a count above the cap but valid becomes the cap, and an
#: absent one is set to it; junk is left to be refused.
_CAPS = (("basis", "shell_radius", 3, MAX_SHELL_RADIUS),
         ("ensemble", "quadrature", 5, MAX_QUADRATURE),
         ("optimizer", "max_iters", 1, MAX_COUNT),
         ("optimizer", "restarts", 1, MAX_COUNT))


@st.composite
def _runs(draw):
    """A subcommand's argv without --config and --out, each of its n flags a
    boundary value one time in 2n + 1 and a tiny value otherwise; a config
    from :func:`_config_mappings` half the time, none otherwise, under
    :data:`_CAPS`; and, one time in ten, a NaN fidelity."""
    command = draw(st.sampled_from(sorted(_RUN_FLAGS)))
    flags, switches = _RUN_FLAGS[command]
    argv = [command]
    for flag, tiny in flags.items():
        value = draw(st.sampled_from(tiny) if draw(st.integers(0, 2 * len(flags)))
                     else st.sampled_from(_FLAG_BOUNDARY))
        argv += [] if value is None else [flag, *value.split()]
    argv += [switch for switch in switches if draw(st.booleans())]
    config = draw(_config_mappings()) if draw(st.booleans()) else {}
    for section, key, cap, most in _CAPS:
        table = config.setdefault(section, {})
        if (isinstance(table, dict) and type(table.setdefault(key, cap)) is int
                and cap < table[key] <= most):
            table[key] = cap
    return argv, config, draw(st.integers(0, 9)) == 0


def _main(argv, out):
    """``main`` on ``argv`` writing into ``out``: its exit code, argparse's
    included, and its standard error."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main([*argv, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _manifest(out):
    """The manifest in ``out``, checked against the files beside it."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(p.name for p in out.iterdir()) == sorted([*manifest["outputs"],
                                                            "manifest.json"])
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    return manifest


def _refused(config, *argv):
    return [*argv], config, False


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=_runs())
# The refused runs of the CI smoke step, and a design whose fidelity is NaN.
@example(run=_refused({}, "ramsey", "--pi2", "ideal", "--t-max", "400", "--dt", "nan"))
@example(run=_refused({}, "ramsey", "--pi2", "ideal", "--single-q", "--t-max", "270",
                      "--dt", "8"))
@example(run=_refused({}, "ramsey", "--pi2", "ideal", "--single-q", "--t-max", "400",
                      "--dt", "4", "--threads", "0"))
@example(run=_refused({}, "ramsey", "--pi2", "ideal", "--single-q", "--t-max", "400",
                      "--dt", "-inf"))
# A switch followed by a value, which argparse refuses as an explicit argument.
@example(run=_refused({}, "ramsey", "--pi2", "ideal", "--single-q", "-1", "--t-max", "400",
                      "--dt", "4"))
@example(run=_refused({"basis": {"shell_radius": 11}}, "bands", "--samples", "2"))
@example(run=_refused({"optimizer": {"learning_rate": 9}}, "design", "--kind", "pi2",
                      "--steps", "1"))
@example(run=_refused({}, "eval", "--sequence", "reference:nope", "--kind", "pi2"))
@example(run=_refused({}, "coherence", "--fringe", "{dir}/not-a-fringe.csv",
                      "--period", "88.8"))
@example(run=_refused({"ensemble": {"delta_q_hk": 50}}, "ramsey", "--pi2", "ideal",
                      "--t-max", "400", "--dt", "4"))
@example(run=_refused({"ensemble": {"width_schedule": [[0, 1.0e-300]]}}, "ramsey", "--pi2",
                      "ideal", "--t-max", "400", "--dt", "4"))
@example(run=_refused({"lattice": {"depth_Er": 1.0e+6}}, "bands", "--samples", "2"))
# A near-delta ensemble, whose weights were once 0/0, runs.
@example(run=(["ramsey", "--pi2", "ideal", "--t-max", "400", "--dt", "4"],
              {"ensemble": {"delta_q_hk": 1.0e-300, "quadrature": 5}}, False))
@example(run=(["design", "--kind", "pi2", "--steps", "1"], {}, True))
# File names too long for the system, which once raised OSError.
@example(run=_refused({}, "coherence", "--fringe", str(10**400), "--period", "88.8"))
@example(run=_refused({}, "eval", "--sequence", str(10**400), "--kind", "pi2"))
def test_main_keeps_its_exit_contract(tmp_path, run):
    """Any subcommand, flags and config exit 0, 2, 3 or 4.  On 2 or 4 stderr
    holds a message and no traceback, and --out does not exist; otherwise
    every output matches its manifest hash, and a rerun (ramsey and echo at
    the other thread count) gives the same run id and the same bytes."""
    argv, config, nan_fidelity = run
    where = Path(tempfile.mkdtemp(dir=tmp_path))
    fringe = TestCoherenceCommand._fringe_csv(where / "fringe.csv").read_text()
    (where / "not-a-fringe.csv").write_text(fringe.replace("t_us,p_d", "t_us,contrast"))
    (where / "c.yaml").write_text(yaml.safe_dump(config))
    argv = [token.format(dir=where) for token in argv] + ["--config", str(where / "c.yaml")]
    with pytest.MonkeyPatch.context() as patch:
        if nan_fidelity:
            patch.setattr(shortcut, "fidelity", lambda seq, obj: math.nan)
        code, err = _main(argv, where / "out")
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_THRESHOLD, EXIT_NUMERICAL), err
        if code in (EXIT_VALIDATION, EXIT_NUMERICAL):
            assert err.startswith(("error: ", "numerical failure: ", "usage: ")), err
            assert "Traceback" not in err
            assert not (where / "out").exists()
            return
        manifest = _manifest(where / "out")
        if argv[0] in ("ramsey", "echo"):  # the last --threads given counts
            threads = argv[argv.index("--threads") + 1] if "--threads" in argv else "1"
            argv = [*argv, "--threads", "2" if threads == "1" else "1"]
        assert _main(argv, where / "rerun")[0] == code
    rerun = _manifest(where / "rerun")
    assert (rerun["run_id"], rerun["outputs"]) == (manifest["run_id"], manifest["outputs"])


_FRINGE_BASE = ["--pi2", "ideal", "--single-q", "--t-max", "400", "--dt", "4"]
#: Every numeric flag of the subcommands, after an argv that keeps its run tiny
#: (a value that passes leaves a one-step, one-iteration design).
_NUMERIC_FLAGS = [
    (["bands"], "--samples"),
    *((["design", "--kind", "pi2", "--steps", "1", "--variable-amplitude"], flag)
      for flag in ("--steps", "--depth-min", "--depth-max", "--threshold", "--seed")),
    *(([command, *_FRINGE_BASE], flag) for command in ("ramsey", "echo")
      for flag in ("--t-max", "--dt", "--contrast-window", "--threads")),
    (["echo", *_FRINGE_BASE], "--n-echo"),
    (["coherence", "--fringe", "{dir}/fringe.csv"], "--period"),
]


@pytest.mark.parametrize("value", ["-inf", "-nan", "-1e3"])
@pytest.mark.parametrize("argv, flag", _NUMERIC_FLAGS,
                         ids=[f"{argv[0]}{flag}" for argv, flag in _NUMERIC_FLAGS])
def test_a_value_with_a_minus_reads_the_same_in_either_form(tmp_path, argv, flag, value):
    """``--flag v`` and ``--flag=v`` give the same exit code and stderr, where
    argparse alone reads -inf, -nan or -1e3 after a flag as an unknown option."""
    TestCoherenceCommand._fringe_csv(tmp_path / "fringe.csv")
    (tmp_path / "c.yaml").write_text("optimizer: {max_iters: 1, restarts: 1}\n")
    argv = [token.format(dir=tmp_path) for token in argv] + ["--config", str(tmp_path / "c.yaml")]
    spaced = _main([*argv, flag, value], tmp_path / "spaced")
    assert spaced == _main([*argv, f"{flag}={value}"], tmp_path / "joined")
    assert "expected one argument" not in spaced[1]
