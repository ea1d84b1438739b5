"""Sweep tables, serialization, presets and the command-line surface."""

import contextlib
import io
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascade_mazer.cli import (
    _PRESETS,
    PRESET_NAMES,
    PhysicalScale,
    SweepSpec,
    Table,
    _build_parser,
    emission_sweep,
    jc_sweep,
    main,
    parse_table,
    physical_scale,
    run_preset,
    serialize,
    steady_sweep,
    units_table,
)
from cascade_mazer.master import MazerConfig
from cascade_mazer.scattering import (
    CavityBeam,
    ScatterInput,
    gain_probabilities,
    scatter_channels,
)

# The advice for a beam whose amplitudes overflow.
_BEAM_SCALE = "bring k_ratio, kappa_l and gamma to a physical scale"
# The advice for a beam whose transit time overflows, and the bound of a photon count.
_G1_TAU = "raise k_ratio or lower kappa_l"
_LARGEST_FLOAT = "1.798e+308, the largest float"

BASE = ScatterInput(k_ratio=0.01, kappa_l=0.0, gamma=2.0, n1=0, n2=0)


def small_config(**kw):
    kw.setdefault("r_over_c", 10.0)
    kw.setdefault("nb1", 0.0)
    kw.setdefault("nb2", 0.0)
    kw.setdefault("beam", CavityBeam(k_ratio=0.01, kappa_l=20000.0 * math.pi, gamma=2.0))
    kw.setdefault("n1_max", 32)
    kw.setdefault("n2_max", 32)
    return MazerConfig(**kw)


class TestSerialization:
    def sample(self):
        return Table(
            columns=["n", "value"],
            rows=[[0, 0.5], [1, 0.25], [2, 1e-300]],
            meta={"command": "demo", "config": {"alpha": 1.5}},
        )

    def test_round_trip_csv(self):
        t = self.sample()
        assert parse_table(serialize(t, "csv")) == t

    def test_round_trip_json(self):
        t = self.sample()
        assert parse_table(serialize(t, "json")) == t

    def test_csv_layout(self):
        lines = serialize(self.sample(), "csv").splitlines()
        assert lines[0].startswith("# {")
        assert json.loads(lines[0][2:])["command"] == "demo"
        assert lines[1] == "n,value"
        assert lines[2] == "0,0.5"

    def test_integers_survive_round_trip(self):
        t = parse_table(serialize(self.sample(), "csv"))
        assert t.rows[0][0] == 0 and isinstance(t.rows[0][0], int)
        assert isinstance(t.rows[0][1], float)

    def test_empty_table_is_header_and_comment_only(self):
        t = Table(columns=["a", "b"], rows=[], meta={"command": "demo"})
        text = serialize(t, "csv")
        assert text.count("\n") == 2
        assert parse_table(text) == t

    def test_output_is_byte_stable(self):
        a = serialize(self.sample(), "json")
        b = serialize(self.sample(), "json")
        assert a == b

    def test_non_finite_cell_rejected(self):
        t = Table(columns=["n", "value"], rows=[[0, 0.5], [1, math.inf]], meta={})
        with pytest.raises(ValueError, match="value = inf: the inputs overflow;"):
            serialize(t)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            serialize(self.sample(), "xml")


class TestSweepSpec:
    def test_rejects_unknown_parameter(self):
        with pytest.raises(ValueError):
            SweepSpec(param="gamma", start=0.0, end=1.0, steps=5, base=BASE)

    def test_rejects_degenerate_range(self):
        with pytest.raises(ValueError):
            SweepSpec(param="kappa_l", start=1.0, end=1.0, steps=5, base=BASE)
        with pytest.raises(ValueError):
            SweepSpec(param="kappa_l", start=0.0, end=1.0, steps=1, base=BASE)
        with pytest.raises(ValueError, match="^end must be finite, got inf$"):
            SweepSpec(param="kappa_l", start=0.0, end=math.inf, steps=5, base=BASE)
        with pytest.raises(ValueError,
                           match=r"^end - start overflows, from -1e\+308 to 1e\+308; narrow"):
            SweepSpec(param="kappa_l", start=-1e308, end=1e308, steps=5, base=BASE)


class TestEmissionSweep:
    def test_silent_cavity_row_emits_nothing(self):
        spec = SweepSpec(param="kappa_l", start=0.0, end=10.0, steps=2, base=BASE)
        t = emission_sweep(spec)
        first = dict(zip(t.columns, t.rows[0]))
        assert first["kappa_l"] == 0.0
        assert first["p_one"] == 0.0 and first["p_two"] == 0.0
        assert first["jc_p_one"] == 0.0 and first["jc_p_two"] == 0.0
        assert first["refl_a"] == 0.0 and first["trans_a"] == 1.0

    def test_rows_cover_inclusive_range_in_order(self):
        spec = SweepSpec(param="kappa_l", start=0.0, end=100.0, steps=51, base=BASE)
        t = emission_sweep(spec)
        swept = [row[0] for row in t.rows]
        assert swept == list(np.linspace(0.0, 100.0, 51))

    def test_momentum_sweep_runs(self):
        spec = SweepSpec(param="k_ratio", start=50.0, end=150.0, steps=11, base=BASE)
        t = emission_sweep(spec)
        assert t.columns[0] == "k_ratio"
        assert len(t.rows) == 11

    def test_sweep_is_deterministic(self):
        spec = SweepSpec(param="kappa_l", start=0.0, end=500.0, steps=200, base=BASE)
        assert serialize(emission_sweep(spec)) == serialize(emission_sweep(spec))

    @pytest.mark.parametrize(
        "spec",
        [
            # sampled points of the fig3a and fig3b windows
            SweepSpec(param="kappa_l", start=62800.0, end=62864.0, steps=97, base=BASE),
            SweepSpec(
                param="kappa_l", start=0.0, end=2000.0 * math.pi, steps=89,
                base=replace(BASE, k_ratio=100.0),
            ),
            SweepSpec(
                param="k_ratio", start=0.05, end=3.0, steps=83,
                base=ScatterInput(k_ratio=1.0, kappa_l=40.0, gamma=1.3, n1=3, n2=2),
            ),
        ],
        ids=["fig3a-window", "fig3b-window", "k-ratio"],
    )
    def test_rows_equal_the_scalar_api(self, spec):
        t = emission_sweep(spec)
        for row in t.rows:
            cells = dict(zip(t.columns, row))
            inp = replace(spec.base, **{spec.param: cells[spec.param]})
            gain = gain_probabilities(inp)
            ch = scatter_channels(inp)
            assert cells["p_one"] == gain.p_one
            assert cells["p_two"] == gain.p_two
            assert cells["refl_a"] == abs(ch.r_a) ** 2
            assert cells["trans_a"] == abs(ch.t_a) ** 2


def test_jc_sweep_shape_and_validation():
    t = jc_sweep(2.0, 0, 0, 0.0, 2.0 * math.pi, 9)
    assert t.columns == ["g1_tau", "p_one", "p_two"]
    assert len(t.rows) == 9
    with pytest.raises(ValueError):
        jc_sweep(2.0, 0, 0, 1.0, 0.0, 9)
    with pytest.raises(ValueError, match="^end must be finite, got inf$"):
        jc_sweep(2.0, 0, 0, 0.0, math.inf, 9)


class TestSteadySweep:
    def test_table_carries_moments_and_convergence(self):
        t = steady_sweep(small_config(), method="direct")
        assert t.columns == ["n", "p1", "p2"]
        assert len(t.rows) == 32
        assert sum(r[1] for r in t.rows) == pytest.approx(1.0, abs=1e-9)
        assert t.meta["moments"]["label1"] in (
            "sub-Poissonian", "Poissonian", "super-Poissonian"
        )
        assert "residual" in t.meta["convergence"]
        assert "tail_leak" in t.meta["convergence"]

    def test_empty_mode_is_labelled_vacuum(self):
        # gamma = 0 leaves mode 2 unfed and at zero temperature
        t = steady_sweep(small_config(beam=CavityBeam(k_ratio=0.01, kappa_l=20000.0 * math.pi,
                                                      gamma=0.0), r_over_c=5.0))
        assert t.meta["moments"]["mean2"] == 0.0
        assert t.meta["moments"]["var2_norm"] == 0.0
        assert t.meta["moments"]["label2"] == "vacuum"
        assert t.meta["moments"]["label1"] == "sub-Poissonian"

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            steady_sweep(small_config(), method="euler")


class TestPhysicalScale:
    def test_rubidium_defaults(self):
        ps = PhysicalScale()
        length, temperature, kappa = physical_scale(ps, 20000.0 * math.pi, 0.01)
        assert length == pytest.approx(153.3e-6, rel=5e-3)
        assert temperature == pytest.approx(4.8e-8, rel=5e-3)
        assert kappa == pytest.approx(4.099e8, rel=5e-3)

    def test_stationary_atom_has_zero_temperature(self):
        length, temperature, _ = physical_scale(PhysicalScale(), 100.0, 0.0)
        assert temperature == 0.0
        assert length > 0.0

    def test_rejects_nonpositive_anchors(self):
        with pytest.raises(ValueError):
            PhysicalScale(g1_rad_per_s=0.0)
        with pytest.raises(ValueError):
            PhysicalScale(atom_mass_kg=-1.0)

    def test_units_table_row(self):
        t = units_table(PhysicalScale(), 20000.0 * math.pi, 0.01)
        assert t.columns == ["cavity_length_m", "temperature_K", "kappa_per_m"]
        assert len(t.rows) == 1

    def test_constants_are_scipys_codata_values(self):
        from scipy import constants

        from cascade_mazer import units

        assert units.ATOMIC_MASS_KG == constants.atomic_mass
        assert units.HBAR == constants.hbar
        assert units.K_B == constants.k


class TestPresets:
    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            run_preset("fig99")

    def test_emission_preset_structure(self):
        t = run_preset("fig3b")
        assert t.meta["preset"] == "fig3b"
        assert t.meta["config"]["k_ratio"] == 100.0
        assert len(t.rows) == 2000
        assert t.rows[-1][0] == pytest.approx(2000.0 * math.pi)

    def test_emission_preset_refuses_steady_settings(self):
        with pytest.raises(ValueError, match=r"^preset 'fig3b' is an emission sweep and takes "
                           r"no steady-state settings; drop method, dt, tol, t_max$"):
            run_preset("fig3b", method="bogus", dt=-1.0, tol=float("nan"), t_max=0.0)

    def test_slow_beam_preset_notes_presentation_scaling(self):
        t = run_preset("fig3a")
        assert "unscaled" in t.meta["note"]
        assert len(t.rows) == 8000

    def test_steady_preset_small_grid(self):
        t = run_preset("fig4a", grid=(64, 64), method="direct")
        assert t.meta["preset"] == "fig4a"
        mean1 = t.meta["moments"]["mean1"]
        assert 13.0 < mean1 < 19.0
        assert t.meta["moments"]["label1"] == "super-Poissonian"
        assert t.meta["moments"]["label2"] == "sub-Poissonian"

    @pytest.mark.parametrize("name", ["fig4a", "fig4b", "fig5", "fig6", "fig7"])
    def test_direct_preset_reports_nonnegative_leak(self, name):
        # the leak is the outflow of the clamped, nonnegative distribution
        assert run_preset(name).meta["convergence"]["tail_leak"] >= 0.0

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_is_its_command_with_the_preset_flags(self, name, tmp_path):
        # the steady presets at 96^2, where fig6's wide thermal distribution fits
        command, flags, _, twolevel_column = _PRESETS[name]
        steady = command == "steady"
        argv = [f"--{key.replace('_', '-')}={value}" for key, value in flags.items()]
        argv += ["--grid=96x96"] if steady else []
        table = run_preset(name, grid=(96, 96) if steady else None)
        del table.meta["preset"]
        table.meta.pop("note", None)
        if twolevel_column:
            # the gamma = 0 column is the oracle-twolevel command on the same cavity
            oracle = [arg for arg in argv if not arg.startswith(("--g-ratio=", "--dt="))]
            assert main(["oracle-twolevel", *oracle, "--out", str(tmp_path / "oracle")]) == 0
            balance = parse_table((tmp_path / "oracle").read_text())
            assert [row.pop() for row in table.rows] == [row[1] for row in balance.rows]
            assert table.columns.pop() == "p1_twolevel"
        assert main([command, *argv, "--out", str(tmp_path / "table")]) == 0
        assert (tmp_path / "table").read_text() == serialize(table)

    def test_thermal_preset_carries_oracle_column(self):
        # nb=1 widens the distribution: 64^2 leaks too much for the direct
        # solver's residual gate, 96^2 has the needed headroom
        t = run_preset("fig6", grid=(96, 96), method="direct")
        assert t.columns == ["n", "p1", "p2", "p1_twolevel"]
        assert sum(r[3] for r in t.rows) == pytest.approx(1.0, abs=1e-12)
        assert "unscaled" in t.meta["note"]


class TestCommandLine:
    def test_units_to_stdout(self, capsys):
        assert main(["units"]) == 0
        out = capsys.readouterr().out
        t = parse_table(out)
        assert t.meta["command"] == "units"

    def test_emission_to_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main([
            "emission", "--start", "0", "--end", "100", "--steps", "5",
            "--out", str(out),
        ])
        assert rc == 0
        t = parse_table(out.read_text())
        assert len(t.rows) == 5

    def test_json_format_flag(self, tmp_path):
        out = tmp_path / "sweep.json"
        rc = main([
            "jc", "--steps", "4", "--start", "0", "--end", "1",
            "--out", str(out), "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["g1_tau", "p_one", "p_two"]

    def test_emission_requires_a_range(self, capsys):
        assert main(["emission"]) == 1
        assert "start" in capsys.readouterr().err

    def test_solver_failure_exits_nonzero(self, capsys):
        rc = main(["steady", "--grid", "8x8"])
        assert rc == 1
        assert "grid" in capsys.readouterr().err

    def test_non_finite_solver_setting_exits_cleanly(self, capsys):
        rc = main(["steady", "--method", "rk4", "--t-max", "inf", "--grid", "16x16"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "t_max must be finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("setting, value, message", [
        ("--dt", "-5", "dt must be > 0"),
        ("--tol", "nan", "tol must be finite"),
        ("--t-max", "0", "t_max must be > 0"),
    ])
    def test_direct_solve_checks_the_rk4_settings_it_echoes(self, capsys, setting, value, message):
        # the table's config echoes dt, tol and t_max, so the direct method
        # checks them too: a NaN there would make the JSON table invalid
        rc = main(["steady", "--grid", "16x16", "--r-over-c", "1", setting, value])
        assert rc == 1
        out, err = capsys.readouterr()
        assert message in err and out == ""

    @pytest.mark.parametrize("argv, advice", [
        (["--method", "rk4", "--r-over-c", "1", "--t-max", "1e300", "--dt", "1e-10"],
         "raise dt (--dt) or lower t_max (--t-max)"),
        (["--c1", "1e308"], "or use a smaller grid (--grid)"),
        (["--c1", "1e308", "--method", "rk4"], "or use a smaller grid (--grid)"),
    ])
    def test_overflowing_settings_exit_with_advice(self, capsys, argv, advice):
        assert main(["steady", "--grid", "8x8", *argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("cascade-mazer: ") and err.endswith(f"{advice}\n")
        assert err.count("\n") == 1

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["steady", "--frobnicate"])
        assert exc.value.code == 2

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# small smoke run\n"
            "r-over-c = 10\n"
            "grid = 32x32\n"
            "method = direct\n"
        )
        rc = main(["steady", "--config", str(cfg), "--r-over-c", "5"])
        assert rc == 0
        t = parse_table(capsys.readouterr().out)
        assert t.meta["config"]["r_over_c"] == 5.0
        assert t.meta["config"]["n1_max"] == 32
        assert t.meta["config"]["method"] == "direct"

    def test_config_run_leaves_the_next_run_at_the_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = rk4\ndt = 0.05\n")
        argv = ["steady", "--grid", "16x16", "--r-over-c", "1"]
        assert main(argv + ["--config", str(cfg)]) == 0
        assert parse_table(capsys.readouterr().out).meta["config"]["method"] == "rk4"
        assert main(argv) == 0
        assert parse_table(capsys.readouterr().out).meta["config"]["method"] == "direct"
        assert _build_parser() is _build_parser()

    @pytest.mark.parametrize("setting, flag", [
        ("steps = 2.5", ["--steps", "2.5"]),
        ("sweep = gamma", ["--sweep", "gamma"]),
    ])
    def test_config_value_fails_as_the_flag_does(self, tmp_path, capsys, setting, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(setting + "\n")
        errors = []
        for argv in (["emission", "--config", str(cfg)], ["emission", *flag]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err.splitlines()[-1])
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"cascade-mazer emission: error: argument {flag[0]}: invalid")

    def test_config_value_may_start_with_a_dash(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa-l = -5\n")
        assert main(["units", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "cascade-mazer: kappa_l must be >= 0, got -5.0\n"

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 3\n")
        assert main(["steady", "--config", str(cfg), "--grid", "16x16"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cascade-mazer: ")
        assert str(cfg) in err and "'gamma'" in err and "g-ratio" in err

    @pytest.mark.parametrize(
        "command, setting, flag",
        [
            (["steady"], "grid = abc", "--grid"),
            (["emission"], "steps = 2.5", "--steps"),
            (["steady"], "method = euler", "--method"),
        ],
    )
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, command, setting, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(setting + "\n")
        with pytest.raises(SystemExit) as exc:
            main(command + ["--config", str(cfg)])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    def test_malformed_grid_names_the_expected_form(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid = axb\n")
        for argv in (["steady", "--grid", "axb"], ["steady", "--config", str(cfg)]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "argument --grid: grid must look like 128x128" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--kappa-l", "-5", "kappa_l must be >= 0, got -5.0"),
            ("--kappa-l", "inf", "kappa_l must be finite, got inf"),
            ("--k-ratio", "nan", "k_ratio must be finite, got nan"),
            ("--k-ratio", "-1", "k_ratio must be >= 0, got -1.0"),
        ],
    )
    def test_units_rejects_impossible_beams(self, capsys, flag, value, message):
        assert main(["units", flag, value]) == 1
        assert capsys.readouterr().err == f"cascade-mazer: {message}\n"

    def test_malformed_config_line_fails(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not a setting\n")
        assert main(["units", "--config", str(cfg)]) == 1
        assert "key=value" in capsys.readouterr().err

    def test_oracle_command(self, capsys):
        rc = main(["oracle-twolevel", "--nb", "0.4", "--grid", "16x16"])
        assert rc == 0
        t = parse_table(capsys.readouterr().out)
        assert t.columns == ["n", "p1_balance", "p2_thermal"]
        assert t.meta["config"]["gamma"] == 0.0

    def test_oracle_names_an_overflowing_beam(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["oracle-twolevel", "--k-ratio", "1e200", "--grid", "4x4"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "k_ratio=1e+200" in err and _BEAM_SCALE in err
        assert "r_over_c" not in err

    @pytest.mark.parametrize("argv, named, advice", [
        (["emission", "--start", "1", "--end", "1e400", "--steps", "3"],
         "end must be finite, got inf", ""),
        (["jc", "--steps", "3", "--end", "inf"], "end must be finite, got inf", ""),
        (["jc", "--g-ratio", "1e160", "--steps", "3"], "gamma=1e+160", "lower gamma or g1_tau"),
        (["emission", "--g-ratio", "1e160", "--k-ratio", "1", "--start", "0", "--end", "1",
          "--steps", "3"], "gamma=1e+160", _BEAM_SCALE),
        (["steady", "--g-ratio", "1e160", "--grid", "8x8", "--r-over-c", "0.1"], "gamma=1e+160",
         _BEAM_SCALE),
        # lowering a subnormal k_ratio makes it worse
        (["emission", "--k-ratio", "1e-310", "--start", "0", "--end", "1", "--steps", "3"],
         "k_ratio=1e-310", _BEAM_SCALE),
        # g1_tau, which emission has no flag for, was named
        (["emission", "--k-ratio", "1e-300", "--start", "1e10", "--end", "1e12", "--steps", "3"],
         "kappa_l=10000000000.0, k_ratio=1e-300", _G1_TAU),
        (["emission", "--sweep", "k-ratio", "--start", "1e-300", "--end", "1e-299", "--steps", "3",
          "--kappa-l", "1e10"], "kappa_l=10000000000.0, k_ratio=1e-300", _G1_TAU),
        # counts beyond the largest float: a traceback from n1 + 1.0, or numpy's own message
        (["jc", "--n1", str(10**400), "--steps", "3"], "n1 must be at most", _LARGEST_FLOAT),
        (["emission", "--start", "0", "--end", "1", "--steps", "3", "--n2", str(10**400)],
         "n2 must be at most", _LARGEST_FLOAT),
        (["oracle-twolevel", "--grid", f"4x{10**400}"], "n2_max must be at most", _LARGEST_FLOAT),
        (["steady", "--method", "rk4", "--grid", f"{10**400}x4"], "n1_max must be at most",
         _LARGEST_FLOAT),
    ])
    def test_overflowing_inputs_are_named_in_one_line(self, capsys, argv, named, advice):
        # each of these printed a numpy warning, blamed nan or gave the wrong advice
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("cascade-mazer: ") and err.count("\n") == 1
        assert named in err and err.endswith(f"{advice}\n") and "nan" not in err

    def test_oracle_takes_no_solver_flags(self):
        with pytest.raises(SystemExit) as exc:
            main(["oracle-twolevel", "--method", "rk4"])
        assert exc.value.code == 2

    def test_emission_preset_refuses_steady_flags(self, capsys):
        rc = main(["preset", "fig3b", "--grid", "8x8", "--method", "rk4", "--dt", "-5",
                   "--tol", "nan", "--t-max", "0"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("cascade-mazer: preset 'fig3b' is an emission sweep and takes no "
                       "steady-state settings; drop grid, method, dt, tol, t_max\n")

    def test_preset_command(self, tmp_path):
        out = tmp_path / "fig3b.csv"
        rc = main(["preset", "fig3b", "--out", str(out)])
        assert rc == 0
        assert parse_table(out.read_text()).meta["preset"] == "fig3b"


# Cheap commands only: sweeps of at most 5 points, grids of at most 8x8, and
# never the time stepper, whose default t_max takes seconds even on 8x8.
_FUZZ_NUMBERS = st.sampled_from(
    ["0", "-0.0", "-1", "1e-300", "0.5", "3", "1e308", "nan", "inf", "-inf"]
) | st.floats(-1e3, 1e3).map(repr)
_FUZZ_GRIDS = st.sampled_from(
    ["2x2", "8x8", "3x8", "8x2", "1x8", "0x4", "-2x4", "8", "8x8x8", "axb", ""]
)
_FUZZ_FLAGS = {
    "units": ["--k-ratio", "--kappa-l", "--g1", "--mass-kg"],
    "jc": ["--g-ratio", "--start", "--end"],
    "emission": ["--k-ratio", "--kappa-l", "--g-ratio", "--start", "--end"],
    "oracle-twolevel": ["--k-ratio", "--kappa-l", "--r-over-c", "--nb", "--c1", "--c2"],
    "steady": ["--k-ratio", "--kappa-l", "--g-ratio", "--r-over-c", "--nb", "--c1", "--c2"],
}
_FUZZ_CONFIG_KEYS = ["grid", "steps", "k-ratio", "nb", "start", "gamma", "frobnicate"]


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(_FUZZ_FLAGS[command]), unique=True)):
        argv.append(f"{flag}={draw(_FUZZ_NUMBERS)}")
    if command in ("jc", "emission"):
        argv += [f"--steps={draw(st.integers(-1, 5))}",
                 f"--n1={draw(st.integers(-1, 4))}", f"--n2={draw(st.integers(-1, 4))}"]
    if command == "emission":
        argv.append(f"--sweep={draw(st.sampled_from(['kappa-l', 'k-ratio']))}")
    if command in ("oracle-twolevel", "steady"):
        argv.append(f"--grid={draw(_FUZZ_GRIDS)}")
    argv.append(f"--format={draw(st.sampled_from(['csv', 'json']))}")
    return argv, draw(st.none() | st.tuples(
        st.sampled_from(_FUZZ_CONFIG_KEYS), _FUZZ_NUMBERS | _FUZZ_GRIDS))


class TestCommandLineFuzz:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=_cli_argv())
    @example(case=(["units", "--kappa-l=inf"], None))
    @example(case=(["units", "--k-ratio=nan"], None))
    @example(case=(["units", "--g1=1e-300"], None))
    @example(case=(["oracle-twolevel", "--k-ratio=1e308", "--grid=2x2"], None))
    @example(case=(["emission", "--sweep=k-ratio", "--start=-1", "--end=1", "--steps=3"], None))
    @example(case=(["steady", "--method=rk4", "--grid=8x8", "--r-over-c=1", "--t-max=1e300",
                    "--dt=1e-10"], None))
    @example(case=(["emission", "--start=1", "--end=inf", "--steps=3"], None))
    @example(case=(["jc", "--g-ratio=1e160", "--steps=3"], None))
    @example(case=(["jc", f"--n1={10**400}", "--steps=3"], None))
    @example(case=(["emission", "--k-ratio=1e-300", "--start=1e10", "--end=1e12", "--steps=3"],
                   None))
    @example(case=(["emission", "--sweep=k-ratio", "--start=1e-300", "--end=1e-299", "--steps=3",
                    "--kappa-l=1e10"], None))
    def test_exits_cleanly_with_finite_tables(self, tmp_path_factory, case):
        argv, setting = case
        workdir = tmp_path_factory.mktemp("fuzz")
        out = workdir / "table"
        argv = argv + ["--out", str(out)]
        if setting is not None:
            (workdir / "run.cfg").write_text(f"{setting[0]} = {setting[1]}\n")
            argv += ["--config", str(workdir / "run.cfg")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            table = parse_table(out.read_text())
            assert all(math.isfinite(cell) for row in table.rows for cell in row)
