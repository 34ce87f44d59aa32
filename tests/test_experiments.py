import json
import os
import re
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import sqitest
from sqitest import distributions as dist
from sqitest import hypotests as ht
from sqitest.cli import _build_parser, _curve_config, main
from sqitest.experiments import (
    CONFIG_KEYS,
    ExperimentConfig,
    VerifyReport,
    _resolve_eta,
    run_curve,
    run_verify,
)
from sqitest.hypotests import si_type2_n2
from sqitest.phase_space import SqueezeParam, rng_stream, whitened_signal

SRC = Path(__file__).resolve().parents[1] / "src"

# a value per config key, as written in a file or a flag, and as read
KEY_VALUES = {"m": ("2", 2), "n": ("5", 5), "N": ("0.25", 0.25), "alpha": ("0.1", 0.1),
              "theta_min": ("0.5", 0.5), "theta_max": ("4", 4.0), "theta_steps": ("7", 7),
              "eta": ("zero", ("zero",)), "reps": ("10", 10), "seed": ("4", 4),
              "out": ("x.csv", "x.csv")}


def read_curve(path):
    comments, header, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(t) for t in line.split(",")])
    return comments, header, np.array(rows)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(theta_steps=0)
        with pytest.raises(ValueError):
            ExperimentConfig(theta_min=2.0, theta_max=1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(reps=-1)
        with pytest.raises(ValueError):
            ExperimentConfig(alpha=0.0)

    def test_negative_seed_rejected(self):
        # numpy's own error ("expected non-negative integer") did not name
        # the seed, and with reps = 0 the seed was accepted and echoed
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            ExperimentConfig(seed=-1)
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            ExperimentConfig.from_text("seed = -1\nreps = 0\n")
        assert ExperimentConfig(seed=0).seed == 0

    @pytest.mark.parametrize("kwargs,key", [
        ({"theta_max": float("nan")}, "theta_max"),
        ({"theta_max": float("inf")}, "theta_max"),
        ({"mixture": float("nan")}, "N"),
        ({"mixture": float("inf"), "copies": 2}, "N"),
    ])
    def test_non_finite_bounds_rejected(self, kwargs, key):
        # nan fails every comparison, so theta_max <= theta_min let it through
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            ExperimentConfig(**kwargs)

    def test_single_point_grid_allowed(self):
        cfg = ExperimentConfig(theta_min=0.0, theta_max=0.0, theta_steps=1)
        assert cfg.theta_grid.tolist() == [0.0]

    def test_from_text(self):
        text = """
        m = 1
        n = 3
        N = 0.5
        alpha = 0.1
        theta_steps = 5
        eta = zero L-imag-theta
        seed = 42
        out = x.csv
        """
        cfg = ExperimentConfig.from_text(text)
        assert cfg.copies == 3 and cfg.mixture == 0.5 and cfg.alpha == 0.1
        assert cfg.etas == ("zero", "L-imag-theta")
        assert cfg.seed == 42 and cfg.out == "x.csv"

    def test_from_text_rejects_duplicate_key(self):
        with pytest.raises(ValueError, match="duplicate config key 'n'"):
            ExperimentConfig.from_text("n = 3\nn = 4\n")


class TestConfigKeys:
    def test_every_field_has_one_key(self):
        names = [name for name, _, _ in CONFIG_KEYS.values()]
        assert sorted(names) == sorted(f.name for f in fields(ExperimentConfig))
        assert KEY_VALUES.keys() == CONFIG_KEYS.keys()

    @pytest.mark.parametrize("key", list(KEY_VALUES))
    def test_key_is_settable_from_file_and_flag(self, key):
        text, want = KEY_VALUES[key]
        name = CONFIG_KEYS[key][0]
        assert getattr(ExperimentConfig(), name) != want
        assert getattr(ExperimentConfig.from_text(f"{key} = {text}"), name) == want
        args = _build_parser().parse_args(["curve", "--" + key.replace("_", "-"), text])
        assert getattr(_curve_config(args), name) == want

    def test_eta_flags_replace_the_file_list(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("eta = zero L-imag-theta\n")
        args = _build_parser().parse_args(["curve", "--config", str(cfg_path)])
        assert _curve_config(args).etas == ("zero", "L-imag-theta")
        args = _build_parser().parse_args(["curve", "--config", str(cfg_path),
                                           "--eta", "L-real-theta", "--eta", "zero"])
        assert _curve_config(args).etas == ("L-real-theta", "zero")

    def test_eta_path_with_a_space_is_quoted(self, tmp_path):
        assert ExperimentConfig.from_text('eta = "my eta.txt" zero').etas == ("my eta.txt",
                                                                              "zero")
        eta_path = tmp_path / "my eta.txt"
        eta_path.write_text(SqueezeParam.axis_family(1.5).to_text())
        cfg = ExperimentConfig(etas=(str(eta_path), "zero"), theta_steps=2,
                               out=str(tmp_path / "c.csv"))
        comments, header, _ = read_curve(run_curve(cfg))
        assert "beta_hh_eta_my eta" in header
        # the header's eta line reads back as the same two entries
        line = next(c for c in comments if c.startswith("# eta = "))
        assert ExperimentConfig.from_text(line[2:]).etas == cfg.etas


class TestRunCurve:
    def test_zero_grid_gives_trivial_row(self, tmp_path):
        out = tmp_path / "c.csv"
        cfg = ExperimentConfig(theta_min=0.0, theta_max=0.0, theta_steps=1,
                               out=str(out))
        run_curve(cfg)
        _, header, rows = read_curve(out)
        assert rows.shape[0] == 1
        for name, val in zip(header, rows[0]):
            if name.startswith("beta"):
                assert val == pytest.approx(0.95, abs=1e-9)

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_curve(ExperimentConfig(theta_steps=4, theta_max=1.0, reps=500,
                                   seed=3, out=str(a)))
        run_curve(ExperimentConfig(theta_steps=4, theta_max=1.0, reps=500,
                                   seed=3, out=str(b)))
        assert a.read_bytes() == b.read_bytes()

    def test_header_echoes_config(self, tmp_path):
        out = tmp_path / "c.csv"
        run_curve(ExperimentConfig(out=str(out)))
        assert out.read_text().splitlines()[:11] == [
            "# m = 1", "# n = 3", "# N = 0", "# alpha = 0.050000000000000003",
            "# theta_min = 0", "# theta_max = 3", "# theta_steps = 31",
            "# eta = zero L-real-theta L-imag-theta", "# reps = 0", "# seed = 0",
            "theta,beta_si,beta_hh_eta0,beta_hh_etaL_real,beta_hh_etaL_imag"]

    def test_default_grid_has_invariant_test_ahead(self, tmp_path):
        # on the desk grid the invariant test dominates; the far-tail
        # reversal (near theta = 31 at this level) is exercised by the
        # crossing tests
        out = tmp_path / "c.csv"
        run_curve(ExperimentConfig(theta_steps=7, theta_max=3.0, out=str(out)))
        _, header, rows = read_curve(out)
        si = rows[1:, header.index("beta_si")]
        hh = rows[1:, header.index("beta_hh_eta0")]
        assert np.all(si < hh)

    def test_monte_carlo_columns(self, tmp_path):
        out = tmp_path / "c.csv"
        run_curve(ExperimentConfig(theta_steps=2, theta_max=0.5, reps=2000,
                                   etas=("zero",), out=str(out)))
        _, header, rows = read_curve(out)
        assert "beta_hh_eta0_mc" in header and "beta_hh_eta0_stderr" in header
        i_mc = header.index("beta_hh_eta0_mc")
        i_an = header.index("beta_hh_eta0")
        i_se = header.index("beta_hh_eta0_stderr")
        for row in rows:
            assert abs(row[i_mc] - row[i_an]) < 5 * row[i_se]

    def test_two_copy_mixture_uses_lattice_route(self, tmp_path):
        # HH is undefined at n = 2 (needs n > 2m): its columns are NaN with a
        # note, while beta_si comes from the two-copy lattice law
        out = tmp_path / "c.csv"
        run_curve(ExperimentConfig(copies=2, mixture=0.5, theta_steps=2,
                                   theta_max=0.5, reps=100, etas=("zero",),
                                   out=str(out)))
        comments, header, rows = read_curve(out)
        assert any("Hotelling" in c for c in comments if c.startswith("# note"))
        for name in ("beta_hh_eta0", "beta_hh_eta0_mc", "beta_hh_eta0_stderr"):
            assert np.isnan(rows[:, header.index(name)]).all()
        assert np.isfinite(rows[:, header.index("beta_si")]).all()

    def test_one_mode_mixture_uses_branching_route(self, tmp_path):
        out = tmp_path / "c.csv"
        config = ExperimentConfig(copies=3, mixture=0.5, theta_steps=2, theta_max=0.5,
                                  etas=("zero",), out=str(out))
        run_curve(config)
        comments, header, rows = read_curve(out)
        assert not any("beta_si" in c for c in comments if c.startswith("# note"))
        want = ht.si_type2_branching(config.theta_grid, ht.TestSpec(1, 3, 0.5, 0.05))
        assert np.all(np.isfinite(want))
        np.testing.assert_array_equal(rows[:, header.index("beta_si")], want)

    def test_mixture_without_route_noted(self, tmp_path):
        out = tmp_path / "c.csv"
        run_curve(ExperimentConfig(modes=2, copies=5, mixture=0.5, theta_steps=2,
                                   theta_max=0.5, etas=("zero",), out=str(out)))
        comments, header, rows = read_curve(out)
        assert any(c.startswith("# note: beta_si not evaluated: no route") for c in comments)
        assert np.isnan(rows[:, header.index("beta_si")]).all()
        assert np.isfinite(rows[:, header.index("beta_hh_eta0")]).all()

    def test_eta_file_entry(self, tmp_path):
        eta_path = tmp_path / "myeta.txt"
        eta_path.write_text(SqueezeParam.axis_family(1.5).to_text())
        out = tmp_path / "c.csv"
        run_curve(ExperimentConfig(theta_steps=2, theta_max=0.5,
                                   etas=("zero", str(eta_path)), out=str(out)))
        _, header, _ = read_curve(out)
        assert "beta_hh_eta_myeta" in header

    def test_monte_carlo_streams_do_not_shift_with_the_seed(self, tmp_path):
        # near-equal thetas accept on the same draws, so if seed 7919 replayed
        # seed 0's draws, the estimates would match
        def mc(seed):
            out = tmp_path / f"c{seed}.csv"
            run_curve(ExperimentConfig(theta_min=1.0, theta_max=1.0 + 1e-9, theta_steps=3,
                                       etas=("zero",), reps=4000, seed=seed, out=str(out)))
            _, header, rows = read_curve(out)
            return rows[:, header.index("beta_hh_eta0_mc")]

        assert not np.array_equal(mc(7919)[:-1], mc(0)[1:])

    def test_monte_carlo_columns_equal_one_stacked_call(self, tmp_path):
        # every point is a shift of the draws of rng_stream(seed), so each
        # column equals one stacked call on a fresh copy of that stream;
        # blocks cross the edges of _MC_CHUNK
        out = tmp_path / "c.csv"
        cfg = ExperimentConfig(copies=4, theta_steps=3, reps=3 * ht._MC_CHUNK + 5,
                               seed=12, out=str(out))
        run_curve(cfg)
        _, header, rows = read_curve(out)
        spec = ht.TestSpec(1, 4, 0.0, 0.05)
        for entry in cfg.etas:
            label, eta, orient = _resolve_eta(entry, 1)
            signal = whitened_signal(orient * cfg.theta_grid[:, None], eta, 0.0)
            want = ht.hh_type2_montecarlo(signal, spec, cfg.reps, rng_stream(cfg.seed))
            assert rows[:, header.index(f"beta_hh_{label}_mc")].tolist() == want.value.tolist()
            assert (rows[:, header.index(f"beta_hh_{label}_stderr")].tolist()
                    == want.stderr.tolist())

    def test_monte_carlo_is_one_public_call_per_curve(self, tmp_path, monkeypatch):
        # every (eta, theta) point goes through hh_type2_montecarlo, the entry
        # point the bench tracer spans and whose reps it counts, in one call
        calls = []
        inner = ht.hh_type2_montecarlo

        def counting(signal, spec, reps, rng):
            calls.append((np.shape(signal), reps))
            return inner(signal, spec, reps, rng)

        monkeypatch.setattr(ht, "hh_type2_montecarlo", counting)
        for reps in (0, 100):
            run_curve(ExperimentConfig(copies=4, theta_steps=5, reps=reps,
                                       out=str(tmp_path / f"c{reps}.csv")))
        assert calls == [((3, 5, 2), 100)]

    def test_analytic_columns_are_one_cdf_call_per_curve(self, tmp_path, monkeypatch):
        # the whitened signals of every (eta, theta) form one stack and one
        # noncentral F cdf call; the scalar lambda = 0 call is the level
        # check of the critical point, solved once per curve
        calls = []
        inner = dist.noncentral_f_cdf

        def counting(c, params):
            calls.append(np.shape(params.noncentrality))
            return inner(c, params)

        monkeypatch.setattr(dist, "noncentral_f_cdf", counting)
        run_curve(ExperimentConfig(out=str(tmp_path / "c.csv")))
        assert calls == [(), (3, 31)]

    def test_analytic_columns_equal_per_eta_calls(self, tmp_path):
        # stacking the etas moves no bit: each column equals its own call
        out = tmp_path / "c.csv"
        cfg = ExperimentConfig(theta_max=40.0, theta_steps=241, out=str(out))
        run_curve(cfg)
        _, header, rows = read_curve(out)
        spec = ht.TestSpec(1, 3, 0.0, 0.05)
        for entry in cfg.etas:
            label, eta, orient = _resolve_eta(entry, 1)
            signal = whitened_signal(orient * cfg.theta_grid[:, None], eta, 0.0)
            want = ht.hh_type2_analytic(signal, spec)
            assert rows[:, header.index(f"beta_hh_{label}")].tolist() == want.tolist()

    def test_theta_zero_agrees_across_columns(self, tmp_path):
        # theta = 0 is the zero shift under every squeezing: one estimate
        out = tmp_path / "c.csv"
        run_curve(ExperimentConfig(copies=4, theta_steps=2, theta_max=1.0, reps=3000,
                                   seed=5, out=str(out)))
        _, header, rows = read_curve(out)
        for suffix in ("_mc", "_stderr"):
            cells = {rows[0, i] for i, h in enumerate(header)
                     if h.startswith("beta_hh_") and h.endswith(suffix)}
            assert len(cells) == 1
        assert rows[1, header.index("beta_hh_etaL_real_mc")] != rows[
            1, header.index("beta_hh_etaL_imag_mc")]

    @pytest.mark.parametrize("same_stem", [False, True])
    def test_repeated_eta_label_rejected(self, tmp_path, same_stem):
        # the later column used to overwrite the earlier one silently
        if same_stem:
            etas = []
            for folder in ("a", "b"):
                (tmp_path / folder).mkdir()
                path = tmp_path / folder / "squeeze.txt"
                path.write_text(SqueezeParam.axis_family(1.5).to_text())
                etas.append(str(path))
            label = "eta_squeeze"
        else:
            etas, label = ["zero", "zero"], "eta0"
        out = tmp_path / "c.csv"
        with pytest.raises(ValueError, match=f"repeat the column label '{label}'"):
            run_curve(ExperimentConfig(theta_steps=2, theta_max=1.0, etas=etas,
                                       out=str(out)))
        assert not out.exists()

    def test_unknown_eta_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_curve(ExperimentConfig(etas=("bogus",), theta_steps=2,
                                       theta_max=1.0, out=str(tmp_path / "c.csv")))


class TestRunVerify:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_verify("nope")

    @pytest.mark.parametrize("suite", ["fock", "distributions", "tests"])
    def test_suite_passes(self, suite):
        report = run_verify(suite)
        assert report.failures == 0
        text = report.format()
        assert "[PASS]" in text and "failed" in text


    def test_report_text(self):
        report = VerifyReport("demo")
        report.add("small_residual", 1e-9, 1e-8)
        report.add("large_residual", 0.5, 1e-3, note="why")
        assert report.failures == 1
        assert report.format() == (
            "verification suite: demo\n"
            f"[PASS] {'small_residual':40s} residual=1.000e-09 tol=1.0e-08\n"
            f"[FAIL] {'large_residual':40s} residual=5.000e-01 tol=1.0e-03  (why)\n"
            "1 passed, 1 failed")


class TestCli:
    def test_scipy_imports_stay_the_pinned_set(self):
        # the modules a CLI start-up loads, read as bench/run.py's setup_code
        # reads them; scipy.stats alone would add about 0.7 s
        pattern = re.compile(r"^\s*(?:from|import)\s+(scipy(?:\.\w+)*)", re.M)
        mods = {m for path in Path(sqitest.__file__).parent.glob("*.py")
                for m in pattern.findall(path.read_text())}
        assert mods == {"scipy", "scipy.linalg", "scipy.sparse.linalg", "scipy.special"}

    def test_curve_command(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = main(["curve", "--theta-steps", "3", "--theta-max", "1.0",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_two_copy_curve_command(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main(["curve", "--m", "1", "--n", "2", "--N", "0.5",
                     "--theta-steps", "3", "--theta-max", "1.0", "--out", str(out)])
        assert code == 0
        _, header, rows = read_curve(out)
        want = [si_type2_n2(t, 1, 0.5, 0.05) for t in rows[:, 0]]
        assert rows[:, header.index("beta_si")].tolist() == want

    def test_flags_override_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("n = 3\nalpha = 0.2\ntheta_steps = 3\n"
                            f"out = {tmp_path / 'from_file.csv'}\n")
        out = tmp_path / "cli.csv"
        code = main(["curve", "--config", str(cfg_path), "--out", str(out),
                     "--theta-max", "1.0"])
        assert code == 0
        assert out.exists() and not (tmp_path / "from_file.csv").exists()
        comments, _, _ = read_curve(out)
        assert "# alpha = 0.2" in "\n".join(comments)  # file value survived

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        code = main(["curve", "--theta-steps", "0",
                     "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_config_typo_is_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("theta_mx = 9\n")
        code = main(["curve", "--config", str(cfg_path), "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert "error: unknown config key 'theta_mx'" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_eta_file_without_S_is_error(self, tmp_path, capsys):
        eta_path = tmp_path / "eta.txt"
        eta_path.write_text("m = 1\nA = 0\n")
        code = main(["curve", "--eta", str(eta_path), "--theta-steps", "3",
                     "--theta-max", "1.0", "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert "error: squeeze parameter text lacks S" in capsys.readouterr().err

    def test_eta_file_with_non_finite_entry_is_error(self, tmp_path, capsys):
        eta_path = tmp_path / "eta.txt"
        eta_path.write_text("m = 1\nA = 0\nS = nan\n")
        out = tmp_path / "c.csv"
        code = main(["curve", "--eta", str(eta_path), "--theta-steps", "3",
                     "--theta-max", "1.0", "--out", str(out)])
        assert code == 2
        assert "error: squeeze parameter entries must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_theta_past_the_noncentral_f_range_is_error(self, tmp_path, capsys):
        # beta_hh used to read 1 and beta_si nan here, with exit code 0
        out = tmp_path / "c.csv"
        code = main(["curve", "--theta-max", "1e100", "--theta-steps", "3", "--out", str(out)])
        assert code == 2
        assert "noncentrality must be finite, >= 0 and below 2^54" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--N", "0.5", "--theta-max", "1e100", "--theta-steps", "3"],
        # -log f(0) is only 11.5 here, but the photon law has 3.2 M atoms
        ["--N", "1e5", "--theta-max", "1", "--theta-steps", "2"],
    ], ids=["huge-theta", "huge-mixture"])
    def test_two_copy_mixed_curve_past_the_atom_bound_is_error(self, argv, tmp_path, capsys):
        # the lattice law here used to run without end
        out = tmp_path / "c.csv"
        start = time.perf_counter()
        code = main(["curve", "--n", "2", *argv, "--out", str(out)])
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert "needs more than 131072 atoms" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,key", [
        (["--theta-max", "nan"], "theta_max"),
        (["--theta-max", "inf"], "theta_max"),
        (["--N", "nan"], "N"),
        (["--N", "inf", "--n", "2"], "N"),
    ])
    def test_non_finite_bounds_are_errors(self, tmp_path, capsys, argv, key):
        code = main(["curve", *argv, "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert f"error: {key} must be finite" in capsys.readouterr().err

    def test_non_finite_bound_in_config_file_is_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("theta_max = nan\n")
        code = main(["curve", "--config", str(cfg_path), "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert "error: theta_max must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--alpha", "1e-10"],
        ["--m", "3", "--n", "7", "--alpha", "1e-9"],
    ])
    def test_small_alpha_curve_command(self, tmp_path, argv):
        out = tmp_path / "c.csv"
        assert main(["curve", *argv, "--out", str(out)]) == 0
        _, header, rows = read_curve(out)
        hh = rows[:, [i for i, h in enumerate(header) if h.startswith("beta_hh_")]]
        assert np.all((hh > 0.0) & (hh <= 1.0))

    def test_strongly_squeezed_eta_file_curve_command(self, tmp_path):
        eta_path = tmp_path / "strong.txt"
        eta_path.write_text(SqueezeParam(1, np.zeros((1, 1)),
                                         np.array([[12.0 * np.exp(0.52j)]])).to_text())
        out = tmp_path / "c.csv"
        code = main(["curve", "--eta", str(eta_path), "--n", "4", "--reps", "20000",
                     "--out", str(out)])
        assert code == 0
        _, header, rows = read_curve(out)
        col = {h: rows[:, i] for i, h in enumerate(header)}
        assert np.all(np.abs(col["beta_hh_eta_strong_mc"] - col["beta_hh_eta_strong"])
                      <= 4 * col["beta_hh_eta_strong_stderr"])

    def test_squeezing_20_eta_file_curve_command(self, tmp_path):
        # at |S| = 20, G G^T loses sigma's squeezed direction to rounding
        eta_path = tmp_path / "strong.txt"
        eta_path.write_text(SqueezeParam(1, np.zeros((1, 1)),
                                         np.array([[20 * np.exp(1.57j)]])).to_text())
        out = tmp_path / "c.csv"
        code = main(["curve", "--n", "4", "--N", "0.3", "--eta", str(eta_path),
                     "--theta-max", "2", "--theta-steps", "3", "--reps", "3000",
                     "--out", str(out)])
        assert code == 0
        _, header, rows = read_curve(out)
        beta = rows[:, header.index("beta_hh_eta_strong")]
        assert np.all(np.isfinite(beta)) and np.all(np.diff(beta) < 0)
        assert beta[0] == pytest.approx(0.95, rel=0.0, abs=1e-12)

    def test_monte_carlo_error_reaches_the_command(self, tmp_path, capsys, monkeypatch):
        # an error raised inside the Monte Carlo, here in its second block,
        # is reported by the CLI, and no CSV is written
        kernel, blocks = ht._bartlett_t2, []

        def failing(normals, chi2, n):
            blocks.append(len(normals))
            if len(blocks) == 2:
                raise ValueError("second block failed")
            return kernel(normals, chi2, n)

        monkeypatch.setattr(ht, "_bartlett_t2", failing)
        out = tmp_path / "c.csv"
        code = main(["curve", "--n", "4", "--theta-max", "1", "--theta-steps", "3",
                     "--reps", str(2 * ht._MC_CHUNK), "--out", str(out)])
        assert code == 2
        assert "error: second block failed" in capsys.readouterr().err
        assert blocks == [ht._MC_CHUNK] * 2 and not out.exists()

    def test_repeated_eta_label_is_usage_error(self, tmp_path, capsys):
        code = main(["curve", "--eta", "zero", "--eta", "zero",
                     "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert "error: eta entries repeat the column label 'eta0'" in capsys.readouterr().err

    @pytest.mark.parametrize("reps", ["0", "10"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, reps):
        code = main(["curve", "--seed", "-1", "--reps", reps, "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert "error: seed must be >= 0" in capsys.readouterr().err

    def test_verify_command(self, tmp_path, capsys):
        report_path = tmp_path / "report.txt"
        code = main(["verify", "distributions", "--out", str(report_path)])
        assert code == 0
        assert "[PASS]" in report_path.read_text()

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "bogus"])
        assert err.value.code == 2


# writes one CSV per argv, in a subprocess, so that the BLAS thread count is
# read at numpy's import
_CURVES = ("import json, sys\n"
           "from sqitest.cli import main\n"
           "for i, argv in enumerate(json.loads(sys.argv[2])):\n"
           "    assert main(['curve', *argv, '--out', f'{sys.argv[1]}/{i}.csv']) == 0\n")


def _curve_bytes_at_blas_threads(argvs, tmp_path):
    """The CSV bytes of each argv at 1 and at 2 OpenBLAS threads."""
    got = []
    for threads in ("1", "2"):
        out_dir = tmp_path / threads
        out_dir.mkdir()
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _CURVES, str(out_dir), json.dumps(argvs)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        got.append([(out_dir / f"{i}.csv").read_bytes() for i in range(len(argvs))])
    return got


class TestSameBytesAtAnyBlasThreadCount:
    def test_curve_commands(self, tmp_path):
        one, two = _curve_bytes_at_blas_threads(
            [[], ["--n", "4", "--theta-max", "3", "--theta-steps", "3", "--reps", "20000",
                  "--seed", "3"],
             ["--n", "2", "--N", "0.5", "--theta-steps", "7"],
             ["--n", "3", "--N", "0.3", "--theta-steps", "4"]], tmp_path)
        assert one == two

    @pytest.mark.xfail(strict=False, reason="ROADMAP item 9: np.convolve of the large-N "
                       "count-difference law sums in an order set by the BLAS threads")
    def test_large_mixture_two_copy_curve(self, tmp_path):
        one, two = _curve_bytes_at_blas_threads(
            [["--n", "2", "--N", "1000", "--theta-max", "5", "--theta-steps", "6"]], tmp_path)
        assert one == two
