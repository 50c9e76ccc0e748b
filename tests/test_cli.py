"""End-to-end runs of the command-line surface."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import betajacobi.cli as cli
import betajacobi.ensemble as ens
import betajacobi.spectral as spectral
from betajacobi import EnsembleConfig, JacobiParams, ModelKind, acceptance
from betajacobi.cli import DEFAULT_SEED, main

from oracles import beta_density, per_order_moment11, per_trial_spectrum, uniform_stieltjes

# the density note names no reason the code did not check
FALLBACK_NOTE = "closed form unavailable here; inverted transform used"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv_text(text):
    meta = {}
    lines = text.splitlines()
    i = 0
    while lines[i].startswith("# "):
        key, _, val = lines[i][2:].partition("=")
        meta[key] = val
        i += 1
    reader = csv.reader(io.StringIO("\n".join(lines[i:])))
    header = next(reader)
    rows = [row for row in reader]
    return meta, header, rows


class TestSample:
    def test_raw_eigenvalue_rows(self, capsys):
        code, out, _ = run_cli(
            ["sample", "--n", "60", "--c", "1", "--a", "0.5", "--b", "0.5",
             "--trials", "100", "--seed", "7"],
            capsys,
        )
        assert code == 0
        meta, header, rows = read_csv_text(out)
        assert header == ["trial", "index", "eigenvalue"]
        assert len(rows) == 6000
        vals = np.array([float(r[2]) for r in rows])
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert meta["seed"] == "7"
        assert meta["beta"] == _fmt_float(2.0 / 60.0)

    def test_beta_and_c_are_exclusive(self, capsys):
        # beta = 2c/N: --beta used to override --c without a word
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--n", "60", "--c", "1", "--beta", "0.5", "--a", "0.5",
                  "--b", "0.5"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not allowed with argument" in captured.err

    def test_histogram_masses(self, capsys):
        code, out, _ = run_cli(
            ["sample", "--n", "20", "--a", "0.5", "--b", "0.5", "--c", "1",
             "--trials", "10", "--bins", "8", "--seed", "3"],
            capsys,
        )
        assert code == 0
        _, header, rows = read_csv_text(out)
        assert header == ["bin_left", "bin_right", "count", "mass"]
        counts = sum(int(r[2]) for r in rows)
        mass = sum(float(r[3]) for r in rows)
        assert counts == 200
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_reruns_are_byte_identical(self, tmp_path):
        paths = []
        for name in ("one.csv", "two.csv"):
            target = tmp_path / name
            code = main(
                ["sample", "--n", "12", "--a", "0.5", "--b", "0.5", "--c", "1",
                 "--trials", "5", "--seed", "11", "--output", str(target)]
            )
            assert code == 0
            paths.append(target)
        assert paths[0].read_bytes() == paths[1].read_bytes()


def _data_lines(text):
    return [line for line in text.splitlines() if not line.startswith("# ")]


def _fmt17(v) -> str:
    return format(float(v), ".17g")


# the spectrum grid of test_ensemble; a = b = -0.9999 takes the underflow
# redraw
SAMPLE_GRID = [(n, beta) for n in (1, 2, 3, 60) for beta in (0.0, 2.0 / n, 4.0)]


class TestSampleBlocks:
    """`sample` output against the one-matrix-at-a-time route, byte for
    byte, with the trials spread over four blocks."""

    TRIALS, SEED = 7, 13

    def _run(self, capsys, monkeypatch, n, beta, bins):
        monkeypatch.setattr(ens, "_SPECTRUM_BLOCK", 2 * n)
        code, out, _ = run_cli(
            ["sample", "--n", str(n), "--beta", _fmt17(beta), "--a", "-0.9999",
             "--b", "-0.9999", "--trials", str(self.TRIALS), "--seed", str(self.SEED),
             "--bins", str(bins)],
            capsys,
        )
        assert code == 0
        cfg = EnsembleConfig(n, beta, -0.9999, -0.9999)
        spectra = [per_trial_spectrum(cfg, self.SEED, i) for i in range(self.TRIALS)]
        return _data_lines(out), spectra

    @pytest.mark.parametrize("n, beta", SAMPLE_GRID)
    def test_raw_rows(self, capsys, monkeypatch, n, beta):
        lines, spectra = self._run(capsys, monkeypatch, n, beta, 0)
        want = ["trial,index,eigenvalue"] + [
            f"{trial},{i},{_fmt17(v)}"
            for trial, vals in enumerate(spectra)
            for i, v in enumerate(vals)
        ]
        assert lines == want

    @pytest.mark.parametrize("n, beta", SAMPLE_GRID)
    def test_histogram_rows(self, capsys, monkeypatch, n, beta):
        lines, spectra = self._run(capsys, monkeypatch, n, beta, 40)
        counts, edges = np.histogram(np.concatenate(spectra), bins=40, range=(0.0, 1.0))
        total = counts.sum()
        want = ["bin_left,bin_right,count,mass"] + [
            f"{_fmt17(edges[i])},{_fmt17(edges[i + 1])},{counts[i]},"
            f"{_fmt17(counts[i] / total)}"
            for i in range(40)
        ]
        assert lines == want

    @pytest.mark.parametrize("bins, solves", [("40", 0), ("0", 25), ("241", 25)])
    def test_eigensolves(self, capsys, monkeypatch, bins, solves):
        # up to 4N bins the histogram takes Sturm counts at its edges and
        # solves no eigenproblem; raw rows and finer bins solve one per trial
        calls = []
        stevd = ens._stevd
        monkeypatch.setattr(ens, "_stevd", lambda d, e: calls.append(1) or stevd(d, e))
        code, out, _ = run_cli(
            ["sample", "--n", "60", "--c", "1", "--a", "0.5", "--b", "0.5",
             "--trials", "25", "--bins", bins, "--seed", "5"],
            capsys,
        )
        assert code == 0 and out
        assert len(calls) == solves

    @pytest.mark.parametrize("bins", ["40", "0"])
    def test_memory_does_not_grow_with_trials(self, monkeypatch, tmp_path, bins):
        # every spectrum used to be kept until the histogram was taken,
        # and every raw row until the table was written
        import tracemalloc

        monkeypatch.setattr(ens, "_SPECTRUM_BLOCK", 32 * 32)

        def run(blocks):
            return main(
                ["sample", "--n", "32", "--c", "1", "--a", "0.5", "--b", "0.5",
                 "--trials", str(32 * blocks), "--bins", bins, "--seed", "3",
                 "--output", str(tmp_path / f"{blocks}.csv")]
            )

        # an untraced run first fills numpy's one-off caches, which
        # otherwise land in whichever traced run comes first
        assert run(64) == 0
        peaks = []
        for blocks in (4, 64):
            tracemalloc.start()
            code = run(blocks)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            assert code == 0
        # 64 blocks' spectra alone would be 64 * 32 * 32 * 8 bytes = 524 kB;
        # run-to-run noise of the peak is about 50 kB
        assert peaks[1] < peaks[0] + 128_000


class TestDensity:
    def test_c0_matches_beta_density(self, capsys):
        code, out, _ = run_cli(
            ["density", "--a", "0.5", "--b", "0.5", "--grid", "19"], capsys
        )
        assert code == 0
        meta, header, rows = read_csv_text(out)
        assert header == ["x", "density"]
        assert meta["route"] == "closed"
        assert len(rows) == 19
        for r in rows:
            x, val = float(r[0]), float(r[1])
            assert val == pytest.approx(beta_density(1.5, 1.5, x), rel=1e-8)
        assert float(meta["trapezoid_mass"]) == pytest.approx(1.0, abs=0.05)

    def test_negative_c_note_names_no_unchecked_reason(self, capsys):
        # the note used to blame an integer a also where the closed form
        # refused c < 0 (a = 0.3 here)
        code, out, _ = run_cli(
            ["density", "--a", "0.3", "--b", "0.7", "--c", "-0.5", "--grid", "9",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        meta = json.loads(out)["meta"]
        assert meta["route"] == "numeric"
        assert meta["note"] == FALLBACK_NOTE

    def test_nan_closed_form_falls_back(self, capsys):
        # the closed form read NaN at every x here, under route=closed
        code, out, _ = run_cli(
            ["density", "--a", "0.3", "--b", "0.7", "--c", "1000", "--grid", "9",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["route"] == "numeric"
        assert doc["meta"]["note"] == FALLBACK_NOTE
        assert np.isfinite(doc["meta"]["trapezoid_mass"])
        rows = doc["data"]["rows"]
        assert all(np.isfinite(row[1]) for row in rows)
        # the arcsine density 2/pi at x = 0.5, the middle of the grid
        assert rows[4][0] == 0.5
        assert rows[4][1] == pytest.approx(2.0 / np.pi, rel=2e-3)

    def test_integer_a_notes_fallback(self, capsys):
        code, out, _ = run_cli(
            ["density", "--a", "1", "--b", "0.5", "--c", "1", "--grid", "9",
             "--eps", "1e-5", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["route"] == "numeric"
        assert doc["meta"]["note"] == FALLBACK_NOTE
        assert len(doc["data"]["rows"]) == 9
        assert all(row[1] >= 0.0 for row in doc["data"]["rows"])

    def test_readme_numeric_grid_runs_the_bulk_depth_off_one_truncation(self, capsys, monkeypatch):
        # no x of the grid lies within 1000 eps = 1e-3 of an edge, so every
        # point runs 3 / sqrt(1e-6) = 3000 levels (12000 under the limit
        # root), all read off one truncation of 3002 rows
        sizes, levels = [], []
        entries, evaluate = spectral.tridiag_entries, spectral._cf_eval

        def counted_entries(kind, p, size):
            sizes.append(size)
            return entries(kind, p, size)

        def counted_eval(d, e2, seed, zc, depth_levels, depth):
            levels.extend([depth_levels] * len(zc))
            return evaluate(d, e2, seed, zc, depth_levels, depth)

        monkeypatch.setattr(spectral, "tridiag_entries", counted_entries)
        monkeypatch.setattr(spectral, "_cf_eval", counted_eval)
        code, out, _ = run_cli(
            ["density", "--a", "0.5", "--b", "0.5", "--c", "1.2", "--grid", "201",
             "--method", "numeric"],
            capsys,
        )
        assert code == 0
        _, _, rows = read_csv_text(out)
        xs = np.array([float(r[0]) for r in rows])
        assert len(xs) == 201 and xs.min() > 1e-3 and xs.max() < 1.0 - 1e-3
        assert sizes == [3002] and levels == [3000] * 201

    def test_tiny_eps_exits_two(self, capsys):
        # the fraction depth 3 / sqrt(eps) would pass the size cap
        code, _, err = run_cli(["density", "--a", "1", "--b", "0.5", "--eps", "1e-300"], capsys)
        assert code == 2
        assert err.startswith("error:")
        # the message names the eps and the depth, not a size the user never set
        code, _, err = run_cli(
            ["density", "--a", "0.3", "--b", "0.7", "--c", "1.2", "--method", "numeric",
             "--eps", "1e-15"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: a point 1e-15 from the support")
        assert "depth 94868329" in err

    @pytest.mark.parametrize("grid", ["1", "-3"])
    def test_grid_below_two_exits_two(self, capsys, grid):
        # these used to report "grid and values must be matching 1d arrays"
        code, out, err = run_cli(["density", "--a", "0.5", "--b", "0.5", "--grid", grid], capsys)
        assert code == 2 and out == ""
        assert err == f"error: --grid must be an integer >= 2, got {grid}\n"

    def test_forced_closed_off_its_region_exits_two(self, capsys):
        # gamma - alpha - beta = b + 1 is an integer: the connection formula
        # refuses (UnsupportedRegionError), which used to leak a traceback
        code, out, err = run_cli(
            ["density", "--a", "0.3", "--b", "1", "--c", "1.2", "--method", "closed"],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: gamma-alpha-beta within 1e-8 of an integer")
        assert err.count("\n") == 1

    def test_forced_closed_on_integer_a_fails_cleanly(self, capsys):
        code, _, err = run_cli(
            ["density", "--a", "1", "--b", "0.5", "--c", "1",
             "--method", "closed"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:")


class TestStieltjes:
    def test_uniform_line_scan(self, capsys):
        code, out, _ = run_cli(
            ["stieltjes", "--a", "0", "--b", "0", "--c", "0", "--points", "7",
             "--im", "0.5"],
            capsys,
        )
        assert code == 0
        _, header, rows = read_csv_text(out)
        assert header == ["re_z", "im_z", "re_s", "im_s", "route"]
        assert len(rows) == 7
        for r in rows:
            z = complex(float(r[0]), float(r[1]))
            want = uniform_stieltjes(z)
            assert float(r[2]) == pytest.approx(want.real, abs=1e-8)
            assert float(r[3]) == pytest.approx(want.imag, abs=1e-8)
            assert r[4] in ("closed", "cf")

    def test_herglotz_sign_along_line(self, capsys):
        code, out, _ = run_cli(
            ["stieltjes", "--a", "0.3", "--b", "0.7", "--c", "1.2",
             "--points", "9", "--im", "0.25"],
            capsys,
        )
        assert code == 0
        meta, _, rows = read_csv_text(out)
        assert all(float(r[3]) > 0.0 for r in rows)
        # the depth the fallback fraction runs at
        assert meta["depth"] == "400"

    def test_depth_is_the_deepest_cf_row(self, capsys):
        # every row falls back to the fraction; the one at distance 1e-4
        # from the support runs 12 / sqrt(1e-4) = 1200 levels deep
        code, out, _ = run_cli(
            ["stieltjes", "--a", "0.3", "--b", "0.7", "--c", "1.2", "--re0=-1e-3",
             "--re1=-1e-4", "--points", "3", "--im", "0"],
            capsys,
        )
        assert code == 0
        meta, _, rows = read_csv_text(out)
        assert [r[4] for r in rows] == ["cf"] * 3
        assert meta["depth"] == "1200"

    @pytest.mark.filterwarnings("ignore:continued fraction not converged")
    def test_depth_of_bulk_cf_rows(self, capsys):
        # away from the edges a row at distance 1e-5 runs 3 / sqrt(1e-5)
        # = 948 levels deep, a quarter of the 3794 of the limit root (its
        # depth-halving deltas, 1.4e-9 and 8.1e-10, still warn)
        code, out, _ = run_cli(
            ["stieltjes", "--a", "0.3", "--b", "0.7", "--c", "1.2", "--re0", "0.2",
             "--re1", "0.5", "--points", "2", "--im", "1e-5"],
            capsys,
        )
        assert code == 0
        meta, _, rows = read_csv_text(out)
        assert [r[4] for r in rows] == ["cf"] * 2
        assert meta["depth"] == "948"

    @pytest.mark.filterwarnings("ignore:continued fraction not converged")
    @pytest.mark.parametrize(
        "line, cf_rows, depths",
        [
            (["--im", "0.5", "--points", "61"], 20, {400}),  # the README call
            # the row at re 5e-4 lies in the edge zone, 12 / sqrt(1e-4)
            # = 1200 levels deep; the rest run max(400, 3 / sqrt(1e-4))
            (["--re0", "5e-4", "--re1", "0.5", "--points", "5", "--im", "1e-4"], 5,
             {400, 1200}),
        ],
    )
    def test_cf_rows_share_one_truncation(self, capsys, monkeypatch, line, cf_rows, depths):
        # every row the closed form refuses used to run stieltjes_auto's
        # fallback alone, one truncation and one depth-halving check a
        # row; now the rows share both and each keeps stieltjes_auto's bits
        import warnings

        from betajacobi import stieltjes_auto

        argv = ["stieltjes", "--a", "0.3", "--b", "0.7", "--c", "1.2"] + line
        sizes = []
        entries = spectral.tridiag_entries
        monkeypatch.setattr(
            spectral, "tridiag_entries",
            lambda kind, p, size: sizes.append(size) or entries(kind, p, size),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert len(caught) <= 1
        assert sizes == [max(depths) + 2]
        meta, _, rows = read_csv_text(out)
        assert meta["depth"] == str(max(depths))
        assert sum(r[4] == "cf" for r in rows) == cf_rows
        p = JacobiParams(0.3, 0.7, 1.2)
        for re_z, im_z, re_s, im_s, route in rows:
            s, want = stieltjes_auto(ModelKind.ASSOC_III, p, complex(float(re_z), float(im_z)))
            assert (float(re_s), float(im_s), route) == (s.real, s.imag, want)

    def test_real_points_on_support_exit_two(self, capsys):
        # these rows used to be the zero-tail fraction's real values
        code, out, err = run_cli(
            ["stieltjes", "--a", "0.3", "--b", "0.7", "--c", "1.2", "--re0", "0.25",
             "--re1", "0.75", "--points", "3", "--im", "0"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:") and "on the support" in err and out == ""

    def test_im_help_names_refused_points(self, capsys):
        with pytest.raises(SystemExit):
            main(["stieltjes", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "at 0, points with re_z in [0, 1] are refused" in help_text


class TestMoments:
    def test_routes_agree_in_table(self, capsys):
        code, out, _ = run_cli(
            ["moments", "--a", "0.3", "--b", "0.7", "--c", "1.2", "--kmax", "8"],
            capsys,
        )
        assert code == 0
        _, header, rows = read_csv_text(out)
        assert header == ["k", "operator_moment", "stationary_uk", "abs_diff"]
        assert len(rows) == 9
        assert all(float(r[3]) <= 1e-10 for r in rows)

    def test_one_walk_gives_every_row(self, capsys, monkeypatch):
        # the table is read off one walk, so the entries are built once, at
        # the size of the deepest order, and every row keeps the bits of
        # that order's own walk
        sizes, real = [], spectral.tridiag_entries

        def counted(kind, p, size):
            sizes.append(size)
            return real(kind, p, size)

        monkeypatch.setattr(spectral, "tridiag_entries", counted)
        code, out, _ = run_cli(
            ["moments", "--a", "0.3", "--b", "0.7", "--c", "1.2", "--kmax", "40"],
            capsys,
        )
        assert code == 0 and sizes == [22]
        p = JacobiParams(0.3, 0.7, 1.2)
        _, _, rows = read_csv_text(out)
        assert [r[1] for r in rows] == [
            _fmt_float(per_order_moment11(ModelKind.ASSOC_III, p, k)) for k in range(41)
        ]

    def test_unwritable_output_exits_two(self, capsys, tmp_path):
        # the open used to leak a FileNotFoundError traceback
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(
            ["moments", "--a", "0.3", "--b", "0.7", "--c", "1.2", "--output", str(target)],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(target) in err and err.count("\n") == 1
        assert not target.parent.exists()


class TestDynamics:
    def test_ode_table(self, capsys):
        code, out, _ = run_cli(
            ["dynamics", "--a", "0.3", "--b", "0.7", "--c", "1.2",
             "--kmax", "3", "--t-end", "0.5", "--dt", "1e-3"],
            capsys,
        )
        assert code == 0
        meta, header, rows = read_csv_text(out)
        assert header[:2] == ["series", "time"]
        assert all(r[0] == "ode" for r in rows)
        assert all(float(r[2]) == 1.0 for r in rows)  # m_0 column
        times = [float(r[1]) for r in rows]
        assert times == sorted(times)
        assert "u_1" in meta

    def test_sde_overlay_rows(self, capsys):
        code, out, _ = run_cli(
            ["dynamics", "--a", "0.0", "--b", "0.0", "--c", "0.5",
             "--kmax", "2", "--t-end", "0.05", "--dt", "1e-3", "--sde",
             "--sde-n", "5", "--sde-dt", "1e-3", "--paths", "10", "--seed", "2"],
            capsys,
        )
        assert code == 0
        meta, header, rows = read_csv_text(out)
        series = {r[0] for r in rows}
        assert series == {"ode", "sde"}
        sde_rows = [r for r in rows if r[0] == "sde"]
        # per-path spread shows up in the sde standard-error columns
        assert any(float(r[-1]) > 0.0 for r in sde_rows)
        # the particles run the hierarchy's model, beta = 2c/N
        assert meta["sde_beta"] == _fmt_float(2.0 * 0.5 / 5)

    def test_no_beta_flag(self, capsys):
        # the particle beta is always 2c/--sde-n
        with pytest.raises(SystemExit) as exc:
            main(["dynamics", "--a", "0.3", "--b", "0.7", "--c", "1.2", "--sde",
                  "--beta", "0.5"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_parameters_outside_the_model_exit_two(self, capsys):
        # c + 1 < 0: the stationary moments used to be printed, m_3 < 0
        code, out, err = run_cli(
            ["dynamics", "--a", "0.3", "--b", "0.7", "--c=-1.2", "--kmax", "4",
             "--t-end", "0.01"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:") and out == ""

    def test_hierarchy_blow_up_exits_one(self, capsys):
        # a ConvergenceError used to leak a traceback
        code, out, err = run_cli(
            ["dynamics", "--a", "0.3", "--b", "0.7", "--c", "1e300", "--kmax", "3",
             "--t-end", "0.01"],
            capsys,
        )
        assert code == 1 and out == ""
        assert err == "error: moment hierarchy blew up at t = 0.001\n"

    def test_kmax_above_the_order_cap_exits_two(self, capsys):
        # the hierarchy kernel's source grows like K^2
        code, out, err = run_cli(
            ["dynamics", "--a", "0.3", "--b", "0.7", "--c", "1.2", "--kmax", "65",
             "--t-end", "0.001", "--dt", "1e-4"],
            capsys,
        )
        assert code == 2 and out == ""
        assert err == "error: moment hierarchy order k_max must be <= 64, got 65\n"

    @pytest.mark.parametrize("x0", ["1.5", "-0.5", "2", "nan"])
    def test_start_outside_unit_interval_exits_two(self, capsys, x0):
        # 1.5 and -0.5 used to print a flow from moments no measure on
        # [0, 1] has, and 2 ended in a ConvergenceError traceback
        code, out, err = run_cli(
            ["dynamics", "--a", "0.3", "--b", "0.7", "--c", "1.2", f"--x0={x0}",
             "--kmax", "3", "--t-end", "0.01"],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: --x0 must lie in [0, 1]")

    @pytest.mark.parametrize("x0", ["0", "1"])
    def test_start_at_the_ends_runs(self, capsys, x0):
        code, out, _ = run_cli(
            ["dynamics", "--a", "0.3", "--b", "0.7", "--c", "1.2", "--x0", x0,
             "--kmax", "3", "--t-end", "0.01"],
            capsys,
        )
        assert code == 0
        _, _, rows = read_csv_text(out)
        assert float(rows[0][3]) == float(x0)  # m_1 at t = 0

    @pytest.mark.parametrize(
        "flags, t_end, dt",
        [
            (["--t-end", "1e-5"], 1e-5, 1e-3),
            (["--t-end", "0.0025"], 0.0025, 1e-3),
            (["--t-end", "0.01", "--sde", "--sde-dt", "3e-3"], 0.01, 3e-3),
        ],
        ids=["no_step", "short_of_t_end", "sde_step"],
    )
    def test_t_end_off_the_step_grid_exits_two(self, capsys, flags, t_end, dt):
        # 1e-5 used to print t_end=1e-05 over rows at t = 0 only, and
        # 0.0025 stopped at t = 0.002
        code, out, err = run_cli(
            ["dynamics", "--a", "0.3", "--b", "0.7", "--c", "1.2", "--kmax", "3", *flags],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: t_end = {t_end!r} is not a whole number of steps dt = {dt!r}")


class TestVerify:
    def test_single_criterion_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--only", "gauss-exactness"], capsys)
        assert code == 0
        assert "PASS gauss-exactness" in out
        assert "ALL PASS (1/1)" in out

    def test_report_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, _, _ = run_cli(
            ["verify", "--only", "regime-chain", "--output", str(target)], capsys
        )
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["all_passed"] is True
        assert doc["criteria"][0]["slug"] == "regime-chain"
        assert doc["criteria"][0]["passed"] is True

    def test_unwritable_output_exits_two_before_the_criteria(self, capsys, monkeypatch,
                                                               tmp_path):
        # the report path used to be opened only after every criterion ran
        ran = []
        monkeypatch.setattr(cli, "run_all", lambda *args, **kw: ran.append(args) or [])
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(
            ["verify", "--only", "gauss-exactness", "density", "--output", str(target)],
            capsys,
        )
        assert code == 2 and out == "" and ran == []
        assert err.startswith("error: ") and str(target) in err
        assert not target.parent.exists()

    def test_output_check_keeps_an_existing_file_and_removes_its_own(self, capsys,
                                                                    tmp_path):
        # a refused input after the check leaves an existing file whole
        # and no file where there was none
        kept, made = tmp_path / "kept.csv", tmp_path / "made.csv"
        kept.write_text("earlier\n")
        for target in (kept, made):
            code, out, _ = run_cli(
                ["moments", "--a", "-2", "--b", "0.7", "--output", str(target)], capsys
            )
            assert code == 2 and out == ""
        assert kept.read_text() == "earlier\n"
        assert not made.exists()

    def test_failing_criterion_sets_exit_code(self, capsys, monkeypatch):
        title, limit, _ = acceptance._REGISTRY["gauss-exactness"]
        monkeypatch.setitem(
            acceptance._REGISTRY,
            "gauss-exactness",
            (title, limit, lambda threads: (False, 1.0, 1e-20, {})),
        )
        code, out, _ = run_cli(["verify", "--only", "gauss-exactness"], capsys)
        assert code == 1
        assert "FAIL gauss-exactness" in out
        assert "FAILURES PRESENT (0/1)" in out

    def test_unknown_slug_is_parameter_error(self, capsys):
        code, _, err = run_cli(["verify", "--only", "no-such-check"], capsys)
        assert code == 2
        assert err.startswith("error:")


class TestErrorsAndFormats:
    def test_invalid_weight_exits_two(self, capsys):
        code, _, err = run_cli(
            ["moments", "--a", "-2", "--b", "0.5", "--c", "1"], capsys
        )
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--n", "0", "--c", "1"],
            ["sample", "--n", "4", "--trials", "0"],
            ["sample", "--n", "4", "--trials", "0", "--bins", "5"],
            ["sample", "--n", "4", "--bins", "-3"],
            ["stieltjes", "--c", "1", "--points", "0"],
            ["dynamics", "--c", "1", "--t-end", "0.01", "--sde", "--sde-n", "0"],
            ["sample", "--n", "1000000000000", "--c", "1", "--trials", "1"],
            ["sample", "--n", "4", "--c", "1", "--trials", "2", "--seed", "-1"],
            ["dynamics", "--c", "1", "--t-end", "0.01", "--sde", "--sde-n", "2",
             "--paths", "2", "--seed", "-1"],
        ],
    )
    def test_bad_count_exits_two(self, capsys, argv):
        # these used to emit an empty table, ignore the count, or leak
        # ZeroDivisionError / ValueError; N above 2**22 leaked numpy's
        # memory error and a negative seed ValueError from SeedSequence
        code, _, err = run_cli(argv + ["--a", "0.5", "--b", "0.5"], capsys)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sample", "--n", "4", "--c", "1", "--bins"], "--bins"),
            (["density", "--c", "1", "--grid"], "--grid"),
            (["stieltjes", "--c", "1", "--points"], "--points"),
        ],
    )
    def test_array_size_above_the_cap_exits_two(self, capsys, monkeypatch, argv, flag):
        # these used to go on to numpy with any count, to a MemoryError
        # traceback or the out-of-memory killer; nothing past the check runs
        def unreachable(*args, **kwargs):
            raise AssertionError("a command ran past its size check")

        for name in ("_histogram", "density_profile", "_stieltjes_routes"):
            monkeypatch.setattr(cli, name, unreachable)
        code, out, err = run_cli(argv + [str(2**22 + 1), "--a", "0.5", "--b", "0.5"], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {flag} must be <= 2**22 = {2**22}, got {2**22 + 1}\n"

    def test_bad_thread_count_exits_two(self, capsys):
        code, _, err = run_cli(
            ["verify", "--only", "gauss-exactness", "--threads", "0"], capsys
        )
        assert code == 2
        assert err.startswith("error:")

    def test_thread_count_above_the_cap_exits_two(self, capsys, monkeypatch):
        # 2000 threads started 2000 OS threads and asked for 2000 work sets
        def unreachable(*args, **kwargs):
            raise AssertionError("verify ran a criterion past its thread check")

        monkeypatch.setattr(cli, "run_all", unreachable)
        code, out, err = run_cli(["verify", "--threads", "65"], capsys)
        assert code == 2 and out == ""
        assert err == "error: --threads must be <= 64, got 65\n"

    def test_json_structure(self, capsys):
        code, out, _ = run_cli(
            ["moments", "--a", "0.5", "--b", "0.5", "--c", "1",
             "--kmax", "3", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"meta", "data"}
        assert doc["data"]["columns"] == [
            "k", "operator_moment", "stationary_uk", "abs_diff"
        ]
        assert len(doc["data"]["rows"]) == 4

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("betajacobi ")

    def test_default_seed_constant(self):
        assert DEFAULT_SEED == 20177


def test_cli_import_leaves_scipy_integrate_and_linalg_unloaded():
    # only the density criterion integrates; its quad import is deferred
    import betajacobi

    src = str(Path(betajacobi.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    # nor does the package use scipy.special (ln_gamma is math.lgamma), and
    # spectral loads the LAPACK wrapper module without scipy.linalg
    probe = (
        "import sys, betajacobi.cli; print([m for m in "
        "('scipy.integrate', 'scipy.special', 'scipy.linalg') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def _fmt_float(v: float) -> str:
    return format(float(v), ".17g")
