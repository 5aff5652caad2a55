"""Front-end behavior: file parsing, exit codes, artifact shape, determinism."""

import argparse
import dataclasses
import json
import math

import numpy as np
import pytest

from revtwist.cli import build_parser, load_map, main
from revtwist.families import CoefficientFamily, load_family, save_family
from revtwist.obstruction import ObstructionRow, divergence_witness, select_resonant_n
from revtwist.series import DEFAULT_ORDER
from revtwist.surface import involution_jets
from revtwist.twist import TwistParams, compute_constants
from test_orbit_kernel import reduced_twin

ALPHA_RES = (4 * math.pi - 2.0) / 4  # n = 4 resonance with beta = -2, g = 2
# The map file of the README's normalize example.
README_MAP = ("x 1 0 0.764842187284 0.644217687238\nx 2 1 -0.644217687238 0.764842187284\n"
              "x 0 3 0.317422072971 0.376856763472\ny 0 1 0.764842187284 -0.644217687238\n"
              "y 1 2 -0.644217687238 -0.764842187284\ny 3 0 0.317422072971 -0.376856763472\n")


def write(path, text):
    path.write_text(text)
    return str(path)


def dump_map(mj, path):
    lines = []
    for name, jet in (("x", mj.x), ("y", mj.y)):
        for i in range(jet.order + 1):
            for j in range(jet.order + 1 - i):
                v = jet.coeffs[i, j]
                if v != 0:
                    lines.append(f"{name} {i} {j} {v.real:.17g} {v.imag:.17g}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestParseFamily:
    def test_empty_file_is_zero_family(self, tmp_path):
        fam = load_family(write(tmp_path / "f.txt", ""), 1)
        assert fam.entries == {}
        assert fam.eval(0.1 + 0.2j, 0.3j) == 0

    def test_hermitian_closure(self, tmp_path):
        fam = load_family(write(tmp_path / "f.txt", "3 0 0.1 0.0\n"), 1,
                          hermitian=True)
        assert fam.entries == {(3, 0): 0.1 + 0j, (0, 3): 0.1 + 0j}

    def test_low_degree_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="degree"):
            load_family(write(tmp_path / "f.txt", "1 0 0.1 0\n"), 1)

    def test_malformed_line_cites_line_number(self, tmp_path):
        with pytest.raises(ValueError, match="line 2"):
            load_family(write(tmp_path / "f.txt", "4 0 0.1 0\n4 zero 0 0\n"), 1)

    def test_round_trip_exact(self, tmp_path):
        fam = CoefficientFamily(
            {(4, 0): 0.05 + 0.02j, (3, 1): -1 / 3 + 1e-17j}, 1)
        save_family(tmp_path / "f.txt", fam)
        back = load_family(tmp_path / "f.txt", 1)
        assert back.entries == fam.entries


class TestLoadMap:
    def test_round_trip_through_text(self, tmp_path):
        tp = TwistParams(alpha=0.73, s=1)
        a = CoefficientFamily({(4, 0): 0.05 + 0.02j}, 1)
        _, _, phi = involution_jets(a, tp, order=8)
        path = dump_map(phi, tmp_path / "m.txt")
        back = load_map(path, 8)
        assert np.array_equal(back.x.coeffs, phi.x.coeffs)
        assert np.array_equal(back.y.coeffs, phi.y.coeffs)

    def test_bad_component_tag(self, tmp_path):
        with pytest.raises(ValueError, match="line 1"):
            load_map(write(tmp_path / "m.txt", "z 0 0 1 0\n"), 6)

    def test_degree_outside_order(self, tmp_path):
        with pytest.raises(ValueError, match="order"):
            load_map(write(tmp_path / "m.txt", "x 5 4 1 0\n"), 6)

    def test_duplicate_entry(self, tmp_path):
        with pytest.raises(ValueError, match="line 3: duplicate entry"):
            load_map(write(tmp_path / "m.txt", "x 1 0 1 0\ny 0 1 1 0\nx 1 0 2 0\n"), 6)

    @pytest.mark.parametrize("entry", ["x 2 0 inf 0", "x 1 0 nan 0", "y 0 1 0 -inf"])
    def test_non_finite_entry(self, entry, tmp_path):
        with pytest.raises(ValueError, match="line 2: .* is not finite"):
            load_map(write(tmp_path / "m.txt", f"x 1 0 1 0\n{entry}\n"), 6)


class TestExitCodes:
    def test_bishop_exceptional_gamma_one(self, tmp_path, capsys):
        out = tmp_path / "b.txt"
        assert main(["bishop", "--gamma", "1.0", "--out", str(out)]) == 0
        text = out.read_text()
        assert "exceptional = True" in text
        assert "root_order = 6" in text
        assert "lambda_re = 0.5\n" in text

    def test_bishop_huge_gamma_is_answered(self, tmp_path):
        # 4 gamma^2 overflows here; lambda is i to double precision.
        out = tmp_path / "b.txt"
        assert main(["bishop", "--gamma", "1e200", "--out", str(out)]) == 0
        vals = dict(line.split(" = ") for line in out.read_text().splitlines()
                    if not line.startswith("#"))
        assert float(vals["lambda_im"]) == 1.0
        assert abs(float(vals["lambda_re"]) * 1e200 - 0.5) < 1e-15
        assert float(vals["modulus_residual"]) == 0.0

    def test_curve_huge_alpha_is_its_reduced_twin(self, tmp_path, capsys):
        # n * alpha overflows float64; the reduction still runs, and the
        # model keeps its twist: the samples are those of alpha mod 2 pi.
        fam = write(tmp_path / "f.txt", "4 0 0.05 0\n")
        zetas = []
        for alpha in ("1e308", repr(reduced_twin(1e308))):
            capsys.readouterr()
            assert main(["curve", "--alpha", alpha, "--s", "1", "--n", "4", "--j", "2",
                         "--family", fam, "--grid", "64"]) == 0
            rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()
                    if not ln.startswith("#")][1:]
            zetas.append(np.array([complex(float(r[2]), float(r[3])) for r in rows]))
        assert zetas[0].shape == (64,)
        assert float(np.abs(zetas[0] - zetas[1]).max()) <= 1e-12

    def test_curve_beta_positive_exits_two(self, tmp_path, capsys):
        fam = write(tmp_path / "f.txt", "3 0 0.05 0\n")
        rc = main(["curve", "--alpha", "0.5", "--s", "1", "--n", "4",
                   "--j", "2", "--family", fam, "--hermitian"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "hypothesis violation" in err
        assert "beta" in err

    def test_missing_family_file_exits_one(self, tmp_path, capsys):
        rc = main(["curve", "--alpha", str(ALPHA_RES), "--s", "1", "--n", "4",
                   "--j", "2", "--family", str(tmp_path / "absent.txt")])
        assert rc == 1

    def test_malformed_family_exits_one(self, tmp_path, capsys):
        fam = write(tmp_path / "f.txt", "nonsense\n")
        rc = main(["curve", "--alpha", str(ALPHA_RES), "--s", "1", "--n", "4",
                   "--j", "2", "--family", fam])
        assert rc == 1
        assert "line 1" in capsys.readouterr().err

    def test_alpha_gamma_mutually_exclusive(self, tmp_path):
        fam = write(tmp_path / "f.txt", "4 0 0.05 0.02\n")
        with pytest.raises(SystemExit):
            main(["surface", "--alpha", "0.7", "--gamma", "0.8", "--s", "1",
                  "--n", "4", "--j", "2", "--family", fam])

    def test_obstruct_zero_family_all_degenerate(self, tmp_path):
        fam = write(tmp_path / "f.txt", "")
        out = tmp_path / "r.json"
        rc = main(["obstruct", "--alpha", str(math.sqrt(2)), "--s", "1",
                   "--schedule-count", "2", "--n-max", "200",
                   "--family", fam, "--out", str(out)])
        assert rc == 0
        import json
        rep = json.loads(out.read_text())
        assert rep["rows"]
        assert all(not r["nonconstant"] for r in rep["rows"])
        assert not rep["witness"]

    def test_obstruct_above_fixed_step_floor_exits_zero(self, tmp_path):
        # n = 30 of this schedule has a solver rounding floor of 1.6e-13.
        fam = write(tmp_path / "f.txt", "5 0 -0.019848387910666 0.025145008821470\n"
                    "5 1 0.0037930366559 0.0158341263749\n"
                    "5 2 -0.0221637009443 -0.0415694122349\n")
        out = tmp_path / "r.json"
        rc = main(["obstruct", "--alpha", "1.4660520412407083", "--s", "2",
                   "--schedule-count", "2", "--n-max", "400", "--hermitian",
                   "--family", fam, "--out", str(out)])
        assert rc == 0
        import json
        rows = json.loads(out.read_text())["rows"]
        assert [r["n"] for r in rows] == [17, 30]
        assert all(r["residual"] <= 1e-10 for r in rows)

    def test_curve_s3_exits_zero(self, tmp_path):
        fam = write(tmp_path / "f.txt", "7 0 0.01 0\n")
        out = tmp_path / "c.csv"
        rc = main(["curve", "--alpha", repr((2 * math.pi - 0.3) / 6), "--s", "3",
                   "--n", "6", "--j", "6", "--family", fam, "--hermitian",
                   "--grid", "64", "--out", str(out)])
        assert rc == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 65
        assert float(rows[1].split(",")[-1]) < 1e-10

    def test_constants_report(self, tmp_path):
        # Each run recomputes: the cache would make a rerun identical trivially.
        out = tmp_path / "k.txt"
        outs = []
        for _ in range(2):
            compute_constants.cache_clear()
            assert main(["constants", "--alpha", "1", "--s", "1", "--n", "10",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        rows = [ln.split(" = ") for ln in outs[0].decode().splitlines()
                if not ln.startswith("#")]
        compute_constants.cache_clear()
        dom = compute_constants(TwistParams(alpha=1.0, s=1), 10)
        names = ["n", "d0", "c1", "c2", "epsilon0", "delta", "r0"]
        assert [key for key, _ in rows] == names
        assert rows[0][1] == "10"
        for key, value in rows[1:]:
            assert float(value) == getattr(dom, key)

    @pytest.mark.parametrize("s,n,cause", [("3", "10", "underflows"), ("4", "1", "calibration")])
    def test_constants_failure_is_one_line(self, s, n, cause, capsys):
        rc = main(["constants", "--alpha", "1", "--s", s, "--n", n])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("solver failure:") and cause in err[0]

    @pytest.mark.parametrize("argv,cause", [
        (["majorant", "--alpha", "1", "--s", "1", "--n", "0"], "n must"),
        (["majorant", "--alpha", "1", "--s", "1", "--n", "-5"], "n must"),
        (["majorant", "--alpha", "1", "--s", "1", "--n", "10", "--K", "-3"], "K must"),
        (["majorant", "--alpha", "nan", "--s", "1", "--n", "10"], "alpha"),
        (["bishop", "--gamma", "inf"], "gamma"),
        (["curve", "--alpha", str(ALPHA_RES), "--s", "1", "--n", "4", "--j", "2",
          "--family", "NAN_FAMILY"], "finite"),
        (["bishop", "--gamma", "1.0", "--max-order", "-5"], "max_order must"),
        (["curve", "--alpha", str(ALPHA_RES), "--s", "1", "--n", "4", "--j", "2",
          "--family", "FAMILY", "--grid", "0"], "grid_size must"),
        (["surface", "--alpha", str(ALPHA_RES), "--s", "1", "--n", "4", "--j", "2",
          "--family", "FAMILY", "--grid", "0"], "grid_size must"),
        (["majorant", "--alpha", "1", "--s", "1", "--n", "10", "--K", "11"], "K must"),
        (["obstruct", "--alpha", "1.41421356", "--s", "1", "--schedule-count", "3",
          "--n-max", "0", "--family", "FAMILY"], "n_max must"),
        (["normalize", "--map", "INF_MAP", "--order", "6"], "line 1: entry (inf+0j) is not finite"),
        (["normalize", "--map", "OFF_MAP", "--order", "6", "--reality", "surface"], "unit circle"),
        (["normalize", "--map", "MAP", "--order", "1000000"], "truncation order must be in [1, 64]"),
        (["normalize", "--map", "MAP", "--order", "0"], "truncation order must be in [1, 64]"),
        # requests far beyond any address space fail at once, whatever the overcommit
        (["curve", "--alpha", str(ALPHA_RES), "--s", "1", "--n", "4", "--j", "2",
          "--family", "FAMILY", "--grid", "100000000000000000"], "out of memory"),
        (["majorant", "--alpha", "1", "--s", "1", "--n", "100000000000000000"], "out of memory"),
    ])
    def test_bad_input_fails_at_boundary(self, argv, cause, tmp_path, capsys):
        files = {"NAN_FAMILY": write(tmp_path / "nan.txt", "4 0 nan 0\n"),
                 "FAMILY": write(tmp_path / "f.txt", "4 0 0.05 0.02\n"),
                 "INF_MAP": write(tmp_path / "inf.txt", "x 2 0 inf 0\n"
                                  "x 1 0 0.6216099682706644 0.7833269096274834\n"
                                  "y 0 1 0.6216099682706644 -0.7833269096274834\n"),
                 "MAP": write(tmp_path / "m.txt", "x 1 0 0.6216099682706644 0.7833269096274834\n"
                              "y 0 1 0.6216099682706644 -0.7833269096274834\n"),
                 "OFF_MAP": write(tmp_path / "off.txt", "x 1 0 2 0\ny 0 1 0.5 0\n")}
        rc = main([files.get(a, a) for a in argv])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and cause in err[0]

    def test_normalize_without_order_is_refused(self, tmp_path, capsys):
        # The README map has entries through degree 3 and runs at order 4;
        # read at any other order it was refused as not tau-reversible.
        pm = write(tmp_path / "map.txt", README_MAP)
        out = tmp_path / "n.csv"
        assert main(["normalize", "--map", pm, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: normalize needs --order, the truncation order of the map file"]
        assert captured.out == "" and not out.exists()
        assert main(["normalize", "--map", pm, "--order", "4"]) == 0


class TestCurveArtifact:
    def test_csv_shape_and_header(self, tmp_path):
        fam = write(tmp_path / "f.txt", "3 0 0.05 0\n")
        out = tmp_path / "c.csv"
        alpha = (2 * math.pi - 0.1) / 7
        rc = main(["curve", "--alpha", str(alpha), "--s", "1", "--n", "7",
                   "--j", "2", "--family", fam, "--hermitian",
                   "--grid", "64", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        data = [ln for ln in lines if not ln.startswith("#")]
        assert any(ln.startswith("# revtwist ") for ln in meta)
        assert any("zeta0" in ln for ln in meta)
        assert data[0] == "w_re,w_im,zeta_re,zeta_im,residual"
        assert len(data) == 1 + 64
        first = data[1].split(",")
        assert len(first) == 5
        assert abs(float(first[0]) - 1.0) < 1e-15

    def test_default_grid_is_recorded(self, tmp_path):
        # --grid left out takes the library's max(8n, 64) points, and the
        # grid the run used goes among the # lines.
        fam = write(tmp_path / "f.txt", "3 0 0.05 0\n")
        out = tmp_path / "c.csv"
        rc = main(["curve", "--alpha", str((2 * math.pi - 0.1) / 9), "--s", "1", "--n", "9",
                   "--j", "2", "--family", fam, "--hermitian", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert "# grid = None" in lines and "# effective_grid = 72" in lines
        assert len([ln for ln in lines if not ln.startswith("#")]) == 1 + 72

    def test_readme_example_reports_its_steps(self, tmp_path):
        # The solver's h evaluations go among the # lines, and the
        # artifact stays byte-identical from run to run.
        fam = write(tmp_path / "fam.txt", "4 0 0.05 0.02\n")
        out = tmp_path / "curve.csv"
        texts = []
        for _ in range(2):
            rc = main(["curve", "--alpha", "2.8915926535897931", "--s", "1", "--n", "4",
                       "--j", "2", "--family", fam, "--grid", "64", "--out", str(out)])
            assert rc == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        assert "# diag.branch_steps = 5" in texts[0].splitlines()


class TestSurfaceArtifact:
    def test_continuum_annotation(self, tmp_path):
        fam = write(tmp_path / "f.txt", "4 0 0.05 0.02\n")
        out = tmp_path / "s.csv"
        rc = main(["surface", "--alpha", str(ALPHA_RES), "--s", "1", "--n", "4",
                   "--j", "2", "--family", fam, "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0].endswith(",real_intersections")
        assert all(ln.endswith(",continuum") for ln in data[1:])

    def test_isolated_annotation(self, tmp_path):
        fam = write(tmp_path / "f.txt", "4 0 0.05 0.02\n")
        abar = write(tmp_path / "g.txt", "4 0 -0.06 0.01\n")
        out = tmp_path / "s.csv"
        rc = main(["surface", "--alpha", str(ALPHA_RES), "--s", "1", "--n", "4",
                   "--j", "2", "--family", fam, "--abar", abar,
                   "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        note = [ln for ln in text.splitlines()
                if ln.startswith("# real_intersections")][0]
        assert note.count(";") == 3  # four isolated points

    def test_gamma_flag_runs(self, tmp_path):
        # gamma fixes the rotation number through the unimodular root; the
        # resulting alpha has some beta(n) window, so just demand a clean
        # run or a clean hypothesis rejection.
        fam = write(tmp_path / "f.txt", "4 0 0.01 0.0\n")
        rc = main(["surface", "--gamma", "0.8", "--s", "1", "--n", "4",
                   "--j", "2", "--family", fam, "--out",
                   str(tmp_path / "s.csv")])
        assert rc in (0, 2)

    def test_readme_example_reports_its_steps(self, tmp_path):
        # The README surface example: the solver's h evaluations go among
        # the # lines right after zeta0, as in the curve artifact, and the
        # artifact stays byte-identical from run to run.
        fam = write(tmp_path / "fam.txt", "4 0 0.05 0.02\n")
        abar = write(tmp_path / "abar.txt", "4 0 -0.06 0.01\n")
        out = tmp_path / "s.csv"
        texts = []
        for _ in range(2):
            rc = main(["surface", "--gamma", "0.8", "--s", "1", "--n", "4", "--j", "2",
                       "--family", fam, "--abar", abar, "--out", str(out)])
            assert rc == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        lines = texts[0].splitlines()
        k = lines.index("# diag.branch_steps = 6")
        assert lines[k - 1].startswith("# zeta0 = ")


    def test_effective_configuration(self, tmp_path):
        # The alpha and grid the run used go among the # lines, also when
        # the flags name them: --alpha given, --grid left to its default.
        fam = write(tmp_path / "f.txt", "4 0 0.05 0.02\n")
        out = tmp_path / "s.csv"
        rc = main(["surface", "--alpha", str(ALPHA_RES), "--s", "1", "--n", "4",
                   "--j", "2", "--family", fam, "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert f"# effective_alpha = {float(ALPHA_RES):.17g}" in lines
        assert "# effective_grid = 64" in lines


class TestMajorantArtifact:
    @pytest.mark.parametrize("flags,K", [([], 10), (["--K", "4"], 4)])
    def test_effective_K(self, flags, K, capsys):
        assert main(["majorant", "--alpha", "1", "--s", "1", "--n", "10", *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"# effective_K = {K}" in lines
        assert len(lines) - lines.index("k,f_k,bound") - 1 == K + 1


class TestObstructArtifact:
    def test_report_serializes_to_json(self, tmp_path):
        # n = 7 hits beta = -0.25 exactly and is the first resonant period.
        alpha = (2 * math.pi - 0.25) / 7
        fam = write(tmp_path / "f.txt", "7 0 0.1 0\n")
        out = tmp_path / "r.json"
        assert main(["obstruct", "--alpha", repr(alpha), "--s", "1", "--schedule-count", "1",
                     "--n-max", "100", "--family", fam, "--hermitian", "--out", str(out)]) == 0
        back = json.loads(out.read_text())
        assert back["meta"]["config"]["schedule_count"] == 1
        assert back["witness"] is True
        row = back["rows"][0]
        assert set(row) == {f.name for f in dataclasses.fields(ObstructionRow)}
        assert row["n"] == 7
        assert row["nonconstant"] is True
        # Complex values are written as [re, im] and read back exactly.
        tp = TwistParams(alpha=alpha, s=1)
        rep = divergence_witness(load_family(fam, 1, hermitian=True), tp,
                                 select_resonant_n(alpha, 0.3, 1, 100))
        for key in ("Hk_numeric", "Hk_leading"):
            value = getattr(rep.rows[0], key)
            assert row[key] == [value.real, value.imag]
        assert row["I_min"] == rep.rows[0].I_min


def parser_options() -> dict:
    """{subcommand: {option: (default, required, type, choices)}} as
    build_parser() declares them; an option of a required mutually exclusive
    group reads "group" for required."""
    ap = build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    options = {}
    for name, p in sub.choices.items():
        grouped = {a for g in p._mutually_exclusive_groups if g.required
                   for a in g._group_actions}
        options[name] = {
            a.option_strings[0]: (a.default, a.required or ("group" if a in grouped else False),
                                  getattr(a.type, "__name__", None), a.choices)
            for a in p._actions if a.option_strings and a.dest != "help"
        }
    return options


class TestOptions:
    def test_each_subcommand_keeps_its_options(self):
        assert parser_options() == {
            "normalize": {
                "--map": (None, True, None, None),
                "--tau": (None, False, None, None),
                "--order": (None, False, "int", None),
                "--reality": ("standard", False, None, ["standard", "surface"]),
                "--out": ("-", False, None, None),
            },
            "curve": {
                "--alpha": (None, True, "float", None),
                "--s": (None, True, "int", None),
                "--n": (None, True, "int", None),
                "--j": (None, True, "int", None),
                "--grid": (None, False, "int", None),
                "--family": (None, True, None, None),
                "--hermitian": (False, False, None, None),
                "--out": ("-", False, None, None),
            },
            "constants": {
                "--alpha": (None, True, "float", None),
                "--s": (None, True, "int", None),
                "--n": (None, True, "int", None),
                "--out": ("-", False, None, None),
            },
            "majorant": {
                "--alpha": (None, True, "float", None),
                "--s": (None, True, "int", None),
                "--n": (None, True, "int", None),
                "--K": (None, False, "int", None),
                "--out": ("-", False, None, None),
            },
            "obstruct": {
                "--alpha": (None, True, "float", None),
                "--s": (None, True, "int", None),
                "--schedule-count": (None, True, "int", None),
                "--n-max": (10000, False, "int", None),
                "--delta": (0.3, False, "float", None),
                "--family": (None, True, None, None),
                "--hermitian": (False, False, None, None),
                "--out": ("-", False, None, None),
            },
            "surface": {
                "--alpha": (None, "group", "float", None),
                "--gamma": (None, "group", "float", None),
                "--s": (None, True, "int", None),
                "--n": (None, True, "int", None),
                "--j": (None, True, "int", None),
                "--grid": (None, False, "int", None),
                "--family": (None, True, None, None),
                "--abar": (None, False, None, None),
                "--hermitian": (False, False, None, None),
                "--out": ("-", False, None, None),
            },
            "bishop": {
                "--gamma": (None, True, "float", None),
                "--max-order": (64, False, "int", None),
                "--out": ("-", False, None, None),
            },
        }


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        fam = write(tmp_path / "f.txt", "4 0 0.05 0.02\n")
        out = tmp_path / "a.csv"
        outs = []
        for _ in range(2):
            rc = main(["surface", "--alpha", str(ALPHA_RES), "--s", "1",
                       "--n", "4", "--j", "2", "--family", fam,
                       "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestNormalize:
    def test_surface_jet_report(self, tmp_path):
        tp = TwistParams(alpha=0.73, s=1)
        a = CoefficientFamily({(4, 0): 0.05 + 0.02j}, 1)
        tau1, _, phi = involution_jets(a, tp, order=8)
        pm = dump_map(phi, tmp_path / "phi.txt")
        tm = dump_map(tau1, tmp_path / "tau.txt")
        out = tmp_path / "n.csv"
        rc = main(["normalize", "--map", pm, "--tau", tm, "--order", "8",
                   "--reality", "surface", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "# eps = 1" in text
        assert "# s = 1" in text
        lam = [float(ln.split("=")[1]) for ln in text.splitlines()
               if ln.startswith("# lambda_")]
        assert abs(complex(lam[0], lam[1]) - np.exp(0.73j)) < 1e-12
        assert "component,i,j,re,im" in text
