import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time

import mpmath as mp
import pytest

from lacuna import bump as bump_mod
from lacuna import cli
from lacuna.cli import main
from lacuna.dyadic import DyadicReal


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGaps:
    def test_seven_tenths(self, capsys, tmp_path):
        out_file = tmp_path / "gaps.json"
        code, out = run(
            capsys, "gaps", "--r", "2", "--n", "5", "--alpha", "7/10",
            "--out", str(out_file),
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["n"] == 5
        assert abs(float(payload["max_gap"]) - 0.4) < 1e-12
        assert out == out_file.read_text()

    def test_alpha_hex_pair_lossless(self, capsys):
        code, out = run(capsys, "gaps", "--r", "2", "--n", "5", "--alpha", "7/10")
        payload = json.loads(out)
        a = payload["alpha"]
        x = DyadicReal(int(a["hex_mantissa"], 16), a["exponent"])
        assert abs(x.to_float() - 0.7) < 1e-15

    def test_precision_from_config_then_flag(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("precision = 200\n")
        argv = ["--config", str(cfg), "gaps", "--r", "2", "--n", "5", "--alpha", "7/10"]
        _, out = run(capsys, *argv)
        assert json.loads(out)["alpha"]["exponent"] == -200
        _, out = run(capsys, *argv, "--precision", "300")
        assert json.loads(out)["alpha"]["exponent"] == -300

    def test_non_lacunary_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# r=2\n1\n3\n4\n")
        code = main(["gaps", "--seq", str(path), "--n", "3", "--alpha", "7/10"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error [not-lacunary]: a_3 < 2 * a_2")

    @pytest.mark.parametrize(
        "text, code",
        [
            ("2\n4\n8\n", "malformed-sequence-file"),
            ("# r=two\n2\n4\n", "malformed-sequence-file"),
            ("# r=2\n2\nfour\n", "malformed-sequence-file"),
            ("# r=2\n", "not-lacunary"),
            ("# r=2\n0\n1\n", "not-lacunary"),
            ("# r=2\n-4\n-2\n", "not-lacunary"),
        ],
        ids=["no-header", "bad-ratio", "bad-term", "no-terms", "zero-term", "negative-term"],
    )
    def test_bad_file_is_a_coded_error(self, capsys, tmp_path, text, code):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        exit_code = main(["gaps", "--seq", str(path), "--n", "2", "--alpha", "7/10"])
        captured = capsys.readouterr()
        assert exit_code == 1 and captured.out == ""
        assert captured.err.startswith(f"error [{code}]")


class TestFindAlpha:
    def test_bound_met(self, capsys):
        code, out = run(capsys, "find-alpha", "--r", "2", "--n", "256")
        payload = json.loads(out)
        assert code == 0
        assert payload["bound_met"] is True

    def test_deterministic(self, capsys):
        _, out1 = run(capsys, "find-alpha", "--r", "3", "--n", "256")
        _, out2 = run(capsys, "find-alpha", "--r", "3", "--n", "256")
        assert out1 == out2

    def test_unmet_bound_prints_payload_and_exits_1(self, capsys, monkeypatch):
        found = cli.find_alpha

        def zero_alpha(seq, n):
            cert = found(seq, n)
            return dataclasses.replace(cert, alpha=DyadicReal(0, 0, cert.alpha.precision_bits))

        monkeypatch.setattr(cli, "find_alpha", zero_alpha)
        code, out = run(capsys, "find-alpha", "--r", "2", "--n", "256")
        payload = json.loads(out)
        assert code == 1
        assert payload["bound_met"] is False and float(payload["verified_max_gap"]) == 1.0


class TestNestedAlpha:
    def test_two_blocks(self, capsys):
        code, out = run(
            capsys, "nested-alpha", "--r", "3", "--k-start", "3", "--k-end", "4"
        )
        payload = json.loads(out)
        assert code == 0
        assert len(payload["blocks"]) == 2


class TestByteIdentity:
    """sha256 of stdout, recorded before the certify path moved from Fraction
    to integer arithmetic (the r = 5/2 find-alpha at N = 2048 and metric-scan
    pins: before residues took the rational-ratio recurrence; the littlewood
    pin: before cz_build walked its expansion in one pass); every decision
    and digit must stay the same.  Three output changes were made on purpose
    and re-pinned: find-alpha prints each constraint's term index under
    "index" instead of its frequency, nested-alpha prints its interval ends
    at the final alpha's precision instead of 192 bits, and each block's
    factor as the lossless "alpha_k_hex" instead of a 40-digit decimal.  The
    two bounded-cf pins were recorded before sample_alpha multiplied its
    partial quotients in product-tree rounds."""

    @pytest.mark.parametrize(
        "argv,code,sha",
        [
            (
                ("find-alpha", "--r", "3", "--n", "1024"),
                0,
                "52a6a66b99d4b8cfcbc40733c66518b9609c395e1d57c64d09c6f3a4ac3243b4",
            ),
            (
                ("find-alpha", "--r", "5/2", "--n", "512"),
                0,
                "0c9134e401ac3e064a2c8bb6ce20a005a05748b2c4afc740c90268207d1d3fd6",
            ),
            (
                ("nested-alpha", "--r", "3", "--k-start", "3", "--k-end", "4"),
                0,
                "f8d8fc3f7a5dfe791a72f370df02ec1b4262f4945525b3105c20df35978f3aa7",
            ),
            (
                # fails the ratio precondition: nothing on stdout
                ("nested-alpha", "--r", "3", "--k-start", "2", "--k-end", "3"),
                1,
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                ("find-alpha", "--r", "5/2", "--n", "2048"),
                0,
                "00c9c4cfc74c4f1742273bbaccf361f1e1504b00c500a7c55bb6b087a361fd6a",
            ),
            (
                (
                    "metric-scan", "--r", "5/2", "--n-min", "1024", "--n-max", "8192",
                    "--alphas", "4", "--seed", "0",
                ),
                0,
                "886fdeb601005830759412ea5e54631d9b1bcb4bd0ea638b8d8ea88dc47032b7",
            ),
            (
                # the steered path: cz_build, then the Littlewood scan on it
                (
                    "littlewood", "--beta", "sqrt:2", "--alpha", "quad:-1,5,2",
                    "--terms", "300",
                ),
                0,
                "64465a174740a496724498e90a79bf2eed443af5833232bcc596572c4ea9f417",
            ),
            (
                # gap_report of a DilatedSet: the alpha, its gaps and bound
                ("gaps", "--r", "3", "--n", "4096", "--alpha", "7/10"),
                0,
                "56ac53ef7502b445bd5ebd6afb6970154eec2c6f5c909aa9baabc386f7e0864c",
            ),
            (
                # the brute Littlewood scan across two quadratic fields
                (
                    "littlewood", "--beta", "sqrt:2", "--alpha", "quad:-1,5,2",
                    "--brute-n", "100000",
                ),
                0,
                "20bb0733446eb287a533a38bc5652018da8679debd5a201a14a4e20a56a0c1b8",
            ),
            (
                # bounded-cf alphas at the scan's precision, 16k bits at N = 2^14
                (
                    "metric-scan", "--r", "2", "--n-min", "1024", "--n-max", "16384",
                    "--alphas", "4", "--measure", "bounded-cf:5", "--seed", "0",
                ),
                0,
                "b828da95acced78bfb564eaefd4da703dd1f6a592aa5467758094f0ab4fb6d18",
            ),
            (
                # no --alpha: alpha is sample_alpha("bounded-cf:5", seed, 192)
                ("littlewood", "--beta", "sqrt:2", "--brute-n", "100000"),
                0,
                "dba7f5b585fffe5f4538c60c1ab36236a56234a35174e74ae2dc0e33e2ec0c51",
            ),
        ],
    )
    def test_stdout_digest(self, capsys, argv, code, sha):
        got_code = main(list(argv))
        captured = capsys.readouterr()
        assert got_code == code
        assert hashlib.sha256(captured.out.encode()).hexdigest() == sha
        if code:
            assert captured.err == (
                "error [infeasible-at-step]: frequency ratio at step 2 below 1/eps + 2\n"
            )


class TestMetricScan:
    def test_csv_then_summary(self, capsys, tmp_path):
        out_file = tmp_path / "scan.csv"
        code, out = run(
            capsys, "metric-scan", "--n-min", "64", "--n-max", "256",
            "--alphas", "12", "--seed", "5", "--out", str(out_file),
        )
        assert code == 0
        csv_text = out_file.read_text()
        assert csv_text.startswith("alpha_id,N,max_gap")
        assert len(csv_text.strip().split("\n")) == 1 + 12 * 3
        summary = json.loads(out[len(csv_text):])
        assert summary["pigeonhole_ok"] is True
        assert "kappa_median" in summary

    def test_reproducible_by_seed(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["metric-scan", "--n-min", "64", "--n-max", "128", "--alphas", "4",
                "--seed", "9"]
        run(capsys, *args, "--out", str(f1))
        run(capsys, *args, "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_bad_measure_is_clean_error(self, capsys):
        code, _ = run(
            capsys, "metric-scan", "--n-min", "64", "--n-max", "64",
            "--alphas", "2", "--measure", "gauss",
        )
        assert code == 1

    def test_measure_spellings_print_the_same_bytes(self, capsys):
        # the label and the summary's "measure" carry the canonical spelling
        outs = []
        for measure in ("bounded-cf:5", " Bounded-CF:5 ", "bounded-cf(5)"):
            code, out = run(
                capsys, "metric-scan", "--n-min", "64", "--n-max", "128",
                "--alphas", "2", "--measure", measure,
            )
            assert code == 0
            outs.append(out)
        assert outs[1] == outs[0] and outs[2] == outs[0]
        assert '"measure": "bounded-cf:5"' in outs[0]

    @pytest.mark.parametrize("measure", ["bounded-cf(5", "bounded-cf:5)", "bounded-cf:5))"])
    def test_malformed_bounded_cf_is_one_coded_line(self, capsys, measure):
        code = main([
            "metric-scan", "--n-min", "64", "--n-max", "64",
            "--alphas", "2", "--measure", measure,
        ])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error [measure-unsupported]: measure-unsupported: {measure!r}\n"


class TestMomentCheck:
    def test_passes_at_1024(self, capsys):
        code, out = run(capsys, "moment-check", "--r", "2", "--n", "1024", "--t", "1/3")
        payload = json.loads(out)
        assert code == 0
        assert payload["passed"] is True
        assert payload["lhs"] <= 1.1 * payload["rhs"]

    def test_t_past_float_range(self, capsys):
        # the moment is 1-periodic in t, so t = 10^999 is t = 0
        code, out = run(capsys, "moment-check", "--n", "1024", "--t", "1e999")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_uncertified_bump_is_clean_error(self, capsys, monkeypatch):
        underresolved = bump_mod.standard_bump.__wrapped__
        monkeypatch.setattr(bump_mod, "standard_bump", lambda: underresolved(nodes=16))
        code = main(["moment-check", "--r", "2", "--n", "1024", "--t", "1/3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error [bump-uncertified]: ")


class TestCf:
    def test_sqrt2(self, capsys):
        code, out = run(capsys, "cf", "--value", "sqrt:2", "--depth", "20")
        payload = json.loads(out)
        assert code == 0
        assert [int(c) for c in payload["partial_quotients"][:5]] == [2, 2, 2, 2, 2]
        assert abs(payload["lambda_sup"] - 0.8814) < 0.01

    def test_rational(self, capsys):
        code, out = run(capsys, "cf", "--value", "rat:3/7", "--depth", "20")
        payload = json.loads(out)
        assert payload["rational_terminated"] is True


class TestCfRendering:
    def test_integers_past_the_digit_limit_print_exactly(self, capsys):
        # 1/10^5000 has the partial quotient 10^5000, 5001 digits, past
        # str()'s default limit of 4300; the limit is lifted only while the
        # payload renders, so parsing a flag keeps it
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out = run(capsys, "cf", "--value", "1e-5000")
        assert code == 0
        assert json.loads(out)["partial_quotients"] == ["1" + "0" * 5000]
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        if limit:
            code = main(["cf", "--value", "7" * (limit + 1)])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err.startswith("error [malformed-value]: ")


class TestLittlewood:
    def test_shift_past_float_range(self, capsys):
        # ||beta n - 10^400|| is ||beta n||: no float of 10^400 is taken
        code, out = run(
            capsys, "littlewood", "--beta", "sqrt:2", "--alpha", "quad:-1,5,2",
            "--eta", "1e400", "--brute-n", "100",
        )
        assert code == 0
        want = run(capsys, "littlewood", "--beta", "sqrt:2", "--alpha", "quad:-1,5,2",
                   "--brute-n", "100")[1]
        assert json.loads(out)["solutions"] == json.loads(want)["solutions"]

    def test_brute_mode(self, capsys):
        code, out = run(
            capsys, "littlewood", "--alpha", "quad:-1,5,2", "--beta", "sqrt:2",
            "--brute-n", "500", "--epsilon", "1/20",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["mode"] == "brute"
        assert payload["solution_count"] >= 1

    def test_cz_mode_includes_recheck(self, capsys):
        code, out = run(
            capsys, "littlewood", "--alpha", "rat:1/3", "--beta", "sqrt:2",
            "--terms", "6",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["cz_recheck"]["all_ok"] is True
        assert len(payload["cz_terms"]) == 6

    def test_cz_terms_past_float_range(self, capsys):
        # terms pass 2^1024 near term 269; the solution products must not
        # convert them to floats
        code, out = run(
            capsys, "littlewood", "--beta", "sqrt:2", "--alpha", "quad:-1,5,2",
            "--terms", "400",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["cz_recheck"]["all_ok"] is True
        assert int(payload["cz_terms"][-1]).bit_length() > 1024
        assert payload["solutions"]
        for sol in payload["solutions"]:
            n = sol["n"]
            with mp.workdps(2 * len(str(n)) + 40):
                alpha, beta = (mp.sqrt(5) - 1) / 2, mp.sqrt(2)
                da = abs(alpha * n - mp.nint(alpha * n))
                db = abs(beta * n - mp.nint(beta * n))
                exact = n * da * db
                assert abs(sol["product"] - exact) <= 1e-15 * exact


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 5\nalpha = 7/10\nr = 2\n")
        code, out = run(capsys, "--config", str(cfg), "gaps")
        payload = json.loads(out)
        assert payload["n"] == 5
        code, out = run(
            capsys, "--config", str(cfg), "gaps", "--n", "4"
        )
        assert json.loads(out)["n"] == 4

    def test_typed_key_on_metric_scan(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alphas = 2\nn-min = 64\nn_max = 128\n")
        code, out = run(capsys, "--config", str(cfg), "metric-scan")
        assert code == 0
        csv_text, _, summary = out.partition("\n{")
        assert csv_text.count("\n") == 2 * 2  # 2 alphas at N = 64, 128
        assert json.loads("{" + summary)["rows"] == 4

    def test_unknown_key_is_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 5\nalpha = 7/10\nno-such-key = 3\n")
        code, out = run(capsys, "--config", str(cfg), "gaps")
        assert code == 0
        assert json.loads(out)["n"] == 5


class TestErrors:
    def test_domain_error_exit_code(self, capsys):
        # alpha precision forced below the dilation gate
        code, _ = run(
            capsys, "gaps", "--r", "2", "--n", "5", "--alpha", "7/10",
            "--precision", "0",
        )
        assert code == 0  # precision floor is computed from the sequence

    @pytest.mark.parametrize(
        "argv",
        [
            ["find-alpha", "--n", "64"],
            ["nested-alpha"],
            ["moment-check", "--n", "256"],
            ["cf", "--value", "sqrt:2"],
            ["littlewood", "--beta", "sqrt:2"],
        ],
    )
    def test_precision_only_where_read(self, argv):
        # --precision sizes alphas for gaps and metric-scan only
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--precision", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["gaps", "--n", "5", "--alpha", "7/10", "--eps", "0.05"],
            ["moment-check", "--n", "256", "--points", "16384"],
            ["moment-check", "--n", "256", "--method", "simpson"],
        ],
    )
    def test_removed_flags_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_ratio_near_one_fails_fast(self, capsys):
        r = f"{2**70 + 1}/{2**70}"
        t0 = time.perf_counter()
        code = main(["find-alpha", "--r", r, "--n", "64"])
        err = capsys.readouterr().err
        assert time.perf_counter() - t0 < 5
        assert code == 1
        assert "N-below-threshold" in err

    @pytest.mark.parametrize(
        "argv, cause",
        [
            (["cf", "--value", "sqrt:4"], "d must be a positive non-square integer"),
            (["cf", "--value", "quad:1,7,0"], "Fraction(1, 0)"),
            (["cf", "--value", "foo:3"], "unknown value spec"),
            (["gaps", "--n", "5", "--alpha", "abc"], "Invalid literal for Fraction"),
            (["gaps", "--n", "5", "--r", "1/0", "--alpha", "7/10"], "Fraction(1, 0)"),
            (["littlewood", "--beta", "sqrt:2", "--eta", "x"], "Invalid literal"),
            (["moment-check", "--n", "64", "--t", "zz"], "Invalid literal"),
        ],
    )
    def test_malformed_value(self, capsys, argv, cause):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error [malformed-value]: ")
        assert cause in captured.err

    @pytest.mark.parametrize("beta", ["rat:1/3", "2"])
    def test_rational_beta(self, capsys, beta):
        code = main(["littlewood", "--beta", beta, "--alpha", "sqrt:3", "--terms", "4"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error [rational-beta]: ")

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2


class TestInputBounds:
    """A window past the end of a --seq file, an empty or negative N range,
    an N below 1, a nested block range with k_start > k_end or a negative
    one, a cf depth of 0, a moment epsilon of 0, a missing --seq or
    --config file and an --out in a missing directory each end in one coded
    error line: exit 1, nothing on stdout, no traceback.  Each case runs in a subprocess with a
    timeout, so a regression to the unbounded N loop fails instead of
    hanging."""

    SHORT = "# r=2\n2\n4\n8\n16\n"

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["gaps", "--seq", "{seq}", "--n", "10", "--alpha", "7/10"], "sequence-too-short"),
            (["metric-scan", "--seq", "{seq}", "--n-min", "2", "--n-max", "8", "--alphas", "2"],
             "sequence-too-short"),
            (["find-alpha", "--seq", "{seq}", "--n", "64"], "sequence-too-short"),
            (["moment-check", "--seq", "{seq}", "--n", "64"], "sequence-too-short"),
            (["nested-alpha", "--seq", "{seq}", "--k-start", "1", "--k-end", "2"],
             "sequence-too-short"),
            (["metric-scan", "--n-min", "0", "--n-max", "64"], "N-out-of-range"),
            (["metric-scan", "--n-min", "-4", "--n-max", "64"], "N-out-of-range"),
            (["metric-scan", "--n-min", "64", "--n-max", "32"], "N-out-of-range"),
            (["nested-alpha", "--k-start", "5", "--k-end", "3"], "N-out-of-range"),
            (["cf", "--value", "sqrt:2", "--depth", "0"], "malformed-value"),
            (["moment-check", "--n", "1024", "--eps", "0"], "epsilon-domain"),
            (["gaps", "--n", "-3", "--alpha", "7/10"], "N-out-of-range"),
            (["nested-alpha", "--k-start", "-2", "--k-end", "-1"], "N-out-of-range"),
            (["gaps", "--seq", "{missing}.txt", "--n", "3", "--alpha", "1/2"],
             "malformed-sequence-file"),
            (["--config", "{missing}.cfg", "gaps", "--n", "3", "--alpha", "1/2"], "file-error"),
            (["gaps", "--n", "3", "--alpha", "1/2", "--out", "{missing}/x.json"], "file-error"),
        ],
        ids=["gaps", "metric-scan", "find-alpha", "moment-check", "nested-alpha",
             "n-min-zero", "n-min-negative", "n-min-above-n-max", "k-start-above-k-end",
             "cf-depth-zero", "moment-eps-zero", "gaps-n-negative", "k-range-negative",
             "seq-file-missing", "config-missing", "out-dir-missing"],
    )
    def test_one_coded_error_line(self, tmp_path, argv, code):
        seq = tmp_path / "short.txt"
        seq.write_text(self.SHORT)
        missing = tmp_path / "missing"
        argv = [a.format(seq=seq, missing=missing) for a in argv]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-m", "lacuna.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error [{code}]: ")
        if code == "sequence-too-short":
            assert "have 4 terms, need" in proc.stderr
        if code in ("malformed-sequence-file", "file-error"):
            assert f"{missing}" in proc.stderr and "No such file or directory" in proc.stderr
        if argv[0] == "nested-alpha" and code == "N-out-of-range":
            assert "need 1 <= k_start <= k_end" in proc.stderr
