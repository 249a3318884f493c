import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import looplab
from looplab import __version__
from looplab.cli import run


def _run(capsys, argv):
    rc = run(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_bad_subcommand_is_usage_error(capsys):
    rc, _, err = _run(capsys, ["frobnicate"])
    assert rc == 1
    assert "usage error" in err


def test_missing_subcommand(capsys):
    rc, _, _ = _run(capsys, [])
    assert rc == 1


def test_invalid_level_is_usage_error(capsys):
    rc, _, err = _run(capsys, ["sample", "--level", "-1", "--n", "1"])
    assert rc == 1
    assert "usage error" in err


def test_sample_header_and_determinism(capsys):
    argv = ["sample", "--level", "0", "--truncation", "3", "--n", "4",
            "--seed", "5"]
    rc1, out1, _ = _run(capsys, argv)
    rc2, out2, _ = _run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    head = out1.splitlines()[0]
    assert head.startswith(f"# looplab {__version__} config=")
    cfg = json.loads(head.split("config=", 1)[1])
    assert cfg["command"] == "sample" and cfg["seed"] == 5
    # header + column row + 4 samples
    assert len(out1.splitlines()) == 6


def test_sample_seed_changes_output(capsys):
    _, a, _ = _run(capsys, ["sample", "--n", "2", "--seed", "1"])
    _, b, _ = _run(capsys, ["sample", "--n", "2", "--seed", "2"])
    assert a != b


def test_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("LOOPLAB_SEED", "123")
    _, out_env, _ = _run(capsys, ["sample", "--n", "1"])
    monkeypatch.delenv("LOOPLAB_SEED")
    _, out_explicit, _ = _run(capsys, ["sample", "--n", "1", "--seed", "123"])
    assert out_env == out_explicit


def test_sample_json_format(capsys):
    rc, out, _ = _run(capsys, ["sample", "--n", "2", "--truncation", "2",
                               "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert len(payload["samples"]) == 2
    assert len(payload["samples"][0]["eta"]) == 2


def test_identities_gate_green(capsys):
    rc, out, _ = _run(capsys, ["identities", "--trials", "3", "--m", "48",
                               "--seed", "0"])
    assert rc == 0
    rows = out.strip().splitlines()[2:]
    assert len(rows) == 3


def test_roundtrip_gate_green(capsys):
    rc, out, _ = _run(capsys, ["roundtrip", "--trials", "2", "--seed", "1"])
    assert rc == 0


def test_roundtrip_impossible_tol_exits_2(capsys):
    rc, _, _ = _run(capsys, ["roundtrip", "--trials", "2", "--seed", "1",
                             "--tol", "1e-300"])
    assert rc == 2


def _assert_usage_error(capsys, argv, flag):
    rc, out, err = _run(capsys, argv)
    assert rc == 1 and out == "" and err.startswith("usage error") and flag in err


@pytest.mark.parametrize("n", ["-1", "0"])
def test_sample_n_must_be_positive(capsys, n):
    _assert_usage_error(capsys, ["sample", "--n", n], "--n")


@pytest.mark.parametrize("command", ["roundtrip", "identities"])
@pytest.mark.parametrize("trials", ["-3", "0"])
def test_trials_must_be_positive(capsys, command, trials):
    _assert_usage_error(capsys, [command, "--trials", trials], "--trials")


def test_identities_m_must_be_non_negative(capsys):
    _assert_usage_error(capsys, ["identities", "--trials", "1", "--m", "-5"], "--m")


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_roundtrip_tol_must_be_finite_and_positive(capsys, tol):
    _assert_usage_error(capsys, ["roundtrip", "--trials", "1", "--tol", tol],
                        "--tol")


def test_diag_small(capsys):
    rc, out, _ = _run(capsys, ["diag", "--n", "20000", "--truncation", "128",
                               "--lambda", "1.0", "--seed", "0"])
    assert rc == 0
    assert "lambda," in out


def test_affine_table_and_word(capsys):
    rc, out, _ = _run(capsys, ["affine", "--type", "A", "--rank", "1",
                               "--level", "0", "--horizon", "4"])
    assert rc == 0
    lines = out.splitlines()
    # zeta exponents at level 0 for the rank-1 system: 2k
    zrows = [l for l in lines if l.startswith("zeta,")]
    assert [r.split(",")[-1] for r in zrows] == ["2", "4", "6", "8"]
    word = json.loads(lines[-1])
    assert word["period_length"] == 2
    assert word["word"][:4] == [0, 1, 0, 1]


def test_affine_rank_three(capsys):
    rc, out, _ = _run(capsys, ["affine", "--type", "A", "--rank", "3",
                               "--level", "0", "--horizon", "2"])
    assert rc == 0
    # A3 has 6 positive roots: 6 zeta rows per delta-coefficient
    assert sum(l.startswith("zeta,") for l in out.splitlines()) == 12


def test_affine_invalid_level_usage_error(capsys):
    rc, _, err = _run(capsys, ["affine", "--type", "B", "--rank", "2",
                               "--level", "0", "--horizon", "2"])
    assert rc == 1
    assert "usage error" in err


@pytest.mark.parametrize("level", ["inf", "nan"])
def test_affine_non_finite_level_usage_error(capsys, level):
    rc, _, err = _run(capsys, ["affine", "--type", "A", "--rank", "1",
                               "--level", level, "--horizon", "2"])
    assert rc == 1
    assert "usage error" in err


def test_invariance_identity_mode(capsys):
    rc, out, _ = _run(capsys, ["invariance", "--mode", "identity", "--n", "10",
                               "--truncation", "6", "--seed", "0"])
    assert rc == 0
    summary = json.loads(out)
    assert summary["ks"] == 0.0 and summary["gate_pass"] is True


def test_reparam_identity_mode(capsys):
    # sigma = id leaves g: both streams hold the same values, so D = 0
    rc, out, _ = _run(capsys, ["reparam", "--mode", "identity", "--n", "10",
                               "--truncation", "6", "--seed", "0"])
    assert rc == 0
    summary = json.loads(out)
    assert summary["ks"] == 0.0 and summary["max_per_sample_diff"] == 0.0
    assert summary["gate_pass"] is True


def test_reparam_rotation_mode(capsys):
    rc, out, _ = _run(capsys, ["reparam", "--mode", "rotation", "--n", "10",
                               "--truncation", "6", "--seed", "0"])
    assert rc == 0
    summary = json.loads(out)
    assert summary["max_per_sample_diff"] < 1e-9


def test_wiener_self_test_small(capsys):
    rc, out, _ = _run(capsys, ["wiener", "--n", "50", "--steps", "32",
                               "--reference-level", "0", "--seed", "3"])
    assert rc == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["n_effective"] > 40


def test_out_file(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    rc, out, _ = _run(capsys, ["sample", "--n", "1", "--out", str(path)])
    assert rc == 0
    text = path.read_text()
    assert text.startswith("# looplab")


def test_reparam_rotation_abs_zeta1(capsys):
    rc, out, _ = _run(capsys, ["reparam", "--mode", "rotation", "--n", "6",
                               "--truncation", "6", "--observable",
                               "abs_zeta1", "--seed", "2"])
    assert rc == 0
    assert json.loads(out)["max_per_sample_diff"] < 1e-9


def _run_python(args, **env_extra):
    """``python *args`` in a fresh interpreter that imports this looplab."""
    env = dict(os.environ, **env_extra)
    src = str(Path(looplab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def _run_module(module, argv, **env_extra):
    """The command run as ``python -m module`` in a fresh interpreter."""
    return _run_python(["-m", module, *argv], **env_extra)


def test_import_loads_no_scipy_stats_integrate_special_or_fft():
    # they load on first use (the eta_0 test's KS p-value, Hellinger
    # quadrature, Gamma), so a command that uses none of them does not pay
    # for them at start-up
    lazy = ("scipy.stats", "scipy.integrate", "scipy.special", "scipy.fft")
    code = ("import sys, looplab, looplab.cli; "
            f"print(*[m for m in {lazy!r} if m in sys.modules])")
    proc = _run_python(["-c", code])
    assert (proc.returncode, proc.stdout.strip()) == (0, "")


@pytest.mark.parametrize("argv,loads_stats", [
    (["invariance", "--mode", "translate", "--truncation", "6"], False),
    (["invariance", "--mode", "power", "--truncation", "6"], False),
    (["reparam", "--mode", "hyperbolic", "--truncation", "6"], False),
    (["wiener", "--steps", "32"], True),    # the eta_0 test's kstwo.sf
], ids=["translate", "power", "hyperbolic", "wiener"])
def test_only_the_eta0_test_loads_scipy_stats(argv, loads_stats):
    # the two-sample KS p-value of invariance and reparam is computed in
    # looplab, so those commands start without scipy.stats
    code = ("import sys; from looplab.cli import run; rc = run(sys.argv[1:]); "
            "print(rc, 'scipy.stats' in sys.modules)")
    proc = _run_python(["-c", code, *argv, "--n", "20", "--seed", "1"])
    *out, last = proc.stdout.strip().splitlines()
    assert proc.returncode == 0 and "ks" in json.loads(out[-1])
    assert last.split()[1] == str(loads_stats)


@pytest.mark.parametrize("module", ["looplab.cli", "looplab"])
def test_module_entry_point_matches_run(capsys, module):
    argv = ["affine", "--type", "A", "--rank", "1"]
    rc, out, _ = _run(capsys, argv)
    proc = _run_module(module, argv)
    assert out
    assert (proc.returncode, proc.stdout) == (rc, out)


def test_identities_output_does_not_depend_on_blas_threads():
    # the log dets come from the zgesv LU, which OpenBLAS does not thread at
    # these sizes; a threaded getrf rounds differently with 2 threads
    argv = ["identities", "--level", "0", "--m", "64", "--trials", "8",
            "--seed", "7"]
    one, two = (_run_module("looplab", argv, OPENBLAS_NUM_THREADS=n)
                for n in ("1", "2"))
    assert one.returncode == 0 and one.stdout
    assert (two.returncode, two.stdout) == (one.returncode, one.stdout)
