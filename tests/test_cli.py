import json
import math
import os
import subprocess
import sys

import pytest

from beurling.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_rationals_floor(capsys):
    code, out, _ = run_cli(
        capsys,
        "count", "--system", "builtin:rationals", "--limit", "1000",
        "--grid", "10:1000:10",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "x,N,pi,psi"
    for row in lines[1:]:
        x, n, _, _ = row.split(",")
        assert int(n) == math.floor(float(x))


def test_count_manifest_present(capsys):
    code, out, _ = run_cli(
        capsys,
        "count", "--system", "builtin:rationals", "--limit", "100",
        "--grid", "10,50,100",
    )
    assert code == 0
    assert any(l.startswith("# version=") for l in out.splitlines())
    assert any(l.startswith("# command=count") for l in out.splitlines())


def test_count_grid_beyond_limit_is_domain_error(capsys):
    code, _, err = run_cli(
        capsys,
        "count", "--system", "builtin:rationals", "--limit", "1000",
        "--grid", "10:2000:10",
    )
    assert code == 1
    assert "error:" in err


def test_usage_error_exit_2(capsys):
    code, _, _ = run_cli(capsys, "count", "--system", "builtin:rationals",
                         "--limit", "100", "--grid", "1:10:1", "--bogus")
    assert code == 2
    code, _, _ = run_cli(capsys, "not-a-command")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        "perron --system builtin:rationals --limit 1000 --x 500.5",
        "mellin --kernel exp --op transform",
        "mellin --kernel exp --op transform --s 2+zi",
        "mellin --kernel exp --op partition --system builtin:rationals --limit 1000",
        "mellin --kernel exp --op partition --system builtin:rationals --limit 1000 --x one",
        "zeta --system builtin:rationals --limit 1000 --s abc",
        "order reconstruct --limit 72",
        # malformed or NaN values, each checked by its option's type
        "mellin --op partition --system list:2,3 --limit 100 --s abc --x 1",
        "zeta --system list:2,3 --limit 100 --s nan",
        "perron --system list:2,3 --limit 100 --x nan --T 10",
        "fe-check --pair theta --s-grid abc",
        "count --system list:2,3 --limit 100 --grid a:b:1",
        "count --system list:2,3 --limit 100 --grid 1:1e10:1e-320",
        "perron --system list:2,3 --limit 100 --x 10.5 --scan abc",
        "axioms --oracle builtin:rationals --limit 100 --window 5",
        "gen --system list:2,x --limit 100 --bound 10",
        "fe-check --system list:2,3 --limit 100 --kernel gauss",
        "zeta --system list:2,3 --limit 100 --s 2 --threads 0",
        "zeta --system list:2,3 --limit 100 --s 2 --threads -1",
        "zeta --system list:2,3 --limit 100 --s 2 --threads abc",
    ],
)
def test_usage_error_one_line_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("beurling")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        "perron --system list:2,3 --limit 100 --x 10.5 --T 10 --c inf",
        "perron --system builtin:rationals --limit 100 --x inf --T 10",
        "perron --system builtin:rationals --limit 100 --x inf --T 10 --c 1.5",
        "zeta --system list:2,3 --limit 100 --s 2 --cutoff 0",
        "fe-check --pair theta --limit 100 --x-min 0",
        "fe-check --pair theta --limit 100 --x-points -1",
        "count --system list:2,3 --limit 1e10 --grid 1:2e6:1",
        "count --config missing.cfg --grid 1:10:1",
        "mellin --op continue --system list:2,3 --limit 100 --s 3 --expansion missing.json",
        "gen --system file:missing.txt --bound 10",
        "order reconstruct --oracle cmd:",
        "order reconstruct --oracle cmd:./missing-binary",
        "gen --system list:2,3 --limit 100 --bound 10 --out missing-dir/out.csv",
        "gen --system list:2,3 --limit 100 --bound 20 --power 0",
    ],
)
def test_domain_error_one_line_exit_1(capsys, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError("Unable to allocate 714. MiB for an array"), "Unable to allocate 714. MiB for an array"),
        (MemoryError(), "out of memory"),
    ],
)
def test_allocation_failure_one_line_exit_1(capsys, monkeypatch, exc, message):
    import beurling.perron

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(beurling.perron, "perron_psi", fail)
    code, out, err = run_cli(
        capsys, *"perron --system builtin:rationals --limit 1000 --x 400.5 --T 100".split()
    )
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_byte_identical_reruns(capsys):
    args = (
        "zeta", "--system", "builtin:rationals", "--limit", "10000",
        "--s", "2", "--s", "2+10i", "--method", "euler",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        "zeta --system builtin:rationals --limit 10000 --s 2 --s 3 --s 2+10i --method dirichlet",
        # perron accepts and echoes --threads, and has nothing to shard
        "perron --system builtin:rationals --limit 10000 --x 500.5 --T 2000",
        "perron --system builtin:rationals --limit 10000 --x 500.5 --scan 100,1000,2000",
    ],
    ids=["zeta", "perron", "perron-scan"],
)
def test_thread_count_does_not_change_output(capsys, argv):
    _, out1, _ = run_cli(capsys, *argv.split(), "--threads", "1")
    _, out4, _ = run_cli(capsys, *argv.split(), "--threads", "4")
    # manifests echo the thread count; the data rows must be identical
    assert "# threads=4" in out4.splitlines()
    rows1 = [l for l in out1.splitlines() if not l.startswith("#")]
    rows4 = [l for l in out4.splitlines() if not l.startswith("#")]
    assert rows1 == rows4


@pytest.mark.parametrize("value", ["0", "-1", "abc"])
def test_bad_thread_variable_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("BEURLING_THREADS", value)
    code, out, err = run_cli(capsys, "zeta", "--system", "list:2,3", "--limit", "100", "--s", "2")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "BEURLING_THREADS" in err


def test_thread_variable_is_read_per_call(capsys, monkeypatch):
    """The parser is built once per process; the environment is read on every call."""
    argv = ("zeta", "--system", "list:2,3", "--limit", "100", "--s", "2")
    echoed = []
    for value in ("1", "2"):
        monkeypatch.setenv("BEURLING_THREADS", value)
        _, out, _ = run_cli(capsys, *argv)
        echoed += [l for l in out.splitlines() if l.startswith("# threads=")]
    assert echoed == ["# threads=1", "# threads=2"]


def test_zeta_json_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "zeta", "--system", "builtin:rationals", "--limit", "100000",
        "--s", "2", "--method", "dirichlet", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["manifest"]["command"] == "zeta"
    row = data["rows"][0]
    assert abs(float(row["value_re"]) - math.pi**2 / 6) < 1e-4


def test_gen_single_prime(capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--system", "list:2", "--limit", "100", "--bound", "10",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    vals = [float(r.split(",")[0]) for r in lines]
    assert vals == pytest.approx([1.0, 2.0, 4.0, 8.0], rel=1e-12)


def test_gen_power_renormalisation(capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--system", "list:2", "--limit", "100", "--power", "2",
        "--bound", "20",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    vals = [float(r.split(",")[0]) for r in lines]
    assert vals == pytest.approx([1.0, 4.0, 16.0], rel=1e-12)


def test_perron_run(capsys):
    code, out, _ = run_cli(
        capsys,
        "perron", "--system", "builtin:rationals", "--limit", "2000",
        "--x", "500.5", "--T", "1000", "--json",
    )
    assert code == 0
    data = json.loads(out)
    row = data["rows"][0]
    assert float(row["error"]) <= float(row["budget"])


def test_perron_scan(capsys):
    code, out, _ = run_cli(
        capsys,
        "perron", "--system", "builtin:rationals", "--limit", "2000",
        "--x", "500.5", "--scan", "100,300,1000", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["monotone_trend"] in ("true", "false")
    assert len(data["rows"]) == 3


def test_mellin_transform(capsys):
    code, out, _ = run_cli(capsys, "mellin", "--kernel", "exp", "--s", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert abs(float(data["rows"][0]["value_re"]) - 1.0) < 1e-9


def test_fe_check_theta(capsys):
    code, out, _ = run_cli(
        capsys, "fe-check", "--pair", "theta", "--x-points", "10", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert float(data["max_abs_residual"]) <= 1e-10


def test_fe_check_theta_with_s_grid(capsys):
    code, out, _ = run_cli(
        capsys, "fe-check", "--pair", "theta", "--x-points", "5",
        "--s-grid", "2,0.5", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert float(data["mellin_max_residual"]) <= 1e-8


def test_fe_check_custom_kernel_and_h(capsys, tmp_path):
    # custom route: gauss kernel over the naturals with the explicit H terms
    h_file = tmp_path / "h.json"
    h_file.write_text(
        '[{"a": [0.5, 0.0], "mu": [-1.0, 0.0], "nu": 0},'
        ' {"a": [-0.5, 0.0], "mu": [0.0, 0.0], "nu": 0}]'
    )
    code, out, _ = run_cli(
        capsys,
        "fe-check", "--kernel", "gauss", "--expansion", "gauss",
        "--h-file", str(h_file),
        "--system", "builtin:rationals", "--limit", "10000",
        "--x-points", "5", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert float(data["max_abs_residual"]) <= 1e-10


def test_order_reconstruct_builtin(capsys):
    # horizon only matters for prime indices beyond the stored range; the
    # f searches stay on index 1, so a tight limit is enough
    code, out, _ = run_cli(
        capsys,
        "order", "reconstruct", "--oracle", "builtin:rationals", "--limit", "10",
        "--p1", "2", "--K", "4", "--n", "1000", "--json",
    )
    assert code == 0
    data = json.loads(out)
    primes = [float(r["prime"]) for r in data["rows"]]
    for got, want in zip(primes, [2, 3, 5, 7]):
        assert abs(got / want - 1) <= 1e-3


def test_order_coincide(capsys):
    code, out, _ = run_cli(
        capsys,
        "order", "coincide", "--system", "builtin:rationals", "--limit", "1e6",
        "--system2", "builtin:rationals", "--prefix", "200", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["rows"][0]["coincide"] == "true"


def test_axioms_builtin(capsys):
    code, out, _ = run_cli(
        capsys,
        "axioms", "--oracle", "builtin:rationals", "--limit", "1000",
        "--window", "4,4", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_pass"] == "true"


def test_order_reconstruct_process_oracle(capsys, tmp_path):
    script = tmp_path / "oracle.py"
    script.write_text(
        "import math, sys\n"
        "logs = [math.log(2), math.log(3), math.log(5)]\n"
        "for line in sys.stdin:\n"
        "    m, n, m2, n2 = map(int, line.split())\n"
        "    a, b = n * logs[m-1], n2 * logs[m2-1]\n"
        "    print('=' if abs(a-b) <= 1e-12 else ('<' if a < b else '>'), flush=True)\n"
    )
    code, out, _ = run_cli(
        capsys,
        "order", "reconstruct", "--oracle", f"cmd:{sys.executable} {script}",
        "--p1", "2", "--K", "3", "--n", "500", "--json",
    )
    assert code == 0
    data = json.loads(out)
    primes = [float(r["prime"]) for r in data["rows"]]
    for got, want in zip(primes, [2, 3, 5]):
        assert abs(got / want - 1) <= 2e-3


def test_config_file_merge(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("system=builtin:rationals\nlimit=100\n")
    code, out, _ = run_cli(
        capsys, "count", "--config", str(cfg), "--grid", "10,50",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[1].split(",")[1] == "10"
    # explicit flags win over the config value
    code, out, _ = run_cli(
        capsys, "count", "--config", str(cfg), "--grid", "10,50", "--limit", "30",
    )
    assert code == 1  # grid exceeds the overridden (smaller) limit


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys,
        "count", "--system", "builtin:rationals", "--limit", "100",
        "--grid", "10,20", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("#")


def test_exact_commands_import_no_analytic_layer():
    """count, gen and zeta never load mpmath, subprocess or the mellin, orders and perron layers."""
    script = """
import contextlib, io, sys
from beurling.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["count", "--system", "builtin:rationals", "--limit", "1000", "--grid", "10:1000:10"]),
        main(["gen", "--system", "list:2,3", "--limit", "100", "--bound", "50"]),
        main(["zeta", "--system", "builtin:rationals", "--limit", "1000", "--s", "2", "--method", "euler"]),
    ]
heavy = ("mpmath", "subprocess", "concurrent.futures", "beurling.mellin", "beurling.orders", "beurling.perron")
print(codes, [m for m in heavy if m in sys.modules])
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("BEURLING_THREADS", None)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[0, 0, 0] []\n"


def test_perron_with_x_plus_three_past_the_horizon(capsys):
    """Perron needs only 2x <= limit: its gap check reads x +- 1, not x +- 3."""
    code, out, err = run_cli(
        capsys, *"perron --system list:2,3 --limit 5.2 --x 2.5 --T 10 --json".split()
    )
    assert (code, err) == (0, "")
    row = json.loads(out)["rows"][0]
    assert float(row["error"]) <= float(row["budget"])


@pytest.mark.parametrize(
    "argv, message",
    [
        ("gen --bound 10", "error: this command needs --system\n"),
        ("gen --system builtin:rationals --bound 10", "error: builtin systems need --limit\n"),
    ],
)
def test_system_spec_refusals(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out, err) == (1, "", message)


def test_file_system_takes_the_limit_option(capsys, tmp_path):
    path = tmp_path / "primes.txt"
    path.write_text("limit=10\n2\n3\n")
    argv = ["gen", "--system", f"file:{path}", "--bound", "20"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and "horizon 10.0" in err
    code, out, _ = run_cli(capsys, *argv, "--limit", "20", "--json")
    assert code == 0
    data = json.loads(out)
    assert [float(r["value"]) for r in data["rows"]] == pytest.approx([1, 2, 3, 4, 6, 8, 9, 12, 16, 18])
