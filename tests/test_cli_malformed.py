"""Every option value of every subcommand, replaced by a malformed one.

Each case starts from a cheap valid argv and substitutes one value from a
fixed pool.  `main` must return 0, 1 or 2 without raising; a non-zero exit
writes exactly one stderr line and nothing to stdout.
"""
import math
import shlex

import pytest

from beurling import mellin
from beurling.cli import build_parser, main

H_TEXT = '[{"a": [0.5, 0.0], "mu": [-1.0, 0.0], "nu": 0}, {"a": [-0.5, 0.0], "mu": [0.0, 0.0], "nu": 0}]'

BASES = [
    "gen --system list:2,3 --limit 100 --bound 20",
    "count --system list:2,3 --limit 100 --grid 1:20:1",
    "zeta --system list:2,3 --limit 100 --s 2",
    "perron --system list:2,3 --limit 100 --x 10.5 --T 10",
    "mellin --op transform --kernel gauss --s 3",
    "fe-check --pair theta --limit 100 --x-points 3",
    "order coincide --system list:2,3 --limit 100 --system2 list:2,3 --prefix 10",
    "axioms --oracle builtin:rationals --limit 100 --window 2,2",
]
# bases that read options the ones above ignore, with those options
MORE_BASES = {
    "mellin --op continue --kernel gauss --system list:2,3 --limit 100 --s 3":
        ["--system", "--limit", "--power", "--kernel", "--expansion", "--s"],
    "fe-check --system list:2,3 --limit 100 --kernel gauss --h-file h.json --x-points 3":
        ["--pair", "--system", "--limit", "--power", "--kernel", "--expansion", "--h-file"],
    "order reconstruct --oracle builtin:rationals --limit 100 --K 3 --n 50":
        ["--oracle", "--limit", "--power", "--p1", "--K", "--n"],
    **{
        f"zeta --system list:2,3 --limit 100 --s 2 --method {method}": ["--s", "--cutoff"]
        for method in ("dirichlet", "mellin", "continued", "phi")
    },
}

POOL = [
    "", "abc", "nan", "inf", "-inf", "1e400", "-1", "0", "0.5", "5", "2+zi",
    "1,", ",", "1:2", "a:b:1", "1:10:0", "5,5,5",
    "list:", "list:abc", "list:0.5", "builtin:foo", "file:/nonexistent", "cmd:",
    "cmd:/nonexistent",
]
FILE_OPTIONS = ("--config", "--expansion", "--h-file")
# files in the test's working directory; see the `workdir` fixture
FILE_TEXTS = {
    "not-json.txt": b"limit=abc\nnot a pair\n=1\n",
    "wrong-shape.json": b'[{"lambda": [1]}]',
    "short-list.json": b'[{"a": [1], "mu": [0, 0], "nu": 0}]',
    "object.json": b'{"a": 1}',
    "huge.json": b'[{"a": [1, 0], "mu": [0, 0], "nu": 1e400}]',
    "latin1.txt": b"limit=\xe9\n",  # not UTF-8
}
FILE_TOKENS = ["missing.json", "."] + list(FILE_TEXTS)
# the same files as prime lists, for the options that read one
SYSTEM_FILE_TOKENS = {
    option: [prefix + name for name in [".", *FILE_TEXTS]]
    for option, prefix in (("--system", "file:"), ("--system2", "file:"), ("--oracle", "system:"))
}


def _value_options(command):
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    return [
        action.option_strings[-1]
        for action in sub._actions
        if action.option_strings and action.nargs != 0
    ]


def _substitute(base, option, token):
    argv = shlex.split(base)
    if option in argv:
        argv[argv.index(option) + 1] = token
    else:
        argv += [option, token]
    return argv


def _cases():
    for base in BASES:
        for option in _value_options(base.split()[0]):
            yield pytest.param(base, option, id=f"{base.split()[0]}|{option}")
    for base, options in MORE_BASES.items():
        assert set(options) <= set(_value_options(base.split()[0]))
        for option in options:
            yield pytest.param(base, option, id=f"{' '.join(base.split()[:2])}|{option}")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("malformed")
    (path / "h.json").write_text(H_TEXT)
    for name, text in FILE_TEXTS.items():
        (path / name).write_bytes(text)
    return path


@pytest.fixture
def in_workdir(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    monkeypatch.delenv("BEURLING_THREADS", raising=False)


@pytest.mark.parametrize("base", BASES + list(MORE_BASES))
def test_base_is_valid(base, in_workdir, alarm, capsys):
    code = main(shlex.split(base))
    assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize("base,option", list(_cases()))
def test_malformed_values(base, option, in_workdir, alarm, capsys, request, monkeypatch):
    if option == "--out":  # files of its own, which no other case reads
        monkeypatch.chdir(request.getfixturevalue("tmp_path"))
    problems = []
    extra = FILE_TOKENS if option in FILE_OPTIONS else SYSTEM_FILE_TOKENS.get(option, [])
    for token in POOL + extra:
        code = main(_substitute(base, option, token))
        out = capsys.readouterr()
        if code not in (0, 1, 2) or code and (out.out or len(out.err.splitlines()) != 1):
            problems.append((token, code, out.out[:200], out.err))
    assert not problems


def _theta_pair_zero_error():
    from beurling.errors import EmptySystemError
    from beurling.mellin import theta_pair

    with pytest.raises(EmptySystemError) as exc:
        theta_pair(0.0)  # --limit reads a float
    return f"error: {exc.value}\n"


@pytest.mark.parametrize(
    "argv,err",
    [
        ("fe-check --pair theta --limit 0 --x-points 3", _theta_pair_zero_error),
        (
            "zeta --system list:2,3 --limit 100 --s 2 --method mellin --cutoff 0",
            lambda: "error: x_max 0.0 is outside [1, 100.0]\n",
        ),
    ],
    ids=["fe-check|--limit", "zeta mellin|--cutoff"],
)
def test_zero_is_a_value_not_an_absent_option(argv, err, in_workdir, capsys):
    """A 0 is read as given: it is out of range, not a fallback to the default."""
    assert main(shlex.split(argv)) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == err()


@pytest.mark.parametrize("method", ["euler", "dirichlet", "mellin", "continued", "phi"])
def test_phase_overflow_is_a_parameter_error(method, in_workdir, capsys):
    """At |Im s| = 1e308, s log X overflows: an error line, not a traceback or a nan."""
    base = f"zeta --system builtin:rationals --limit 100 --method {method} --s"
    for s in ("2+1e308i", "2-1e308i"):
        assert main(shlex.split(f"{base} {s}")) == 1
        out = capsys.readouterr()
        assert out.out == ""
        z = complex(s.replace("i", "j"))
        assert out.err == f"error: s * log X is not finite for s = {z} and X = 100.0\n"
    assert main(shlex.split(f"{base} 2+1e307i")) == 0
    out = capsys.readouterr()
    assert out.err == "" and "nan" not in out.out


@pytest.mark.parametrize(
    "argv",
    [
        # the sieve's mask would take 931 GiB, or more elements than numpy allows
        "count --system builtin:rationals --limit 1e12 --grid 1:10:1",
        "count --system builtin:rationals --limit 1e300 --grid 1:10:1",
        # a grid of 2T/step nodes, and an x^c that overflows into a nan budget
        "perron --system builtin:rationals --limit 1e4 --x 100.5 --T 1e300",
        "perron --system builtin:rationals --limit 1e4 --x 100.5 --T 10 --c 1e300",
        # x^(1 - s) at the Mellin walk's first x
        "fe-check --pair theta --s-grid 1e300",
    ],
)
def test_inputs_past_the_machine_are_refused(argv, in_workdir, alarm, capsys):
    """Each is refused with one error line before its work starts."""
    assert main(shlex.split(argv)) == 1
    out = capsys.readouterr()
    assert out.out == "" and len(out.err.splitlines()) == 1
    assert out.err.startswith("error: ")


def _past_the_node_cap(x=100.5):
    from beurling.perron import MAX_NODES, PerronParams

    return math.nextafter(MAX_NODES * PerronParams(x=x, T=1.0).step / 2, math.inf)


@pytest.mark.parametrize(
    "argv,code",
    [
        ("perron --system list:2,3 --limit 100 --x 10.5 --T 1e-300", 0),  # a 3-node line
        (f"perron --system builtin:rationals --limit 1e4 --x 100.5 --T {_past_the_node_cap()!r}", 1),
        ("perron --system list:2,3 --limit 5.2 --x 2.5 --T 10", 0),
        ("perron --system builtin:rationals --limit 1000 --power 1.5 --x 150.5 --T 300", 0),
        ("perron --system builtin:rationals --limit 1000 --power 1.5 --x 150.5 --scan 10,100,300", 0),
    ],
    ids=["3 nodes", "past MAX_NODES", "x + 3 past the horizon", "power system", "power system scan"],
)
def test_perron_edges_end_in_an_exit_code(argv, code, in_workdir, alarm, capsys):
    """The line sums' edges: a run ends with its exit code and at most one stderr line."""
    assert main(shlex.split(argv)) == code
    out = capsys.readouterr()
    assert len(out.err.splitlines()) == (code != 0)
    assert (out.out == "") == (code != 0)


def test_an_overflowing_s_is_refused_before_any_quadrature(in_workdir, alarm, capsys, monkeypatch):
    """At s = -1e300 the 1 - s side passes its checks and the s side overflows; both
    sides are checked before either one's quadrature runs.  At s = 2 the same patch
    is reached, so it stands in for the quadrature that both sides run."""

    def no_quad(*args, **kwargs):
        raise AssertionError("a quadrature ran before the grid point was checked")

    monkeypatch.setattr(mellin, "_de_quad", no_quad)
    spec1, spec2, _ = mellin.theta_pair(100)
    with pytest.raises(AssertionError, match="a quadrature ran"):
        mellin.check_fe_mellin(spec1, spec2, [2.0])
    assert main(shlex.split("fe-check --pair theta --s-grid=-1e300")) == 1
    out = capsys.readouterr()
    assert out.out == "" and len(out.err.splitlines()) == 1
    assert out.err == "error: x^s overflows for s = (-1e+300+0j) at x = 0.5\n"


def test_a_kernel_that_underflows_to_zero_warns_nothing(in_workdir, capsys):
    """At x = 1e-300 the gauss kernel's argument squares past the float range; its
    value is rightly 0, and the run flags the row, with nothing on stderr."""
    assert main(shlex.split("fe-check --pair theta --x-min 1e-300")) == 0
    out = capsys.readouterr()
    row = next(line for line in out.out.splitlines() if line.startswith("1e-300,"))
    assert out.err == "" and row.endswith(",true")
