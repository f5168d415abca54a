"""Golden CLI output: each invocation's stdout, hashed, against a recorded hash.

The hashes were recorded from the commit before the g-integer walk was
shared between counting and zeta, and the last seven (--config to --s-grid)
from the commit before the CLI checked option values by argparse type
(Python 3.11.7, numpy 2.4.6, mpmath 1.3.0, x86-64).  Every value is printed with repr(), so a numpy or libm that rounds
one exp or log differently changes a hash; on another platform, re-record
the hashes from a trusted commit before comparing.  `BEURLING_THREADS` is
removed from the environment because the manifest echoes the thread count.
"""
import contextlib
import hashlib
import io
import shlex

import pytest

from beurling.cli import main

README_EXAMPLES = [
    ("count --system builtin:rationals --limit 1000 --grid 10:1000:10",
     "e4033d71abc568de5f0f73d11e40416290ba7a1f6222e4ea69653bde6308e74f"),
    ("gen --system list:2,3 --limit 100 --bound 50",
     "c47501a268ff33df0223a86591ae709bb0a2651e791752c141d2ac24dd8dc230"),
    ("zeta --system builtin:rationals --limit 100000 --s 2 --s 2+10i --method euler --json",
     "696bad9d670df32bccfaaaf6f614138a9d427a39f0990bba73608232003ad480"),
    ("zeta --system builtin:rationals --limit 10000 --s 3 --method mellin",
     "efb69de4a72437765c0c4580400926348bc29ce63bb00ce5fe79ed4ea3cd1325"),
    ("perron --system builtin:rationals --limit 10000 --x 1000.5 --T 10000",
     "e767b5f24434232bb59bf3e658afe38e8f9c4ee7231678a22c0fd4eac6d1c754"),
    ("perron --system builtin:rationals --limit 10000 --x 500.5 --scan 100,1000,10000",
     "5f74ece523e60b82bec0bd845212d8e2fea8a58a26185dc28fc680695868ad59"),
    ("mellin --kernel exp --s 0.5 --op transform",
     "e818057c8e9d1a361059668f8b75072db4915fc0e68e7f394b87eb5a3aad1ee7"),
    ("mellin --kernel exp --op continue --expansion exp --system builtin:rationals --limit 20000 --s 0.5",
     "99243379b4deaae58de521e4ba7fdddaa2789e14ad5a52b3607732c0e4825183"),
    ("fe-check --pair theta --json",
     "44987a4edefd5f9a1db5cd231c01c6c5d614734e6aaee0137e9270526f9465ff"),
    ("order reconstruct --oracle builtin:rationals --limit 72 --p1 2 --K 20 --n 10000",
     "76ff695923e17a60d5714e6873977145fa025115e991e6a86fda88fe878edc8f"),
    ("order coincide --system builtin:rationals --limit 1000 --system2 builtin:rationals --prefix 1000",
     "8810e8524cc1a2877948b52009166f19e43edba883497ff6df24e8a708c0eb0a"),
    ("axioms --oracle builtin:rationals --limit 1000 --window 5,5",
     "3227ae360f0f117c05df2488f8fdc3f05d52e0a24bc2b77264e3850368d714b7"),
]

# every zeta method, mellin partition and continue, fe-check with an s-grid,
# Gaussian count, perron and gen, and the --config, --out, --power, --window
# and --threads paths
MORE_INVOCATIONS = [
    ("zeta --system builtin:rationals --limit 10000 --s 2 --s 3+4i --method dirichlet",
     "2ef840688c17144a4b2e1107ba2318d3c59cc39ecc205bfd5bfd6eb45d396960"),
    ("zeta --system builtin:rationals --limit 10000 --s 0.9 --s 2+10i --method continued",
     "14b5843936279b0105ca4693a755bb9cf845fe6b6d3215b5d9c6df1586163d69"),
    ("zeta --system builtin:rationals --limit 10000 --s 2 --s 1.5+3i --method phi",
     "c66b1dd552d2b4e570ec3e65df4dc9eb45f4cf76622081bbe6e60fc82541c227"),
    ("zeta --system builtin:gaussian --limit 10000 --s 2 --s 1.5+3i --method mellin --cutoff 5000",
     "3217194c44650bd7974f24c3bc7dbd107c3864a0f50cdc26a88fdecaee1842ba"),
    ("zeta --system builtin:rationals --limit 10000 --s 2 --method euler --cutoff 500",
     "171dfbd5e83886c5cf7a28f5376f31350647e3d2ae2b9d383e68dff20f909b42"),
    ("mellin --kernel exp --op partition --system builtin:rationals --limit 10000 --x 0.5 --x 1 --x 2",
     "98ce7e14005ab056319ec9c29f9ecdb9355e88a3f37554583a75f86f8ae21e4e"),
    ("mellin --kernel gauss --op continue --expansion gauss --system builtin:rationals --limit 10000 --s 0.5 --s 0.3+2i",
     "3773673d35ea9a09b49240c7b057a8118f520b23d3327ce2e9f20f10b6e7b32b"),
    ("mellin --kernel gauss --s 0.5 --s 1+1i --op transform --json",
     "4252297fb6d4b5d62bc13d9a8339378794e5578c6bf1d58c0ee275091f7d0d29"),
    ("fe-check --pair theta --s-grid 0.3+1i,0.7-2i",
     "f06ab34eaaa773bf8b2a039074ff18eeea003be3f24a44b429b55ea059f16d20"),
    ("count --system builtin:gaussian --limit 10000 --grid 1:10000:7",
     "686c821a841428814ff9d9aa2ed4b6017c7ce9a0733090b893704b7356f695a7"),
    ("count --system builtin:gaussian --limit 1000 --grid 1:1000:1 --json",
     "100fa38025dc95c96037e8ac9c5e8207709db941bfcee2d4a6f6d71e01956841"),
    ("count --system list:2,2,3.5 --limit 500 --grid 1:500:0.5",
     "92d94b667e7e53015159b35e9b5a5a65cdd0b2be9e1d0986af05618d3d1b567c"),
    ("perron --system builtin:gaussian --limit 10000 --x 2000.5 --T 1000",
     "dbe0a5c919c6484961ccfb4625322f9bd3e9d6e99a4101bb55b2cea244b1144a"),
    ("gen --system builtin:gaussian --limit 200 --bound 200",
     "7668755329decfb6d90b946098e871491516c4928ba9df3d3635ef2982802d89"),
    ("gen --system list:2,2,3 --limit 100 --bound 10 --power 0.5",
     "f06e3abba51b8e9032ab8445255844be239895d916cd45e0c0fb9d371d277bc6"),
    ("count --config {config} --grid 10:100:10",
     "196e70127a7fa4aec505a7c8d07c121e3e85a86b0baafaeb70c935c2723e36c2"),
    ("count --system builtin:rationals --limit 100 --grid 10,20,50 --out {out}",
     "4b795f828c4ddfb622ebbb218a60f9f2bd433ee9bcda7e9cd135391016e9b2e7"),
    ("order coincide --system builtin:rationals --limit 1000 --system2 builtin:rationals --prefix 200 --power 0.5",
     "1d2a55a932d5fa75c26e4c669bb6950a36f92f5d2557a64f889a78dbd3b88de7"),
    ("axioms --oracle builtin:rationals --limit 1000 --power 0.5",
     "c394cf23b07ab8b9be4e845dab0cdd7b8e4667cc46a30d7b97b31ed25aee251a"),
    ("axioms --oracle builtin:gaussian --limit 1000 --window 3,4",
     "02d085093688f4d15a6b7bb78311782e20e9de026172939804c54db68b7757c2"),
    ("zeta --system builtin:rationals --limit 10000 --s 2 --s 3+1i --s 1.5-2i --method dirichlet --threads 2",
     "aaab42f37f077f2b1c1e6f137e3bc7fd8b750e986c23a7a26e3529e760cb3d55"),
    ("fe-check --pair theta --x-min 0.7 --x-max 1.4 --x-points 5 --s-grid 0.3+1i",
     "cb58663eb85f804fb3f8725d65198ace6e44eda7fad4b049632b0290f4dfcd94"),
]

# `{config}` is a file holding CONFIG_TEXT; for `{out}` the written file is
# hashed instead of stdout.  The manifest skips both options, so the
# temporary paths never reach the hashed bytes.
CONFIG_TEXT = "system=builtin:rationals\nlimit=100\nformat=json\n"


@pytest.mark.parametrize("argv,digest", README_EXAMPLES + MORE_INVOCATIONS)
def test_stdout_matches_recorded_hash(argv, digest, monkeypatch, tmp_path):
    monkeypatch.delenv("BEURLING_THREADS", raising=False)
    config, out = tmp_path / "run.cfg", tmp_path / "out.txt"
    config.write_text(CONFIG_TEXT)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(shlex.split(argv.format(config=config, out=out)))
    assert code == 0
    if "{out}" in argv:
        assert buf.getvalue() == ""
        text = out.read_text()
    else:
        text = buf.getvalue()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
