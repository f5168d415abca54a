"""Golden CLI output: each invocation's stdout, hashed, against a recorded hash.

The hashes were recorded from the commit before the g-integer walk was
shared between counting and zeta, the seven from --config to --s-grid
from the commit before the CLI checked option values by argparse type, and
the last two `gen` runs from the heap stream, before the sorted stream was
read off the walk, the `order coincide` witness from the bracket search,
before orderings_coincide took brackets in closed form, the two `--method
dirichlet` and two `--method mellin` zeta runs from the Dirichlet sum over the
nodes sorted by (v, i), and the five `count` runs that print a changed psi
and the `--method continued` zeta run from the prime-power table's
compensated running sum, which psi reads, and the two
`mellin --op continue` and two `fe-check ... --s-grid` runs from the
double-exponential rule in numpy that replaced mpmath's quadrature there,
the two `mellin --op transform` runs from the same rule, which replaced
mpmath's quadrature in `mellin_G` too, and the three `perron` runs from
the closed form, one exponential integral per prime power, that replaced the
contour's trapezoid (Python 3.11.7, numpy 2.4.6, x86-64).
Every value is printed with repr(), so a numpy or libm that rounds
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
     "7611a1a55815a58e00971922f40cc0e1a8a5f89b7255235d53d6c5a65110a7d6"),
    ("gen --system list:2,3 --limit 100 --bound 50",
     "c47501a268ff33df0223a86591ae709bb0a2651e791752c141d2ac24dd8dc230"),
    ("zeta --system builtin:rationals --limit 100000 --s 2 --s 2+10i --method euler --json",
     "696bad9d670df32bccfaaaf6f614138a9d427a39f0990bba73608232003ad480"),
    ("zeta --system builtin:rationals --limit 10000 --s 3 --method mellin",
     "2c14dfb82e92950663fd5a9fb1b862c747f3a58ec9808f60284ce4d8d36884c1"),
    ("perron --system builtin:rationals --limit 10000 --x 1000.5 --T 10000",
     "c838a74ed97d927ba529088e9b10763a4ba5258ad37d514060486f0bd279b816"),
    ("perron --system builtin:rationals --limit 10000 --x 500.5 --scan 100,1000,10000",
     "f57b00041ab5a5e312dfa1111586ae0cc2832e0bda7a4143a6c91ba89b91f2c5"),
    ("mellin --kernel exp --s 0.5 --op transform",
     "513871df2119b04de3c5afaed313f1c840627b858aea2f80b822d192b1538e2d"),
    ("mellin --kernel exp --op continue --expansion exp --system builtin:rationals --limit 20000 --s 0.5",
     "a6a9d6ca5d780ccf79462d2c67d0f540d3f1f2d1d2bef9272fb579f1f6524e11"),
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
     "1595a9768cfb26bef59f982f83c8af4d410ad5618f2d8c658b2c00c6e6604dc0"),
    ("zeta --system builtin:rationals --limit 10000 --s 0.9 --s 2+10i --method continued",
     "e3e558615ded26db6230e1032d8685cf287c5ba57522e9c696abba9e0371528e"),
    ("zeta --system builtin:rationals --limit 10000 --s 2 --s 1.5+3i --method phi",
     "c66b1dd552d2b4e570ec3e65df4dc9eb45f4cf76622081bbe6e60fc82541c227"),
    ("zeta --system builtin:gaussian --limit 10000 --s 2 --s 1.5+3i --method mellin --cutoff 5000",
     "353c4ce7a241e9fcc09c87a6ea2ee96480c8d9ef18c2cb3937799476aab086d5"),
    ("zeta --system builtin:rationals --limit 10000 --s 2 --method euler --cutoff 500",
     "171dfbd5e83886c5cf7a28f5376f31350647e3d2ae2b9d383e68dff20f909b42"),
    ("mellin --kernel exp --op partition --system builtin:rationals --limit 10000 --x 0.5 --x 1 --x 2",
     "98ce7e14005ab056319ec9c29f9ecdb9355e88a3f37554583a75f86f8ae21e4e"),
    ("mellin --kernel gauss --op continue --expansion gauss --system builtin:rationals --limit 10000 --s 0.5 --s 0.3+2i",
     "ac4d7e6d1d0e221b4686ab43bf4f7dfef0e3d242501606051ebfdf8990f40693"),
    ("mellin --kernel gauss --s 0.5 --s 1+1i --op transform --json",
     "005252d5dcd3c401d7d994c61a267d29fea833af7da1c67771e5f384b43ec8a1"),
    ("fe-check --pair theta --s-grid 0.3+1i,0.7-2i",
     "e4c3c18eafc3cfd8fc1d9bba8baafb02708807c927b0545ba450ded473351458"),
    ("count --system builtin:gaussian --limit 10000 --grid 1:10000:7",
     "9c50942b506143f4255f0db4ab032d95a9e9d5a6fb7059af0bdd4268d6d37bbc"),
    ("count --system builtin:gaussian --limit 1000 --grid 1:1000:1 --json",
     "94e9944b3331670018ab1359b87e4097ee0a5a8848cbe9860950fd477b14c993"),
    ("count --system list:2,2,3.5 --limit 500 --grid 1:500:0.5",
     "0bc3e7448e5e8eef3dd886dcf5c0470fab0e3b48d35c577c39280fb703d31526"),
    ("perron --system builtin:gaussian --limit 10000 --x 2000.5 --T 1000",
     "9fc232667676a3285d371a3ed3fd9e07da2d8f4a8456bdc5e7631f8501dbf06c"),
    ("gen --system builtin:gaussian --limit 200 --bound 200",
     "7668755329decfb6d90b946098e871491516c4928ba9df3d3635ef2982802d89"),
    ("gen --system list:2,2,3 --limit 100 --bound 10 --power 0.5",
     "f06e3abba51b8e9032ab8445255844be239895d916cd45e0c0fb9d371d277bc6"),
    ("count --config {config} --grid 10:100:10",
     "6dee93b968832fb2dc15cdfc487565bef4fcd7a19687521e9310af20ec8095ef"),
    ("count --system builtin:rationals --limit 100 --grid 10,20,50 --out {out}",
     "4b795f828c4ddfb622ebbb218a60f9f2bd433ee9bcda7e9cd135391016e9b2e7"),
    ("order coincide --system builtin:rationals --limit 1000 --system2 builtin:rationals --prefix 200 --power 0.5",
     "1d2a55a932d5fa75c26e4c669bb6950a36f92f5d2557a64f889a78dbd3b88de7"),
    ("axioms --oracle builtin:rationals --limit 1000 --power 0.5",
     "c394cf23b07ab8b9be4e845dab0cdd7b8e4667cc46a30d7b97b31ed25aee251a"),
    ("axioms --oracle builtin:gaussian --limit 1000 --window 3,4",
     "02d085093688f4d15a6b7bb78311782e20e9de026172939804c54db68b7757c2"),
    ("zeta --system builtin:rationals --limit 10000 --s 2 --s 3+1i --s 1.5-2i --method dirichlet --threads 2",
     "ce6b6471f8f8f41727595dec741f31aff03ed056b8f96a39f2d27c30a95d86d4"),
    ("fe-check --pair theta --x-min 0.7 --x-max 1.4 --x-points 5 --s-grid 0.3+1i",
     "f5f0f0fb1060ff00776b6a8aa91e2aa249d1b9548b8f4ad1f99cb47b25b5f225"),
    ("gen --system list:2,4,8 --limit 1000 --bound 1000",
     "555a02a31493a00a1357134311279ee01bd9a62ecc79691376a5cdae74c698cb"),
    ("gen --system builtin:gaussian --limit 20000 --bound 20000",
     "946395c722d84d4bc936cd2decc56f973b57ee49127ca07363b71d832b5917a7"),
    # a printed witness: the two orders first part at (2, 200), where the brackets are 316 and 317
    ("order coincide --system list:2,3 --limit 1e19 --system2 list:2,3.0001 --prefix 10000",
     "1e1b294ed86efe56ecbd11a619ba00d8dec17d93ff73244dd4b726fcdbee29d8"),
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
