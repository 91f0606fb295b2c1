"""The CLI loads scipy.special only for an analytic closed form, and never scipy.stats.

scipy.stats takes about a second to import and scipy.special about a
fifth of one, which every CLI call and every fresh interpreter would
pay. The conformal methods need neither: the binned KDE convolves with
``numpy.fft``, never with ``scipy.fft`` or ``scipy.signal``. Only the
scenario oracles and the parametric baseline import scipy.special, on
their first call. The check runs in a fresh interpreter so that modules
the test suite itself imports do not mask a regression.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = textwrap.dedent(
    """
    import sys

    import numpy as np

    import conformal_hpd
    from conformal_hpd import cli

    rng = np.random.default_rng(0)
    for name, n in (("train.csv", 80), ("test.csv", 5)):
        x = rng.uniform(-5.0, 5.0, n)
        y = 5.0 + 2.0 * x + rng.standard_normal(n)
        rows = "".join(f"{a!r},{b!r}\\n" for a, b in zip(x.tolist(), y.tolist()))
        with open(name, "w", encoding="utf-8") as fh:
            fh.write("x,y\\n" + rows)
    conformal_only = [
        ["predict", "--train", "train.csv", "--test", "test.csv", "--target", "y",
         "--method", "kde-hpd", "--scale-model", "on", "--outdir", "p"],
        ["evaluate", "--predictions", "p/predictions.csv", "--truth", "test.csv",
         "--target", "y", "--outdir", "e"],
        ["simulate", "--scenario", "unimodal-skewed", "--methods", "kde-hpd,secpr,cqr,dcp",
         "--n", "60", "--n-test", "4", "--reps", "2", "--outdir", "s"],
        ["simulate", "--scenario", "bimodal", "--methods", "kde-hpd,dcp", "--threads", "2",
         "--n", "60", "--n-test", "4", "--reps", "2", "--outdir", "st"],
        ["regions", "--scenario", "bimodal", "--method", "dcp",
         "--n", "60", "--grid-points", "3", "--outdir", "r"],
    ]
    # the pooled run first: its parent, not only its workers, loads scipy.special
    closed_forms = [
        ["simulate", "--scenario", "bimodal", "--methods", "parametric,oracle", "--threads", "2",
         "--n", "60", "--n-test", "4", "--reps", "2", "--outdir", "sto"],
        ["regions", "--scenario", "bimodal", "--method", "oracle",
         "--grid-points", "3", "--outdir", "ro"],
        ["simulate", "--scenario", "unimodal-skewed", "--methods", "parametric,oracle",
         "--n", "60", "--n-test", "4", "--reps", "2", "--outdir", "so"],
    ]
    for label, calls in (("conformal", conformal_only), ("closed", closed_forms)):
        for argv in calls:
            assert cli.main(argv) == 0, argv
            print(label, *("scipy." + m in sys.modules for m in ("stats", "fft", "signal", "special")))
    """
)


def test_cli_loads_scipy_special_only_for_closed_forms(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    loaded = {"conformal": ["False"] * 4, "closed": ["False", "False", "False", "True"]}
    lines = run.stdout.splitlines()
    assert len(lines) == 8
    for line in lines:  # after each call
        label, *modules = line.split()
        assert modules == loaded[label], line
