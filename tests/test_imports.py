"""The package and its CLI load scipy.special only, never scipy.stats.

scipy.stats takes about a second to import, which every CLI call and
every fresh interpreter would pay. The check runs in a fresh interpreter
so that modules the test suite itself imports do not mask a regression.
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
    calls = [
        ["predict", "--train", "train.csv", "--test", "test.csv", "--target", "y",
         "--method", "kde-hpd", "--outdir", "p"],
        ["evaluate", "--predictions", "p/predictions.csv", "--truth", "test.csv",
         "--target", "y", "--outdir", "e"],
        ["regions", "--scenario", "bimodal", "--method", "oracle",
         "--grid-points", "3", "--outdir", "r"],
        ["simulate", "--scenario", "unimodal-skewed", "--methods", "secpr,parametric,oracle",
         "--n", "60", "--n-test", "4", "--reps", "2", "--outdir", "s"],
    ]
    for argv in calls:
        assert cli.main(argv) == 0, argv
    print("scipy.stats" in sys.modules, "scipy.special" in sys.modules)
    """
)


def test_cli_commands_never_import_scipy_stats(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.split() == ["False", "True"]
