"""The pipeline on numpy alone.

This module imports no scipy, so it runs where scipy is not installed.
Each run happens in a fresh interpreter in which ``sys.modules["scipy"]``
is None, so any import of scipy raises.
"""

import ast
import glob
import os
import subprocess
import sys

import coopnet

PACKAGE_DIR = os.path.dirname(coopnet.__file__)


def _run_without_scipy(script):
    """Run ``script`` in a fresh interpreter that cannot import scipy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(PACKAGE_DIR)] +
        ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, "-c", "import sys\nsys.modules['scipy'] = None\n" +
         script], capture_output=True, text=True, env=env, timeout=300)


def test_scipy_is_blocked_in_the_child():
    proc = _run_without_scipy("import scipy\n")
    assert proc.returncode != 0
    assert "import of scipy halted" in proc.stderr


# the acceptance recipe on one 5-node network per regime: synthesis, the eps
# search with ceiling 10, assembly at eps*/2, a short integration and the
# predicted limits on its grid
_RECIPE = """
import numpy as np
from coopnet.analysis import spectral_abscissa
from coopnet.closedloop import assemble, epsilon_star
from coopnet.scenarios import random_network, realize
from coopnet.sim import initial_state, integrate, steady_state_prediction
for seed, regime in ((0, "tracking"), (100, "sync"), (200, "cooperation"),
                     (300, "master_slave")):
    scn = random_network(seed, n_nodes=5, m_edges=6, dims=3, regime=regime)
    rz = realize(scn)
    est = epsilon_star(rz.network, rz.cset, rz.maps, eps_hi=10.0)
    cl = assemble(regime, rz.network, rz.cset, rz.maps,
                  eps=0.5 * est.eps_bisect)
    assert spectral_abscissa(cl.A_error) < 0
    x0 = initial_state(cl, nu0=scn.nu0, eta0=scn.eta0, etabar0=scn.etabar0)
    res = integrate(cl, x0, t_end=1.0, dt=1e-3)
    pred = steady_state_prediction(rz.cset, res.t, nu0=scn.nu0,
                                   eta0=scn.eta0, etabar0=scn.etabar0)
    wide = sum(e.n > e.m for e in rz.network.edges)
    print(regime, est.crossed, wide, len(pred.per_node), res.t.size)
"""


def test_acceptance_recipe_runs_without_scipy():
    """Edges with more states than inputs take the balancing and the
    matrix-sign Riccati solution; every regime but tracking crosses below
    its ceiling, so the eigenpair tracking runs too."""
    proc = _run_without_scipy(_RECIPE)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert [row[0] for row in rows] == ["tracking", "sync", "cooperation",
                                        "master_slave"]
    assert [row[1] for row in rows] == ["False", "True", "True", "True"]
    assert all(int(row[2]) > 0 and row[3] == "5" for row in rows)


def _scipy_imports(tree):
    for node in ast.walk(tree):
        names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""]
                 if isinstance(node, ast.ImportFrom) else [])
        if any(n.split(".")[0] == "scipy" for n in names):
            yield node


def test_only_lyapunov_solve_imports_scipy():
    """scipy is imported by ``analysis.lyapunov_solve`` alone, whose only
    caller, ``lemma1_certificate``, is on no pipeline path."""
    importers = []
    for path in sorted(glob.glob(os.path.join(PACKAGE_DIR, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        # the function around each import; ast.walk visits outer functions
        # first, so the innermost one is kept
        where = {id(node): func.name for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef)
                 for node in _scipy_imports(func)}
        importers += [f"{os.path.basename(path)}:"
                      f"{where.get(id(node), '<module>')}"
                      for node in _scipy_imports(tree)]
    assert importers == ["analysis.py:lyapunov_solve"]
