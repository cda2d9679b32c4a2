"""What importing the package costs, and what it must not drag in.

``scipy.stats`` is ~1.3 s and ~80 MiB to import and is needed by exactly
two functions (one ``binom.sf``, one ``binom.pmf``); the cell table names
its owners by dotted path precisely so ``repro.runner`` can be imported
without them.  Both properties are easy to lose to one convenient
top-level import, so they are checked in a fresh interpreter.
"""

import hashlib
import json
import subprocess
import sys

import pytest

from repro.experiments.figures import figure1_attenuation_series
from repro.phy.fec import RS_KP4, RS_KR4, codeword_failure_prob
from repro.wharf.model import best_parameters


def _modules_after(*imports: str) -> set:
    code = (f"import sys, {', '.join(imports)}\n"
            "print('\\n'.join(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120)
    return set(out.stdout.split())


def _under(modules: set, *packages: str) -> list:
    return sorted(m for m in modules
                  if any(m == p or m.startswith(p + ".") for p in packages))


def test_no_entry_point_imports_scipy_stats():
    modules = _modules_after(
        "repro", "repro.cli", "repro.runner", "repro.service")
    assert _under(modules, "scipy.stats") == []


def test_no_module_imports_networkx():
    # dropped from the declared dependencies: nothing ever imported it
    code = ("import importlib, pkgutil, sys, repro\n"
            "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    importlib.import_module(info.name)\n"
            "print('networkx' in sys.modules, len(sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120)
    imported, n_modules = out.stdout.split()
    assert imported == "False" and int(n_modules) > 100


def test_cli_and_runner_import_no_cell_owner():
    modules = _modules_after("repro.cli", "repro.runner")
    assert _under(modules, "repro.experiments", "repro.fastpath",
                  "repro.checker", "repro.lifecycle") == []


def test_service_imports_no_experiment():
    assert _under(_modules_after("repro.service"), "repro.experiments") == []


# -- the deferred imports compute what the module-level ones did -------------
# (values recorded at the parent commit, scipy.stats imported at module top)

@pytest.mark.parametrize("code, ber, expected", [
    (RS_KR4, 1e-6, 1.4137977358824882e-23),
    (RS_KR4, 1e-5, 1.3557689282604372e-15),
    (RS_KR4, 1e-4, 8.92691051393578e-08),
    (RS_KR4, 1e-3, 0.1604723062232783),
    (RS_KR4, 1e-2, 0.9999999999999967),
    (RS_KP4, 1e-6, 2.2389792419196054e-50),
    (RS_KP4, 1e-5, 2.1396697743076135e-34),
    (RS_KP4, 1e-4, 1.3598110647644304e-18),
    (RS_KP4, 1e-3, 0.0001530258592806042),
    (RS_KP4, 1e-2, 0.9999999996173791),
])
def test_codeword_failure_prob_bit_identical(code, ber, expected):
    assert codeword_failure_prob(ber, code) == expected


@pytest.mark.parametrize("loss_rate, expected", [
    (1e-5, 2.4997000229987353e-09),
    (1e-4, 2.497002298735529e-07),
    (1e-3, 2.470228740295341e-05),
    (1e-2, 0.0004900995009999999),
])
def test_table3_wharf_residual_loss_bit_identical(loss_rate, expected):
    assert best_parameters(loss_rate).residual_loss(loss_rate) == expected


def test_figure1_series_bit_identical():
    series = json.dumps(figure1_attenuation_series(), sort_keys=True)
    assert hashlib.sha256(series.encode()).hexdigest() == (
        "b2f1d5fc1a9d78626d24d1f9dbc49684883de7a3674b1510fe26c0043462c3e8")
