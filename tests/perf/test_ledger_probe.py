"""The ledger's patch points exist where ``ledger/tracing.py`` reads them.

``Probe.install`` wraps a fixed list of public callables and reads
class-owned ones as ``owner.__dict__[attr]`` — so moving a wrapped
callable off its own class (say, onto a base class) is a ``KeyError``
in the ledger job.  This runs the install/uninstall round trip in
tier-1 (read-only use of the ledger file) so it fails here first.
"""

import importlib.util
import os

import numpy as np

from repro.rules import RuleEvaluator, VectorRuleEvaluator, paper_ruleset

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "ledger", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("ledger_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_install_uninstall_round_trip():
    before = (RuleEvaluator.__dict__["evaluate_host_state"],
              VectorRuleEvaluator.__dict__["evaluate_host_states"])
    probe = load_tracing().Probe()
    probe.install()
    try:
        assert RuleEvaluator.__dict__["evaluate_host_state"] is not before[0]
        values = {"processorStatus.sh": 90.0, "ntStatIpv4.sh": 10.0,
                  "loadAvg.sh": 0.1, "procCount.sh": 5.0}
        RuleEvaluator(
            paper_ruleset(), lambda s, p="": values[s]
        ).evaluate_host_state()
        VectorRuleEvaluator(
            paper_ruleset(), lambda s, p="": np.full(3, values[s])
        ).evaluate_host_states()
    finally:
        probe.uninstall()
    after = (RuleEvaluator.__dict__["evaluate_host_state"],
             VectorRuleEvaluator.__dict__["evaluate_host_states"])
    assert after == before
    metrics = probe.layer_metrics()
    # One width is not implemented by calling the other: a column
    # sweep must not count as a one-host evaluation, or vice versa.
    assert metrics["rules.scalar_evals"] == 1
    assert metrics["rules.vector_calls"] == 1
    assert metrics["rules.vector_rows"] == 3
