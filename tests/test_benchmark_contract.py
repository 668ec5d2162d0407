"""The benchmark's workloads run against this tree and pass their own checks.

perfbench/workloads.py reaches fdrelay through module attributes. Three of
them, montecarlo.mc_rate, montecarlo.genie_rates and
montecarlo.wishart_inverse_moment, have no other caller in the package, and
the ops also read result fields such as McRateResult.sr_terms and run the CLI
presets. A change that removes or renames one of these fails here, and not
only in a benchmark run. The workloads module is imported, never written.
"""
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)
from workloads import WORKLOADS  # noqa: E402

SEED = 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_pass_and_the_warm_up_pass_their_checks(name, tmp_path):
    workload = WORKLOADS[name]
    scratch = str(tmp_path)
    ops = [workload.warmup(SEED, scratch)] + workload.pass_ops(SEED, 0, scratch)
    failures = {}
    for op in ops:
        reason = op.check(op.run())
        if reason is not None:
            failures[op.name] = reason
    assert not failures, failures
