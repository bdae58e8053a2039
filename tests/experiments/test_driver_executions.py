"""Engine executions of the drivers that compare deployments on one workload.

A deployment changes only the accounting, so each driver records every
workload once and replays it on each deployment: fig6 once per partition
count and assignment (hash, METIS), the others once per workload.  The
counts are engine iterations at the small tier; running every deployment
separately executed 40, 120, 48, 40, 24 and 35.
"""

from __future__ import annotations

import pytest

from repro.experiments import ALL_EXPERIMENTS

#: ``experiment id -> engine iterations at the small tier``
EXECUTIONS = {
    "fig5": 20,  # 4 graphs x 5 PageRank iterations
    "fig6": 60,  # 6 partition counts x 2 assignments x 5 iterations
    "fig7": 24,  # the three panels' iterations
    "ablation-compute-scaling": 5,  # one recording for every host count
    "ablation-scale": 12,  # 4 graph scales x 3 iterations
    "ablation-switch-buffer": 5,  # one recording for every buffer size
}


@pytest.mark.parametrize("experiment_id", sorted(EXECUTIONS))
def test_one_recording_per_workload(experiment_id, numeric_executions):
    ALL_EXPERIMENTS[experiment_id](tier="small")
    assert numeric_executions.count == EXECUTIONS[experiment_id]
