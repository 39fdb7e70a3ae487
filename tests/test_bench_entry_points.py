"""The names the benchmark in bench/ looks up in smddc by attribute.

bench/spans.py wraps these and bench/workloads.py calls them, so renaming
one breaks only a benchmark run; these checks make it fail tier-1 instead.
"""

import pytest

import smddc.cli
import smddc.policies
import smddc.simulator
from smddc import SystemConfig

ENTRY_POINTS = [
    *((smddc.policies, f"{p}_packet_counts") for p in ("oma", "symmetric", "sdo", "fo")),
    *(
        (smddc.simulator, name)
        for name in (
            "draw_exponential",
            "RngStream",
            "ProcessPoolExecutor",
            "estimate_session_error",
            "estimate_alphas",
            "DEFAULT_BATCH_SIZE",
        )
    ),
    *((smddc.cli, name) for name in ("estimate_session_error", "estimate_alphas", "main")),
]


@pytest.mark.parametrize("module,name", ENTRY_POINTS, ids=[f"{m.__name__}.{n}" for m, n in ENTRY_POINTS])
def test_benchmark_entry_point_exists(module, name):
    assert hasattr(module, name)


def test_benchmark_config_constructs():
    # mc-k3's scenario passes the CLI's depth field
    assert SystemConfig(gamma=4, omega=20, k=3, depth=3).depth == 3
