"""The names the benchmark in bench/ looks up in smddc by attribute.

bench/spans.py wraps these and bench/workloads.py calls them, so renaming
one breaks only a benchmark run; these checks make it fail tier-1 instead.
"""

from collections import Counter

import pytest

import smddc
import smddc.analytic
import smddc.channel
import smddc.cli
import smddc.policies
import smddc.power_ladder
import smddc.simulator
from smddc import PolicyKind, SystemConfig

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
    (smddc, "__version__"),
    (smddc.power_ladder, "build_ladder"),
    *(
        (smddc.analytic, name)
        for name in (
            "SessionSpec",
            "alphas_from_betas",
            "beta1",
            "beta2_sdo",
            "beta2_symmetric",
            "chernoff_generic",
            "chernoff_noma2",
            "chernoff_oma",
            "exact_session_error",
            "noma_factor",
            "oma_session_error_binomial",
        )
    ),
]


@pytest.mark.parametrize("module,name", ENTRY_POINTS, ids=[f"{m.__name__}.{n}" for m, n in ENTRY_POINTS])
def test_benchmark_entry_point_exists(module, name):
    assert hasattr(module, name)


def test_benchmark_provenance_reads_the_seed_sequence():
    # bench/run.py names the bit generator and its seed sequence in every payload
    assert smddc.channel.RngStream(0).generator.bit_generator.seed_seq is not None


def test_benchmark_config_constructs():
    # mc-k3's scenario passes the CLI's depth field
    assert SystemConfig(gamma=4, omega=20, k=3, depth=3).depth == 3


@pytest.mark.parametrize(
    "policy,kernel",
    [
        (PolicyKind.oma(), "oma"),
        (PolicyKind.symmetric(3), "symmetric"),
        (PolicyKind.sdo(), "sdo"),
        (PolicyKind.fo(), "fo"),
    ],
    ids=["oma", "sym3", "sdo", "fo"],
)
def test_each_policy_reaches_its_named_kernel(policy, kernel, monkeypatch):
    # policies.kernel_s.* time these names, so the simulator must look them up at call time
    calls = Counter()

    def counted(short, fn):
        def call(*args, **kwargs):
            calls[short] += 1
            return fn(*args, **kwargs)

        return call

    for short in ("oma", "symmetric", "sdo", "fo"):
        name = f"{short}_packet_counts"
        monkeypatch.setattr(smddc.policies, name, counted(short, getattr(smddc.policies, name)))
    config = SystemConfig(gamma=4, omega=20, k=3)
    smddc.simulator.estimate_session_error(policy, config, trials=2_000, seed=1, batch_size=1_000)
    assert set(calls) == {kernel} and calls[kernel] == 2  # one call per batch


@pytest.mark.parametrize(
    "flags,timed",
    [
        (["--policy", "fo", "--k", "3"], "estimate_alphas"),
        (["--policy", "sym", "--depth", "3", "--k", "3"], "estimate_alphas"),
        (["--policy", "sdo", "--k", "8"], "exact_session_error"),
    ],
    ids=["fo-k3", "sym3", "sdo-k8"],
)
def test_analytic_records_reach_the_timed_names(flags, timed, monkeypatch, capsys):
    # simulator.estimate_alphas_s and analytic.exact_session_error_s time these names, so the CLI
    # must look them up at call time: an estimated law through smddc.cli.estimate_alphas, once,
    # and a closed-form law's exact value through smddc.analytic.exact_session_error
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    counted(smddc.cli, "estimate_alphas")
    counted(smddc.analytic, "exact_session_error")
    assert smddc.cli.main(["analytic", "--gamma", "4", "--omega", "20", "--trials", "20000", *flags]) == 0
    capsys.readouterr()
    assert calls == {timed: 1}
