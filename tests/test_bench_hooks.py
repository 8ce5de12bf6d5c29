"""The traced benchmark run wraps library functions by name, as the calling
modules bind them.  These checks fail when a refactor unbinds one of those
names, instead of only when `bench/run.py --trace 1` is next run."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")


def test_workloads_module_imports():
    _load("workloads")


def test_double_approx_builds_its_problem():
    # the benchmark builds a PdeProblem by keywords: a change to that
    # constructor fails here, not on the next benchmark run
    workloads = _load("workloads")
    problem = workloads.DoubleApprox()._problem()
    assert isinstance(problem, workloads.pde_fk.PdeProblem)


def test_double_approx_setup_runs_its_reference(tmp_path):
    # the set-up solves the linear reference through the Feynman-Kac path by
    # keywords: a change to that call fails here, not on the next benchmark
    # run
    workloads = _load("workloads")
    workload = workloads.DoubleApprox()
    workload.reference_samples = 200
    state = workload.setup(3, tmp_path)
    assert state["traced"] is None
    assert math.isfinite(state["mean"]) and state["std"] > 0


def test_cli_parses_the_benchmark_argv(monkeypatch, tmp_path):
    workloads = _load("workloads")
    calls = []
    monkeypatch.setattr(workloads.cli, "main",
                        lambda argv: calls.append(argv) or 0)
    workloads._run_cli(tmp_path / "cfg.txt", tmp_path / "out", 2, None)
    (argv,) = calls
    args = workloads.cli.build_parser().parse_args(argv)
    assert args.func is workloads.cli._cmd_run and args.workers == 2


@pytest.mark.parametrize("owner, attr", [(o, a) for o, a, _ in tracer.SPANS],
                         ids=[f"{o.__name__}.{a}" for o, a, _ in tracer.SPANS])
def test_span_target_is_bound_on_its_owner(owner, attr):
    assert attr in owner.__dict__


@pytest.mark.parametrize("owner, attr", [
    (tracer.diffusion, "hash64"),
    (tracer.experiments, "parallel_map"),
    (tracer.experiments, "driver_by_names"),
], ids=["diffusion.hash64", "experiments.parallel_map",
        "experiments.driver_by_names"])
def test_patched_hook_is_bound_on_its_owner(owner, attr):
    assert attr in owner.__dict__
