"""The public surface: each module's ``__all__`` and the keyword options
left in the numerical layers."""

import inspect

import pytest

import greedycert
from greedycert import basis_pursuit, certificates, dictionaries, experiments, greedy, linalg

PUBLIC = {
    greedycert: [
        "basis_pursuit", "certificates", "dictionaries", "experiments", "greedy", "linalg",
        "GreedycertError", "gaussian", "hybrid", "convolutive", "example1", "from_matrix",
        "run_greedy", "construct_reaching_input", "build_failure_input",
        "f_omp", "f_ols", "erc_oxx_subset", "erc_oxx_cardinality", "brc_omp",
        "recursion_chain", "nsp_check", "brc_bp_check", "l1_recovers",
        "compute_spark", "ExperimentConfig", "ExperimentResult", "run_experiment",
    ],
    basis_pursuit: [
        "NspReport", "BrcBpReport", "nsp_check", "brc_bp_check", "l1_recovers",
    ],
    certificates: [
        "CertificateReport", "f_omp", "f_ols", "erc_oxx_subset", "erc_oxx_cardinality",
        "brc_omp", "recursion_chain",
    ],
    dictionaries: ["Dictionary", "gaussian", "hybrid", "convolutive", "example1", "from_matrix"],
    experiments: [
        "ExperimentConfig", "ExperimentResult", "scatter_experiment", "phase_curve",
        "phase_diagram", "f_vs_q_curve", "brc_map", "brc_sigma_sweep", "run_experiment",
        "load_config", "default_filename", "sigma_threshold", "delta_frontier",
        "phase_trial_state",
    ],
    greedy: [
        "Selection", "IterationRecord", "GreedyTrace", "select_omp", "select_ols",
        "run_greedy", "construct_reaching_input", "build_failure_input",
    ],
    linalg: [
        "ProjectionState", "factor_chain", "init_state", "state_for", "extend_state",
        "residual", "compute_spark",
    ],
}


@pytest.mark.parametrize("module", list(PUBLIC), ids=lambda m: m.__name__)
def test_all_is_pinned(module):
    assert module.__all__ == PUBLIC[module]
    assert all(hasattr(module, name) for name in module.__all__)


def test_one_keyword_option_in_numerical_layers():
    # the options left, pinned so that no test-only knob returns unseen:
    # `cert --brc` runs brc_omp checked while the brc-map and brc-sigma
    # sweeps read the kernel alone; the greedy subcommand and the failure
    # inputs give run_greedy a support oracle, the reaching inputs do not;
    # construct_reaching_input defaults to the rule it always reaches with
    options = [
        f"{name}({param.name}=)"
        for module in (certificates, linalg, greedy, basis_pursuit)
        for name in module.__all__
        if inspect.isfunction(getattr(module, name))
        for param in inspect.signature(getattr(module, name)).parameters.values()
        if param.default is not inspect.Parameter.empty
    ]
    assert options == ["brc_omp(fast=)", "run_greedy(oracle=)",
                       "construct_reaching_input(algorithm=)"]
