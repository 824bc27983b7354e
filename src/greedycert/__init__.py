"""Greedy sparse recovery (OMP/OLS) with exact- and bad-recovery certificates."""

from . import basis_pursuit, certificates, dictionaries, experiments, greedy, linalg
from .basis_pursuit import brc_bp_check, l1_recovers, nsp_check
from .certificates import (
    brc_omp,
    erc_oxx_cardinality,
    erc_oxx_subset,
    f_ols,
    f_omp,
    recursion_chain,
)
from .dictionaries import convolutive, example1, gaussian, hybrid
from .exceptions import GreedycertError
from .experiments import ExperimentConfig, ExperimentResult, run_experiment
from .greedy import build_failure_input, construct_reaching_input, run_greedy
from .linalg import compute_spark

__version__ = "0.1.0"

__all__ = [
    "basis_pursuit",
    "certificates",
    "dictionaries",
    "experiments",
    "greedy",
    "linalg",
    "GreedycertError",
    "gaussian",
    "hybrid",
    "convolutive",
    "example1",
    "run_greedy",
    "construct_reaching_input",
    "build_failure_input",
    "f_omp",
    "f_ols",
    "erc_oxx_subset",
    "erc_oxx_cardinality",
    "brc_omp",
    "recursion_chain",
    "nsp_check",
    "brc_bp_check",
    "l1_recovers",
    "compute_spark",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
]
