"""Hybrid physics-informed neural network for 1-D conservation-diffusion
PDEs: discrete-time (implicit Runge-Kutta) training with autodiff convection
in smooth regions and WENO-Z convection in flagged cells, plus a classical
WENO-Z reference solver and an experiment CLI.
"""

from .irk import ButcherTableau, gauss_legendre_tableau, verify_order_conditions
from .model import (
    Adam,
    Discretization,
    MarchResult,
    StepDiagnostics,
    TimeStepState,
    TrainingConfig,
    TrainingDivergedError,
    march,
    train_step,
)
from .network import NetworkConfig, NetworkParameters, init_xavier
from .pde import PdeSpec, burgers
from .refsolver import SolverConfig, relative_error, solve
from .weno import (
    DiscontinuityMask,
    GridField,
    discontinuity_flags,
    weno_derivative,
)

__version__ = "0.1.0"
