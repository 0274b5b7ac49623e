"""Matrix Riccati ODEs, explicit quadratic-BSDE solutions and utility
optimization for affine volatility models on the PSD cone, with Monte Carlo
verification of every closed form.  The command-line interface is the
``affinebsde.cli`` module, imported on demand."""

from . import affine_model, bsde, portfolio, riccati, simulator, symcone

__all__ = ["affine_model", "bsde", "portfolio", "riccati", "simulator", "symcone"]
__version__ = "0.1.0"
