"""Simulation of converting a three-atom W state into a GHZ state by
interference and detection of cavity-emitted polarized photons.

Each name has one import path, the module that defines it, for example
``from w2ghz.protocol import run_protocol`` or
``from w2ghz.analysis import pd_sweep, master_equation_estimates``.  The
package root re-exports nothing, so ``import w2ghz`` loads no submodule.
"""

__version__ = "0.1.0"
