"""Workbench for realigned Hardy paradoxes.

Every name lives in one submodule and is imported from there; the package
itself re-exports nothing, so importing it loads no submodule.

Library layout:

- :mod:`nonlocality_wb.scenario` - scenarios, behaviors, Bell expressions
  and the n-setting expression family;
- :mod:`nonlocality_wb.lhv` - deterministic strategies, best-response
  classical bounds and Hardy soundness certificates;
- :mod:`nonlocality_wb.hardy` - paradox construction and evaluation;
- :mod:`nonlocality_wb.qubit` - two-qubit Born-rule models and constrained
  maximization of the Hardy value;
- :mod:`nonlocality_wb.npa` - moment-matrix relaxations and upper bounds;
- :mod:`nonlocality_wb.sdp` - the embedded interior-point solver;
- :mod:`nonlocality_wb.cli` - the ``nonlocality-wb`` command-line front end.

The test oracles (the ``4^n`` strategy enumeration and the operator-form
Born rule) live in ``tests/oracles.py``, not in the package.
"""

__version__ = "0.1.0"
