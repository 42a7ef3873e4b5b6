"""Memoryless class-incremental learning workbench with transferable
prediction-bias correction.

Fit per-state affine score corrections on reference runs that keep a
validation memory, average them, and transfer the averaged table to
memoryless target runs. The API lives in the submodules (``synth``,
``backbones``, ``calibration``, ``transfer``, ``storage``); importing the
package itself loads none of them.
"""

__version__ = "0.1.0"
