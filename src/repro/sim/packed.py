"""The lane-packed cycle simulator's historical import path.

Lane packing is part of :class:`repro.sim.cyclesim.CycleSimulator`: up to
64 runs ride the bit-planes of one value array, and one lane is the scalar
case.  The benchmark's per-layer tracer (``perfbench/layers.py``) imports
the class under this name, so the name stays bound to it.
"""

from repro.sim.cyclesim import CycleSimulator

PackedCycleSimulator = CycleSimulator
