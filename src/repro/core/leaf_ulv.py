"""The name ``LeafULVSolveMixin``: a BLR2 factor is an :class:`HSSULVFactor`."""

from repro.core.hss_ulv import HSSULVFactor

# Kept because the benchmark's span tracer (bench/spans.py) imports it.
LeafULVSolveMixin = HSSULVFactor

__all__ = ["LeafULVSolveMixin"]
