"""The folded look-up table: memory latch + mux tree (paper Fig. 4b).

A compute sub-array row is latched and drives a mux tree whose select
lines are the LUT inputs.  ``FoldedLut`` reproduces that structure: it
evaluates by walking the mux tree level by level rather than indexing
the truth table directly, so the model matches the hardware's
selection semantics (and the unit tests prove the two agree).
"""

from __future__ import annotations

from typing import Sequence

from ..errors import DeviceError


class FoldedLut:
    """A K-input LUT re-configured from a 2^K-bit latched row."""

    def __init__(self, inputs: int) -> None:
        if not 1 <= inputs <= 5:
            raise DeviceError("the 32-bit sub-array port supports 1..5 inputs")
        self.inputs = inputs
        self.table_bits = 1 << inputs
        self._config = 0
        self.reconfigurations = 0
        self.evaluations = 0

    def reconfigure(self, config_word: int) -> None:
        """Latch a new row — happens every folding cycle (Sec. III-A)."""
        if config_word < 0 or config_word >= (1 << 32):
            raise DeviceError("config word must fit the 32-bit port")
        self._config = config_word & ((1 << self.table_bits) - 1)
        self.reconfigurations += 1

    @property
    def config(self) -> int:
        return self._config

    def evaluate(self, input_bits: Sequence[int]) -> int:
        """Select through the mux tree: input i selects at tree level i."""
        if len(input_bits) != self.inputs:
            raise DeviceError(
                f"LUT has {self.inputs} inputs, got {len(input_bits)}"
            )
        self.evaluations += 1
        # Level 0 of the tree is the 2^K latched config bits; each
        # input bit halves the candidate set, LSB-first.
        candidates = [
            (self._config >> position) & 1 for position in range(self.table_bits)
        ]
        for bit in input_bits:
            bit &= 1
            candidates = [
                candidates[2 * index + bit]
                for index in range(len(candidates) // 2)
            ]
        return candidates[0]

    def evaluate_indexed(self, input_bits: Sequence[int]) -> int:
        """Direct truth-table indexing (the reference semantics)."""
        index = 0
        for position, bit in enumerate(input_bits):
            index |= (bit & 1) << position
        return (self._config >> index) & 1
