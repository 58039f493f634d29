"""Return-address-stack predictor: the source of the misprediction event.

The hardware keeps a small LIFO of predicted return targets.  A call
pushes the address of the instruction after it; a return pops the top
entry and the prediction is correct only when the popped address equals
the architectural target.  The stack is a circular buffer: pushing at
capacity silently overwrites the oldest live entry, so deep recursion
unwinds into mispredictions, and a return with no live entry (a gadget
return with no associated call) always mispredicts.
"""

from __future__ import annotations

DEFAULT_CAPACITY = 16


class ReturnAddressStack:
    """Bounded circular LIFO of return targets."""

    __slots__ = ("capacity", "_slots", "_top", "depth")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._slots = [0] * capacity
        self._top = capacity - 1
        self.depth = 0

    def on_call(self, return_addr: int) -> None:
        """Push a predicted return target, overwriting the oldest at capacity."""
        top = self._top + 1
        if top == self.capacity:
            top = 0
        self._top = top
        self._slots[top] = return_addr
        if self.depth < self.capacity:
            self.depth += 1

    def on_return(self, actual_target: int) -> bool:
        """Pop and predict; True when the return mispredicts.

        An empty stack yields no prediction (counted as a misprediction)
        and is left unchanged.  A non-empty stack always pops, whether or
        not the prediction was right.
        """
        depth = self.depth
        if depth == 0:
            return True
        top = self._top
        predicted = self._slots[top]
        self._top = top - 1 if top else self.capacity - 1
        self.depth = depth - 1
        return predicted != actual_target

    def flush(self) -> None:
        """Drop all live entries (optional context-switch sensitivity mode)."""
        self.depth = 0

