"""Exception types shared across the simulator."""


class SimError(Exception):
    """Base class for all simulator errors."""


class ConfigurationError(SimError):
    """Invalid or inconsistent network configuration."""


class TraceParseError(SimError):
    """Malformed row in a path trace file."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class TraceReferenceError(SimError):
    """Trace file references an unknown gNB or UE id."""


class DimensionMismatchError(SimError):
    """Operands do not conform (contract violation)."""


class CapacityError(SimError):
    """Served UE set exceeds the RF-chain budget of a gNB or panel."""


class RankDeficiencyError(SimError):
    """Aggregate effective channel is singular or too ill-conditioned to invert.

    Carries the UE subset whose co-scheduling is infeasible.
    """

    def __init__(self, ues, cond=None):
        self.ues = list(ues)
        self.cond = cond
        msg = f"rank-deficient effective channel for UEs {self.ues}"
        if cond is not None:
            msg += f" (cond={cond:.3e})"
        super().__init__(msg)


class GuardRailError(SimError):
    """Instance too large for the oracle's search."""
