"""Exception hierarchy shared across the package, and ``require``, the range
check of the config dataclasses."""


class FaasLabError(Exception):
    """Base class for all package errors."""


class ConfigError(FaasLabError):
    """Invalid configuration, workload definition, or input file."""


class SimulationError(FaasLabError):
    """Illegal operation against the simulation engine or environment."""


class MetricsError(FaasLabError):
    """Metric undefined for the requested scope, or missing calibration."""


def require(ok: bool, rule: str, value: object) -> None:
    """Raise ``ConfigError("<rule>, got <value>")`` unless ``ok``.

    ``rule`` names its config key, as in ``"sim.max_retries must be >= 0"``.
    """
    if not ok:
        raise ConfigError(f"{rule}, got {value!r}")
