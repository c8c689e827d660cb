"""The two package errors: ``ConfigError`` (exit 2) for any bad input, a config
value or an input file, and ``SimulationError`` (exit 3) for runtime errors.
``read_text`` reads every input text file, ``read_yaml`` parses every YAML
input file, and ``require`` checks a config range."""
from pathlib import Path


class FaasLabError(Exception):
    """Base class for all package errors."""


class ConfigError(FaasLabError):
    """Invalid configuration, workload definition, or input file."""


class SimulationError(FaasLabError):
    """Illegal operation against the simulation engine or environment."""


def read_text(path: str | Path) -> str:
    """The text of input file ``path``, or a ``ConfigError`` that names it."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{path}: not a regular file" if path.exists()
                          else f"file not found: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    except OSError as exc:
        raise ConfigError(f"{path}: unreadable ({exc.strerror})") from None


def read_yaml(path: str | Path):
    """The parsed YAML of input file ``path``, or a ``ConfigError`` that names it."""
    import yaml  # imported here: only a run that reads a YAML file needs it
    text = read_text(path)
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})") from None


def require(ok: bool, rule: str, value: object) -> None:
    """Raise ``ConfigError("<rule>, got <value>")`` unless ``ok``.

    ``rule`` names its config key, as in ``"sim.max_retries must be >= 0"``.
    """
    if not ok:
        raise ConfigError(f"{rule}, got {value!r}")
