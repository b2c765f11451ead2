"""Exception types shared across the simulator."""


class QRelayError(Exception):
    """A numeric failure: the CLI exits 3."""


class ConfigError(QRelayError):
    """Bad configuration value or unknown configuration key: the CLI exits 2."""
