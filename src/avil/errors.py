"""The one error type for bad input from outside, shared by every module."""


class ConfigError(ValueError):
    """Invalid settings, config file, data, cache or checkpoint file, or run directory."""
