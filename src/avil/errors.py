"""The one error type for invalid configuration, shared by every module."""


class ConfigError(ValueError):
    """Invalid model, data, optimizer or run configuration."""
