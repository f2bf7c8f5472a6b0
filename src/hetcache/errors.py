"""Exception types shared across the package."""


class HetcacheError(Exception):
    """Base class for all hetcache errors."""


class ConfigError(HetcacheError, ValueError):
    """Invalid configuration value, key, or file; the message names the offender."""


class InvalidLibraryError(ConfigError):
    """Content library is empty or inconsistent."""


class InvalidRankError(ConfigError, IndexError):
    """Content rank outside 1..library size."""


class DivergentIntegralError(HetcacheError, ValueError):
    """Interference integral diverges (path-loss exponent <= 2)."""


class DomainError(HetcacheError, ValueError):
    """Argument outside the mathematical domain of the function."""
