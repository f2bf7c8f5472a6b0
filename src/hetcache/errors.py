"""Exception types shared across the package."""


class HetcacheError(Exception):
    """Base class for all hetcache errors."""


class ConfigError(HetcacheError, ValueError):
    """Invalid configuration value, key, or file; the message names the offender."""


class InvalidLibraryError(ConfigError):
    """Content library is empty or inconsistent."""


class InvalidRankError(ConfigError, IndexError):
    """Content rank outside 1..library size."""


class ContentUnreachableError(HetcacheError, ValueError):
    """No small cell can ever hold the content (beta * P_c == 0)."""


class DegenerateNetworkError(HetcacheError, ValueError):
    """A formula is undefined because the relevant node densities are zero."""


class DivergentIntegralError(HetcacheError, ValueError):
    """Interference integral diverges (path-loss exponent <= 2)."""


class DomainError(HetcacheError, ValueError):
    """Argument outside the mathematical domain of the function."""
