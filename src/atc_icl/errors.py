"""Shared exception base for the whole package.

Every error the pipeline raises deliberately derives from :class:`AtcError`,
so the CLI can distinguish "the artifact refused" from genuine bugs.
:func:`masked_url` renders a URL for a message without its credentials.
"""

import re


class AtcError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(AtcError):
    """An experiment configuration is invalid or internally inconsistent."""


# A URL's optional scheme, then all of it up to its last "@": a password with an unescaped "/" is masked too.
_USER_INFO = re.compile(r"^((?:[A-Za-z][A-Za-z0-9+.-]*://)?).*@", re.DOTALL)


def masked_url(url: str) -> str:
    """``url`` as an error message may show it: any user info (``user:password@``) becomes ``***@``."""
    return _USER_INFO.sub(r"\1***@", url, count=1)
