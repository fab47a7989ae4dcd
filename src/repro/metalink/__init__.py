"""Metalink (RFC 5854) support: model, parser, writer."""

from repro._lazy import exports

_EXPORTS = {
    "METALINK_MEDIA_TYPE": ".model",
    "METALINK_NS": ".model",
    "Metalink": ".model",
    "MetalinkFile": ".model",
    "MetalinkUrl": ".model",
    "parse_metalink": ".parser",
    "write_metalink": ".writer",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = exports(__name__, _EXPORTS)
