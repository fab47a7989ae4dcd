"""HTTP status codes and classification helpers."""

from __future__ import annotations

__all__ = [
    "REASONS",
    "reason_phrase",
    "is_informational",
    "is_redirect",
    "is_retriable",
    "allows_body",
]

REASONS = {
    100: "Continue",
    101: "Switching Protocols",
    200: "OK",
    201: "Created",
    202: "Accepted",
    204: "No Content",
    206: "Partial Content",
    207: "Multi-Status",
    301: "Moved Permanently",
    302: "Found",
    303: "See Other",
    304: "Not Modified",
    307: "Temporary Redirect",
    308: "Permanent Redirect",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    411: "Length Required",
    412: "Precondition Failed",
    416: "Range Not Satisfiable",
    500: "Internal Server Error",
    501: "Not Implemented",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
    507: "Insufficient Storage",
}


def reason_phrase(status: int) -> str:
    """Standard reason phrase for ``status`` ("Unknown" if unmapped)."""
    return REASONS.get(status, "Unknown")


def is_informational(status: int) -> bool:
    """1xx?"""
    return 100 <= status < 200


def is_redirect(status: int) -> bool:
    """Redirects a client should follow (304 is *not* one of them)."""
    return status in (301, 302, 303, 307, 308)


def is_retriable(status: int) -> bool:
    """Errors worth retrying on another replica (failover policy)."""
    return status in (500, 502, 503, 504)


def allows_body(status: int) -> bool:
    """False for statuses whose responses never carry a body."""
    return not (is_informational(status) or status in (204, 304))
