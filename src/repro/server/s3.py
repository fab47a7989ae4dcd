"""S3-style request signing, shared by client and server.

The paper's introduction motivates HTTP data access with exactly this:
"HTTP is the foundation for interactions with commercial cloud storage
providers like Amazon Simple Storage Service ... using REST API like
S3" — and the real davix ships S3 support. The davix client signs each
request (``RequestParams(s3_credentials=...)`` -> :func:`sign_request`)
and a :class:`~repro.server.flatobject.FlatObjectApp` deployed with
``credentials=`` checks it (:func:`verify`):
``Authorization: AWS <access>:<signature>`` over method, path and
``x-amz-date``.

The signature scheme is a faithful *shape* of AWS V2 (HMAC-SHA1 over a
canonical string); it is not wire-compatible with AWS (we do not claim
to be), but exercises the identical client code path: computing and
attaching an Authorization header per request.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
from dataclasses import dataclass

from repro.http import Request

__all__ = ["S3Credentials", "compute_signature", "sign_request", "verify"]


@dataclass(frozen=True)
class S3Credentials:
    """An access-key pair."""

    access_key: str
    secret_key: str


def canonical_string(method: str, path: str, amz_date: str) -> str:
    """The string both sides sign (method, path, date)."""
    return f"{method}\n{amz_date}\n{path}"


def compute_signature(
    credentials: S3Credentials, method: str, path: str, amz_date: str
) -> str:
    """The base64 HMAC-SHA1 of the canonical string under the secret."""
    digest = hmac.new(
        credentials.secret_key.encode("utf-8"),
        canonical_string(method, path, amz_date).encode("utf-8"),
        hashlib.sha1,
    ).digest()
    return base64.b64encode(digest).decode("ascii")


def sign_request(
    request: Request, credentials: S3Credentials, date: str
) -> None:
    """Attach x-amz-date and Authorization headers to ``request``."""
    request.headers.set("x-amz-date", date)
    signature = compute_signature(
        credentials, request.method, request.path, date
    )
    request.headers.set(
        "Authorization", f"AWS {credentials.access_key}:{signature}"
    )


def verify(request: Request, credentials: S3Credentials) -> bool:
    """Does ``request`` carry a valid signature by ``credentials``?"""
    header = request.headers.get("Authorization", "")
    if not header.startswith("AWS "):
        return False
    access_key, sep, signature = header[4:].partition(":")
    if not sep or access_key != credentials.access_key:
        return False
    expected = compute_signature(
        credentials,
        request.method,
        request.path,
        request.headers.get("x-amz-date", ""),
    )
    # Bytes, not str: compare_digest rejects a non-ASCII str, and the
    # signature is whatever the peer sent.
    return hmac.compare_digest(signature.encode(), expected.encode())
