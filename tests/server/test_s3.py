"""Tests for signed (S3-style) access to the flat-object dialect."""

import pytest

from repro.core import Context, DavixClient, ObjectStoreClient, RequestParams
from repro.errors import PermissionDenied
from repro.http import Request
from repro.obs import MetricsRegistry
from repro.server import (
    FlatObjectApp,
    HttpServer,
    ObjectStore,
    S3Credentials,
    sign_request,
)
from repro.server.s3 import compute_signature, verify

from tests.helpers import one_request, sim_world

CREDS = S3Credentials(access_key="AKIATEST", secret_key="sekrit")


def s3_world(credentials=CREDS):
    client_rt, server_rt = sim_world()
    store = ObjectStore()
    app = FlatObjectApp(
        store, credentials=credentials, metrics=MetricsRegistry()
    )
    HttpServer(server_rt, app, port=80).start()
    params = RequestParams(s3_credentials=credentials)
    client = DavixClient(client_rt, params=params)
    return client, app, store


def test_signed_put_get_delete_cycle():
    client, app, store = s3_world()
    url = "http://server/bucket/data/obj.bin"
    client.put(url, b"s3-payload")
    assert store.read("/bucket/data/obj.bin") == b"s3-payload"
    assert client.get(url) == b"s3-payload"
    assert client.stat(url).size == 10
    client.delete(url)
    assert not store.exists("/bucket/data/obj.bin")
    assert app.auth_failures == 0


def test_unsigned_request_rejected_403():
    client, app, store = s3_world()
    store.put("/bucket/x", b"secret")
    anon = DavixClient(client.runtime, params=RequestParams())
    with pytest.raises(PermissionDenied):
        anon.get("http://server/bucket/x")
    assert app.auth_failures >= 1
    # A refused request is still a counted request, like any other.
    refused = app.metrics.counter("server.responses_total", status="403")
    assert refused.value == app.auth_failures == app.requests_handled


def test_wrong_secret_rejected():
    client, app, store = s3_world()
    store.put("/bucket/x", b"secret")
    bad = DavixClient(
        client.runtime,
        params=RequestParams(
            s3_credentials=S3Credentials("AKIATEST", "wrong")
        ),
    )
    with pytest.raises(PermissionDenied):
        bad.get("http://server/bucket/x")


def test_public_bucket_needs_no_signature():
    client, app, store = s3_world(credentials=None)
    store.put("/bucket/x", b"open")
    anon = DavixClient(client.runtime, params=RequestParams())
    assert anon.get("http://server/bucket/x") == b"open"


def test_range_and_vectored_reads_work_on_s3():
    client, app, store = s3_world()
    content = bytes(i % 251 for i in range(50_000))
    store.put("/bucket/big", content)
    url = "http://server/bucket/big"
    assert client.pread(url, 1000, 100) == content[1000:1100]
    reads = [(0, 10), (25_000, 20), (49_990, 10)]
    assert client.pread_vec(url, reads) == [
        content[o : o + n] for o, n in reads
    ]


def test_list_keys_over_a_signed_endpoint():
    client, app, store = s3_world()
    store.put("/bucket/a/one.bin", b"1")
    store.put("/bucket/a/two.bin", b"22")
    store.put("/logs/x.log", b"333")
    objects = ObjectStoreClient(
        Context(params=RequestParams(s3_credentials=CREDS)),
        "http://server/",
    )
    assert client.runtime.run(objects.list_keys()) == [
        "/bucket/a/one.bin",
        "/bucket/a/two.bin",
        "/logs/x.log",
    ]
    assert client.runtime.run(objects.list_keys(prefix="/logs/")) == [
        "/logs/x.log"
    ]
    assert app.auth_failures == 0

    # The listing is as private as the objects.
    response = client.runtime.run(
        one_request(("server", 80), Request("GET", "/?list=1"))
    )
    assert response.status == 403
    assert app.auth_failures == 1


def test_missing_key_is_404():
    client, app, store = s3_world()
    with pytest.raises(Exception) as info:
        client.get("http://server/bucket/nope")
    assert getattr(info.value, "status", None) == 404


def test_signature_is_method_and_path_bound():
    sig_get = compute_signature(CREDS, "GET", "/bucket/x", "123")
    sig_put = compute_signature(CREDS, "PUT", "/bucket/x", "123")
    sig_other = compute_signature(CREDS, "GET", "/bucket/y", "123")
    assert sig_get != sig_put
    assert sig_get != sig_other
    assert sig_get == compute_signature(CREDS, "GET", "/bucket/x", "123")


def test_verify_accepts_only_the_signed_request():
    request = Request("GET", "/bucket/x?list=1")
    assert not verify(request, CREDS)
    sign_request(request, CREDS, date="123")
    assert verify(request, CREDS)
    assert not verify(request, S3Credentials("AKIATEST", "wrong"))
    assert not verify(request, S3Credentials("OTHER", "sekrit"))
    request.headers.set("Authorization", "AWS AKIATEST")
    assert not verify(request, CREDS)
    # Whatever the peer sends is compared, never raised on.
    request.headers.set("Authorization", "AWS AKIATEST:café")
    assert not verify(request, CREDS)
