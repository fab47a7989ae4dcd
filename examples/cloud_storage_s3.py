"""Cloud-storage access: signed S3 requests and HTTPS cost (Section 1
motivation + Section 2.2 TLS analysis).

The paper's opening argument is that HTTP unlocks the cloud-storage
ecosystem ("Amazon Simple Storage Service ... REST API like S3") for
HPC data access. This example runs the davix client against a private
flat-object endpoint — S3-style signed requests, key listing, ranged
and vectored reads — over real localhost sockets, then quantifies the
TLS surcharge the paper cites, on the simulator.

Run: ``python examples/cloud_storage_s3.py``
"""

from repro.concurrency import SimRuntime, ThreadRuntime
from repro.concurrency.tlsmodel import TlsPolicy
from repro.core import DavixClient, ObjectStoreClient, RequestParams
from repro.net import LinkSpec, Network
from repro.server import (
    FlatObjectApp,
    HttpServer,
    ObjectStore,
    S3Credentials,
    ServerConfig,
    StorageApp,
    real_server,
)
from repro.sim import Environment

CREDS = S3Credentials(access_key="AKIAEXAMPLE", secret_key="hunter2")


def s3_over_real_sockets() -> None:
    app = FlatObjectApp(ObjectStore(), credentials=CREDS)
    with real_server(app) as server:
        base = f"http://127.0.0.1:{server.port}"
        signed = DavixClient(
            ThreadRuntime(), params=RequestParams(s3_credentials=CREDS)
        )
        anonymous = DavixClient(ThreadRuntime())

        payload = bytes(range(256)) * 256  # 64 KiB
        signed.put(f"{base}/physics/run42/events.root", payload)
        signed.put(f"{base}/physics/run42/index.json", b"{}")
        print("uploaded 2 objects with signed PUTs")

        try:
            anonymous.get(f"{base}/physics/run42/events.root")
        except Exception as exc:
            print(f"anonymous GET rejected: {type(exc).__name__}")

        data = signed.get(f"{base}/physics/run42/events.root")
        assert data == payload
        fragment = signed.pread(
            f"{base}/physics/run42/events.root", 1024, 64
        )
        assert fragment == payload[1024:1088]
        chunks = signed.pread_vec(
            f"{base}/physics/run42/events.root",
            [(0, 16), (32_768, 16)],
        )
        print(
            "signed GET / range / vectored reads ok "
            f"({len(data)} B, {len(fragment)} B, {len(chunks)} fragments)"
        )
        keys = signed.runtime.run(
            ObjectStoreClient(signed.context, base).list_keys(
                prefix="/physics/run42/"
            )
        )
        print(f"signed key listing: {keys}")
        print(f"auth failures recorded by the endpoint: {app.auth_failures}")


def tls_surcharge_on_simulator() -> None:
    def run(scheme: str) -> float:
        env = Environment()
        net = Network(env, seed=6)
        net.add_host("client")
        net.add_host("server")
        net.set_route(
            "client", "server",
            LinkSpec(latency=0.05, bandwidth=62_500_000),
        )
        tls = TlsPolicy() if scheme == "https" else None
        store = ObjectStore()
        store.put("/bulk", b"z" * 20_000_000)
        HttpServer(
            SimRuntime(net, "server"),
            StorageApp(store, config=ServerConfig(tls=tls)),
            port=443 if scheme == "https" else 80,
        ).start()
        client = DavixClient(SimRuntime(net, "client"))
        start = client.runtime.now()
        client.get(f"{scheme}://server/bulk")
        return client.runtime.now() - start

    plain = run("http")
    tls = run("https")
    print(
        f"\n20 MB over a 100 ms-RTT link: http {plain:.2f}s vs "
        f"https {tls:.2f}s "
        f"(+{(tls / plain - 1) * 100:.0f}%: 2-RTT handshake + record "
        "crypto — the paper's argument against mandatory TLS)"
    )


def main() -> None:
    s3_over_real_sockets()
    tls_surcharge_on_simulator()


if __name__ == "__main__":
    main()
