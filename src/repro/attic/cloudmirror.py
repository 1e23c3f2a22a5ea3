"""The encrypted-cloud alternative the paper weighs against the attic.

SIV-A: "Another alternative would be to simply let the cloud store user
data in encrypted form. The home network would then provide the
external application the key to decrypt the data when an authorized
user requests a particular service. The user would trust the
application to not keep the key beyond the immediate use."

We implement that design so the comparison is concrete:

- :class:`EncryptedCloudStore` — a cloud service holding ciphertext
  blobs it cannot read,
- :class:`KeyEscrowService` — the HPoP-side keyring that releases
  per-file keys to authorized applications for a bounded time,
- breach accounting — breaching the cloud alone exposes nothing;
  exposure requires a key that some application retained (the trust
  assumption the paper flags), which the escrow's release log makes
  auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.hpop.core import Hpop, HpopService
from repro.http.messages import HttpRequest, HttpResponse, forbidden, not_found, ok
from repro.http.server import HttpServer
from repro.net.node import Host
from repro.util.crypto import deterministic_key, sha256_hex

KEY_ROUTE = "/escrow/key"


@dataclass
class CipherBlob:
    """An encrypted object at rest in the cloud."""

    name: str
    owner: str
    size: int
    key_id: str
    ciphertext_hash: str


class EncryptedCloudStore:
    """Cloud storage that only ever sees ciphertext."""

    def __init__(self, host: Host, port: int = 80) -> None:
        self.host = host
        self.port = port
        self._blobs: Dict[Tuple[str, str], CipherBlob] = {}
        self.breached = False
        existing = host.stream_listener(port)
        self.server = (existing if isinstance(existing, HttpServer)
                       else HttpServer(host, port, name="enc-cloud"))
        self.server.route("/blob", self._serve_blob)

    def store(self, owner: str, name: str, size: int, key_id: str) -> CipherBlob:
        blob = CipherBlob(name=name, owner=owner, size=size, key_id=key_id,
                          ciphertext_hash=sha256_hex(
                              f"{owner}:{name}:{key_id}".encode()))
        self._blobs[(owner, name)] = blob
        return blob

    def _serve_blob(self, request: HttpRequest) -> HttpResponse:
        body = request.body if isinstance(request.body, dict) else {}
        blob = self._blobs.get((body.get("owner", ""), body.get("name", "")))
        if blob is None:
            return not_found(body.get("name", ""))
        return ok(body_size=blob.size, body=blob)

    def breach(self) -> List[CipherBlob]:
        """An attacker dumps the store: they get ciphertext only."""
        self.breached = True
        return list(self._blobs.values())


@dataclass
class KeyRelease:
    """One audited key hand-out."""

    key_id: str
    application: str
    released_at: float
    expires_at: float


class KeyEscrowService(HpopService):
    """The home-resident keyring for cloud-encrypted data."""

    name = "key-escrow"

    def __init__(self, release_ttl: float = 300.0) -> None:
        super().__init__()
        self.release_ttl = release_ttl
        self._keys: Dict[str, bytes] = {}
        self._authorized: Set[Tuple[str, str]] = set()  # (app, key_id)
        self.release_log: List[KeyRelease] = []

    def on_install(self, hpop: Hpop) -> None:
        hpop.http.route(KEY_ROUTE, self._serve_key)

    # -- key management ----------------------------------------------------

    def create_key(self, file_name: str) -> str:
        """A fresh per-file key; returns its id."""
        key_id = self.sim.ids.next("escrow-key")
        self._keys[key_id] = deterministic_key(
            f"{self.hpop.name}:{file_name}:{key_id}")
        return key_id

    def authorize(self, application: str, key_id: str) -> None:
        """The user allows ``application`` to request ``key_id``."""
        if key_id not in self._keys:
            raise KeyError(f"no key {key_id}")
        self._authorized.add((application, key_id))

    def revoke(self, application: str, key_id: str) -> None:
        self._authorized.discard((application, key_id))

    # -- the release endpoint -------------------------------------------------

    def _serve_key(self, request: HttpRequest) -> HttpResponse:
        body = request.body if isinstance(request.body, dict) else {}
        application = body.get("application", "")
        key_id = body.get("key_id", "")
        if (application, key_id) not in self._authorized:
            return forbidden(f"{application} not authorized for {key_id}")
        key = self._keys.get(key_id)
        if key is None:
            return not_found(key_id)
        release = KeyRelease(key_id=key_id, application=application,
                             released_at=self.sim.now,
                             expires_at=self.sim.now + self.release_ttl)
        self.release_log.append(release)
        return ok(body_size=64, body={"key": key, "expires_at":
                                      release.expires_at})

    # -- breach accounting -----------------------------------------------------

    def exposure_after_cloud_breach(
        self, blobs: List[CipherBlob],
        applications_retaining_keys: Optional[Set[str]] = None,
    ) -> Tuple[int, int]:
        """(exposed, total) files after a cloud breach.

        Without retained keys nothing decrypts. If some applications
        violated the "do not keep the key" trust assumption, exactly the
        files whose keys were ever released to them are exposed.
        """
        retained = applications_retaining_keys or set()
        leaked_key_ids = {r.key_id for r in self.release_log
                          if r.application in retained}
        exposed = sum(1 for blob in blobs if blob.key_id in leaked_key_ids)
        return exposed, len(blobs)
