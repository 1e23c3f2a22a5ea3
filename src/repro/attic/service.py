"""The Data Attic service: a WebDAV store on the HPoP plus grant issuance.

The attic is "an application-agnostic interface to user data that
external applications and services can access, but would not store or
maintain" (paper SIV-A). Layout convention:

    /attic/<user>/...           the user's space
    /attic/<user>/health/...    e.g. the medical-records slice

Households get one user collection per member; external providers get
scoped credentials via :class:`~repro.attic.grants.ProviderGrant`.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.attic.grants import GrantError, GrantRegistry, ProviderGrant, QrPayload
from repro.hpop.core import HPOP_PORT, Hpop, HpopService
from repro.util.crypto import deterministic_key
from repro.webdav.server import READ, WRITE, WebDavServer

ATTIC_MOUNT = "/attic"


class DataAtticService(HpopService):
    """Install on an :class:`~repro.hpop.core.Hpop` to get a data attic."""

    name = "attic"

    def __init__(self) -> None:
        super().__init__()
        self.dav: Optional[WebDavServer] = None
        self.grants = GrantRegistry()

    # -- lifecycle ----------------------------------------------------------

    def on_install(self, hpop: Hpop) -> None:
        self.dav = WebDavServer(hpop.http, mount=ATTIC_MOUNT,
                                realm=f"attic:{hpop.household.name}")
        for user in hpop.household.users:
            self.dav.add_user(user.name, user.password)
            home_path = f"/{user.name}"
            self.dav.tree.mkcol_recursive(home_path, now=self.sim.now)
            self.dav.grant(home_path, user.name, {READ, WRITE})

    # -- user-facing paths ------------------------------------------------------

    def user_path(self, username: str) -> str:
        """The DAV-internal root of a user's space."""
        self.hpop.household.user(username)  # raises for strangers
        return f"/{username}"

    # -- provider grants ------------------------------------------------------------

    def issue_grant(
        self,
        owner: str,
        provider_name: str,
        sub_path: str = "",
        rights: Optional[Set[str]] = None,
    ) -> ProviderGrant:
        """Create a scoped credential for an external provider.

        ``sub_path`` narrows the grant below the owner's space, e.g.
        ``"health"`` for medical records. Returns the grant whose
        :meth:`~repro.attic.grants.ProviderGrant.to_qr` payload is handed
        to the provider (the paper's QR-code step).
        """
        assert self.dav is not None
        owner_path = self.user_path(owner)
        base = owner_path if not sub_path else f"{owner_path}/{sub_path.strip('/')}"
        self.dav.tree.mkcol_recursive(base, now=self.sim.now)
        grant_id = self.sim.ids.next("grant")
        username = f"provider-{provider_name}-{grant_id}"
        password = deterministic_key(f"{self.hpop.name}:{username}").hex()[:16]
        grant = ProviderGrant(
            grant_id=grant_id,
            provider_name=provider_name,
            owner=owner,
            base_path=base,
            username=username,
            password=password,
            rights=set(rights if rights is not None else {READ, WRITE}),
        )
        self.dav.add_user(username, password)
        self.dav.grant(base, username, grant.rights)
        self.grants.add(grant)
        return grant

    def qr_for(self, grant: ProviderGrant) -> QrPayload:
        """The QR payload a user shows to the provider's front desk."""
        return grant.to_qr(self.hpop.host.address, HPOP_PORT)

    def revoke_grant(self, grant_id: str) -> None:
        """Cut a provider off (e.g. after switching providers)."""
        assert self.dav is not None
        grant = self.grants.revoke(grant_id)
        self.dav.remove_user(grant.username)

    # -- introspection ---------------------------------------------------------------

    def stored_bytes(self, username: Optional[str] = None) -> int:
        assert self.dav is not None
        path = self.user_path(username) if username else "/"
        return self.dav.tree.total_bytes(path)
