"""Offline-mode access to attic files (paper SIV-A "Flexible Access").

"just as some popular cloud-based applications have an 'offline mode'
(e.g., Google Docs), similar use of attic-based data is possible. Just
as with cloud-based applications, changes to the files would need
reconciled upon reconnection."

:class:`OfflineDevice` is a laptop/phone that checks attic files out
into an :class:`~repro.attic.reconcile.OfflineWorkspace`, keeps working
while disconnected, and reconciles everything on reconnection: local
changes push, remote changes pull, true conflicts keep both copies (the
local version is preserved in the attic as a conflict file).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.attic.grants import QrPayload
from repro.attic.reconcile import OfflineWorkspace, SyncAction, SyncResult
from repro.http.client import HttpClient, fan_in
from repro.http.messages import HttpRequest
from repro.net.network import Network
from repro.net.node import Host
from repro.webdav.server import basic_auth

_ETAG_VERSION = re.compile(r'-v(\d+)"$')


def version_from_etag(etag: str) -> int:
    """Extract the version number from a DAV ETag like '"f-v3"'."""
    match = _ETAG_VERSION.search(etag or "")
    if not match:
        raise ValueError(f"cannot parse version from etag {etag!r}")
    return int(match.group(1))


class OfflineDevice:
    """A device with an offline workspace over one attic grant."""

    def __init__(self, device: Host, network: Network,
                 payload: QrPayload) -> None:
        self.device = device
        self.network = network
        self.grant = payload
        self.client = HttpClient(device, network)
        self.workspace = OfflineWorkspace()
        self.online = True

    @property
    def sim(self):
        return self.network.sim

    # -- plumbing ---------------------------------------------------------

    def _headers(self) -> Dict[str, str]:
        return basic_auth(self.grant.username, self.grant.password)

    def _url(self, name: str) -> str:
        return f"/attic{self.grant.base_path.rstrip('/')}/{name.lstrip('/')}"

    def _attic_host(self):
        return self.network.node_for(self.grant.attic_address)

    def _request(self, request, on_response, on_error):
        if not self.online:
            self.sim.call_soon(
                lambda: on_error(RuntimeError("device is offline")),
                label="offline.blocked")
            return
        self.client.request(self._attic_host(), request, on_response,
                            port=self.grant.attic_port, on_error=on_error)

    # -- connectivity ---------------------------------------------------------

    def go_offline(self) -> None:
        self.online = False

    def go_online(self) -> None:
        self.online = True

    # -- checkout / edit ---------------------------------------------------------

    def checkout(self, name: str,
                 on_done: Callable[[bool], None]) -> None:
        """Pull the current attic version into the workspace."""

        def got(resp, _stats) -> None:
            if not resp.ok:
                on_done(False)
                return
            version = version_from_etag(resp.headers.get("ETag", ""))
            content = resp.body
            self.workspace.checkout(
                name, attic_version=version,
                size=getattr(content, "size", resp.body_size),
                payload=getattr(content, "payload", None))
            on_done(True)

        self._request(HttpRequest("GET", self._url(name),
                                  headers=self._headers()),
                      got, lambda exc: on_done(False))

    def edit(self, name: str, size: int, payload: object = None) -> None:
        """A local (possibly offline) edit."""
        self.workspace.edit(name, size=size, payload=payload)

    # -- reconciliation ------------------------------------------------------------

    def reconcile_all(
        self,
        on_done: Callable[[List[SyncResult]], None],
    ) -> None:
        """On reconnection: reconcile every checked-out file.

        PUSH uploads the local copy; PULL adopts the attic version;
        CONFLICT uploads the local work as a ``.conflict-vN`` sibling and
        adopts the attic version — nothing is silently lost on either side.
        """
        if not self.online:
            raise RuntimeError("cannot reconcile while offline")
        names = self.workspace.files()
        if not names:
            self.sim.call_soon(lambda: on_done([]), label="offline.noop")
            return

        def all_finished(answers: List[tuple]) -> None:
            on_done(sorted((result for result, in answers
                            if result is not None), key=lambda r: r.name))

        one_finished = fan_in(len(names), all_finished)
        for name in names:
            self._reconcile_one(name, one_finished)

    def _reconcile_one(self, name: str,
                       finished: Callable[[Optional[SyncResult]], None]) -> None:
        state = self.workspace.state_of(name)

        def got_remote(resp, _stats) -> None:
            if not resp.ok:
                finished(None)
                return
            remote_version = version_from_etag(resp.headers.get("ETag", ""))
            content = resp.body
            # Capture the local copy before reconcile() may overwrite it.
            local_size, local_payload = state.size, state.payload
            result = self.workspace.reconcile(
                name, attic_version=remote_version,
                attic_size=getattr(content, "size", resp.body_size),
                attic_payload=getattr(content, "payload", None))
            if result.action is SyncAction.PUSH:
                self._put(name, local_size, local_payload,
                          lambda ok: finished(result))
            elif result.action is SyncAction.CONFLICT:
                copy = self.workspace.conflict_copies[result.conflict_copy]
                self._put(result.conflict_copy, copy.size, copy.payload,
                          lambda ok: finished(result))
            else:
                finished(result)

        self._request(HttpRequest("GET", self._url(name),
                                  headers=self._headers()),
                      got_remote, lambda exc: finished(None))

    def _put(self, name: str, size: int, payload: object,
             done: Callable[[bool], None]) -> None:
        self._request(
            HttpRequest("PUT", self._url(name), headers=self._headers(),
                        body=payload, body_size=size),
            lambda resp, _s: done(resp.status in (201, 204)),
            lambda exc: done(False))
