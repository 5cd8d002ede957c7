"""Server-side tenant tuning sessions — the state a shard owns.

Rover-style multi-tenant serving keeps the per-``(workload, query
signature)`` optimizer state *in the service*: the client (or fleet driver)
sends plain suggest/observe requests and the shard hosts the
:class:`~repro.core.centroid.CentroidLearning` session that answers them.

:class:`TenantSessionHost` is that per-shard session table.  The requests
themselves are served by :mod:`repro.service.batch_exec`: its batched drain
must be bit-identical to its per-request scalar path,
:func:`~repro.service.batch_exec.apply_scalar` — the
``diff_sharded_single`` oracle pins exactly that.

When the host is built with an :class:`~repro.service.backend.AutotuneBackend`
it registers one app per session (``app_id = "<workload>:<signature>"``) and
forwards every observed :class:`~repro.sparksim.events.QueryEndEvent` through
``submit_events``, so the backend's dedup / storage / Event-Hub pipeline
(model training included) runs identically whether the fleet is sharded or
not.  State handoff between shards moves the live :class:`TenantSession`
object — optimizer, RNG stream, and window travel intact, which is what
keeps a ring resize bit-identical (a JSON snapshot would lose the RNG
state; see ``docs/service.md``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .. import telemetry
from ..core.optimizer_base import Optimizer
from ..sparksim.events import QueryEndEvent
from .auth import TokenError
from .backend import AutotuneBackend, JobGrant

__all__ = ["SessionKey", "TenantSession", "TenantSessionHost", "UNPROBED"]

SessionKey = Tuple[str, str]  # (workload_id, query_signature)

# Sentinel for TenantSession.batch_profile: "not yet probed" (the batched
# executor resolves it to a BatchProfile or an ineligibility reason string
# on first contact).
UNPROBED = object()

# (workload_id, query_signature) -> a fresh optimizer for that session.
OptimizerFactory = Callable[[str, str], Optimizer]


class TenantSession:
    """One tenant tuning session living on a shard."""

    __slots__ = ("key", "optimizer", "grant", "batch_profile", "requests")

    def __init__(self, key: SessionKey, optimizer: Optimizer):
        self.key = key
        self.optimizer = optimizer
        self.grant: Optional[JobGrant] = None
        # Resolved lazily by the batched executor (a reason string =
        # scalar-only session).
        self.batch_profile = UNPROBED
        self.requests = 0

    @property
    def workload_id(self) -> str:
        return self.key[0]

    @property
    def query_signature(self) -> str:
        return self.key[1]

    @property
    def app_id(self) -> str:
        return f"{self.key[0]}:{self.key[1]}"


class TenantSessionHost:
    """Per-shard session table and its backend event forwarding.

    Args:
        shard_id: owning shard's id (labels telemetry; ``"single"`` for the
            unsharded reference deployment).
        optimizer_factory: builds the per-session optimizer.  Determinism
            contract: the factory must derive everything (seeds included)
            from the ``(workload_id, query_signature)`` key, so the same
            session created on any shard — or on the single-backend
            reference — is identical.
        backend: optional Autotune backend; when present, sessions register
            as apps and observed events are forwarded through
            ``submit_events`` (token refresh on expiry included).
        user_id_fn: maps a workload id to the owning user (models are
            per-user on the backend).
    """

    def __init__(
        self,
        shard_id: str,
        optimizer_factory: OptimizerFactory,
        backend: Optional[AutotuneBackend] = None,
        user_id_fn: Optional[Callable[[str], str]] = None,
    ):
        self.shard_id = shard_id
        self.optimizer_factory = optimizer_factory
        self.backend = backend
        self.user_id_fn = user_id_fn or (lambda workload_id: f"user-{workload_id}")
        self.sessions: Dict[SessionKey, TenantSession] = {}
        self.events_forwarded = 0

    def __len__(self) -> int:
        return len(self.sessions)

    # -- session lifecycle -------------------------------------------------------

    def session(self, workload_id: str, query_signature: str) -> TenantSession:
        """Get-or-create the session for ``(workload_id, query_signature)``."""
        key = (workload_id, query_signature)
        found = self.sessions.get(key)
        if found is not None:
            return found
        session = TenantSession(key, self.optimizer_factory(workload_id, query_signature))
        if self.backend is not None:
            session.grant = self._register(session)
        self.sessions[key] = session
        telemetry.counter("service.shard.sessions_created", shard=self.shard_id).inc()
        return session

    def _register(self, session: TenantSession) -> JobGrant:
        return self.backend.register_job(
            app_id=session.app_id,
            artifact_id=session.workload_id,
            user_id=self.user_id_fn(session.workload_id),
        )

    # -- event forwarding --------------------------------------------------------

    def forward_event(self, session: TenantSession, event: QueryEndEvent) -> None:
        """Push one observed event through the backend pipeline (if any).

        An expired write token is refreshed by re-registering the app once —
        the same recovery the remote client performs via its credential
        manager.
        """
        if self.backend is None:
            return
        if session.grant is None:
            session.grant = self._register(session)
        try:
            self.backend.submit_events(
                session.grant.event_write_token,
                session.app_id,
                session.workload_id,
                [event],
            )
        except TokenError:
            session.grant = self._register(session)
            self.backend.submit_events(
                session.grant.event_write_token,
                session.app_id,
                session.workload_id,
                [event],
            )
        self.events_forwarded += 1

    # -- state handoff -----------------------------------------------------------

    def export_sessions(self, workload_ids) -> List[TenantSession]:
        """Detach and return every session of the given workloads."""
        wanted = set(workload_ids)
        keys = [key for key in self.sessions if key[0] in wanted]
        return [self.sessions.pop(key) for key in keys]

    def adopt(self, session: TenantSession) -> None:
        """Receive a session handed off from another shard.

        The live object moves — optimizer, RNG, and observation window stay
        bit-identical.  Any backend grant from the previous shard is
        dropped; the next forwarded event re-registers against this shard's
        backend lazily.
        """
        if session.key in self.sessions:
            raise ValueError(f"session {session.key} already hosted on {self.shard_id}")
        if self.backend is not None:
            session.grant = None
        self.sessions[session.key] = session
        telemetry.counter("service.shard.sessions_adopted", shard=self.shard_id).inc()
