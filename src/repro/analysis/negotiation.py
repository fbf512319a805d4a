"""Advertised vs. negotiated security (§5.1 extension).

Advertising a ``(policy, mode)`` endpoint and actually *completing* a
secure channel at it are different observations: a server may list
Basic256Sha256 endpoints yet abort every handshake against an
untrusted client certificate.  This analysis compares the two using
the secure channel each grab opens at the strongest advertised pair —
for every server with a secure endpoint, did that pair complete, and
if not, why not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.scanner.ranking import most_secure_endpoint
from repro.scanner.records import HostRecord
from repro.secure.policies import policy_by_uri
from repro.uabin.enums import MessageSecurityMode


@dataclass
class NegotiationStatistics:
    """Outcome counts of the secure-channel negotiation."""

    total_servers: int = 0
    #: servers advertising only None endpoints (nothing to negotiate)
    none_only: int = 0
    #: servers where the scanner completed a secure channel
    negotiated: int = 0
    #: servers where negotiation failed (error recorded)
    failed: int = 0
    #: servers whose negotiation was not recorded at all (schema-old data)
    unattempted: int = 0
    #: negotiated == strongest advertised (policy, mode) pair
    matched_best_advertised: int = 0
    #: completed channels per policy short label (D1/D2/S1/S2/S3)
    by_policy: dict[str, int] = field(default_factory=dict)
    #: completed channels per mode short label (S / S&E)
    by_mode: dict[str, int] = field(default_factory=dict)
    #: negotiation failures per recorded error
    errors: dict[str, int] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        """Servers whose negotiation ran (completed or failed)."""
        return self.negotiated + self.failed


def analyze_negotiated_security(
    records: list[HostRecord],
) -> NegotiationStatistics:
    stats = NegotiationStatistics()
    for record in records:
        stats.total_servers += 1
        best = most_secure_endpoint(record.endpoints)
        if best is None:
            stats.none_only += 1
            continue
        session = record.session
        if session is None:
            stats.unattempted += 1
            continue
        if session.negotiation_error is not None:
            stats.failed += 1
            stats.errors[session.negotiation_error] = (
                stats.errors.get(session.negotiation_error, 0) + 1
            )
            continue
        if session.negotiated_policy_uri is None:
            stats.unattempted += 1
            continue
        stats.negotiated += 1
        try:
            policy = policy_by_uri(session.negotiated_policy_uri)
            policy_label = policy.short_label
        except KeyError:
            policy = None
            policy_label = session.negotiated_policy_uri
        mode = MessageSecurityMode(session.negotiated_mode)
        stats.by_policy[policy_label] = stats.by_policy.get(policy_label, 0) + 1
        stats.by_mode[mode.short_label] = stats.by_mode.get(mode.short_label, 0) + 1
        endpoint, best_policy = best
        if policy is best_policy and mode == endpoint.mode:
            stats.matched_best_advertised += 1
    return stats
